//! Typed scans over the columnar event store.
//!
//! Every exhibit is a filter → aggregate scan over the classified
//! [`Dataset`]. A [`Plan`] describes one such scan as an owned value: a
//! destination domain ([`Plan::at`], or [`Plan::scan`] for table order),
//! predicates that **push down onto the `Copy` ID columns**
//! (port/verdict/fingerprint/observation kind) of the struct-of-arrays
//! [`EventTable`](cw_honeypot::capture::EventTable), and one terminal
//! aggregate. String resolution through the interner never happens inside
//! a scan — aggregates count by ID, and only render code resolves IDs to
//! strings (see `docs/QUERY.md` for the full contract).
//!
//! Plans run two ways. [`PlanStore::build`] partitions many plans by
//! row-enumeration domain (identical destination pushdown), evaluates each
//! partition in **one pass** over the interned columns, and memoizes the
//! typed [`PlanResult`]s: Tables 8 and 9 (same fleets, different residual
//! filters) cost two fleet scans instead of four, and across the exhibit
//! registry `ExhibitCx::prefetch` builds one store per bundle from every
//! declared plan so coinciding scans fuse registry-wide, with every
//! bundle's passes spread over the fleet workers (see `docs/QUERY.md` and
//! `Exhibit::plans`). [`ScanExec::run`] runs one plan: a store hit, or a
//! standalone pass. [`ScanExec::char_freqs`] does the same for a
//! `char_freqs` plan, but borrows the map on a store hit.
//!
//! Every domain, predicate and terminal combines with every other, so
//! every plan that can be built can run: there is no validation step and
//! no error path.
//!
//! Scan-count observability: every partition pass bumps
//! process-wide counters, readable via [`scan_counters`]. The `cw all
//! --trace-scans` flag and the `cwbench` benchmark's `scan.*` metrics
//! report fused vs planned scan counts from them.
//!
//! # Example
//!
//! ```
//! use cw_core::dataset::Dataset;
//! use cw_core::{Plan, ScanExec};
//! use cw_honeypot::capture::{Capture, Observed, ScanEvent};
//! use cw_netsim::asn::Asn;
//! use cw_netsim::time::SimTime;
//! use std::net::Ipv4Addr;
//!
//! let mut cap = Capture::new("doc");
//! let dst = Ipv4Addr::new(20, 10, 0, 0); // a standard-deployment vantage
//! for (src, port) in [(1, 23), (2, 23), (2, 2323), (3, 22)] {
//!     cap.record(ScanEvent {
//!         time: SimTime(60),
//!         src: Ipv4Addr::new(100, 0, 0, src),
//!         src_asn: Asn(4134),
//!         dst,
//!         dst_port: port,
//!         observed: Observed::Syn,
//!     });
//! }
//! let ds = Dataset::from_captures(&[&cap]);
//!
//! // Distinct Telnet-port scanners at this vantage: 2 (sources .1 and .2).
//! let plan = Plan::at(&[dst]).port_in(&[23, 2323]).distinct_srcs();
//! let telnet = ScanExec::unplanned(&ds).run(&plan).into_distinct_srcs();
//! assert_eq!(telnet.len(), 2);
//! ```

use crate::axes;
use crate::compare::CharKind;
use crate::dataset::{Dataset, TrafficSlice};
use crate::fleet;
use cw_detection::Verdict;
use cw_honeypot::capture::Observed;
use cw_protocols::ProtocolId;
use cw_stats::topk::Freqs;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide column passes actually executed (each partition pass
/// counts one).
static FUSED_PASSES: AtomicU64 = AtomicU64::new(0);
/// Process-wide plan evaluations requested (each plan a pass runs counts
/// one). The gap between this and [`FUSED_PASSES`] is the fusion win.
static PLANNED_SCANS: AtomicU64 = AtomicU64::new(0);
/// Process-wide candidate rows enumerated across all passes.
static SCANNED_ROWS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Passes run on this thread. A unit test that asserts no pass ran
    /// reads this instead of the process-wide counters, which the tests
    /// scanning on other threads move.
    static THREAD_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The passes run on the calling thread so far (tests only).
#[cfg(test)]
pub(crate) fn thread_passes() -> u64 {
    THREAD_PASSES.with(std::cell::Cell::get)
}

/// A snapshot of the process-wide scan counters (monotonic; subtract two
/// snapshots with [`ScanCounters::since`] to meter one phase).
///
/// `fused` counts column passes actually executed; `planned` counts plan
/// evaluations requested. A [`PlanStore`] hit
/// bumps neither — the work already happened at prefetch time — so after a
/// fully prefetched render `fused < planned` exactly when fusion shared
/// passes between plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanCounters {
    /// Column passes executed.
    pub fused: u64,
    /// Plan evaluations requested.
    pub planned: u64,
    /// Candidate rows enumerated.
    pub rows: u64,
}

impl ScanCounters {
    /// The counter deltas accumulated since `earlier`.
    pub fn since(self, earlier: ScanCounters) -> ScanCounters {
        ScanCounters {
            fused: self.fused - earlier.fused,
            planned: self.planned - earlier.planned,
            rows: self.rows - earlier.rows,
        }
    }
}

/// Read the process-wide scan counters.
pub fn scan_counters() -> ScanCounters {
    ScanCounters {
        fused: FUSED_PASSES.load(Ordering::Relaxed),
        planned: PLANNED_SCANS.load(Ordering::Relaxed),
        rows: SCANNED_ROWS.load(Ordering::Relaxed),
    }
}

/// The observation kinds a [`Plan::kind`] / [`Plan::not_kind`] predicate
/// selects on (the discriminant of [`Observed`], without its payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsKind {
    /// Bare SYN (telescope-style observation).
    Syn,
    /// Completed handshake, no client bytes.
    Handshake,
    /// First client payload.
    Payload,
    /// Harvested interactive login.
    Credentials,
}

impl ObsKind {
    fn matches(self, o: &Observed) -> bool {
        matches!(
            (self, o),
            (ObsKind::Syn, Observed::Syn)
                | (ObsKind::Handshake, Observed::Handshake)
                | (ObsKind::Payload, Observed::Payload(_))
                | (ObsKind::Credentials, Observed::Credentials { .. })
        )
    }
}

/// A residual row predicate, evaluated against the dataset's event table
/// and classification columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pred {
    Port(u16),
    PortIn(Vec<u16>),
    Slice(TrafficSlice),
    Verdict(Verdict),
    Fingerprint(ProtocolId),
    Fingerprinted,
    Kind(ObsKind),
    NotKind(ObsKind),
}

impl Pred {
    /// The predicate over one chunk of at most 64 rows: bit `k` is set
    /// iff row `rows[k]` passes. It reads one column across the chunk.
    fn mask(&self, ds: &Dataset, rows: &[u32]) -> u64 {
        let table = ds.table();
        let ports = table.dst_ports();
        let fingerprints = ds.fingerprints();
        match self {
            Pred::Port(port) => column_mask(rows, ports, |p| p == port),
            Pred::PortIn(list) => column_mask(rows, ports, |p| list.contains(p)),
            Pred::Slice(slice) => match slice {
                TrafficSlice::SshPort22 => column_mask(rows, ports, |&p| p == 22),
                TrafficSlice::TelnetPort23 => column_mask(rows, ports, |&p| p == 23),
                TrafficSlice::HttpPort80 => column_mask(rows, ports, |&p| p == 80),
                TrafficSlice::HttpAllPorts => {
                    column_mask(rows, fingerprints, |&f| f == Some(ProtocolId::Http))
                }
                TrafficSlice::AnyAll => u64::MAX,
            },
            Pred::Verdict(v) => column_mask(rows, ds.verdicts(), |x| x == v),
            Pred::Fingerprint(proto) => column_mask(rows, fingerprints, |&f| f == Some(*proto)),
            Pred::Fingerprinted => column_mask(rows, fingerprints, Option::is_some),
            Pred::Kind(k) => column_mask(rows, table.observed(), |o| k.matches(o)),
            Pred::NotKind(k) => column_mask(rows, table.observed(), |o| !k.matches(o)),
        }
    }
}

/// Bit `k` set iff `keep(&column[rows[k]])`, over a chunk of at most 64
/// rows.
///
/// The index cannot leave the column: a pass enumerates row numbers from
/// `0..ds.len()` or from the destination index built over the table, and
/// every column holds `ds.len()` cells (`Dataset::snap_read` rejects a
/// snapshot whose classification columns disagree with its table).
fn column_mask<T>(rows: &[u32], column: &[T], keep: impl Fn(&T) -> bool) -> u64 {
    rows.iter().enumerate().fold(0, |mask, (k, &i)| {
        mask | (u64::from(keep(&column[i as usize])) << k)
    })
}

/// A filter over one chunk: its predicates ANDed in order into the
/// chunk's mask `all`, stopping at the first empty mask.
fn select(preds: &[Pred], ds: &Dataset, rows: &[u32], all: u64) -> u64 {
    let mut mask = all;
    for pred in preds {
        if mask == 0 {
            break;
        }
        mask &= pred.mask(ds, rows);
    }
    mask
}

/// The mask of a chunk of `n` rows: its low `n` bits (all 64 from 64 on).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// The terminal aggregate of a [`Plan`] — what one pass folds the admitted
/// rows into.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// Admitted-row count → [`PlanResult::Count`].
    Count,
    /// Admitted row indices in enumeration order → [`PlanResult::Rows`]
    /// (resolve to [`ClassifiedEvent`](crate::dataset::ClassifiedEvent)s
    /// through [`Dataset::event`]).
    Rows,
    /// Distinct source IPs → [`PlanResult::DistinctSrcs`].
    DistinctSrcs,
    /// Distinct source-IP and source-AS counts → Table 1's columns,
    /// [`PlanResult::UniqueSrcAndAsn`].
    UniqueSrcAndAsn,
    /// §3.3 characteristic frequencies of the admitted rows →
    /// [`PlanResult::CharFreqs`]. Strings resolve once per distinct ID when
    /// the partition finishes, never inside the scan.
    CharFreqs(CharKind),
    /// Distinct source IPs per destination port over a fixed key list:
    /// only listed ports are aggregated and every listed port appears in
    /// the result, even empty — the Tables 8/9 contract →
    /// [`PlanResult::PortSrcs`].
    SrcsByPort(Vec<u16>),
    /// Distinct source IPs per LZR fingerprint; rows without a fingerprint
    /// fall outside every group → [`PlanResult::FingerprintSrcs`].
    SrcsByFingerprint,
}

/// A declarative scan: destination domain + pushdown predicates +
/// terminal, as an **owned value** — no dataset borrow, so exhibits can
/// declare the plans they will need before any world is simulated
/// (`Exhibit::plans`), and identical plans deduplicate structurally
/// ([`Plan`] is `Eq + Hash`).
///
/// [`Plan::at`] fixes the enumeration domain (or [`Plan::scan`] for table
/// order), predicate methods push filters down, and the terminal methods
/// ([`Plan::count`], [`Plan::rows`], [`Plan::distinct_srcs`],
/// [`Plan::unique_src_and_asn`], [`Plan::char_freqs`],
/// [`Plan::srcs_by_port`], [`Plan::srcs_by_fingerprint`]) pick the
/// aggregate; the last one called wins. A conflicting destination pushdown
/// is unrepresentable: the plan owns its single domain, and the executor
/// groups plans *by* domain.
///
/// Execute through [`PlanStore::build`] (fused with other plans and
/// memoized) or [`ScanExec::run`] (store hit or standalone).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    dsts: Option<Vec<Ipv4Addr>>,
    preds: Vec<Pred>,
    terminal: Terminal,
}

impl Plan {
    /// A plan over every row, in table order (no destination pushdown).
    pub fn scan() -> Self {
        Plan {
            dsts: None,
            preds: Vec::new(),
            terminal: Terminal::Count,
        }
    }

    /// A plan over the rows destined to `ips`: only those rows are
    /// visited, through the dataset's per-destination row index, without
    /// scanning the destination column. Rows are enumerated per IP **in
    /// the order given**, then in capture order within an IP; only
    /// [`Plan::rows`] observes that order, and a dense domain of the other
    /// terminals is read in table order instead ([`TABLE_ORDER_SHARE`]).
    pub fn at(ips: &[Ipv4Addr]) -> Self {
        Plan {
            dsts: Some(ips.to_vec()),
            ..Plan::scan()
        }
    }

    /// Keep rows whose destination port is `port`.
    pub fn port(mut self, port: u16) -> Self {
        self.preds.push(Pred::Port(port));
        self
    }

    /// Keep rows whose destination port is one of `ports`.
    pub fn port_in(mut self, ports: &[u16]) -> Self {
        self.preds.push(Pred::PortIn(ports.to_vec()));
        self
    }

    /// Keep rows inside a §3.3 traffic slice.
    pub fn slice(mut self, slice: TrafficSlice) -> Self {
        self.preds.push(Pred::Slice(slice));
        self
    }

    /// Keep rows with the given §3.2 verdict.
    pub fn verdict(mut self, v: Verdict) -> Self {
        self.preds.push(Pred::Verdict(v));
        self
    }

    /// Keep rows classified as attacker traffic — shorthand for
    /// `verdict(Verdict::Attacker)`.
    pub fn malicious(self) -> Self {
        self.verdict(Verdict::Attacker)
    }

    /// Keep rows whose payload fingerprinted as `proto`.
    pub fn fingerprint(mut self, proto: ProtocolId) -> Self {
        self.preds.push(Pred::Fingerprint(proto));
        self
    }

    /// Keep rows that fingerprinted as *some* protocol.
    pub fn fingerprinted(mut self) -> Self {
        self.preds.push(Pred::Fingerprinted);
        self
    }

    /// Keep rows whose observation is of `kind`.
    pub fn kind(mut self, kind: ObsKind) -> Self {
        self.preds.push(Pred::Kind(kind));
        self
    }

    /// Keep rows whose observation is *not* of `kind`.
    pub fn not_kind(mut self, kind: ObsKind) -> Self {
        self.preds.push(Pred::NotKind(kind));
        self
    }

    /// Terminal: count admitted rows.
    pub fn count(mut self) -> Self {
        self.terminal = Terminal::Count;
        self
    }

    /// Terminal: admitted row indices, in enumeration order.
    pub fn rows(mut self) -> Self {
        self.terminal = Terminal::Rows;
        self
    }

    /// Terminal: distinct source IPs.
    pub fn distinct_srcs(mut self) -> Self {
        self.terminal = Terminal::DistinctSrcs;
        self
    }

    /// Terminal: distinct source-IP and source-AS counts in one pass.
    pub fn unique_src_and_asn(mut self) -> Self {
        self.terminal = Terminal::UniqueSrcAndAsn;
        self
    }

    /// Terminal: §3.3 characteristic frequencies of the admitted rows.
    pub fn char_freqs(mut self, kind: CharKind) -> Self {
        self.terminal = Terminal::CharFreqs(kind);
        self
    }

    /// Terminal: distinct source IPs per destination port, over the fixed
    /// `ports` key list (every listed port appears in the result, even
    /// empty).
    pub fn srcs_by_port(mut self, ports: &[u16]) -> Self {
        self.terminal = Terminal::SrcsByPort(ports.to_vec());
        self
    }

    /// Terminal: distinct source IPs per LZR fingerprint.
    pub fn srcs_by_fingerprint(mut self) -> Self {
        self.terminal = Terminal::SrcsByFingerprint;
        self
    }
}

/// The typed result of one executed [`Plan`] — owned data, cheap to clone
/// from a [`PlanStore`], and independent of the dataset borrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanResult {
    /// [`Terminal::Count`].
    Count(usize),
    /// [`Terminal::Rows`]: admitted row indices in enumeration order
    /// (resolve via [`Dataset::event`] as needed).
    Rows(Vec<usize>),
    /// [`Terminal::DistinctSrcs`].
    DistinctSrcs(BTreeSet<Ipv4Addr>),
    /// [`Terminal::UniqueSrcAndAsn`]: (distinct sources, distinct ASes).
    UniqueSrcAndAsn(usize, usize),
    /// [`Terminal::CharFreqs`].
    CharFreqs(Freqs),
    /// [`Terminal::SrcsByPort`].
    PortSrcs(BTreeMap<u16, BTreeSet<Ipv4Addr>>),
    /// [`Terminal::SrcsByFingerprint`].
    FingerprintSrcs(BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>>),
}

impl PlanResult {
    /// The `into_*` contract: a caller unwraps the variant of the terminal
    /// it set on its own plan, so a mismatch is a bug in the calling code.
    /// Data never chooses the variant: a plan's terminal picks it, and
    /// every terminal produces its variant on any dataset.
    fn mismatch(&self, wanted: &str) -> ! {
        panic!("plan result holds {self:?}, caller expected {wanted}")
    }

    /// Unwrap a [`PlanResult::Count`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_count(self) -> usize {
        match self {
            PlanResult::Count(n) => n,
            other => other.mismatch("Count"),
        }
    }

    /// Unwrap a [`PlanResult::Rows`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_rows(self) -> Vec<usize> {
        match self {
            PlanResult::Rows(v) => v,
            other => other.mismatch("Rows"),
        }
    }

    /// Unwrap a [`PlanResult::DistinctSrcs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_distinct_srcs(self) -> BTreeSet<Ipv4Addr> {
        match self {
            PlanResult::DistinctSrcs(s) => s,
            other => other.mismatch("DistinctSrcs"),
        }
    }

    /// Unwrap a [`PlanResult::UniqueSrcAndAsn`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_unique_src_and_asn(self) -> (usize, usize) {
        match self {
            PlanResult::UniqueSrcAndAsn(s, a) => (s, a),
            other => other.mismatch("UniqueSrcAndAsn"),
        }
    }

    /// Unwrap a [`PlanResult::CharFreqs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_char_freqs(self) -> Freqs {
        match self {
            PlanResult::CharFreqs(m) => m,
            other => other.mismatch("CharFreqs"),
        }
    }

    /// Unwrap a [`PlanResult::PortSrcs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_port_srcs(self) -> BTreeMap<u16, BTreeSet<Ipv4Addr>> {
        match self {
            PlanResult::PortSrcs(m) => m,
            other => other.mismatch("PortSrcs"),
        }
    }

    /// Unwrap a [`PlanResult::FingerprintSrcs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_fingerprint_srcs(self) -> BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> {
        match self {
            PlanResult::FingerprintSrcs(m) => m,
            other => other.mismatch("FingerprintSrcs"),
        }
    }
}

/// The process's multiply-shift multiplier: odd, and drawn once from
/// [`RandomState`]'s per-process random keys.
fn id_multiplier() -> u64 {
    static MULTIPLIER: OnceLock<u64> = OnceLock::new();
    *MULTIPLIER.get_or_init(|| RandomState::new().hash_one(0u64) | 1)
}

/// The keyed hasher of the kernel's `u32` ID sets and counts (source
/// addresses, AS numbers, verdicts, credential and payload IDs) and of
/// the dataset's destination index.
///
/// It is multiply-shift: a key `x` hashes to `x·k` for the process's odd
/// multiplier `k`, rotated so that the product's high half, where every
/// bit of `x` has mixed, feeds the low bits a hash table takes its bucket
/// from. A plain `x·k` would put every address of a /16 (`a.b.0.0`, whose
/// low 16 bits are zero) in one bucket. The multiplier is random per
/// process because the addresses come from snapshot files. No result
/// depends on it: every set is sorted, every count map labelled into a
/// `BTreeMap` when its pass finishes, and the destination index lays its
/// destinations out in address order.
#[derive(Clone, Copy)]
pub(crate) struct IdHash(u64);

impl Default for IdHash {
    fn default() -> Self {
        IdHash(id_multiplier())
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            multiplier: self.0,
            state: 0,
        }
    }
}

/// The running state of one [`IdHash`] hash.
pub(crate) struct IdHasher {
    multiplier: u64,
    state: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.state = (self.state ^ x).wrapping_mul(self.multiplier);
    }

    fn finish(&self) -> u64 {
        self.state.rotate_left(32)
    }
}

/// The distinct `u32` keys a member admits, in a hash set under
/// [`IdHash`] that grows with them. A key equal to the last one inserted
/// skips the hash: consecutive admitted rows often share their source (a
/// scanner's burst at one honeypot), for 61% of the GreyNoise fleet's
/// per-port inserts in a warm scale-1 `cw all`.
#[derive(Default)]
struct Distinct {
    keys: HashSet<u32, IdHash>,
    last: Option<u32>,
}

impl Distinct {
    fn insert(&mut self, key: u32) {
        if self.last != Some(key) {
            self.keys.insert(key);
            self.last = Some(key);
        }
    }

    /// The keys as source addresses, sorted once: `Ipv4Addr` orders like
    /// its `u32`, so this is the set per-row inserts would have built.
    fn into_addrs(self) -> BTreeSet<Ipv4Addr> {
        let mut keys: Vec<u32> = self.keys.into_iter().collect();
        keys.sort_unstable();
        keys.into_iter().map(Ipv4Addr::from).collect()
    }
}

/// Per-ID counts under [`IdHash`]. A run of one ID is counted before it
/// reaches the map, as [`Distinct`] skips a repeated key.
#[derive(Default)]
struct IdCounts {
    counts: HashMap<u32, u64, IdHash>,
    run: Option<(u32, u64)>,
}

impl IdCounts {
    fn add(&mut self, id: u32) {
        match &mut self.run {
            Some((last, n)) if *last == id => *n += 1,
            run => {
                if let Some((done, n)) = run.replace((id, 1)) {
                    *self.counts.entry(done).or_insert(0) += n;
                }
            }
        }
    }

    /// Each distinct ID with its count, in no particular order.
    fn into_counts(mut self) -> HashMap<u32, u64, IdHash> {
        if let Some((id, n)) = self.run {
            *self.counts.entry(id).or_insert(0) += n;
        }
        self.counts
    }
}

/// The in-flight accumulator of one member plan inside a pass.
///
/// The distinct-set terminals insert `u32` keys (source addresses as
/// integers, AS numbers) into [`Distinct`] sets, which grow with the
/// distinct keys, and [`Acc::finish`] sorts each set's keys once.
/// `char_freqs` counts its axis's IDs (see [`axes::axis_id`]) and labels
/// each distinct ID at finish, through the dataset's label memos.
enum Acc {
    Count(usize),
    Rows(Vec<usize>),
    DistinctSrcs(Distinct),
    SrcAsn(Distinct, Distinct),
    CharFreqs(CharKind, IdCounts),
    /// One set per distinct key port, in first-listed order.
    PortSrcs(Vec<(u16, Distinct)>),
    /// One set per fingerprint, in first-admitted order: found by value,
    /// so no `ProtocolId` maps to a slot index.
    FingerprintSrcs(Vec<(ProtocolId, Distinct)>),
}

/// The rows of a chunk whose bit is set in `mask`, ascending, which is
/// the chunk's enumeration order. `mask` holds no bit at or above
/// `rows.len()`: every mask is a filter's, ANDed into its chunk's
/// [`low_bits`].
fn admitted(rows: &[u32], mut mask: u64) -> impl Iterator<Item = usize> + '_ {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            rows[k] as usize
        })
    })
}

impl Acc {
    fn for_plan(plan: &Plan) -> Acc {
        match &plan.terminal {
            Terminal::Count => Acc::Count(0),
            Terminal::Rows => Acc::Rows(Vec::new()),
            Terminal::DistinctSrcs => Acc::DistinctSrcs(Distinct::default()),
            Terminal::UniqueSrcAndAsn => Acc::SrcAsn(Distinct::default(), Distinct::default()),
            Terminal::CharFreqs(kind) => Acc::CharFreqs(*kind, IdCounts::default()),
            Terminal::SrcsByPort(ports) => {
                let mut by_port: Vec<(u16, Distinct)> = Vec::with_capacity(ports.len());
                for &p in ports {
                    if by_port.iter().all(|(q, _)| *q != p) {
                        by_port.push((p, Distinct::default()));
                    }
                }
                Acc::PortSrcs(by_port)
            }
            Terminal::SrcsByFingerprint => Acc::FingerprintSrcs(Vec::new()),
        }
    }

    /// Fold one chunk: the rows of `rows` whose bit is set in `mask`, in
    /// ascending bit order. Each row number indexes the columns in range,
    /// as in [`column_mask`].
    fn fold(&mut self, ds: &Dataset, rows: &[u32], mask: u64) {
        let table = ds.table();
        let srcs = table.srcs();
        let src = |i: usize| u32::from(srcs[i]);
        let each = admitted(rows, mask);
        match self {
            Acc::Count(n) => *n += mask.count_ones() as usize,
            Acc::Rows(v) => v.extend(each),
            Acc::DistinctSrcs(set) => each.for_each(|i| set.insert(src(i))),
            Acc::SrcAsn(srcs, asns) => {
                for i in each {
                    srcs.insert(src(i));
                    asns.insert(table.src_asns()[i].0);
                }
            }
            Acc::CharFreqs(kind, counts) => {
                for i in each {
                    let id = axes::axis_id(
                        *kind,
                        || table.src_asns()[i],
                        || ds.verdicts()[i],
                        || table.observed()[i],
                    );
                    if let Some(id) = id {
                        counts.add(id);
                    }
                }
            }
            Acc::PortSrcs(by_port) => {
                for i in each {
                    let port = table.dst_ports()[i];
                    if let Some((_, set)) = by_port.iter_mut().find(|(p, _)| *p == port) {
                        set.insert(src(i));
                    }
                }
            }
            Acc::FingerprintSrcs(by_fp) => {
                for i in each {
                    let Some(fp) = ds.fingerprints()[i] else {
                        continue;
                    };
                    match by_fp.iter_mut().find(|(p, _)| *p == fp) {
                        Some((_, set)) => {
                            set.insert(src(i));
                        }
                        None => {
                            let mut set = Distinct::default();
                            set.insert(src(i));
                            by_fp.push((fp, set));
                        }
                    }
                }
            }
        }
    }

    fn finish(self, ds: &Dataset) -> PlanResult {
        match self {
            Acc::Count(n) => PlanResult::Count(n),
            Acc::Rows(v) => PlanResult::Rows(v),
            Acc::DistinctSrcs(srcs) => PlanResult::DistinctSrcs(srcs.into_addrs()),
            Acc::SrcAsn(srcs, asns) => {
                PlanResult::UniqueSrcAndAsn(srcs.keys.len(), asns.keys.len())
            }
            // The one resolution point: IDs → labels per distinct ID,
            // after the scan, each label shared from the dataset's memos.
            Acc::CharFreqs(kind, counts) => {
                PlanResult::CharFreqs(axes::label_counts(kind, counts.into_counts(), ds))
            }
            Acc::PortSrcs(by_port) => PlanResult::PortSrcs(
                by_port
                    .into_iter()
                    .map(|(port, srcs)| (port, srcs.into_addrs()))
                    .collect(),
            ),
            Acc::FingerprintSrcs(by_fp) => PlanResult::FingerprintSrcs(
                by_fp
                    .into_iter()
                    .map(|(fp, srcs)| (fp, srcs.into_addrs()))
                    .collect(),
            ),
        }
    }
}

/// The plans of one partition: the indices of the plans sharing one
/// destination domain, in submission order. Partitions come out in
/// first-submission order.
fn partitions(plans: &[Plan]) -> Vec<Vec<usize>> {
    let mut slot: HashMap<&Option<Vec<Ipv4Addr>>, usize> = HashMap::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (idx, plan) in plans.iter().enumerate() {
        let k = *slot.entry(&plan.dsts).or_insert_with(|| {
            out.push(Vec::new());
            out.len() - 1
        });
        out[k].push(idx);
    }
    out
}

/// The density floor of table-order reads: a pass whose domain holds at
/// least `1 / TABLE_ORDER_SHARE` of the table's rows, lists no destination
/// twice and has no [`Plan::rows`] member visits its rows in ascending row
/// order instead of per destination. Every other terminal sorts or counts,
/// so only `rows()` observes the order. Below the floor the row bitset
/// costs more than the sequential reads save (measurements in
/// `docs/QUERY.md`).
pub const TABLE_ORDER_SHARE: u64 = 16;

/// One fused pass to run: a partition of one set's plans.
struct Pass<'a> {
    set: usize,
    dataset: &'a Dataset,
    plans: &'a [Plan],
    members: Vec<usize>,
    /// The destination domain every member shares.
    domain: &'a Option<Vec<Ipv4Addr>>,
    /// Rows the pass enumerates, read off the destination index.
    rows: u64,
    /// The members' distinct predicate lists, in first-member order.
    filters: Vec<&'a [Pred]>,
    /// Each member's filter, as an index into `filters`.
    filter_of: Vec<usize>,
}

impl<'a> Pass<'a> {
    /// The pass over `members`, a partition: a non-empty list of indices
    /// into `plans` that share one domain.
    fn new(set: usize, dataset: &'a Dataset, plans: &'a [Plan], members: Vec<usize>) -> Self {
        // `partitions` opens a partition with its first plan, so
        // `members[0]` exists.
        let domain = &plans[members[0]].dsts;
        let rows = match domain {
            Some(ips) => ips
                .iter()
                .filter_map(|&ip| dataset.dst_index(ip))
                .map(|idxs| idxs.len() as u64)
                .sum(),
            None => dataset.len() as u64,
        };
        let mut slot: HashMap<&[Pred], usize> = HashMap::new();
        let mut filters: Vec<&[Pred]> = Vec::new();
        let filter_of = members
            .iter()
            .map(|&p| {
                let preds = plans[p].preds.as_slice();
                *slot.entry(preds).or_insert_with(|| {
                    filters.push(preds);
                    filters.len() - 1
                })
            })
            .collect();
        Pass {
            set,
            dataset,
            plans,
            members,
            domain,
            rows,
            filters,
            filter_of,
        }
    }

    /// The kernel's work on this pass, in row visits: every distinct filter
    /// reads each row, and every member but a `count` (one popcount per
    /// chunk) folds each row its filter admits.
    fn cost(&self) -> u64 {
        let folds = self
            .members
            .iter()
            .filter(|&&p| self.plans[p].terminal != Terminal::Count)
            .count();
        self.rows
            .saturating_mul((self.filters.len() + folds) as u64)
    }

    /// Whether the pass reads its destination domain in table order (see
    /// [`TABLE_ORDER_SHARE`]): a domain listing an IP twice enumerates that
    /// IP's rows twice, which a row set cannot.
    fn in_table_order(&self) -> bool {
        let Some(ips) = self.domain else {
            return false;
        };
        if self.rows * TABLE_ORDER_SHARE < self.dataset.len() as u64
            || self
                .members
                .iter()
                .any(|&p| self.plans[p].terminal == Terminal::Rows)
        {
            return false;
        }
        let mut sorted = ips.clone();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    /// Run the pass, a chunk of at most 64 rows at a time, the chunks in
    /// enumeration order (or table order when [`Pass::in_table_order`]).
    /// Per chunk, each distinct filter turns into one mask, and each
    /// member folds its filter's mask. Results follow `members`.
    fn run(&self) -> Vec<PlanResult> {
        let ds = self.dataset;
        FUSED_PASSES.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_PASSES.with(|n| n.set(n.get() + 1));
        SCANNED_ROWS.fetch_add(self.rows, Ordering::Relaxed);
        let mut accs: Vec<Acc> = self
            .members
            .iter()
            .map(|&p| Acc::for_plan(&self.plans[p]))
            .collect();
        let mut masks = vec![0u64; self.filters.len()];
        let mut fold = |rows: &[u32]| {
            let all = low_bits(rows.len());
            for (mask, preds) in masks.iter_mut().zip(&self.filters) {
                *mask = select(preds, ds, rows, all);
            }
            // Every `filter_of` entry indexes `filters`, which `masks`
            // matches in length.
            for (acc, &f) in accs.iter_mut().zip(&self.filter_of) {
                if masks[f] != 0 {
                    acc.fold(ds, rows, masks[f]);
                }
            }
        };
        // Row numbers fit `u32`: a dataset holds at most `u32::MAX` rows.
        let mut chunk = [0u32; 64];
        match self.domain {
            Some(ips) if self.in_table_order() => {
                // One bit per table row: every indexed row is below `ds.len()`.
                let mut marked = vec![0u64; ds.len().div_ceil(64)];
                for idxs in ips.iter().filter_map(|&ip| ds.dst_index(ip)) {
                    for &i in idxs {
                        marked[i as usize / 64] |= 1 << (i % 64);
                    }
                }
                for (w, &word) in marked.iter().enumerate() {
                    let base = (w * 64) as u32;
                    let mut n = 0;
                    let mut bits = word;
                    // A word has at most 64 set bits, so `n` stays below 64.
                    while bits != 0 {
                        chunk[n] = base + bits.trailing_zeros();
                        n += 1;
                        bits &= bits - 1;
                    }
                    if n > 0 {
                        fold(&chunk[..n]);
                    }
                }
            }
            Some(ips) => {
                for idxs in ips.iter().filter_map(|&ip| ds.dst_index(ip)) {
                    idxs.chunks(64).for_each(&mut fold);
                }
            }
            None => {
                for start in (0..ds.len()).step_by(64) {
                    let n = (ds.len() - start).min(64);
                    for (k, row) in chunk[..n].iter_mut().enumerate() {
                        *row = (start + k) as u32;
                    }
                    fold(&chunk[..n]);
                }
            }
        }
        accs.into_iter().map(|acc| acc.finish(ds)).collect()
    }
}

/// Execute several plan sets, each over its own dataset. Every set's
/// partitions join one job list of passes. With `threads > 1` the fleet
/// takes them longest first, by descending [`Pass::cost`] (ties by
/// index), each worker pulling the next when it finishes one, so passes
/// whose finish work the cost leaves out (labelling, label-memo fills)
/// cannot hold one worker back while another idles. Each pass's results
/// land by index. Returns, per set, its results in submission order and
/// its pass count. `threads <= 1` runs every pass on the calling thread.
fn execute_sets(sets: &[(&Dataset, &[Plan])], threads: usize) -> Vec<(Vec<PlanResult>, usize)> {
    let mut passes: Vec<Pass<'_>> = Vec::new();
    let mut pass_counts = vec![0; sets.len()];
    for (set, &(dataset, plans)) in sets.iter().enumerate() {
        PLANNED_SCANS.fetch_add(plans.len() as u64, Ordering::Relaxed);
        let parts = partitions(plans);
        pass_counts[set] = parts.len();
        passes.extend(
            parts
                .into_iter()
                .map(|members| Pass::new(set, dataset, plans, members)),
        );
    }
    // One thread runs here, as the fleet would, without its hardware probe
    // (~20 µs, once per standalone scan).
    let done: Vec<(usize, Vec<PlanResult>)> = if threads <= 1 {
        passes.iter().map(Pass::run).enumerate().collect()
    } else {
        let mut order: Vec<usize> = (0..passes.len()).collect();
        order.sort_by_key(|&j| (Reverse(passes[j].cost()), j));
        fleet::map(order, threads, |_, &j| (j, passes[j].run()))
    };
    let mut results: Vec<Vec<Option<PlanResult>>> = sets
        .iter()
        .map(|(_, plans)| (0..plans.len()).map(|_| None).collect())
        .collect();
    // Every job index came from `passes`, every pass from a set of
    // `sets`, and every member is a plan index of its set.
    for (j, out) in done {
        let pass = &passes[j];
        for (&p, r) in pass.members.iter().zip(out) {
            results[pass.set][p] = Some(r);
        }
    }
    results
        .into_iter()
        .zip(pass_counts)
        .map(|(rs, passes)| {
            // `partitions` puts each plan index in exactly one partition,
            // and a pass returns one result per member, so every slot is
            // filled.
            let rs = rs
                .into_iter()
                .map(|r| r.expect("every plan belongs to exactly one partition"))
                .collect();
            (rs, passes)
        })
        .collect()
}

/// Prefetched plan results, keyed structurally by [`Plan`].
///
/// [`PlanStore::build`] deduplicates the requested plans, partitions the
/// distinct ones by identical row-enumeration domain (the `dsts`
/// pushdown, compared structurally), runs each partition in **one pass**
/// over the interned columns — every plan's accumulator seeing exactly
/// the rows, in exactly the order, it would have seen running alone — and
/// memoizes the typed results; [`ScanExec`] then serves repeated requests
/// as clones, or a `char_freqs` map by reference, without touching the
/// columns again. This is how
/// `ExhibitCx::prefetch` turns the registry's declared plans into one
/// fused execution per bundle.
#[derive(Debug)]
pub struct PlanStore {
    results: HashMap<Plan, PlanResult>,
    passes: usize,
}

impl PlanStore {
    /// Deduplicate `plans`, execute the distinct ones in fused passes on
    /// the calling thread, and memoize the results.
    pub fn build(dataset: &Dataset, plans: &[Plan]) -> PlanStore {
        let mut stores = PlanStore::build_sets(&[(dataset, plans)], 1);
        // `build_sets` returns one store per set.
        stores.pop().expect("one set in, one store out")
    }

    /// One store per `(dataset, plans)` set, as [`PlanStore::build`]
    /// would build it, with every set's passes sharing one job list on
    /// `threads` workers.
    pub(crate) fn build_sets(sets: &[(&Dataset, &[Plan])], threads: usize) -> Vec<PlanStore> {
        let distinct: Vec<Vec<Plan>> = sets
            .iter()
            .map(|(_, plans)| {
                let mut seen: HashSet<&Plan> = HashSet::new();
                plans.iter().filter(|p| seen.insert(p)).cloned().collect()
            })
            .collect();
        let jobs: Vec<(&Dataset, &[Plan])> = sets
            .iter()
            .zip(&distinct)
            .map(|(&(dataset, _), plans)| (dataset, plans.as_slice()))
            .collect();
        let done = execute_sets(&jobs, threads);
        distinct
            .into_iter()
            .zip(done)
            .map(|(plans, (results, passes))| PlanStore {
                results: plans.into_iter().zip(results).collect(),
                passes,
            })
            .collect()
    }

    /// The memoized result for `plan`, if it was prefetched.
    pub fn get(&self, plan: &Plan) -> Option<&PlanResult> {
        self.results.get(plan)
    }

    /// Number of distinct plans held.
    pub fn plans(&self) -> usize {
        self.results.len()
    }

    /// Number of fused passes the build ran: one per partition of the
    /// distinct plans.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

/// A plan runner over one dataset, with an optional [`PlanStore`] of
/// prefetched results: a store hit clones the memoized result, or lends
/// it ([`ScanExec::char_freqs`]), with no column pass and no counter bump
/// (the work happened at prefetch); a miss executes the plan standalone,
/// in one pass of its own. Both paths return byte-identical results, so
/// modules written against `ScanExec` work unmodified with or without
/// prefetch.
#[derive(Clone, Copy)]
pub struct ScanExec<'a> {
    dataset: &'a Dataset,
    store: Option<&'a PlanStore>,
}

impl<'a> ScanExec<'a> {
    /// An executor with no prefetched results: every plan runs standalone.
    pub fn unplanned(dataset: &'a Dataset) -> Self {
        ScanExec {
            dataset,
            store: None,
        }
    }

    /// An executor serving hits from `store` before falling back to
    /// standalone execution.
    pub fn with_store(dataset: &'a Dataset, store: &'a PlanStore) -> Self {
        ScanExec {
            dataset,
            store: Some(store),
        }
    }

    /// The dataset plans run against (for resolving
    /// [`PlanResult::Rows`] indices).
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Run one plan: store hit → cloned memoized result, miss → standalone
    /// execution (one pass).
    pub fn run(&self, plan: &Plan) -> PlanResult {
        match self.store.and_then(|s| s.get(plan)) {
            Some(hit) => hit.clone(),
            None => self.standalone(plan),
        }
    }

    /// Run one [`Plan::char_freqs`] plan: store hit → the memoized map,
    /// borrowed; miss → standalone execution (one pass), owned.
    ///
    /// # Panics
    /// Panics if `plan`'s terminal is not `char_freqs`, as
    /// [`PlanResult::into_char_freqs`] does.
    pub fn char_freqs(&self, plan: &Plan) -> Cow<'a, Freqs> {
        match self.store.and_then(|s| s.get(plan)) {
            Some(PlanResult::CharFreqs(freqs)) => Cow::Borrowed(freqs),
            Some(other) => other.mismatch("CharFreqs"),
            None => Cow::Owned(self.standalone(plan).into_char_freqs()),
        }
    }

    /// Execute `plan` in a pass of its own.
    fn standalone(&self, plan: &Plan) -> PlanResult {
        let mut done = execute_sets(&[(self.dataset, std::slice::from_ref(plan))], 1);
        // `execute_sets` returns one result list per set, one result per
        // plan of the set.
        let (mut results, _) = done.pop().expect("one set in, one result list out");
        results.pop().expect("one plan in, one result out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::capture::{Capture, ScanEvent};
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::LoginService;
    use cw_netsim::time::SimTime;

    const DST: Ipv4Addr = Ipv4Addr::new(20, 10, 0, 0);

    fn event(src: u8, port: u16, observed: Observed) -> ScanEvent {
        ScanEvent {
            time: SimTime(60),
            src: Ipv4Addr::new(100, 0, 0, src),
            src_asn: Asn(4134),
            dst: DST,
            dst_port: port,
            observed,
        }
    }

    fn dataset() -> Dataset {
        let mut cap = Capture::new("test");
        let get = Observed::Payload(cap.intern_payload(&cw_scanners::exploits::benign_get("z")));
        let exploit = Observed::Payload(cap.intern_payload(&cw_scanners::exploits::log4shell("x")));
        let creds = Observed::Credentials {
            service: LoginService::Ssh,
            username: cap.intern_cred("root"),
            password: cap.intern_cred("123456"),
        };
        let rows = [
            event(1, 23, Observed::Syn),
            event(2, 23, Observed::Handshake),
            event(2, 2323, Observed::Syn),
            event(3, 22, creds),
            event(4, 80, get),
            event(4, 80, exploit),
            event(5, 8080, get),
        ];
        for e in rows {
            cap.record(e);
        }
        Dataset::from_captures(&[&cap])
    }

    fn run(ds: &Dataset, plan: Plan) -> PlanResult {
        ScanExec::unplanned(ds).run(&plan)
    }

    /// The rows `keep` admits, in table order: the hand-rolled column loop
    /// every plan is checked against.
    fn hand_rolled(ds: &Dataset, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        (0..ds.len()).filter(|&i| keep(i)).collect()
    }

    #[test]
    fn predicates_match_hand_rolled_filters() {
        let ds = dataset();
        let t = ds.table();
        let port = |i: usize| t.dst_ports()[i];
        let fp = |i: usize| ds.fingerprints()[i];
        let creds = |i: usize| ObsKind::Credentials.matches(&t.observed()[i]);
        // (plan, hand-rolled rows, pinned count on the fixture)
        let check = |plan: Plan, expected: Vec<usize>, n: usize| {
            assert_eq!(expected.len(), n, "{plan:?}");
            assert_eq!(run(&ds, plan.clone().count()).into_count(), n, "{plan:?}");
            assert_eq!(
                run(&ds, plan.clone().rows()).into_rows(),
                expected,
                "{plan:?}"
            );
        };
        check(
            Plan::scan().port(23),
            hand_rolled(&ds, |i| port(i) == 23),
            2,
        );
        let telnet = |i| [23, 2323].contains(&port(i));
        check(
            Plan::scan().port_in(&[23, 2323]),
            hand_rolled(&ds, telnet),
            3,
        );
        check(
            Plan::at(&[DST]).port(80),
            hand_rolled(&ds, |i| port(i) == 80),
            2,
        );
        // creds + log4shell
        let attacker = |i| ds.verdicts()[i] == Verdict::Attacker;
        check(Plan::scan().malicious(), hand_rolled(&ds, attacker), 2);
        let http = |i| fp(i) == Some(ProtocolId::Http);
        check(
            Plan::scan().fingerprint(ProtocolId::Http),
            hand_rolled(&ds, http),
            3,
        );
        check(
            Plan::scan().fingerprinted(),
            hand_rolled(&ds, |i| fp(i).is_some()),
            4,
        );
        check(
            Plan::scan().kind(ObsKind::Credentials),
            hand_rolled(&ds, creds),
            1,
        );
        check(
            Plan::scan().not_kind(ObsKind::Credentials),
            hand_rolled(&ds, |i| !creds(i)),
            6,
        );
        check(
            Plan::scan().slice(TrafficSlice::HttpAllPorts),
            hand_rolled(&ds, http),
            3,
        );
        check(
            Plan::scan().slice(TrafficSlice::AnyAll),
            hand_rolled(&ds, |_| true),
            7,
        );
    }

    #[test]
    fn every_terminal_matches_a_hand_rolled_column_loop() {
        let ds = dataset();
        let t = ds.table();
        let on80 = hand_rolled(&ds, |i| t.dst_ports()[i] == 80);
        let base = Plan::at(&[DST]).port(80);

        let srcs: BTreeSet<Ipv4Addr> = on80.iter().map(|&i| t.srcs()[i]).collect();
        assert_eq!(
            run(&ds, base.clone().distinct_srcs()).into_distinct_srcs(),
            srcs
        );

        let all_srcs: BTreeSet<Ipv4Addr> = t.srcs().iter().copied().collect();
        let all_asns: BTreeSet<u32> = t.src_asns().iter().map(|a| a.0).collect();
        assert_eq!(
            run(&ds, Plan::at(&[DST]).unique_src_and_asn()).into_unique_src_and_asn(),
            (all_srcs.len(), all_asns.len())
        );
        assert_eq!((all_srcs.len(), all_asns.len()), (5, 1));

        let events: Vec<_> = on80.iter().map(|&i| ds.event(i)).collect();
        assert_eq!(
            run(&ds, base.char_freqs(CharKind::TopAs)).into_char_freqs(),
            CharKind::TopAs.freqs(&events)
        );

        let mut by_port: BTreeMap<u16, BTreeSet<Ipv4Addr>> =
            [80, 443].iter().map(|&p| (p, BTreeSet::new())).collect();
        for i in 0..ds.len() {
            if let Some(set) = by_port.get_mut(&t.dst_ports()[i]) {
                set.insert(t.srcs()[i]);
            }
        }
        let got = run(&ds, Plan::at(&[DST]).srcs_by_port(&[80, 443])).into_port_srcs();
        assert_eq!(got, by_port);
        assert_eq!(got[&80].len(), 1);
        assert!(got[&443].is_empty(), "seeded key must be present");

        let mut by_fp: BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for i in 0..ds.len() {
            if let Some(fp) = ds.fingerprints()[i] {
                by_fp.entry(fp).or_default().insert(t.srcs()[i]);
            }
        }
        let got = run(&ds, Plan::scan().srcs_by_fingerprint()).into_fingerprint_srcs();
        assert_eq!(got, by_fp);
        assert_eq!(got[&ProtocolId::Http].len(), 2);
    }

    #[test]
    fn fused_plans_match_standalone_execution() {
        let ds = dataset();
        let ports = [22, 23, 80, 8080];
        let plans = [
            Plan::at(&[DST]).srcs_by_port(&ports),
            Plan::at(&[DST]).malicious().srcs_by_port(&ports),
            Plan::at(&[DST]).kind(ObsKind::Payload).rows(),
            Plan::scan().srcs_by_fingerprint(),
        ];
        let store = PlanStore::build(&ds, &plans);
        assert_eq!(store.passes(), 2, "one pass per domain");
        for plan in &plans {
            assert_eq!(store.get(plan), Some(&run(&ds, plan.clone())), "{plan:?}");
        }
        let bad = store
            .get(&plans[1])
            .cloned()
            .expect("stored")
            .into_port_srcs();
        assert_eq!(bad[&80].len(), 1);
        assert!(bad[&8080].is_empty());
    }

    #[test]
    fn plan_store_dedupes_and_serves_hits() {
        let ds = dataset();
        let plan = Plan::at(&[DST]).port(23).distinct_srcs();
        let other = Plan::at(&[DST]).malicious().count();
        let store = PlanStore::build(&ds, &[plan.clone(), other.clone(), plan.clone()]);
        assert_eq!(store.plans(), 2, "duplicate plan must collapse");
        assert_eq!(store.passes(), 1, "same domain must fuse into one pass");
        let before = thread_passes();
        let exec = ScanExec::with_store(&ds, &store);
        let hit = exec.run(&plan).into_distinct_srcs();
        assert_eq!(thread_passes(), before, "a store hit never scans");
        assert_eq!(hit, run(&ds, plan).into_distinct_srcs());
        // A plan outside the store falls back to standalone execution.
        assert_eq!(
            exec.run(&Plan::at(&[DST]).port(2323).count()).into_count(),
            1
        );
    }

    #[test]
    fn char_freqs_lends_store_hits_and_runs_misses_standalone() {
        let ds = dataset();
        let stored = Plan::at(&[DST]).char_freqs(CharKind::TopAs);
        let store = PlanStore::build(&ds, std::slice::from_ref(&stored));
        let exec = ScanExec::with_store(&ds, &store);
        let before = thread_passes();
        let Cow::Borrowed(hit) = exec.char_freqs(&stored) else {
            panic!("a store hit must lend its map");
        };
        let Some(PlanResult::CharFreqs(held)) = store.get(&stored) else {
            panic!("the plan was stored");
        };
        assert!(std::ptr::eq(hit, held), "the store's own map");
        assert_eq!(thread_passes(), before, "a store hit never scans");
        let unstored = Plan::at(&[DST]).port(80).char_freqs(CharKind::TopPayload);
        let Cow::Owned(miss) = exec.char_freqs(&unstored) else {
            panic!("a miss has no map to lend");
        };
        assert_eq!(thread_passes(), before + 1, "a miss runs one pass");
        assert_eq!(miss, run(&ds, unstored).into_char_freqs());
        assert_eq!(miss.len(), 2, "the GET and the exploit");
    }

    #[test]
    fn table_order_needs_a_dense_duplicate_free_order_free_domain() {
        let ds = dataset();
        let in_table_order =
            |plans: &[Plan]| Pass::new(0, &ds, plans, (0..plans.len()).collect()).in_table_order();
        let absent = Ipv4Addr::new(9, 9, 9, 9);
        assert!(in_table_order(&[
            Plan::at(&[DST]).count(),
            Plan::at(&[DST]).malicious().distinct_srcs(),
        ]));
        assert!(in_table_order(&[
            Plan::at(&[absent, DST]).char_freqs(CharKind::TopAs)
        ]));
        assert!(
            !in_table_order(&[Plan::at(&[DST]).count(), Plan::at(&[DST]).rows()]),
            "rows() observes the enumeration order"
        );
        assert!(
            !in_table_order(&[Plan::at(&[DST, absent, DST]).count()]),
            "a repeated IP's rows are enumerated twice"
        );
        assert!(
            !in_table_order(&[Plan::at(&[absent]).count()]),
            "below the density floor"
        );
        assert!(!in_table_order(&[Plan::scan().count()]), "no domain");
    }

    #[test]
    fn pass_cost_counts_shared_filters_once_and_skips_counts() {
        let ds = dataset();
        let at = || Plan::at(&[DST]);
        let plans = [
            at().port(80).count(),
            at().port(80).distinct_srcs(),
            at().port(80).char_freqs(CharKind::TopAs),
            at().malicious().count(),
            at().count(),
            at().rows(),
        ];
        let pass = Pass::new(0, &ds, &plans, (0..plans.len()).collect());
        assert_eq!(pass.rows, 7);
        // Three distinct filters ([port 80], [malicious], []) and three
        // members that fold rows (distinct_srcs, char_freqs, rows).
        assert_eq!(pass.filter_of, vec![0, 0, 0, 1, 2, 2]);
        assert_eq!(pass.cost(), 7 * (3 + 3));
        let counts_only = [at().port(80).count(), at().port(80).count().malicious()];
        let pass = Pass::new(0, &ds, &counts_only, vec![0, 1]);
        assert_eq!(pass.cost(), 7 * 2, "a count costs its filter, not a fold");
    }

    #[test]
    fn id_hash_is_odd_keyed_once_and_spreads_a_slash16_progression() {
        let k = id_multiplier();
        assert_eq!(k % 2, 1, "the multiplier must be odd");
        let (a, b) = (IdHash::default(), IdHash::default());
        for x in [0u32, 1, 0x0A00_0000, 0xC0A8_0000, u32::MAX] {
            assert_eq!(a.hash_one(x), b.hash_one(x), "one multiplier per process");
            assert_eq!(a.hash_one(x), IdHash(k).hash_one(x));
        }
        // 1024 addresses a.b.0.0: they differ only in their high 16 bits.
        let keys: Vec<u32> = (0..1024u32).map(|ab| ab << 16).collect();
        let low10 = |hash: &dyn Fn(u32) -> u64| {
            keys.iter()
                .map(|&x| hash(x) & 1023)
                .collect::<HashSet<_>>()
                .len()
        };
        // The product's low half keeps their zero low bits: one bucket.
        assert_eq!(low10(&|x| u64::from(x).wrapping_mul(k)), 1);
        // Its high half spreads them. Over 2M random odd multipliers, 99.75%
        // reached 64 distinct values (the median was 774), so these fixed
        // draws pin the rotation, not a lucky multiplier.
        let mut rng = cw_netsim::rng::SimRng::seed_from_u64(0x1D_4A54);
        for _ in 0..16 {
            let hash = IdHash(rng.next_u64() | 1);
            let spread = low10(&|x| hash.hash_one(x));
            assert!(spread >= 64, "{spread} low-10-bit values");
        }
    }

    /// Destinations with 63, 64, 65 and 130 rows, interleaved in the table.
    const CHUNKY: [(Ipv4Addr, usize); 4] = [
        (Ipv4Addr::new(20, 10, 0, 1), 63),
        (Ipv4Addr::new(20, 10, 0, 2), 64),
        (Ipv4Addr::new(20, 10, 0, 3), 65),
        (Ipv4Addr::new(20, 10, 0, 4), 130),
    ];

    /// 322 rows over [`CHUNKY`]'s destinations, so every domain spans
    /// several chunks and a chunk of 63, 64 or 65 rows ends mid-destination.
    /// Sources repeat in runs, two payloads normalize alike, and every
    /// observation kind, verdict and several fingerprints occur.
    fn chunky() -> Dataset {
        let mut cap = Capture::new("chunky");
        let http = |host: &str| {
            cw_protocols::HttpRequest::new("GET", "/")
                .header("Host", host)
                .to_bytes()
        };
        let payloads: Vec<Observed> = [
            http("20.10.0.1"),
            http("20.10.0.9"),
            cw_scanners::exploits::log4shell("x"),
            cw_protocols::tls::build_client_hello(1, None),
        ]
        .iter()
        .map(|p| Observed::Payload(cap.intern_payload(p)))
        .collect();
        let mut left: Vec<usize> = CHUNKY.iter().map(|&(_, n)| n).collect();
        let mut r = 0usize;
        while left.iter().any(|&n| n > 0) {
            let d = (r * 7 + r / 5) % CHUNKY.len();
            if left[d] == 0 {
                r += 1;
                continue;
            }
            left[d] -= 1;
            let observed = match r % 6 {
                0 => Observed::Syn,
                1 => Observed::Handshake,
                2 | 3 => payloads[(r / 6) % payloads.len()],
                _ => Observed::Credentials {
                    service: LoginService::Telnet,
                    username: cap.intern_cred(["root", "admin"][r % 2]),
                    password: cap.intern_cred(["1234", "admin", "root"][(r / 4) % 3]),
                },
            };
            cap.record(ScanEvent {
                time: SimTime(r as u64),
                src: Ipv4Addr::new(100, (r % 3) as u8, 0, (r / 4 % 9) as u8),
                src_asn: Asn(64_500 + (r / 10 % 4) as u32),
                dst: CHUNKY[d].0,
                dst_port: [23, 80, 22, 8080, 2323, 443, 80][r % 7],
                observed,
            });
            r += 1;
        }
        Dataset::from_captures(&[&cap])
    }

    /// A terminal, applied to a plan and computed the hand-rolled way.
    #[derive(Clone, Copy, Debug)]
    enum Term {
        Count,
        Rows,
        Srcs,
        SrcAsn,
        Freqs(CharKind),
        Ports,
        Fingerprints,
    }

    /// A repeated key port and one absent from the data.
    const KEY_PORTS: [u16; 4] = [23, 80, 23, 9];

    impl Term {
        const ALL: [Term; 11] = [
            Term::Count,
            Term::Rows,
            Term::Srcs,
            Term::SrcAsn,
            Term::Freqs(CharKind::TopAs),
            Term::Freqs(CharKind::FracMalicious),
            Term::Freqs(CharKind::TopUsername),
            Term::Freqs(CharKind::TopPassword),
            Term::Freqs(CharKind::TopPayload),
            Term::Ports,
            Term::Fingerprints,
        ];

        fn apply(self, plan: Plan) -> Plan {
            match self {
                Term::Count => plan.count(),
                Term::Rows => plan.rows(),
                Term::Srcs => plan.distinct_srcs(),
                Term::SrcAsn => plan.unique_src_and_asn(),
                Term::Freqs(kind) => plan.char_freqs(kind),
                Term::Ports => plan.srcs_by_port(&KEY_PORTS),
                Term::Fingerprints => plan.srcs_by_fingerprint(),
            }
        }

        /// The result over `rows`, the admitted rows in enumeration order.
        fn hand_rolled(self, ds: &Dataset, rows: &[usize]) -> PlanResult {
            let t = ds.table();
            let srcs = |keep: &dyn Fn(usize) -> bool| -> BTreeSet<Ipv4Addr> {
                rows.iter()
                    .filter(|&&i| keep(i))
                    .map(|&i| t.srcs()[i])
                    .collect()
            };
            match self {
                Term::Count => PlanResult::Count(rows.len()),
                Term::Rows => PlanResult::Rows(rows.to_vec()),
                Term::Srcs => PlanResult::DistinctSrcs(srcs(&|_| true)),
                Term::SrcAsn => {
                    let asns: BTreeSet<Asn> = rows.iter().map(|&i| t.src_asns()[i]).collect();
                    PlanResult::UniqueSrcAndAsn(srcs(&|_| true).len(), asns.len())
                }
                Term::Freqs(kind) => {
                    let events: Vec<_> = rows.iter().map(|&i| ds.event(i)).collect();
                    PlanResult::CharFreqs(kind.freqs(&events))
                }
                Term::Ports => PlanResult::PortSrcs(
                    KEY_PORTS
                        .iter()
                        .map(|&p| (p, srcs(&|i| t.dst_ports()[i] == p)))
                        .collect(),
                ),
                Term::Fingerprints => PlanResult::FingerprintSrcs(
                    ProtocolId::ALL
                        .iter()
                        .map(|&fp| (fp, srcs(&|i| ds.fingerprints()[i] == Some(fp))))
                        .filter(|(_, s)| !s.is_empty())
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn multi_chunk_passes_match_hand_rolled_for_every_terminal() {
        let ds = chunky();
        let t = ds.table();
        assert_eq!(ds.len(), 322);
        for (ip, n) in CHUNKY {
            assert_eq!(ds.dst_index(ip).map(<[u32]>::len), Some(n));
        }
        for proto in [ProtocolId::Http, ProtocolId::Tls, ProtocolId::Telnet] {
            assert!(ds.fingerprints().contains(&Some(proto)), "{proto:?}");
        }
        assert!(ds.verdicts().contains(&Verdict::Attacker));
        let events: Vec<_> = ds.events().collect();
        let categories = CharKind::TopPayload.freqs(&events).len();
        assert_eq!(categories + 1, ds.interner().payload_count(), "one fold");
        let port = |i: usize| t.dst_ports()[i];
        let fp = |i: usize| ds.fingerprints()[i];
        let kind = |i: usize, k: ObsKind| k.matches(&t.observed()[i]);
        let attacker = |i: usize| ds.verdicts()[i] == Verdict::Attacker;
        // (filter, the same filter as a row test): two share a first
        // predicate, and every terminal shares each filter.
        type Filter<'a> = (fn(Plan) -> Plan, Box<dyn Fn(usize) -> bool + 'a>);
        let filters: Vec<Filter<'_>> = vec![
            (|p| p, Box::new(|_| true)),
            (|p| p.port(23), Box::new(move |i| port(i) == 23)),
            (
                |p| p.port(23).malicious(),
                Box::new(move |i| port(i) == 23 && attacker(i)),
            ),
            (
                |p| p.port_in(&[22, 2323, 8080]),
                Box::new(move |i| [22, 2323, 8080].contains(&port(i))),
            ),
            (
                |p| p.slice(TrafficSlice::HttpAllPorts),
                Box::new(move |i| fp(i) == Some(ProtocolId::Http)),
            ),
            (
                |p| p.fingerprint(ProtocolId::Tls),
                Box::new(move |i| fp(i) == Some(ProtocolId::Tls)),
            ),
            (|p| p.malicious(), Box::new(attacker)),
            (
                |p| p.not_kind(ObsKind::Syn),
                Box::new(move |i| !kind(i, ObsKind::Syn)),
            ),
            (
                |p| p.kind(ObsKind::Payload).port(80),
                Box::new(move |i| kind(i, ObsKind::Payload) && port(i) == 80),
            ),
            (
                |p| p.fingerprinted().verdict(Verdict::Scanner),
                Box::new(|i| fp(i).is_some() && ds.verdicts()[i] == Verdict::Scanner),
            ),
            (
                |p| {
                    p.kind(ObsKind::Credentials)
                        .slice(TrafficSlice::TelnetPort23)
                },
                Box::new(move |i| kind(i, ObsKind::Credentials) && port(i) == 23),
            ),
            (|p| p.port(9), Box::new(|_| false)),
        ];
        let ip = |d: usize| CHUNKY[d].0;
        let domains: [Option<Vec<Ipv4Addr>>; 4] = [
            Some(vec![ip(3), ip(0), ip(2), ip(1)]),
            Some(vec![ip(1), ip(0), ip(1)]),
            Some(vec![ip(2)]),
            None,
        ];
        for dsts in &domains {
            // The rows a domain enumerates, per destination in the order
            // given, then in table order.
            let enumerated: Vec<usize> = match dsts {
                Some(ips) => ips
                    .iter()
                    .flat_map(|&ip| hand_rolled(&ds, move |i| t.dsts()[i] == ip))
                    .collect(),
                None => (0..ds.len()).collect(),
            };
            for with_rows in [true, false] {
                let mut members: Vec<(Plan, PlanResult)> = Vec::new();
                for (filter, keep) in &filters {
                    let base = filter(dsts.as_deref().map_or_else(Plan::scan, Plan::at));
                    let rows: Vec<usize> =
                        enumerated.iter().copied().filter(|&i| keep(i)).collect();
                    for term in Term::ALL {
                        if with_rows || !matches!(term, Term::Rows) {
                            let plan = term.apply(base.clone());
                            members.push((plan, term.hand_rolled(&ds, &rows)));
                        }
                    }
                }
                assert!(members.len() > 64, "{} members", members.len());
                let plans: Vec<Plan> = members.iter().map(|(p, _)| p.clone()).collect();
                let pass = Pass::new(0, &ds, &plans, (0..plans.len()).collect());
                assert_eq!(pass.filters.len(), filters.len(), "shared filters");
                let table_order = dsts.is_some() && !with_rows && dsts != &domains[1];
                assert_eq!(pass.in_table_order(), table_order, "{dsts:?}");
                let store = PlanStore::build(&ds, &plans);
                assert_eq!(store.passes(), 1);
                for (plan, want) in &members {
                    assert_eq!(store.get(plan), Some(want), "{plan:?}");
                }
            }
        }
    }

    #[test]
    fn scan_counters_track_fusion() {
        let ds = dataset();
        let before = scan_counters();
        PlanStore::build(
            &ds,
            &[
                Plan::at(&[DST]).count(),
                Plan::at(&[DST]).malicious().count(),
                Plan::scan().count(),
            ],
        );
        let d = scan_counters().since(before);
        assert_eq!(d.planned, 3);
        assert_eq!(d.fused, 2, "two domains -> two passes");
        assert_eq!(d.rows, 14, "7 fleet rows + 7 table rows");
    }
}
