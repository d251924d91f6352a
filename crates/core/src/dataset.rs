//! The queryable event store behind every analysis.
//!
//! A [`Dataset`] flattens all honeypot captures into one columnar
//! [`EventTable`], pre-classifies every event with the vetted ruleset
//! (§3.2), indexes it by destination, and exposes the §3.3 traffic slices.
//! It also writes the released dataset as CSV/JSONL/pcap. Analyses scan
//! it through the typed plans of [`crate::query`].
//!
//! # Interned, memoized classification
//!
//! Events carry [`PayloadId`]/[`cw_netsim::intern::CredId`] handles instead of bytes. Every
//! listener of a world records into one shared [`Interner`], and the
//! dataset takes that interner over whole once the captures are complete,
//! so the ids a capture recorded are the dataset's ids. The build appends
//! the capture tables in capture order and classifies + LZR-fingerprints
//! **once per distinct `(PayloadId, port)` pair** — a memo over a few
//! thousand distinct payloads instead of a rule-matcher run per event.
//! Verdicts are pure functions of `(payload bytes, port)`, so memoization
//! is observationally identical to the per-event path.

use crate::axes::AxisLabels;
use crate::query::IdHash;
use cw_detection::{is_malicious_payload, RuleSet, Verdict};
use cw_honeypot::capture::{Capture, EventTable, Observed, ScanEvent};
use cw_netsim::flow::LoginService;
use cw_netsim::intern::{CredId, Interner, PayloadId};
use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use cw_protocols::ProtocolId;
use cw_stats::topk::Label;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::rc::Rc;
use std::sync::{OnceLock, PoisonError, RwLock};

/// The §3.3 traffic slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficSlice {
    /// Traffic to port 22.
    SshPort22,
    /// Traffic to port 23.
    TelnetPort23,
    /// Traffic to port 80.
    HttpPort80,
    /// HTTP-fingerprinted payloads on any port ("HTTP/All Ports").
    HttpAllPorts,
    /// Everything ("Any/All").
    AnyAll,
}

impl TrafficSlice {
    /// The slices of Table 2/4/5/7.
    pub const PAPER: [TrafficSlice; 4] = [
        TrafficSlice::SshPort22,
        TrafficSlice::TelnetPort23,
        TrafficSlice::HttpPort80,
        TrafficSlice::HttpAllPorts,
    ];

    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficSlice::SshPort22 => "SSH/22",
            TrafficSlice::TelnetPort23 => "Telnet/23",
            TrafficSlice::HttpPort80 => "HTTP/80",
            TrafficSlice::HttpAllPorts => "HTTP/All",
            TrafficSlice::AnyAll => "Any/All",
        }
    }
}

/// A classified event: the capture record plus analysis metadata, with a
/// borrow of the dataset's interner so display strings resolve on demand.
#[derive(Debug, Clone, Copy)]
pub struct ClassifiedEvent<'a> {
    /// The raw observation (interned ids in the dataset's id space).
    pub event: ScanEvent,
    /// §3.2 verdict.
    pub verdict: Verdict,
    /// LZR fingerprint of the payload, if one was observed.
    pub fingerprint: Option<ProtocolId>,
    interner: &'a Interner,
}

impl<'a> ClassifiedEvent<'a> {
    /// Assemble a classified event from parts — for harnesses that
    /// classify outside a [`Dataset`] (the leak experiment, axes tests).
    /// `interner` must be the interner `event`'s ids were minted by.
    pub fn new(
        event: ScanEvent,
        verdict: Verdict,
        fingerprint: Option<ProtocolId>,
        interner: &'a Interner,
    ) -> Self {
        ClassifiedEvent {
            event,
            verdict,
            fingerprint,
            interner,
        }
    }

    /// The interner this event's ids resolve against.
    pub fn interner(&self) -> &'a Interner {
        self.interner
    }

    /// The observed payload bytes, if any.
    pub fn payload_bytes(&self) -> Option<&'a [u8]> {
        self.event
            .observed
            .payload()
            .map(|p| self.interner.payload(p))
    }

    /// The harvested username, if this was a credential observation.
    pub fn username(&self) -> Option<&'a str> {
        match self.event.observed {
            Observed::Credentials { username, .. } => Some(self.interner.cred(username)),
            _ => None,
        }
    }

    /// The harvested password, if this was a credential observation.
    pub fn password(&self) -> Option<&'a str> {
        match self.event.observed {
            Observed::Credentials { password, .. } => Some(self.interner.cred(password)),
            _ => None,
        }
    }
}

/// The flattened, classified event store (columnar, interned).
#[derive(Debug, Clone)]
pub struct Dataset {
    table: EventTable,
    verdicts: Vec<Verdict>,
    fingerprints: Vec<Option<ProtocolId>>,
    interner: Interner,
    by_dst: DstIndex,
    /// The axis labels the dataset serves as [`AxisLabels`], each made on
    /// first use and then shared. Derived, so no snapshot holds them.
    labels: LabelMemo,
}

/// A dataset's memo of axis labels: one lazily filled slot per interned
/// payload and credential, and one entry per AS number asked for.
#[derive(Debug)]
struct LabelMemo {
    payloads: Box<[OnceLock<Label>]>,
    creds: Box<[OnceLock<Label>]>,
    asns: RwLock<HashMap<u32, Label, IdHash>>,
}

impl LabelMemo {
    /// Empty slots for every payload and credential of `interner`.
    fn new(interner: &Interner) -> Self {
        let slots = |n: usize| (0..n).map(|_| OnceLock::new()).collect();
        LabelMemo {
            payloads: slots(interner.payload_count()),
            creds: slots(interner.cred_count()),
            asns: RwLock::default(),
        }
    }
}

impl Clone for LabelMemo {
    fn clone(&self) -> Self {
        let asns = self.asns.read().unwrap_or_else(PoisonError::into_inner);
        LabelMemo {
            payloads: self.payloads.clone(),
            creds: self.creds.clone(),
            asns: RwLock::new(asns.clone()),
        }
    }
}

/// The fingerprint column's tag for a row with no fingerprint; any other
/// tag is the fingerprint's index in [`ProtocolId::ALL`].
const NO_FINGERPRINT: u8 = 0xFF;

/// Per-distinct classification memo: `(payload id, port)` → verdict +
/// fingerprint, for ids of one interner.
pub(crate) type ClassifyMemo = HashMap<(PayloadId, u16), (Verdict, Option<ProtocolId>)>;

/// The per-destination row index: every row number, grouped by
/// destination in address order and ascending within a destination, in
/// one exact-size array, with a sorted map from each destination to its
/// range of that array. Row numbers are `u32`: `cw_bench::MAX_SCALE` keeps
/// every world that can be built below `u32::MAX` rows, and
/// [`Dataset::snap_read`] rejects a larger table.
#[derive(Debug, Clone)]
struct DstIndex {
    ranges: BTreeMap<Ipv4Addr, Range<usize>>,
    rows: Vec<u32>,
}

/// Index the destination column `dsts` in three passes: number each
/// row's destination (first-seen order) and count the rows per number, lay
/// the destinations' ranges out in address order, then place each row at
/// its destination's cursor. Destinations are numbered through a hash map
/// under the scan kernel's keyed multiply-shift [`IdHash`]: over the 1.5M
/// rows and 702 destinations of a scale-1 2021 world, 9–12 ms against
/// 33–38 ms under the default SipHash. Its per-process key stays, since
/// the addresses come from snapshot files, and the map's order never
/// reaches the result.
///
/// # Panics
/// Panics on more than `u32::MAX` rows (see [`DstIndex`]): the dataset
/// build sees at most `cw_bench::MAX_SCALE`'s worlds, and
/// [`Dataset::snap_read`] rejects a larger table before it gets here.
fn index_by_dst(dsts: &[Ipv4Addr]) -> DstIndex {
    assert!(
        u32::try_from(dsts.len()).is_ok(),
        "more rows than u32 row numbers"
    );
    let mut number_of: HashMap<u32, u32, IdHash> = HashMap::default();
    let mut counts: Vec<usize> = Vec::new();
    let dst_numbers: Vec<u32> = dsts
        .iter()
        .map(|&dst| {
            let n = *number_of.entry(u32::from(dst)).or_insert_with(|| {
                counts.push(0);
                // Below the row count, which fits a `u32`.
                (counts.len() - 1) as u32
            });
            // Every number indexes `counts`: it was pushed with it.
            counts[n as usize] += 1;
            n
        })
        .collect();
    let mut by_address: Vec<(u32, u32)> = number_of.into_iter().collect();
    by_address.sort_unstable();
    let mut cursors = vec![0; counts.len()];
    let mut ranges = BTreeMap::new();
    let mut start = 0;
    for (dst, n) in by_address {
        let rows = counts[n as usize];
        cursors[n as usize] = start;
        ranges.insert(Ipv4Addr::from(dst), start..start + rows);
        start += rows;
    }
    // The cursors of each destination stay inside its range, and the
    // ranges tile `0..dsts.len()`.
    let mut rows = vec![0; dsts.len()];
    for (row, &n) in dst_numbers.iter().enumerate() {
        let at = &mut cursors[n as usize];
        rows[*at] = row as u32;
        *at += 1;
    }
    DstIndex { ranges, rows }
}

impl DstIndex {
    /// The rows destined to `ip`, ascending.
    fn get(&self, ip: Ipv4Addr) -> Option<&[u32]> {
        self.ranges.get(&ip).map(|range| &self.rows[range.clone()])
    }
}

impl Dataset {
    /// Build from complete captures (in order), copying their tables and
    /// their interner.
    ///
    /// A scenario run moves its captures' tables and interner into the
    /// same build instead of copying them; this wrapper is for tests and
    /// harnesses that keep their captures.
    ///
    /// # Panics
    /// Panics if the captures record into different interners: their ids
    /// would mean different values in one table.
    pub fn from_captures(captures: &[&Capture]) -> Self {
        let interner = match captures.first() {
            Some(first) => {
                let shared = first.interner();
                assert!(
                    captures.iter().all(|c| Rc::ptr_eq(&c.interner(), &shared)),
                    "Dataset::from_captures: the captures must share one interner"
                );
                let copy = shared.borrow().clone();
                copy
            }
            None => Interner::new(),
        };
        let tables = captures.iter().map(|c| c.table().clone()).collect();
        Dataset::assemble(tables, interner)
    }

    /// The one dataset build: append `tables` in order, classify every row
    /// through the per-distinct memo, and index the rows by destination.
    /// Every id in `tables` must resolve against `interner`, which the
    /// dataset keeps as its own.
    pub(crate) fn assemble(tables: Vec<EventTable>, interner: Interner) -> Dataset {
        let total = tables.iter().map(EventTable::len).sum();
        let mut table = EventTable::with_capacity(total);
        for mut t in tables {
            table.append(&mut t);
        }
        let rules = RuleSet::builtin_cached();
        let mut memo = ClassifyMemo::with_capacity(interner.payload_count());
        let mut verdicts = Vec::with_capacity(total);
        let mut fingerprints = Vec::with_capacity(total);
        for (&observed, &port) in table.observed().iter().zip(table.dst_ports()) {
            let (verdict, fingerprint) =
                classify_interned(observed, port, &interner, rules, &mut memo);
            verdicts.push(verdict);
            fingerprints.push(fingerprint);
        }
        Dataset {
            by_dst: index_by_dst(table.dsts()),
            labels: LabelMemo::new(&interner),
            table,
            verdicts,
            fingerprints,
            interner,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the dataset holds no events.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The interner every event id resolves against.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The columnar event store.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// The §3.2 verdict column (parallel to the event table's rows).
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The LZR fingerprint column (parallel to the event table's rows).
    pub fn fingerprints(&self) -> &[Option<ProtocolId>] {
        &self.fingerprints
    }

    /// Row indices destined to `ip`, in capture order — the pushdown index
    /// behind [`crate::query::Plan::at`].
    pub(crate) fn dst_index(&self, ip: Ipv4Addr) -> Option<&[u32]> {
        self.by_dst.get(ip)
    }

    /// Event `i` with its classification.
    pub fn event(&self, i: usize) -> ClassifiedEvent<'_> {
        ClassifiedEvent {
            event: self.table.get(i),
            verdict: self.verdicts[i],
            fingerprint: self.fingerprints[i],
            interner: &self.interner,
        }
    }

    /// All classified events, in capture order.
    pub fn events(&self) -> impl Iterator<Item = ClassifiedEvent<'_>> {
        (0..self.len()).map(move |i| self.event(i))
    }

    /// Encode the dataset into a snapshot payload: the interner, the
    /// columnar table, and both classification columns. The destination
    /// index (`by_dst`) is *not* written — it is a pure function of the
    /// table, so [`Dataset::snap_read`] rebuilds it instead of trusting
    /// the disk — and neither are the payload labels, which fill on first
    /// use.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        self.interner.snap_write(w);
        self.table.snap_write(w);
        w.put_u64(self.verdicts.len() as u64);
        for v in &self.verdicts {
            w.put_u8(match v {
                Verdict::Attacker => 0,
                Verdict::Scanner => 1,
            });
        }
        w.put_u64(self.fingerprints.len() as u64);
        for fp in &self.fingerprints {
            w.put_u8(match fp {
                None => NO_FINGERPRINT,
                // The stable wire id of a protocol is its index in
                // `ProtocolId::ALL` (13 variants, fits a u8).
                Some(p) => ProtocolId::ALL
                    .iter()
                    .position(|q| q == p)
                    .expect("every ProtocolId appears in ALL") as u8,
            });
        }
    }

    /// Decode a dataset from a snapshot payload, rebuilding the
    /// destination index from the decoded table.
    ///
    /// Beyond the container hash, this validates that every interned id in
    /// the table resolves inside the decoded interner (the event table
    /// checks each id as it decodes it), so a logically inconsistent
    /// snapshot is rejected rather than panicking later.
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Dataset, SnapError> {
        let interner = Interner::snap_read(r)?;
        let table = EventTable::snap_read(r, &interner)?;
        if u32::try_from(table.len()).is_err() {
            return Err(SnapError::Malformed("more rows than u32 row numbers"));
        }
        if r.get_count()? != table.len() {
            return Err(SnapError::Malformed("verdict column length mismatch"));
        }
        let tags = r.column(table.len(), |[tag]: [u8; 1]| tag)?;
        if tags.iter().any(|&tag| tag > 1) {
            return Err(SnapError::Malformed("unknown verdict tag"));
        }
        let verdicts = tags
            .into_iter()
            .map(|tag| match tag {
                0 => Verdict::Attacker,
                _ => Verdict::Scanner,
            })
            .collect();
        if r.get_count()? != table.len() {
            return Err(SnapError::Malformed("fingerprint column length mismatch"));
        }
        let tags = r.column(table.len(), |[tag]: [u8; 1]| tag)?;
        if tags
            .iter()
            .any(|&tag| tag != NO_FINGERPRINT && usize::from(tag) >= ProtocolId::ALL.len())
        {
            return Err(SnapError::Malformed("unknown protocol fingerprint tag"));
        }
        let fingerprints = tags
            .into_iter()
            .map(|tag| ProtocolId::ALL.get(usize::from(tag)).copied())
            .collect();
        Ok(Dataset {
            by_dst: index_by_dst(table.dsts()),
            labels: LabelMemo::new(&interner),
            table,
            verdicts,
            fingerprints,
            interner,
        })
    }

    /// Write the dataset as CSV (one row per event; payloads hex-encoded).
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "time,src,src_asn,dst,dst_port,kind,verdict,fingerprint,username,password,payload_hex"
        )?;
        for ce in self.events() {
            let e = &ce.event;
            let (kind, user, pass, payload) = match e.observed {
                Observed::Syn => ("syn", "", "", String::new()),
                Observed::Handshake => ("handshake", "", "", String::new()),
                Observed::Payload(p) => ("payload", "", "", hex(self.interner.payload(p))),
                Observed::Credentials {
                    username, password, ..
                } => (
                    "credentials",
                    self.interner.cred(username),
                    self.interner.cred(password),
                    String::new(),
                ),
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{},{}",
                e.time.secs(),
                e.src,
                e.src_asn.0,
                e.dst,
                e.dst_port,
                kind,
                match ce.verdict {
                    Verdict::Attacker => "attacker",
                    Verdict::Scanner => "scanner",
                },
                ce.fingerprint.map(|p| p.label()).unwrap_or(""),
                csv_escape(user),
                csv_escape(pass),
                payload,
            )?;
        }
        Ok(())
    }

    /// Write the dataset as a libpcap capture (synthesized Ethernet/IPv4/TCP
    /// frames; opens in Wireshark/tcpdump). `epoch` is the UNIX timestamp of
    /// simulated time zero — e.g. 1625097600 for 2021-07-01T00:00:00Z.
    ///
    /// Credential observations are rendered as the client's first protocol
    /// bytes (SSH banner / Telnet negotiation) since a pcap carries wire
    /// data, not harvested application state.
    pub fn write_pcap<W: Write>(&self, w: W, epoch: u32) -> std::io::Result<()> {
        use cw_netsim::pcap::PcapWriter;
        const TELNET_NEGOTIATION: &[u8] = &[0xFF, 0xFD, 0x01, 0xFF, 0xFD, 0x03];
        let mut pcap = PcapWriter::new(w, epoch)?;
        for ce in self.events() {
            let e = &ce.event;
            // Deterministic ephemeral source port derived from the flow.
            let src_port = 32_768 + (cw_netsim::rng::fnv1a(&e.src.octets()) % 28_000) as u16;
            let (payload, syn_only): (&[u8], bool) = match e.observed {
                Observed::Syn => (&[], true),
                Observed::Handshake => (&[], false),
                Observed::Payload(p) => (self.interner.payload(p), false),
                Observed::Credentials { service, .. } => match service {
                    LoginService::Ssh => (cw_netsim::flow::SSH_CLIENT_BANNER, false),
                    LoginService::Telnet => (TELNET_NEGOTIATION, false),
                },
            };
            pcap.write_tcp(
                e.time, e.src, src_port, e.dst, e.dst_port, payload, syn_only,
            )?;
        }
        pcap.finish()?;
        Ok(())
    }

    /// Write the dataset as JSON Lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for ce in self.events() {
            let e = &ce.event;
            let mut obj = format!(
                "{{\"time\":{},\"src\":\"{}\",\"src_asn\":{},\"dst\":\"{}\",\"dst_port\":{},\"verdict\":\"{}\"",
                e.time.secs(),
                e.src,
                e.src_asn.0,
                e.dst,
                e.dst_port,
                match ce.verdict {
                    Verdict::Attacker => "attacker",
                    Verdict::Scanner => "scanner",
                }
            );
            match e.observed {
                Observed::Syn => obj.push_str(",\"kind\":\"syn\""),
                Observed::Handshake => obj.push_str(",\"kind\":\"handshake\""),
                Observed::Payload(p) => {
                    obj.push_str(&format!(
                        ",\"kind\":\"payload\",\"payload_hex\":\"{}\"",
                        hex(self.interner.payload(p))
                    ));
                }
                Observed::Credentials {
                    username, password, ..
                } => {
                    obj.push_str(&format!(
                        ",\"kind\":\"credentials\",\"username\":{},\"password\":{}",
                        json_string(self.interner.cred(username)),
                        json_string(self.interner.cred(password))
                    ));
                }
            }
            if let Some(fp) = ce.fingerprint {
                obj.push_str(&format!(",\"fingerprint\":\"{}\"", fp.label()));
            }
            obj.push('}');
            writeln!(w, "{obj}")?;
        }
        Ok(())
    }
}

/// Every label is made on first use and then shared: once per distinct ID
/// per dataset, from any thread. A payload or credential ID must be one of
/// this dataset's, as every ID in its table is: the build takes the
/// interner the captures recorded into, and [`Dataset::snap_read`] rejects
/// a table ID outside its interner.
impl AxisLabels for Dataset {
    fn asn_label(&self, asn: u32) -> Label {
        let memo = &self.labels.asns;
        if let Some(label) = memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&asn)
        {
            return label.clone();
        }
        memo.write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(asn)
            .or_insert_with(|| self.interner.asn_label(asn))
            .clone()
    }

    fn cred_label(&self, id: CredId) -> Label {
        self.labels.creds[id.index()]
            .get_or_init(|| self.interner.cred_label(id))
            .clone()
    }

    fn payload_label(&self, id: PayloadId) -> Label {
        self.labels.payloads[id.index()]
            .get_or_init(|| self.interner.payload_label(id))
            .clone()
    }
}

/// Classify one interned observation per §3.2, memoized per distinct
/// `(payload, port)` pair. `memo` must only ever see ids of `interner`.
pub(crate) fn classify_interned(
    observed: Observed,
    dst_port: u16,
    interner: &Interner,
    rules: &RuleSet,
    memo: &mut ClassifyMemo,
) -> (Verdict, Option<ProtocolId>) {
    match observed {
        Observed::Syn | Observed::Handshake => (Verdict::Scanner, None),
        Observed::Payload(p) => *memo.entry((p, dst_port)).or_insert_with(|| {
            let bytes = interner.payload(p);
            let verdict = if is_malicious_payload(bytes, dst_port, rules) {
                Verdict::Attacker
            } else {
                Verdict::Scanner
            };
            (verdict, cw_protocols::fingerprint(bytes))
        }),
        Observed::Credentials { service, .. } => {
            let fp = match service {
                LoginService::Ssh => Some(ProtocolId::Ssh),
                LoginService::Telnet => Some(ProtocolId::Telnet),
            };
            (Verdict::Attacker, fp)
        }
    }
}

/// Classify one capture event per §3.2, resolving ids via `interner`.
///
/// This is the unmemoized reference path; [`Dataset::from_captures`] uses
/// the per-distinct memo internally and must agree with this function on
/// every event (the equivalence tests enforce it).
pub fn classify_event(
    e: &ScanEvent,
    interner: &Interner,
    rules: &RuleSet,
) -> (Verdict, Option<ProtocolId>) {
    match e.observed {
        Observed::Syn | Observed::Handshake => (Verdict::Scanner, None),
        Observed::Payload(p) => {
            let bytes = interner.payload(p);
            let verdict = if is_malicious_payload(bytes, e.dst_port, rules) {
                Verdict::Attacker
            } else {
                Verdict::Scanner
            };
            (verdict, cw_protocols::fingerprint(bytes))
        }
        Observed::Credentials { service, .. } => {
            let fp = match service {
                LoginService::Ssh => Some(ProtocolId::Ssh),
                LoginService::Telnet => Some(ProtocolId::Telnet),
            };
            (Verdict::Attacker, fp)
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0x0F) as usize] as char);
    }
    s
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Plan, ScanExec};
    use cw_netsim::asn::Asn;
    use cw_netsim::time::SimTime;

    /// Test-side raw observation (bytes, pre-interning).
    enum Raw {
        Syn,
        Handshake,
        Payload(Vec<u8>),
        Creds(LoginService, &'static str, &'static str),
    }

    struct Builder {
        cap: Capture,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                cap: Capture::new("test"),
            }
        }

        fn push_from(&mut self, src: Ipv4Addr, asn: Asn, dst_port: u16, raw: Raw) {
            let observed = match raw {
                Raw::Syn => Observed::Syn,
                Raw::Handshake => Observed::Handshake,
                Raw::Payload(p) => Observed::Payload(self.cap.intern_payload(&p)),
                Raw::Creds(service, u, p) => Observed::Credentials {
                    service,
                    username: self.cap.intern_cred(u),
                    password: self.cap.intern_cred(p),
                },
            };
            self.cap.record(ScanEvent {
                time: SimTime(60),
                src,
                src_asn: asn,
                dst: Ipv4Addr::new(20, 10, 0, 0),
                dst_port,
                observed,
            });
        }

        fn push(&mut self, dst_port: u16, raw: Raw) {
            self.push_from(Ipv4Addr::new(100, 0, 0, 1), Asn(4134), dst_port, raw);
        }

        fn build(self) -> Dataset {
            Dataset::from_captures(&[&self.cap])
        }
    }

    #[test]
    fn classification_is_applied() {
        let mut b = Builder::new();
        b.push(22, Raw::Creds(LoginService::Ssh, "root", "123456"));
        b.push(80, Raw::Payload(cw_scanners::exploits::log4shell("x")));
        b.push(80, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
        b.push(443, Raw::Handshake);
        let ds = b.build();
        let verdicts: Vec<Verdict> = ds.events().map(|e| e.verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Attacker,
                Verdict::Attacker,
                Verdict::Scanner,
                Verdict::Scanner
            ]
        );
    }

    #[test]
    fn memoized_build_matches_reference_classification() {
        let mut b = Builder::new();
        // Duplicate payloads on the same and different ports exercise the
        // memo's (id, port) key.
        for _ in 0..3 {
            b.push(80, Raw::Payload(cw_scanners::exploits::log4shell("x")));
            b.push(80, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
            b.push(
                8080,
                Raw::Payload(cw_scanners::exploits::benign_get("zgrab")),
            );
            b.push(22, Raw::Creds(LoginService::Ssh, "root", "root"));
            b.push(443, Raw::Syn);
        }
        let ds = b.build();
        let rules = RuleSet::builtin_cached();
        for ce in ds.events() {
            let (v, fp) = classify_event(&ce.event, ds.interner(), rules);
            assert_eq!((v, fp), (ce.verdict, ce.fingerprint));
        }
    }

    #[test]
    fn slices_select_correctly() {
        let mut b = Builder::new();
        b.push(22, Raw::Handshake);
        b.push(23, Raw::Handshake);
        b.push(8080, Raw::Payload(cw_scanners::exploits::benign_get("x")));
        b.push(
            8080,
            Raw::Payload(cw_protocols::tls::build_client_hello(1, None)),
        );
        let ds = b.build();
        let exec = ScanExec::unplanned(&ds);
        let n = |slice| {
            exec.run(
                &Plan::at(&[Ipv4Addr::new(20, 10, 0, 0)])
                    .slice(slice)
                    .count(),
            )
            .into_count()
        };
        assert_eq!(n(TrafficSlice::SshPort22), 1);
        assert_eq!(n(TrafficSlice::TelnetPort23), 1);
        assert_eq!(n(TrafficSlice::HttpPort80), 0);
        // HTTP/All catches the HTTP payload on 8080 but not the TLS one.
        assert_eq!(n(TrafficSlice::HttpAllPorts), 1);
        assert_eq!(n(TrafficSlice::AnyAll), 4);
    }

    #[test]
    fn csv_and_jsonl_export() {
        let mut b = Builder::new();
        b.push(23, Raw::Creds(LoginService::Telnet, "ad,min", "p\"w"));
        b.push(80, Raw::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec()));
        let ds = b.build();
        let mut csv = Vec::new();
        ds.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("time,src"));
        assert!(csv.contains("\"ad,min\""));
        assert!(csv.contains("\"p\"\"w\""));

        let mut jsonl = Vec::new();
        ds.write_jsonl(&mut jsonl).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\\\""));
        assert!(jsonl.contains("\"fingerprint\":\"HTTP\""));
    }

    #[test]
    fn pcap_export_is_wellformed() {
        let mut b = Builder::new();
        b.push(22, Raw::Syn);
        b.push(80, Raw::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec()));
        b.push(23, Raw::Creds(LoginService::Telnet, "root", "root"));
        let ds = b.build();
        let mut buf = Vec::new();
        ds.write_pcap(&mut buf, 1_625_097_600).unwrap();
        // Global header + 3 records.
        assert_eq!(&buf[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        let mut offset = 24;
        let mut records = 0;
        while offset + 16 <= buf.len() {
            let incl = u32::from_le_bytes(buf[offset + 8..offset + 12].try_into().unwrap());
            offset += 16 + incl as usize;
            records += 1;
        }
        assert_eq!(offset, buf.len());
        assert_eq!(records, 3);
    }

    #[test]
    #[should_panic(expected = "share one interner")]
    fn from_captures_rejects_captures_on_two_interners() {
        // Each capture has a private interner, so payload id 0 means
        // "AAAA" in one and "BBBB" in the other: one table cannot hold both.
        let mut a = Builder::new();
        a.push(80, Raw::Payload(b"AAAA".to_vec()));
        let mut b = Builder::new();
        b.push(80, Raw::Payload(b"BBBB".to_vec()));
        Dataset::from_captures(&[&a.cap, &b.cap]);
    }

    #[test]
    fn from_captures_concatenates_captures_on_one_interner() {
        let shared = Interner::shared();
        let mut a = Builder {
            cap: Capture::new("a").with_interner(Rc::clone(&shared)),
        };
        a.push(80, Raw::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec()));
        let mut b = Builder {
            cap: Capture::new("b").with_interner(Rc::clone(&shared)),
        };
        b.push(22, Raw::Syn);
        b.push(8080, Raw::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec()));
        let ds = Dataset::from_captures(&[&a.cap, &b.cap]);
        // Capture order, then recording order; ids pass through untouched.
        let ports: Vec<u16> = ds.events().map(|e| e.event.dst_port).collect();
        assert_eq!(ports, vec![80, 22, 8080]);
        assert_eq!(
            ds.event(0).event.observed.payload(),
            ds.event(2).event.observed.payload()
        );
        assert_eq!(ds.interner().payload_count(), 1);
        // The captures keep their rows and their interner.
        assert_eq!(a.cap.len() + b.cap.len(), 3);
        assert_eq!(shared.borrow().payload_count(), 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_classification_and_indexes() {
        let mut b = Builder::new();
        b.push(22, Raw::Creds(LoginService::Ssh, "root", "123456"));
        b.push(80, Raw::Payload(cw_scanners::exploits::log4shell("x")));
        b.push(80, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
        b.push(443, Raw::Handshake);
        let ds = b.build();
        let mut w = cw_netsim::snap::SnapWriter::new();
        ds.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = cw_netsim::snap::SnapReader::new(&bytes);
        let back = Dataset::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.events().zip(back.events()) {
            assert_eq!(a.event, b.event);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.payload_bytes(), b.payload_bytes());
            assert_eq!(a.username(), b.username());
        }
        // The destination index is rebuilt, not deserialized.
        let ip = Ipv4Addr::new(20, 10, 0, 0);
        assert_eq!(back.dst_index(ip), ds.dst_index(ip));
    }

    #[test]
    fn snapshot_rejects_out_of_range_interned_ids() {
        // An empty interner followed by a table referencing payload id 3:
        // logically inconsistent even though each part decodes cleanly.
        let mut w = cw_netsim::snap::SnapWriter::new();
        Interner::new().snap_write(&mut w);
        let mut table = EventTable::new();
        table.push(ScanEvent {
            time: SimTime(1),
            src: Ipv4Addr::new(100, 0, 0, 1),
            src_asn: Asn(1),
            dst: Ipv4Addr::new(20, 10, 0, 0),
            dst_port: 80,
            observed: Observed::Payload(PayloadId(3)),
        });
        table.snap_write(&mut w);
        w.put_u64(1);
        w.put_u8(1);
        w.put_u64(1);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let err = Dataset::snap_read(&mut cw_netsim::snap::SnapReader::new(&bytes));
        assert!(matches!(err, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn dst_index_matches_per_destination_lists_on_a_small_world() {
        use crate::scenario::{Scenario, ScenarioConfig};
        let config =
            ScenarioConfig::fast(cw_scanners::population::ScenarioYear::Y2021).with_scale(0.01);
        let ds = Scenario::run(config).dataset;
        // The per-destination lists the flat index replaced, as the oracle.
        let mut oracle: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
        for (i, &dst) in ds.table().dsts().iter().enumerate() {
            oracle.entry(dst).or_default().push(i);
        }
        assert!(oracle.len() > 100, "{} destinations", oracle.len());
        for (&dst, want) in &oracle {
            let got: Vec<usize> = ds
                .dst_index(dst)
                .unwrap()
                .iter()
                .map(|&i| i as usize)
                .collect();
            assert_eq!(&got, want, "rows of {dst}");
        }
        assert!(ds.by_dst.ranges.keys().eq(oracle.keys()));
        assert_eq!(ds.by_dst.rows.len(), ds.len());
        assert_eq!(ds.by_dst.rows.capacity(), ds.len(), "exact-size row array");
        assert!(ds.dst_index(Ipv4Addr::new(9, 9, 9, 9)).is_none());
    }
}
