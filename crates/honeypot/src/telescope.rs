//! The Orion-style passive network telescope.
//!
//! "Network telescopes/darknets typically do not host any services, receive
//! traffic on all ports and IP addresses, and only record the first packet
//! of a connection (i.e., they do not complete the TCP layer 4 handshake)"
//! (§3.1). Consequences faithfully modeled here:
//!
//! - no handshake ⇒ client-first payloads are never observed, so the
//!   telescope cannot classify intent (§3.2) or fingerprint protocols (§6);
//! - it infers the protocol from the destination port alone;
//! - it *can* count unique scanners per IP per port at scale, which is what
//!   powers the Figure 1 address-structure analysis.
//!
//! Memory design: the telescope covers ~475K IPs, so it keeps per-IP
//! *counters* for a configured set of tracked ports plus global
//! (source, port) sets for the overlap analyses — not full event records.
//!
//! Counting design: a packet costs no ordered-set insert. It appends
//! integer keys to lists — `src‖port` (the (source, port) pairs, and
//! through them the sources), `port‖ASN` (the AS counts and the source
//! ASes) and, on a tracked port, `src‖dst` (the unique-scanner series) —
//! and [`Telescope::fold`] sorts each list once and folds the distinct keys
//! into the sets, counts and series. A tracked port keeps its folded
//! `src‖dst` keys as one ascending list, so a fold is a linear merge that
//! counts the keys new to it. The scenario folds at every window drain,
//! so the lists hold at most one window of packets. Sets union and counts
//! add, so any fold schedule gives the same state.

use cw_netsim::engine::{FlowOutcome, Listener};
use cw_netsim::fault::{flow_hash, OutageSchedule};
use cw_netsim::flow::Flow;
use cw_netsim::ip::{Cidr, IpExt};
use cw_netsim::keys::Keys;
use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use cw_netsim::topology::AddressBlock;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Injected measurement faults on the telescope (see `cw_netsim::fault`).
///
/// Telescopes in the wild sample: recording every first packet of 475K IPs
/// is expensive, so operators keep 1 in N. Both mechanisms here drop the
/// packet *before* any counter updates, so a faulted telescope's state is
/// exactly what a smaller/flakier sensor would have collected.
#[derive(Debug, Clone, Default)]
pub struct TelescopeFaults {
    /// Deterministic downtime schedule for the whole telescope.
    pub outage: OutageSchedule,
    /// Keep 1 in `sample` packets (0 and 1 both mean "keep everything").
    pub sample: u32,
    /// Sampling decision salt (the fault plan's telescope domain salt).
    pub sample_salt: u64,
}

/// A passive telescope over an address block.
#[derive(Debug, Clone)]
pub struct Telescope {
    name: String,
    block: AddressBlock,
    /// Per tracked port: the unique-scanner series and the keys that
    /// dedup it.
    tracked: BTreeMap<u16, TrackedPort>,
    /// Distinct (src, port) pairs over the whole telescope (Tables 8–9).
    seen_src_port: BTreeSet<(u32, u16)>,
    /// Distinct sources and source ASes (Table 1).
    unique_srcs: BTreeSet<u32>,
    unique_asns: BTreeSet<u32>,
    /// Per-port AS traffic counts (who scans the telescope — Table 10).
    asn_counts: BTreeMap<u16, BTreeMap<u32, u64>>,
    /// AS traffic counts over all ports.
    asn_counts_all: BTreeMap<u32, u64>,
    /// Total first packets observed.
    total_packets: u64,
    /// `src << 16 | port`, one per packet since the last fold.
    src_ports: Keys<u64>,
    /// `port << 32 | asn`, one per packet since the last fold, never
    /// deduped: the run lengths are the AS counts.
    port_asns: Vec<u64>,
    /// Injected measurement faults; `None` is the (default) perfect sensor.
    /// Deliberately not serialized: a restored telescope is a read-only
    /// analysis input, and fault schedules belong to the live run's config.
    faults: Option<TelescopeFaults>,
}

/// One tracked port's unique-scanner series and the keys that dedup it.
/// A key is `src << 32 | dst`, so keys order like (src, dst) pairs.
#[derive(Debug, Clone)]
struct TrackedPort {
    /// Per telescope IP (block offset order): the distinct sources seen.
    counts: Vec<u32>,
    /// The keys folded so far, ascending and distinct. They exist only
    /// while collecting: they dedup the counts, no analysis reads them,
    /// and neither the snapshot nor [`Telescope::into_analysis`] keeps
    /// them, so a finished telescope carries the counts and no keys.
    seen: Vec<u64>,
    /// One key per packet on this port since the last fold.
    pending: Keys<u64>,
}

impl TrackedPort {
    fn new(counts: Vec<u32>) -> TrackedPort {
        TrackedPort {
            counts,
            seen: Vec::new(),
            pending: Keys::default(),
        }
    }

    /// Merge ascending, distinct `keys` into `seen`, counting each key new
    /// to it once, at its destination.
    fn merge(&mut self, block: &AddressBlock, keys: &[u64]) {
        // Both lists ascend, so one forward scan finds the new keys.
        let mut at = 0;
        let fresh: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&key| {
                while self.seen.get(at).is_some_and(|&old| old < key) {
                    at += 1;
                }
                self.seen.get(at) != Some(&key)
            })
            .collect();
        for &key in &fresh {
            let offset = block
                .offset_of(Ipv4Addr::from(key as u32))
                .expect("pair recorded inside the block");
            self.counts[offset as usize] += 1;
        }
        // Merge in place from the back, into the slots `fresh` adds.
        let (mut i, mut j) = (self.seen.len(), fresh.len());
        self.seen.resize(i + j, 0);
        while j > 0 {
            if i > 0 && self.seen[i - 1] > fresh[j - 1] {
                self.seen[i + j - 1] = self.seen[i - 1];
                i -= 1;
            } else {
                self.seen[i + j - 1] = fresh[j - 1];
                j -= 1;
            }
        }
    }
}

impl Telescope {
    /// Create a telescope over `block`, tracking per-IP unique-scanner
    /// counts for `tracked_ports`.
    pub fn new(name: &str, block: AddressBlock, tracked_ports: &[u16]) -> Self {
        let size = block.size() as usize;
        let tracked = tracked_ports
            .iter()
            .map(|&p| (p, TrackedPort::new(vec![0u32; size])))
            .collect();
        Telescope {
            name: name.to_string(),
            block,
            tracked,
            seen_src_port: BTreeSet::new(),
            unique_srcs: BTreeSet::new(),
            unique_asns: BTreeSet::new(),
            asn_counts: BTreeMap::new(),
            asn_counts_all: BTreeMap::new(),
            total_packets: 0,
            src_ports: Keys::default(),
            port_asns: Vec::new(),
            faults: None,
        }
    }

    /// Fold the keys appended since the last fold into the sets, AS counts
    /// and unique-scanner series. The read methods and
    /// [`Telescope::snap_write`] see the state as of the last fold.
    pub fn fold(&mut self) {
        let mut last_src = None;
        for key in self.src_ports.take_sorted() {
            let (src, port) = ((key >> 16) as u32, key as u16);
            // Keys ascend by source: insert each source once.
            if last_src != Some(src) {
                self.unique_srcs.insert(src);
                last_src = Some(src);
            }
            self.seen_src_port.insert((src, port));
        }
        self.port_asns.sort_unstable();
        for run in self.port_asns.chunk_by(|a, b| a == b) {
            let (port, asn) = ((run[0] >> 32) as u16, run[0] as u32);
            let n = run.len() as u64;
            *self
                .asn_counts
                .entry(port)
                .or_default()
                .entry(asn)
                .or_insert(0) += n;
            *self.asn_counts_all.entry(asn).or_insert(0) += n;
            self.unique_asns.insert(asn);
        }
        self.port_asns.clear();
        for t in self.tracked.values_mut() {
            let keys = t.pending.take_sorted();
            t.merge(&self.block, &keys);
        }
    }

    /// True if no key was appended since the last fold.
    fn is_folded(&self) -> bool {
        self.src_ports.is_empty()
            && self.port_asns.is_empty()
            && self.tracked.values().all(|t| t.pending.is_empty())
    }

    /// The telescope as an analysis input: its state as of the last
    /// [`Telescope::fold`], without what only collection needs (the
    /// tracked ports' dedup keys, the key lists and the injected faults).
    /// It holds exactly what [`Telescope::snap_read`] restores from its
    /// snapshot.
    pub fn into_analysis(self) -> Telescope {
        debug_assert!(self.is_folded(), "analysis state of an unfolded telescope");
        Telescope {
            tracked: self
                .tracked
                .into_iter()
                .map(|(port, t)| (port, TrackedPort::new(t.counts)))
                .collect(),
            src_ports: Keys::default(),
            port_asns: Vec::new(),
            faults: None,
            ..self
        }
    }

    /// Inject measurement faults. Called by the world's instruments when
    /// a non-trivial fault plan is active.
    pub fn set_faults(&mut self, faults: TelescopeFaults) {
        self.faults = Some(faults);
    }

    /// The covered block.
    pub fn block(&self) -> &AddressBlock {
        &self.block
    }

    /// Unique-scanner count per telescope IP (block offset order) for a
    /// tracked port — the Figure 1 series.
    pub fn unique_scanners_per_ip(&self, port: u16) -> Option<&[u32]> {
        self.tracked.get(&port).map(|t| t.counts.as_slice())
    }

    /// All source IPs that touched the given port anywhere in the telescope
    /// (the Tables 8–9 overlap sets).
    pub fn sources_on_port(&self, port: u16) -> BTreeSet<Ipv4Addr> {
        self.seen_src_port
            .iter()
            .filter(|&&(_, p)| p == port)
            .map(|&(s, _)| Ipv4Addr::from(s))
            .collect()
    }

    /// Did this source ever touch this port in the telescope?
    pub fn saw_source_on_port(&self, src: Ipv4Addr, port: u16) -> bool {
        self.seen_src_port.contains(&(src.to_u32(), port))
    }

    /// Number of distinct source IPs observed (Table 1).
    pub fn unique_source_count(&self) -> usize {
        self.unique_srcs.len()
    }

    /// Number of distinct source ASes observed (Table 1).
    pub fn unique_asn_count(&self) -> usize {
        self.unique_asns.len()
    }

    /// Total first packets observed.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Traffic count per source AS number on one port (Table 10's "who
    /// scans the telescope"); empty for a port the telescope never saw.
    pub fn asn_freqs_on_port(&self, port: u16) -> &BTreeMap<u32, u64> {
        static NONE: BTreeMap<u32, u64> = BTreeMap::new();
        self.asn_counts.get(&port).unwrap_or(&NONE)
    }

    /// Traffic count per source AS number over all ports.
    pub fn asn_freqs_all(&self) -> &BTreeMap<u32, u64> {
        &self.asn_counts_all
    }

    /// Encode the analysis-relevant state into a snapshot payload.
    ///
    /// The tracked ports' dedup keys are deliberately omitted (see
    /// `TrackedPort::seen`), so a restored telescope carries the finished
    /// counts with no keys. Restored telescopes are read-only analysis
    /// inputs, never live listeners.
    ///
    /// Encodes the state as of the last [`Telescope::fold`]; a live
    /// telescope must be folded first.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        debug_assert!(self.is_folded(), "snapshot of an unfolded telescope");
        w.put_str(&self.name);
        self.block.snap_write(w);
        w.put_u64(self.tracked.len() as u64);
        for (port, t) in &self.tracked {
            w.put_u16(*port);
            w.put_u64(t.counts.len() as u64);
            for c in &t.counts {
                w.put_u32(*c);
            }
        }
        w.put_u64(self.seen_src_port.len() as u64);
        for (src, port) in &self.seen_src_port {
            w.put_u32(*src);
            w.put_u16(*port);
        }
        w.put_u64(self.unique_srcs.len() as u64);
        for s in &self.unique_srcs {
            w.put_u32(*s);
        }
        w.put_u64(self.unique_asns.len() as u64);
        for a in &self.unique_asns {
            w.put_u32(*a);
        }
        w.put_u64(self.asn_counts.len() as u64);
        for (port, by_asn) in &self.asn_counts {
            w.put_u16(*port);
            w.put_u64(by_asn.len() as u64);
            for (asn, count) in by_asn {
                w.put_u32(*asn);
                w.put_u64(*count);
            }
        }
        w.put_u64(self.asn_counts_all.len() as u64);
        for (asn, count) in &self.asn_counts_all {
            w.put_u32(*asn);
            w.put_u64(*count);
        }
        w.put_u64(self.total_packets);
    }

    /// Decode a telescope from a snapshot payload (see
    /// [`Telescope::snap_write`] for what travels). Every run of
    /// fixed-width entries is read as one column and collected into its
    /// set or map at once.
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Telescope, SnapError> {
        /// An `(asn, count)` entry: a `u32` and a `u64`.
        fn asn_count([a0, a1, a2, a3, c @ ..]: [u8; 12]) -> (u32, u64) {
            (u32::from_le_bytes([a0, a1, a2, a3]), u64::from_le_bytes(c))
        }
        let name = r.get_str()?.to_string();
        let block = AddressBlock::snap_read(r)?;
        let mut tracked = BTreeMap::new();
        for _ in 0..r.get_count()? {
            let port = r.get_u16()?;
            // One count per block address: renders index the block by them.
            let n = r.get_count()?;
            if u64::try_from(n) != Ok(block.size()) {
                return Err(SnapError::Malformed(
                    "tracked port counts do not cover the block",
                ));
            }
            tracked.insert(port, TrackedPort::new(r.column(n, u32::from_le_bytes)?));
        }
        let n = r.get_count()?;
        let seen_src_port = r
            .column(n, |[s0, s1, s2, s3, p0, p1]: [u8; 6]| {
                (
                    u32::from_le_bytes([s0, s1, s2, s3]),
                    u16::from_le_bytes([p0, p1]),
                )
            })?
            .into_iter()
            .collect();
        let n = r.get_count()?;
        let unique_srcs = r.column(n, u32::from_le_bytes)?.into_iter().collect();
        let n = r.get_count()?;
        let unique_asns = r.column(n, u32::from_le_bytes)?.into_iter().collect();
        let mut asn_counts = BTreeMap::new();
        for _ in 0..r.get_count()? {
            let port = r.get_u16()?;
            let n = r.get_count()?;
            asn_counts.insert(port, r.column(n, asn_count)?.into_iter().collect());
        }
        let n = r.get_count()?;
        let asn_counts_all = r.column(n, asn_count)?.into_iter().collect();
        let total_packets = r.get_u64()?;
        Ok(Telescope {
            name,
            block,
            tracked,
            seen_src_port,
            unique_srcs,
            unique_asns,
            asn_counts,
            asn_counts_all,
            total_packets,
            src_ports: Keys::default(),
            port_asns: Vec::new(),
            faults: None,
        })
    }
}

impl Listener for Telescope {
    fn name(&self) -> &str {
        &self.name
    }

    fn coverage(&self) -> Vec<Cidr> {
        self.block.cidrs.clone()
    }

    fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
        // Injected faults drop the packet before any counter updates. Both
        // decisions are pure in the flow's time and identity.
        if let Some(f) = &self.faults {
            if f.outage.is_down(flow.time) {
                return FlowOutcome::dark();
            }
            if f.sample > 1
                && !flow_hash(f.sample_salt, flow.time, flow.src, flow.dst, flow.dst_port)
                    .is_multiple_of(f.sample as u64)
            {
                return FlowOutcome::dark();
            }
        }
        self.total_packets += 1;
        let (src, port) = (u64::from(flow.src.to_u32()), u64::from(flow.dst_port));
        self.src_ports.push(src << 16 | port);
        self.port_asns.push(port << 32 | u64::from(flow.src_asn.0));
        if let Some(t) = self.tracked.get_mut(&flow.dst_port) {
            t.pending.push(src << 32 | u64::from(flow.dst.to_u32()));
        }
        // The defining telescope property: never complete the handshake.
        FlowOutcome::dark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::{ConnectionIntent, FlowSpec};
    use cw_netsim::ip::Cidr;
    use cw_netsim::time::SimTime;

    fn scope() -> Telescope {
        let block = AddressBlock::new("tel", vec![Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)]);
        Telescope::new("tel", block, &[22, 445])
    }

    fn flow(src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> Flow {
        Flow::from_spec(
            FlowSpec {
                src,
                src_asn: Asn(7),
                dst,
                dst_port: port,
                intent: ConnectionIntent::Payload(b"SSH-2.0-x\r\n".to_vec().into()),
            },
            SimTime(1),
        )
    }

    #[test]
    fn never_completes_handshake() {
        let mut t = scope();
        let out = t.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 9),
            22,
        ));
        assert!(!out.handshake_completed);
        assert!(out.reply.is_none());
    }

    #[test]
    fn per_ip_unique_counting() {
        let mut t = scope();
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        // Same scanner twice → counted once. Second scanner → 2.
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(2, 2, 2, 2), dst, 22));
        t.fold();
        let counts = t.unique_scanners_per_ip(22).unwrap();
        assert_eq!(counts[9], 2);
        assert_eq!(counts[8], 0);
        assert_eq!(t.total_packets(), 3);
        assert_eq!(t.unique_source_count(), 2);
        assert_eq!(t.unique_asn_count(), 1);
    }

    #[test]
    fn untracked_ports_still_feed_overlap_sets() {
        let mut t = scope();
        t.on_flow(&flow(
            Ipv4Addr::new(3, 3, 3, 3),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        ));
        t.fold();
        assert!(t.unique_scanners_per_ip(80).is_none());
        assert!(t.saw_source_on_port(Ipv4Addr::new(3, 3, 3, 3), 80));
        assert!(!t.saw_source_on_port(Ipv4Addr::new(3, 3, 3, 3), 22));
        assert_eq!(t.sources_on_port(80).len(), 1);
    }

    #[test]
    fn telescope_snapshot_round_trips_analysis_state() {
        let mut t = scope();
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(2, 2, 2, 2), dst, 445));
        t.on_flow(&flow(
            Ipv4Addr::new(3, 3, 3, 3),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        ));
        t.fold();
        let mut w = SnapWriter::new();
        t.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Telescope::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.name(), t.name());
        assert_eq!(back.block(), t.block());
        assert_eq!(back.total_packets(), 3);
        assert_eq!(back.unique_source_count(), 3);
        assert_eq!(back.unique_asn_count(), 1);
        assert_eq!(
            back.unique_scanners_per_ip(22),
            t.unique_scanners_per_ip(22)
        );
        assert_eq!(
            back.unique_scanners_per_ip(445),
            t.unique_scanners_per_ip(445)
        );
        assert_eq!(back.sources_on_port(80), t.sources_on_port(80));
        assert_eq!(back.asn_freqs_on_port(22), t.asn_freqs_on_port(22));
        assert_eq!(back.asn_freqs_all(), t.asn_freqs_all());
        assert!(back.saw_source_on_port(Ipv4Addr::new(3, 3, 3, 3), 80));
    }

    #[test]
    fn analysis_state_is_what_a_restored_telescope_holds() {
        let mut t = scope();
        t.set_faults(TelescopeFaults::default());
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(2, 2, 2, 2), dst, 445));
        t.on_flow(&flow(Ipv4Addr::new(3, 3, 3, 3), dst, 80));
        t.fold();
        assert!(t.tracked.values().any(|tp| !tp.seen.is_empty()));
        let bytes = snap_bytes(&t);
        let restored = Telescope::snap_read(&mut SnapReader::new(&bytes)).unwrap();
        let analysis = t.into_analysis();
        assert!(snap_bytes(&analysis) == bytes);
        // Every field, the collection-only ones included, as restored.
        assert_eq!(format!("{analysis:?}"), format!("{restored:?}"));
        assert!(analysis.tracked.values().all(|tp| tp.seen.capacity() == 0));
    }

    #[test]
    fn snapshot_rejects_tracked_counts_that_do_not_cover_the_block() {
        let mut bytes = snap_bytes(&scope());
        // The name, the block (its name, one CIDR), the tracked-port count
        // and the first port precede that port's count of per-IP counts.
        let at = (8 + 3) + (8 + 3 + 8 + 5) + 8 + 2;
        assert_eq!(
            bytes[at..at + 8],
            256u64.to_le_bytes(),
            "one per /24 address"
        );
        bytes[at..at + 8].copy_from_slice(&255u64.to_le_bytes());
        let err = Telescope::snap_read(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn coverage_is_the_block() {
        let t = scope();
        assert_eq!(t.coverage(), [Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)]);
    }

    fn snap_bytes(t: &Telescope) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snap_write(&mut w);
        w.into_bytes()
    }

    /// The per-packet ordered-set inserts the keys replace, as a reference:
    /// a telescope whose analysis state is built one insert per packet.
    fn oracle(block: AddressBlock, tracked: &[u16], flows: &[Flow]) -> Telescope {
        let mut t = Telescope::new("tel", block, tracked);
        let mut seen_src_dst: BTreeMap<u16, BTreeSet<(u32, u32)>> = BTreeMap::new();
        for f in flows {
            let src = f.src.to_u32();
            t.total_packets += 1;
            t.unique_srcs.insert(src);
            t.unique_asns.insert(f.src_asn.0);
            t.seen_src_port.insert((src, f.dst_port));
            let by_asn = t.asn_counts.entry(f.dst_port).or_default();
            *by_asn.entry(f.src_asn.0).or_insert(0) += 1;
            *t.asn_counts_all.entry(f.src_asn.0).or_insert(0) += 1;
            if let Some(tp) = t.tracked.get_mut(&f.dst_port) {
                let seen = seen_src_dst.entry(f.dst_port).or_default();
                if seen.insert((src, f.dst.to_u32())) {
                    tp.counts[t.block.offset_of(f.dst).unwrap() as usize] += 1;
                }
            }
        }
        for (port, seen) in seen_src_dst {
            let keys = seen.iter().map(|&(s, d)| u64::from(s) << 32 | u64::from(d));
            t.tracked.get_mut(&port).unwrap().seen = keys.collect();
        }
        t
    }

    /// More packets than a key list holds before it compacts, with repeats
    /// of every key kind, into one telescope that folds at random points:
    /// the snapshot bytes and dedup keys are the ones the per-packet
    /// inserts give.
    #[test]
    fn folded_keys_match_per_packet_inserts() {
        let block = AddressBlock::new(
            "tel",
            vec![
                Cidr::new(Ipv4Addr::new(10, 9, 0, 0), 23),
                Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24),
            ],
        );
        let tracked = [22, 445];
        let ports = [22, 23, 80, 445, 8080];
        let mut rng = cw_netsim::rng::SimRng::seed_from_u64(0x7E1E);
        let flows: Vec<Flow> = (0..150_000)
            .map(|_| {
                let src = Ipv4Addr::from(0x6400_0000 + rng.below(4_000) as u32);
                let dst = block.nth(rng.below(block.size()));
                let port = ports[rng.below(ports.len() as u64) as usize];
                let mut f = flow(src, dst, port);
                f.src_asn = Asn(64_000 + rng.below(300) as u32);
                f
            })
            .collect();
        let mut t = Telescope::new("tel", block.clone(), &tracked);
        let mut folds = 0;
        for f in &flows {
            t.on_flow(f);
            if rng.chance(5e-5) {
                t.fold();
                folds += 1;
            }
        }
        assert!(folds > 1, "the stream folds at several points");
        // The last packets are still unfolded keys.
        assert!(!t.is_folded());
        t.fold();
        let expected = oracle(block, &tracked, &flows);
        assert!(snap_bytes(&t) == snap_bytes(&expected));
        for (port, tp) in &t.tracked {
            assert_eq!(
                tp.seen, expected.tracked[port].seen,
                "dedup keys of port {port}"
            );
        }
    }
}
