//! Capture storage: what a vantage point records, in columnar form.
//!
//! The paper's §3.1 observation model distinguishes collectors by how much
//! of a flow they see: a telescope records bare SYNs, Honeytrap records the
//! handshake plus the first client payload, Cowrie harvests interactive
//! credentials. [`Observed`] encodes that per-event outcome. Classification
//! into scanner/attacker happens later, in the analysis pipeline, exactly
//! as the paper classifies offline.
//!
//! Two representation choices keep this layer cheap at scale:
//!
//! - **Interning** — payload blobs and credential strings live once in a
//!   shared [`Interner`]; events carry 4-byte
//!   [`PayloadId`]/[`CredId`] handles instead of owned `Vec<u8>`/`String`s,
//!   so recording, cloning, and draining never copy blob bytes.
//! - **Columnar storage** — [`EventTable`] is a struct-of-arrays: one
//!   parallel column per event field. Scans that touch a single field
//!   (port filters, time buckets, group-bys) walk a dense column instead
//!   of striding over wide rows.
//!
//! [`ScanEvent`] remains the row-shaped view: `Copy`, assembled on demand
//! by [`EventTable::get`] and the iterators.

use cw_netsim::asn::Asn;
use cw_netsim::flow::LoginService;
use cw_netsim::intern::{CredId, Interner, PayloadId};
use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use cw_netsim::time::SimTime;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// What the instrument observed of the connection.
///
/// Payload bytes and credential strings are interned: resolve the ids
/// against the capture's (or dataset's) interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// First packet only (no L4 handshake): telescope-style.
    Syn,
    /// Handshake completed but the client sent nothing first.
    Handshake,
    /// First client payload (interned).
    Payload(PayloadId),
    /// Interactive login attempt harvested by a Cowrie-style service.
    Credentials {
        /// Which service dialect the client spoke.
        service: LoginService,
        /// Attempted username (interned).
        username: CredId,
        /// Attempted password (interned).
        password: CredId,
    },
}

impl Observed {
    /// The recorded payload id, if this observation carries one.
    pub fn payload(&self) -> Option<PayloadId> {
        match self {
            Observed::Payload(p) => Some(*p),
            _ => None,
        }
    }
}

/// One recorded observation (row view over the columnar [`EventTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEvent {
    /// When the flow arrived.
    pub time: SimTime,
    /// Source address.
    pub src: Ipv4Addr,
    /// Source autonomous system.
    pub src_asn: Asn,
    /// Destination address (which of our IPs was hit).
    pub dst: Ipv4Addr,
    /// Destination TCP port.
    pub dst_port: u16,
    /// What the collector saw.
    pub observed: Observed,
}

/// Struct-of-arrays event store: one dense column per [`ScanEvent`] field.
///
/// All columns always have identical length; index `i` across the columns
/// is row `i`.
#[derive(Debug, Clone, Default)]
pub struct EventTable {
    times: Vec<SimTime>,
    srcs: Vec<Ipv4Addr>,
    src_asns: Vec<Asn>,
    dsts: Vec<Ipv4Addr>,
    dst_ports: Vec<u16>,
    observed: Vec<Observed>,
}

impl EventTable {
    /// An empty table.
    pub fn new() -> Self {
        EventTable::default()
    }

    /// An empty table with room for `n` rows in every column. Purely an
    /// allocation hint (the dataset build sizes its table from the
    /// captures' total); contents and behavior are unaffected.
    pub fn with_capacity(n: usize) -> Self {
        EventTable {
            times: Vec::with_capacity(n),
            srcs: Vec::with_capacity(n),
            src_asns: Vec::with_capacity(n),
            dsts: Vec::with_capacity(n),
            dst_ports: Vec::with_capacity(n),
            observed: Vec::with_capacity(n),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Append one event as a new row.
    pub fn push(&mut self, e: ScanEvent) {
        self.times.push(e.time);
        self.srcs.push(e.src);
        self.src_asns.push(e.src_asn);
        self.dsts.push(e.dst);
        self.dst_ports.push(e.dst_port);
        self.observed.push(e.observed);
    }

    /// Reassemble row `i` into its row view.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> ScanEvent {
        ScanEvent {
            time: self.times[i],
            src: self.srcs[i],
            src_asn: self.src_asns[i],
            dst: self.dsts[i],
            dst_port: self.dst_ports[i],
            observed: self.observed[i],
        }
    }

    /// Iterate rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = ScanEvent> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The source-address column.
    pub fn srcs(&self) -> &[Ipv4Addr] {
        &self.srcs
    }

    /// The source-AS column.
    pub fn src_asns(&self) -> &[Asn] {
        &self.src_asns
    }

    /// The destination-address column (dense; one entry per row).
    pub fn dsts(&self) -> &[Ipv4Addr] {
        &self.dsts
    }

    /// The destination-port column.
    pub fn dst_ports(&self) -> &[u16] {
        &self.dst_ports
    }

    /// The observation column.
    pub fn observed(&self) -> &[Observed] {
        &self.observed
    }

    /// Move all rows of `other` to the end of this table, leaving `other`
    /// empty (like [`Vec::append`]). Interned ids are moved verbatim, so
    /// both tables must resolve against the same interner.
    pub fn append(&mut self, other: &mut EventTable) {
        self.times.append(&mut other.times);
        self.srcs.append(&mut other.srcs);
        self.src_asns.append(&mut other.src_asns);
        self.dsts.append(&mut other.dsts);
        self.dst_ports.append(&mut other.dst_ports);
        self.observed.append(&mut other.observed);
    }

    /// Encode all rows into a snapshot payload, column by column (the
    /// columnar layout is also the most compact wire form: each field is
    /// a dense homogeneous run).
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for t in &self.times {
            w.put_u64(t.0);
        }
        for s in &self.srcs {
            w.put_u32(u32::from(*s));
        }
        for a in &self.src_asns {
            w.put_u32(a.0);
        }
        for d in &self.dsts {
            w.put_u32(u32::from(*d));
        }
        for p in &self.dst_ports {
            w.put_u16(*p);
        }
        for o in &self.observed {
            match o {
                Observed::Syn => w.put_u8(0),
                Observed::Handshake => w.put_u8(1),
                Observed::Payload(p) => {
                    w.put_u8(2);
                    w.put_u32(p.0);
                }
                Observed::Credentials {
                    service,
                    username,
                    password,
                } => {
                    w.put_u8(3);
                    w.put_u8(match service {
                        LoginService::Ssh => 0,
                        LoginService::Telnet => 1,
                    });
                    w.put_u32(username.0);
                    w.put_u32(password.0);
                }
            }
        }
    }

    /// Decode a table from a snapshot payload. Interned ids are copied
    /// verbatim: they resolve against the interner snapshotted alongside
    /// the table, whose insertion-order ids round-trip exactly. Every id
    /// must resolve in `interner`; one outside it is
    /// [`SnapError::Malformed`].
    ///
    /// The five fixed-width columns are each read as one bounds-checked
    /// run ([`SnapReader::column`]), and the tagged `observed` column as
    /// records of at most ten bytes ([`SnapReader::records`]), each
    /// checked against the interner as it is decoded. Each column is
    /// allocated only after its bytes are known to be present, so a
    /// corrupt row count fails before it can reserve memory.
    pub fn snap_read(r: &mut SnapReader<'_>, interner: &Interner) -> Result<EventTable, SnapError> {
        let n = r.get_count()?;
        let (payloads, creds) = (interner.payload_count(), interner.cred_count());
        Ok(EventTable {
            times: r.column(n, |b| SimTime(u64::from_le_bytes(b)))?,
            srcs: r.column(n, |b| Ipv4Addr::from(u32::from_le_bytes(b)))?,
            src_asns: r.column(n, |b| Asn(u32::from_le_bytes(b)))?,
            dsts: r.column(n, |b| Ipv4Addr::from(u32::from_le_bytes(b)))?,
            dst_ports: r.column(n, u16::from_le_bytes)?,
            observed: r.records(n, MAX_OBSERVED_LEN, |bytes| {
                decode_observed(bytes, payloads, creds)
            })?,
        })
    }
}

/// The longest `observed` record: a tag, a service byte and two `u32`
/// credential ids.
const MAX_OBSERVED_LEN: usize = 10;

/// Decode one `observed` record from the front of `bytes` and move `bytes`
/// past it. A payload id must be below `payloads` and a credential id
/// below `creds`, the sizes of the interner they resolve against.
fn decode_observed(
    bytes: &mut &[u8],
    payloads: usize,
    creds: usize,
) -> Result<Observed, SnapError> {
    let resolves = |id: [u8; 4], count: usize| {
        let id = u32::from_le_bytes(id);
        usize::try_from(id).is_ok_and(|i| i < count).then_some(id)
    };
    let (&tag, rest) = bytes.split_first().ok_or(SnapError::Truncated)?;
    let (observed, rest) = match tag {
        0 => (Observed::Syn, rest),
        1 => (Observed::Handshake, rest),
        2 => {
            let (&id, rest) = rest.split_first_chunk().ok_or(SnapError::Truncated)?;
            let id = resolves(id, payloads)
                .ok_or(SnapError::Malformed("payload id out of interner range"))?;
            (Observed::Payload(PayloadId(id)), rest)
        }
        3 => {
            let (&[service, u0, u1, u2, u3, p0, p1, p2, p3], rest) =
                rest.split_first_chunk().ok_or(SnapError::Truncated)?;
            let service = match service {
                0 => LoginService::Ssh,
                1 => LoginService::Telnet,
                _ => return Err(SnapError::Malformed("unknown login service tag")),
            };
            let (Some(username), Some(password)) = (
                resolves([u0, u1, u2, u3], creds),
                resolves([p0, p1, p2, p3], creds),
            ) else {
                return Err(SnapError::Malformed("credential id out of interner range"));
            };
            let credentials = Observed::Credentials {
                service,
                username: CredId(username),
                password: CredId(password),
            };
            (credentials, rest)
        }
        _ => return Err(SnapError::Malformed("unknown observation tag")),
    };
    *bytes = rest;
    Ok(observed)
}

/// Everything one vantage point recorded, plus the interner its ids
/// resolve against.
///
/// Cloning a `Capture` shares the interner handle (ids stay valid in both
/// clones); the event table itself is copied.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Label of the vantage point that recorded these events.
    pub vantage: String,
    table: EventTable,
    interner: Rc<RefCell<Interner>>,
}

impl Default for Capture {
    fn default() -> Self {
        Capture::new("")
    }
}

impl Capture {
    /// An empty capture with its own fresh interner.
    pub fn new(vantage: impl Into<String>) -> Self {
        Capture {
            vantage: vantage.into(),
            table: EventTable::new(),
            interner: Interner::shared(),
        }
    }

    /// Swap in a shared interner (world-wide sharing: every listener
    /// records into the same id space, which the dataset build takes over
    /// whole).
    pub fn with_interner(mut self, interner: Rc<RefCell<Interner>>) -> Self {
        self.interner = interner;
        self
    }

    /// Handle to the interner this capture's ids resolve against.
    pub fn interner(&self) -> Rc<RefCell<Interner>> {
        Rc::clone(&self.interner)
    }

    /// Intern a payload blob into this capture's id space.
    pub fn intern_payload(&self, bytes: &[u8]) -> PayloadId {
        self.interner.borrow_mut().intern_payload(bytes)
    }

    /// Intern a credential string into this capture's id space.
    pub fn intern_cred(&self, s: &str) -> CredId {
        self.interner.borrow_mut().intern_cred(s)
    }

    /// Append one event.
    pub fn record(&mut self, e: ScanEvent) {
        self.table.push(e);
    }

    /// Drain everything recorded so far, leaving the capture empty but
    /// still live: the vantage label and the shared interner handle stay,
    /// so the listener could keep recording (and interning) into the same
    /// id space afterwards.
    ///
    /// The scenario build calls this once per capture after its last
    /// window and hands the tables to the dataset build, which frees each
    /// one as it appends it. Interned ids in the returned table resolve
    /// against [`Capture::interner`] exactly as before; draining moves
    /// rows, it never re-numbers anything.
    pub fn take_rows(&mut self) -> EventTable {
        std::mem::take(&mut self.table)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The columnar event store.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// Row `i` as a row view.
    pub fn event(&self, i: usize) -> ScanEvent {
        self.table.get(i)
    }

    /// Iterate all events in recording order.
    pub fn events(&self) -> impl Iterator<Item = ScanEvent> + '_ {
        self.table.iter()
    }

    /// Events whose destination is `ip`.
    pub fn events_for_ip(&self, ip: Ipv4Addr) -> impl Iterator<Item = ScanEvent> + '_ {
        let table = &self.table;
        table
            .dsts()
            .iter()
            .enumerate()
            .filter(move |&(_, &dst)| dst == ip)
            .map(move |(i, _)| table.get(i))
    }

    /// Events whose destination port is `port`.
    pub fn events_on_port(&self, port: u16) -> impl Iterator<Item = ScanEvent> + '_ {
        let table = &self.table;
        table
            .dst_ports()
            .iter()
            .enumerate()
            .filter(move |&(_, &p)| p == port)
            .map(move |(i, _)| table.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dst: Ipv4Addr, port: u16, observed: Observed) -> ScanEvent {
        ScanEvent {
            time: SimTime(0),
            src: Ipv4Addr::new(198, 51, 100, 7),
            src_asn: Asn(4134),
            dst,
            dst_port: port,
            observed,
        }
    }

    #[test]
    fn record_and_filter() {
        let mut cap = Capture::new("test");
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        cap.record(ev(a, 22, Observed::Syn));
        cap.record(ev(b, 23, Observed::Handshake));
        cap.record(ev(a, 80, Observed::Syn));
        assert_eq!(cap.len(), 3);
        assert_eq!(cap.events_for_ip(a).count(), 2);
        assert_eq!(cap.events_on_port(23).count(), 1);
        assert_eq!(cap.event(1).dst, b);
    }

    #[test]
    fn take_rows_drains_but_keeps_identity() {
        let shared = Interner::shared();
        let mut cap = Capture::new("hp").with_interner(Rc::clone(&shared));
        let p = cap.intern_payload(b"probe");
        cap.record(ev(Ipv4Addr::new(10, 0, 0, 1), 80, Observed::Payload(p)));
        let table = cap.take_rows();
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(0).observed, Observed::Payload(p));
        assert!(cap.is_empty());
        assert_eq!(cap.vantage, "hp");
        // The interner handle survives the drain: later records reuse ids.
        assert_eq!(cap.intern_payload(b"probe"), p);
        cap.record(ev(Ipv4Addr::new(10, 0, 0, 2), 23, Observed::Payload(p)));
        assert_eq!(cap.len(), 1);
        assert_eq!(shared.borrow().payload_count(), 1);
    }

    #[test]
    fn observed_payload_accessor() {
        let cap = Capture::new("test");
        let pid = cap.intern_payload(b"GET /");
        assert_eq!(Observed::Payload(pid).payload(), Some(pid));
        assert_eq!(Observed::Syn.payload(), None);
        assert_eq!(cap.interner().borrow().payload(pid), b"GET /");
    }

    #[test]
    fn table_round_trips_rows() {
        let mut t = EventTable::new();
        let e = ScanEvent {
            time: SimTime(42),
            src: Ipv4Addr::new(203, 0, 113, 5),
            src_asn: Asn(174),
            dst: Ipv4Addr::new(10, 1, 2, 3),
            dst_port: 2323,
            observed: Observed::Handshake,
        };
        t.push(e);
        assert_eq!(t.get(0), e);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![e]);
    }

    #[test]
    fn shared_interner_spans_captures() {
        let shared = Interner::shared();
        let a = Capture::new("a").with_interner(Rc::clone(&shared));
        let b = Capture::new("b").with_interner(Rc::clone(&shared));
        let pa = a.intern_payload(b"\x03probe");
        let pb = b.intern_payload(b"\x03probe");
        assert_eq!(pa, pb);
        assert_eq!(shared.borrow().payload_count(), 1);
    }

    /// An interner with `payloads` payloads and `creds` credentials.
    fn interner_of(payloads: u8, creds: u8) -> Interner {
        let mut interner = Interner::new();
        for i in 0..payloads {
            interner.intern_payload(&[i]);
        }
        for i in 0..creds {
            interner.intern_cred(&i.to_string());
        }
        interner
    }

    #[test]
    fn table_snapshot_round_trip() {
        let mut t = EventTable::new();
        t.push(ev(Ipv4Addr::new(10, 0, 0, 1), 22, Observed::Syn));
        t.push(ev(Ipv4Addr::new(10, 0, 0, 2), 23, Observed::Handshake));
        t.push(ev(
            Ipv4Addr::new(10, 0, 0, 3),
            80,
            Observed::Payload(PayloadId(4)),
        ));
        t.push(ev(
            Ipv4Addr::new(10, 0, 0, 4),
            2222,
            Observed::Credentials {
                service: LoginService::Ssh,
                username: CredId(1),
                password: CredId(9),
            },
        ));
        let mut w = SnapWriter::new();
        t.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = EventTable::snap_read(&mut r, &interner_of(5, 10)).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() {
            assert_eq!(back.get(i), t.get(i));
        }
        // One payload or credential fewer, and an id is out of range.
        for interner in [interner_of(4, 10), interner_of(5, 9)] {
            let err = EventTable::snap_read(&mut SnapReader::new(&bytes), &interner).unwrap_err();
            assert!(matches!(err, SnapError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn append_moves_rows_and_empties_the_source() {
        let mut a = EventTable::new();
        a.push(ev(Ipv4Addr::new(10, 0, 0, 1), 22, Observed::Syn));
        let mut b = EventTable::new();
        let payload = Observed::Payload(PayloadId(3));
        b.push(ev(Ipv4Addr::new(10, 0, 0, 2), 80, payload));
        b.push(ev(Ipv4Addr::new(10, 0, 0, 3), 23, Observed::Handshake));
        let rows: Vec<ScanEvent> = a.iter().chain(b.iter()).collect();
        a.append(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.iter().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn table_snapshot_rejects_unknown_tag() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(0); // time
        w.put_u32(0); // src
        w.put_u32(0); // asn
        w.put_u32(0); // dst
        w.put_u16(0); // port
        w.put_u8(9); // bogus observation tag
        let bytes = w.into_bytes();
        let err =
            EventTable::snap_read(&mut SnapReader::new(&bytes), &Interner::new()).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)));
    }

    #[test]
    fn table_snapshot_rejects_a_row_count_beyond_the_payload() {
        let mut t = EventTable::new();
        t.push(ev(Ipv4Addr::new(10, 0, 0, 1), 22, Observed::Syn));
        let mut w = SnapWriter::new();
        t.snap_write(&mut w);
        let mut bytes = w.into_bytes();
        // Rewrite the row count to remaining() + 1: the bytes after it.
        let remaining = bytes.len() - 8;
        bytes[..8].copy_from_slice(&(remaining as u64 + 1).to_le_bytes());
        let err =
            EventTable::snap_read(&mut SnapReader::new(&bytes), &Interner::new()).unwrap_err();
        assert_eq!(err, SnapError::Truncated);
    }
}
