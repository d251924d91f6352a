//! Who / what / why extraction (§3.3).
//!
//! "Across vantage points, we use the chi-squared test to compare scanning
//! traffic using the following axes: who (i.e., which ASes are scanning),
//! what (i.e., what are the top usernames/passwords/payloads being
//! attempted), and why (i.e., the maliciousness of traffic)."
//!
//! Each extractor turns a set of classified events into a frequency map
//! keyed by a category label. Counting happens on interned ids (4-byte
//! keys, no string construction in the per-event loop); display strings —
//! including the §3.3 payload normalization (Date/Host/Content-Length
//! stripped) — are resolved once per *distinct* id when the final map is
//! assembled. These extractors sit on the render side of the id↔string
//! boundary documented in `docs/QUERY.md`. Every axis is counted by ID,
//! with one core for each step: `axis_id` picks the ID a row adds to an
//! axis, and `label_counts` turns an axis's ID counts into its labelled
//! map, a [`Freqs`] whose keys are shared [`Label`]s. An event slice
//! feeds them here (the extractors below, and [`CharKind::freqs`]), with
//! labels made fresh per call; a [`crate::query::Plan::char_freqs`] pass
//! feeds them the same IDs straight off the dataset's columns, counts
//! them while it scans, and takes every label from the dataset's memos
//! (`AxisLabels`), so a label is made once per distinct AS, credential
//! or payload per world and every map after that copies an `Arc`.

use crate::compare::CharKind;
use crate::dataset::ClassifiedEvent;
use cw_detection::Verdict;
use cw_honeypot::capture::Observed;
use cw_netsim::asn::Asn;
use cw_netsim::intern::{CredId, Interner, PayloadId};
use cw_netsim::rng::fnv1a;
use cw_stats::topk::{Freqs, Label};

/// Frequency of traffic per source AS ("who").
pub fn as_freqs(events: &[ClassifiedEvent<'_>]) -> Freqs {
    event_freqs(CharKind::TopAs, events)
}

/// Frequency of attempted usernames ("what", SSH/Telnet).
pub fn username_freqs(events: &[ClassifiedEvent<'_>]) -> Freqs {
    event_freqs(CharKind::TopUsername, events)
}

/// Frequency of attempted passwords ("what", SSH/Telnet).
pub fn password_freqs(events: &[ClassifiedEvent<'_>]) -> Freqs {
    event_freqs(CharKind::TopPassword, events)
}

/// Frequency of normalized payloads ("what", HTTP and friends).
///
/// Counting is keyed by [`PayloadId`]; each *distinct* payload is then
/// normalized per §3.3 (ephemeral Date/Host/Content-Length values removed)
/// and rendered once via [`payload_key`]. Distinct ids whose normalized
/// form collides fold into one category (their counts add), exactly as
/// per-event string keying grouped them.
pub fn payload_freqs(events: &[ClassifiedEvent<'_>]) -> Freqs {
    event_freqs(CharKind::TopPayload, events)
}

/// `kind`'s frequency map over an event slice: the axis IDs of its
/// events, tallied after one sort and labelled by [`label_counts`] with
/// fresh labels.
fn event_freqs(kind: CharKind, events: &[ClassifiedEvent<'_>]) -> Freqs {
    let ids = events
        .iter()
        .filter_map(|e| axis_id(kind, || e.event.src_asn, || e.verdict, || e.event.observed));
    let counts = tally(ids);
    // An empty slice has no interner, and no ID to resolve through one.
    let empty = Interner::new();
    let interner = events.first().map_or(&empty, |e| e.interner());
    label_counts(kind, counts, interner)
}

/// Where [`label_counts`] takes the label of an axis ID from. A
/// [`crate::dataset::Dataset`] serves each from a memo, so a label is
/// made once per distinct ID per world, from any thread; an
/// [`Interner`] makes a fresh one per call.
pub(crate) trait AxisLabels {
    /// An AS number's label, `AS<n>`.
    fn asn_label(&self, asn: u32) -> Label;
    /// A username's or password's label: the credential itself.
    fn cred_label(&self, id: CredId) -> Label;
    /// A payload's §3.3 category ([`payload_label`]).
    fn payload_label(&self, id: PayloadId) -> Label;
}

impl AxisLabels for Interner {
    fn asn_label(&self, asn: u32) -> Label {
        Asn(asn).to_string().into()
    }

    fn cred_label(&self, id: CredId) -> Label {
        self.cred(id).into()
    }

    fn payload_label(&self, id: PayloadId) -> Label {
        payload_label(self.payload(id)).into()
    }
}

/// The ID one row or event adds to `kind`'s counts, if any: its AS
/// number, its verdict ([`ATTACKER`] or [`SCANNER`]), its username or
/// password [`CredId`], or its [`PayloadId`]. Each closure reads one
/// column, and only the one `kind` needs is called. A row without
/// credentials adds nothing to the credential axes, and a row without a
/// payload nothing to the payload axis.
pub(crate) fn axis_id(
    kind: CharKind,
    asn: impl FnOnce() -> Asn,
    verdict: impl FnOnce() -> Verdict,
    observed: impl FnOnce() -> Observed,
) -> Option<u32> {
    match kind {
        CharKind::TopAs => Some(asn().0),
        CharKind::FracMalicious => Some(match verdict() {
            Verdict::Attacker => ATTACKER,
            Verdict::Scanner => SCANNER,
        }),
        CharKind::TopUsername => username(observed()).map(|id| id.0),
        CharKind::TopPassword => password(observed()).map(|id| id.0),
        CharKind::TopPayload => observed().payload().map(|id| id.0),
    }
}

/// The "why" axis ID of attacker traffic.
const ATTACKER: u32 = 0;
/// The "why" axis ID of scanner traffic.
const SCANNER: u32 = 1;

/// The labelling core: `kind`'s per-ID counts (from [`axis_id`], in any
/// order) → its frequency map. Each distinct ID takes its label from
/// `labels`: an AS as `AS<n>`, a credential as itself, a payload as its
/// §3.3 category. Distinct payloads whose labels collide fold into one
/// category, their counts added. The "why" axis always has both of its
/// categories.
pub(crate) fn label_counts(
    kind: CharKind,
    counts: impl IntoIterator<Item = (u32, u64)>,
    labels: &impl AxisLabels,
) -> Freqs {
    match kind {
        CharKind::TopAs => labelled(counts, |asn| labels.asn_label(asn)),
        CharKind::FracMalicious => {
            let (mut attacker, mut scanner) = (0, 0);
            for (id, n) in counts {
                match id {
                    ATTACKER => attacker += n,
                    _ => scanner += n,
                }
            }
            malicious_map((attacker, scanner))
        }
        CharKind::TopUsername | CharKind::TopPassword => {
            labelled(counts, |id| labels.cred_label(CredId(id)))
        }
        CharKind::TopPayload => labelled(counts, |id| labels.payload_label(PayloadId(id))),
    }
}

/// ID counts summed per label.
fn labelled(
    counts: impl IntoIterator<Item = (u32, u64)>,
    mut label: impl FnMut(u32) -> Label,
) -> Freqs {
    let mut m = Freqs::new();
    for (id, n) in counts {
        *m.entry(label(id)).or_insert(0) += n;
    }
    m
}

fn username(observed: Observed) -> Option<CredId> {
    match observed {
        Observed::Credentials { username, .. } => Some(username),
        _ => None,
    }
}

fn password(observed: Observed) -> Option<CredId> {
    match observed {
        Observed::Credentials { password, .. } => Some(password),
        _ => None,
    }
}

/// Each distinct key with its count, in key order: one sort, then runs.
fn tally<K: Ord + Copy>(keys: impl Iterator<Item = K>) -> Vec<(K, u64)> {
    let mut keys: Vec<K> = keys.collect();
    keys.sort_unstable();
    let mut out: Vec<(K, u64)> = Vec::new();
    for k in keys {
        match out.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

/// A payload's §3.3 category: normalized, then keyed by [`payload_key`].
pub(crate) fn payload_label(bytes: &[u8]) -> String {
    payload_key(&cw_protocols::http::normalize(bytes))
}

/// Render a normalized payload as a stable, human-readable category key.
pub fn payload_key(normalized: &[u8]) -> String {
    let digest = fnv1a(normalized);
    let prefix: String = normalized
        .iter()
        .take(24)
        .map(|&b| {
            if (0x20..0x7F).contains(&b) {
                b as char
            } else {
                '.'
            }
        })
        .collect();
    format!("{digest:016x}:{prefix}")
}

/// Malicious/benign event counts ("why"): `(attacker, scanner)`.
pub fn maliciousness_counts(events: &[ClassifiedEvent<'_>]) -> (u64, u64) {
    count_verdicts(events.iter().map(|e| e.verdict))
}

/// The "why" core.
fn count_verdicts(verdicts: impl Iterator<Item = Verdict>) -> (u64, u64) {
    let mut attacker = 0;
    let mut scanner = 0;
    for v in verdicts {
        match v {
            Verdict::Attacker => attacker += 1,
            Verdict::Scanner => scanner += 1,
        }
    }
    (attacker, scanner)
}

/// The "why" axis as a two-category frequency map for chi-squared testing.
pub fn maliciousness_freqs(events: &[ClassifiedEvent<'_>]) -> Freqs {
    event_freqs(CharKind::FracMalicious, events)
}

fn malicious_map((attacker, scanner): (u64, u64)) -> Freqs {
    Freqs::from([
        ("malicious".into(), attacker),
        ("not-malicious".into(), scanner),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::capture::{Capture, ScanEvent};
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::LoginService;
    use cw_netsim::time::SimTime;
    use std::net::Ipv4Addr;

    /// Test fixture: a capture plus the reference (unmemoized)
    /// classification, yielding `ClassifiedEvent`s like a dataset would.
    struct Fixture {
        cap: Capture,
        classified: Vec<(ScanEvent, Verdict, Option<cw_protocols::ProtocolId>)>,
    }

    enum Raw {
        Handshake,
        Payload(Vec<u8>),
        Creds(&'static str, &'static str),
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                cap: Capture::new("axes-test"),
                classified: Vec::new(),
            }
        }

        fn push(&mut self, asn: u32, raw: Raw, port: u16) {
            let observed = match raw {
                Raw::Handshake => Observed::Handshake,
                Raw::Payload(p) => Observed::Payload(self.cap.intern_payload(&p)),
                Raw::Creds(u, p) => Observed::Credentials {
                    service: LoginService::Ssh,
                    username: self.cap.intern_cred(u),
                    password: self.cap.intern_cred(p),
                },
            };
            let e = ScanEvent {
                time: SimTime(0),
                src: Ipv4Addr::new(100, 0, 0, 1),
                src_asn: Asn(asn),
                dst: Ipv4Addr::new(20, 0, 0, 1),
                dst_port: port,
                observed,
            };
            let interner = self.cap.interner();
            let (verdict, fingerprint) = crate::dataset::classify_event(
                &e,
                &interner.borrow(),
                cw_detection::RuleSet::builtin_cached(),
            );
            self.classified.push((e, verdict, fingerprint));
        }

        fn events<'a>(
            &'a self,
            interner: &'a cw_netsim::intern::Interner,
        ) -> Vec<ClassifiedEvent<'a>> {
            self.classified
                .iter()
                .map(|&(event, verdict, fingerprint)| {
                    ClassifiedEvent::new(event, verdict, fingerprint, interner)
                })
                .collect()
        }
    }

    /// Run `f` over the fixture's classified events.
    fn with_events<R>(fx: &Fixture, f: impl FnOnce(&[ClassifiedEvent<'_>]) -> R) -> R {
        let interner = fx.cap.interner();
        let interner = interner.borrow();
        f(&fx.events(&interner))
    }

    #[test]
    fn as_axis_counts_traffic() {
        let mut fx = Fixture::new();
        fx.push(4134, Raw::Handshake, 22);
        fx.push(4134, Raw::Handshake, 22);
        fx.push(174, Raw::Handshake, 22);
        with_events(&fx, |evs| {
            let m = as_freqs(evs);
            assert_eq!(m.get("AS4134"), Some(&2));
            assert_eq!(m.get("AS174"), Some(&1));
        });
    }

    #[test]
    fn credential_axes() {
        let mut fx = Fixture::new();
        fx.push(1, Raw::Creds("root", "123456"), 22);
        fx.push(1, Raw::Creds("root", "password"), 22);
        fx.push(1, Raw::Handshake, 22);
        with_events(&fx, |evs| {
            assert_eq!(username_freqs(evs).get("root"), Some(&2));
            assert_eq!(password_freqs(evs).len(), 2);
        });
    }

    #[test]
    fn payload_axis_normalizes_ephemeral_headers() {
        let a = cw_protocols::HttpRequest::new("GET", "/")
            .header("Host", "20.1.1.1")
            .to_bytes();
        let b = cw_protocols::HttpRequest::new("GET", "/")
            .header("Host", "20.9.9.9")
            .to_bytes();
        let mut fx = Fixture::new();
        fx.push(1, Raw::Payload(a), 80);
        fx.push(1, Raw::Payload(b), 80);
        with_events(&fx, |evs| {
            // The two payloads intern as *different* ids but normalize to
            // one category — the render step must fold their counts.
            let m = payload_freqs(evs);
            assert_eq!(m.len(), 1, "hosts must normalize away: {m:?}");
            assert_eq!(*m.values().next().unwrap(), 2);
        });
    }

    #[test]
    fn maliciousness_axis() {
        let mut fx = Fixture::new();
        fx.push(1, Raw::Payload(cw_scanners::exploits::log4shell("x")), 80);
        fx.push(1, Raw::Payload(cw_scanners::exploits::benign_get("ua")), 80);
        fx.push(1, Raw::Handshake, 80);
        with_events(&fx, |evs| {
            assert_eq!(maliciousness_counts(evs), (1, 2));
            let m = maliciousness_freqs(evs);
            assert_eq!(m.get("malicious"), Some(&1));
            assert_eq!(m.get("not-malicious"), Some(&2));
        });
    }

    #[test]
    fn payload_key_is_stable_and_readable() {
        let k1 = payload_key(b"GET / HTTP/1.1\r\nabc");
        let k2 = payload_key(b"GET / HTTP/1.1\r\nabc");
        assert_eq!(k1, k2);
        assert!(k1.contains("GET / HTTP/1.1"));
        assert_ne!(payload_key(b"x"), payload_key(b"y"));
    }
}
