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
//! boundary documented in `docs/QUERY.md`. Each axis has one ID-counting
//! core, fed either by an event slice (the extractors below, and
//! [`CharKind::freqs`]) or by the admitted rows of a
//! [`crate::query::Plan::char_freqs`] scan, read straight off the ID
//! columns.

use crate::compare::CharKind;
use crate::dataset::{ClassifiedEvent, Dataset};
use cw_detection::Verdict;
use cw_honeypot::capture::Observed;
use cw_netsim::asn::Asn;
use cw_netsim::intern::{CredId, Interner, PayloadId};
use cw_netsim::rng::fnv1a;
use std::collections::BTreeMap;

/// Frequency of traffic per source AS ("who").
pub fn as_freqs(events: &[ClassifiedEvent<'_>]) -> BTreeMap<String, u64> {
    count_asns(events.iter().map(|e| e.event.src_asn))
}

/// Frequency of attempted usernames ("what", SSH/Telnet).
pub fn username_freqs(events: &[ClassifiedEvent<'_>]) -> BTreeMap<String, u64> {
    with_interner(events, |interner| {
        count_creds(
            events.iter().filter_map(|e| username(e.event.observed)),
            interner,
        )
    })
}

/// Frequency of attempted passwords ("what", SSH/Telnet).
pub fn password_freqs(events: &[ClassifiedEvent<'_>]) -> BTreeMap<String, u64> {
    with_interner(events, |interner| {
        count_creds(
            events.iter().filter_map(|e| password(e.event.observed)),
            interner,
        )
    })
}

/// Frequency of normalized payloads ("what", HTTP and friends).
///
/// Counting is keyed by [`PayloadId`]; each *distinct* payload is then
/// normalized per §3.3 (ephemeral Date/Host/Content-Length values removed)
/// and rendered once via [`payload_key`]. Distinct ids whose normalized
/// form collides fold into one category (their counts add), exactly as
/// per-event string keying grouped them.
pub fn payload_freqs(events: &[ClassifiedEvent<'_>]) -> BTreeMap<String, u64> {
    with_interner(events, |interner| {
        count_payloads(
            events.iter().filter_map(|e| e.event.observed.payload()),
            interner,
        )
    })
}

/// `kind`'s frequency map over dataset `rows`, counted straight off the
/// ID columns — the plan-side feed of the same per-axis cores
/// [`CharKind::freqs`] feeds from an event slice.
pub(crate) fn row_freqs(kind: CharKind, ds: &Dataset, rows: &[usize]) -> BTreeMap<String, u64> {
    let t = ds.table();
    let observed = || rows.iter().map(|&i| t.observed()[i]);
    match kind {
        CharKind::TopAs => count_asns(rows.iter().map(|&i| t.src_asns()[i])),
        CharKind::FracMalicious => {
            malicious_map(count_verdicts(rows.iter().map(|&i| ds.verdicts()[i])))
        }
        CharKind::TopUsername => count_creds(observed().filter_map(username), ds.interner()),
        CharKind::TopPassword => count_creds(observed().filter_map(password), ds.interner()),
        CharKind::TopPayload => {
            count_payloads(observed().filter_map(|o| o.payload()), ds.interner())
        }
    }
}

/// The interner of a non-empty event slice; an empty slice has no
/// categories.
fn with_interner(
    events: &[ClassifiedEvent<'_>],
    f: impl FnOnce(&Interner) -> BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    events
        .first()
        .map_or_else(BTreeMap::new, |e| f(e.interner()))
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

/// The "who" core: counts per AS number, labelled once per distinct AS.
fn count_asns(asns: impl Iterator<Item = Asn>) -> BTreeMap<String, u64> {
    tally(asns.map(|a| a.0))
        .into_iter()
        .map(|(asn, n)| (Asn(asn).to_string(), n))
        .collect()
}

/// The credential core: counts per [`CredId`]; strings resolve once per
/// distinct id. A `CredId` ↔ string mapping is bijective within one
/// interner, so the map has exactly one entry per distinct credential.
fn count_creds(ids: impl Iterator<Item = CredId>, interner: &Interner) -> BTreeMap<String, u64> {
    tally(ids)
        .into_iter()
        .map(|(id, n)| (interner.cred(id).to_string(), n))
        .collect()
}

/// The payload core: counts per [`PayloadId`], then one normalization and
/// key per distinct id; colliding keys add.
fn count_payloads(
    ids: impl Iterator<Item = PayloadId>,
    interner: &Interner,
) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for (id, n) in tally(ids) {
        let normalized = cw_protocols::http::normalize(interner.payload(id));
        *m.entry(payload_key(&normalized)).or_insert(0) += n;
    }
    m
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
pub fn maliciousness_freqs(events: &[ClassifiedEvent<'_>]) -> BTreeMap<String, u64> {
    malicious_map(maliciousness_counts(events))
}

fn malicious_map((attacker, scanner): (u64, u64)) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    m.insert("malicious".to_string(), attacker);
    m.insert("not-malicious".to_string(), scanner);
    m
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
