//! Interner invariants and the refactor equivalence gate.
//!
//! The interner's contract is that IDs are a pure function of the
//! *first-occurrence order* of distinct values — never of how many times a
//! value is re-interned or of hash-map iteration order. The equivalence
//! gate re-derives every ID-keyed analysis axis with a naive per-event
//! string-resolving reference and demands identical frequency maps.

use cloud_watching::core::axes;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::honeypot::capture::Observed;
use cloud_watching::netsim::intern::Interner;
use cloud_watching::scanners::population::ScenarioYear;
use cloud_watching::stats::topk::Freqs;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every interned value resolves back to exactly the bytes that went in.
    #[test]
    fn payload_round_trip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..32,
        )
    ) {
        let mut interner = Interner::new();
        let ids: Vec<_> = payloads.iter().map(|p| interner.intern_payload(p)).collect();
        for (p, id) in payloads.iter().zip(&ids) {
            prop_assert_eq!(interner.payload(*id), p.as_slice());
        }
        // Equal bytes, equal id; distinct bytes, distinct id.
        for (i, a) in payloads.iter().enumerate() {
            for (j, b) in payloads.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], a == b);
            }
        }
    }

    /// Same for credential strings.
    #[test]
    fn cred_round_trip(
        creds in proptest::collection::vec("[ -~]{0,24}", 1..32)
    ) {
        let mut interner = Interner::new();
        let ids: Vec<_> = creds.iter().map(|c| interner.intern_cred(c)).collect();
        for (c, id) in creds.iter().zip(&ids) {
            prop_assert_eq!(interner.cred(*id), c.as_str());
        }
    }

    /// IDs depend only on the first-occurrence order of distinct values:
    /// splicing extra duplicate inserts anywhere into the stream never
    /// perturbs any ID.
    #[test]
    fn duplicate_inserts_never_perturb_ids(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..16),
            1..16,
        ),
        dup_positions in proptest::collection::vec(any::<u16>(), 0..32),
        dup_picks in proptest::collection::vec(any::<u16>(), 0..32),
    ) {
        let mut clean = Interner::new();
        let clean_ids: Vec<_> = payloads.iter().map(|p| clean.intern_payload(p)).collect();

        // Replay the same stream with duplicates of already-seen values
        // spliced in front of each original insert.
        let mut noisy = Interner::new();
        let mut dups = dup_positions.iter().zip(dup_picks.iter());
        for (i, p) in payloads.iter().enumerate() {
            if let Some((pos, pick)) = dups.next() {
                if i > 0 && *pos as usize % payloads.len() <= i {
                    let seen = &payloads[*pick as usize % i.max(1)];
                    noisy.intern_payload(seen);
                }
            }
            let id = noisy.intern_payload(p);
            prop_assert_eq!(id, clean_ids[i]);
        }
        prop_assert_eq!(clean.payload_count(), noisy.payload_count());
    }

    /// Append-only: interning new values never invalidates old IDs.
    #[test]
    fn appends_never_move_existing_ids(
        first in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..8),
        second in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..8),
    ) {
        let mut interner = Interner::new();
        let ids: Vec<_> = first.iter().map(|p| interner.intern_payload(p)).collect();
        let snapshot: Vec<Vec<u8>> = ids.iter().map(|&id| interner.payload(id).to_vec()).collect();
        for p in &second {
            interner.intern_payload(p);
        }
        for (id, bytes) in ids.iter().zip(&snapshot) {
            prop_assert_eq!(interner.payload(*id), bytes.as_slice());
        }
    }
}

/// The refactor equivalence gate: ID-keyed counting in `axes` must produce
/// byte-identical frequency maps to a naive reference that resolves every
/// event's strings individually.
#[test]
fn id_keyed_axes_match_per_event_string_reference() {
    let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(11));
    let events: Vec<_> = s.dataset.events().collect();
    let interner = s.dataset.interner();

    // Reference: resolve strings per event, count in a BTreeMap.
    let mut ref_as = Freqs::new();
    let mut ref_user = Freqs::new();
    let mut ref_pass = Freqs::new();
    let mut ref_payload = Freqs::new();
    for e in &events {
        *ref_as
            .entry(e.event.src_asn.to_string().into())
            .or_insert(0) += 1;
        match e.event.observed {
            Observed::Credentials {
                username, password, ..
            } => {
                *ref_user.entry(interner.cred(username).into()).or_insert(0) += 1;
                *ref_pass.entry(interner.cred(password).into()).or_insert(0) += 1;
            }
            Observed::Payload(p) => {
                let normalized = cloud_watching::protocols::http::normalize(interner.payload(p));
                *ref_payload
                    .entry(axes::payload_key(&normalized).into())
                    .or_insert(0) += 1;
            }
            _ => {}
        }
    }

    assert_eq!(axes::as_freqs(&events), ref_as);
    assert_eq!(axes::username_freqs(&events), ref_user);
    assert_eq!(axes::password_freqs(&events), ref_pass);
    assert_eq!(axes::payload_freqs(&events), ref_payload);
    assert!(!ref_as.is_empty() && !ref_user.is_empty() && !ref_payload.is_empty());
}

/// The memo path and the unmemoized reference classifier agree on every
/// event of a real scenario.
#[test]
fn memoized_classification_matches_reference_on_scenario() {
    let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(5));
    let rules = cloud_watching::detection::RuleSet::builtin_cached();
    let interner = s.dataset.interner();
    for e in s.dataset.events() {
        let (verdict, fingerprint) =
            cloud_watching::core::dataset::classify_event(&e.event, interner, rules);
        assert_eq!(e.verdict, verdict);
        assert_eq!(e.fingerprint, fingerprint);
    }
}
