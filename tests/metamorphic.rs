//! Metamorphic invariants over the dataset → comparison pipeline (tier 2
//! of docs/TESTING.md), driven by the reusable helpers and strategies in
//! `cw_verify::metamorphic`.
//!
//! None of these tests knows a "right answer"; each knows a transformation
//! the answer must survive: event-order permutation, thread-count changes,
//! subsampling, and no-op map edits.

use cloud_watching::core::compare::{compare_freqs, CharKind};
use cloud_watching::core::fleet;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::netsim::rng::fork_seed;
use cloud_watching::scanners::population::ScenarioYear;
use cloud_watching::stats::topk::Freqs;
use cw_verify::metamorphic::{
    comparison_fingerprint, counts_subsumed, csv_bytes, freqs_at, shuffled, FreqGroups, FreqMap,
};
use proptest::prelude::*;

const KINDS: [CharKind; 5] = [
    CharKind::TopAs,
    CharKind::FracMalicious,
    CharKind::TopUsername,
    CharKind::TopPassword,
    CharKind::TopPayload,
];

#[test]
fn event_order_permutation_leaves_every_comparison_bit_identical() {
    let s = Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(41)
            .with_scale(0.02),
    );
    let events: Vec<_> = s.dataset.events().collect();
    // Two groups by index parity — arbitrary but fixed labels; the
    // transformation under test is the *order* of events within a group.
    let g1: Vec<usize> = (0..events.len()).step_by(2).collect();
    let g2: Vec<usize> = (1..events.len()).step_by(2).collect();
    for (k, kind) in KINDS.into_iter().enumerate() {
        let base = [freqs_at(kind, &events, &g1), freqs_at(kind, &events, &g2)];
        let perm = [
            freqs_at(kind, &events, &shuffled(&g1, 1000 + k as u64)),
            freqs_at(kind, &events, &shuffled(&g2, 2000 + k as u64)),
        ];
        let a = compare_freqs(kind, &base, 0.05, 5);
        let b = compare_freqs(kind, &perm, 0.05, 5);
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(
                comparison_fingerprint(&a),
                comparison_fingerprint(&b),
                "{kind:?} changed under event-order permutation"
            ),
            _ => panic!("{kind:?}: comparability changed under permutation"),
        }
    }
}

#[test]
fn event_prefix_counts_are_subsumed_and_top_k_is_monotone() {
    let s = Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(42)
            .with_scale(0.02),
    );
    let events: Vec<_> = s.dataset.events().collect();
    let all: Vec<usize> = (0..events.len()).collect();
    for kind in KINDS {
        let full = freqs_at(kind, &events, &all);
        let top_full = top3_total(&full);
        let mut prev_top = 0u64;
        for frac in [4usize, 2, 1] {
            let prefix = &all[..events.len() / frac];
            let sub = freqs_at(kind, &events, prefix);
            assert!(
                counts_subsumed(&sub, &full),
                "{kind:?}: a prefix invented or inflated a category"
            );
            // Growing the prefix can only grow the top-3 mass.
            let top_sub = top3_total(&sub);
            assert!(
                top_sub >= prev_top,
                "{kind:?}: top-3 mass shrank as the sample grew"
            );
            prev_top = top_sub;
            assert!(top_sub <= top_full);
        }
    }
}

/// Total count mass of a map's top-3 categories.
fn top3_total(freqs: &Freqs) -> u64 {
    cloud_watching::stats::topk::top_k_of(freqs, 3)
        .iter()
        .map(|&cat| freqs[cat])
        .sum()
}

/// Three seed-split worlds built on the fleet export the same CSV bytes,
/// world by world, at every worker-thread count.
#[test]
fn fleet_thread_count_is_byte_identical() {
    let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.012);
    let configs: Vec<ScenarioConfig> = (0..3).map(|i| base.with_seed(fork_seed(43, i))).collect();
    let csvs = |threads| {
        fleet::map(configs.clone(), threads, |_, c| {
            csv_bytes(&Scenario::run(*c).dataset)
        })
    };
    let serial = csvs(1);
    assert!(serial[0] != serial[1], "forked seeds build distinct worlds");
    for threads in [2, 3, 8] {
        assert!(
            serial == csvs(threads),
            "thread count {threads} changed a world's CSV bytes"
        );
    }
}

proptest! {
    // Categories with zero counts are representational noise: the top-k
    // union drops them, so inserting any number of them into any group
    // must leave the comparison bit-identical.
    #[test]
    fn zero_count_categories_are_invisible(groups in FreqGroups::default()) {
        let padded: Vec<Freqs> = groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut g = g.clone();
                g.insert(format!("ghost{i}").into(), 0);
                g.insert("ghost-shared".into(), 0);
                g
            })
            .collect();
        let a = compare_freqs(CharKind::TopAs, &groups, 0.05, 5);
        let b = compare_freqs(CharKind::TopAs, &padded, 0.05, 5);
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert_eq!(
                comparison_fingerprint(&a),
                comparison_fingerprint(&b)
            ),
            _ => prop_assert!(false, "comparability changed under zero-count padding"),
        }
    }

    // Scaling every count by the same factor is a pure sample-size change:
    // the effect size must be preserved (to float tolerance) and the
    // p-value can only move toward significance, never away.
    #[test]
    fn uniform_count_scaling_preserves_effect_and_tightens_p(groups in FreqGroups::default()) {
        let scaled: Vec<Freqs> = groups
            .iter()
            .map(|g| g.iter().map(|(k, &v)| (k.clone(), v * 4)).collect())
            .collect();
        let a = compare_freqs(CharKind::TopAs, &groups, 0.05, 5);
        let b = compare_freqs(CharKind::TopAs, &scaled, 0.05, 5);
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert!((a.effect.phi - b.effect.phi).abs() < 1e-9,
                    "V changed under uniform scaling: {} vs {}", a.effect.phi, b.effect.phi);
                prop_assert!(b.chi2.p_value <= a.chi2.p_value + 1e-12,
                    "p grew with sample size: {} -> {}", a.chi2.p_value, b.chi2.p_value);
            }
            _ => prop_assert!(false, "comparability changed under uniform scaling"),
        }
    }

    // The subsumption predicate itself: any per-category halving is a
    // valid subsample shape, and subsumption survives map-level noise.
    #[test]
    fn counts_subsumed_closed_under_halving(m in FreqMap::default()) {
        let half: Freqs = m.iter().map(|(k, &v)| (k.clone(), v / 2)).collect();
        prop_assert!(counts_subsumed(&half, &m));
        prop_assert!(counts_subsumed(&m, &m));
    }
}
