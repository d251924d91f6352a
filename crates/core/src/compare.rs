//! The §3.3 group-comparison procedure, plus the §4.4 median filter.
//!
//! A comparison takes one characteristic's frequency map per group of
//! events (honeypots, regions, or networks — each map one
//! [`crate::query::Plan::char_freqs`] scan), builds the top-3 union
//! contingency table, runs chi-squared, applies Bonferroni correction for
//! the whole comparison family, and reports Cramér's V with its df-aware
//! magnitude.

use crate::axes;
use crate::dataset::ClassifiedEvent;
use cw_stats::topk::Freqs;
use cw_stats::{
    bonferroni_alpha, chi_squared_from_table, cramers_v, top_k_union_table, Chi2Result,
    ContingencyTable, EffectSize, TopKSpec,
};
use std::borrow::Borrow;

/// The comparable traffic characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CharKind {
    /// Top scanning ASes ("who").
    TopAs,
    /// Fraction of malicious traffic ("why").
    FracMalicious,
    /// Top attempted usernames ("what", login protocols).
    TopUsername,
    /// Top attempted passwords ("what", login protocols).
    TopPassword,
    /// Top normalized payloads ("what", payload protocols).
    TopPayload,
}

impl CharKind {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            CharKind::TopAs => "Top 3 AS",
            CharKind::FracMalicious => "Fraction Malicious",
            CharKind::TopUsername => "Top 3 Username",
            CharKind::TopPassword => "Top 3 Password",
            CharKind::TopPayload => "Top 3 Payloads",
        }
    }

    /// Extract this characteristic's frequency map from one group.
    ///
    /// When the group is definable as a plan, prefer
    /// [`crate::query::Plan::char_freqs`], which gathers the group in a
    /// fusable scan over the interned ID columns and resolves strings only
    /// after the scan.
    pub fn freqs(&self, events: &[ClassifiedEvent<'_>]) -> Freqs {
        match self {
            CharKind::TopAs => axes::as_freqs(events),
            CharKind::FracMalicious => axes::maliciousness_freqs(events),
            CharKind::TopUsername => axes::username_freqs(events),
            CharKind::TopPassword => axes::password_freqs(events),
            CharKind::TopPayload => axes::payload_freqs(events),
        }
    }

    /// Is this a top-3 characteristic (vs the 2-category maliciousness)?
    pub fn uses_top_k(&self) -> bool {
        !matches!(self, CharKind::FracMalicious)
    }
}

/// Outcome of one k-group comparison.
#[derive(Debug, Clone, Copy)]
pub struct GroupComparison {
    /// The chi-squared result.
    pub chi2: Chi2Result,
    /// Cramér's V with magnitude.
    pub effect: EffectSize,
    /// Significant at the Bonferroni-corrected level?
    pub significant: bool,
}

/// Build the contingency table for a characteristic across groups.
pub fn characteristic_table<M: Borrow<Freqs>>(
    kind: CharKind,
    group_freqs: &[M],
) -> ContingencyTable {
    if kind.uses_top_k() {
        top_k_union_table(group_freqs, TopKSpec::paper())
    } else {
        // Maliciousness: use both categories directly.
        let categories = vec!["malicious".to_string(), "not-malicious".to_string()];
        let counts = group_freqs
            .iter()
            .map(|g| {
                let g = g.borrow();
                categories
                    .iter()
                    .map(|c| *g.get(c.as_str()).unwrap_or(&0))
                    .collect()
            })
            .collect();
        ContingencyTable::new(categories, counts)
    }
}

/// Run one comparison: `family_size` is the number of simultaneous tests in
/// this analysis (Bonferroni `m`); `alpha` is the uncorrected level (0.05 in
/// the paper). Returns `None` when the table is degenerate (the paper's
/// "cannot be calculated" ×).
pub fn compare_freqs<M: Borrow<Freqs>>(
    kind: CharKind,
    group_freqs: &[M],
    alpha: f64,
    family_size: usize,
) -> Option<GroupComparison> {
    let table = characteristic_table(kind, group_freqs);
    let chi2 = chi_squared_from_table(&table)?;
    let effect = cramers_v(&chi2);
    let corrected = bonferroni_alpha(alpha, family_size.max(1));
    Some(GroupComparison {
        chi2,
        effect,
        significant: chi2.p_value < corrected,
    })
}

/// Null-model hook: split events into `k` equal-size groups by a random
/// label permutation and extract each group's frequencies for `kind`.
///
/// Under this relabeling the groups are exchangeable by construction — any
/// vantage signal is destroyed, only sampling noise remains — so a
/// comparison run on the result is a draw from the pipeline's *null*
/// distribution. The calibration harness (`cw-verify`) repeats this with
/// fresh permutations and checks the resulting p-values are approximately
/// uniform: the machinery must not manufacture significance from
/// exchangeable inputs.
///
/// Group sizes differ by at most one (event `i` of the shuffled order goes
/// to group `i % k`). The permutation is drawn from `rng`, so the caller
/// controls reproducibility.
pub fn permuted_label_freqs(
    kind: CharKind,
    events: &[ClassifiedEvent<'_>],
    k: usize,
    rng: &mut cw_netsim::rng::SimRng,
) -> Vec<Freqs> {
    assert!(k >= 2, "a comparison needs at least two groups");
    let mut order: Vec<usize> = (0..events.len()).collect();
    rng.shuffle(&mut order);
    let mut groups: Vec<Vec<ClassifiedEvent<'_>>> = vec![Vec::new(); k];
    for (pos, &idx) in order.iter().enumerate() {
        groups[pos % k].push(events[idx]);
    }
    groups.iter().map(|g| kind.freqs(g)).collect()
}

/// §4.4 median filtering: combine per-honeypot frequency maps into one
/// region-representative map by taking, per category, the median count
/// across the region's honeypots. This damps single-honeypot anomalies
/// (botnet latches, single-IP floods) when comparing *regions*.
///
/// A category missing from a map counts 0 there, a median of an even
/// number of maps averages the middle two counts, and a median that
/// rounds to 0 leaves its category out. One walk merges the maps' label
/// orders, so each category's counts are read off the maps' heads into
/// one reused buffer, and the output shares the input's labels.
pub fn median_freqs<M: Borrow<Freqs>>(per_honeypot: &[M]) -> Freqs {
    let mut heads: Vec<_> = per_honeypot
        .iter()
        .map(|m| m.borrow().iter().peekable())
        .collect();
    let mut counts: Vec<f64> = Vec::with_capacity(heads.len());
    let mut out = Vec::new();
    // The least label at any head is the next category in label order.
    while let Some(cat) = heads
        .iter_mut()
        .filter_map(|h| h.peek().map(|&(l, _)| l))
        .min()
    {
        counts.clear();
        counts.extend(
            heads
                .iter_mut()
                .map(|h| h.next_if(|&(l, _)| l == cat).map_or(0, |(_, &c)| c) as f64),
        );
        let med = cw_stats::descriptive::median_in_place(&mut counts).unwrap_or(0.0);
        let med = med.round() as u64;
        if med > 0 {
            out.push((cat.clone(), med));
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_stats::topk::Label;
    use proptest::prelude::*;

    /// The owned `median_freqs` the merging one replaced, kept as its
    /// reference: sort and dedup every label, then look each up in every
    /// map and take the median of a fresh count vector.
    fn owned_median(per_honeypot: &[Freqs]) -> Freqs {
        let mut categories: Vec<&Label> = per_honeypot.iter().flat_map(|m| m.keys()).collect();
        categories.sort();
        categories.dedup();
        let mut out = Freqs::new();
        for cat in categories {
            let counts: Vec<f64> = per_honeypot
                .iter()
                .map(|m| *m.get(cat).unwrap_or(&0) as f64)
                .collect();
            let med = cw_stats::descriptive::median(&counts).unwrap_or(0.0);
            let med = med.round() as u64;
            if med > 0 {
                out.insert(cat.clone(), med);
            }
        }
        out
    }

    proptest! {
        #[test]
        fn median_freqs_matches_the_owned_reference(
            groups in 1usize..=6,
            cells in prop::collection::vec(0u64..9, 48),
        ) {
            // Up to 8 labels per map: a cell of 0 leaves its label out of
            // that map, any other cell `c` holds count `c - 1`, so zero
            // counts, missing labels and half-way medians of an even
            // number of maps all occur.
            let maps: Vec<Freqs> = cells
                .chunks(8)
                .take(groups)
                .map(|row| {
                    let present = row.iter().enumerate().filter(|&(_, &c)| c > 0);
                    cw_stats::topk::frequency_map(present.map(|(i, &c)| (format!("AS{i}"), c - 1)))
                })
                .collect();
            let borrowed: Vec<&Freqs> = maps.iter().collect();
            prop_assert_eq!(median_freqs(&borrowed), owned_median(&maps));
        }
    }

    fn freqs(pairs: &[(&str, u64)]) -> Freqs {
        cw_stats::topk::frequency_map(pairs.iter().copied())
    }

    #[test]
    fn identical_groups_not_significant() {
        let g = freqs(&[("AS1", 100), ("AS2", 50), ("AS3", 25)]);
        let r = compare_freqs(CharKind::TopAs, &[g.clone(), g], 0.05, 1).unwrap();
        assert!(!r.significant);
        assert!(r.effect.phi < 0.01);
    }

    #[test]
    fn disjoint_groups_significant_with_large_effect() {
        let g1 = freqs(&[("AS1", 200), ("AS2", 100), ("AS3", 50)]);
        let g2 = freqs(&[("AS7", 200), ("AS8", 100), ("AS9", 50)]);
        let r = compare_freqs(CharKind::TopAs, &[g1, g2], 0.05, 10).unwrap();
        assert!(r.significant);
        assert_eq!(r.effect.magnitude, cw_stats::EffectMagnitude::Large);
    }

    #[test]
    fn bonferroni_family_size_matters() {
        // A borderline difference: significant alone, not after correcting
        // for a large family.
        let g1 = freqs(&[("AS1", 60), ("AS2", 40), ("AS3", 20)]);
        let g2 = freqs(&[("AS1", 40), ("AS2", 60), ("AS3", 20)]);
        let alone = compare_freqs(CharKind::TopAs, &[g1.clone(), g2.clone()], 0.05, 1).unwrap();
        let family = compare_freqs(CharKind::TopAs, &[g1, g2], 0.05, 100_000).unwrap();
        assert!(alone.significant);
        assert!(!family.significant);
    }

    #[test]
    fn frac_malicious_uses_two_categories() {
        let g1 = freqs(&[("malicious", 90), ("not-malicious", 10)]);
        let g2 = freqs(&[("malicious", 10), ("not-malicious", 90)]);
        let r = compare_freqs(CharKind::FracMalicious, &[g1, g2], 0.05, 1).unwrap();
        assert!(r.significant);
        assert_eq!(r.chi2.cols, 2);
    }

    #[test]
    fn empty_characteristic_cannot_be_calculated() {
        // Honeytrap vantages never observe credentials: × in the tables.
        let empty = Freqs::new();
        assert!(compare_freqs(CharKind::TopUsername, &[empty.clone(), empty], 0.05, 1).is_none());
    }

    #[test]
    fn median_filter_damps_single_honeypot_anomaly() {
        // Four honeypots; one is flooded by AS666 (the Axtel shape).
        let normal = freqs(&[("AS1", 50), ("AS2", 30)]);
        let flooded = freqs(&[("AS1", 50), ("AS2", 30), ("AS666", 5_000)]);
        let med = median_freqs(&[normal.clone(), normal.clone(), normal, flooded]);
        assert_eq!(med.get("AS1"), Some(&50));
        assert!(!med.contains_key("AS666"), "median must drop the flood");
    }

    #[test]
    fn median_filter_keeps_majority_signals() {
        let a = freqs(&[("AS1", 10)]);
        let b = freqs(&[("AS1", 20)]);
        let c = freqs(&[("AS1", 30)]);
        let med = median_freqs(&[a, b, c]);
        assert_eq!(med.get("AS1"), Some(&20));
    }

    #[test]
    fn char_labels() {
        assert_eq!(CharKind::TopAs.label(), "Top 3 AS");
        assert!(CharKind::TopAs.uses_top_k());
        assert!(!CharKind::FracMalicious.uses_top_k());
    }
}
