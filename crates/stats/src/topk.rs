//! The paper's top-k characteristic methodology (§3.3).
//!
//! "We always choose the most popular 3 values for each characteristic
//! (e.g., top 3 payloads, top 3 scanning ASes) for each vantage point and
//! perform the chi-squared test on the union of all unique top 3
//! characteristics across vantage points."
//!
//! This module turns per-group frequency maps into that union contingency
//! table. Ordering is made deterministic by breaking count ties on the
//! category label.

use crate::contingency::ContingencyTable;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A category label: shared, so a map copies it for the price of a
/// reference count. It orders and compares as its `str`, so maps keyed by
/// labels iterate, break ties and print exactly as `String`-keyed ones.
pub type Label = Arc<str>;

/// One group's frequency map: category label → count.
pub type Freqs = BTreeMap<Label, u64>;

/// Configuration for top-k union table construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKSpec {
    /// How many top categories to take per group (the paper uses 3).
    pub k: usize,
}

impl Default for TopKSpec {
    fn default() -> Self {
        TopKSpec { k: 3 }
    }
}

impl TopKSpec {
    /// The paper's top-3 configuration.
    pub fn paper() -> Self {
        Self::default()
    }
}

/// The top-`k` categories of a frequency map, by descending count, with
/// deterministic lexicographic tie-breaking. Zero counts never rank.
///
/// One pass keeps the best `k` so far: the map iterates in label order,
/// so an entry tied with a kept one ranks after it, as a sort by
/// (count descending, label) would place it.
pub fn top_k_of(freqs: &Freqs, k: usize) -> Vec<&str> {
    let mut best: Vec<(&str, u64)> = Vec::with_capacity(k);
    for (label, &count) in freqs {
        if count == 0 || (best.len() == k && best.last().is_none_or(|&(_, c)| count <= c)) {
            continue;
        }
        if best.len() == k {
            best.pop();
        }
        let at = best.partition_point(|&(_, c)| c >= count);
        best.insert(at, (label, count));
    }
    best.into_iter().map(|(label, _)| label).collect()
}

/// Build the §3.3 union contingency table from per-group frequency maps.
///
/// Each group contributes its top-k categories; the union of those sets
/// becomes the columns, and each group's row holds its observed counts for
/// every union category (including categories that entered the union via a
/// *different* group — that asymmetry is what the test detects).
/// # Example
///
/// ```
/// use cw_stats::topk::{frequency_map, top_k_union_table, TopKSpec};
///
/// let honeypot_a = frequency_map(vec![("AS1", 90u64), ("AS2", 50), ("AS3", 10)]);
/// let honeypot_b = frequency_map(vec![("AS9", 80u64), ("AS2", 60), ("AS1", 2)]);
/// let table = top_k_union_table(&[honeypot_a, honeypot_b], TopKSpec::paper());
/// // The union holds both honeypots' top-3 sets.
/// assert!(table.categories.contains(&"AS9".to_string()));
/// assert!(table.categories.contains(&"AS3".to_string()));
/// ```
pub fn top_k_union_table<M: Borrow<Freqs>>(groups: &[M], spec: TopKSpec) -> ContingencyTable {
    let mut union: Vec<&str> = Vec::new();
    for g in groups {
        for cat in top_k_of(g.borrow(), spec.k) {
            if !union.contains(&cat) {
                union.push(cat);
            }
        }
    }
    union.sort();
    let counts: Vec<Vec<u64>> = groups
        .iter()
        .map(|g| {
            let g = g.borrow();
            union.iter().map(|&c| *g.get(c).unwrap_or(&0)).collect()
        })
        .collect();
    ContingencyTable::new(union.iter().map(|c| c.to_string()).collect(), counts)
}

/// Convenience: collect an iterator of `(category, weight)` samples into the
/// frequency-map shape expected by [`top_k_union_table`].
pub fn frequency_map<I, S>(items: I) -> Freqs
where
    I: IntoIterator<Item = (S, u64)>,
    S: Into<Label>,
{
    let mut map = Freqs::new();
    for (cat, w) in items {
        *map.entry(cat.into()).or_insert(0) += w;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based `top_k_of` the one-pass version replaced, kept as its
    /// reference: every positive entry sorted by (count descending, label),
    /// then the first `k`.
    fn sorted_top_k(freqs: &Freqs, k: usize) -> Vec<&str> {
        let mut entries: Vec<(&Label, &u64)> = freqs.iter().filter(|(_, &c)| c > 0).collect();
        entries.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        entries.into_iter().take(k).map(|(s, _)| &**s).collect()
    }

    proptest! {
        #[test]
        fn one_pass_top_k_matches_the_sort(
            names in prop::collection::vec(0u32..16, 12),
            counts in prop::collection::vec(0u64..4, 0..=12),
            k in 0usize..=5,
        ) {
            // Counts below 4 make zero counts and ties common; repeated
            // names fold their counts.
            let freqs = frequency_map(
                counts.iter().zip(&names).map(|(&c, n)| (format!("L{n}"), c)),
            );
            prop_assert_eq!(top_k_of(&freqs, k), sorted_top_k(&freqs, k));
        }
    }

    fn freqs(pairs: &[(&str, u64)]) -> Freqs {
        pairs.iter().map(|&(s, c)| (s.into(), c)).collect()
    }

    #[test]
    fn top_k_orders_by_count_then_label() {
        let f = freqs(&[("b", 10), ("a", 10), ("c", 5), ("d", 99)]);
        assert_eq!(top_k_of(&f, 3), vec!["d", "a", "b"]);
    }

    #[test]
    fn top_k_skips_zero_counts() {
        let f = freqs(&[("a", 0), ("b", 1)]);
        assert_eq!(top_k_of(&f, 3), vec!["b"]);
    }

    #[test]
    fn union_includes_other_groups_tops() {
        let g1 = freqs(&[("as1", 100), ("as2", 50), ("as3", 30), ("as4", 1)]);
        let g2 = freqs(&[("as9", 80), ("as2", 60), ("as8", 40), ("as1", 2)]);
        let t = top_k_union_table(&[g1, g2], TopKSpec::paper());
        // Union of {as1,as2,as3} and {as9,as2,as8} = 5 categories, sorted.
        assert_eq!(t.categories, vec!["as1", "as2", "as3", "as8", "as9"]);
        // Row 1 includes its count for as9 (0) and as8 (0).
        assert_eq!(t.counts[0], vec![100, 50, 30, 0, 0]);
        // Row 2 includes its (small) count for as1 even though as1 is not in
        // its own top 3 — the cross-group asymmetry the test relies on.
        assert_eq!(t.counts[1], vec![2, 60, 0, 40, 80]);
    }

    #[test]
    fn identical_groups_give_identical_rows() {
        let g = freqs(&[("a", 5), ("b", 3), ("c", 2)]);
        let t = top_k_union_table(&[g.clone(), g], TopKSpec::paper());
        assert_eq!(t.counts[0], t.counts[1]);
    }

    #[test]
    fn frequency_map_accumulates() {
        let m = frequency_map(vec![("x", 1u64), ("y", 2), ("x", 3)]);
        assert_eq!(m.get("x"), Some(&4));
        assert_eq!(m.get("y"), Some(&2));
    }

    #[test]
    fn empty_groups_give_empty_table() {
        let t = top_k_union_table(&[Freqs::new(), Freqs::new()], TopKSpec::paper());
        assert_eq!(t.n_cols(), 0);
        assert!(!t.is_testable());
    }

    #[test]
    fn k_one_restricts_union() {
        let g1 = freqs(&[("a", 10), ("b", 9)]);
        let g2 = freqs(&[("c", 10), ("b", 9)]);
        let t = top_k_union_table(&[g1, g2], TopKSpec { k: 1 });
        assert_eq!(t.categories, vec!["a", "c"]);
    }
}
