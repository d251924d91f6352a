//! Metamorphic invariants over the dataset → comparison pipeline, plus the
//! reusable proptest strategies the workspace test layer drives them with.
//!
//! A metamorphic test does not know the *right* answer — it knows how the
//! answer must (not) change under a transformation of the input:
//!
//! - **Event-order permutation invariance** — every §3.3 characteristic is
//!   a frequency map, so shuffling event order must leave each comparison
//!   bit-identical ([`shuffled`], [`comparison_fingerprint`]).
//! - **Subsample monotonicity** — an event-prefix's counts are dominated
//!   by the full counts, category by category ([`counts_subsumed`]).
//! - **Thread-count identity** — the fleet contract: worlds built at
//!   `threads = 1` and `threads = N` export the same bytes ([`csv_bytes`]).

use cw_core::compare::{CharKind, GroupComparison};
use cw_core::dataset::{ClassifiedEvent, Dataset};
use cw_netsim::rng::SimRng;
use cw_stats::topk::Freqs;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Deterministically shuffle a copy of `items` (Fisher–Yates under
/// [`SimRng`]). Seed 0 is valid; equal seeds give equal permutations.
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    SimRng::seed_from_u64(seed).shuffle(&mut out);
    out
}

/// A comparison's identity as raw bits, so "bit-identical outcome" is a
/// plain `==` (f64 `PartialEq` would treat `-0.0 == 0.0` and NaN oddly;
/// bits are exact).
pub fn comparison_fingerprint(c: &GroupComparison) -> (u64, usize, u64, u64, bool) {
    (
        c.chi2.statistic.to_bits(),
        c.chi2.df,
        c.chi2.p_value.to_bits(),
        c.effect.phi.to_bits(),
        c.significant,
    )
}

/// Extract a characteristic's frequency map from an event subset given by
/// indices — the order of `idx` is the "event order" under test.
pub fn freqs_at(kind: CharKind, events: &[ClassifiedEvent<'_>], idx: &[usize]) -> Freqs {
    let subset: Vec<ClassifiedEvent<'_>> = idx.iter().map(|&i| events[i]).collect();
    kind.freqs(&subset)
}

/// Does `sub` count at most what `full` counts, category by category?
/// (The subsample-monotonicity invariant: removing events can only lower
/// or remove counts, never raise them or invent categories.)
pub fn counts_subsumed(sub: &Freqs, full: &Freqs) -> bool {
    sub.iter()
        .all(|(cat, &c)| full.get(cat).copied().unwrap_or(0) >= c)
}

/// A dataset's CSV export bytes — the byte-identity witness used by the
/// thread-count invariant.
pub fn csv_bytes(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_csv(&mut out).expect("in-memory CSV write");
    out
}

/// Strategy for one frequency map: up to `max_categories` categories drawn
/// from a fixed alphabet (`cat0`…), with counts in `0..max_count`. Zero
/// counts are kept — the pipeline must treat "category with count 0" and
/// "category absent" identically, and maps that only differ that way are
/// a productive corner.
#[derive(Debug, Clone, Copy)]
pub struct FreqMap {
    /// Largest number of distinct categories per map.
    pub max_categories: usize,
    /// Exclusive upper bound on each category count.
    pub max_count: u64,
}

impl Default for FreqMap {
    fn default() -> Self {
        FreqMap {
            max_categories: 8,
            max_count: 400,
        }
    }
}

impl Strategy for FreqMap {
    type Value = Freqs;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let n = 1 + rng.below(self.max_categories as u64) as usize;
        let mut out = Freqs::new();
        for _ in 0..n {
            let cat = format!("cat{}", rng.below(self.max_categories as u64));
            let count = rng.below(self.max_count);
            out.insert(cat.into(), count);
        }
        out
    }
}

/// Strategy for `2..=max_groups` frequency maps over a shared category
/// alphabet — the input shape of every §3.3 group comparison.
#[derive(Debug, Clone, Copy)]
pub struct FreqGroups {
    /// Per-map shape.
    pub map: FreqMap,
    /// Largest number of groups (at least 2 are always generated).
    pub max_groups: usize,
}

impl Default for FreqGroups {
    fn default() -> Self {
        FreqGroups {
            map: FreqMap::default(),
            max_groups: 4,
        }
    }
}

impl Strategy for FreqGroups {
    type Value = Vec<Freqs>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let k = 2 + rng.below((self.max_groups - 1) as u64) as usize;
        (0..k).map(|_| self.map.sample(rng)).collect()
    }
}

/// Strategy for an index permutation of `0..n` with `n` in `lo..hi` —
/// pairs a length with a shuffle seed so event-order tests can reorder
/// any collection deterministically.
#[derive(Debug, Clone, Copy)]
pub struct Permutation {
    /// Smallest permuted length.
    pub lo: usize,
    /// Exclusive largest permuted length.
    pub hi: usize,
}

impl Strategy for Permutation {
    type Value = Vec<usize>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
        let idx: Vec<usize> = (0..n).collect();
        shuffled(&idx, rng.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_core::compare::compare_freqs;
    use proptest::prelude::*;

    #[test]
    fn shuffled_is_a_permutation_and_seed_stable() {
        let v: Vec<u32> = (0..50).collect();
        let a = shuffled(&v, 9);
        let b = shuffled(&v, 9);
        assert_eq!(a, b);
        assert_ne!(a, v, "seed 9 must actually move something");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, v);
    }

    proptest! {
        #[test]
        fn comparisons_ignore_map_iteration_order(groups in FreqGroups::default()) {
            // BTreeMap input already fixes iteration order; the invariant
            // worth checking here is that *cloning* (fresh allocations,
            // same content) cannot perturb the result.
            let cloned: Vec<Freqs> = groups.iter().map(|g| g.iter().map(|(k, &v)| (k.as_ref().into(), v)).collect()).collect();
            let a = compare_freqs(CharKind::TopAs, &groups, 0.05, 5);
            let b = compare_freqs(CharKind::TopAs, &cloned, 0.05, 5);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert_eq!(comparison_fingerprint(&a), comparison_fingerprint(&b)),
                _ => prop_assert!(false, "comparability must not depend on allocation"),
            }
        }

        #[test]
        fn permutation_strategy_yields_permutations(perm in Permutation { lo: 1, hi: 40 }) {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            let expect: Vec<usize> = (0..perm.len()).collect();
            prop_assert_eq!(sorted, expect);
        }

        #[test]
        fn counts_subsumed_reflexive_and_prefix(m in FreqMap::default()) {
            prop_assert!(counts_subsumed(&m, &m));
            // Halving every count is a valid subsample shape.
            let half: Freqs = m.iter().map(|(k, &v)| (k.clone(), v / 2)).collect();
            prop_assert!(counts_subsumed(&half, &m));
        }
    }
}
