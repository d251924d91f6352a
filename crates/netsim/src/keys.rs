//! Sort-once distinct-key lists.
//!
//! A hot loop that needs the distinct values of a stream (source
//! addresses, `(source, port)` pairs packed into one integer, …) appends
//! integer keys to a [`Keys`] list instead of inserting each one into an
//! ordered set, and sorts and dedups them once, when it needs them. The
//! telescope's per-packet counters count this way, merging each window's
//! sorted keys into their totals. (The query layer's distinct-set
//! terminals insert into hash sets instead: a fleet pass reads about a
//! million rows from a few thousand sources, so a set that grows with the
//! distinct keys beats a list that grows with the rows.)

/// A list of integer keys (`u32`, `u64`, …) that sorts and dedups itself
/// in place once it holds 2¹⁶ keys, and again whenever it has doubled
/// since, so it holds at most about twice its distinct keys however many
/// keys are pushed to it.
#[derive(Debug, Clone)]
pub struct Keys<K> {
    keys: Vec<K>,
    compact_at: usize,
}

impl<K> Default for Keys<K> {
    fn default() -> Self {
        Keys {
            keys: Vec::new(),
            compact_at: 0,
        }
    }
}

impl<K: Ord + Copy> Keys<K> {
    /// Append one key.
    pub fn push(&mut self, key: K) {
        self.keys.push(key);
        if self.keys.len() >= self.compact_at.max(1 << 16) {
            self.keys.sort_unstable();
            self.keys.dedup();
            self.compact_at = 2 * self.keys.len();
        }
    }

    /// True if no key was pushed since the list was made or taken.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The distinct keys, ascending.
    pub fn into_sorted(mut self) -> Vec<K> {
        self.keys.sort_unstable();
        self.keys.dedup();
        self.keys
    }

    /// The distinct keys, ascending, leaving the list empty.
    pub fn take_sorted(&mut self) -> Vec<K> {
        std::mem::take(self).into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn distinct_sorted_across_compactions() {
        let mut keys = Keys::default();
        let mut oracle = BTreeSet::new();
        // More pushes than the first compaction threshold, with repeats.
        for i in 0u64..200_000 {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 70_000;
            keys.push(k);
            oracle.insert(k);
        }
        assert!(
            keys.keys.len() <= 2 * oracle.len(),
            "compaction bounds the list"
        );
        let taken = keys.take_sorted();
        assert!(keys.is_empty());
        assert_eq!(taken, oracle.into_iter().collect::<Vec<_>>());
        assert!(Keys::<u32>::default().into_sorted().is_empty());
    }
}
