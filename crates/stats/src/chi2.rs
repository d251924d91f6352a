//! Pearson's chi-squared test of independence on contingency tables.

use crate::contingency::ContingencyTable;
use crate::special::chi2_sf;

/// Outcome of a chi-squared test of independence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Result {
    /// The chi-squared statistic Σ (O−E)²/E over all cells.
    pub statistic: f64,
    /// Degrees of freedom `(rows − 1)(cols − 1)` of the pruned table.
    pub df: usize,
    /// Upper-tail p-value.
    pub p_value: f64,
    /// Grand total of observations (needed for Cramér's V).
    pub n: u64,
    /// Rows and columns of the pruned table (needed for Cramér's V).
    pub rows: usize,
    /// Columns of the pruned table.
    pub cols: usize,
}

impl Chi2Result {
    /// Is the difference significant at level `alpha`?
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Run Pearson's chi-squared test on a contingency table.
///
/// The table is pruned of all-zero rows/columns first (the paper's
/// expected-frequency > 0 requirement, §3.3). Returns `None` when the pruned
/// table is degenerate (fewer than 2 rows or 2 columns) — the paper treats
/// such comparisons as "cannot be calculated".
/// # Example
///
/// ```
/// use cw_stats::{chi_squared_from_table, ContingencyTable};
///
/// // Two honeypots, three scanning ASes: clearly different mixes.
/// let table = ContingencyTable::new(
///     vec!["AS4134".into(), "AS174".into(), "AS9009".into()],
///     vec![vec![120, 10, 5], vec![8, 95, 40]],
/// );
/// let result = chi_squared_from_table(&table).unwrap();
/// assert!(result.significant(0.05));
/// ```
pub fn chi_squared_from_table(table: &ContingencyTable) -> Option<Chi2Result> {
    let t = table.pruned();
    if t.n_rows() < 2 || t.n_cols() < 2 {
        return None;
    }
    let expected = t.expected();
    let mut stat = 0.0;
    for (r, row) in t.counts.iter().enumerate() {
        for (c, &obs) in row.iter().enumerate() {
            let e = expected[r][c];
            debug_assert!(e > 0.0, "pruned table must have positive expectations");
            let d = obs as f64 - e;
            stat += d * d / e;
        }
    }
    let df = (t.n_rows() - 1) * (t.n_cols() - 1);
    Some(Chi2Result {
        statistic: stat,
        df,
        p_value: chi2_sf(stat, df as f64),
        n: t.total(),
        rows: t.n_rows(),
        cols: t.n_cols(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cats(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_rows_yield_zero_statistic() {
        let t = ContingencyTable::new(cats(&["a", "b", "c"]), vec![vec![10, 20, 30]; 2]);
        let r = chi_squared_from_table(&t).unwrap();
        assert!(r.statistic.abs() < 1e-9);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert!(!r.significant(0.05));
    }

    #[test]
    fn textbook_2x2() {
        // Classic 2x2 example: observed [[10, 20], [30, 40]].
        // chi2 = 100 * (10*40 - 20*30)^2 / (30*70*40*60) = 0.7936507936...
        let t = ContingencyTable::new(cats(&["a", "b"]), vec![vec![10, 20], vec![30, 40]]);
        let r = chi_squared_from_table(&t).unwrap();
        assert!(
            (r.statistic - 0.793_650_793_650_79).abs() < 1e-9,
            "{}",
            r.statistic
        );
        assert_eq!(r.df, 1);
        // For df = 1, sf(x) = erfc(√(x/2)); erfc is independently validated
        // against reference values in `special`.
        let expected_p = crate::special::erfc((r.statistic / 2.0).sqrt());
        assert!((r.p_value - expected_p).abs() < 1e-12, "{}", r.p_value);
        assert!((r.p_value - 0.373).abs() < 1e-3, "{}", r.p_value);
    }

    #[test]
    fn strongly_different_rows_are_significant() {
        let t = ContingencyTable::new(cats(&["a", "b"]), vec![vec![100, 5], vec![5, 100]]);
        let r = chi_squared_from_table(&t).unwrap();
        assert!(r.significant(0.001));
        assert!(r.statistic > 100.0);
    }

    #[test]
    fn degenerate_tables_return_none() {
        // Only one non-zero column.
        let t = ContingencyTable::new(cats(&["a", "b"]), vec![vec![5, 0], vec![7, 0]]);
        assert!(chi_squared_from_table(&t).is_none());
        // Only one row.
        let t = ContingencyTable::new(cats(&["a", "b"]), vec![vec![5, 3]]);
        assert!(chi_squared_from_table(&t).is_none());
    }

    #[test]
    fn pruning_is_applied_before_df() {
        // 3 columns but one is all-zero → df should be (2-1)(2-1) = 1.
        let t = ContingencyTable::new(
            cats(&["a", "zero", "b"]),
            vec![vec![10, 0, 20], vec![30, 0, 40]],
        );
        let r = chi_squared_from_table(&t).unwrap();
        assert_eq!(r.df, 1);
        assert_eq!(r.cols, 2);
    }

    #[test]
    fn three_groups_three_categories() {
        // All marginals are 30 over n = 90, so every expectation is 10 and
        // the statistic is 3 × (10² + 5² + 5²)/10 = 45 with df = 4.
        // p = Q(2, 22.5) = e^{-22.5}·23.5 ≈ 3.976e-9.
        let t = ContingencyTable::new(
            cats(&["x", "y", "z"]),
            vec![vec![20, 5, 5], vec![5, 20, 5], vec![5, 5, 20]],
        );
        let r = chi_squared_from_table(&t).unwrap();
        assert!((r.statistic - 45.0).abs() < 1e-9);
        assert_eq!(r.df, 4);
        let expected_p = (-22.5f64).exp() * 23.5;
        assert!((r.p_value - expected_p).abs() < 1e-15, "{}", r.p_value);
    }
}
