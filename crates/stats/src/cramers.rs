//! Cramér's V effect size (the paper's φ) with df-aware magnitude labels.
//!
//! §3.3: "the magnitudes of effect sizes do not have predefined limits …
//! magnitudes are derived using the chi-statistic and the degrees of freedom
//! within the chi-test". We follow Cohen's convention for contingency
//! tables: the small/medium/large thresholds 0.10/0.30/0.50 apply to
//! `df* = min(rows, cols) − 1 = 1` and shrink as `1/√df*` for larger tables,
//! which is exactly why "identical φ values can represent different effect
//! sizes if the degrees of freedom between two tests are different".

use crate::chi2::Chi2Result;

/// Qualitative magnitude of an effect size, relative to its table shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EffectMagnitude {
    /// Below the df-adjusted small threshold.
    Negligible,
    /// Colored blue in the paper's tables.
    Small,
    /// Colored yellow in the paper's tables.
    Medium,
    /// Colored red in the paper's tables.
    Large,
}

impl std::fmt::Display for EffectMagnitude {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EffectMagnitude::Negligible => "negligible",
            EffectMagnitude::Small => "small",
            EffectMagnitude::Medium => "medium",
            EffectMagnitude::Large => "large",
        };
        f.write_str(s)
    }
}

/// Cramér's V (φ) together with its df-aware magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectSize {
    /// The φ value in [0, 1].
    pub phi: f64,
    /// `min(rows, cols) − 1`, the df* used for magnitude thresholds.
    pub df_star: usize,
    /// Qualitative magnitude.
    pub magnitude: EffectMagnitude,
}

/// Compute Cramér's V from a chi-squared result:
/// `V = sqrt(χ² / (n · (min(r, c) − 1)))`.
pub fn cramers_v(chi2: &Chi2Result) -> EffectSize {
    let df_star = chi2.rows.min(chi2.cols).saturating_sub(1).max(1);
    let phi = if chi2.n == 0 {
        0.0
    } else {
        (chi2.statistic / (chi2.n as f64 * df_star as f64)).sqrt()
    };
    // Numerical noise can push V fractionally above 1 on extreme tables.
    let phi = phi.clamp(0.0, 1.0);
    EffectSize {
        phi,
        df_star,
        magnitude: magnitude_for(phi, df_star),
    }
}

/// Cohen's df*-adjusted magnitude thresholds.
///
/// For df* = 1 the thresholds are 0.10 / 0.30 / 0.50; for larger df* they
/// shrink by `1/√df*` (Cohen 1988, §7.2), so e.g. a φ of 0.25 is *large*
/// when comparing 5-category distributions but only *small–medium* on a 2×2.
pub fn magnitude_for(phi: f64, df_star: usize) -> EffectMagnitude {
    let scale = (df_star.max(1) as f64).sqrt();
    let small = 0.10 / scale;
    let medium = 0.30 / scale;
    let large = 0.50 / scale;
    if phi >= large {
        EffectMagnitude::Large
    } else if phi >= medium {
        EffectMagnitude::Medium
    } else if phi >= small {
        EffectMagnitude::Small
    } else {
        EffectMagnitude::Negligible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi2::chi_squared_from_table;
    use crate::contingency::ContingencyTable;

    fn table(counts: Vec<Vec<u64>>) -> Chi2Result {
        let cols = counts[0].len();
        let categories = (0..cols).map(|i| format!("c{i}")).collect();
        chi_squared_from_table(&ContingencyTable::new(categories, counts)).unwrap()
    }

    #[test]
    fn perfect_association_gives_v_one() {
        let r = table(vec![vec![50, 0], vec![0, 50]]);
        let v = cramers_v(&r);
        assert!((v.phi - 1.0).abs() < 1e-9);
        assert_eq!(v.magnitude, EffectMagnitude::Large);
    }

    #[test]
    fn no_association_gives_v_zero() {
        let r = table(vec![vec![25, 25], vec![25, 25]]);
        let v = cramers_v(&r);
        assert!(v.phi.abs() < 1e-9);
        assert_eq!(v.magnitude, EffectMagnitude::Negligible);
    }

    #[test]
    fn textbook_value() {
        // [[10,20],[30,40]]: χ²=0.79365, n=100, df*=1 → V = sqrt(0.0079365) ≈ 0.0891.
        let r = table(vec![vec![10, 20], vec![30, 40]]);
        let v = cramers_v(&r);
        assert!((v.phi - 0.089_087).abs() < 1e-5, "{}", v.phi);
    }

    #[test]
    fn df_star_uses_smaller_dimension() {
        // 2 rows × 3 cols → df* = 1.
        let r = table(vec![vec![30, 5, 5], vec![5, 30, 5]]);
        assert_eq!(cramers_v(&r).df_star, 1);
        // 3 rows × 3 cols → df* = 2.
        let r = table(vec![vec![20, 5, 5], vec![5, 20, 5], vec![5, 5, 20]]);
        assert_eq!(cramers_v(&r).df_star, 2);
    }

    #[test]
    fn same_phi_different_magnitude_across_df() {
        // The paper's caveat: identical φ can be different magnitudes.
        assert_eq!(
            magnitude_for(0.25, 1),
            EffectMagnitude::Negligible.max(EffectMagnitude::Small)
        );
        assert_eq!(magnitude_for(0.25, 1), EffectMagnitude::Small);
        assert_eq!(magnitude_for(0.25, 4), EffectMagnitude::Large);
    }

    #[test]
    fn thresholds_shrink_with_df() {
        assert_eq!(magnitude_for(0.09, 1), EffectMagnitude::Negligible);
        assert_eq!(magnitude_for(0.09, 4), EffectMagnitude::Small);
        assert_eq!(magnitude_for(0.16, 4), EffectMagnitude::Medium);
    }
}
