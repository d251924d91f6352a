//! Mann–Whitney U test (Wilcoxon rank-sum) with tie correction.
//!
//! §4.3 uses "a one-sided Mann-Whitney U test to evaluate whether the volume
//! of traffic per hour that targets leaked services is stochastically greater
//! than the volume targeting the control group". Our leak harness feeds
//! per-hour volumes through this module.

use crate::special::normal_sf;

/// Alternative hypothesis for the Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alternative {
    /// Sample `x` is stochastically greater than sample `y`.
    Greater,
    /// Sample `x` is stochastically less than sample `y`.
    Less,
    /// Two-sided.
    TwoSided,
}

/// Result of a Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitneyResult {
    /// The U statistic for the first sample.
    pub u: f64,
    /// Standardized z-score (with tie correction and continuity correction).
    pub z: f64,
    /// p-value under the requested alternative.
    pub p_value: f64,
}

/// Run the Mann–Whitney U test on two samples.
///
/// Uses the normal approximation with tie correction and a 0.5 continuity
/// correction; this is the standard approach for n ≥ 8 per group and is what
/// the per-hour volume samples in the leak experiment look like (168 hours
/// per group). Returns `None` if either sample is empty.
pub fn mann_whitney_u(x: &[f64], y: &[f64], alternative: Alternative) -> Option<MannWhitneyResult> {
    if x.is_empty() || y.is_empty() {
        return None;
    }
    let n1 = x.len() as f64;
    let n2 = y.len() as f64;

    // Rank the pooled sample, with mid-ranks for ties.
    let mut pooled: Vec<(f64, usize)> = x
        .iter()
        .map(|&v| (v, 0usize))
        .chain(y.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in MWU sample"));

    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && pooled[j].0 == pooled[i].0 {
            j += 1;
        }
        let t = (j - i) as f64;
        // Mid-rank for positions i..j (1-based ranks).
        let rank = (i + 1 + j) as f64 / 2.0;
        for r in ranks.iter_mut().take(j).skip(i) {
            *r = rank;
        }
        if t > 1.0 {
            tie_term += t * t * t - t;
        }
        i = j;
    }

    // Rank sum for the first sample.
    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, g), _)| *g == 0)
        .map(|(_, &r)| r)
        .sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;

    let mean_u = n1 * n2 / 2.0;
    let nt = n1 + n2;
    let var_u = n1 * n2 / 12.0 * ((nt + 1.0) - tie_term / (nt * (nt - 1.0)));
    if var_u <= 0.0 {
        // All observations identical: no evidence either way.
        return Some(MannWhitneyResult {
            u: u1,
            z: 0.0,
            p_value: 1.0,
        });
    }
    let sd = var_u.sqrt();

    // Continuity-corrected z for each alternative.
    let (z, p) = match alternative {
        Alternative::Greater => {
            let z = (u1 - mean_u - 0.5) / sd;
            (z, normal_sf(z))
        }
        Alternative::Less => {
            let z = (u1 - mean_u + 0.5) / sd;
            (z, 1.0 - normal_sf(z))
        }
        Alternative::TwoSided => {
            let raw = u1 - mean_u;
            let z = (raw.abs() - 0.5).max(0.0) / sd * raw.signum();
            (z, (2.0 * normal_sf(z.abs())).min(1.0))
        }
    };

    Some(MannWhitneyResult {
        u: u1,
        z,
        p_value: p.clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(mann_whitney_u(&[], &[1.0], Alternative::Greater).is_none());
        assert!(mann_whitney_u(&[1.0], &[], Alternative::Greater).is_none());
    }

    #[test]
    fn clearly_greater_sample_is_significant() {
        let x: Vec<f64> = (0..40).map(|i| 100.0 + i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let r = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        // And the reversed direction is not significant.
        let r = mann_whitney_u(&y, &x, Alternative::Greater).unwrap();
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn identical_distributions_not_significant() {
        let x: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
        let y = x.clone();
        let r = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        assert!(r.p_value > 0.4, "p = {}", r.p_value);
    }

    #[test]
    fn u_statistic_reference() {
        // scipy.stats.mannwhitneyu([1,2,3], [4,5,6], alternative='greater'):
        // U = 0 for x.
        let r = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], Alternative::Greater).unwrap();
        assert!((r.u - 0.0).abs() < 1e-12);
        assert!(r.p_value > 0.9);
        let r = mann_whitney_u(&[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0], Alternative::Greater).unwrap();
        assert!((r.u - 9.0).abs() < 1e-12);
    }

    #[test]
    fn all_tied_degenerates_gracefully() {
        let x = [5.0; 10];
        let y = [5.0; 10];
        let r = mann_whitney_u(&x, &y, Alternative::TwoSided).unwrap();
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.z, 0.0);
    }

    #[test]
    fn tie_correction_reduces_variance() {
        // With heavy ties, the tie-corrected test should still flag a clear
        // shift as significant.
        let x: Vec<f64> = std::iter::repeat_n(2.0, 30)
            .chain(std::iter::repeat_n(3.0, 30))
            .collect();
        let y: Vec<f64> = std::iter::repeat_n(1.0, 30)
            .chain(std::iter::repeat_n(2.0, 30))
            .collect();
        let r = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn two_sided_matches_direction_agnostic() {
        let x = [10.0, 12.0, 9.0, 14.0, 11.0, 13.0, 15.0, 10.5];
        let y = [1.0, 2.0, 3.0, 2.5, 1.5, 2.2, 3.3, 1.8];
        let g = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        let t = mann_whitney_u(&x, &y, Alternative::TwoSided).unwrap();
        assert!(t.p_value >= g.p_value);
        assert!(t.p_value < 0.01);
    }
}
