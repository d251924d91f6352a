//! Statistical oracle suite: `cw-stats` against the independent reference
//! implementations in `cw-verify` (tier 1 of docs/TESTING.md).
//!
//! The production and reference routes share no code — different series,
//! closed forms, or brute-force enumeration on each side (see
//! `cw_verify::oracle`) — so 1e-9 agreement here pins both: a regression in
//! either implementation breaks the match.

use cloud_watching::stats::special::{
    chi2_sf, erf, erfc, kolmogorov_sf, ln_gamma, normal_cdf, normal_sf,
};
use cloud_watching::stats::{
    chi_squared_from_table, cramers_v, ks_two_sample, mann_whitney_u, Alternative, ContingencyTable,
};
use cw_verify::oracle;

/// 1e-9 agreement: absolute for magnitudes below 1, relative above.
fn assert_close(actual: f64, reference: f64, what: &str) {
    let tol = 1e-9 * reference.abs().max(1.0);
    assert!(
        (actual - reference).abs() <= tol,
        "{what}: {actual} vs reference {reference} (|Δ| = {:.3e})",
        (actual - reference).abs()
    );
}

#[test]
fn ln_gamma_matches_stirling_reference() {
    // Lanczos (production) vs shifted Stirling–Bernoulli (reference).
    let mut z = 0.05;
    while z < 150.0 {
        assert_close(ln_gamma(z), oracle::ln_gamma_ref(z), "ln_gamma");
        z *= 1.17;
    }
}

#[test]
fn erf_family_matches_series_and_continued_fraction() {
    let mut x = -6.0;
    while x <= 6.0 {
        assert_close(erf(x), oracle::erf_ref(x), "erf");
        assert_close(erfc(x), oracle::erfc_ref(x), "erfc");
        assert_close(normal_cdf(x), oracle::normal_cdf_ref(x), "normal_cdf");
        assert_close(normal_sf(x), oracle::normal_cdf_ref(-x), "normal_sf");
        x += 0.085; // off-grid steps: no special-cased arguments
    }
}

#[test]
fn chi2_sf_matches_closed_forms_for_integer_df() {
    // Production incomplete-gamma route vs finite Poisson sums (even df)
    // and the erfc recurrence (odd df).
    for df in 1..=40u32 {
        let mut x = 0.01;
        while x < 120.0 {
            assert_close(
                chi2_sf(x, df as f64),
                oracle::chi2_sf_ref(x, df),
                &format!("chi2_sf(x={x}, df={df})"),
            );
            x *= 1.31;
        }
    }
}

#[test]
fn chi2_df2_is_exactly_exponential() {
    // df = 2 has the elementary closed form Q = e^{-x/2}; the quantile is
    // −2 ln α. This is the strongest possible anchor — no series at all.
    for alpha in [0.5f64, 0.1, 0.05, 0.01, 1e-4, 1e-8] {
        let q = -2.0 * alpha.ln();
        assert_close(chi2_sf(q, 2.0), alpha, "chi2 df=2 closed form");
    }
}

#[test]
fn chi2_quantiles_match_tabulated_references() {
    // Textbook upper quantiles (exact to the printed digit); the survival
    // function must recover α at each to 1e-9.
    let table: [(u32, f64, f64); 3] = [
        (1, 0.05, 3.841458820694124),
        (2, 0.05, 5.991464547107979),
        (4, 0.05, 9.487729036781154),
    ];
    for (df, alpha, q) in table {
        assert_close(chi2_sf(q, df as f64), alpha, "tabulated chi2 quantile");
        // And the bisected reference quantile agrees with the tabulated one.
        assert_close(oracle::chi2_quantile_ref(alpha, df), q, "chi2_quantile_ref");
    }
    // Off-table coverage: the reference quantile inverts the production sf.
    for df in [3u32, 7, 12, 24] {
        for alpha in [0.9, 0.1, 0.01, 1e-5] {
            let q = oracle::chi2_quantile_ref(alpha, df);
            assert_close(chi2_sf(q, df as f64), alpha, "quantile round trip");
        }
    }
}

#[test]
fn normal_quantiles_match_tabulated_references() {
    for (p, z) in oracle::NORMAL_QUANTILES {
        assert_close(normal_cdf(z), p, "tabulated normal quantile");
    }
}

#[test]
fn kolmogorov_sf_matches_theta_dual_series() {
    // Production alternating series vs the Jacobi theta-transformed dual.
    // The dual converges fastest exactly where the primary is slowest, so
    // agreement across the whole range cross-validates both.
    let mut lambda = 0.15;
    while lambda < 4.0 {
        assert_close(
            kolmogorov_sf(lambda),
            oracle::kolmogorov_sf_ref(lambda),
            &format!("kolmogorov_sf({lambda})"),
        );
        lambda += 0.047;
    }
}

#[test]
fn mann_whitney_u_statistic_matches_pairwise_counting() {
    // Rank-sum computation vs the literal pairwise definition, with ties.
    let cases: [(&[f64], &[f64]); 4] = [
        (&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]),
        (&[1.0, 1.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
        (&[5.0, 5.0, 5.0], &[5.0, 5.0]),
        (&[0.1, 9.0, 4.5, 4.5, 2.0], &[4.5, 0.1, 7.0]),
    ];
    for (x, y) in cases {
        let r = mann_whitney_u(x, y, Alternative::TwoSided).expect("computable");
        let u_ref = oracle::mwu_u_pairwise(x, y);
        // U from ranks and U from counting are the same integer/half-integer.
        assert!(
            (r.u - u_ref).abs() < 1e-12,
            "U mismatch: {} vs {}",
            r.u,
            u_ref
        );
        // The reported p must be the normal tail of the reported z to 1e-9
        // (two-sided: both tails).
        let p_ref = 2.0 * oracle::normal_cdf_ref(-r.z.abs());
        assert_close(r.p_value, p_ref.min(1.0), "MWU p from z");
    }
}

#[test]
fn mann_whitney_normal_approx_tracks_exact_enumeration() {
    // The tie-corrected normal approximation must stay close to the exact
    // permutation distribution for paper-sized groups (distributional
    // agreement, so the tolerance is statistical, not 1e-9).
    let x = [12.0, 7.5, 9.1, 14.2, 10.0, 8.8, 13.4];
    let y = [6.2, 8.0, 7.7, 9.5, 6.9, 7.2, 8.4];
    let exact = oracle::mwu_exact_p_greater(&x, &y);
    let approx = mann_whitney_u(&x, &y, Alternative::Greater).expect("computable");
    assert!(
        (approx.p_value - exact).abs() < 0.02,
        "normal approx {} vs exact {}",
        approx.p_value,
        exact
    );
}

#[test]
fn ks_statistic_matches_bruteforce_ecdf() {
    let cases: [(&[f64], &[f64]); 3] = [
        (&[1.0, 2.0, 3.0, 4.0], &[3.0, 4.0, 5.0, 6.0]),
        (&[1.0, 1.0, 1.0], &[1.0, 1.0]),
        (&[0.3, 2.7, 2.7, 5.1, 9.9], &[2.7, 3.3, 4.1]),
    ];
    for (x, y) in cases {
        let r = ks_two_sample(x, y).expect("computable");
        let d_ref = oracle::ks_d_bruteforce(x, y);
        assert!(
            (r.statistic - d_ref).abs() < 1e-12,
            "D mismatch: {} vs {}",
            r.statistic,
            d_ref
        );
        // p must equal the reference Kolmogorov tail of the Stephens-
        // adjusted statistic to 1e-9.
        let en = (x.len() * y.len()) as f64 / (x.len() + y.len()) as f64;
        let lambda = (en.sqrt() + 0.12 + 0.11 / en.sqrt()) * d_ref;
        assert_close(r.p_value, oracle::kolmogorov_sf_ref(lambda), "KS p");
    }
}

#[test]
fn chi_squared_from_table_matches_bruteforce() {
    let tables: [&[&[u64]]; 3] = [
        &[&[10, 20, 30], &[30, 20, 10]],
        &[&[100, 0, 5], &[90, 3, 4], &[80, 1, 9]],
        // A zero column that must be pruned identically on both routes.
        &[&[10, 0, 20], &[15, 0, 25]],
    ];
    for rows in tables {
        let counts: Vec<Vec<u64>> = rows.iter().map(|r| r.to_vec()).collect();
        let cats: Vec<String> = (0..counts[0].len()).map(|i| format!("c{i}")).collect();
        let r = chi_squared_from_table(&ContingencyTable::new(cats, counts.clone()))
            .expect("computable");
        let (stat_ref, df_ref) = oracle::chi2_stat_bruteforce(&counts).expect("computable");
        assert_close(r.statistic, stat_ref, "chi2 statistic");
        assert_eq!(r.df, df_ref, "chi2 df");
        assert_close(
            r.p_value,
            oracle::chi2_sf_ref(stat_ref, df_ref as u32),
            "chi2 p",
        );
        // Cramér's V from the same table, reference route.
        let v_ref = oracle::cramers_v_bruteforce(&counts).expect("computable");
        assert_close(cramers_v(&r).phi, v_ref, "cramers v");
    }
}

#[test]
fn bonferroni_is_the_exact_closed_form() {
    for m in [1usize, 5, 17, 1000] {
        assert_close(
            cloud_watching::stats::bonferroni_alpha(0.05, m),
            0.05 / m as f64,
            "bonferroni alpha",
        );
    }
}
