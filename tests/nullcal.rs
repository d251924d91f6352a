//! Null calibration: the Table-comparison pipeline on label-permuted
//! (exchangeable) scenario data (tier 2 of docs/TESTING.md).
//!
//! Group labels are destroyed by random permutation, so every comparison
//! below samples the pipeline's null distribution. The p-values must look
//! uniform on [0, 1] and essentially nothing may clear the Bonferroni-
//! corrected level — otherwise the machinery would be manufacturing
//! vantage-point differences out of sampling noise, the exact failure mode
//! the paper's methodology exists to avoid.
//!
//! All randomness flows from `NullCalConfig::checked_in()`'s frozen seeds,
//! so these assertions are deterministic, not flaky.

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::scanners::population::ScenarioYear;
use cw_verify::nullcal::{self, NullCalConfig};

#[test]
fn null_calibration_p_values_are_uniform() {
    let cfg = NullCalConfig::checked_in();
    let scenario = Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(cfg.scenario_seed)
            .with_scale(cfg.scale),
    );

    // The "who" axis: every event carries a source AS, so this exercises
    // the full top-3-union → chi-squared → Bonferroni path at scenario
    // volume.
    let report = nullcal::report(&scenario.dataset, CharKind::TopAs, &cfg);
    assert_eq!(
        report.p_values.len(),
        cfg.permutations,
        "no permutation may degenerate at scenario volume"
    );
    assert!(
        report.ks_p_value > 0.01,
        "null p-values must look U(0,1): KS D = {:.4}, p = {:.4}",
        report.ks_statistic,
        report.ks_p_value
    );
    assert_eq!(
        report.significant_bonferroni,
        0,
        "Bonferroni must not hallucinate vantage differences on \
         exchangeable inputs (p-values: min = {:.5})",
        report
            .p_values
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    );
    // At the *uncorrected* level the false-positive rate must sit near α.
    let frac = report.significant_raw as f64 / cfg.permutations as f64;
    assert!(
        frac < 0.12,
        "uncorrected false-positive rate {frac:.3} far above α = {}",
        cfg.alpha
    );

    // The "what" axis: maliciousness is a 2-category characteristic, the
    // other table shape (no top-k union). Same dataset, fresh permutations.
    let report = nullcal::report(&scenario.dataset, CharKind::FracMalicious, &cfg);
    assert!(
        report.ks_p_value > 0.01,
        "FracMalicious null must look U(0,1): KS D = {:.4}, p = {:.4}",
        report.ks_statistic,
        report.ks_p_value
    );
    assert_eq!(report.significant_bonferroni, 0);
}
