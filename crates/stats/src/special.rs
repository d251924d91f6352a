//! Special functions: log-gamma, regularized incomplete gamma, error
//! function, normal CDF, and the chi-squared survival function.
//!
//! These are the numerical kernels behind every p-value in the pipeline.
//! Implementations follow the classical Lanczos / series / continued-fraction
//! formulations; accuracy targets (≈1e-10 relative over the ranges we use)
//! are asserted against reference values in the tests below.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation with g = 7, n = 9 coefficients; relative error is
/// below 1e-13 for the arguments that arise in chi-squared testing.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise, per Numerical Recipes §6.2.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_contfrac(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_contfrac(a, x)
    }
}

const EPS: f64 = 1e-15;
const MAX_ITER: usize = 500;

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_contfrac(a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction representation.
    let fpmin = f64::MIN_POSITIVE / EPS;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / fpmin;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < fpmin {
            d = fpmin;
        }
        c = b + an / c;
        if c.abs() < fpmin {
            c = fpmin;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Survival function of the chi-squared distribution with `df` degrees of
/// freedom: `P(X >= x)` — i.e. the p-value of a chi-squared statistic.
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "chi2_sf requires df > 0, got {df}");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0)
}

/// Error function `erf(x)`, computed via the incomplete gamma identity
/// `erf(x) = sgn(x) · P(1/2, x²)`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, accurate for large
/// positive `x` where `1 - erf(x)` would cancel.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `1 - Φ(z)`, accurate in the upper tail.
pub fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Kolmogorov distribution survival function
/// `Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} e^{-2 j² λ²}`.
///
/// Used for the asymptotic p-value of the two-sample KS statistic.
pub fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let j = j as f64;
        let term = sign * (-2.0 * j * j * lambda * lambda).exp();
        sum += term;
        if term.abs() < 1e-12 * sum.abs().max(1e-300) {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol * expected.abs().max(1.0),
            "expected {expected}, got {actual}"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-12);
        assert_close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = √π / 2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    #[should_panic]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[
            (0.5, 0.3),
            (1.0, 1.0),
            (2.5, 4.0),
            (10.0, 3.0),
            (10.0, 30.0),
        ] {
            let p = gamma_p(a, x);
            let q = gamma_q(a, x);
            assert_close(p + q, 1.0, 1e-10);
        }
    }

    #[test]
    fn gamma_p_reference_values() {
        // P(1, x) = 1 - e^{-x}
        assert_close(gamma_p(1.0, 2.0), 1.0 - (-2.0f64).exp(), 1e-12);
        // P(2, x) = 1 - e^{-x}(1 + x)
        assert_close(gamma_p(2.0, 3.0), 1.0 - (-3.0f64).exp() * 4.0, 1e-12);
    }

    #[test]
    fn chi2_sf_reference_values() {
        // Classical chi-squared critical values: P(X >= 3.841) with df=1 is 0.05.
        assert_close(chi2_sf(3.841_458_820_694_124, 1.0), 0.05, 1e-9);
        // df=4, x=9.487729036781154 → 0.05
        assert_close(chi2_sf(9.487_729_036_781_154, 4.0), 0.05, 1e-9);
        // df=2: sf(x) = e^{-x/2}
        assert_close(chi2_sf(5.0, 2.0), (-2.5f64).exp(), 1e-12);
    }

    #[test]
    fn chi2_sf_edges() {
        assert_eq!(chi2_sf(0.0, 3.0), 1.0);
        assert!(chi2_sf(1e6, 3.0) < 1e-12);
    }

    #[test]
    fn erf_reference_values() {
        assert_close(erf(0.0), 0.0, 1e-15);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-10);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-10);
    }

    #[test]
    fn erfc_upper_tail_no_cancellation() {
        // erfc(5) ≈ 1.5374597944280347e-12; a naive 1-erf would lose it all.
        assert_close(erfc(5.0), 1.537_459_794_428_034_7e-12, 1e-6);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert_close(normal_cdf(0.0), 0.5, 1e-12);
        assert_close(normal_cdf(1.96), 0.975_002_104_851_780_4, 1e-9);
        assert_close(normal_cdf(-1.96), 0.024_997_895_148_219_6, 1e-9);
        assert_close(normal_sf(1.644_853_626_951_472_5), 0.05, 1e-9);
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Q_KS(λ) at the classical 5% critical value λ = 1.358 is ≈ 0.0501.
        let q = kolmogorov_sf(1.358);
        assert!((q - 0.05).abs() < 2e-3, "got {q}");
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
    }

    #[test]
    fn kolmogorov_sf_monotone() {
        let mut prev = 1.0;
        for i in 1..=40 {
            let q = kolmogorov_sf(i as f64 * 0.1);
            assert!(q <= prev + 1e-12, "not monotone at λ={}", i as f64 * 0.1);
            prev = q;
        }
    }
}
