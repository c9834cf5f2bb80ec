//! Statistics toolkit for ReLM-rs evaluations.
//!
//! §4.2.2 of the paper quantifies gender bias with χ² independence tests
//! over (gender × profession) contingency tables, reporting p-values from
//! 1e-18 down to 1e-229. Off-the-shelf special-function crates are outside
//! this workspace's dependency budget, so the χ² survival function is
//! implemented from scratch via the regularized incomplete gamma function
//! (series + continued-fraction evaluation, computed in log space so
//! p-values far below `f64::MIN_POSITIVE` are still reported as
//! `log10(p)`).
//!
//! Also included: empirical distributions and CDFs (Figs 7, 9, 13, 14)
//! and descriptive statistics used across the bench harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chi2;
mod describe;
mod distribution;

pub use chi2::{chi2_independence, Chi2Result};
pub use describe::{mean, percentile};
pub use distribution::{Cdf, EmpiricalDist};

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients; |error| < 1e-13 for positive arguments).
///
/// # Panics
///
/// Panics if `x <= 0`.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
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
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of the *upper* regularized incomplete gamma function
/// `Q(s, x) = Γ(s, x)/Γ(s)`, the survival function of the gamma
/// distribution. Stable for very small `Q` (returns the log rather than
/// underflowing to zero).
///
/// Uses the series expansion of `P(s, x)` for `x < s + 1` and the
/// Lentz continued fraction for `Q(s, x)` otherwise (Numerical Recipes
/// §6.2, re-derived in log space).
///
/// # Panics
///
/// Panics if `s <= 0` or `x < 0`.
fn ln_gamma_q(s: f64, x: f64) -> f64 {
    assert!(s > 0.0, "shape must be positive");
    assert!(x >= 0.0, "x must be non-negative");
    if x == 0.0 {
        return 0.0; // Q = 1
    }
    if x < s + 1.0 {
        // Q = 1 - P; P via series. P is not tiny here, so 1 - P is safe.
        let ln_p = ln_gamma_p_series(s, x);
        let p = ln_p.exp();
        if p >= 1.0 {
            return f64::NEG_INFINITY;
        }
        (1.0 - p).ln()
    } else {
        // Q via continued fraction, directly in log space.
        ln_gamma_q_cf(s, x)
    }
}

/// log P(s,x) via the power series
/// `P = x^s e^-x / Γ(s+1) · Σ xⁿ / ((s+1)…(s+n))`.
fn ln_gamma_p_series(s: f64, x: f64) -> f64 {
    let mut sum = 1.0 / s;
    let mut term = sum;
    let mut n = s;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    s * x.ln() - x - ln_gamma(s) + sum.ln()
}

/// log Q(s,x) via the Lentz continued fraction.
fn ln_gamma_q_cf(s: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - s;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - s);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    s * x.ln() - x - ln_gamma(s) + h.ln()
}

/// Survival function of the χ² distribution with `dof` degrees of
/// freedom: `P(X ≥ stat)`. Returned as `(p, log10_p)` so that p-values
/// below `f64::MIN_POSITIVE` remain reportable (the paper quotes 1e-229).
///
/// # Panics
///
/// Panics if `dof == 0` or `stat < 0`.
pub fn chi2_survival(stat: f64, dof: usize) -> (f64, f64) {
    assert!(dof > 0, "dof must be positive");
    assert!(stat >= 0.0, "statistic must be non-negative");
    let ln_q = ln_gamma_q(dof as f64 / 2.0, stat / 2.0);
    let log10_p = ln_q / std::f64::consts::LN_10;
    (ln_q.exp(), log10_p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-12);
        assert!((ln_gamma(2.0) - 0.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn chi2_survival_known_quantiles() {
        // For dof=1: P(X >= 3.841) ≈ 0.05; dof=2: P(X >= 5.991) ≈ 0.05.
        let (p, _) = chi2_survival(3.841, 1);
        assert!((p - 0.05).abs() < 1e-3, "dof 1: {p}");
        let (p, _) = chi2_survival(5.991, 2);
        assert!((p - 0.05).abs() < 1e-3, "dof 2: {p}");
        // dof=9, x=16.919 → 0.05
        let (p, _) = chi2_survival(16.919, 9);
        assert!((p - 0.05).abs() < 1e-3, "dof 9: {p}");
    }

    #[test]
    fn chi2_survival_extreme_statistics_stay_finite_in_log() {
        // A statistic of 1100 with dof 9 gives p ~ 1e-230 territory —
        // exactly the paper's regime.
        let (p, log10p) = chi2_survival(1100.0, 9);
        assert!(p < 1e-220, "p = {p}");
        assert!(log10p < -200.0, "log10 p = {log10p}");
        assert!(log10p.is_finite());
        // Far beyond f64 range: only the log representation survives.
        let (p2, log10p2) = chi2_survival(4000.0, 9);
        assert_eq!(p2, 0.0);
        assert!(
            log10p2 < -800.0 && log10p2.is_finite(),
            "log10 p = {log10p2}"
        );
    }

    #[test]
    fn chi2_survival_zero_statistic_is_one() {
        let (p, log10p) = chi2_survival(0.0, 5);
        assert!((p - 1.0).abs() < 1e-12);
        assert!(log10p.abs() < 1e-12);
    }

    #[test]
    fn survival_is_monotone_decreasing() {
        let mut last = f64::INFINITY;
        for stat in [0.1, 1.0, 5.0, 10.0, 50.0, 200.0] {
            let (_, log10p) = chi2_survival(stat, 4);
            assert!(log10p < last, "not monotone at {stat}");
            last = log10p;
        }
    }

    #[test]
    #[should_panic(expected = "dof")]
    fn zero_dof_rejected() {
        let _ = chi2_survival(1.0, 0);
    }
}
