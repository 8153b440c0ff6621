//! Numerically careful helpers shared by the prediction and verification models.
//!
//! The answering model works with products of many per-worker probabilities
//! (Equation 3 of the paper) and with binomial tails (Theorem 1); both are computed in
//! log space to avoid underflow once tens of workers are involved.

/// Natural logarithm of the Gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), which is accurate to roughly
/// 15 significant digits over the range used by this crate (binomial coefficients for at
/// most a few thousand workers).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, kept verbatim from the published table (the extra
    // digits round away in f64 but make the table checkable against the source).
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    // The constant term seeds the accumulator; the remaining coefficients are
    // each divided by a shifted argument.
    let mut coeffs = COEFFS.iter().enumerate();
    let mut acc = coeffs.next().map_or(0.0, |(_, &c)| c);
    for (i, &c) in coeffs {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns negative infinity when `k > n` (the coefficient is zero).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Stable `log(Σ exp(x_i))` over a slice of log-space values.
///
/// Empty input yields negative infinity (the log of zero).
pub fn log_sum_exp(values: &[f64]) -> f64 {
    log_sum_exp_iter(values.iter().copied())
}

/// [`log_sum_exp`] over any sequence that can be walked twice: one pass finds the
/// maximum, a second sums the shifted exponentials in sequence order. It allocates
/// nothing, and over the same values in the same order it is bit-identical to the
/// slice form, which is this function over the slice.
pub fn log_sum_exp_iter<I>(values: I) -> f64
where
    I: Iterator<Item = f64> + Clone,
{
    let max = values.clone().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = values.map(|v| (v - max).exp()).sum();
    max + sum.ln()
}

/// The `k`-th harmonic number `H_k = Σ_{i=1..k} 1/i`, with `H_0 = 0`.
///
/// Used by the answer-domain-size bound (Lemma 1 / Theorem 5 of the paper).
pub fn harmonic(k: u64) -> f64 {
    (1..=k).map(|i| 1.0 / i as f64).sum()
}

/// Probability mass function of the binomial distribution, `P[X = k]` for
/// `X ~ Binomial(n, p)`, computed in log space.
///
/// A probability outside `[0, 1]` (or NaN) has no binomial interpretation and
/// yields `f64::NAN` rather than panicking — a shard thread must never abort
/// on bad estimator output, and NaN propagates loudly through any sum.
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let log_pmf = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    log_pmf.exp()
}

/// Upper-tail probability of the binomial distribution, `P[X ≥ k]`.
///
/// This is the quantity `E[P_{n/2}]` of Theorem 1 when `k = ⌈n/2⌉`; it is used by the
/// tests as an independent reference for Algorithm 3's recurrence-based computation.
///
/// Inherits [`binomial_pmf`]'s contract: a probability outside `[0, 1]` (or
/// NaN) yields NaN rather than panicking. Debug builds assert early so the
/// bad estimate is caught at the call site instead of surfacing as a NaN sum
/// far downstream.
pub fn binomial_tail(n: u64, k: u64, p: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&p),
        "binomial_tail requires p in [0, 1], got {p}"
    );
    (k..=n).map(|i| binomial_pmf(n, i, p)).sum::<f64>().min(1.0)
}

/// Clamp a probability into the open interval `(ε, 1−ε)` so that log-odds stay finite.
///
/// The verification model divides by `1 − a_j` and takes logarithms of `a_j`; workers with
/// a perfect (or zero) sampled accuracy would otherwise produce infinities that swamp every
/// other vote. The paper caches `ln(a_j / (1 − a_j))` per worker, which implicitly assumes
/// the same clamping.
///
/// A NaN probability (an upstream estimator dividing by zero) maps to `0.5` — the
/// information-free coin flip — instead of propagating: `f64::clamp` passes NaN through,
/// and one NaN log-odds used to poison every summed confidence of its HIT and panic the
/// online termination path's ranking.
pub fn clamp_probability(p: f64) -> f64 {
    const EPS: f64 = 1e-9;
    if p.is_nan() {
        return 0.5;
    }
    p.clamp(EPS, 1.0 - EPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol,
            "expected {a} ≈ {b} within {tol} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!
        let factorials = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in factorials.iter().enumerate() {
            assert_close(ln_gamma(n as f64 + 1.0), f64::ln(f), 1e-9);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-9);
        // Γ(3/2) = √π / 2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-9,
        );
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_non_positive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn ln_choose_small_values() {
        assert_close(ln_choose(5, 2), 10f64.ln(), 1e-12);
        assert_close(ln_choose(10, 5), 252f64.ln(), 1e-10);
        assert_close(ln_choose(0, 0), 0.0, 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_choose_symmetry() {
        for n in 1..40u64 {
            for k in 0..=n {
                assert_close(ln_choose(n, k), ln_choose(n, n - k), 1e-9);
            }
        }
    }

    #[test]
    fn log_sum_exp_basic() {
        assert_close(log_sum_exp(&[0.0, 0.0]), 2f64.ln(), 1e-12);
        assert_close(log_sum_exp(&[1.0]), 1.0, 1e-12);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_handles_large_magnitudes() {
        // Naive exp would overflow; the stable version must not.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert_close(v, 1000.0 + 2f64.ln(), 1e-9);
        let v = log_sum_exp(&[-1000.0, -1000.0]);
        assert_close(v, -1000.0 + 2f64.ln(), 1e-9);
    }

    #[test]
    fn harmonic_numbers() {
        assert_eq!(harmonic(0), 0.0);
        assert_close(harmonic(1), 1.0, 1e-12);
        assert_close(harmonic(4), 1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-12);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &p in &[0.1, 0.37, 0.5, 0.73, 0.99] {
            for &n in &[1u64, 2, 7, 30, 101] {
                let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
                assert_close(total, 1.0, 1e-9);
            }
        }
    }

    #[test]
    fn binomial_pmf_degenerate_probabilities() {
        assert_eq!(binomial_pmf(10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(10, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(10, 10, 1.0), 1.0);
        assert_eq!(binomial_pmf(10, 9, 1.0), 0.0);
        assert_eq!(binomial_pmf(10, 11, 0.5), 0.0);
        assert!(binomial_pmf(10, 5, -0.1).is_nan());
        assert!(binomial_pmf(10, 5, 1.5).is_nan());
        assert!(binomial_pmf(10, 5, f64::NAN).is_nan());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "binomial_tail requires p in [0, 1]")]
    fn binomial_tail_asserts_valid_p_in_debug_builds() {
        // Release builds propagate NaN per the documented contract; debug
        // builds catch the bad estimate at the call site.
        let _ = binomial_tail(10, 5, 1.5);
    }

    #[test]
    fn binomial_tail_monotone_in_p() {
        // P[X ≥ k] grows with p.
        let mut prev = 0.0;
        for i in 1..10 {
            let p = i as f64 / 10.0;
            let tail = binomial_tail(15, 8, p);
            assert!(tail >= prev, "tail should be monotone in p");
            prev = tail;
        }
    }

    #[test]
    fn binomial_tail_fair_coin_is_half_plus_mode() {
        // For odd n and p = 0.5, P[X ≥ ⌈n/2⌉] = 0.5 exactly (by symmetry).
        for &n in &[1u64, 3, 5, 9, 21, 49] {
            assert_close(binomial_tail(n, n / 2 + 1, 0.5), 0.5, 1e-9);
        }
    }

    #[test]
    fn clamp_probability_keeps_interior_points() {
        assert_eq!(clamp_probability(0.5), 0.5);
        assert!(clamp_probability(0.0) > 0.0);
        assert!(clamp_probability(1.0) < 1.0);
    }

    #[test]
    fn clamp_probability_neutralizes_nan() {
        assert_eq!(clamp_probability(f64::NAN), 0.5);
    }
}
