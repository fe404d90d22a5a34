//! Special functions: log-gamma, log-factorial, log-binomial-coefficient,
//! the standard normal quantile.
//!
//! The behavior tests evaluate binomial probability mass functions for
//! window sizes that are usually small (m ≈ 10) but may legitimately be in
//! the thousands for coarse-grained audits, so all combinatorics are done in
//! log space with a Lanczos approximation of Γ.

/// Lanczos coefficients for g = 7, n = 9 (Boost/GSL parameterization).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
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

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Accurate to ~14 significant digits over the range used by this crate.
///
/// # Panics
///
/// Panics in debug builds if `x` is not a positive finite number.
///
/// # Examples
///
/// ```
/// let lg = hp_stats::special::ln_gamma(5.0);
/// assert!((lg - 24.0f64.ln()).abs() < 1e-12); // Γ(5) = 4! = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Size of the exact log-factorial lookup table.
const FACT_TABLE_LEN: usize = 257;

/// Natural logarithm of `n!`.
///
/// Exact table lookup for `n < 257`, Lanczos `ln Γ(n+1)` beyond.
///
/// # Examples
///
/// ```
/// assert_eq!(hp_stats::special::ln_factorial(0), 0.0);
/// assert!((hp_stats::special::ln_factorial(4) - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_factorial(n: u64) -> f64 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; FACT_TABLE_LEN]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0_f64; FACT_TABLE_LEN];
        let mut acc = 0.0_f64;
        for (i, slot) in t.iter_mut().enumerate().skip(1) {
            acc += (i as f64).ln();
            *slot = acc;
        }
        t
    });
    if (n as usize) < FACT_TABLE_LEN {
        table[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
///
/// # Examples
///
/// ```
/// let lc = hp_stats::special::ln_choose(10, 3);
/// assert!((lc - 120.0f64.ln()).abs() < 1e-12);
/// assert_eq!(hp_stats::special::ln_choose(3, 10), f64::NEG_INFINITY);
/// ```
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Quantile of the standard normal distribution
/// (Acklam's rational approximation; |ε| < 1.15e-9).
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile level must be in (0,1), got {p}"
    );
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(4) = 6, Γ(5) = 24
        assert_close(ln_gamma(1.0), 0.0, 1e-13);
        assert_close(ln_gamma(2.0), 0.0, 1e-13);
        assert_close(ln_gamma(3.0), 2.0_f64.ln(), 1e-13);
        assert_close(ln_gamma(4.0), 6.0_f64.ln(), 1e-13);
        assert_close(ln_gamma(5.0), 24.0_f64.ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert_close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12);
        // Γ(3/2) = √π / 2
        assert_close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_large_argument_stirling_regime() {
        // Compare against Stirling series with correction terms for x = 1000.
        let x: f64 = 1000.0;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
                - 1.0 / (360.0 * x.powi(3));
        assert_close(ln_gamma(x), stirling, 1e-9);
    }

    #[test]
    fn ln_factorial_exact_small_values() {
        let mut acc = 1.0_f64;
        for n in 1..20u64 {
            acc *= n as f64;
            assert_close(ln_factorial(n), acc.ln(), 1e-10);
        }
    }

    #[test]
    fn ln_factorial_table_boundary_is_continuous() {
        // Values straddling the table/Lanczos boundary must agree with each
        // other through the recurrence ln (n+1)! = ln n! + ln(n+1).
        for n in 250..265u64 {
            let lhs = ln_factorial(n + 1);
            let rhs = ln_factorial(n) + ((n + 1) as f64).ln();
            assert_close(lhs, rhs, 1e-9);
        }
    }

    #[test]
    fn ln_choose_pascal_triangle() {
        for n in 0..30u64 {
            for k in 0..=n {
                let direct = ln_choose(n, k).exp().round() as u64;
                let expected = pascal(n, k);
                assert_eq!(direct, expected, "C({n},{k})");
            }
        }
    }

    fn pascal(n: u64, k: u64) -> u64 {
        if k == 0 || k == n {
            return 1;
        }
        pascal(n - 1, k - 1) + pascal(n - 1, k)
    }

    #[test]
    fn ln_choose_symmetry() {
        for n in [10u64, 100, 1000] {
            for k in [0u64, 1, 3, n / 2] {
                let a = ln_choose(n, k);
                let b = ln_choose(n, n - k);
                assert_close(a, b, 1e-9);
            }
        }
    }

    #[test]
    fn ln_choose_out_of_range_is_neg_infinity() {
        assert_eq!(ln_choose(5, 6), f64::NEG_INFINITY);
        assert_eq!(ln_choose(0, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn normal_quantile_known_values() {
        let cases = [
            (0.5, 0.0),
            (0.975, 1.959_963_984_540_054),
            (0.025, -1.959_963_984_540_054),
            (0.95, 1.644_853_626_951_472),
            (0.001, -3.090_232_306_167_813),
        ];
        for (p, expected) in cases {
            let z = standard_normal_quantile(p);
            assert!((z - expected).abs() < 1e-7, "p={p}: {z} vs {expected}");
        }
    }
}
