//! Opt-in fast transcendental kernels and the [`ScoringMode`] switch.
//!
//! The exact scoring path calls libm `exp`/`ln`: the GMM block kernel for
//! the mixture terms whose value is not known in advance (about one in
//! six on trained models), the NN kernels for every softmax and sigmoid
//! entry. This module provides polynomial replacements that are *not*
//! bit-identical, are branch-free so whole vectors of frames run at once,
//! and carry a tested bounded-error contract:
//!
//! * [`fast_exp`]: relative error ≤ [`FAST_EXP_REL_ERR`] for inputs in
//!   `[-87, 88]`; inputs below `-87.3` (including `-inf`) flush to
//!   ≈ `2^-126` (the true value is below `1e-38` there, so the absolute
//!   error is negligible for log-sum-exp, whose terms are anchored by an
//!   `exp(0) = 1` summand).
//! * [`fast_ln`]: absolute error ≤ [`FAST_LN_ABS_ERR`] for normal positive
//!   inputs (subnormals fall back to libm).
//! * [`fast_log_sum_exp`]: absolute error ≤ [`FASTMATH_LSE_ABS_BOUND`]
//!   against the exact max-shifted log-sum-exp over the same summands.
//!
//! The bounds are enforced by unit tests here and property tests in
//! `crates/am/tests/proptests.rs`; the end-to-end consequence (zero
//! decision flips on the seed corpus) is measured by `perfbaseline` and
//! gated in CI. Everything stays scalar-callable so the block kernels can
//! keep their existing loop shapes and let the autovectorizer work.

use std::f32::consts::{LN_2, LOG2_E, SQRT_2};

/// Which arithmetic the scoring kernels use.
///
/// `Exact` is the historical path: libm transcendentals, bit-identical to
/// every previously persisted artifact. `FastMath` swaps in the polynomial
/// kernels from this module — bounded error, not bit-identical — and is
/// only reachable by explicit opt-in (decoder config, `--fast-math`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScoringMode {
    #[default]
    Exact,
    FastMath,
}

impl ScoringMode {
    /// Wire byte for artifact payloads (`0` exact, `1` fast-math).
    pub fn to_u8(self) -> u8 {
        match self {
            ScoringMode::Exact => 0,
            ScoringMode::FastMath => 1,
        }
    }

    /// Inverse of [`ScoringMode::to_u8`]; unknown bytes are rejected so a
    /// future mode can't silently decode as one of today's.
    pub fn from_u8(b: u8) -> Option<ScoringMode> {
        match b {
            0 => Some(ScoringMode::Exact),
            1 => Some(ScoringMode::FastMath),
            _ => None,
        }
    }

    pub fn is_fast(self) -> bool {
        self == ScoringMode::FastMath
    }

    /// Human-readable label used by CLI output and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScoringMode::Exact => "exact",
            ScoringMode::FastMath => "fast-math",
        }
    }
}

/// Relative-error contract for [`fast_exp`] on `[-87, 88]`.
pub const FAST_EXP_REL_ERR: f32 = 2e-6;

/// Absolute-error contract for [`fast_ln`] on normal positive inputs.
pub const FAST_LN_ABS_ERR: f32 = 1e-5;

/// Absolute-error contract for [`fast_log_sum_exp`] versus the exact
/// max-shifted log-sum-exp (error budget: per-term `fast_exp` relative
/// error, f32 resummation, and the final `fast_ln`).
pub const FASTMATH_LSE_ABS_BOUND: f32 = 5e-5;

/// Polynomial `e^x`.
///
/// Range reduction: `e^x = 2^n · e^t` with `n = round(x·log2 e)` and the
/// residual `t = x − n·ln 2` recovered by a Cody–Waite two-constant split
/// (the high part of `ln 2` multiplies `n` exactly, so the subtraction
/// doesn't amplify rounding at large `|x|`), then a degree-6 Taylor
/// polynomial for `e^t` on `|t| ≤ ln 2 / 2` and an exponent-field bit trick
/// for the `2^n` scale. Inputs are clamped to `[-87.34, 88.0]`: below the
/// clamp (including `-inf`) the result flushes to ≈ `2^-126` instead of a
/// subnormal/zero — harmless for log-sum-exp, where such terms sit next to
/// an `exp(0) = 1` anchor — and above it the result saturates at
/// `e^88 ≈ 1.7e38` rather than overflowing to `inf`.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    // High part holds 10 significand bits, so n·LN2_HI is exact for |n| ≤ 2^14.
    // Written out as the exact f32 value (355/512), not the nearest decimal:
    // the trailing digits are the point of the Cody–Waite split.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(-87.336_54, 88.0);
    // Ties-to-even rounding: same accuracy (any nearest integer keeps the
    // residual inside the polynomial's domain) but, unlike `round`, it maps
    // to a single rounding instruction, so the whole function stays
    // branch-free and autovectorizable inside column-major loops.
    let n = (x * LOG2_E).round_ties_even();
    let t = (x - n * LN2_HI) - n * LN2_LO;
    // Horner degree-6 Taylor for e^t on |t| ≤ ln2/2 ≈ 0.3466.
    let p = 1.0
        + t * (1.0
            + t * (0.5
                + t * (1.0 / 6.0 + t * (1.0 / 24.0 + t * (1.0 / 120.0 + t * (1.0 / 720.0))))));
    // 2^n from the exponent field. The clamp keeps `n + 127` in [1, 254],
    // and adding 2^23 puts that integer in the low significand bits, so
    // one shift moves it into the exponent field. Unlike `n as i32`, whose
    // saturating conversion has no vector instruction, this stays in
    // vector registers.
    let scale = f32::from_bits((n + (8_388_608.0 + 127.0)).to_bits() << 23);
    p * scale
}

/// Polynomial `ln x` for positive inputs.
///
/// Splits `x = 2^e · m` with the mantissa renormalized into
/// `[√2/2, √2)` so the series argument `s = (m−1)/(m+1)` satisfies
/// `|s| ≤ 0.1716`, then uses the atanh expansion
/// `ln m = 2s(1 + s²/3 + s⁴/5 + s⁶/7)` (next term < 3e-8). Zero maps to
/// `-inf`, negatives to NaN, and subnormals fall back to libm — none of
/// which occur on the scoring path, where arguments are sums ≥ 1 or
/// probabilities clamped to ≥ 1e-12.
#[inline]
pub fn fast_ln(x: f32) -> f32 {
    if x < f32::MIN_POSITIVE {
        // Zero, negative, NaN, or subnormal: precision doesn't matter here,
        // semantics do, so defer to libm.
        return x.ln();
    }
    fast_ln_normal(x)
}

/// [`fast_ln`] without its edge-case branch: only meaningful for normal
/// positive `x`. Branch-free, so a loop over a vector of frames
/// autovectorizes; callers route any other input through [`fast_ln`].
#[inline]
pub(crate) fn fast_ln_normal(x: f32) -> f32 {
    let bits = x.to_bits();
    let mut e = ((bits >> 23) as i32) - 127;
    let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000); // [1, 2)
    if m > SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = 2.0 * s * (1.0 + s2 * (1.0 / 3.0 + s2 * (0.2 + s2 * (1.0 / 7.0))));
    e as f32 * LN_2 + p
}

/// Max-shifted log-sum-exp over `vals` using the fast kernels.
///
/// Mirrors the exact path's structure (find max, sum `exp(v − max)`, add
/// `ln(sum)`), so the two differ only through the kernel error bounded by
/// [`FASTMATH_LSE_ABS_BOUND`]. Empty input returns `-inf`; a non-finite
/// max (all `-inf`) short-circuits to it, matching the exact kernels.
#[inline]
pub fn fast_log_sum_exp(vals: &[f32]) -> f32 {
    let mut max = f32::NEG_INFINITY;
    for &v in vals {
        if v > max {
            max = v;
        }
    }
    if !max.is_finite() {
        return max;
    }
    let mut sum = 0.0f32;
    for &v in vals {
        sum += fast_exp(v - max);
    }
    max + fast_ln(sum)
}

/// `1/(1 + e^{-x})` via [`fast_exp`] — the MLP hidden activation.
#[inline]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_exp_relative_error_in_range() {
        let mut worst = 0.0f32;
        let mut x = -87.0f32;
        while x <= 88.0 {
            let exact = x.exp();
            let rel = ((fast_exp(x) - exact) / exact).abs();
            worst = worst.max(rel);
            x += 0.0137; // irrational-ish step to avoid hitting only grid points
        }
        assert!(worst <= FAST_EXP_REL_ERR, "worst rel err {worst}");
    }

    #[test]
    fn fast_exp_extremes() {
        // Below the clamp everything flushes to ≈ 2^-126 — negligible next
        // to the exp(0) = 1 anchor every log-sum-exp carries.
        assert!(fast_exp(f32::NEG_INFINITY) <= 2e-38);
        assert!(fast_exp(-200.0) <= 2e-38);
        assert!((fast_exp(0.0) - 1.0).abs() < 1e-6);
        assert!(fast_exp(200.0).is_finite()); // saturates, not inf
    }

    #[test]
    fn fast_ln_absolute_error_in_range() {
        let mut worst = 0.0f32;
        for i in 1..40_000 {
            let x = i as f32 * 0.003; // (0, 120]
            let d = (fast_ln(x) - x.ln()).abs();
            worst = worst.max(d);
        }
        for &x in &[1e-30f32, 1e-12, 1e-6, 1e6, 1e12, 1e30] {
            let d = (fast_ln(x) - x.ln()).abs();
            worst = worst.max(d);
        }
        assert!(worst <= FAST_LN_ABS_ERR, "worst abs err {worst}");
    }

    #[test]
    fn fast_ln_edge_semantics() {
        assert_eq!(fast_ln(0.0), f32::NEG_INFINITY);
        assert!(fast_ln(-1.0).is_nan());
        assert!((fast_ln(1.0)).abs() < 1e-7);
    }

    #[test]
    fn fast_lse_matches_exact_within_bound() {
        let vals = [-1.25f32, -30.0, 0.0, -3.5, -87.0, -2.0, -0.01, -11.0];
        let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exact: f32 = max + vals.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
        let fast = fast_log_sum_exp(&vals);
        assert!((fast - exact).abs() <= FASTMATH_LSE_ABS_BOUND);
    }

    #[test]
    fn fast_lse_degenerate_inputs() {
        assert_eq!(fast_log_sum_exp(&[]), f32::NEG_INFINITY);
        assert_eq!(
            fast_log_sum_exp(&[f32::NEG_INFINITY, f32::NEG_INFINITY]),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn scoring_mode_roundtrip() {
        for mode in [ScoringMode::Exact, ScoringMode::FastMath] {
            assert_eq!(ScoringMode::from_u8(mode.to_u8()), Some(mode));
        }
        assert_eq!(ScoringMode::from_u8(7), None);
        assert_eq!(ScoringMode::default(), ScoringMode::Exact);
        assert!(ScoringMode::FastMath.is_fast() && !ScoringMode::Exact.is_fast());
    }
}
