//! Scalar and row-wise nonlinear operations: exp, erf, GELU, softmax.
//!
//! Every exponential on the model path is the in-tree [`exp`] — under
//! [`erf`] (hence GELU and its derivative) and under the softmax family —
//! so no model output depends on the host's `expf`. The slice routines
//! ([`gelu_in_place`], [`gelu_backward_in_place`], the softmax rows) run
//! the same scalar bodies eight lanes wide on AVX2 hosts and return the
//! same bits as the scalar functions on every host (DESIGN §4i). The one
//! transcendental still taken from libm is `ln`, in [`log_softmax_row`]
//! and in `pivot-nn`'s entropy.

use crate::microkernel::f32_simd_available;

/// Defines a slice routine once and instantiates its body at two widths:
/// plainly, and inside an AVX2 `target_feature` wrapper that the routine
/// dispatches to on hosts where [`f32_simd_available`]. The body is
/// ordinary scalar Rust over [`exp`] and friends; inside the wrapper LLVM
/// vectorises its loop eight lanes wide. rustc never contracts `a * b + c`
/// into a fused multiply-add, so both instantiations — and the vector
/// loop's scalar tail — round identically: same input bits, same output
/// bits, whichever one a host runs.
macro_rules! at_two_widths {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn eight_lanes($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                if f32_simd_available() {
                    // SAFETY: `f32_simd_available()` has just confirmed that
                    // this CPU supports AVX2, the only feature the wrapper
                    // enables; its body is safe code.
                    return unsafe { eight_lanes($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}

/// Inputs from here up overflow: `exp(x)` rounds to `+inf`.
const EXP_OVERFLOW: f32 = 88.722_84;
/// `ln(f32::MIN_POSITIVE)` rounded up: inputs below it have a subnormal
/// result, which [`exp`] flushes to `+0.0`.
const EXP_UNDERFLOW: f32 = -87.336_54;
/// `1.5 * 2^23`: adding it to `|v| < 2^22` rounds `v` to the nearest
/// integer (ties to even) and leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// Cody-Waite split of `ln 2`: the high part is `355 / 512`, nine
/// significant bits, so `n * LN2_HI` is exact for every `|n| <= 128`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `2^n` for `-126 <= n <= 127`, built from the exponent bits. (Wrapping,
/// here and in [`exp`]: a NaN lane carries a meaningless `n`, and an
/// overflow check would put a branch in the lane body of a debug build.)
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) << 23) as u32)
}

/// The exponential function — the only one on the model path.
///
/// Branch-free, so that a loop over it vectorises: clamp by select, round
/// `x * log2(e)` to an integer `n` with the magic-number add, reduce
/// `r = x - n * ln 2` with a two-constant Cody-Waite subtraction, evaluate
/// Cephes' degree-5 `expf` polynomial on `|r| <= ln(2)/2` (its tail summed
/// as `q * r^2 + (r + 1)`, which keeps `r + 1` off the polynomial's
/// dependency chain), scale by `2^n` in two exact halves (one factor would
/// overflow at `n = 128`, where the result is still finite) and select the
/// under/overflow results.
///
/// The contract (DESIGN §4i; each line pinned by a test in this module):
///
/// * at most 2 ULP from the correctly rounded result wherever that result
///   is a normal `f32`, i.e. on `[-87.33654, 88.72283]` (measured: 1 ULP);
/// * `exp(NaN)` is NaN (the selects are compares, which a NaN fails, not
///   `f32::min`/`max`, which would launder it), `exp(-inf) == +0.0`,
///   `exp(+inf) == +inf`, `exp(±0.0) == 1.0`, overflow gives `+inf`;
/// * a result below the smallest normal flushes to `+0.0`. libm returns
///   subnormals on `[-103.97, -87.34)`; under a softmax the difference is
///   below `1.2e-38` of probability mass per entry;
/// * no fused multiply-add, so every instantiation returns the same bits.
///
/// # Example
///
/// ```
/// assert_eq!(pivot_tensor::exp(0.0), 1.0);
/// assert_eq!(pivot_tensor::exp(f32::NEG_INFINITY), 0.0);
/// assert!((pivot_tensor::exp(1.0) - std::f32::consts::E).abs() < 3e-7);
/// ```
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let c = if x > EXP_OVERFLOW { EXP_OVERFLOW } else { x };
    let c = if c < EXP_UNDERFLOW { EXP_UNDERFLOW } else { c };
    let t = c * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let n_f32 = t - ROUND_MAGIC;
    let r = c - n_f32 * LN2_HI;
    let r = r - n_f32 * LN2_LO;
    let p = (((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_5e-1)
        * r
        + 0.5)
        * (r * r)
        + (r + 1.0);
    let half = n >> 1;
    let y = p * pow2(half) * pow2(n.wrapping_sub(half));
    let y = if x >= EXP_OVERFLOW { f32::INFINITY } else { y };
    if x < EXP_UNDERFLOW {
        0.0
    } else {
        y
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26), with the
/// in-tree [`exp`] under it.
///
/// Maximum absolute error is about `1.5e-7`, which is far below the `f32`
/// noise floor of the models in this workspace.
///
/// # Example
///
/// ```
/// assert!((pivot_tensor::erf(0.0)).abs() < 1e-7);
/// assert!((pivot_tensor::erf(10.0) - 1.0).abs() < 1e-6);
/// ```
#[inline(always)]
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * exp(-x * x);
    sign * y
}

/// Exact (erf-based) GELU activation, as used in the ViT MLP blocks.
///
/// `gelu(x) = x/2 * (1 + erf(x / sqrt(2)))`. Faults stay visible:
/// `gelu(NaN)` is NaN, `gelu(+inf) == +inf` and `gelu(-inf)` is NaN
/// (`-inf * 0`).
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x * std::f32::consts::FRAC_1_SQRT_2))
}

/// Derivative of [`gelu`] with respect to its input.
///
/// `d/dx gelu(x) = Phi(x) + x * phi(x)` where `Phi`/`phi` are the standard
/// normal CDF/PDF.
#[inline(always)]
pub fn gelu_derivative(x: f32) -> f32 {
    let cdf = 0.5 * (1.0 + erf(x * std::f32::consts::FRAC_1_SQRT_2));
    let pdf = exp(-0.5 * x * x) / (2.0 * std::f32::consts::PI).sqrt();
    cdf + x * pdf
}

at_two_widths! {
    /// [`gelu`] over a slice, in place: bit for bit `*x = gelu(*x)` for
    /// every element, eight at a time on AVX2 hosts.
    pub fn gelu_in_place(xs: &mut [f32]) {
        for x in xs.iter_mut() {
            *x = gelu(*x);
        }
    }
}

at_two_widths! {
    /// Back-propagates through [`gelu_in_place`]: scales each upstream
    /// gradient by the activation's slope at its pre-activation, bit for
    /// bit `*g = *g * gelu_derivative(x)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn gelu_backward_in_place(grad: &mut [f32], pre: &[f32]) {
        assert_eq!(grad.len(), pre.len(), "gelu_backward_in_place length mismatch");
        for (g, &x) in grad.iter_mut().zip(pre) {
            *g *= gelu_derivative(x);
        }
    }
}

at_two_widths! {
    /// The softmax's exponential stage, allocating: `exp(x - shift)` mapped
    /// straight from `row` into a new vector (a copy followed by
    /// [`shifted_exps_in_place`] stalls on store forwarding).
    fn shifted_exps(row: &[f32], shift: f32) -> Vec<f32> {
        // An explicit loop, not `collect`: `Vec::from_iter` is not inlined
        // into the AVX2 wrapper, which would leave the loop four lanes wide.
        let mut out = vec![0.0; row.len()];
        for (o, &x) in out.iter_mut().zip(row) {
            *o = exp(x - shift);
        }
        out
    }
}

at_two_widths! {
    /// The softmax's exponential stage, overwriting its input.
    fn shifted_exps_in_place(row: &mut [f32], shift: f32) {
        for x in row.iter_mut() {
            *x = exp(*x - shift);
        }
    }
}

/// Numerically stable softmax of one row (paper Eq. 2: subtracts the max
/// before exponentiation).
///
/// Returns a vector of the same length summing to 1. An empty input returns
/// an empty vector. A masked (`-inf`) score gets probability exactly `0.0`;
/// an all-`-inf` row is all NaN and a NaN score poisons its row.
pub fn softmax_row(row: &[f32]) -> Vec<f32> {
    let mut out = shifted_exps(row, row_max(row));
    normalize_exps(&mut out);
    out
}

/// [`softmax_row`] overwriting its input, for callers that own the row
/// (the attention core's score buffer, [`stable_softmax_in_place`]). The
/// two differ only in where `exp(x - max)` is written; the max fold and
/// the sum-and-divide are the same functions, so they agree bit for bit.
pub fn softmax_row_in_place(row: &mut [f32]) {
    let max = row_max(row);
    shifted_exps_in_place(row, max);
    normalize_exps(row);
}

/// The softmax shift: the row maximum, `-inf` for an empty row.
fn row_max(row: &[f32]) -> f32 {
    row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
}

/// Divides `exp(x - max)` values by their sequential sum.
fn normalize_exps(exps: &mut [f32]) {
    let sum: f32 = exps.iter().sum();
    for e in exps.iter_mut() {
        *e /= sum;
    }
}

/// Numerically stable log-softmax of one row, on the same exponential
/// stage as [`softmax_row`].
///
/// An empty input returns an empty vector.
pub fn log_softmax_row(row: &[f32]) -> Vec<f32> {
    if row.is_empty() {
        return Vec::new();
    }
    let max = row_max(row);
    let mut out = shifted_exps(row, max);
    let log_sum = out.iter().sum::<f32>().ln();
    for (o, &x) in out.iter_mut().zip(row) {
        *o = x - max - log_sum;
    }
    out
}

/// Applies the stable softmax to every row of a matrix in place.
pub fn stable_softmax_in_place(m: &mut crate::Matrix) {
    for r in 0..m.rows() {
        softmax_row_in_place(m.row_mut(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one() {
        let s = softmax_row(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn every_softmax_entry_point_is_the_same_bits() {
        // Finite, masked (-inf), degenerate (all -inf) and NaN rows.
        let rows: [&[f32]; 5] = [
            &[0.3, -1.5, 2.25, 0.0, -0.0],
            &[1.0, f32::NEG_INFINITY, 0.5, 7.0, -3.0],
            &[f32::NEG_INFINITY; 5],
            &[0.0, f32::NAN, 1.0, 2.0, 3.0],
            &[88.0, -88.0, 0.1, 0.2, 0.3],
        ];
        let mut m = crate::Matrix::from_rows(&rows);
        stable_softmax_in_place(&mut m);
        for (r, row) in rows.iter().enumerate() {
            let mut in_place = row.to_vec();
            softmax_row_in_place(&mut in_place);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&softmax_row(row)), bits(&in_place), "row {r}");
            assert_eq!(bits(m.row(r)), bits(&in_place), "row {r}");
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax_row(&[1.0, 2.0, 3.0]);
        let b = softmax_row(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let s = softmax_row(&[1e30f32.ln(), 0.0]);
        assert!(s.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let row = [0.5, -1.0, 2.0, 0.0];
        let ls = log_softmax_row(&row);
        let s = softmax_row(&row);
        for (l, p) in ls.iter().zip(&s) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_reference_points() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.84134).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.15866).abs() < 1e-3);
        // Large positive saturates to identity, large negative to zero.
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_derivative_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_derivative(x) - fd).abs() < 1e-3,
                "x={x}: analytic {} fd {fd}",
                gelu_derivative(x)
            );
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        assert!(softmax_row(&[]).is_empty());
        assert!(log_softmax_row(&[]).is_empty());
    }

    #[test]
    fn softmax_with_some_neg_inf_underflows_to_zero_probability() {
        // A -inf logit is a representable "impossible class": it must get
        // probability exactly 0 while the rest stays a valid distribution.
        let s = softmax_row(&[0.0, f32::NEG_INFINITY, 1.0]);
        assert_eq!(s[1], 0.0);
        assert!(s.iter().all(|p| p.is_finite()));
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_degenerate_rows_produce_nan_fault_signature() {
        // All--inf and NaN-containing rows cannot form a distribution; the
        // kernel propagates NaN and callers (pivot-nn's normalized entropy,
        // the cascade gate) are responsible for mapping that to a defined
        // escalate/degrade decision. This test pins the fault signature.
        let all_neg_inf = softmax_row(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert!(all_neg_inf.iter().all(|p| p.is_nan()));
        let with_nan = softmax_row(&[0.0, f32::NAN]);
        assert!(with_nan.iter().any(|p| p.is_nan()));
    }

    /// Bit equality, with every NaN equal to every NaN.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(same_bits(g, w), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    /// The softmax stages one scalar call at a time: what the row routines
    /// must reproduce bit for bit at either width.
    fn softmax_reference(row: &[f32]) -> Vec<f32> {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let exps: Vec<f32> = row.iter().map(|&x| exp(x - max)).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter().map(|&e| e / sum).collect()
    }

    /// Contract lines 1-3 of [`exp`] on every `step`-th bit pattern of
    /// `patterns`: within 2 ULP of `f64::exp` rounded once wherever that is
    /// a normal `f32`, the defined result everywhere else, and the scalar
    /// function equal to the dispatched slice stage (`x - 0.0` is `x`).
    fn check_exp_contract(patterns: std::ops::RangeInclusive<u32>, step: usize) {
        // Not a multiple of eight: every chunk ends in the vector loop's tail.
        const CHUNK: usize = 4093;
        let mut patterns = patterns.step_by(step).peekable();
        let mut inputs = Vec::with_capacity(CHUNK);
        while patterns.peek().is_some() {
            inputs.clear();
            inputs.extend(patterns.by_ref().take(CHUNK).map(f32::from_bits));
            let mut wide = inputs.clone();
            shifted_exps_in_place(&mut wide, 0.0);
            for (&x, &w) in inputs.iter().zip(&wide) {
                let y = exp(x);
                assert!(same_bits(y, w), "exp({x:e}): scalar {y:e}, slice {w:e}");
                let want = f64::from(x).exp() as f32;
                if x.is_nan() {
                    assert!(y.is_nan(), "exp(NaN) = {y:e}");
                } else if want.is_normal() {
                    let ulps = y.to_bits().abs_diff(want.to_bits());
                    assert!(ulps <= 2, "exp({x:e}) = {y:e}, want {want:e}: {ulps} ULP");
                } else if want == f32::INFINITY {
                    assert_eq!(y, f32::INFINITY, "exp({x:e})");
                } else {
                    assert_eq!(y.to_bits(), 0, "exp({x:e}) = {y:e} must flush to +0.0");
                }
            }
        }
    }

    #[test]
    fn exp_is_within_two_ulp_and_the_same_bits_at_both_widths() {
        check_exp_contract(0..=u32::MAX, 1021);
        // Every input around the two ends of the normal-result range, the
        // `n = 128` band under overflow included.
        for edge in [EXP_UNDERFLOW, 88.0, EXP_OVERFLOW] {
            check_exp_contract(edge.to_bits() - 100_000..=edge.to_bits() + 100_000, 1);
        }
    }

    #[test]
    #[ignore = "all 2^32 bit patterns: about 2.5 CPU-minutes in release"]
    fn exp_exhaustive_all_bit_patterns() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let first = ((t << 32) / threads) as u32;
                let last = ((((t + 1) << 32) / threads) - 1) as u32;
                scope.spawn(move || check_exp_contract(first..=last, 1));
            }
        });
    }

    #[test]
    fn special_values_keep_their_fault_signatures_at_both_widths() {
        let largest_subnormal = f32::from_bits(0x007F_FFFF);
        // Contract line 2, by bits; `None` is NaN, and the two finite
        // results above 1.0 are held to the ULP bound instead.
        let exp_table = [
            (f32::NAN, None),
            (-f32::NAN, None),
            (f32::INFINITY, Some(f32::INFINITY)),
            (f32::NEG_INFINITY, Some(0.0)),
            (0.0, Some(1.0)),
            (-0.0, Some(1.0)),
            (largest_subnormal, Some(1.0)),
            (-87.4, Some(0.0)),
            (-104.0, Some(0.0)),
            (88.0, Some(88.0f64.exp() as f32)),
            (88.7, Some(f64::from(88.7f32).exp() as f32)),
            (88.8, Some(f32::INFINITY)),
        ];
        for (x, want) in exp_table {
            match want {
                None => assert!(exp(x).is_nan(), "exp({x:e})"),
                Some(w) if w.is_finite() && w > 1.0 => {
                    assert!(exp(x).to_bits().abs_diff(w.to_bits()) <= 2, "exp({x:e})")
                }
                Some(w) => assert_eq!(exp(x).to_bits(), w.to_bits(), "exp({x:e})"),
            }
        }
        // Contract line 4: GELU keeps a fault visible.
        assert!(gelu(f32::NAN).is_nan() && gelu(-f32::NAN).is_nan());
        assert_eq!(gelu(f32::INFINITY), f32::INFINITY);
        assert!(gelu(f32::NEG_INFINITY).is_nan());
        assert!(gelu_derivative(f32::NAN).is_nan());

        let specials = exp_table.map(|(x, _)| x);
        let finite = |i: usize| 0.37 * i as f32 - 3.0;
        for len in 0..=33usize {
            // A `Vec<f32>`'s first element and the one after it: at most
            // one of the two starts is 32-byte aligned.
            for start in [0, 1] {
                // The slice forms against the scalar functions, the specials
                // rotating through every position, tail positions included.
                let xs: Vec<f32> = (0..start + len)
                    .map(|i| specials[(i + len) % specials.len()])
                    .collect();
                let xs = &xs[start..];
                let what = format!("len {len}, start {start}");

                let want: Vec<f32> = xs.iter().map(|&x| exp(x)).collect();
                assert_same_bits(&shifted_exps(xs, 0.0), &want, &format!("exp, {what}"));
                let mut got = vec![7.0; start + len];
                got[start..].copy_from_slice(xs);
                shifted_exps_in_place(&mut got[start..], 0.0);
                assert_same_bits(&got[start..], &want, &format!("exp in place, {what}"));

                let want: Vec<f32> = xs.iter().map(|&x| gelu(x)).collect();
                got[start..].copy_from_slice(xs);
                gelu_in_place(&mut got[start..]);
                assert_same_bits(&got[start..], &want, &format!("gelu, {what}"));

                let want: Vec<f32> = xs.iter().map(|&x| 1.5 * gelu_derivative(x)).collect();
                got[start..].fill(1.5);
                gelu_backward_in_place(&mut got[start..], xs);
                assert_same_bits(&got[start..], &want, &format!("gelu backward, {what}"));
                assert_eq!(got[..start], vec![7.0; start], "wrote before the slice");

                // The softmax row routines: one special at a time, at every
                // position of an otherwise finite row.
                let mut check_row = |row: &[f32], what: &str| {
                    let want = softmax_reference(row);
                    assert_same_bits(&softmax_row(row), &want, what);
                    got[start..].copy_from_slice(row);
                    softmax_row_in_place(&mut got[start..]);
                    assert_same_bits(&got[start..], &want, what);
                    want
                };
                let mut row: Vec<f32> = (0..start + len).map(finite).collect();
                for &s in &specials {
                    for at in start..start + len {
                        row[at] = s;
                        let what = format!("softmax, {s:e} at {at}, {what}");
                        let probs = check_row(&row[start..], &what);
                        let poisoned = s.is_nan()
                            || s == f32::INFINITY
                            || (s == f32::NEG_INFINITY && len == 1);
                        if poisoned {
                            assert!(probs.iter().all(|p| p.is_nan()), "{what}");
                        } else {
                            assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "{what}");
                            if s == f32::NEG_INFINITY {
                                assert_eq!(probs[at - start].to_bits(), 0, "{what}");
                            }
                        }
                        row[at] = finite(at);
                    }
                }
                let masked = vec![f32::NEG_INFINITY; start + len];
                let probs = check_row(&masked[start..], &format!("all -inf, {what}"));
                assert!(probs.iter().all(|p| p.is_nan()));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_softmax_simplex(row in proptest::collection::vec(-20.0f32..20.0, 1..32)) {
            let s = softmax_row(&row);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
            prop_assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }

        #[test]
        fn prop_softmax_order_preserving(row in proptest::collection::vec(-20.0f32..20.0, 2..16)) {
            let s = softmax_row(&row);
            for i in 0..row.len() {
                for j in 0..row.len() {
                    if row[i] > row[j] {
                        prop_assert!(s[i] >= s[j]);
                    }
                }
            }
        }

        #[test]
        fn prop_erf_bounded_and_odd(x in -6.0f32..6.0) {
            prop_assert!(erf(x).abs() <= 1.0 + 1e-6);
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-6);
        }

        #[test]
        fn prop_slice_forms_match_the_scalar_functions_bitwise(
            values in proptest::collection::vec(-30.0f32..30.0, 0..401),
            fault in 0usize..4,
            at in 0usize..400,
        ) {
            let mut row = values;
            if let Some(x) = row.get_mut(at) {
                match fault {
                    0 => *x = f32::NAN,
                    1 => *x = f32::NEG_INFINITY,
                    _ => {}
                }
            }
            let m = crate::Matrix::from_vec(1, row.len(), row.clone());
            let mut activated = row.clone();
            gelu_in_place(&mut activated);
            assert_same_bits(&activated, m.map(gelu).as_slice(), "gelu_in_place vs map(gelu)");

            let mut grad = vec![-0.75; row.len()];
            gelu_backward_in_place(&mut grad, &row);
            let want = m.map(|x| -0.75 * gelu_derivative(x));
            assert_same_bits(&grad, want.as_slice(), "gelu_backward_in_place vs zip_map");

            let want = softmax_reference(&row);
            assert_same_bits(&softmax_row(&row), &want, "softmax_row");
            let mut in_place = row.clone();
            softmax_row_in_place(&mut in_place);
            assert_same_bits(&in_place, &want, "softmax_row_in_place");

            // The training loss's log-probabilities sit on the same stage.
            let max = row_max(&row);
            let log_sum = row.iter().map(|&x| exp(x - max)).sum::<f32>().ln();
            let want: Vec<f32> = row.iter().map(|&x| x - max - log_sum).collect();
            assert_same_bits(&log_softmax_row(&row), &want, "log_softmax_row");
        }
    }
}
