//! Scalar and row-wise nonlinear operations: exp, erf, GELU, softmax.
//!
//! Every exponential on the model path is the in-tree [`exp`] — under
//! [`erf`] (hence GELU and its derivative) and under the softmax family —
//! so no model output depends on the host's `expf`. The slice routines
//! ([`gelu_in_place`], [`gelu_backward_in_place`], [`add_bias_in_place`],
//! the softmax exponentials, [`softmax_columns_in_place`]) run the same
//! scalar bodies sixteen lanes wide on AVX-512F hosts and eight lanes wide
//! on AVX2 hosts, and return the same bits as the scalar functions on
//! every host (DESIGN §4i). The one transcendental still taken from libm
//! is `ln`, in [`log_softmax_row`] and in `pivot-nn`'s entropy.

use crate::microkernel::f32_simd_available;
#[cfg(test)]
use std::cell::Cell;

/// Defines a slice routine once and instantiates its body at every width:
/// plainly, inside an AVX2 `target_feature` wrapper and inside an
/// AVX-512F one; the routine dispatches to the widest the host runs
/// ([`slice_lanes`]). The body is ordinary scalar Rust over [`exp`] and
/// friends; inside a wrapper LLVM vectorises its loop eight or sixteen
/// lanes wide. rustc never contracts `a * b + c` into a fused
/// multiply-add, so every instantiation — and each vector loop's scalar
/// tail — rounds identically: same input bits, same output bits, whichever
/// one a host runs.
macro_rules! at_every_width {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f")]
                unsafe fn sixteen_lanes($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                #[target_feature(enable = "avx2")]
                unsafe fn eight_lanes($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                match slice_lanes() {
                    // SAFETY: `slice_lanes()` returns 16 only where this
                    // CPU supports AVX-512F, the only feature the wrapper
                    // enables; its body is safe code.
                    16 => return unsafe { sixteen_lanes($($arg),*) },
                    // SAFETY: as above, 8 only where the CPU has AVX2.
                    8 => return unsafe { eight_lanes($($arg),*) },
                    _ => {}
                }
            }
            body($($arg),*)
        }
    };
}

/// The widest slice-routine instantiation this CPU runs, in `f32` lanes:
/// 16 with AVX-512F, 8 where [`f32_simd_available`], 1 everywhere else.
fn host_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return 16;
    }
    if f32_simd_available() {
        8
    } else {
        1
    }
}

#[cfg(test)]
thread_local! {
    /// The widest instantiation the slice routines may dispatch to on this
    /// thread; the tests narrow it to check every width in turn.
    static LANE_CAP: Cell<usize> = const { Cell::new(16) };
}

/// The instantiation the slice routines dispatch to: [`host_lanes`], and
/// in test builds no wider than this thread's cap.
fn slice_lanes() -> usize {
    #[cfg(test)]
    let cap = LANE_CAP.with(Cell::get);
    #[cfg(not(test))]
    let cap = 16;
    host_lanes().min(cap)
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
#[inline(always)]
pub(crate) fn erf(x: f32) -> f32 {
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
pub(crate) fn gelu_derivative(x: f32) -> f32 {
    let cdf = 0.5 * (1.0 + erf(x * std::f32::consts::FRAC_1_SQRT_2));
    let pdf = exp(-0.5 * x * x) / (2.0 * std::f32::consts::PI).sqrt();
    cdf + x * pdf
}

at_every_width! {
    /// [`gelu`] over a slice, in place: bit for bit `*x = gelu(*x)` for
    /// every element, at the host's vector width.
    pub fn gelu_in_place(xs: &mut [f32]) {
        for x in xs.iter_mut() {
            *x = gelu(*x);
        }
    }
}

at_every_width! {
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

at_every_width! {
    /// The bias epilogue of a linear layer, in place over the product the
    /// GEMM just wrote: adds `bias` to every row of `m` and, with
    /// `gelu_after`, applies [`gelu`] to each sum in the same pass — bit
    /// for bit `*x += b`, or `*x = gelu(*x + b)`, at the host's vector
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != m.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use pivot_tensor::{add_bias_in_place, gelu, Matrix};
    ///
    /// let mut m = Matrix::zeros(2, 3);
    /// add_bias_in_place(&mut m, &[1.0, 2.0, 3.0], true);
    /// assert_eq!(m.row(1), &[gelu(1.0), gelu(2.0), gelu(3.0)]);
    /// ```
    pub fn add_bias_in_place(m: &mut crate::Matrix, bias: &[f32], gelu_after: bool) {
        assert_eq!(bias.len(), m.cols(), "bias length mismatch");
        if bias.is_empty() {
            return;
        }
        let rows = m.as_mut_slice().chunks_exact_mut(bias.len());
        if gelu_after {
            for row in rows {
                for (x, &b) in row.iter_mut().zip(bias) {
                    *x = gelu(*x + b);
                }
            }
        } else {
            for row in rows {
                for (x, &b) in row.iter_mut().zip(bias) {
                    *x += b;
                }
            }
        }
    }
}

at_every_width! {
    /// The softmax's exponential stage, allocating: `exp(x - shift)` mapped
    /// straight from `row` into a new vector (a copy followed by an
    /// in-place pass stalls on store forwarding).
    fn shifted_exps(row: &[f32], shift: f32) -> Vec<f32> {
        // An explicit loop, not `collect`: `Vec::from_iter` is not inlined
        // into the vector wrappers, which would leave the loop four lanes
        // wide.
        let mut out = vec![0.0; row.len()];
        for (o, &x) in out.iter_mut().zip(row) {
            *o = exp(x - shift);
        }
        out
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

at_every_width! {
    /// [`softmax_row`] of every query of one attention score block stored
    /// transposed, in place: `block[c * t + r]` is query `r`'s score for
    /// key `c`, so one query's scores run down a column and each row of
    /// `block` holds one key's score for every query.
    ///
    /// Sixteen queries at a time share one vector, lanes across queries:
    /// three sweeps down the keys fold the max, write `exp(x - max)` and
    /// add it to a running sum, then divide by the sum, the sixteen maxima
    /// and sums held in registers throughout. The `t % 16` queries left over
    /// run one at a time through `softmax_row`'s own stages on a copy of
    /// their column gathered into `column` (`t` floats, overwritten). Each
    /// query's fold and sum stay one sequential chain in ascending key order
    /// from the identities [`softmax_row`] starts from, so column `r` is bit
    /// for bit `softmax_row` of query `r`'s scores, at the host's vector
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != t * t` or `column.len() != t`.
    ///
    /// # Example
    ///
    /// ```
    /// use pivot_tensor::{softmax_columns_in_place, softmax_row};
    ///
    /// // Two queries' scores [1, 2] and [0, -1], stored transposed.
    /// let mut block = [1.0, 0.0, 2.0, -1.0];
    /// softmax_columns_in_place(&mut block, 2, &mut [0.0; 2]);
    /// let (first, second) = (softmax_row(&[1.0, 2.0]), softmax_row(&[0.0, -1.0]));
    /// assert_eq!(block, [first[0], second[0], first[1], second[1]]);
    /// ```
    pub fn softmax_columns_in_place(block: &mut [f32], t: usize, column: &mut [f32]) {
        assert_eq!(block.len(), t * t, "score block is not {t}x{t}");
        assert_eq!(column.len(), t, "softmax column buffer is not {t} long");
        let whole = t - t % QUERY_LANES;
        for lanes in (0..whole).step_by(QUERY_LANES).map(|q| q..q + QUERY_LANES) {
            let mut max = [f32::NEG_INFINITY; QUERY_LANES];
            for keys in block.chunks_exact(t) {
                for (m, &x) in max.iter_mut().zip(&keys[lanes.clone()]) {
                    *m = m.max(x);
                }
            }
            let mut sum: [f32; QUERY_LANES] = [std::iter::empty::<f32>().sum(); QUERY_LANES];
            for keys in block.chunks_exact_mut(t) {
                for ((x, s), &m) in keys[lanes.clone()].iter_mut().zip(&mut sum).zip(&max) {
                    let e = exp(*x - m);
                    *x = e;
                    *s += e;
                }
            }
            for keys in block.chunks_exact_mut(t) {
                for (x, &s) in keys[lanes.clone()].iter_mut().zip(&sum) {
                    *x /= s;
                }
            }
        }
        for r in whole..t {
            for (x, keys) in column.iter_mut().zip(block.chunks_exact(t)) {
                *x = keys[r];
            }
            let max = row_max(column);
            for x in column.iter_mut() {
                *x = exp(*x - max);
            }
            normalize_exps(column);
            for (keys, &p) in block.chunks_exact_mut(t).zip(column.iter()) {
                keys[r] = p;
            }
        }
    }
}

/// Queries per vector of [`softmax_columns_in_place`]: the widest
/// instantiation's lanes (two vectors at eight lanes, so neither width
/// leaves a tail inside a group).
const QUERY_LANES: usize = 16;

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
        // One query's scores by kind: finite, one NaN of either sign, one
        // -inf (masked), all -inf, one +inf, signed zeros only, and a
        // spread wide enough that some exponentials flush to zero.
        const KINDS: usize = 8;
        let query = |kind: usize, r: usize, t: usize, rng: &mut crate::Rng| {
            let spread = if kind == 7 { 100.0 } else { 8.0 };
            let mut row: Vec<f32> = (0..t).map(|_| rng.uniform(-spread, spread)).collect();
            let at = (7 * r + kind) % t;
            match kind {
                1 => row[at] = f32::NAN,
                2 => row[at] = -f32::NAN,
                3 => row[at] = f32::NEG_INFINITY,
                4 => row.fill(f32::NEG_INFINITY),
                5 => row[at] = f32::INFINITY,
                6 => {
                    for (c, x) in row.iter_mut().enumerate() {
                        *x = if (c + r).is_multiple_of(2) { 0.0 } else { -0.0 };
                    }
                }
                _ => {}
            }
            row
        };
        let mut rng = crate::Rng::new(5);
        // Queries left over past the whole groups of sixteen: 1, 2, 15, 0,
        // 1, 1 and 5.
        for t in [1, 2, 15, 16, 17, 33, 197] {
            // Every kind at every lane position over the shifts.
            for shift in 0..KINDS {
                let rows: Vec<Vec<f32>> = (0..t)
                    .map(|r| query((r + shift) % KINDS, r, t, &mut rng))
                    .collect();
                let transposed: Vec<f32> = (0..t * t).map(|i| rows[i % t][i / t]).collect();
                at_each_width(|lanes| {
                    let mut block = transposed.clone();
                    softmax_columns_in_place(&mut block, t, &mut vec![f32::NAN; t]);
                    for (r, row) in rows.iter().enumerate() {
                        for (c, want) in softmax_row(row).into_iter().enumerate() {
                            assert_eq!(
                                block[c * t + r].to_bits(),
                                want.to_bits(),
                                "t {t}, shift {shift}, query {r}, key {c}, {lanes} lanes"
                            );
                        }
                    }
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "softmax column buffer is not 3 long")]
    fn block_softmax_rejects_a_short_column_buffer() {
        softmax_columns_in_place(&mut [0.0; 9], 3, &mut [0.0; 2]);
    }

    #[test]
    fn bias_is_added_to_every_row_in_place() {
        let mut m = crate::Matrix::zeros(2, 3);
        add_bias_in_place(&mut m, &[1.0, 2.0, 3.0], false);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        // No columns: nothing to add, whatever the row count.
        add_bias_in_place(&mut crate::Matrix::zeros(4, 0), &[], true);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn bias_of_the_wrong_width_is_rejected() {
        add_bias_in_place(&mut crate::Matrix::zeros(2, 3), &[1.0, 2.0], false);
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
    fn erf_is_zero_at_zero_and_saturates_to_one() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(10.0) - 1.0).abs() < 1e-6);
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

    /// Every instantiation of the slice routines this host runs, widest
    /// (the one it dispatches to) first. The widths it cannot run are
    /// reported on stderr once per process, past the test harness's output
    /// capture, so a passing test on such a host still says what it did
    /// not check.
    fn host_widths() -> Vec<usize> {
        use std::io::Write;
        static REPORT: std::sync::Once = std::sync::Once::new();
        let (run, skipped): (Vec<usize>, Vec<usize>) = [16, 8, 1]
            .into_iter()
            .partition(|&lanes| lanes <= host_lanes());
        REPORT.call_once(|| {
            let mut stderr = std::io::stderr();
            let _ = writeln!(stderr, "slice routines checked at {run:?} lanes");
            if !skipped.is_empty() {
                let _ = writeln!(
                    stderr,
                    "slice routine widths SKIPPED, the host lacks them: {skipped:?} lanes"
                );
            }
        });
        run
    }

    /// Runs `check` once per width in [`host_widths`], the slice routines
    /// on this thread dispatching to that width's instantiation.
    fn at_each_width(mut check: impl FnMut(usize)) {
        for lanes in host_widths() {
            LANE_CAP.with(|cap| cap.set(lanes));
            assert_eq!(slice_lanes(), lanes, "dispatch ignores the cap");
            check(lanes);
        }
        LANE_CAP.with(|cap| cap.set(16));
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
    /// function equal to the slice stage at every width the host runs
    /// (`x - 0.0` is `x`).
    fn check_exp_contract(patterns: std::ops::RangeInclusive<u32>, step: usize) {
        // Not a multiple of eight: every chunk ends in the vector loop's tail.
        const CHUNK: usize = 4093;
        let mut patterns = patterns.step_by(step).peekable();
        let mut inputs = Vec::with_capacity(CHUNK);
        while patterns.peek().is_some() {
            inputs.clear();
            inputs.extend(patterns.by_ref().take(CHUNK).map(f32::from_bits));
            at_each_width(|lanes| {
                for (&x, &w) in inputs.iter().zip(&shifted_exps(&inputs, 0.0)) {
                    let y = exp(x);
                    assert!(
                        same_bits(y, w),
                        "exp({x:e}): scalar {y:e}, {lanes} lanes {w:e}"
                    );
                }
            });
            for &x in &inputs {
                let y = exp(x);
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
    fn exp_is_within_two_ulp_and_the_same_bits_at_every_width() {
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
    fn special_values_keep_their_fault_signatures_at_every_width() {
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
        at_each_width(|lanes| {
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
                    let what = format!("len {len}, start {start}, {lanes} lanes");

                    let want: Vec<f32> = xs.iter().map(|&x| exp(x)).collect();
                    assert_same_bits(&shifted_exps(xs, 0.0), &want, &format!("exp, {what}"));

                    let want: Vec<f32> = xs.iter().map(|&x| gelu(x)).collect();
                    let mut got = vec![7.0; start + len];
                    got[start..].copy_from_slice(xs);
                    gelu_in_place(&mut got[start..]);
                    assert_same_bits(&got[start..], &want, &format!("gelu, {what}"));

                    let want: Vec<f32> = xs.iter().map(|&x| 1.5 * gelu_derivative(x)).collect();
                    got[start..].fill(1.5);
                    gelu_backward_in_place(&mut got[start..], xs);
                    assert_same_bits(&got[start..], &want, &format!("gelu backward, {what}"));
                    assert_eq!(got[..start], vec![7.0; start], "wrote before the slice");

                    // The bias epilogue: the specials as a bias over two
                    // finite rows, and as the rows under a finite bias.
                    let finite_rows: Vec<f32> = (0..2 * len).map(finite).collect();
                    let finite_bias: Vec<f32> = (0..len).map(|i| finite(i + 5)).collect();
                    for (rows, bias) in [(&finite_rows, xs), (&xs.repeat(2), &finite_bias[..])] {
                        for gelu_after in [false, true] {
                            let what = format!("bias, gelu {gelu_after}, {what}");
                            let want: Vec<f32> = rows
                                .iter()
                                .zip(bias.iter().cycle())
                                .map(|(&x, &b)| if gelu_after { gelu(x + b) } else { x + b })
                                .collect();
                            let mut m = crate::Matrix::from_vec(2, len, rows.clone());
                            add_bias_in_place(&mut m, bias, gelu_after);
                            assert_same_bits(m.as_slice(), &want, &what);
                        }
                    }

                    // The softmax routines: one special at a time, at every
                    // position of an otherwise finite row; the block routine
                    // with `len` queries that all score the keys so.
                    let check_row = |row: &[f32], what: &str| {
                        let want = softmax_reference(row);
                        assert_same_bits(&softmax_row(row), &want, what);
                        let mut block = vec![7.0; start + len * len];
                        for (c, &x) in row.iter().enumerate() {
                            block[start + c * len..][..len].fill(x);
                        }
                        softmax_columns_in_place(&mut block[start..], len, &mut vec![0.0; len]);
                        for (c, &w) in want.iter().enumerate() {
                            let key = &block[start + c * len..][..len];
                            assert_same_bits(key, &vec![w; len], &format!("block, {what}"));
                        }
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
        });
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
            at_each_width(|lanes| {
                let m = crate::Matrix::from_vec(1, row.len(), row.clone());
                let mut activated = row.clone();
                gelu_in_place(&mut activated);
                assert_same_bits(&activated, m.map(gelu).as_slice(), &format!("gelu_in_place vs map(gelu), {lanes} lanes"));

                let mut grad = vec![-0.75; row.len()];
                gelu_backward_in_place(&mut grad, &row);
                let want = m.map(|x| -0.75 * gelu_derivative(x));
                assert_same_bits(&grad, want.as_slice(), &format!("gelu_backward_in_place vs zip_map, {lanes} lanes"));

                let bias = row.iter().map(|&x| 0.5 - x).collect::<Vec<_>>();
                for gelu_after in [false, true] {
                    let mut shifted = m.clone();
                    add_bias_in_place(&mut shifted, &bias, gelu_after);
                    let want = m.zip_map(&crate::Matrix::row_vector(&bias), |x, b| {
                        if gelu_after { gelu(x + b) } else { x + b }
                    });
                    let what = format!("add_bias_in_place, gelu {gelu_after}, {lanes} lanes");
                    assert_same_bits(shifted.as_slice(), want.as_slice(), &what);
                }

                let want = softmax_reference(&row);
                assert_same_bits(&softmax_row(&row), &want, &format!("softmax_row, {lanes} lanes"));

                // The training loss's log-probabilities sit on the same stage.
                let max = row_max(&row);
                let log_sum = row.iter().map(|&x| exp(x - max)).sum::<f32>().ln();
                let want: Vec<f32> = row.iter().map(|&x| x - max - log_sum).collect();
                assert_same_bits(&log_softmax_row(&row), &want, &format!("log_softmax_row, {lanes} lanes"));
            });
        }
    }
}
