//! Packed int8 GEMM: the true integer deployment path.
//!
//! The fake-quant pipeline ([`QuantParams::fake_quant_matrix`]) simulates
//! 8-bit numerics while still storing and multiplying `f32` — full-precision
//! memory traffic and FLOPs. This module is the real thing: weights are
//! stored as `i8` **panels** (one contiguous panel per output column, i.e.
//! the transposed weight laid out row-major), activations are quantized
//! per-row on the fly, and the product is accumulated in `i32` before being
//! requantized back to `f32` through [`QuantParams::requantize`].
//!
//! Numerics contract (see `DESIGN.md` §4e): the weight quantizer is the same
//! symmetric per-tensor fit the fake-quant reference uses, so the *weight*
//! error is identical; the only divergence is the per-row activation
//! quantization, bounded by half an activation quantization step per input.
//! The `pivot-vit` property tests pin int8 logits to the fake-quant
//! reference within a documented tolerance.
//!
//! Fault visibility: `i8` has no code for NaN/±inf, so quantizing a
//! corrupted value would launder it into a healthy-looking finite number.
//! Instead, non-finite values are detected *before* quantization — a
//! corrupted weight poisons its output column, a corrupted activation
//! poisons its output row, both to NaN — preserving the PR 4 contract that
//! faults stay visible to downstream health checks.

use crate::{Matrix, QuantParams};

/// An `i8`-storage weight matrix packed for the int8 GEMM.
///
/// The logical matrix is `in_dim x out_dim` (same orientation as the `W` in
/// `y = x W`); storage is the transpose, row-major: panel `j` is the
/// `in_dim` quantized weights feeding output column `j`, contiguous in
/// memory so the reduction loop streams exactly one cache-friendly panel
/// per output element. One byte per weight — a quarter of the `f32`
/// effective-weight traffic.
///
/// # Example
///
/// ```
/// use pivot_tensor::{matmul_quantized, Matrix, PackedInt8, Rng};
///
/// let mut rng = Rng::new(0);
/// let x = Matrix::randn(4, 8, 1.0, &mut rng);
/// let w = Matrix::randn(8, 3, 0.02, &mut rng);
/// let packed = PackedInt8::pack(&w);
/// let y = matmul_quantized(&x, &packed);
/// assert_eq!(y.shape(), (4, 3));
/// assert!(y.approx_eq(&x.matmul(&packed.dequantize()), 0.05));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInt8 {
    params: QuantParams,
    in_dim: usize,
    out_dim: usize,
    /// `out_dim` panels of `in_dim` bytes each (the transposed weight).
    data: Vec<i8>,
    /// Output columns fed by at least one non-finite source weight; the
    /// GEMM poisons these columns to NaN. Empty for healthy weights.
    poisoned_cols: Vec<usize>,
}

impl PackedInt8 {
    /// Packs a weight matrix with a symmetric quantizer fitted to its own
    /// range — the same fit the fake-quant reference path uses, so both
    /// paths share one weight grid.
    pub fn pack(w: &Matrix) -> Self {
        Self::pack_with(w, QuantParams::fit_symmetric(w))
    }

    /// Packs a weight matrix with caller-provided parameters.
    ///
    /// Columns containing non-finite weights are recorded and poisoned to
    /// NaN by the GEMM instead of being quantized into finite codes.
    pub fn pack_with(w: &Matrix, params: QuantParams) -> Self {
        let (in_dim, out_dim) = w.shape();
        let mut data = vec![0i8; in_dim * out_dim];
        let mut poisoned_cols = Vec::new();
        for j in 0..out_dim {
            let panel = &mut data[j * in_dim..(j + 1) * in_dim];
            let mut healthy = true;
            for (k, q) in panel.iter_mut().enumerate() {
                let v = w[(k, j)];
                healthy &= v.is_finite();
                *q = params.quantize(v);
            }
            if !healthy {
                poisoned_cols.push(j);
            }
        }
        Self {
            params,
            in_dim,
            out_dim,
            data,
            poisoned_cols,
        }
    }

    /// The weight quantizer.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Input dimensionality (rows of the logical weight).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality (columns of the logical weight).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Storage footprint of the packed weights in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// 128-bit structural content hash: quantizer grid, shape, every
    /// packed code, and the poisoned-column set. Two packs hash equal
    /// exactly when the int8 GEMM through them is bit-identical — the
    /// sharing contract the content-addressed store relies on.
    pub fn content_hash(&self) -> u128 {
        let mut h = crate::ContentHasher::new();
        h.write_f32(self.params.scale());
        h.write_i32(self.params.zero_point());
        h.write_usize(self.in_dim);
        h.write_usize(self.out_dim);
        h.write_i8_slice(&self.data);
        h.write_usize_slice(&self.poisoned_cols);
        h.finish()
    }

    /// The contiguous panel of quantized weights for output column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.out_dim()`.
    pub fn panel(&self, j: usize) -> &[i8] {
        assert!(
            j < self.out_dim,
            "panel {j} out of {} columns",
            self.out_dim
        );
        &self.data[j * self.in_dim..(j + 1) * self.in_dim]
    }

    /// Whether any output column is poisoned by a non-finite source weight.
    pub fn is_poisoned(&self) -> bool {
        !self.poisoned_cols.is_empty()
    }

    /// Reconstructs the dequantized `f32` weight in its logical
    /// (`in_dim x out_dim`) orientation. Poisoned columns come back as NaN,
    /// mirroring what the GEMM computes with them.
    pub fn dequantize(&self) -> Matrix {
        let mut w = Matrix::from_fn(self.in_dim, self.out_dim, |k, j| {
            self.params.dequantize(self.data[j * self.in_dim + k])
        });
        for &j in &self.poisoned_cols {
            for k in 0..self.in_dim {
                w[(k, j)] = f32::NAN;
            }
        }
        w
    }
}

/// `x * W` through the packed int8 pipeline, allocating the output.
///
/// See [`matmul_quantized_into`] for the kernel contract.
///
/// # Panics
///
/// Panics if `x.cols() != w.in_dim()`.
pub fn matmul_quantized(x: &Matrix, w: &PackedInt8) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.out_dim());
    matmul_quantized_into(x, w, &mut out);
    out
}

/// `x * W` through the packed int8 pipeline into a caller-owned buffer.
///
/// Per activation row: a symmetric quantizer is fitted to the row (the same
/// `max_abs / 127` grid as [`QuantParams::fit_symmetric_slice`]), the row
/// is quantized into a reusable widened (`i16`) scratch, and each output
/// element is one `i8 x i8 -> i32` dot product against a contiguous weight
/// panel. Accumulators are requantized to `f32` through the combined
/// row-by-weight quantizer ([`QuantParams::requantize`]).
///
/// Activation codes are computed as `trunc(x * (1/step) + copysign(0.5, x))`
/// rather than `round(x / step)`: the divide + half-away-from-zero round
/// sequence costs more than the integer GEMM itself on the baseline target,
/// while the reciprocal-multiply form stays within one code of the
/// [`QuantParams::quantize`] grid (see `quantize_activation`) — noise
/// already inside the documented int8-vs-fake-quant tolerance.
///
/// Two kernels compute the dot products, following the same two-path
/// pattern as `matmul_naive` vs the dispatched kernel: a portable reference
/// loop with unrolled `i32` accumulator lanes over the contiguous panels
/// (the shape the autovectorizer maps onto integer multiply-add lanes),
/// and on `x86_64` with runtime-detected AVX2 an explicit `pmaddwd`
/// microkernel, four panels per sweep. Integer accumulation is exact and
/// order-independent, so the two are **bit-identical** — dispatch can
/// never change results — and results are a pure function of the inputs,
/// independent of batching.
///
/// Fault visibility: rows containing non-finite activations and columns
/// containing non-finite weights are poisoned to NaN *after* the integer
/// sweep — quantizing them would launder the fault into a finite code.
///
/// # Panics
///
/// Panics if `x.cols() != w.in_dim()` or `out` is not
/// `x.rows() x w.out_dim()`.
pub fn matmul_quantized_into(x: &Matrix, w: &PackedInt8, out: &mut Matrix) {
    assert_eq!(
        x.cols(),
        w.in_dim,
        "matmul_quantized shape mismatch: {:?} x {}x{}",
        x.shape(),
        w.in_dim,
        w.out_dim
    );
    assert_eq!(
        out.shape(),
        (x.rows(), w.out_dim),
        "matmul_quantized_into output shape mismatch"
    );
    let k_dim = w.in_dim;
    let w_scale = w.params.scale();
    let mut qa = vec![0i16; k_dim];
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
    for i in 0..x.rows() {
        let a_row = x.row(i);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 support was verified at runtime above.
        let fitted = if use_avx2 {
            unsafe { avx2::prep_row(a_row, &mut qa) }
        } else {
            prep_row(a_row, &mut qa)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let fitted = prep_row(a_row, &mut qa);
        let out_row = out.row_mut(i);
        let Some(row_scale) = fitted else {
            // A corrupted activation must not be laundered through a finite
            // i8 code: the whole output row it feeds is poisoned, matching
            // the f32 path where NaN contaminates every dot product it
            // enters.
            out_row.fill(f32::NAN);
            continue;
        };
        // Combined quantizer of the i32 accumulator: the product of the two
        // operand scales (both >= MIN_SCALE, so the product stays positive).
        let requant = QuantParams::new((row_scale as f64 * w_scale as f64) as f32, 0);
        gemm_row(&qa, &w.data, k_dim, requant, out_row);
    }
    for &j in &w.poisoned_cols {
        for i in 0..x.rows() {
            out[(i, j)] = f32::NAN;
        }
    }
}

/// Portable activation-row preparation: one pass computing the finite check
/// and `max_abs`, then (for healthy rows) the symmetric fit
/// `scale = (max_abs / 127).max(MIN_SCALE)` — the identical grid to
/// [`QuantParams::fit_symmetric_slice`] — and the quantization of the row
/// into the widened `i16` scratch via [`quantize_activation`].
///
/// Returns `None` when the row contains any non-finite value (the caller
/// poisons the output row; `qa` contents are then unspecified), otherwise
/// `Some(scale)`. The AVX2 variant ([`avx2::prep_row`]) is bit-identical on
/// every input: `max` is order-independent, and the quantization formula is
/// the same sequence of IEEE operations in both.
fn prep_row(a_row: &[f32], qa: &mut [i16]) -> Option<f32> {
    let mut max_abs = 0f32;
    let mut finite = true;
    for &v in a_row {
        finite &= v.is_finite();
        max_abs = max_abs.max(v.abs());
    }
    if !finite {
        return None;
    }
    let scale = (max_abs / 127.0).max(QuantParams::MIN_SCALE);
    let inv = 1.0 / scale;
    for (q, &v) in qa.iter_mut().zip(a_row) {
        *q = quantize_activation(v, inv);
    }
    Some(scale)
}

/// The activation quantization formula shared by both row-prep paths:
/// `clamp(trunc(v * inv + copysign(0.5, v * inv)), -128, 127)`.
///
/// This is add-half-then-truncate against the reciprocal of the step — the
/// branch-free form whose vector lowering is three cheap instructions —
/// and it lands within one code of `QuantParams::quantize`'s
/// `round(v / step)`: the reciprocal multiply differs from the division by
/// at most a couple of ULP, and the two roundings agree everywhere except
/// within that ULP slack of half-integer boundaries. Callers only invoke
/// this on finite `v` with a row-fitted `inv`, so `v * inv` is always in
/// `[-127.01, 127.01]` and the truncating cast cannot saturate.
#[inline]
fn quantize_activation(v: f32, inv: f32) -> i16 {
    let y = v * inv;
    ((y + 0.5f32.copysign(y)) as i32).clamp(-128, 127) as i16
}

/// One output row of the int8 GEMM: dot products of the widened activation
/// row against every weight panel, requantized into `out_row`. Dispatches
/// to the AVX2 microkernel when available; the portable lane-unrolled loop
/// is the bit-identical reference path.
fn gemm_row(qa: &[i16], panels: &[i8], k_dim: usize, requant: QuantParams, out_row: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if k_dim >= 16 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { avx2::gemm_row(qa, panels, k_dim, requant, out_row) };
        return;
    }
    for (j, o) in out_row.iter_mut().enumerate() {
        let panel = &panels[j * k_dim..(j + 1) * k_dim];
        *o = requant.requantize(dot_panel(qa, panel));
    }
}

/// Portable `i8 x i8 -> i32` panel dot product with eight unrolled `i32`
/// accumulator lanes — a reduction shape the autovectorizer turns into
/// integer multiply-add lanes on any target. Integer adds are associative,
/// so the lane split cannot change the result.
fn dot_panel(qa: &[i16], panel: &[i8]) -> i32 {
    let mut lanes = [0i32; 8];
    for (ca, cp) in qa.chunks_exact(8).zip(panel.chunks_exact(8)) {
        for l in 0..8 {
            lanes[l] += ca[l] as i32 * cp[l] as i32;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&a, &b) in qa
        .chunks_exact(8)
        .remainder()
        .iter()
        .zip(panel.chunks_exact(8).remainder())
    {
        acc += a as i32 * b as i32;
    }
    acc
}

/// Explicit AVX2 microkernel for the int8 GEMM row sweep.
///
/// The baseline `x86-64` target the workspace builds for is SSE2-only,
/// where the autovectorized f32 kernels already saturate the 4-wide FP
/// units — integer code gains nothing at the same width. `pmaddwd`
/// (16 `i16 x i16` products with pairwise `i32` adds per instruction) is
/// what makes int8 pay off, so this path is selected by runtime feature
/// detection, computing exactly the same `i32` accumulators as
/// [`dot_panel`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::QuantParams;
    use std::arch::x86_64::*;

    /// Horizontal max of eight non-negative `f32` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmax(v: __m256) -> f32 {
        let m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b00_00_11_10));
        let m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b00_00_00_01));
        _mm_cvtss_f32(m)
    }

    /// AVX2 activation-row preparation, bit-identical to [`super::prep_row`]
    /// on every input: the finite/`max_abs` scan is 8-wide (`max` is
    /// order-independent, and the unordered `<  inf` compare rejects NaN
    /// exactly like `is_finite`), and the quantize pass applies the same
    /// multiply / add-signed-half / truncate sequence as
    /// [`super::quantize_activation`], 16 lanes per sweep.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support. `qa.len() == a_row.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prep_row(a_row: &[f32], qa: &mut [i16]) -> Option<f32> {
        let n = a_row.len();
        let p = a_row.as_ptr();
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut vmax = _mm256_setzero_ps();
        let mut finite_mask = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        let mut t = 0;
        while t + 8 <= n {
            let a = _mm256_and_ps(_mm256_loadu_ps(p.add(t)), abs_mask);
            finite_mask = _mm256_and_ps(finite_mask, _mm256_cmp_ps::<_CMP_LT_OQ>(a, inf));
            vmax = _mm256_max_ps(vmax, a);
            t += 8;
        }
        let mut finite = _mm256_movemask_ps(finite_mask) == 0xFF;
        let mut max_abs = if finite { hmax(vmax) } else { 0.0 };
        while t < n {
            let v = *p.add(t);
            finite &= v.is_finite();
            max_abs = max_abs.max(v.abs());
            t += 1;
        }
        if !finite {
            return None;
        }
        let scale = (max_abs / 127.0).max(QuantParams::MIN_SCALE);
        let inv = 1.0 / scale;
        let invv = _mm256_set1_ps(inv);
        let half = _mm256_set1_ps(0.5);
        let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let lo = _mm256_set1_epi32(-128);
        let hi = _mm256_set1_epi32(127);
        let q = qa.as_mut_ptr();
        let mut t = 0;
        while t + 16 <= n {
            let y0 = _mm256_mul_ps(_mm256_loadu_ps(p.add(t)), invv);
            let y1 = _mm256_mul_ps(_mm256_loadu_ps(p.add(t + 8)), invv);
            let r0 = _mm256_add_ps(y0, _mm256_or_ps(half, _mm256_and_ps(y0, sign_mask)));
            let r1 = _mm256_add_ps(y1, _mm256_or_ps(half, _mm256_and_ps(y1, sign_mask)));
            let i0 = _mm256_min_epi32(_mm256_max_epi32(_mm256_cvttps_epi32(r0), lo), hi);
            let i1 = _mm256_min_epi32(_mm256_max_epi32(_mm256_cvttps_epi32(r1), lo), hi);
            // packssdw interleaves per 128-bit lane; the permute restores
            // source order before the 16-code store.
            let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi32(i0, i1));
            _mm256_storeu_si256(q.add(t) as *mut __m256i, packed);
            t += 16;
        }
        while t < n {
            *q.add(t) = super::quantize_activation(*p.add(t), inv);
            t += 1;
        }
        Some(scale)
    }

    /// Horizontal sum of eight `i32` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// Sixteen products of a widened activation chunk (loaded once by the
    /// caller, shared across panels) against one panel chunk, accumulated
    /// pairwise into eight `i32` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd16(acc: __m256i, av: __m256i, p: *const i8) -> __m256i {
        let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(p as *const __m128i));
        _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv))
    }

    /// One GEMM output row: four-panel-unrolled `pmaddwd` sweeps sharing
    /// each activation load, a single-panel sweep for the panel tail and a
    /// scalar loop for the sub-16 reduction tail.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support. `qa.len() == k_dim`,
    /// `panels.len() == out_row.len() * k_dim` (guaranteed by the
    /// [`super::PackedInt8`] layout).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_row(
        qa: &[i16],
        panels: &[i8],
        k_dim: usize,
        requant: QuantParams,
        out_row: &mut [f32],
    ) {
        let n = out_row.len();
        let a = qa.as_ptr();
        let k_main = k_dim - k_dim % 16;
        let scale4 = _mm_set1_ps(requant.scale());
        let mut j = 0;
        while j + 4 <= n {
            let p0 = panels.as_ptr().add(j * k_dim);
            let p1 = panels.as_ptr().add((j + 1) * k_dim);
            let p2 = panels.as_ptr().add((j + 2) * k_dim);
            let p3 = panels.as_ptr().add((j + 3) * k_dim);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut t = 0;
            while t < k_main {
                let av = _mm256_loadu_si256(a.add(t) as *const __m256i);
                acc0 = madd16(acc0, av, p0.add(t));
                acc1 = madd16(acc1, av, p1.add(t));
                acc2 = madd16(acc2, av, p2.add(t));
                acc3 = madd16(acc3, av, p3.add(t));
                t += 16;
            }
            // Cross-panel horizontal reduce: three hadds fold the four
            // 8-lane accumulators into one [s0, s1, s2, s3] vector (integer
            // adds in any order — same sums as four independent hsums).
            let t01 = _mm256_hadd_epi32(acc0, acc1);
            let t23 = _mm256_hadd_epi32(acc2, acc3);
            let quad = _mm256_hadd_epi32(t01, t23);
            let mut sums = _mm_add_epi32(
                _mm256_castsi256_si128(quad),
                _mm256_extracti128_si256(quad, 1),
            );
            if t < k_dim {
                let mut s = [0i32; 4];
                _mm_storeu_si128(s.as_mut_ptr() as *mut __m128i, sums);
                while t < k_dim {
                    let av = *a.add(t) as i32;
                    s[0] += av * *p0.add(t) as i32;
                    s[1] += av * *p1.add(t) as i32;
                    s[2] += av * *p2.add(t) as i32;
                    s[3] += av * *p3.add(t) as i32;
                    t += 1;
                }
                sums = _mm_loadu_si128(s.as_ptr() as *const __m128i);
            }
            // Requantize all four outputs at once: cvtdq2ps + mulps is the
            // exact vector form of `QuantParams::requantize` with the
            // kernel's zero point of 0.
            let f = _mm_mul_ps(_mm_cvtepi32_ps(sums), scale4);
            _mm_storeu_ps(out_row.as_mut_ptr().add(j), f);
            j += 4;
        }
        while j < n {
            let p = panels.as_ptr().add(j * k_dim);
            let mut acc = _mm256_setzero_si256();
            let mut t = 0;
            while t < k_main {
                let av = _mm256_loadu_si256(a.add(t) as *const __m256i);
                acc = madd16(acc, av, p.add(t));
                t += 16;
            }
            let mut s = hsum(acc);
            while t < k_dim {
                s += *a.add(t) as i32 * *p.add(t) as i32;
                t += 1;
            }
            out_row[j] = requant.requantize(s);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use proptest::prelude::*;

    #[test]
    fn pack_round_trips_onto_the_fake_quant_grid() {
        let mut rng = Rng::new(1);
        let w = Matrix::randn(16, 8, 0.02, &mut rng);
        let packed = PackedInt8::pack(&w);
        // Same fit as the fake-quant reference: dequantized weights land on
        // the identical grid.
        let qp = QuantParams::fit_symmetric(&w);
        assert_eq!(packed.params(), qp);
        assert_eq!(packed.dequantize(), qp.fake_quant_matrix(&w));
        assert_eq!(packed.size_bytes(), 16 * 8);
        assert!(!packed.is_poisoned());
    }

    #[test]
    fn panels_are_the_transposed_weight() {
        let w = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0], &[-5.0, 6.0]]);
        let packed = PackedInt8::pack(&w);
        let qp = packed.params();
        for j in 0..2 {
            let panel = packed.panel(j);
            assert_eq!(panel.len(), 3);
            for k in 0..3 {
                assert_eq!(panel[k], qp.quantize(w[(k, j)]), "panel {j} elem {k}");
            }
        }
    }

    /// The dequantized activations exactly as the kernel's row prep
    /// computes them: `code * row_scale` per element.
    fn dequantized_activations(x: &Matrix) -> Matrix {
        let mut x_q = Matrix::zeros(x.rows(), x.cols());
        let mut qa = vec![0i16; x.cols()];
        for r in 0..x.rows() {
            let scale = prep_row(x.row(r), &mut qa).expect("finite row");
            for c in 0..x.cols() {
                x_q[(r, c)] = qa[c] as f32 * scale;
            }
        }
        x_q
    }

    #[test]
    fn gemm_matches_f32_gemm_of_dequantized_operands() {
        // The integer kernel must compute exactly x_q * w_q (in real
        // units): compare against the f32 GEMM over both dequantized
        // operands, with a tolerance covering only f32 summation rounding.
        let mut rng = Rng::new(2);
        let x = Matrix::randn(9, 33, 1.0, &mut rng);
        let w = Matrix::randn(33, 7, 0.02, &mut rng);
        let packed = PackedInt8::pack(&w);
        let y = matmul_quantized(&x, &packed);
        let reference = dequantized_activations(&x).matmul(&packed.dequantize());
        assert!(
            y.approx_eq(&reference, 1e-4),
            "int8 GEMM diverged from dequantized reference"
        );
    }

    #[test]
    fn activation_codes_stay_within_one_step_of_the_quantize_grid() {
        // The reciprocal-multiply / add-half-truncate formula is documented
        // to land within one code of QuantParams::quantize's
        // round-half-away grid.
        let mut rng = Rng::new(11);
        let x = Matrix::randn(8, 97, 1.0, &mut rng);
        let mut qa = vec![0i16; x.cols()];
        for r in 0..x.rows() {
            let scale = prep_row(x.row(r), &mut qa).unwrap();
            let qp = QuantParams::fit_symmetric_slice(x.row(r));
            assert_eq!(qp.scale(), scale, "prep fit must match fit_symmetric_slice");
            for (c, &v) in x.row(r).iter().enumerate() {
                let reference = qp.quantize(v) as i16;
                assert!(
                    (qa[c] - reference).abs() <= 1,
                    "row {r} col {c}: code {} vs grid {reference}",
                    qa[c]
                );
            }
        }
    }

    #[test]
    fn avx2_prep_is_bit_identical_to_portable_prep() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut rng = Rng::new(12);
            // Lengths exercising the 16-wide quantize body, the 8-wide scan
            // body and both scalar tails.
            for &n in &[1usize, 7, 8, 15, 16, 17, 31, 32, 64, 100] {
                let row = Matrix::randn(1, n, 2.0, &mut rng);
                let mut qa_ref = vec![0i16; n];
                let mut qa_vec = vec![0i16; n];
                let s_ref = prep_row(row.row(0), &mut qa_ref);
                // SAFETY: AVX2 verified above.
                let s_vec = unsafe { avx2::prep_row(row.row(0), &mut qa_vec) };
                assert_eq!(s_ref, s_vec, "scale diverged at n={n}");
                assert_eq!(qa_ref, qa_vec, "codes diverged at n={n}");
                // Non-finite anywhere: both reject.
                let mut bad = row.clone();
                bad[(0, n / 2)] = f32::NAN;
                assert_eq!(prep_row(bad.row(0), &mut qa_ref), None);
                // SAFETY: AVX2 verified above.
                assert_eq!(unsafe { avx2::prep_row(bad.row(0), &mut qa_vec) }, None);
            }
        }
    }

    #[test]
    fn gemm_is_close_to_full_precision() {
        let mut rng = Rng::new(3);
        let x = Matrix::randn(5, 64, 1.0, &mut rng);
        let w = Matrix::randn(64, 12, 0.02, &mut rng);
        let y = matmul_quantized(&x, &PackedInt8::pack(&w));
        let exact = x.matmul(&w);
        // Error budget: weight step/2 + activation step/2 per product term.
        let tol = 0.05 * exact.max_abs().max(1.0);
        assert!(y.approx_eq(&exact, tol), "int8 too far from f32");
    }

    #[test]
    fn into_variant_reuses_dirty_buffer() {
        let mut rng = Rng::new(4);
        let x = Matrix::randn(3, 8, 1.0, &mut rng);
        let w = Matrix::randn(8, 5, 0.02, &mut rng);
        let packed = PackedInt8::pack(&w);
        let mut out = Matrix::filled(3, 5, f32::NAN);
        matmul_quantized_into(&x, &packed, &mut out);
        assert_eq!(out, matmul_quantized(&x, &packed));
    }

    #[test]
    fn nonfinite_activation_poisons_its_output_row_only() {
        let mut rng = Rng::new(5);
        let mut x = Matrix::randn(4, 6, 1.0, &mut rng);
        x[(2, 3)] = f32::NAN;
        let w = Matrix::randn(6, 5, 0.02, &mut rng);
        let y = matmul_quantized(&x, &PackedInt8::pack(&w));
        for j in 0..5 {
            assert!(y[(2, j)].is_nan(), "row 2 col {j} must be poisoned");
        }
        for i in [0, 1, 3] {
            assert!(y.row(i).iter().all(|v| v.is_finite()), "row {i} healthy");
        }
        // +inf is a fault too, not just NaN.
        x[(2, 3)] = f32::INFINITY;
        let y = matmul_quantized(&x, &PackedInt8::pack(&w));
        assert!(y.row(2).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn nonfinite_weight_poisons_its_output_column_only() {
        let mut rng = Rng::new(6);
        let x = Matrix::randn(4, 6, 1.0, &mut rng);
        let mut w = Matrix::randn(6, 5, 0.02, &mut rng);
        w[(1, 2)] = f32::NAN;
        let packed = PackedInt8::pack(&w);
        assert!(packed.is_poisoned());
        let y = matmul_quantized(&x, &packed);
        for i in 0..4 {
            assert!(y[(i, 2)].is_nan(), "col 2 row {i} must be poisoned");
            for j in [0, 1, 3, 4] {
                assert!(y[(i, j)].is_finite(), "col {j} healthy");
            }
        }
        // The dequantized view shows the same poisoned column.
        let deq = packed.dequantize();
        assert!(deq[(0, 2)].is_nan());
        assert!(deq[(0, 1)].is_finite());
    }

    #[test]
    fn kernel_matches_exact_integer_reference_on_ragged_shapes() {
        // Whichever kernel dispatch selects (AVX2 or the portable lanes),
        // the result must equal the plainly-written i32 accumulation over
        // the quantized operands, bit for bit — including reduction tails
        // (k % 16 != 0) and panel tails (n % 4 != 0).
        let mut rng = Rng::new(7);
        for &(m, k, n) in &[(3, 16, 4), (2, 19, 7), (5, 64, 10), (1, 7, 3), (4, 33, 1)] {
            let x = Matrix::randn(m, k, 1.0, &mut rng);
            let w = Matrix::randn(k, n, 0.02, &mut rng);
            let packed = PackedInt8::pack(&w);
            let y = matmul_quantized(&x, &packed);
            let w_scale = packed.params().scale();
            let mut codes = vec![0i16; k];
            for i in 0..m {
                let scale = prep_row(x.row(i), &mut codes).unwrap();
                let qa: Vec<i32> = codes.iter().map(|&q| q as i32).collect();
                let requant = QuantParams::new((scale as f64 * w_scale as f64) as f32, 0);
                for j in 0..n {
                    let acc: i32 = qa
                        .iter()
                        .zip(packed.panel(j))
                        .map(|(&a, &b)| a * b as i32)
                        .sum();
                    assert_eq!(
                        y[(i, j)],
                        requant.requantize(acc),
                        "kernel diverged at {m}x{k}x{n} elem ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let x = Matrix::zeros(0, 4);
        let w = Matrix::zeros(4, 3);
        assert_eq!(matmul_quantized(&x, &PackedInt8::pack(&w)).shape(), (0, 3));
        let x = Matrix::zeros(2, 4);
        let packed = PackedInt8::pack(&Matrix::zeros(4, 0));
        assert_eq!(matmul_quantized(&x, &packed).shape(), (2, 0));
        // All-zero operands stay exactly zero.
        let y = matmul_quantized(&x, &PackedInt8::pack(&w));
        assert_eq!(y, Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "matmul_quantized shape mismatch")]
    fn shape_mismatch_panics() {
        let x = Matrix::zeros(2, 3);
        let w = PackedInt8::pack(&Matrix::zeros(4, 5));
        let _ = matmul_quantized(&x, &w);
    }

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-5.0f32..5.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        #[test]
        fn prop_int8_gemm_matches_dequantized_reference(
            x in arb_matrix(5, 37),
            w in arb_matrix(37, 6),
        ) {
            // Exactness contract of the integer core: int8 GEMM == f32 GEMM
            // over the dequantized operands, up to f32 rounding of the
            // requantized result.
            let packed = PackedInt8::pack(&w);
            let y = matmul_quantized(&x, &packed);
            let reference = dequantized_activations(&x).matmul(&packed.dequantize());
            let tol = 1e-3 * reference.max_abs().max(1.0);
            prop_assert!(y.approx_eq(&reference, tol));
        }

        #[test]
        fn prop_unroll_is_batch_invariant(x in arb_matrix(6, 16), w in arb_matrix(16, 11)) {
            // Row i of the batched GEMM equals the GEMM of row i alone:
            // integer accumulation is exact, so batching cannot change
            // results (the analogue of the f32 kernels' fixed-order
            // contract).
            let packed = PackedInt8::pack(&w);
            let y = matmul_quantized(&x, &packed);
            for i in 0..x.rows() {
                let yi = matmul_quantized(&x.slice_rows(i, i + 1), &packed);
                prop_assert_eq!(y.slice_rows(i, i + 1), yi);
            }
        }
    }
}
