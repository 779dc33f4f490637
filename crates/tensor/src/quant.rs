//! 8-bit affine quantization.
//!
//! The paper trains and evaluates all ViTs with 8-bit quantization
//! (Section 4.1, Table 4). This module implements per-tensor affine
//! quantization: `q = clamp(round(x / scale) + zero_point, -128, 127)` and the
//! matching dequantization, plus the *fake-quant* round trip used during
//! quantization-aware training with a straight-through estimator.

use crate::Matrix;

/// Scale and zero-point of an affine 8-bit quantizer.
///
/// # Example
///
/// ```
/// use pivot_tensor::{Matrix, QuantParams};
///
/// let m = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
/// let qp = QuantParams::fit_symmetric(&m);
/// let rt = qp.fake_quant_matrix(&m);
/// assert!(rt.approx_eq(&m, qp.scale()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
}

impl QuantParams {
    /// Smallest representable scale; guards against degenerate all-zero
    /// tensors producing a zero scale. Crate-visible so the int8 kernel's
    /// per-row activation fit lands on the identical grid.
    pub(crate) const MIN_SCALE: f32 = 1e-8;

    /// Creates quantization parameters from an explicit scale and zero point.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32, zero_point: i32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive"
        );
        Self { scale, zero_point }
    }

    /// Fits symmetric 8-bit parameters (zero point 0), typical for weights.
    ///
    /// Non-finite values are ignored when fitting the range, so a single
    /// corrupted weight cannot poison the scale of the whole tensor; the
    /// corrupted element itself shows up in [`QuantParams::saturation_count`]
    /// instead.
    pub fn fit_symmetric(m: &Matrix) -> Self {
        Self::fit_symmetric_slice(m.as_slice())
    }

    /// Fits symmetric 8-bit parameters to a slice (zero point 0).
    ///
    /// The slice form is what the int8 GEMM uses to fit one quantizer per
    /// activation row; the semantics are identical to
    /// [`QuantParams::fit_symmetric`], including ignoring non-finite values.
    pub fn fit_symmetric_slice(values: &[f32]) -> Self {
        let max_abs = values
            .iter()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |acc, &v| acc.max(v.abs()));
        let scale = (max_abs / 127.0).max(Self::MIN_SCALE);
        Self {
            scale,
            zero_point: 0,
        }
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The integer value representing real zero.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantizes one value to `i8`.
    ///
    /// No 8-bit code represents a non-finite value: `±inf` saturates to the
    /// range endpoints, and NaN is pinned to `i8::MAX`. (The naive
    /// `(NaN / scale).round() as i32` would saturating-cast to 0, laundering
    /// a corrupted value into the zero point — an exact, healthy-looking
    /// 0.0 after dequantization.) Non-finite inputs always register in
    /// [`QuantParams::saturation_count`].
    pub fn quantize(&self, x: f32) -> i8 {
        if x.is_nan() {
            return i8::MAX;
        }
        let q = (x / self.scale).round() as i32 + self.zero_point;
        q.clamp(i8::MIN as i32, i8::MAX as i32) as i8
    }

    /// Dequantizes one `i8` back to `f32`.
    pub fn dequantize(&self, q: i8) -> f32 {
        (q as i32 - self.zero_point) as f32 * self.scale
    }

    /// Requantizes a widened `i32` accumulator back to `f32`.
    ///
    /// The int8 GEMM accumulates `i8 x i8` products in `i32` (the widest
    /// value is `127 * 127 * K`, in-range for any realistic reduction depth
    /// `K`), then maps the accumulator back to real units through the
    /// *combined* quantizer whose scale is the product of the two operand
    /// scales. This is [`QuantParams::dequantize`] extended to the full
    /// `i32` domain: for every `i8` code the two agree exactly.
    ///
    /// The zero-point shift runs in `f64` so `acc - zero_point` cannot
    /// overflow; the shifted accumulator is then rounded to `f32` (exact
    /// below 2^24, correctly rounded above) and scaled with a single `f32`
    /// multiply — the same two operations the vectorized int8 kernel
    /// performs (`cvtdq2ps` + `mulps`), so the helper and the kernel are
    /// bit-identical. An accumulator product too large for `f32` becomes
    /// `±inf` rather than being clamped into range — saturation stays
    /// visible downstream, matching the non-finite-propagation contract of
    /// [`QuantParams::fake_quant`]: the integer path must never re-launder
    /// a fault into a healthy value.
    pub fn requantize(&self, acc: i32) -> f32 {
        ((acc as f64 - self.zero_point as f64) as f32) * self.scale
    }

    /// Quantize-then-dequantize round trip of one value (fake quant).
    ///
    /// Non-finite inputs pass through unchanged: fake quantization emulates
    /// deployment numerics for *healthy* values, while a NaN or ±inf is a
    /// fault signal that must stay visible to downstream health checks
    /// (`Matrix::is_all_finite`, the cascade's guarded evaluation) rather
    /// than being rounded to an in-range code.
    pub fn fake_quant(&self, x: f32) -> f32 {
        if !x.is_finite() {
            return x;
        }
        self.dequantize(self.quantize(x))
    }

    /// Fake-quantizes every element of a matrix.
    pub fn fake_quant_matrix(&self, m: &Matrix) -> Matrix {
        m.map(|x| self.fake_quant(x))
    }

    /// Number of values that this quantizer cannot represent in-range.
    ///
    /// Counts elements whose quantized code would fall outside `[-128, 127]`
    /// before clamping, plus any non-finite elements (which always saturate
    /// or corrupt the code). Healthy weights quantized with parameters fitted
    /// to their own range never saturate; a non-zero count is a per-layer
    /// fault indicator used by the degradation tooling in higher crates.
    pub fn saturation_count(&self, values: &[f32]) -> usize {
        values
            .iter()
            .filter(|&&x| {
                if !x.is_finite() {
                    return true;
                }
                let q = (x / self.scale).round() + self.zero_point as f32;
                !(-128.0..=127.0).contains(&q)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use proptest::prelude::*;

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = Rng::new(5);
        let m = Matrix::randn(16, 16, 1.0, &mut rng);
        let qp = QuantParams::fit_symmetric(&m);
        let rt = qp.fake_quant_matrix(&m);
        let max_err = (&m - &rt).max_abs();
        assert!(
            max_err <= qp.scale() * 0.5 + 1e-6,
            "err {max_err} > step/2 {}",
            qp.scale()
        );
    }

    #[test]
    fn symmetric_fit_has_zero_zero_point() {
        let m = Matrix::from_rows(&[&[-2.0, 1.5]]);
        let qp = QuantParams::fit_symmetric(&m);
        assert_eq!(qp.zero_point(), 0);
        assert!(qp.fake_quant(0.0).abs() < 1e-9);
    }

    #[test]
    fn all_zero_tensor_does_not_blow_up() {
        let m = Matrix::zeros(4, 4);
        let qp = QuantParams::fit_symmetric(&m);
        assert!(qp.scale() > 0.0);
        assert_eq!(qp.fake_quant_matrix(&m), m);
    }

    #[test]
    fn self_fitted_weights_never_saturate() {
        let mut rng = Rng::new(11);
        let m = Matrix::randn(8, 8, 3.0, &mut rng);
        let qp = QuantParams::fit_symmetric(&m);
        assert_eq!(qp.saturation_count(m.as_slice()), 0);
    }

    #[test]
    fn corrupted_weights_are_counted_as_saturated() {
        let mut rng = Rng::new(12);
        let mut m = Matrix::randn(4, 4, 1.0, &mut rng);
        m.as_mut_slice()[3] = f32::NAN;
        m.as_mut_slice()[7] = f32::INFINITY;
        // Symmetric fit ignores the non-finite entries, so the scale stays
        // sane and exactly the two corrupted elements saturate.
        let qp = QuantParams::fit_symmetric(&m);
        assert!(qp.scale().is_finite());
        assert_eq!(qp.saturation_count(m.as_slice()), 2);
    }

    #[test]
    fn out_of_range_values_saturate_under_fixed_params() {
        let qp = QuantParams::new(1.0, 0);
        assert_eq!(qp.saturation_count(&[0.0, 127.0, 128.0, -129.0, 1e9]), 3);
    }

    #[test]
    fn nan_is_not_laundered_to_the_zero_point() {
        // Regression: `(NaN / scale).round() as i32` saturating-casts to 0,
        // so NaN used to quantize to the zero point and dequantize to an
        // exact 0.0 — invisible to every health check downstream.
        let qp = QuantParams::new(0.5, -3);
        assert_eq!(qp.quantize(f32::NAN), i8::MAX);
        assert!(qp.fake_quant(f32::NAN).is_nan());
        assert_eq!(qp.fake_quant(f32::INFINITY), f32::INFINITY);
        assert_eq!(qp.fake_quant(f32::NEG_INFINITY), f32::NEG_INFINITY);
        // And they all count as saturated.
        let sat = qp.saturation_count(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert_eq!(sat, 3);
    }

    #[test]
    fn fake_quant_matrix_keeps_nan_visible() {
        let mut rng = Rng::new(13);
        let mut m = Matrix::randn(4, 4, 1.0, &mut rng);
        m.as_mut_slice()[5] = f32::NAN;
        let qp = QuantParams::fit_symmetric(&m);
        let fq = qp.fake_quant_matrix(&m);
        assert!(fq.as_slice()[5].is_nan(), "NaN must survive fake quant");
    }

    #[test]
    fn requantize_agrees_with_dequantize_on_every_i8_code() {
        for &(scale, zp) in &[(0.5f32, 0i32), (0.013, -3), (1e-6, 100), (3.0, -128)] {
            let qp = QuantParams::new(scale, zp);
            for q in i8::MIN..=i8::MAX {
                assert_eq!(
                    qp.requantize(q as i32),
                    qp.dequantize(q),
                    "scale {scale} zp {zp} code {q}"
                );
            }
        }
    }

    #[test]
    fn requantize_known_accumulator() {
        // A 64-deep dot product of maximal codes: 127 * 127 * 64.
        let qp = QuantParams::new(2.0, 0);
        let acc = 127 * 127 * 64;
        assert_eq!(qp.requantize(acc), acc as f32 * 2.0);
        // Zero point is subtracted before scaling, like dequantize.
        let qp = QuantParams::new(0.5, 10);
        assert_eq!(qp.requantize(10), 0.0);
        assert_eq!(qp.requantize(14), 2.0);
    }

    #[test]
    fn requantize_saturation_overflows_to_inf_not_a_clamped_value() {
        // An accumulator whose real value exceeds f32 range must come back
        // as +-inf (visible to health checks), never clamped in-range: the
        // int8 path is not allowed to re-launder faults (PR 4 contract).
        let qp = QuantParams::new(f32::MAX / 2.0, 0);
        assert_eq!(qp.requantize(4), f32::INFINITY);
        assert_eq!(qp.requantize(-4), f32::NEG_INFINITY);
        // i32 extremes with a huge zero-point offset stay finite-exact in
        // the f64 intermediate (no wrap-around) and keep their sign.
        let qp = QuantParams::new(1.0, i32::MIN);
        assert!(qp.requantize(i32::MAX) > 0.0);
        assert!(qp.requantize(i32::MAX).is_finite());
    }

    #[test]
    fn requantize_never_fabricates_nan() {
        // i32 has no NaN, and a finite-positive scale is enforced by
        // QuantParams::new — so requantize can produce +-inf on overflow
        // but never NaN: a NaN downstream of the int8 GEMM always traces
        // back to a poisoned input, not to requantization.
        for &(scale, zp) in &[(QuantParams::MIN_SCALE, 0), (f32::MAX, i32::MIN)] {
            let qp = QuantParams::new(scale, zp);
            for &acc in &[i32::MIN, -1, 0, 1, i32::MAX] {
                assert!(!qp.requantize(acc).is_nan(), "scale {scale} acc {acc}");
            }
        }
    }

    #[test]
    fn fit_symmetric_slice_matches_matrix_fit() {
        let mut rng = Rng::new(17);
        let m = Matrix::randn(6, 6, 2.0, &mut rng);
        assert_eq!(
            QuantParams::fit_symmetric(&m),
            QuantParams::fit_symmetric_slice(m.as_slice())
        );
        // Per-row fits see only their own row's range.
        let qp = QuantParams::fit_symmetric_slice(m.row(2));
        let max_abs = m.row(2).iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        assert!((qp.scale() - max_abs / 127.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_fake_quant_idempotent(x in -100.0f32..100.0, s in 1e-3f32..1.0) {
            let qp = QuantParams::new(s, 0);
            let once = qp.fake_quant(x);
            let twice = qp.fake_quant(once);
            prop_assert!((once - twice).abs() < 1e-6);
        }

        #[test]
        fn prop_quantize_in_i8_range(x in -1e6f32..1e6, s in 1e-3f32..10.0, zp in -128i32..127) {
            let qp = QuantParams::new(s, zp);
            let q = qp.quantize(x);
            prop_assert!((-128..=127).contains(&(q as i32)));
        }
    }
}
