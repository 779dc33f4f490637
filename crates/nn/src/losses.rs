//! The PIVOT training objective: `L = L_CE + L_Distill + L_En`.
//!
//! * `L_CE` — cross-entropy on the classifier logits.
//! * `L_Distill` — mean-squared error between the final-layer features of
//!   the student (effort path) and teacher (full ViT), as in Fig. 2b.
//! * `L_En` — the entropy regularizer: the normalized entropy (paper Eq. 3)
//!   of the logits, applied to correctly-classified inputs so that confident
//!   predictions become more confident and more inputs exit at low effort.

use pivot_tensor::{log_softmax_row, softmax_row, Matrix};

/// A scalar loss together with its gradient with respect to the input.
#[derive(Debug, Clone)]
pub struct LossValue {
    /// The loss value.
    pub loss: f32,
    /// Gradient of the loss with respect to the logits/features it was
    /// computed from.
    pub grad: Matrix,
}

/// Cross-entropy of a single logit row against an integer label.
///
/// Returns the loss and its gradient `softmax(logits) - onehot(label)`.
///
/// # Panics
///
/// Panics if `logits` does not have exactly one row or `label` is out of
/// range.
///
/// # Example
///
/// ```
/// use pivot_nn::cross_entropy;
/// use pivot_tensor::Matrix;
///
/// let confident = cross_entropy(&Matrix::row_vector(&[10.0, -10.0]), 0);
/// assert!(confident.loss < 1e-3);
/// ```
pub fn cross_entropy(logits: &Matrix, label: usize) -> LossValue {
    assert_eq!(logits.rows(), 1, "cross_entropy expects one logit row");
    assert!(
        label < logits.cols(),
        "label {label} out of {} classes",
        logits.cols()
    );
    let log_probs = log_softmax_row(logits.row(0));
    let loss = -log_probs[label];
    let probs = softmax_row(logits.row(0));
    let mut grad = Matrix::row_vector(&probs);
    grad[(0, label)] -= 1.0;
    LossValue { loss, grad }
}

/// Feature-distillation loss: mean-squared error between student and teacher
/// final-layer features, averaged over all elements.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn distillation_mse(student: &Matrix, teacher: &Matrix) -> LossValue {
    assert_eq!(
        student.shape(),
        teacher.shape(),
        "distillation shape mismatch"
    );
    let diff = student - teacher;
    let n = diff.len().max(1) as f32;
    let loss = diff.as_slice().iter().map(|&d| d * d).sum::<f32>() / n;
    let grad = diff.scaled(2.0 / n);
    LossValue { loss, grad }
}

/// Normalized prediction entropy `E(x)` of a logit row (paper Eq. 3).
///
/// `E(x) = -1/log(K) * sum_i p_i log p_i` with `p = softmax(logits)`, so the
/// result lies in `[0, 1]`: 1 means a uniform (maximally uncertain)
/// prediction, values near 0 mean a confident one.
///
/// # Degenerate and faulty inputs
///
/// * Logits containing NaN or `+inf` cannot form a probability distribution;
///   the fault is propagated as `f32::NAN` so callers (the `Th` gate in
///   `pivot-core`) can treat the sample as "escalate".
/// * `-inf` logits are representable "impossible classes" (probability 0);
///   if *every* logit is `-inf` the distribution is undefined and the result
///   clamps to 1.0 — maximal uncertainty — instead of NaN.
/// * Finite rounding noise is clamped into `[0, 1]`.
///
/// # Panics
///
/// Panics if `logits` does not have exactly one row or has fewer than two
/// columns (entropy normalization needs `K >= 2`).
pub fn normalized_entropy(logits: &Matrix) -> f32 {
    assert_eq!(logits.rows(), 1, "normalized_entropy expects one logit row");
    let k = logits.cols();
    assert!(k >= 2, "entropy normalization needs at least 2 classes");
    let row = logits.row(0);
    if row.iter().any(|&v| v.is_nan() || v == f32::INFINITY) {
        return f32::NAN;
    }
    let probs = softmax_row(row);
    if probs.iter().any(|p| p.is_nan()) {
        // Only reachable when every logit is -inf: softmax has no mass to
        // distribute. Without this guard the `p > 0.0` filter below would
        // silently report entropy 0 — maximal confidence — for a row that
        // carries no information at all.
        return 1.0;
    }
    let raw: f32 = probs
        .iter()
        .map(|&p| if p > 0.0 { -p * p.ln() } else { 0.0 })
        .sum();
    (raw / (k as f32).ln()).clamp(0.0, 1.0)
}

/// The entropy regularizer `L_En` and its gradient with respect to the
/// logits.
///
/// The gradient of `E(x)` with respect to logit `z_j` is
/// `-p_j (log p_j - s) / log K` where `s = sum_i p_i log p_i`.
///
/// # Panics
///
/// Panics under the same conditions as [`normalized_entropy`].
pub fn entropy_regularizer(logits: &Matrix) -> LossValue {
    let k = logits.cols();
    let loss = normalized_entropy(logits);
    let probs = softmax_row(logits.row(0));
    let s: f32 = probs
        .iter()
        .map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 })
        .sum();
    let log_k = (k as f32).ln();
    let grad_vals: Vec<f32> = probs
        .iter()
        .map(|&p| {
            if p > 0.0 {
                -p * (p.ln() - s) / log_k
            } else {
                0.0
            }
        })
        .collect();
    LossValue {
        loss,
        grad: Matrix::row_vector(&grad_vals),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = cross_entropy(&Matrix::row_vector(&[5.0, 0.0, 0.0]), 0);
        let bad = cross_entropy(&Matrix::row_vector(&[5.0, 0.0, 0.0]), 1);
        assert!(good.loss < bad.loss);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let lv = cross_entropy(&Matrix::row_vector(&[1.0, -2.0, 0.5]), 2);
        assert!(lv.grad.sum().abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_matches_fd() {
        let logits = Matrix::row_vector(&[0.2, -1.3, 0.9, 0.0]);
        let lv = cross_entropy(&logits, 1);
        let h = 1e-3;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= h;
            let fd = (cross_entropy(&lp, 1).loss - cross_entropy(&lm, 1).loss) / (2.0 * h);
            assert!((lv.grad.as_slice()[i] - fd).abs() < 1e-3);
        }
    }

    #[test]
    fn uniform_logits_have_entropy_one() {
        let e = normalized_entropy(&Matrix::row_vector(&[0.0; 10]));
        assert!((e - 1.0).abs() < 1e-5);
    }

    #[test]
    fn confident_logits_have_entropy_near_zero() {
        let e = normalized_entropy(&Matrix::row_vector(&[30.0, 0.0, 0.0, 0.0]));
        assert!(e < 1e-4);
    }

    #[test]
    fn entropy_of_all_neg_inf_logits_is_maximal_not_nan() {
        let e = normalized_entropy(&Matrix::row_vector(&[f32::NEG_INFINITY; 4]));
        assert_eq!(e, 1.0);
    }

    #[test]
    fn entropy_with_some_neg_inf_logits_is_finite() {
        // -inf marks an impossible class; the remaining two classes are
        // equally likely, so normalized entropy is ln(2)/ln(3).
        let e = normalized_entropy(&Matrix::row_vector(&[0.0, 0.0, f32::NEG_INFINITY]));
        let expected = 2.0f32.ln() / 3.0f32.ln();
        assert!((e - expected).abs() < 1e-5, "e = {e}");
    }

    #[test]
    fn entropy_of_faulty_logits_is_nan() {
        assert!(normalized_entropy(&Matrix::row_vector(&[0.0, f32::NAN])).is_nan());
        assert!(normalized_entropy(&Matrix::row_vector(&[0.0, f32::INFINITY])).is_nan());
    }

    #[test]
    fn entropy_is_clamped_to_unit_interval() {
        let e = normalized_entropy(&Matrix::row_vector(&[1e-4; 10]));
        assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn entropy_gradient_matches_fd() {
        let logits = Matrix::row_vector(&[0.5, -0.7, 1.2, 0.1, -0.3]);
        let lv = entropy_regularizer(&logits);
        let h = 1e-3;
        for i in 0..5 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= h;
            let fd = (normalized_entropy(&lp) - normalized_entropy(&lm)) / (2.0 * h);
            assert!(
                (lv.grad.as_slice()[i] - fd).abs() < 1e-3,
                "grad[{i}]: {} vs {fd}",
                lv.grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn distillation_zero_for_identical_features() {
        let f = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let lv = distillation_mse(&f, &f);
        assert_eq!(lv.loss, 0.0);
        assert_eq!(lv.grad.max_abs(), 0.0);
    }

    #[test]
    fn distillation_gradient_matches_fd() {
        let s = Matrix::row_vector(&[1.0, -0.5, 2.0]);
        let t = Matrix::row_vector(&[0.0, 0.5, 1.0]);
        let lv = distillation_mse(&s, &t);
        let h = 1e-3;
        for i in 0..3 {
            let mut sp = s.clone();
            sp.as_mut_slice()[i] += h;
            let mut sm = s.clone();
            sm.as_mut_slice()[i] -= h;
            let fd = (distillation_mse(&sp, &t).loss - distillation_mse(&sm, &t).loss) / (2.0 * h);
            assert!((lv.grad.as_slice()[i] - fd).abs() < 1e-3);
        }
    }

    proptest! {
        #[test]
        fn prop_entropy_in_unit_interval(
            logits in proptest::collection::vec(-10.0f32..10.0, 2..20)
        ) {
            let e = normalized_entropy(&Matrix::row_vector(&logits));
            prop_assert!((0.0..=1.0 + 1e-5).contains(&e));
        }

        #[test]
        fn prop_minimizing_entropy_reduces_entropy(
            logits in proptest::collection::vec(-3.0f32..3.0, 3..8)
        ) {
            let m = Matrix::row_vector(&logits);
            let lv = entropy_regularizer(&m);
            // One gradient-descent step on E(x) must not increase it
            // (first-order, small step).
            let stepped = m.zip_map(&lv.grad, |x, g| x - 0.01 * g);
            prop_assert!(normalized_entropy(&stepped) <= lv.loss + 1e-5);
        }
    }
}
