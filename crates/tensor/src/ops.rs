//! Scalar and row-wise nonlinear operations: softmax, GELU, erf.

/// Error function approximation (Abramowitz & Stegun 7.1.26).
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
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

/// Exact (erf-based) GELU activation, as used in the ViT MLP blocks.
///
/// `gelu(x) = x/2 * (1 + erf(x / sqrt(2)))`
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x * std::f32::consts::FRAC_1_SQRT_2))
}

/// Derivative of [`gelu`] with respect to its input.
///
/// `d/dx gelu(x) = Phi(x) + x * phi(x)` where `Phi`/`phi` are the standard
/// normal CDF/PDF.
pub fn gelu_derivative(x: f32) -> f32 {
    let cdf = 0.5 * (1.0 + erf(x * std::f32::consts::FRAC_1_SQRT_2));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f32::consts::PI).sqrt();
    cdf + x * pdf
}

/// Numerically stable softmax of one row (paper Eq. 2: subtracts the max
/// before exponentiation).
///
/// Returns a vector of the same length summing to 1. An empty input returns
/// an empty vector.
pub fn softmax_row(row: &[f32]) -> Vec<f32> {
    let max = row_max(row);
    let mut out: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
    normalize_exps(&mut out);
    out
}

/// [`softmax_row`] overwriting its input, for callers that own the row
/// (the attention core's score buffer, [`stable_softmax_in_place`]). The
/// two differ only in where `exp(x - max)` is written; the max fold and
/// the sum-and-divide are the same functions, so they agree bit for bit.
pub fn softmax_row_in_place(row: &mut [f32]) {
    let max = row_max(row);
    for x in row.iter_mut() {
        *x = (*x - max).exp();
    }
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

/// Numerically stable log-softmax of one row.
///
/// An empty input returns an empty vector.
pub fn log_softmax_row(row: &[f32]) -> Vec<f32> {
    if row.is_empty() {
        return Vec::new();
    }
    let max = row_max(row);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    row.iter().map(|&x| x - max - log_sum).collect()
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
    }
}
