//! Tensor health: the one non-finite check for fault-tolerant inference.
//!
//! Quantized edge deployments routinely see corrupted weights (SRAM bit
//! flips), degenerate activations, and checkpoint damage. A non-finite
//! tensor is not an error value: the cascade in `pivot-core` reads this
//! check (directly, and through a NaN normalized entropy) to escalate a
//! sample or fall back to an already-computed lower-effort prediction
//! instead of silently propagating NaN through softmax and entropy.

use crate::Matrix;

impl Matrix {
    /// Whether every element is finite (no NaN, no ±inf).
    pub fn is_all_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_matrix_passes() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[0.0, 3.5]]);
        assert!(m.is_all_finite());
    }

    #[test]
    fn every_non_finite_kind_anywhere_is_detected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in 0..6 {
                let mut m = Matrix::filled(2, 3, 1.0);
                m.as_mut_slice()[at] = bad;
                assert!(!m.is_all_finite(), "{bad} at {at}");
            }
        }
    }

    #[test]
    fn empty_matrix_is_finite() {
        let m = Matrix::zeros(0, 4);
        assert!(m.is_all_finite());
    }
}
