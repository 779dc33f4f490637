//! Centered kernel alignment (CKA) similarity.
//!
//! PIVOT's Phase 1 scores candidate attention-skip paths using the *CKA
//! matrix* (paper Fig. 3a, citing Cortes et al. 2012): the linear CKA
//! similarity between the MLP output of encoder `i` and the attention output
//! of encoder `j` over a calibration batch. A high `CKA(MLP_i, A_j)` means
//! attention `j` barely transforms the residual stream it receives, so it
//! can be skipped with little information loss.
//!
//! Linear CKA between representation matrices `X (n x p)` and `Y (n x q)`
//! (one row per input; for an encoder, the input's `tokens x dim` residual
//! stream flattened) with centered columns is
//!
//! ```text
//! CKA(X, Y) = ||Y^T X||_F^2 / (||X^T X||_F * ||Y^T Y||_F)
//! ```
//!
//! which equals the HSIC-based definition for linear kernels.
//!
//! # Example
//!
//! ```
//! use pivot_cka::linear_cka;
//! use pivot_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::new(0);
//! let x = Matrix::randn(32, 8, 1.0, &mut rng);
//! assert!((linear_cka(&x, &x) - 1.0).abs() < 1e-4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use pivot_tensor::Matrix;

/// Linear CKA similarity between two representation matrices with one row
/// per input example.
///
/// Both matrices are column-centered internally. The result lies in
/// `[0, 1]`; identical (up to orthogonal transform and isotropic scaling)
/// representations score 1. Degenerate inputs (all-zero after centering)
/// score 0.
///
/// # Panics
///
/// Panics if the matrices have different row counts (they must describe the
/// same inputs).
pub fn linear_cka(x: &Matrix, y: &Matrix) -> f32 {
    assert_eq!(
        x.rows(),
        y.rows(),
        "CKA requires equal example counts: {} vs {}",
        x.rows(),
        y.rows()
    );
    let xc = x.center_columns();
    let yc = y.center_columns();
    let cross = yc.matmul_transpose_a(&xc).frobenius_norm().powi(2);
    let x_norm = xc.matmul_transpose_a(&xc).frobenius_norm();
    let y_norm = yc.matmul_transpose_a(&yc).frobenius_norm();
    if x_norm == 0.0 || y_norm == 0.0 {
        return 0.0;
    }
    (cross / (x_norm * y_norm)).clamp(0.0, 1.0)
}

/// The CKA matrix of the paper's Fig. 3a / Algorithm 1.
///
/// `matrix[(i, j)] = CKA(MLP_i, A_j)`: similarity between the MLP output of
/// encoder `i` and the attention output of encoder `j`, computed over a
/// calibration batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CkaMatrix {
    values: Matrix,
}

impl CkaMatrix {
    /// Computes the CKA matrix from per-encoder representation stacks.
    ///
    /// `mlp_reps[i]` / `attn_reps[j]` are `n_samples x features` matrices,
    /// each sample's `tokens x dim` residual stream flattened into its row
    /// (`pivot_vit::PreparedModel::block_streams` returns them so). Only
    /// the upper triangle `j > i` is meaningful for Algorithm 1; the rest is
    /// filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the two lists have different lengths or inconsistent
    /// example counts.
    pub fn compute(mlp_reps: &[Matrix], attn_reps: &[Matrix]) -> Self {
        assert_eq!(
            mlp_reps.len(),
            attn_reps.len(),
            "need one MLP and one attention representation per encoder"
        );
        let depth = mlp_reps.len();
        let mut values = Matrix::zeros(depth, depth);
        for i in 0..depth {
            for j in (i + 1)..depth {
                values[(i, j)] = linear_cka(&mlp_reps[i], &attn_reps[j]);
            }
        }
        Self { values }
    }

    /// Wraps a precomputed matrix (used by tests and synthetic benches).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn from_matrix(values: Matrix) -> Self {
        assert_eq!(values.rows(), values.cols(), "CKA matrix must be square");
        Self { values }
    }

    /// Number of encoders the matrix covers.
    pub fn depth(&self) -> usize {
        self.values.rows()
    }

    /// `CKA(MLP_i, A_j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.values[(i, j)]
    }

    /// The underlying `depth x depth` matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::Rng;
    use proptest::prelude::*;

    #[test]
    fn cka_self_similarity_is_one() {
        let mut rng = Rng::new(1);
        let x = Matrix::randn(40, 10, 1.0, &mut rng);
        assert!((linear_cka(&x, &x) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cka_is_symmetric() {
        let mut rng = Rng::new(2);
        let x = Matrix::randn(30, 6, 1.0, &mut rng);
        let y = Matrix::randn(30, 9, 1.0, &mut rng);
        assert!((linear_cka(&x, &y) - linear_cka(&y, &x)).abs() < 1e-5);
    }

    #[test]
    fn cka_invariant_to_isotropic_scaling() {
        let mut rng = Rng::new(3);
        let x = Matrix::randn(25, 5, 1.0, &mut rng);
        let y = Matrix::randn(25, 5, 1.0, &mut rng);
        let base = linear_cka(&x, &y);
        let scaled = linear_cka(&x.scaled(7.5), &y.scaled(0.01));
        assert!((base - scaled).abs() < 1e-4);
    }

    #[test]
    fn cka_invariant_to_column_permutation() {
        let mut rng = Rng::new(4);
        let x = Matrix::randn(25, 4, 1.0, &mut rng);
        let y = Matrix::randn(25, 4, 1.0, &mut rng);
        // Reverse Y's columns.
        let y_perm = Matrix::from_fn(25, 4, |r, c| y[(r, 3 - c)]);
        assert!((linear_cka(&x, &y) - linear_cka(&x, &y_perm)).abs() < 1e-4);
    }

    #[test]
    fn independent_representations_score_low() {
        let mut rng = Rng::new(5);
        let x = Matrix::randn(200, 4, 1.0, &mut rng);
        let y = Matrix::randn(200, 4, 1.0, &mut rng);
        assert!(linear_cka(&x, &y) < 0.2);
    }

    #[test]
    fn related_beats_unrelated() {
        let mut rng = Rng::new(6);
        let x = Matrix::randn(60, 8, 1.0, &mut rng);
        // y = noisy copy of x.
        let noise = Matrix::randn(60, 8, 0.3, &mut rng);
        let y = &x + &noise;
        let unrelated = Matrix::randn(60, 8, 1.0, &mut rng);
        assert!(linear_cka(&x, &y) > linear_cka(&x, &unrelated) + 0.3);
    }

    #[test]
    fn zero_representation_scores_zero() {
        let mut rng = Rng::new(7);
        let x = Matrix::randn(10, 3, 1.0, &mut rng);
        let z = Matrix::zeros(10, 3);
        assert_eq!(linear_cka(&x, &z), 0.0);
    }

    #[test]
    fn cka_matrix_upper_triangle_only() {
        let mut rng = Rng::new(8);
        let reps: Vec<Matrix> = (0..3)
            .map(|_| Matrix::randn(20, 5, 1.0, &mut rng))
            .collect();
        let m = CkaMatrix::compute(&reps, &reps);
        assert_eq!(m.depth(), 3);
        for i in 0..3 {
            for j in 0..=i {
                assert_eq!(m.get(i, j), 0.0, "lower triangle ({i},{j}) must be zero");
            }
        }
        assert!(m.get(0, 1) > 0.0);
    }

    proptest! {
        #[test]
        fn prop_cka_in_unit_interval(seed in 0u64..500) {
            let mut rng = Rng::new(seed);
            let x = Matrix::randn(15, 4, 1.0, &mut rng);
            let y = Matrix::randn(15, 6, 1.0, &mut rng);
            let v = linear_cka(&x, &y);
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }
}
