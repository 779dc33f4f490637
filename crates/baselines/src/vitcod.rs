//! Functional ViTCOD-style attention sparsification.
//!
//! ViTCOD (You et al., HPCA'23) prunes ViT attention maps to ~90% sparsity
//! using norm-based scoring, decomposes them into denser/sparser workloads
//! and builds a dedicated accelerator to exploit the sparsity. Functionally,
//! inference keeps only the strongest ~10% of attention links per query —
//! which is what this wrapper reproduces on top of
//! [`pivot_nn::sparse_mask`], the attention score mask of
//! [`PreparedModel::infer_sparse_attention`].

use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;

/// ViTCOD-style sparse-attention inference wrapper.
///
/// # Example
///
/// ```no_run
/// use pivot_baselines::VitCod;
/// use pivot_tensor::{Matrix, Rng};
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let model = VisionTransformer::new(&VitConfig::tiny(), &mut Rng::new(0)).prepare();
/// let vitcod = VitCod::new(0.9);
/// let logits = vitcod.infer(&model, &Matrix::zeros(32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VitCod {
    sparsity: f32,
}

impl VitCod {
    /// Creates the baseline with the given attention sparsity (the paper
    /// quotes 90% for DeiT-S).
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is not in `[0, 1)`.
    pub fn new(sparsity: f32) -> Self {
        assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
        Self { sparsity }
    }

    /// The attention sparsity ratio.
    pub fn sparsity(&self) -> f32 {
        self.sparsity
    }

    /// The surviving attention density.
    pub fn density(&self) -> f32 {
        1.0 - self.sparsity
    }

    /// Runs sparse-attention inference on a trained model's view.
    pub fn infer(&self, model: &PreparedModel, image: &Matrix) -> Matrix {
        model.infer_sparse_attention(image, self.density())
    }

    /// Classification accuracy over labeled samples.
    pub fn accuracy(&self, model: &PreparedModel, samples: &[pivot_data::Sample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|s| self.infer(model, &s.image).row_argmax(0) == s.label)
            .count();
        correct as f32 / samples.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};

    #[test]
    fn zero_sparsity_matches_dense() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(0)).prepare();
        let mut rng = Rng::new(1);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let dense = model.infer(&img);
        let sparse = VitCod::new(0.0).infer(&model, &img);
        assert!(dense.approx_eq(&sparse, 1e-5));
    }

    #[test]
    fn high_sparsity_changes_output() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(2)).prepare();
        let mut rng = Rng::new(3);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let dense = model.infer(&img);
        let sparse = VitCod::new(0.9).infer(&model, &img);
        assert!(!dense.approx_eq(&sparse, 1e-6));
        assert!(sparse.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn milder_sparsity_stays_closer_to_dense() {
        let cfg = VitConfig::tiny();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(4)).prepare();
        let mut rng = Rng::new(5);
        let mut dist_mild = 0.0;
        let mut dist_hard = 0.0;
        for _ in 0..5 {
            let img = Matrix::rand_uniform(32, 32, 0.0, 1.0, &mut rng);
            let dense = model.infer(&img);
            dist_mild += (&VitCod::new(0.3).infer(&model, &img) - &dense).frobenius_norm();
            dist_hard += (&VitCod::new(0.9).infer(&model, &img) - &dense).frobenius_norm();
        }
        assert!(
            dist_mild < dist_hard,
            "mild {dist_mild} vs hard {dist_hard}"
        );
    }

    #[test]
    #[should_panic(expected = "sparsity must be in")]
    fn full_sparsity_panics() {
        let _ = VitCod::new(1.0);
    }
}
