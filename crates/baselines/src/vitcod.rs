//! Functional ViTCOD-style attention sparsification.
//!
//! ViTCOD (You et al., HPCA'23) prunes ViT attention maps to ~90% sparsity
//! using norm-based scoring, decomposes them into denser/sparser workloads
//! and builds a dedicated accelerator to exploit the sparsity. Functionally,
//! inference keeps only the strongest ~10% of attention links per query —
//! which is what this wrapper reproduces on top of
//! [`pivot_nn::sparse_mask`], the attention score mask of
//! [`PreparedModel::infer_sparse_attention`].

use pivot_data::Sample;
use pivot_tensor::Matrix;
use pivot_vit::{chunked_accuracy, PreparedModel};

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

    /// Runs sparse-attention inference of one image on a trained model's
    /// view.
    pub fn infer(&self, model: &PreparedModel, image: &Matrix) -> Matrix {
        model.infer_sparse_attention(&[image], self.density())
    }

    /// Classification accuracy over labeled samples: [`chunked_accuracy`]
    /// of the batched [`PreparedModel::infer_sparse_attention`].
    pub fn accuracy(&self, model: &PreparedModel, samples: &[Sample]) -> f32 {
        chunked_accuracy(samples, |images| {
            model.infer_sparse_attention(images, self.density())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::{Dataset, DatasetConfig};
    use pivot_nn::sparse_mask;
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig, EVAL_BATCH};

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
    fn batched_forward_is_bit_identical_to_the_per_image_composition() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cfg = VitConfig::tiny();
        let mut source = VisionTransformer::new(&cfg, &mut Rng::new(6));
        source.set_active_attentions(&[0, 2, 3, 7, 11]);
        let model = source.prepare();
        let mut rng = Rng::new(7);
        let images: Vec<Matrix> = (0..EVAL_BATCH + 1)
            .map(|_| Matrix::rand_uniform(32, 32, 0.0, 1.0, &mut rng))
            .collect();
        let t = cfg.tokens();
        for vitcod in [VitCod::new(0.9), VitCod::new(0.3)] {
            // `embed_tokens`, each block under the score mask on the one
            // image, then `classify_tokens`.
            let composed = |image: &Matrix| {
                let mut x = model.embed_tokens(image);
                for block in model.encoder_blocks() {
                    block.infer_batch_in_place(&mut x, t, sparse_mask(t, vitcod.density()), |_| {});
                }
                model.classify_tokens(&x)
            };
            for n in [1, 5, EVAL_BATCH + 1] {
                let logits = model.infer_sparse_attention(&images[..n], vitcod.density());
                for (i, image) in images[..n].iter().enumerate() {
                    let row = logits.slice_rows(i, i + 1);
                    assert_eq!(bits(&row), bits(&composed(image)), "image {i} of {n}");
                    assert_eq!(bits(&row), bits(&vitcod.infer(&model, image)));
                }
            }
        }
    }

    #[test]
    fn accuracy_is_the_per_image_argmax_count() {
        let cfg = VitConfig::test_small();
        let config = DatasetConfig {
            classes: 4,
            image_size: 16,
            train_per_class: 1,
            test_per_class: 18,
            difficulty: (0.0, 1.0),
        };
        let test = Dataset::generate(&config, 8).test;
        let model = VisionTransformer::new(&cfg, &mut Rng::new(9)).prepare();
        let vitcod = VitCod::new(0.6);
        assert!(test.len() > 2 * EVAL_BATCH);
        let correct = test
            .iter()
            .filter(|s| vitcod.infer(&model, &s.image).row_argmax(0) == s.label)
            .count();
        let want = correct as f32 / test.len() as f32;
        assert_eq!(vitcod.accuracy(&model, &test), want);
        assert_eq!(vitcod.accuracy(&model, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "sparsity must be in")]
    fn full_sparsity_panics() {
        let _ = VitCod::new(1.0);
    }
}
