//! Functional HeatViT-style adaptive token pruning with token packaging.
//!
//! HeatViT scores token importance with lightweight predictors and prunes
//! progressively deeper stages harder; pruned tokens are not dropped but
//! *packaged* — merged into a single carrier token — to preserve their
//! aggregate information. The paper quotes HeatViT's DeiT-S pruning ratios
//! of 40% / 74% / 87% at encoders 4-6 / 7-9 / 10-12 (Section 4.3), which
//! are this module's defaults (0-based stage starts 3 / 6 / 9).
//!
//! The predictor is stood in for by an embedding-energy score (token L2
//! norm after the residual stream), which captures the same signal the
//! head-level predictors learn: low-energy tokens carry little evidence.

use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;

/// Progressive pruning schedule: `(first_encoder, cumulative_prune_ratio)`.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatVitConfig {
    /// Stage boundaries: before running encoder `first_encoder`, prune down
    /// to `1 - ratio` of the *original* patch tokens.
    pub stages: Vec<(usize, f32)>,
}

impl HeatVitConfig {
    /// The paper's DeiT-S schedule: 40% / 74% / 87% at stages starting with
    /// encoders 4 / 7 / 10 (1-based).
    pub fn deit_s() -> Self {
        Self {
            stages: vec![(3, 0.40), (6, 0.74), (9, 0.87)],
        }
    }

    /// Scales the stage boundaries to a different depth, preserving the
    /// relative positions (for the tiny stand-in models).
    fn scaled_to_depth(&self, depth: usize) -> Self {
        let base = self
            .stages
            .iter()
            .map(|&(e, _)| e)
            .max()
            .unwrap_or(0)
            .max(1);
        let reference_depth = (base + 3).max(12);
        Self {
            stages: self
                .stages
                .iter()
                .map(|&(e, r)| ((e * depth) / reference_depth, r))
                .collect(),
        }
    }

    /// Validates ratios and ordering.
    ///
    /// # Panics
    ///
    /// Panics if ratios are outside `[0, 1)` or not non-decreasing.
    pub fn validate(&self) {
        let mut prev = 0.0f32;
        for &(_, r) in &self.stages {
            assert!((0.0..1.0).contains(&r), "prune ratio {r} out of [0, 1)");
            assert!(r >= prev, "prune ratios must be non-decreasing");
            prev = r;
        }
    }
}

/// HeatViT-style inference wrapper around a trained model's
/// [`PreparedModel`] view.
///
/// # Example
///
/// ```no_run
/// use pivot_baselines::{HeatVit, HeatVitConfig};
/// use pivot_tensor::{Matrix, Rng};
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let model = VisionTransformer::new(&VitConfig::tiny(), &mut Rng::new(0)).prepare();
/// let heatvit = HeatVit::new(HeatVitConfig::deit_s(), 12);
/// let logits = heatvit.infer(&model, &Matrix::zeros(32, 32));
/// ```
#[derive(Debug, Clone)]
pub struct HeatVit {
    config: HeatVitConfig,
}

impl HeatVit {
    /// Creates the baseline for a model of the given depth, scaling the
    /// stage schedule if needed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: HeatVitConfig, depth: usize) -> Self {
        let config = if config.stages.iter().any(|&(e, _)| e >= depth) {
            config.scaled_to_depth(depth)
        } else {
            config
        };
        config.validate();
        Self { config }
    }

    /// The (possibly depth-scaled) schedule in use.
    pub fn config(&self) -> &HeatVitConfig {
        &self.config
    }

    /// Runs token-pruned inference: at each stage boundary the lowest-score
    /// patch tokens are merged into a single package token; the class token
    /// is always kept.
    pub fn infer(&self, model: &PreparedModel, image: &Matrix) -> Matrix {
        let mut tokens = model.embed_tokens(image);
        let original_patches = tokens.rows() - 1;
        let mut has_package = false;

        for (i, block) in model.encoder_blocks().iter().enumerate() {
            if let Some(&(_, ratio)) = self.config.stages.iter().find(|&&(start, _)| start == i) {
                let keep = (((1.0 - ratio) * original_patches as f32).ceil() as usize).max(1);
                let (pruned, package_now) = prune_and_package(&tokens, keep, has_package);
                tokens = pruned;
                has_package = package_now;
            }
            tokens = block.infer(&tokens);
        }
        model.classify_tokens(&tokens)
    }

    /// Number of live patch tokens entering each encoder (for cost
    /// accounting), excluding class and package tokens.
    pub fn live_tokens_per_encoder(&self, depth: usize, original_patches: usize) -> Vec<usize> {
        let mut live = original_patches;
        (0..depth)
            .map(|i| {
                if let Some(&(_, ratio)) = self.config.stages.iter().find(|&&(start, _)| start == i)
                {
                    live = (((1.0 - ratio) * original_patches as f32).ceil() as usize).max(1);
                }
                live
            })
            .collect()
    }
}

/// Keeps the class token (row 0) and the `keep` highest-energy patch
/// tokens; merges everything else (plus any existing package token, assumed
/// to be the last row) into one averaged package token appended at the end.
///
/// Returns the new token matrix and whether it carries a package token.
fn prune_and_package(tokens: &Matrix, keep: usize, has_package: bool) -> (Matrix, bool) {
    let patch_rows: Vec<usize> = if has_package {
        (1..tokens.rows() - 1).collect()
    } else {
        (1..tokens.rows()).collect()
    };
    if patch_rows.len() <= keep {
        return (tokens.clone(), has_package);
    }
    // Score = embedding energy.
    let mut scored: Vec<(usize, f32)> = patch_rows
        .iter()
        .map(|&r| {
            let norm: f32 = tokens.row(r).iter().map(|&v| v * v).sum();
            (r, norm)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite norms"));
    let mut kept: Vec<usize> = scored.iter().take(keep).map(|&(r, _)| r).collect();
    kept.sort_unstable();
    let dropped: Vec<usize> = scored.iter().skip(keep).map(|&(r, _)| r).collect();

    let dim = tokens.cols();
    let mut out = Matrix::zeros(1 + kept.len() + 1, dim);
    out.row_mut(0).copy_from_slice(tokens.row(0));
    for (dst, &src) in kept.iter().enumerate() {
        out.row_mut(1 + dst).copy_from_slice(tokens.row(src));
    }
    // Package: average of dropped tokens and the previous package.
    let mut package = vec![0.0f32; dim];
    let mut count = 0usize;
    for &r in &dropped {
        for (p, &v) in package.iter_mut().zip(tokens.row(r)) {
            *p += v;
        }
        count += 1;
    }
    if has_package {
        for (p, &v) in package.iter_mut().zip(tokens.row(tokens.rows() - 1)) {
            *p += v;
        }
        count += 1;
    }
    let inv = 1.0 / count.max(1) as f32;
    for p in &mut package {
        *p *= inv;
    }
    out.row_mut(kept.len() + 1).copy_from_slice(&package);
    (out, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};

    #[test]
    fn schedule_scaling_preserves_order() {
        let cfg = HeatVitConfig::deit_s().scaled_to_depth(4);
        cfg.validate();
        let starts: Vec<usize> = cfg.stages.iter().map(|&(s, _)| s).collect();
        assert_eq!(starts, vec![1, 2, 3]);
    }

    #[test]
    fn live_tokens_follow_paper_ratios() {
        let hv = HeatVit::new(HeatVitConfig::deit_s(), 12);
        let live = hv.live_tokens_per_encoder(12, 196);
        assert_eq!(live[0], 196);
        assert_eq!(live[3], ((0.6f32 * 196.0).ceil()) as usize);
        assert_eq!(live[6], ((0.26f32 * 196.0).ceil()) as usize);
        assert_eq!(live[9], ((0.13f32 * 196.0).ceil()) as usize);
        // Monotone non-increasing.
        for w in live.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn pruning_keeps_cls_and_packages() {
        let mut rng = Rng::new(0);
        let tokens = Matrix::randn(10, 8, 1.0, &mut rng);
        let (pruned, has_package) = prune_and_package(&tokens, 4, false);
        assert!(has_package);
        // cls + 4 kept + 1 package.
        assert_eq!(pruned.rows(), 6);
        assert_eq!(pruned.row(0), tokens.row(0));
    }

    #[test]
    fn no_pruning_needed_is_identity() {
        let mut rng = Rng::new(1);
        let tokens = Matrix::randn(5, 8, 1.0, &mut rng);
        let (same, has_package) = prune_and_package(&tokens, 10, false);
        assert_eq!(same, tokens);
        assert!(!has_package);
    }

    #[test]
    fn inference_produces_valid_logits() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(2)).prepare();
        let hv = HeatVit::new(HeatVitConfig::deit_s(), cfg.depth);
        let mut rng = Rng::new(3);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let logits = hv.infer(&model, &img);
        assert_eq!(logits.shape(), (1, cfg.num_classes));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pruned_inference_differs_from_dense() {
        let cfg = VitConfig::tiny();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(4)).prepare();
        let hv = HeatVit::new(HeatVitConfig::deit_s(), cfg.depth);
        let mut rng = Rng::new(5);
        let img = Matrix::rand_uniform(32, 32, 0.0, 1.0, &mut rng);
        let dense = model.infer(&img);
        let pruned = hv.infer(&model, &img);
        assert!(!dense.approx_eq(&pruned, 1e-6));
    }
}
