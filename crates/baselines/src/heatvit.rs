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

use pivot_data::Sample;
use pivot_tensor::Matrix;
use pivot_vit::{chunked_accuracy, PreparedModel};
use std::borrow::Borrow;

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
    fn validate(&self) {
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

    /// Token-pruned inference of one image: [`Self::forward_batch`] of one.
    pub fn infer(&self, model: &PreparedModel, image: &Matrix) -> Matrix {
        self.forward_batch(model, &[image])
    }

    /// Token-pruned batched inference, one logits row per image: the
    /// model's walk with the token pruning at each stage boundary as its
    /// restaging step ([`PreparedModel::forward_batch_restaged`]). The keep
    /// count is a ratio of the patch count, the same for every image, so
    /// the batch stays rectangular; row `i` is bit-identical to
    /// `self.infer(model, &images[i])`.
    pub fn forward_batch<M: Borrow<Matrix>>(&self, model: &PreparedModel, images: &[M]) -> Matrix {
        model.forward_batch_restaged(images, self.restage(model.config().num_patches()))
    }

    /// Classification accuracy over labeled samples: [`chunked_accuracy`]
    /// of [`Self::forward_batch`].
    pub fn accuracy(&self, model: &PreparedModel, samples: &[Sample]) -> f32 {
        chunked_accuracy(samples, |images| self.forward_batch(model, images))
    }

    /// Number of live patch tokens entering each encoder (for cost
    /// accounting), excluding class and package tokens.
    pub fn live_tokens_per_encoder(&self, depth: usize, original_patches: usize) -> Vec<usize> {
        let mut live = original_patches;
        (0..depth)
            .map(|block| {
                live = self.keep_before(block, original_patches).unwrap_or(live);
                live
            })
            .collect()
    }

    /// The restaging step of [`Self::forward_batch`] for images of
    /// `patches` patch tokens: [`prune_and_package`] before every block a
    /// stage starts at.
    fn restage(&self, patches: usize) -> impl FnMut(usize, &mut Matrix, usize) -> usize + '_ {
        let (mut package, mut scored, mut sum) = (false, Vec::new(), Vec::new());
        move |block, x, tokens| match self.keep_before(block, patches) {
            Some(keep) => prune_and_package(x, tokens, keep, &mut package, &mut scored, &mut sum),
            None => tokens,
        }
    }

    /// The patch tokens an image keeps entering encoder `block` if a stage
    /// starts there: `1 - ratio` of the original `patches`, rounded up, at
    /// least one.
    fn keep_before(&self, block: usize, patches: usize) -> Option<usize> {
        let &(_, ratio) = self.config.stages.iter().find(|s| s.0 == block)?;
        Some((((1.0 - ratio) * patches as f32).ceil() as usize).max(1))
    }
}

/// Prunes each image stacked in `x` (`tokens` rows each) in place: keeps
/// its class token (row 0) and its `keep` highest-energy patch tokens in
/// their order, and merges the others, plus its package token (the last
/// row) if `package` is set, into one averaged package token after them.
/// Returns the new token count and sets `package`; an image with at most
/// `keep` patch tokens is left as it is. `scored` and `sum` are scratch.
///
/// Norms rank by [`f32::total_cmp`], ties by position, which is the order
/// a stable sort gives: a NaN token ranks (first or last, by its sign bit)
/// instead of panicking the sort, and stays in the stream, kept or merged.
fn prune_and_package(
    x: &mut Matrix,
    tokens: usize,
    keep: usize,
    package: &mut bool,
    scored: &mut Vec<(usize, f32)>,
    sum: &mut Vec<f32>,
) -> usize {
    let patches = tokens - 1 - usize::from(*package);
    if patches <= keep {
        return tokens;
    }
    let (dim, kept, images) = (x.cols(), keep + 2, x.rows() / tokens);
    for s in 0..images {
        let (from, to) = (s * tokens, s * kept);
        scored.clear();
        scored.extend((1..=patches).map(|r| (r, x.row(from + r).iter().map(|&v| v * v).sum())));
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let (kept_rows, dropped) = scored.split_at_mut(keep);
        sum.clear();
        sum.resize(dim, 0.0);
        let old_package = package.then_some(tokens - 1);
        let merged = dropped.iter().map(|d| d.0).chain(old_package);
        for r in merged.clone() {
            for (p, &v) in sum.iter_mut().zip(x.row(from + r)) {
                *p += v;
            }
        }
        let inv = 1.0 / merged.count() as f32;
        for p in sum.iter_mut() {
            *p *= inv;
        }
        // Every row moves up or stays (`to + j <= from + r`), and the kept
        // rows go in ascending order, so each is read before it is
        // overwritten; the merged rows are already summed.
        kept_rows.sort_unstable_by_key(|&(r, _)| r);
        let rows = std::iter::once(0).chain(kept_rows.iter().map(|&(r, _)| r));
        for (j, r) in rows.enumerate() {
            let at = (from + r) * dim;
            x.as_mut_slice().copy_within(at..at + dim, (to + j) * dim);
        }
        x.row_mut(to + kept - 1).copy_from_slice(sum);
    }
    x.reuse_as(images * kept, dim);
    *package = true;
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::{Dataset, DatasetConfig};
    use pivot_nn::QuantMode;
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig, EVAL_BATCH};

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn images(config: &VitConfig, n: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::new(seed);
        let side = config.image_size;
        (0..n)
            .map(|_| Matrix::rand_uniform(side, side, 0.0, 1.0, &mut rng))
            .collect()
    }

    /// The pruning of one image as a copy: keeps the class token and the
    /// `keep` highest-energy patch tokens (a stable sort, NaN by
    /// `total_cmp`), and averages the rest and any package into one new
    /// last row.
    fn pruned_copy(tokens: &Matrix, keep: usize, has_package: bool) -> (Matrix, bool) {
        let patch_rows: Vec<usize> = (1..tokens.rows() - usize::from(has_package)).collect();
        if patch_rows.len() <= keep {
            return (tokens.clone(), has_package);
        }
        let mut scored: Vec<(usize, f32)> = patch_rows
            .iter()
            .map(|&r| (r, tokens.row(r).iter().map(|&v| v * v).sum()))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut kept: Vec<usize> = scored[..keep].iter().map(|&(r, _)| r).collect();
        kept.sort_unstable();
        let mut merged: Vec<usize> = scored[keep..].iter().map(|&(r, _)| r).collect();
        if has_package {
            merged.push(tokens.rows() - 1);
        }
        let mut out = Matrix::zeros(kept.len() + 2, tokens.cols());
        out.row_mut(0).copy_from_slice(tokens.row(0));
        for (dst, &src) in kept.iter().enumerate() {
            out.row_mut(1 + dst).copy_from_slice(tokens.row(src));
        }
        let package = out.row_mut(kept.len() + 1);
        for &r in &merged {
            for (p, &v) in package.iter_mut().zip(tokens.row(r)) {
                *p += v;
            }
        }
        let inv = 1.0 / merged.len() as f32;
        for p in package.iter_mut() {
            *p *= inv;
        }
        (out, true)
    }

    /// The per-image reference that is not the walk: `embed_tokens`, then
    /// each block on the one image after the stage's pruning, then
    /// `classify_tokens`.
    fn composed(hv: &HeatVit, model: &PreparedModel, image: &Matrix) -> Matrix {
        let mut x = model.embed_tokens(image);
        let (patches, mut package) = (x.rows() - 1, false);
        for (b, block) in model.encoder_blocks().iter().enumerate() {
            if let Some(keep) = hv.keep_before(b, patches) {
                (x, package) = pruned_copy(&x, keep, package);
            }
            x = block.infer_batch(&x, x.rows());
        }
        model.classify_tokens(&x)
    }

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
    fn pruning_in_place_is_the_per_image_copy_for_every_image() {
        let mut rng = Rng::new(0);
        for package in [false, true] {
            // Three images of 10 tokens; the middle one has tied norms.
            let images: Vec<Matrix> = (0..3)
                .map(|_| Matrix::randn(10, 8, 1.0, &mut rng))
                .collect();
            let mut images = images;
            images[1].row_mut(4).fill(0.5);
            images[1].row_mut(7).fill(-0.5);
            let mut x = images[0].vcat(&images[1]).vcat(&images[2]);
            let (mut set, mut scored, mut sum) = (package, Vec::new(), Vec::new());
            assert_eq!(
                prune_and_package(&mut x, 10, 4, &mut set, &mut scored, &mut sum),
                6
            );
            assert!(set);
            assert_eq!(x.shape(), (18, 8));
            for (i, image) in images.iter().enumerate() {
                let (want, _) = pruned_copy(image, 4, package);
                assert_eq!(
                    bits(&x.slice_rows(6 * i, 6 * i + 6)),
                    bits(&want),
                    "image {i}"
                );
                assert_eq!(x.row(6 * i), image.row(0), "the class token stays first");
            }
        }
    }

    #[test]
    fn no_pruning_needed_is_identity() {
        let mut rng = Rng::new(1);
        let tokens = Matrix::randn(10, 8, 1.0, &mut rng);
        for (keep, package) in [(4, false), (8, true)] {
            let mut x = tokens.clone();
            let mut set = package;
            let t = prune_and_package(&mut x, 5, keep, &mut set, &mut Vec::new(), &mut Vec::new());
            assert_eq!((t, set), (5, package));
            assert_eq!(x, tokens);
        }
    }

    #[test]
    fn batched_forward_is_bit_identical_to_the_per_image_composition() {
        // Tiny (17 tokens, depth 12) prunes to 12, 7 and 5 tokens;
        // Test-Small (5 tokens, depth 4) to 5, 4 and 3.
        let tiny = VitConfig::tiny();
        let small = VitConfig {
            quant: QuantMode::Int8,
            ..VitConfig::test_small()
        };
        for (seed, config) in [(10, tiny), (11, small)] {
            let mut source = VisionTransformer::new(&config, &mut Rng::new(seed));
            source.set_active_attentions(&[0, 1, 3]);
            let model = source.prepare();
            let hv = HeatVit::new(HeatVitConfig::deit_s(), config.depth);
            let images = images(&config, EVAL_BATCH + 1, seed + 1);
            let want: Vec<Matrix> = images.iter().map(|im| composed(&hv, &model, im)).collect();
            for n in [1, 5, EVAL_BATCH + 1] {
                let logits = hv.forward_batch(&model, &images[..n]);
                assert_eq!(logits.shape(), (n, config.num_classes));
                for (i, want) in want[..n].iter().enumerate() {
                    let row = logits.slice_rows(i, i + 1);
                    assert_eq!(bits(&row), bits(want), "{}: image {i} of {n}", config.name);
                    assert_eq!(bits(&row), bits(&hv.infer(&model, &images[i])));
                }
            }
            assert_eq!(
                hv.forward_batch::<Matrix>(&model, &[]).shape(),
                (0, config.num_classes)
            );
        }
    }

    #[test]
    fn each_block_runs_on_the_class_token_the_live_patches_and_the_package() {
        let config = VitConfig::tiny();
        let model = VisionTransformer::new(&config, &mut Rng::new(12)).prepare();
        let hv = HeatVit::new(HeatVitConfig::deit_s(), config.depth);
        let patches = config.num_patches();
        let live = hv.live_tokens_per_encoder(config.depth, patches);
        let want: Vec<usize> = live
            .iter()
            .map(|&l| 1 + l + usize::from(l < patches))
            .collect();
        assert_eq!(&want[..], [17, 17, 17, 12, 12, 12, 7, 7, 7, 5, 5, 5]);
        for n in [1, 4] {
            let mut restage = hv.restage(patches);
            let mut entering = Vec::new();
            let _ = model.forward_batch_restaged(&images(&config, n, 13), |b, x, t| {
                let t = restage(b, x, t);
                assert_eq!(x.rows(), n * t);
                entering.push(t);
                t
            });
            assert_eq!(entering, want, "batch {n}");
        }
    }

    #[test]
    fn a_nan_pixel_poisons_its_own_logits_and_no_other_row() {
        let config = VitConfig::tiny();
        let model = VisionTransformer::new(&config, &mut Rng::new(14)).prepare();
        let hv = HeatVit::new(HeatVitConfig::deit_s(), config.depth);
        let mut batch = images(&config, 3, 15);
        batch[1].row_mut(9)[20] = f32::NAN;
        let alone = hv.infer(&model, &batch[1]);
        assert!(!alone.is_all_finite());
        assert!(!model.infer(&batch[1]).is_all_finite());
        let logits = hv.forward_batch(&model, &batch);
        for (i, image) in batch.iter().enumerate() {
            let row = logits.slice_rows(i, i + 1);
            assert_eq!(bits(&row), bits(&hv.infer(&model, image)), "image {i}");
            assert_eq!(row.is_all_finite(), i != 1, "image {i}");
        }
    }

    #[test]
    fn accuracy_is_the_per_image_argmax_count() {
        let config = VitConfig::test_small();
        let data = Dataset::generate(
            &DatasetConfig {
                classes: 4,
                image_size: 16,
                train_per_class: 1,
                test_per_class: 18,
                difficulty: (0.0, 1.0),
            },
            16,
        );
        let model = VisionTransformer::new(&config, &mut Rng::new(17)).prepare();
        let hv = HeatVit::new(HeatVitConfig::deit_s(), config.depth);
        assert!(data.test.len() > 2 * EVAL_BATCH);
        let correct = data
            .test
            .iter()
            .filter(|s| hv.infer(&model, &s.image).row_argmax(0) == s.label)
            .count();
        assert_eq!(
            hv.accuracy(&model, &data.test),
            correct as f32 / data.test.len() as f32
        );
        assert_eq!(hv.accuracy(&model, &[]), 0.0);
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
