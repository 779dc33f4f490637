//! The Vision Transformer model.

use crate::VitConfig;
use pivot_nn::{EncoderBlock, Layer, LayerNorm, Linear, Param, QuantMode};
use pivot_tensor::{Matrix, Rng};

/// A Vision Transformer with per-encoder attention skipping.
///
/// # Example
///
/// ```
/// use pivot_tensor::{Matrix, Rng};
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let cfg = VitConfig::test_small();
/// let mut rng = Rng::new(0);
/// let model = VisionTransformer::new(&cfg, &mut rng);
/// let image = Matrix::zeros(cfg.image_size, cfg.image_size);
/// let logits = model.infer(&image);
/// assert_eq!(logits.shape(), (1, cfg.num_classes));
/// ```
#[derive(Debug, Clone)]
pub struct VisionTransformer {
    config: VitConfig,
    patch_embed: Linear,
    cls_token: Param,
    pos_embed: Param,
    blocks: Vec<EncoderBlock>,
    norm: LayerNorm,
    head: Linear,
    cache_tokens: Option<Matrix>,
    cache_patches: Option<Matrix>,
}

impl VisionTransformer {
    /// Creates a model with ViT-standard initialization.
    ///
    /// # Panics
    ///
    /// Panics with the reason [`VitConfig::try_validate`] returns if the
    /// configuration is invalid.
    pub fn new(config: &VitConfig, rng: &mut Rng) -> Self {
        if let Err(e) = config.try_validate() {
            panic!("{}", e.reason());
        }
        let blocks = (0..config.depth)
            .map(|_| {
                EncoderBlock::new(
                    config.dim,
                    config.heads,
                    config.mlp_hidden(),
                    config.quant,
                    rng,
                )
            })
            .collect();
        Self {
            patch_embed: Linear::new(config.patch_dim(), config.dim, config.quant, rng),
            cls_token: Param::new(Matrix::randn(1, config.dim, 0.02, rng)),
            pos_embed: Param::new(Matrix::randn(config.tokens(), config.dim, 0.02, rng)),
            blocks,
            norm: LayerNorm::new(config.dim),
            head: Linear::new(config.dim, config.num_classes, config.quant, rng),
            config: config.clone(),
            cache_tokens: None,
            cache_patches: None,
        }
    }

    /// The configuration the model was built from.
    pub fn config(&self) -> &VitConfig {
        &self.config
    }

    /// Encoder indices whose attention modules are currently active.
    pub fn active_attentions(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.attention_active().then_some(i))
            .collect()
    }

    /// Activates attention exactly at the given encoder indices and skips it
    /// everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn set_active_attentions(&mut self, active: &[usize]) {
        for &i in active {
            assert!(
                i < self.blocks.len(),
                "encoder index {i} out of depth {}",
                self.blocks.len()
            );
        }
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.set_attention_active(active.contains(&i));
        }
    }

    /// The *effort* of the current configuration: number of active
    /// attention modules (the paper's definition).
    pub fn effort(&self) -> usize {
        self.blocks.iter().filter(|b| b.attention_active()).count()
    }

    /// Switches the numerics of every projection (e.g. to
    /// [`QuantMode::Int8`] deployment numerics after training).
    pub fn set_quant_mode(&mut self, quant: QuantMode) {
        self.config.quant = quant;
        self.patch_embed.set_quant_mode(quant);
        self.head.set_quant_mode(quant);
        for b in &mut self.blocks {
            b.set_quant_mode(quant);
        }
    }

    /// Splits an image into flattened patches, one patch per row.
    ///
    /// # Panics
    ///
    /// Panics if the image shape does not match the configuration.
    pub fn patchify(&self, image: &Matrix) -> Matrix {
        let mut patches = Matrix::zeros(self.config.num_patches(), self.config.patch_dim());
        patchify_into(&self.config, image, patches.as_mut_slice());
        patches
    }

    /// Freezes the model into an immutable [`crate::PreparedModel`]
    /// inference view: every [`Linear`] (patch embed, Q/K/V, projections,
    /// MLPs, head) fits its quantizer and materializes its effective weight
    /// exactly once. The view is the inference implementation (this model's
    /// own [`Self::infer`]/[`Self::accuracy`] prepare
    /// one and delegate); it does zero per-call weight work and is
    /// `Send + Sync`, so one instance can serve every worker thread.
    ///
    /// The view snapshots the current weights, quantization mode and
    /// attention-skip pattern; any mutation of the model afterwards
    /// (training, `set_quant_mode`, `set_active_attentions`, fault
    /// injection) requires calling `prepare()` again.
    pub fn prepare(&self) -> crate::PreparedModel {
        self.prepare_with(None)
    }

    /// Like [`VisionTransformer::prepare`], with every [`Linear`]
    /// deduplicated through `store`: a layer whose weights, bias and quant
    /// mode are bit-identical to one already prepared into the store (a
    /// previous effort level of the same backbone, say) reuses its
    /// `Arc`-shared effective weight instead of materializing another
    /// copy. Bit-identical to [`VisionTransformer::prepare`] either way —
    /// the store key covers every input preparation consumes.
    pub fn prepare_in(&self, store: &pivot_nn::PreparedStore) -> crate::PreparedModel {
        self.prepare_with(Some(store))
    }

    /// The one preparation body. The sub-layers' own bodies are private to
    /// `pivot-nn`, so each is reached through its public forwarder.
    fn prepare_with(&self, store: Option<&pivot_nn::PreparedStore>) -> crate::PreparedModel {
        let linear = |l: &Linear| store.map_or_else(|| l.prepare(), |s| l.prepare_in(s));
        let block = |b: &EncoderBlock| store.map_or_else(|| b.prepare(), |s| b.prepare_in(s));
        crate::PreparedModel {
            config: self.config.clone(),
            patch_embed: linear(&self.patch_embed),
            cls_token: self.cls_token.value.clone(),
            pos_embed: self.pos_embed.value.clone(),
            blocks: self.blocks.iter().map(block).collect(),
            norm: self.norm.clone(),
            head: linear(&self.head),
        }
    }

    /// Embeds an image into the token matrix the encoder stack consumes
    /// (class token + patch embeddings + positional embeddings), through a
    /// view of the patch-embedding layer alone.
    pub fn embed_tokens(&self, image: &Matrix) -> Matrix {
        crate::prepared::embed_batch(
            &self.config,
            &self.patch_embed.prepare(),
            &self.cls_token.value,
            &self.pos_embed.value,
            &[image],
        )
    }

    /// Inference-only forward returning logits (`1 x num_classes`).
    ///
    /// Prepares a view per call; callers inferring more than once should
    /// hold one [`Self::prepare`] view and call it directly.
    pub fn infer(&self, image: &Matrix) -> Matrix {
        self.prepare().infer(image)
    }

    /// Training forward pass; caches intermediates for [`Self::backward`].
    ///
    /// Returns `(logits, cls_feature)`; the feature is what distillation
    /// matches against the teacher.
    pub fn forward(&mut self, image: &Matrix) -> (Matrix, Matrix) {
        let patches = self.patchify(image);
        // Patch embed with caching for backward.
        let embedded = self.patch_embed.forward(&patches);
        let tokens = self.cls_token.value.vcat(&embedded);
        let mut x = &tokens + &self.pos_embed.value;
        self.cache_patches = Some(patches);
        self.cache_tokens = Some(x.clone());
        for block in &mut self.blocks {
            x = block.forward(&x);
        }
        let normed = self.norm.forward(&x);
        let cls_feature = normed.slice_rows(0, 1);
        let logits = self.head.forward(&cls_feature);
        (logits, cls_feature)
    }

    /// Backpropagates gradients from the logits (`d_logits`) and optionally
    /// from the distillation loss on the class feature (`d_cls_feature`).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::forward`].
    pub fn backward(&mut self, d_logits: &Matrix, d_cls_feature: Option<&Matrix>) {
        let mut d_cls = self.head.backward(d_logits);
        if let Some(extra) = d_cls_feature {
            d_cls.add_scaled_in_place(extra, 1.0);
        }
        // Expand the class-row gradient to the full token matrix.
        let tokens = self.config.tokens();
        let mut d_normed = Matrix::zeros(tokens, self.config.dim);
        d_normed.row_mut(0).copy_from_slice(d_cls.row(0));
        let mut dx = self.norm.backward(&d_normed);
        for block in self.blocks.iter_mut().rev() {
            dx = block.backward(&dx);
        }
        // dx is the gradient at (cls ++ patch_embed) + pos_embed.
        self.pos_embed.accumulate(&dx);
        self.cls_token.accumulate(&dx.slice_rows(0, 1));
        let d_patches = dx.slice_rows(1, tokens);
        self.patch_embed.backward(&d_patches);
    }

    /// All trainable parameters in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.patch_embed.params_mut();
        params.push(&mut self.cls_token);
        params.push(&mut self.pos_embed);
        for b in &mut self.blocks {
            params.extend(b.params_mut());
        }
        params.extend(self.norm.params_mut());
        params.extend(self.head.params_mut());
        params
    }

    /// Clears accumulated gradients on every parameter.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Classification accuracy over labeled samples, through one prepared
    /// view.
    pub fn accuracy(&self, samples: &[pivot_data::Sample]) -> f32 {
        self.prepare().accuracy(samples)
    }
}

/// Shared patchify kernel: writes an image's flattened patches, one patch
/// per row, into the row-major `num_patches x patch_dim` buffer `out` —
/// a whole matrix, or one sample's rows of a stacked batch. Used by both
/// the training forward of [`VisionTransformer`] and
/// [`crate::PreparedModel`] so the two cannot diverge.
///
/// # Panics
///
/// Panics if the image shape does not match the configuration or `out`
/// is not `num_patches x patch_dim`.
pub(crate) fn patchify_into(config: &VitConfig, image: &Matrix, out: &mut [f32]) {
    let (s, p) = (config.image_size, config.patch_size);
    assert_eq!(image.shape(), (s, s), "image shape mismatch");
    assert_eq!(out.len(), config.num_patches() * p * p, "patch buffer size");
    let per_side = s / p;
    for (patch, row) in out.chunks_exact_mut(p * p).enumerate() {
        let (pr, pc) = (patch / per_side, patch % per_side);
        for (dr, pixels) in row.chunks_exact_mut(p).enumerate() {
            pixels.copy_from_slice(&image.row(pr * p + dr)[pc * p..(pc + 1) * p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_nn::cross_entropy;

    fn tiny_model(seed: u64) -> VisionTransformer {
        let mut rng = Rng::new(seed);
        VisionTransformer::new(&VitConfig::test_small(), &mut rng)
    }

    #[test]
    fn logits_shape() {
        let model = tiny_model(0);
        let img = Matrix::zeros(16, 16);
        assert_eq!(model.infer(&img).shape(), (1, 4));
    }

    #[test]
    fn patchify_layout() {
        let model = tiny_model(0);
        let img = Matrix::from_fn(16, 16, |r, c| (r * 16 + c) as f32);
        let patches = model.patchify(&img);
        assert_eq!(patches.shape(), (4, 64));
        // First element of patch 1 is pixel (0, 8).
        assert_eq!(patches[(1, 0)], img[(0, 8)]);
        // First element of patch 2 is pixel (8, 0).
        assert_eq!(patches[(2, 0)], img[(8, 0)]);
        // Patch 3 ends at pixel (15, 15).
        assert_eq!(patches[(3, 63)], img[(15, 15)]);
    }

    #[test]
    fn skipping_attention_changes_output() {
        let mut model = tiny_model(1);
        let mut rng = Rng::new(2);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let full = model.infer(&img);
        model.set_active_attentions(&[0, 2]);
        assert_eq!(model.effort(), 2);
        let skipped = model.infer(&img);
        assert!(!full.approx_eq(&skipped, 1e-6));
    }

    #[test]
    fn active_attentions_round_trip() {
        let mut model = tiny_model(1);
        model.set_active_attentions(&[1, 3]);
        assert_eq!(model.active_attentions(), vec![1, 3]);
        model.set_active_attentions(&[]);
        assert_eq!(model.effort(), 0);
    }

    #[test]
    #[should_panic(expected = "out of depth")]
    fn out_of_range_attention_index_panics() {
        let mut model = tiny_model(1);
        model.set_active_attentions(&[99]);
    }

    #[test]
    fn forward_matches_infer() {
        let mut model = tiny_model(4);
        let mut rng = Rng::new(5);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let (logits, cls_feature) = model.forward(&img);
        let bits = |m: Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(logits), bits(model.infer(&img)));
        let inferred = model.prepare().cls_features(&[&img], |cls| cls);
        assert_eq!(bits(cls_feature), bits(inferred));
    }

    #[test]
    fn single_step_reduces_loss() {
        use pivot_nn::{Adam, AdamConfig};
        let mut model = tiny_model(6);
        let mut rng = Rng::new(7);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let label = 2;
        let (logits, _) = model.forward(&img);
        let before = cross_entropy(&logits, label);
        model.backward(&before.grad, None);
        let mut adam = Adam::new(AdamConfig {
            lr: 5e-3,
            ..Default::default()
        });
        adam.step(&mut model.params_mut());
        let after = cross_entropy(&model.infer(&img), label);
        assert!(
            after.loss < before.loss,
            "loss did not decrease: {} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn gradient_check_through_whole_model() {
        let mut model = tiny_model(8);
        let mut rng = Rng::new(9);
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
        let label = 1;

        let (logits, _) = model.forward(&img);
        let lv = cross_entropy(&logits, label);
        model.backward(&lv.grad, None);

        // Check a handful of parameters spread across the model.
        let h = 1e-2;
        let n_params = model.params_mut().len();
        for pi in [0usize, 2, 3, n_params - 1] {
            let p0 = model.params_mut()[pi].value.clone();
            let analytic = model.params_mut()[pi].grad.clone();
            let stride = (p0.len() / 4).max(1);
            for i in (0..p0.len()).step_by(stride) {
                let mut pp = p0.clone();
                pp.as_mut_slice()[i] += h;
                model.params_mut()[pi].value = pp;
                let lp = cross_entropy(&model.infer(&img), label).loss;
                let mut pm = p0.clone();
                pm.as_mut_slice()[i] -= h;
                model.params_mut()[pi].value = pm;
                let lm = cross_entropy(&model.infer(&img), label).loss;
                model.params_mut()[pi].value = p0.clone();
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (analytic.as_slice()[i] - fd).abs() < 3e-2,
                    "param {pi}[{i}]: analytic {} vs fd {fd}",
                    analytic.as_slice()[i]
                );
            }
        }
    }

    #[test]
    fn param_count_scales_with_depth() {
        let mut small = tiny_model(0);
        let mut rng = Rng::new(0);
        let mut deep = VisionTransformer::new(
            &VitConfig {
                depth: 8,
                ..VitConfig::test_small()
            },
            &mut rng,
        );
        assert!(deep.param_count() > small.param_count());
    }
}
