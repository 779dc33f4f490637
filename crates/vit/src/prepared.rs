//! The frozen whole-model inference view.
//!
//! [`PreparedModel`] is the only inference implementation of the crate
//! ([`VisionTransformer`](crate::VisionTransformer) keeps the training
//! `forward`/`backward` and delegates its inference conveniences to a view):
//! built once by [`VisionTransformer::prepare`](crate::VisionTransformer::prepare),
//! it holds every layer's effective (fake-quantized) weight as immutable
//! data, so repeated inference — batched evaluation sweeps, cascade
//! calibration, CKA scoring — does zero per-call quantizer fitting or
//! weight materialization.

use crate::model::patchify_into;
use crate::{ForwardTrace, VitConfig};
use pivot_nn::{LayerNorm, PreparedEncoderBlock, PreparedLinear};
use pivot_tensor::Matrix;

/// Immutable inference view of a [`VisionTransformer`](crate::VisionTransformer).
///
/// Plain data (`Send + Sync`): one instance can be shared by reference
/// across every worker thread without cloning or locking. Snapshots the
/// weights, quantization mode and attention-skip pattern at prepare time —
/// mutate the source model and the view is stale; call
/// [`VisionTransformer::prepare`](crate::VisionTransformer::prepare) again.
///
/// # Example
///
/// ```
/// use pivot_tensor::{Matrix, Rng};
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let cfg = VitConfig::test_small();
/// let model = VisionTransformer::new(&cfg, &mut Rng::new(0));
/// let prepared = model.prepare();
/// let image = Matrix::zeros(cfg.image_size, cfg.image_size);
/// assert_eq!(prepared.infer(&image), model.infer(&image));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedModel {
    pub(crate) config: VitConfig,
    pub(crate) patch_embed: PreparedLinear,
    pub(crate) cls_token: Matrix,
    pub(crate) pos_embed: Matrix,
    pub(crate) blocks: Vec<PreparedEncoderBlock>,
    pub(crate) norm: LayerNorm,
    pub(crate) head: PreparedLinear,
}

impl PreparedModel {
    /// The configuration of the model this view was prepared from.
    pub fn config(&self) -> &VitConfig {
        &self.config
    }

    /// Number of active attention modules captured at prepare time (the
    /// paper's effort).
    pub fn effort(&self) -> usize {
        self.blocks.iter().filter(|b| b.attention_active()).count()
    }

    /// Encoder indices whose attention modules were active at prepare time.
    pub fn active_attentions(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.attention_active().then_some(i))
            .collect()
    }

    /// The prepared encoder blocks (read-only).
    pub fn encoder_blocks(&self) -> &[PreparedEncoderBlock] {
        &self.blocks
    }

    /// Weight bytes resident across all linear layers (4 per weight).
    ///
    /// This is the per-model *streamed* footprint; layers `Arc`-shared
    /// with other views (a [`pivot_nn::PreparedStore`] ladder) are counted
    /// in full for every view that holds them. For the deduplicated
    /// resident footprint, see [`PreparedModel::unique_weight_bytes`].
    pub fn weight_bytes(&self) -> usize {
        self.patch_embed.weight_bytes()
            + self.head.weight_bytes()
            + self.blocks.iter().map(|b| b.weight_bytes()).sum::<usize>()
    }

    /// Weight bytes this view holds that are not already counted in
    /// `seen` (keyed by `Arc` pointer identity, see
    /// [`pivot_nn::PreparedLinear::unique_weight_bytes_into`]). Folding
    /// one `seen` set over every level of a ladder yields the ladder's
    /// true resident weight footprint.
    pub fn unique_weight_bytes_into(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        self.patch_embed.unique_weight_bytes_into(seen)
            + self.head.unique_weight_bytes_into(seen)
            + self
                .blocks
                .iter()
                .map(|b| b.unique_weight_bytes_into(seen))
                .sum::<usize>()
    }

    /// Weight bytes actually resident for this view alone: like
    /// [`PreparedModel::weight_bytes`], but each `Arc`-shared allocation
    /// is counted once even if several layers of *this* model share it.
    pub fn unique_weight_bytes(&self) -> usize {
        self.unique_weight_bytes_into(&mut std::collections::HashSet::new())
    }

    /// A re-view of this model under a different attention-skip pattern,
    /// `Arc`-sharing every weight payload with `self`.
    ///
    /// Prepared views hold every block's weights whether or not its
    /// attention is active (skipped attentions stay resident in simulated
    /// SRAM), so changing only the skip switches needs no weight work —
    /// this is how a whole effort ladder derives from one prepared
    /// backbone in O(pointer bumps). The result is bit-identical to
    /// re-preparing the source model under `active`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn with_active_attentions(&self, active: &[usize]) -> Self {
        for &i in active {
            assert!(
                i < self.blocks.len(),
                "encoder index {i} out of depth {}",
                self.blocks.len()
            );
        }
        Self {
            blocks: self
                .blocks
                .iter()
                .enumerate()
                .map(|(i, b)| b.with_attention_active(active.contains(&i)))
                .collect(),
            ..self.clone()
        }
    }

    /// Embeds an image into the token matrix the encoder stack consumes
    /// (class token + patch embeddings + positional embeddings).
    ///
    /// Exposed so baselines (token pruning) can run modified encoder
    /// schedules.
    pub fn embed_tokens(&self, image: &Matrix) -> Matrix {
        self.embed(&[image])
    }

    fn embed<M: std::borrow::Borrow<Matrix>>(&self, images: &[M]) -> Matrix {
        embed_batch(
            &self.config,
            &self.patch_embed,
            &self.cls_token,
            &self.pos_embed,
            images,
        )
    }

    /// Applies the final norm and classifier head to an encoder-stack
    /// output, reading the class token (row 0).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` has no rows or the wrong width.
    pub fn classify_tokens(&self, tokens: &Matrix) -> Matrix {
        self.head.infer(&self.norm.infer(tokens).slice_rows(0, 1))
    }

    /// Inference returning logits (`1 x num_classes`).
    pub fn infer(&self, image: &Matrix) -> Matrix {
        self.infer_traced(image).logits
    }

    /// Traced inference capturing the per-encoder activations needed by the
    /// CKA analysis and the distillation feature.
    pub fn infer_traced(&self, image: &Matrix) -> ForwardTrace {
        let mut x = self.embed_tokens(image);
        let mut attention_out = Vec::with_capacity(self.blocks.len());
        let mut mlp_out = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let trace = block.infer_traced(&x);
            x = trace.mlp_out.clone();
            attention_out.push(trace.attention_out);
            mlp_out.push(trace.mlp_out);
        }
        let normed = self.norm.infer(&x);
        let cls_feature = normed.slice_rows(0, 1);
        let logits = self.head.infer(&cls_feature);
        ForwardTrace {
            attention_out,
            mlp_out,
            cls_feature,
            logits,
        }
    }

    /// Inference with ViTCOD-style attention sparsification in every active
    /// attention (see [`pivot_nn::PreparedAttention::infer_sparse`]).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    pub fn infer_sparse_attention(&self, image: &Matrix, density: f32) -> Matrix {
        let mut x = self.embed_tokens(image);
        for block in &self.blocks {
            x = block.infer_sparse(&x, density);
        }
        self.classify_tokens(&x)
    }

    /// Batched inference: runs every image through the encoder stack at
    /// once, returning one logits row per image (`images.len() x
    /// num_classes`).
    ///
    /// Samples are stacked along rows, so the patch embedding,
    /// Q/K/V and output projections, MLPs and classifier head each run as
    /// one wide GEMM per layer instead of one GEMM per sample. Attention
    /// scores are still computed per sample (they must not mix samples).
    ///
    /// Every kernel on the batched path is row-wise with a fixed
    /// accumulation order, so row `i` of the result is bit-identical to
    /// `self.infer(&images[i])` — for any batch size, including ragged
    /// tails and a batch of one. Takes `&self`: one view can be shared
    /// across worker threads without cloning.
    ///
    /// Accepts owned (`&[Matrix]`) or borrowed (`&[&Matrix]`) rows, so
    /// chunked evaluators can pass references into their dataset instead of
    /// cloning every image.
    pub fn forward_batch<M: std::borrow::Borrow<Matrix>>(&self, images: &[M]) -> Matrix {
        if images.is_empty() {
            return Matrix::zeros(0, self.config.num_classes);
        }
        self.cls_features(images, |cls| self.head.infer(&cls))
    }

    /// The class-feature stage of [`Self::forward_batch`]: hands `then` the
    /// final-norm class-token row of each image (`images.len() x dim`), row
    /// `i` bit-identical to `self.infer_traced(&images[i]).cls_feature`.
    /// The trainer computes a mini-batch's distillation targets with it.
    ///
    /// `then` runs while the encoder activations are still allocated, so
    /// `forward_batch` allocates and frees in the order it did before this
    /// stage was split out: returning the rows first, which frees the
    /// activations before the head allocates, read about a fifth slower on
    /// the Phase-2 sweep benchmark, with a lower peak RSS.
    pub(crate) fn cls_features<M: std::borrow::Borrow<Matrix>, R>(
        &self,
        images: &[M],
        then: impl FnOnce(Matrix) -> R,
    ) -> R {
        let t = self.config.tokens();
        let mut x = self.embed(images);
        for block in &self.blocks {
            x = block.infer_batch(&x, t);
        }
        then(self.class_features(&x, images.len()))
    }

    /// The tail after the encoder stack: gathers each of the `samples`
    /// stacked in `x` by its class token (row 0 of its `tokens` rows),
    /// then runs the final norm over them as one batch.
    fn class_features(&self, x: &Matrix, samples: usize) -> Matrix {
        let t = self.config.tokens();
        let mut cls = Matrix::zeros(samples, self.config.dim);
        for s in 0..samples {
            cls.row_mut(s).copy_from_slice(x.row(s * t));
        }
        self.norm.infer(&cls)
    }

    /// [`Self::forward_batch`] for several effort levels at once, returning
    /// one logits matrix per level, in `levels` order.
    ///
    /// Effort levels derived from one backbone differ only in their skip
    /// masks, so they compute the same embedding and the same leading
    /// blocks. This pass runs the embedding once per group of levels whose
    /// embedding stages match, and then each encoder block once per group
    /// of levels that has computed the same function so far. A group splits
    /// at the first block where its levels differ
    /// ([`PreparedEncoderBlock::computes_same_as`]); the parts never merge
    /// again, since their inputs differ from there on. Each level finishes
    /// with its own class gather, norm and head.
    ///
    /// Every stage is the one [`Self::forward_batch`] runs, on the same
    /// rows, so level `l`'s result is bit-identical to
    /// `levels[l].forward_batch(images)`. Views that share no weight
    /// allocation (prepared separately, without a
    /// [`pivot_nn::PreparedStore`]) share nothing and cost what separate
    /// calls cost.
    pub fn forward_batch_shared<M: std::borrow::Borrow<Matrix>>(
        levels: &[&PreparedModel],
        images: &[M],
    ) -> Vec<Matrix> {
        if images.is_empty() {
            return levels
                .iter()
                .map(|l| Matrix::zeros(0, l.config.num_classes))
                .collect();
        }
        let mut logits: Vec<Option<Matrix>> = vec![None; levels.len()];
        let everyone = (0..levels.len()).collect();
        for group in split_by(everyone, |a, b| levels[a].embeds_same_as(levels[b])) {
            let x = levels[group[0]].embed(images);
            // Groups still to run, each with its input to block `b`.
            let mut pending = vec![(group, x, 0)];
            while let Some((group, x, b)) = pending.pop() {
                let (done, deeper): (Vec<usize>, Vec<usize>) =
                    group.iter().partition(|&&l| levels[l].blocks.len() == b);
                for l in done {
                    let level = levels[l];
                    logits[l] = Some(level.head.infer(&level.class_features(&x, images.len())));
                }
                let parts = split_by(deeper, |p, q| {
                    levels[p].blocks[b].computes_same_as(&levels[q].blocks[b])
                });
                for part in parts {
                    let level = levels[part[0]];
                    let y = level.blocks[b].infer_batch(&x, level.config.tokens());
                    pending.push((part, y, b + 1));
                }
            }
        }
        logits
            .into_iter()
            .map(|l| l.expect("every level reaches the end of its stack"))
            .collect()
    }

    /// Whether `other`'s embedding stage yields the same tokens as this
    /// one's, bit for bit: the same image and token geometry, a patch
    /// embedding that [`PreparedLinear::computes_same_as`] this one, and
    /// bitwise-equal class token and positional embeddings.
    fn embeds_same_as(&self, other: &Self) -> bool {
        let geometry = |c: &VitConfig| (c.image_size, c.patch_size, c.dim);
        geometry(&self.config) == geometry(&other.config)
            && self.patch_embed.computes_same_as(&other.patch_embed)
            && same_bits(&self.cls_token, &other.cls_token)
            && same_bits(&self.pos_embed, &other.pos_embed)
    }

    /// How much of a forward `other` shares with this view: `None` if the
    /// embedding stages differ, else the number of leading encoder blocks
    /// that compute the same function
    /// ([`PreparedEncoderBlock::computes_same_as`]).
    /// [`Self::forward_batch_shared`] runs that much once for both.
    pub fn shared_prefix(&self, other: &Self) -> Option<usize> {
        self.embeds_same_as(other).then(|| {
            self.blocks
                .iter()
                .zip(&other.blocks)
                .take_while(|(a, b)| a.computes_same_as(b))
                .count()
        })
    }

    /// Per-layer quantization-saturation counters, labeled by layer.
    ///
    /// Each entry is `(layer, count)` where `count` is the number of weights
    /// the layer's int8 quantizer cannot represent in-range, computed once
    /// at prepare time from the *same* [`pivot_tensor::QuantParams`] the
    /// forward pass runs on, so health checks and numerics cannot disagree.
    /// A healthy Int8 model reports 0 everywhere; non-zero counts localize
    /// corrupted weights (bit flips, stuck-at faults) to a specific layer.
    /// Full-precision layers always report 0.
    pub fn quant_saturation_report(&self) -> Vec<(String, usize)> {
        let mut report = vec![(
            "patch_embed".to_string(),
            self.patch_embed.weight_saturation(),
        )];
        for (i, block) in self.blocks.iter().enumerate() {
            report.push((format!("enc{i}"), block.weight_saturation()));
        }
        report.push(("head".to_string(), self.head.weight_saturation()));
        report
    }

    /// Sum of [`PreparedModel::quant_saturation_report`] over all layers.
    pub fn total_weight_saturation(&self) -> usize {
        self.quant_saturation_report().iter().map(|(_, n)| n).sum()
    }

    /// Classification accuracy over labeled samples (per-sample loop; use
    /// the batched evaluators in `pivot-core` for large sets).
    pub fn accuracy(&self, samples: &[pivot_data::Sample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|s| self.infer(&s.image).row_argmax(0) == s.label)
            .count();
        correct as f32 / samples.len() as f32
    }
}

/// Splits `items` into classes of the equivalence `same`, each in input
/// order, the classes ordered by their first item.
fn split_by(items: Vec<usize>, same: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for i in items {
        match classes.iter_mut().find(|c| same(c[0], i)) {
            Some(class) => class.push(i),
            None => classes.push(vec![i]),
        }
    }
    classes
}

/// Whether two matrices have the same shape and the same bits: `-0.0`
/// and `0.0` differ, as they can in what a layer computes from them.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The embedding stage shared by every entry point: every image patchified
/// straight into one stacked matrix, one wide patch-embed GEMM over it,
/// then per sample the class token and its patch embeddings interleaved
/// with the positional embeddings added. Takes
/// the stage's operands rather than a whole view so
/// [`VisionTransformer::embed_tokens`](crate::VisionTransformer::embed_tokens)
/// can run it over a view of the one layer it needs.
pub(crate) fn embed_batch<M: std::borrow::Borrow<Matrix>>(
    config: &VitConfig,
    patch_embed: &PreparedLinear,
    cls_token: &Matrix,
    pos_embed: &Matrix,
    images: &[M],
) -> Matrix {
    let (t, np) = (config.tokens(), config.num_patches());
    let mut patches = Matrix::zeros(images.len() * np, config.patch_dim());
    for (s, im) in images.iter().enumerate() {
        patchify_into(config, im.borrow(), patches.rows_mut(s * np, (s + 1) * np));
    }
    let embedded = patch_embed.infer(&patches);
    let mut x = Matrix::zeros(images.len() * t, config.dim);
    for s in 0..images.len() {
        let base = s * t;
        x.row_mut(base).copy_from_slice(cls_token.row(0));
        x.rows_mut(base + 1, base + t)
            .copy_from_slice(embedded.rows_slice(s * np, (s + 1) * np));
        for r in 0..t {
            for (o, &p) in x.row_mut(base + r).iter_mut().zip(pos_embed.row(r)) {
                *o += p;
            }
        }
    }
    x
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::VisionTransformer;
    use pivot_nn::QuantMode;
    use pivot_tensor::Rng;

    pub(crate) fn model(seed: u64, quant: QuantMode, active: &[usize]) -> VisionTransformer {
        let cfg = VitConfig {
            quant,
            ..VitConfig::test_small()
        };
        let mut m = VisionTransformer::new(&cfg, &mut Rng::new(seed));
        m.set_active_attentions(active);
        m
    }

    #[test]
    fn forward_batch_is_bit_identical_to_per_sample_infer() {
        // Every skip pattern a ladder uses (partial, full, none), each on
        // its own weights, in both quant modes.
        let patterns: [(u64, &[usize]); 3] = [(34, &[0, 2]), (50, &[0, 1, 2, 3]), (51, &[])];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for quant in [QuantMode::None, QuantMode::Int8] {
            for (seed, active) in patterns {
                let prepared = model(seed, quant, active).prepare();
                let mut rng = Rng::new(35);
                // A "full" batch of 4, a ragged tail of 3, and a batch of 1
                // all must reproduce per-sample inference exactly, from
                // owned and from borrowed rows.
                for batch_size in [4usize, 3, 1] {
                    let images: Vec<Matrix> = (0..batch_size)
                        .map(|_| Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng))
                        .collect();
                    let borrowed: Vec<&Matrix> = images.iter().collect();
                    let logits = prepared.forward_batch(&borrowed);
                    assert_eq!(logits, prepared.forward_batch(&images));
                    assert_eq!(logits.shape(), (batch_size, 4));
                    let cls = prepared.cls_features(&images, |cls| cls);
                    for (i, img) in images.iter().enumerate() {
                        assert_eq!(
                            logits.slice_rows(i, i + 1),
                            prepared.infer(img),
                            "{quant:?}, seed {seed}: sample {i} of batch {batch_size} diverged"
                        );
                        // The distillation target the trainer batches is
                        // the traced feature, bit for bit.
                        assert_eq!(
                            bits(&cls.slice_rows(i, i + 1)),
                            bits(&prepared.infer_traced(img).cls_feature),
                            "{quant:?}, seed {seed}: class feature {i} of batch {batch_size}"
                        );
                    }
                }
                assert_eq!(prepared.forward_batch::<Matrix>(&[]).shape(), (0, 4));
            }
        }
    }

    #[test]
    fn shared_forward_is_bit_identical_to_per_level_forward_batch() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for quant in [QuantMode::None, QuantMode::Int8] {
            let backbone = model(70, quant, &[0, 1, 2, 3]);
            let store = pivot_nn::PreparedStore::new();
            let masked = |active: &[usize]| {
                let mut m = backbone.clone();
                m.set_active_attentions(active);
                m
            };
            let shared = |active: &[usize]| masked(active).prepare_in(&store);
            let full = shared(&[0, 1, 2, 3]);
            // Fine-tune-like: the same masks on slightly moved weights.
            let mut tuned = masked(&[0, 1]);
            for p in tuned.params_mut() {
                p.value.map_in_place(|v| v * 1.001);
            }
            let tuned = tuned.prepare_in(&store);
            // (levels, the shared prefix of the first two)
            let cases: Vec<(Vec<PreparedModel>, Option<usize>)> = vec![
                // Block 0 differs: only the embedding is shared.
                (vec![full.clone(), shared(&[1, 2, 3])], Some(0)),
                // Blocks 0..3 shared, block 3 differs.
                (vec![shared(&[0, 1, 2]), full.clone()], Some(3)),
                // The same mask twice (through the store): everything.
                (vec![shared(&[0, 2]), shared(&[0, 2])], Some(4)),
                // A re-view shares its panels with its source.
                (
                    vec![full.with_active_attentions(&[0, 2]), shared(&[0, 2])],
                    Some(4),
                ),
                // Split after block 0; blocks 2 and 3 agree again but see
                // different inputs, so the parts never re-merge.
                (vec![shared(&[0, 2]), shared(&[0, 1])], Some(1)),
                // A duplicate level in one call.
                (vec![full.clone(), full.clone(), shared(&[0])], Some(4)),
                // Prepared without a store: no panel is shared.
                (
                    vec![masked(&[0, 1]).prepare(), masked(&[0, 1]).prepare()],
                    None,
                ),
                // Distinct weights share nothing either.
                (vec![tuned, shared(&[0, 1])], None),
                // A whole mask ladder, deepest first.
                (
                    vec![
                        full.clone(),
                        shared(&[0, 1, 2]),
                        shared(&[0, 1]),
                        shared(&[0]),
                        shared(&[]),
                    ],
                    Some(3),
                ),
                // One level.
                (vec![shared(&[1, 3])], None),
            ];
            let mut rng = Rng::new(71);
            let images: Vec<Matrix> = (0..33)
                .map(|_| Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng))
                .collect();
            for (case, (levels, prefix)) in cases.iter().enumerate() {
                if let [a, b, ..] = &levels[..] {
                    assert_eq!(a.shared_prefix(b), *prefix, "{quant:?} case {case}");
                    assert_eq!(b.shared_prefix(a), *prefix, "{quant:?} case {case}");
                }
                let refs: Vec<&PreparedModel> = levels.iter().collect();
                // A ragged batch of 33, a batch of one and no images.
                for n in [33, 1, 0] {
                    let batch: Vec<&Matrix> = images[..n].iter().collect();
                    let out = PreparedModel::forward_batch_shared(&refs, &batch);
                    assert_eq!(out.len(), levels.len());
                    for (l, (got, level)) in out.iter().zip(levels).enumerate() {
                        let want = level.forward_batch(&batch);
                        assert_eq!(got.shape(), want.shape());
                        assert_eq!(
                            bits(got),
                            bits(&want),
                            "{quant:?} case {case}, level {l}, {n} images"
                        );
                    }
                }
            }
            assert!(PreparedModel::forward_batch_shared::<Matrix>(&[], &images).is_empty());
        }
    }

    #[test]
    fn concurrent_forward_batches_still_equal_per_sample_infer() {
        // The attention scratch is per thread: two workers inside
        // `forward_batch` at the same moment, on different images and
        // batch sizes, must each reproduce single-threaded `infer`.
        let prepared = model(36, QuantMode::None, &[0, 1, 3]).prepare();
        let mut rng = Rng::new(37);
        let batches: Vec<Vec<Matrix>> = [5usize, 2]
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng))
                    .collect()
            })
            .collect();
        let want: Vec<Vec<Matrix>> = batches
            .iter()
            .map(|b| b.iter().map(|img| prepared.infer(img)).collect())
            .collect();
        let barrier = std::sync::Barrier::new(batches.len());
        std::thread::scope(|scope| {
            for (batch, want) in batches.iter().zip(&want) {
                let (prepared, barrier) = (&prepared, &barrier);
                scope.spawn(move || {
                    for _ in 0..20 {
                        barrier.wait();
                        let logits = prepared.forward_batch(batch);
                        for (i, w) in want.iter().enumerate() {
                            assert_eq!(&logits.slice_rows(i, i + 1), w);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn source_model_delegates_to_a_view() {
        let m = model(30, QuantMode::Int8, &[1, 3]);
        let prepared = m.prepare();
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut Rng::new(33));
        assert_eq!(m.infer(&img), prepared.infer(&img));
        assert_eq!(m.embed_tokens(&img), prepared.embed_tokens(&img));
        let (a, b) = (m.infer_traced(&img), prepared.infer_traced(&img));
        assert_eq!(a.cls_feature, b.cls_feature);
        assert_eq!(a.attention_out, b.attention_out);
        assert_eq!(a.mlp_out, b.mlp_out);
        assert_eq!(a.attention_out.len(), 4);
        assert_eq!(a.cls_feature.shape(), (1, 32));
    }

    #[test]
    fn custom_schedule_pieces_compose_to_infer() {
        // embed_tokens -> blocks -> classify_tokens is what baselines with
        // modified encoder schedules run; unmodified it is `infer`, and
        // full-density sparse attention masks nothing.
        let prepared = model(31, QuantMode::None, &[0, 2]).prepare();
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut Rng::new(32));
        let mut x = prepared.embed_tokens(&img);
        for block in prepared.encoder_blocks() {
            x = block.infer(&x);
        }
        assert_eq!(prepared.classify_tokens(&x), prepared.infer(&img));
        assert_eq!(
            prepared.infer_sparse_attention(&img, 1.0),
            prepared.infer(&img)
        );
    }

    #[test]
    fn saturation_report_localizes_a_corrupted_weight() {
        let mut m = model(36, QuantMode::Int8, &[0, 2]);
        assert_eq!(m.prepare().total_weight_saturation(), 0);
        // Param 0 is the patch-embedding weight.
        m.params_mut()[0].value.as_mut_slice()[11] = f32::NAN;
        let report = m.prepare().quant_saturation_report();
        assert_eq!(report[0], ("patch_embed".to_string(), 1));
        assert!(report[1..].iter().all(|(_, n)| *n == 0));
        assert_eq!(m.prepare().total_weight_saturation(), 1);
    }

    #[test]
    fn prepared_snapshot_goes_stale_on_mutation() {
        let mut m = model(37, QuantMode::Int8, &[0, 1, 2, 3]);
        let prepared = m.prepare();
        let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut Rng::new(38));
        let before = m.infer(&img);
        assert_eq!(prepared.infer(&img), before);
        // Mutating the source model leaves the view on the old weights: the
        // documented invalidation rule (mutation => re-prepare).
        m.set_active_attentions(&[]);
        assert_ne!(m.effort(), prepared.effort());
        assert_eq!(prepared.infer(&img), before);
        assert_eq!(m.prepare().infer(&img), m.infer(&img));
    }

    #[test]
    fn prepared_metadata_mirrors_source() {
        let m = model(39, QuantMode::Int8, &[1, 3]);
        let prepared = m.prepare();
        assert_eq!(prepared.effort(), m.effort());
        assert_eq!(prepared.active_attentions(), m.active_attentions());
        assert_eq!(prepared.config().dim, m.config().dim);
        assert_eq!(prepared.encoder_blocks().len(), m.config().depth);
    }

    #[test]
    fn with_active_attentions_matches_repreparing() {
        for quant in [QuantMode::None, QuantMode::Int8] {
            let mut m = model(60, quant, &[0, 1, 2, 3]);
            let full = m.prepare();
            let mut rng = Rng::new(61);
            let img = Matrix::rand_uniform(16, 16, 0.0, 1.0, &mut rng);
            for active in [&[0usize, 2][..], &[1], &[]] {
                let reviewed = full.with_active_attentions(active);
                m.set_active_attentions(active);
                assert_eq!(reviewed.active_attentions(), active, "{quant:?}");
                assert_eq!(reviewed.infer(&img), m.prepare().infer(&img), "{quant:?}");
                // The re-view shares every weight with its source: zero
                // new unique bytes.
                let mut seen = std::collections::HashSet::new();
                assert_eq!(
                    full.unique_weight_bytes_into(&mut seen),
                    full.weight_bytes()
                );
                assert_eq!(reviewed.unique_weight_bytes_into(&mut seen), 0, "{quant:?}");
            }
        }
    }

    #[test]
    fn unique_weight_bytes_counts_shared_layers_once() {
        let m = model(62, QuantMode::Int8, &[0, 2]);
        let store = pivot_nn::PreparedStore::new();
        let a = m.prepare_in(&store);
        let b = m.prepare_in(&store);
        // Independently prepared: no sharing, unique == streamed.
        assert_eq!(
            m.prepare().unique_weight_bytes(),
            m.prepare().weight_bytes()
        );
        // Store-shared: the pair holds one copy between them.
        let mut seen = std::collections::HashSet::new();
        let pair_unique =
            a.unique_weight_bytes_into(&mut seen) + b.unique_weight_bytes_into(&mut seen);
        assert_eq!(pair_unique, a.weight_bytes());
        assert_eq!(a.weight_bytes(), b.weight_bytes());
    }

    #[test]
    #[should_panic(expected = "out of depth")]
    fn with_active_attentions_rejects_out_of_range() {
        let m = model(63, QuantMode::None, &[0]);
        let _ = m.prepare().with_active_attentions(&[99]);
    }
}
