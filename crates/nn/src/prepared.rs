//! Frozen inference views: quantization fitted once, weights materialized
//! once, then reused for every forward.
//!
//! The `Prepared*` structs in this module are the only inference entry
//! points of the crate (the trainable layers keep just their caching
//! `forward` / `backward`): built once from a trained layer by the
//! `prepare()` methods, they hold the `f32` effective weight — the latent
//! weight, or under [`QuantMode::Int8`] its snap to the 8-bit fake-quant
//! grid — packed once into the panel layout of the `f32` GEMM, as plain
//! immutable data: repeated inference does zero per-call weight work and
//! the whole view is `Send + Sync` for free sharing across worker
//! threads. Every view runs the one `f32` GEMM of the host; there
//! is no integer compute path and no second weight layout.
//!
//! A prepared view is a *snapshot*: any mutation of the source layer
//! (training steps, `set_quant_mode`, fault injection into the latent
//! weights) invalidates it and requires calling `prepare()` again.

use crate::{LayerNorm, QuantMode};
use pivot_tensor::{add_bias_in_place, ContentHasher, Matrix, PackedF32, QuantParams};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

/// The activation buffers of one encoder block's forward — five, each
/// reused as soon as the value it holds is dead. On this storage
/// [`PreparedEncoderBlock::infer_batch_in_place`] allocates nothing once
/// the buffers have grown to the thread's largest batch; every allocating
/// forward of the crate runs the same bodies on it and copies its result
/// out. Overwrite-before-read: every stage reshapes its output buffer
/// ([`Matrix::reuse_as`]) and writes every element before anything reads
/// it, so no value survives from one stage, call or geometry to the next.
#[derive(Default)]
struct Arena {
    /// The layer-norm output, then the attention context.
    norm: Matrix,
    /// `Q`, then the attention's output projection, then `fc2`'s output.
    q: Matrix,
    /// `K`.
    k: Matrix,
    /// `V`.
    v: Matrix,
    /// The MLP hidden layer, GELU applied in place.
    hidden: Matrix,
}

thread_local! {
    /// The calling thread's [`Arena`]: it lives as long as the thread, so a
    /// warm forward finds every buffer at its high-water mark (freeing
    /// them between calls hands the pages back to the kernel, and the next
    /// batch faults them in again). Per thread, so worker threads never
    /// share one. Borrowed for one block, one attention or one MLP at a
    /// time; nothing inside re-enters it.
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// Frozen inference view of a [`crate::Linear`] layer.
///
/// Holds the `f32` effective weight (full precision or fake-quantized), the
/// bias row and the saturation count computed from the quantizer that
/// produced the weight — so health checks report exactly what the forward
/// pass runs on.
///
/// The weight is resident once, pre-packed into the panel layout the GEMM
/// reads ([`pivot_tensor::PackedF32`]), so repeated forwards skip the
/// per-call pack `matmul` would do. It sits behind `Arc` so a
/// [`crate::PreparedStore`] can share one packed weight across every
/// effort level whose layer is bit-identical — safe because no API
/// mutates a prepared payload (there is no `&mut` accessor to the `Arc`
/// contents anywhere in the crate), so a shared panel can never go stale
/// under one consumer while another still reads it.
#[derive(Debug, Clone)]
pub struct PreparedLinear {
    pub(crate) panels: Arc<PackedF32>,
    pub(crate) bias: Matrix,
    pub(crate) saturation: usize,
}

impl PreparedLinear {
    /// Builds the view directly from a latent weight and bias — the single
    /// implementation behind [`crate::Linear::prepare`] and the checkpoint
    /// cold-start path, so the two can never diverge: fits the quantizer
    /// once, materializes the effective weight once and computes the
    /// saturation count from those same parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a single row as wide as `weight` — here, not
    /// at the first [`Self::infer`] of a view that may by then be shared
    /// through a [`crate::PreparedStore`].
    pub fn from_weights(weight: &Matrix, bias: &Matrix, quant: QuantMode) -> Self {
        assert!(
            bias.shape() == (1, weight.cols()),
            "bias is {:?}, expected (1, {}) for a {:?} weight",
            bias.shape(),
            weight.cols(),
            weight.shape()
        );
        // Full precision runs on the latent weight itself; only the
        // fake-quantized grid has to be materialized.
        let (fake_quant, saturation) = match quant {
            QuantMode::None => (None, 0),
            QuantMode::Int8 => {
                let qp = QuantParams::fit_symmetric(weight);
                let saturation = qp.saturation_count(weight.as_slice());
                (Some(qp.fake_quant_matrix(weight)), saturation)
            }
        };
        // Packed once, hoisting the per-call pack out of every forward;
        // the dense copy is not kept.
        let panels = Arc::new(PackedF32::pack(fake_quant.as_ref().unwrap_or(weight)));
        Self {
            panels,
            bias: bias.clone(),
            saturation,
        }
    }

    /// Content key for the [`crate::PreparedStore`]: a 128-bit structural
    /// hash of everything [`Self::from_weights`] consumes — quant mode,
    /// shape, weight bits and bias bits. Preparation is a pure function of
    /// exactly these inputs, so equal keys imply bit-identical prepared
    /// views (see [`pivot_tensor::ContentHasher`] for the collision
    /// argument).
    pub(crate) fn content_key(weight: &Matrix, bias: &Matrix, quant: QuantMode) -> u128 {
        let mut h = ContentHasher::new();
        h.write_u64(match quant {
            QuantMode::None => 0,
            QuantMode::Int8 => 1,
        });
        h.write_usize(weight.rows());
        h.write_usize(weight.cols());
        h.write_f32_slice(weight.as_slice());
        h.write_f32_slice(bias.as_slice());
        h.finish()
    }

    /// Adds this view's weight allocation to `seen` (keyed by `Arc`
    /// pointer identity) and returns its [`Self::weight_bytes`] if it was
    /// not already counted, 0 if another view sharing the same storage
    /// already was. Summing over all layers of a ladder yields the
    /// *unique* resident weight bytes, the number the shared store
    /// minimizes.
    pub fn unique_weight_bytes_into(&self, seen: &mut HashSet<usize>) -> usize {
        if seen.insert(Arc::as_ptr(&self.panels) as usize) {
            self.weight_bytes()
        } else {
            0
        }
    }

    /// Whether `other` computes the same function as `self`, bit for bit,
    /// on every input: the same packed weight allocation (`Arc` pointer
    /// identity, which a [`crate::PreparedStore`] or a re-view gives every
    /// layer prepared from one weight) and a bitwise-equal bias. Two
    /// layers packed separately from equal weights compare unequal, which
    /// only forgoes sharing; comparing bits rather than `f32 ==` keeps a
    /// `-0.0` bias apart from `0.0`, since the two can round differently.
    pub fn computes_same_as(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.panels, &other.panels) && self.bias.same_bits(&other.bias)
    }

    /// Inference forward `y = x W_eff + b`, into a new matrix.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.infer_into(x, false, &mut y);
        y
    }

    /// The one linear body: the GEMM writes every element of `y`, reshaped
    /// on its own storage ([`Matrix::reuse_as`]), then the bias (and, with
    /// `gelu_after`, the GELU after it) is applied in place on the product.
    fn infer_into(&self, x: &Matrix, gelu_after: bool, y: &mut Matrix) {
        y.reuse_as(x.rows(), self.out_dim());
        x.matmul_prepacked_into(&self.panels, y);
        add_bias_in_place(y, self.bias.row(0), gelu_after);
    }

    /// Bytes of weight storage the forward pass streams per call: the
    /// logical `k x n` `f32` weight — panel padding is layout, not
    /// streamed weight data.
    pub fn weight_bytes(&self) -> usize {
        self.in_dim() * self.out_dim() * std::mem::size_of::<f32>()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.panels.k()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.panels.n()
    }

    /// Number of latent weights the quantizer could not represent in-range,
    /// computed at prepare time from the same [`QuantParams`] the forward
    /// pass uses. Always 0 in full-precision mode.
    pub fn weight_saturation(&self) -> usize {
        self.saturation
    }
}

/// Frozen inference view of a [`crate::MultiHeadAttention`] block.
#[derive(Debug, Clone)]
pub struct PreparedAttention {
    pub(crate) wq: PreparedLinear,
    pub(crate) wk: PreparedLinear,
    pub(crate) wv: PreparedLinear,
    pub(crate) proj: PreparedLinear,
    pub(crate) heads: usize,
}

impl PreparedAttention {
    /// Assembles a view from four prepared projections — the checkpoint
    /// cold-start path, which prepares projections straight from parsed
    /// weights without an intermediate mutable block.
    ///
    /// # Panics
    ///
    /// Panics if the projections are not all square `dim x dim` with the
    /// same `dim`, or if `heads` does not divide `dim`.
    pub fn from_parts(
        wq: PreparedLinear,
        wk: PreparedLinear,
        wv: PreparedLinear,
        proj: PreparedLinear,
        heads: usize,
    ) -> Self {
        let dim = wq.in_dim();
        for (name, p) in [("wq", &wq), ("wk", &wk), ("wv", &wv), ("proj", &proj)] {
            assert!(
                p.in_dim() == dim && p.out_dim() == dim,
                "{name} is {}x{}, expected {dim}x{dim}",
                p.in_dim(),
                p.out_dim()
            );
        }
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "heads {heads} must divide dim {dim}"
        );
        Self {
            wq,
            wk,
            wv,
            proj,
            heads,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.wq.in_dim()
    }

    /// Batched inference over `x.rows() / tokens` samples stacked along rows
    /// (`tokens` rows each).
    ///
    /// The Q/K/V projections and the output projection each run as one wide
    /// GEMM over the whole stack. Attention itself is computed per sample on
    /// row slices — scores cannot mix samples — reusing one score/output
    /// scratch buffer across samples and heads. Every kernel involved is
    /// row-wise with a fixed accumulation order, so each sample's rows are
    /// bit-identical to running it alone. The body is the one an encoder
    /// block runs, on the calling thread's activation buffers; only the
    /// result is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `tokens == 0` or `x.rows()` is not divisible by `tokens`.
    pub fn infer_batch(&self, x: &Matrix, tokens: usize) -> Matrix {
        ARENA.with_borrow_mut(|a| {
            a.norm.reuse_as(x.rows(), x.cols());
            a.norm.as_mut_slice().copy_from_slice(x.as_slice());
            self.attend_in(a, tokens, |_| {});
            a.q.clone()
        })
    }

    /// The one attention sub-layer body: the projections around the shared
    /// core ([`crate::attention::attend_into`], which training's forward
    /// runs too), with the score `mask` passed through and a no-op
    /// probability sink. Reads its input from `a.norm` and leaves its
    /// output in `a.q`: `Q`, `K` and `V` land in `a.q`, `a.k` and `a.v`,
    /// the context in `a.norm` (the input is dead once projected) and the
    /// output projection in `a.q` (`Q` is dead once the core has run).
    fn attend_in(&self, a: &mut Arena, tokens: usize, mask: impl FnMut(&mut [f32])) {
        self.wq.infer_into(&a.norm, false, &mut a.q);
        self.wk.infer_into(&a.norm, false, &mut a.k);
        self.wv.infer_into(&a.norm, false, &mut a.v);
        let (q, k, v) = (&a.q, &a.k, &a.v);
        crate::attention::attend_into(q, k, v, self.heads, tokens, mask, |_| {}, &mut a.norm);
        self.proj.infer_into(&a.norm, false, &mut a.q);
    }
}

/// The score mask of ViTCOD-style sparsified attention over `t` tokens, for
/// the `mask` of [`PreparedEncoderBlock::infer_batch_in_place`]: in each
/// transposed score block the attention core hands over, keeps the
/// `density` fraction of each query's highest pre-softmax scores (at least
/// one) and sets the rest to `-inf`. The `pivot-baselines` ViTCOD
/// re-implementation runs it at density 0.1 (90% sparsity).
///
/// # Panics
///
/// Panics if `density` is not in `(0, 1]`.
pub fn sparse_mask(t: usize, density: f32) -> impl FnMut(&mut [f32]) {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    let keep = ((t as f32 * density).ceil() as usize).max(1);
    let mut order: Vec<usize> = Vec::with_capacity(t);
    // The core hands over each head's scores transposed: query `r`'s
    // score for key `c` is `scores[c * t + r]`.
    move |scores| {
        for r in 0..t {
            order.clear();
            order.extend(0..t);
            // A NaN score ranks first whatever its sign bit, so a fault
            // is kept and poisons its query's softmax instead of being
            // masked away (or panicking the sort).
            let rank = |c: usize| {
                let s = scores[c * t + r];
                if s.is_nan() {
                    f32::INFINITY
                } else {
                    s
                }
            };
            order.sort_by(|&a, &b| rank(b).total_cmp(&rank(a)));
            for &c in &order[keep..] {
                scores[c * t + r] = f32::NEG_INFINITY;
            }
        }
    }
}

/// Frozen inference view of a [`crate::Mlp`] block.
#[derive(Debug, Clone)]
pub struct PreparedMlp {
    pub(crate) fc1: PreparedLinear,
    pub(crate) fc2: PreparedLinear,
}

impl PreparedMlp {
    /// Assembles a view from two prepared projections — the checkpoint
    /// cold-start path.
    ///
    /// # Panics
    ///
    /// Panics if `fc2` does not map the hidden dimension back to `fc1`'s
    /// input dimension.
    pub fn from_parts(fc1: PreparedLinear, fc2: PreparedLinear) -> Self {
        assert!(
            fc1.out_dim() == fc2.in_dim() && fc2.out_dim() == fc1.in_dim(),
            "mlp shapes {}x{} / {}x{} are not an expansion pair",
            fc1.in_dim(),
            fc1.out_dim(),
            fc2.in_dim(),
            fc2.out_dim()
        );
        Self { fc1, fc2 }
    }

    /// Inference forward `fc2(gelu(fc1(x)))`, row-wise: `fc1`'s bias and
    /// the GELU are one pass over its product. The hidden layer lives in
    /// the calling thread's activation buffers; only the result is
    /// allocated.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        ARENA.with_borrow_mut(|a| self.infer_into(x, &mut a.hidden, &mut y));
        y
    }

    /// The one MLP body: `fc1`'s product, bias and GELU into `hidden`,
    /// `fc2`'s product and bias into `y`.
    fn infer_into(&self, x: &Matrix, hidden: &mut Matrix, y: &mut Matrix) {
        self.fc1.infer_into(x, true, hidden);
        self.fc2.infer_into(hidden, false, y);
    }
}

/// Frozen inference view of an [`crate::EncoderBlock`].
///
/// Layer norms have no quantized weights, so the view carries plain clones
/// of them; the attention and MLP sub-blocks are prepared. The skip switch
/// is captured at prepare time.
#[derive(Debug, Clone)]
pub struct PreparedEncoderBlock {
    pub(crate) ln1: LayerNorm,
    pub(crate) attn: PreparedAttention,
    pub(crate) ln2: LayerNorm,
    pub(crate) mlp: PreparedMlp,
    pub(crate) attention_active: bool,
}

impl PreparedEncoderBlock {
    /// Assembles a view from prepared sub-blocks — the checkpoint
    /// cold-start path.
    ///
    /// # Panics
    ///
    /// Panics if the attention and MLP embedding dimensions disagree.
    pub fn from_parts(
        ln1: LayerNorm,
        attn: PreparedAttention,
        ln2: LayerNorm,
        mlp: PreparedMlp,
        attention_active: bool,
    ) -> Self {
        assert_eq!(
            attn.dim(),
            mlp.fc1.in_dim(),
            "attention and mlp embedding dims disagree"
        );
        Self {
            ln1,
            attn,
            ln2,
            mlp,
            attention_active,
        }
    }

    /// Whether the attention sub-block participates in the forward pass
    /// (captured when the view was prepared).
    pub fn attention_active(&self) -> bool {
        self.attention_active
    }

    /// A clone of this view under a different skip switch, sharing every
    /// `Arc`'d weight payload with `self`. This is how an effort ladder
    /// derives its levels from one prepared backbone: the weights are
    /// prepared regardless of the switch (they stay resident in simulated
    /// SRAM either way), so the re-view is bit-identical to preparing the
    /// source block under that switch.
    pub fn with_attention_active(&self, active: bool) -> Self {
        Self {
            attention_active: active,
            ..self.clone()
        }
    }

    /// Whether `other` computes the same function as `self`, bit for bit,
    /// on every input: the same skip flag and head count, every projection
    /// [`PreparedLinear::computes_same_as`] its counterpart, and both
    /// layer norms with bitwise-equal γ, β and ε. A shared forward over
    /// several effort levels runs such a block once for all of them.
    pub fn computes_same_as(&self, other: &Self) -> bool {
        let mut pairs = self.linears().into_iter().zip(other.linears());
        self.attention_active == other.attention_active
            && self.attn.heads == other.attn.heads
            && self.ln1.computes_same_as(&other.ln1)
            && self.ln2.computes_same_as(&other.ln2)
            && pairs.all(|(a, b)| a.computes_same_as(b))
    }

    /// The block's six projections: the attention's `Q`, `K`, `V` and
    /// output projection, then the MLP's two. A skipped attention's
    /// weights count in every sum over them: they stay resident in
    /// (simulated) SRAM, and a corrupted value there matters as soon as
    /// the effort level rises.
    fn linears(&self) -> [&PreparedLinear; 6] {
        let (a, m) = (&self.attn, &self.mlp);
        [&a.wq, &a.wk, &a.wv, &a.proj, &m.fc1, &m.fc2]
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.attn.dim()
    }

    /// Total saturated weights of the six projections, a skipped attention's too.
    pub fn weight_saturation(&self) -> usize {
        self.linears().iter().map(|l| l.saturation).sum()
    }

    /// Weight bytes resident for the six projections, a skipped attention's too.
    pub fn weight_bytes(&self) -> usize {
        self.linears().iter().map(|l| l.weight_bytes()).sum()
    }

    /// Weight bytes not already counted in `seen` (see
    /// [`PreparedLinear::unique_weight_bytes_into`]).
    pub fn unique_weight_bytes_into(&self, seen: &mut HashSet<usize>) -> usize {
        self.linears()
            .iter()
            .map(|l| l.unique_weight_bytes_into(seen))
            .sum()
    }

    /// Batched inference over samples stacked along rows (`tokens` rows
    /// each): [`Self::infer_batch_in_place`] on a copy of `x`, with no
    /// mask and no observer.
    ///
    /// # Panics
    ///
    /// Panics if `tokens == 0` or `x.rows()` is not divisible by `tokens`.
    pub fn infer_batch(&self, x: &Matrix, tokens: usize) -> Matrix {
        let mut y = x.clone();
        self.infer_batch_in_place(&mut y, tokens, |_| {}, |_| {});
        y
    }

    /// The one block body, in place on the residual stream `x` (samples
    /// stacked along rows, `tokens` rows each): `x += MHSA(LN(x))` (unless
    /// skipped), then `after_attention(x)`, then `x += MLP(LN(x))`.
    ///
    /// `mask` sees every (sample, head) block of scaled scores before its
    /// softmax, transposed (one query per column, see [`sparse_mask`]); a
    /// skipped attention never calls it. Layer norms and the MLP are
    /// row-wise and run directly on the stack; attention runs the body of
    /// [`PreparedAttention::infer_batch`]. Each sample's rows are
    /// bit-identical to the same call on it alone. The temporaries live
    /// in per-thread buffers that persist across calls, so once they have
    /// grown to a thread's largest batch, a call with no-op hooks
    /// allocates nothing. Each sum is the out-of-place block's sum with
    /// its operands swapped, which IEEE addition does not round
    /// differently.
    ///
    /// # Panics
    ///
    /// Panics if `tokens == 0` or `x.rows()` is not divisible by `tokens`,
    /// or if `mask` or `after_attention` runs a prepared forward: both run
    /// while this thread's buffers are borrowed.
    pub fn infer_batch_in_place(
        &self,
        x: &mut Matrix,
        tokens: usize,
        mask: impl FnMut(&mut [f32]),
        after_attention: impl FnOnce(&Matrix),
    ) {
        ARENA.with_borrow_mut(|a| {
            if self.attention_active {
                self.ln1.infer_into(x, &mut a.norm);
                self.attn.attend_in(a, tokens, mask);
                x.add_scaled_in_place(&a.q, 1.0);
            }
            after_attention(x);
            self.ln2.infer_into(x, &mut a.norm);
            self.mlp.infer_into(&a.norm, &mut a.hidden, &mut a.q);
            x.add_scaled_in_place(&a.q, 1.0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncoderBlock, Layer, Linear, MultiHeadAttention, QuantMode};
    use pivot_tensor::Rng;

    #[test]
    fn prepared_linear_saturation_counts_corrupted_weights() {
        let mut rng = Rng::new(21);
        let mut lin = Linear::new(5, 5, QuantMode::Int8, &mut rng);
        assert_eq!(lin.prepare().weight_saturation(), 0);
        lin.params_mut()[0].value.as_mut_slice()[7] = f32::NAN;
        assert_eq!(lin.prepare().weight_saturation(), 1);
        lin.set_quant_mode(QuantMode::None);
        assert_eq!(lin.prepare().weight_saturation(), 0, "no quantizer");
    }

    #[test]
    fn attention_batch_rows_are_bit_identical_to_per_sample_infer() {
        let mut rng = Rng::new(8);
        for quant in [QuantMode::None, QuantMode::Int8] {
            let attn = MultiHeadAttention::new(8, 2, quant, &mut rng).prepare();
            let samples: Vec<Matrix> = (0..3).map(|_| Matrix::randn(5, 8, 1.0, &mut rng)).collect();
            let stacked = samples[0].vcat(&samples[1]).vcat(&samples[2]);
            let batched = attn.infer_batch(&stacked, 5);
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(
                    batched.slice_rows(i * 5, (i + 1) * 5),
                    attn.infer_batch(s, 5),
                    "sample {i} diverged under {quant:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn attention_batch_indivisible_rows_panics() {
        let mut rng = Rng::new(9);
        let attn = MultiHeadAttention::new(8, 2, QuantMode::None, &mut rng).prepare();
        let _ = attn.infer_batch(&Matrix::zeros(7, 8), 5);
    }

    /// `block` in place on a copy of the single sample `x` under `mask`:
    /// the residual stream after its attention and after its MLP.
    fn streams(
        block: &PreparedEncoderBlock,
        x: &Matrix,
        mask: impl FnMut(&mut [f32]),
    ) -> (Matrix, Matrix) {
        let (mut y, mut attended) = (x.clone(), None);
        block.infer_batch_in_place(&mut y, x.rows(), mask, |h| attended = Some(h.clone()));
        (attended.expect("after_attention runs"), y)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sparse_attention_at_full_density_is_dense_and_diverges_below() {
        let mut rng = Rng::new(22);
        let block = EncoderBlock::new(8, 2, 16, QuantMode::Int8, &mut rng).prepare();
        let x = Matrix::randn(6, 8, 1.0, &mut rng);
        let dense = streams(&block, &x, |_| {});
        // Keeping every score masks nothing: the mask is the only
        // difference between the two calls.
        assert_eq!(streams(&block, &x, sparse_mask(6, 1.0)), dense);
        let (attended, out) = streams(&block, &x, sparse_mask(6, 0.1));
        assert!(
            attended.is_all_finite() && out.is_all_finite(),
            "one score per row always survives"
        );
        assert!(!attended.approx_eq(&dense.0, 1e-6));
    }

    #[test]
    fn sparse_attention_propagates_nan_scores_instead_of_panicking() {
        let mut rng = Rng::new(23);
        let block = EncoderBlock::new(8, 2, 16, QuantMode::None, &mut rng).prepare();
        let mut x = Matrix::randn(6, 8, 1.0, &mut rng);
        // A poisoned token (what a stuck-NaN weight upstream produces):
        // its own scores are all NaN and every other row has one NaN score.
        // Both NaN signs: the sign bit must not decide whether the top-k
        // mask keeps the fault.
        for nan in [f32::NAN, -f32::NAN] {
            x.row_mut(2).fill(nan);
            for density in [0.1, 0.5, 1.0] {
                let (attended, _) = streams(&block, &x, sparse_mask(6, density));
                for r in 0..6 {
                    assert!(
                        attended.row(r).iter().all(|v| !v.is_finite()),
                        "row {r} laundered the fault at density {density}"
                    );
                }
            }
            // Keeping every score is still the dense path, NaN bits and all.
            let (sparse, dense) = (
                streams(&block, &x, sparse_mask(6, 1.0)),
                streams(&block, &x, |_| {}),
            );
            assert_eq!(bits(&sparse.0), bits(&dense.0));
            assert_eq!(bits(&sparse.1), bits(&dense.1));
        }
    }

    #[test]
    fn sparse_attention_masks_what_a_row_major_top_k_masks() {
        let (t, dim, heads, density) = (17, 12, 3, 0.3);
        let mut rng = Rng::new(26);
        let block = EncoderBlock::new(dim, heads, 2 * dim, QuantMode::None, &mut rng).prepare();
        let x = Matrix::randn(t, dim, 1.0, &mut rng);

        // Row-major reference on the normed stream: each head's scores,
        // the top-k mask per query row, `softmax_row`, then the product.
        let (attn, normed) = (&block.attn, block.ln1.infer(&x));
        let (q, k, v) = (
            attn.wq.infer(&normed),
            attn.wk.infer(&normed),
            attn.wv.infer(&normed),
        );
        let dh = attn.dim() / heads;
        let keep = ((t as f32 * density).ceil() as usize).max(1);
        let mut context = Matrix::zeros(t, dim);
        for h in 0..heads {
            let head = |m: &Matrix| m.slice_cols(h * dh, (h + 1) * dh);
            let mut probs = head(&q).matmul_transpose_b(&head(&k));
            probs.scale_in_place(1.0 / (dh as f32).sqrt());
            for r in 0..t {
                let row = probs.row_mut(r);
                let rank = |s: f32| if s.is_nan() { f32::INFINITY } else { s };
                let mut order: Vec<usize> = (0..t).collect();
                order.sort_by(|&a, &b| rank(row[b]).total_cmp(&rank(row[a])));
                for &c in &order[keep..] {
                    row[c] = f32::NEG_INFINITY;
                }
                let p = pivot_tensor::softmax_row(row);
                row.copy_from_slice(&p);
            }
            let out = probs.matmul(&head(&v));
            for r in 0..t {
                context.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(out.row(r));
            }
        }
        let (attended, _) = streams(&block, &x, sparse_mask(t, density));
        assert_eq!(bits(&attended), bits(&(&x + &attn.proj.infer(&context))));
    }

    #[test]
    fn encoder_batch_rows_match_per_sample_both_modes() {
        for active in [true, false] {
            let mut rng = Rng::new(24);
            let mut enc = EncoderBlock::new(6, 2, 12, QuantMode::Int8, &mut rng);
            enc.set_attention_active(active);
            let prepared = enc.prepare();
            assert_eq!(prepared.attention_active(), active);
            let a = Matrix::randn(4, 6, 1.0, &mut rng);
            let b = Matrix::randn(4, 6, 1.0, &mut rng);
            let batched = prepared.infer_batch(&a.vcat(&b), 4);
            assert_eq!(
                batched.slice_rows(0, 4),
                prepared.infer_batch(&a, 4),
                "{active}"
            );
            assert_eq!(
                batched.slice_rows(4, 8),
                prepared.infer_batch(&b, 4),
                "{active}"
            );
            // Full-density sparse attention is the dense block.
            assert_eq!(
                streams(&prepared, &a, sparse_mask(4, 1.0)).1,
                prepared.infer_batch(&a, 4)
            );
        }
    }

    #[test]
    fn skipped_attention_forwards_input_and_changes_output() {
        let mut rng = Rng::new(25);
        let mut enc = EncoderBlock::new(6, 2, 12, QuantMode::None, &mut rng);
        let x = Matrix::randn(4, 6, 1.0, &mut rng);
        let with_attn = enc.prepare().infer_batch(&x, 4);
        enc.set_attention_active(false);
        let skipped = enc.prepare();
        assert_eq!(streams(&skipped, &x, |_| {}).0, x);
        assert!(!with_attn.approx_eq(&skipped.infer_batch(&x, 4), 1e-6));
        // The re-view under the other switch is the re-prepared block.
        assert_eq!(
            skipped.with_attention_active(true).infer_batch(&x, 4),
            with_attn
        );
    }

    #[test]
    #[should_panic(expected = "bias is (1, 3), expected (1, 4) for a (6, 4) weight")]
    fn from_weights_rejects_a_wrong_width_bias() {
        let _ = PreparedLinear::from_weights(
            &Matrix::zeros(6, 4),
            &Matrix::zeros(1, 3),
            QuantMode::None,
        );
    }

    #[test]
    #[should_panic(expected = "bias is (2, 4), expected (1, 4) for a (6, 4) weight")]
    fn from_weights_rejects_a_multi_row_bias() {
        let _ = PreparedLinear::from_weights(
            &Matrix::zeros(6, 4),
            &Matrix::zeros(2, 4),
            QuantMode::Int8,
        );
    }

    #[test]
    fn block_identity_is_pointer_and_bit_identity() {
        let mut rng = Rng::new(27);
        let block = EncoderBlock::new(6, 2, 12, QuantMode::None, &mut rng).prepare();
        assert!(block.computes_same_as(&block));
        // A re-view shares every panel: the same block under the same
        // switch, a different one under the other.
        assert!(block.computes_same_as(&block.with_attention_active(true)));
        let skipped = block.with_attention_active(false);
        assert!(!block.computes_same_as(&skipped));
        assert!(!skipped.computes_same_as(&block));
        assert!(skipped.computes_same_as(&skipped.clone()));

        // Equal weights packed twice share no allocation.
        let mut rng = Rng::new(27);
        let again = EncoderBlock::new(6, 2, 12, QuantMode::None, &mut rng).prepare();
        assert!(!block.computes_same_as(&again));

        // A bias zero that differs only in its sign: `f32 ==` would call
        // the two equal.
        let mut zeroed = block.clone();
        zeroed.mlp.fc2.bias.as_mut_slice()[0] = 0.0;
        let mut negated = zeroed.clone();
        negated.mlp.fc2.bias.as_mut_slice()[0] = -0.0;
        assert!(zeroed.computes_same_as(&zeroed.clone()));
        assert!(!zeroed.computes_same_as(&negated));
        assert!(!negated.computes_same_as(&zeroed));

        let mut eps = block.clone();
        eps.ln2.eps = 1e-6;
        assert!(!block.computes_same_as(&eps));

        // Layer norms compare by value: a rebuilt one with equal bits is
        // the same, one whose β holds a `-0.0` is not.
        let mut norms = block.clone();
        norms.ln1 = LayerNorm::from_parts(Matrix::filled(1, 6, 1.0), Matrix::zeros(1, 6));
        assert!(block.computes_same_as(&norms));
        norms.ln1 = LayerNorm::from_parts(Matrix::filled(1, 6, 1.0), Matrix::filled(1, 6, -0.0));
        assert!(!block.computes_same_as(&norms));

        let mut heads = block.clone();
        heads.attn.heads = 3;
        assert!(!block.computes_same_as(&heads));
        // Heads count even where the attention is skipped: the predicate
        // compares structure, not which parts a flag happens to bypass.
        heads.attention_active = false;
        assert!(!skipped.computes_same_as(&heads));
    }

    #[test]
    fn linear_identity_compares_panels_by_pointer_and_bias_by_bits() {
        let mut rng = Rng::new(28);
        let lin = Linear::new(5, 4, QuantMode::Int8, &mut rng).prepare();
        assert!(lin.computes_same_as(&lin.clone()));
        let mut nan = lin.clone();
        nan.bias.as_mut_slice()[1] = f32::NAN;
        // A NaN bias matches its own bits (f32 `==` never would).
        assert!(nan.computes_same_as(&nan.clone()));
        assert!(!nan.computes_same_as(&lin));
        let repacked = PreparedLinear::from_weights(
            &Matrix::zeros(5, 4),
            &Matrix::zeros(1, 4),
            QuantMode::None,
        );
        assert!(!repacked.computes_same_as(&PreparedLinear::from_weights(
            &Matrix::zeros(5, 4),
            &Matrix::zeros(1, 4),
            QuantMode::None,
        )));
    }

    #[test]
    fn prepared_views_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedLinear>();
        assert_send_sync::<PreparedAttention>();
        assert_send_sync::<PreparedMlp>();
        assert_send_sync::<PreparedEncoderBlock>();
    }
}
