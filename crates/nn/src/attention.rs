//! Multi-head self-attention (paper Eq. 1).

use crate::{Layer, Linear, Param, QuantMode};
use pivot_tensor::{softmax_columns_in_place, Matrix, PackedF32, Rng};
use std::cell::RefCell;

/// Multi-head self-attention:
/// `Attention(Q_i, K_i, V_i) = softmax(Q_i K_i^T / sqrt(d_h)) V_i` per head,
/// concatenated and projected (paper Eq. 1).
///
/// The four projections (`W_Q`, `W_K`, `W_V` and the output projection) are
/// [`Linear`] layers so they inherit 8-bit fake quantization from
/// [`QuantMode`].
///
/// # Example
///
/// ```
/// use pivot_nn::{Layer, MultiHeadAttention, QuantMode};
/// use pivot_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::new(0);
/// let mut attn = MultiHeadAttention::new(8, 2, QuantMode::None, &mut rng);
/// assert_eq!(attn.forward(&Matrix::zeros(5, 8)).shape(), (5, 8));
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    proj: Linear,
    heads: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax attention probabilities (t x t each).
    probs: Vec<Matrix>,
}

impl MultiHeadAttention {
    /// Creates an MHSA block over embeddings of size `dim` with `heads`
    /// attention heads.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, quant: QuantMode, rng: &mut Rng) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim {dim} must divide into {heads} heads"
        );
        Self {
            wq: Linear::new(dim, dim, quant, rng),
            wk: Linear::new(dim, dim, quant, rng),
            wv: Linear::new(dim, dim, quant, rng),
            proj: Linear::new(dim, dim, quant, rng),
            heads,
            cache: None,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.wq.in_dim()
    }

    /// Per-head dimensionality `d_h = dim / heads`.
    pub fn head_dim(&self) -> usize {
        self.dim() / self.heads
    }

    /// Sets the quantization mode on all four projections.
    pub fn set_quant_mode(&mut self, quant: QuantMode) {
        self.wq.set_quant_mode(quant);
        self.wk.set_quant_mode(quant);
        self.wv.set_quant_mode(quant);
        self.proj.set_quant_mode(quant);
    }

    /// Freezes the block into an immutable inference view (all four
    /// projections prepared once; see [`Linear::prepare`]).
    pub fn prepare(&self) -> crate::PreparedAttention {
        self.prepare_with(None)
    }

    /// Like [`MultiHeadAttention::prepare`], with each projection
    /// deduplicated through `store` (see [`Linear::prepare_in`]).
    pub fn prepare_in(&self, store: &crate::PreparedStore) -> crate::PreparedAttention {
        self.prepare_with(Some(store))
    }

    pub(crate) fn prepare_with(
        &self,
        store: Option<&crate::PreparedStore>,
    ) -> crate::PreparedAttention {
        crate::PreparedAttention {
            wq: self.wq.prepare_with(store),
            wk: self.wk.prepare_with(store),
            wv: self.wv.prepare_with(store),
            proj: self.proj.prepare_with(store),
            heads: self.heads,
        }
    }
}

/// The one per-(sample, head) `QK^T -> scale -> softmax -> SM x V` loop of
/// training and inference, in place on the stacked projections (`tokens`
/// rows per sample): head operands are read at row stride `dim` and each
/// head's output lands in its block of `context` — no slice copies, no
/// per-row or per-head allocation. `context` is the caller's buffer,
/// reshaped to `q`'s shape on its own storage ([`Matrix::reuse_as`]):
/// the (sample, head) blocks tile it, and the GEMM overwrites each one,
/// so whatever it held before is never read.
///
/// Each (sample, head)'s scores are held **transposed** — `S^T = K_h Q_h^T`,
/// so `block[c * tokens + r]` is query `r`'s score for key `c` — which lets
/// the softmax run sixteen queries per vector, lanes across queries
/// ([`softmax_columns_in_place`]), and `SM x V` read the probabilities in
/// place through a transposed view. Every element, max, sum and quotient
/// is the one the row-major loop computed, bit for bit. `mask` sees each
/// scaled transposed block before its softmax; `probs` sees each
/// transposed `tokens x tokens` probability block before `SM x V`
/// (training transposes it back and keeps it for `backward`). Inference's
/// no-op hooks are monomorphised away.
///
/// # Panics
///
/// Panics if `tokens == 0` or `q.rows()` is not divisible by `tokens`.
// The operands and both hooks are what the loop needs; bundling them
// would only rename them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_into(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    tokens: usize,
    mut mask: impl FnMut(&mut [f32]),
    mut probs: impl FnMut(&[f32]),
    context: &mut Matrix,
) {
    assert!(
        tokens > 0 && q.rows().is_multiple_of(tokens),
        "batch rows {} not divisible by tokens {tokens}",
        q.rows()
    );
    let dh = q.cols() / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    context.reuse_as(q.rows(), q.cols());
    ATTEND_SCRATCH.with_borrow_mut(|(scratch, panel)| {
        scratch.resize(tokens * tokens + tokens, 0.0);
        let (scores, column) = scratch.split_at_mut(tokens * tokens);
        for r0 in (0..q.rows()).step_by(tokens) {
            let rows = r0..r0 + tokens;
            for h in 0..heads {
                let cols = h * dh..(h + 1) * dh;
                k.matmul_transpose_b_block_into(q, rows.clone(), cols.clone(), scores);
                for s in scores.iter_mut() {
                    *s *= scale;
                }
                mask(scores);
                softmax_columns_in_place(scores, tokens, column);
                probs(scores);
                Matrix::matmul_block_into(scores, v, rows.clone(), cols, panel, context);
            }
        }
    });
}

thread_local! {
    /// Per-thread scratch of [`attend_into`]: one buffer of `tokens²` transposed
    /// scores followed by the softmax's `tokens`-float column buffer, and
    /// one `V_h` panel buffer, whose allocations grow to the largest size
    /// the thread has seen. Overwrite-before-read: the score GEMM writes
    /// all `tokens²` scores, the softmax a whole column before it reads
    /// one and `pack_block` every panel lane before anything reads them, so
    /// no value survives from one (sample, head) — or one call — to the
    /// next, and worker threads cannot alias each other's. Borrowed for the
    /// whole head loop, so neither hook may re-enter `attend_into` (none in this
    /// crate does).
    static ATTEND_SCRATCH: RefCell<(Vec<f32>, PackedF32)> =
        RefCell::new((Vec::new(), PackedF32::default()));
}

/// Backward of a row-softmax: given probabilities `p` and upstream `dp`,
/// returns `ds` where `s` are the pre-softmax scores.
fn softmax_backward_row(p: &[f32], dp: &[f32]) -> Vec<f32> {
    let dot: f32 = p.iter().zip(dp).map(|(&a, &b)| a * b).sum();
    p.iter().zip(dp).map(|(&pi, &di)| pi * (di - dot)).collect()
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let t = x.rows();
        let mut probs = Vec::with_capacity(self.heads);
        let keep = |p: &[f32]| probs.push(Matrix::from_fn(t, t, |r, c| p[c * t + r]));
        let mut out = Matrix::default();
        attend_into(&q, &k, &v, self.heads, t, |_| {}, keep, &mut out);
        self.cache = Some(Cache { q, k, v, probs });
        self.proj.forward(&out)
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let d_concat = self.proj.backward(d_out);
        let cache = self.cache.take().expect("backward before forward");
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let t = d_concat.rows();

        let mut dq = Matrix::zeros(t, self.dim());
        let mut dk = Matrix::zeros(t, self.dim());
        let mut dv = Matrix::zeros(t, self.dim());

        for h in 0..self.heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let d_oh = d_concat.slice_cols(lo, hi);
            let qh = cache.q.slice_cols(lo, hi);
            let kh = cache.k.slice_cols(lo, hi);
            let vh = cache.v.slice_cols(lo, hi);
            let p = &cache.probs[h];

            // O = P V  =>  dP = dO V^T ; dV = P^T dO
            let dp = d_oh.matmul_transpose_b(&vh);
            let dvh = p.matmul_transpose_a(&d_oh);

            // S -> P row softmax
            let mut ds = Matrix::zeros(t, t);
            for r in 0..t {
                let row = softmax_backward_row(p.row(r), dp.row(r));
                ds.row_mut(r).copy_from_slice(&row);
            }
            ds.scale_in_place(scale);

            // S = Q K^T  =>  dQ = dS K ; dK = dS^T Q
            let dqh = ds.matmul(&kh);
            let dkh = ds.matmul_transpose_a(&qh);

            for r in 0..t {
                for c in 0..dh {
                    dq[(r, lo + c)] = dqh[(r, c)];
                    dk[(r, lo + c)] = dkh[(r, c)];
                    dv[(r, lo + c)] = dvh[(r, c)];
                }
            }
        }

        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dk);
        let dx_v = self.wv.backward(&dv);
        let mut dx = dx_q;
        dx.add_scaled_in_place(&dx_k, 1.0);
        dx.add_scaled_in_place(&dx_v, 1.0);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.wq.params_mut();
        params.extend(self.wk.params_mut());
        params.extend(self.wv.params_mut());
        params.extend(self.proj.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::softmax_row;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = Rng::new(0);
        let mut attn = MultiHeadAttention::new(12, 3, QuantMode::None, &mut rng);
        let x = Matrix::randn(7, 12, 1.0, &mut rng);
        assert_eq!(attn.forward(&x).shape(), (7, 12));
        assert_eq!(attn.head_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_heads_panic() {
        let mut rng = Rng::new(0);
        let _ = MultiHeadAttention::new(10, 3, QuantMode::None, &mut rng);
    }

    #[test]
    fn prepared_infer_matches_training_forward() {
        let mut rng = Rng::new(1);
        let mut attn = MultiHeadAttention::new(8, 2, QuantMode::Int8, &mut rng);
        let x = Matrix::randn(4, 8, 1.0, &mut rng);
        let bits = |m: Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(attn.prepare().infer_batch(&x, 4)),
            bits(attn.forward(&x))
        );
    }

    #[test]
    fn attention_rows_are_probability_distributions() {
        let mut rng = Rng::new(2);
        let mut attn = MultiHeadAttention::new(8, 2, QuantMode::None, &mut rng);
        let x = Matrix::randn(5, 8, 1.0, &mut rng);
        attn.forward(&x);
        let cache = attn.cache.as_ref().expect("cache");
        for p in &cache.probs {
            for r in 0..p.rows() {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
                assert!(p.row(r).iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn softmax_backward_row_matches_fd() {
        let logits = [0.3f32, -1.0, 0.7, 0.1];
        let dp = [0.5f32, -0.2, 0.1, 0.9];
        let p = softmax_row(&logits);
        let ds = softmax_backward_row(&p, &dp);
        let h = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits;
            lp[i] += h;
            let mut lm = logits;
            lm[i] -= h;
            let up: f32 = softmax_row(&lp).iter().zip(&dp).map(|(&a, &b)| a * b).sum();
            let um: f32 = softmax_row(&lm).iter().zip(&dp).map(|(&a, &b)| a * b).sum();
            let fd = (up - um) / (2.0 * h);
            assert!((ds[i] - fd).abs() < 1e-3, "ds[{i}]: {} vs {fd}", ds[i]);
        }
    }

    #[test]
    fn gradient_check_input_through_full_block() {
        let mut rng = Rng::new(3);
        let mut attn = MultiHeadAttention::new(4, 2, QuantMode::None, &mut rng);
        let x = Matrix::randn(3, 4, 1.0, &mut rng);
        let target = Matrix::randn(3, 4, 1.0, &mut rng);
        let loss = |m: &MultiHeadAttention, x: &Matrix| {
            0.5 * (&m.prepare().infer_batch(x, 3) - &target)
                .frobenius_norm()
                .powi(2)
        };

        let y = attn.forward(&x);
        let dx = attn.backward(&(&y - &target));

        let h = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = (loss(&attn, &xp) - loss(&attn, &xm)) / (2.0 * h);
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}]: {} vs {fd}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_check_projection_params() {
        let mut rng = Rng::new(4);
        let mut attn = MultiHeadAttention::new(4, 2, QuantMode::None, &mut rng);
        let x = Matrix::randn(3, 4, 1.0, &mut rng);
        let target = Matrix::randn(3, 4, 1.0, &mut rng);
        let loss = |m: &MultiHeadAttention, x: &Matrix| {
            0.5 * (&m.prepare().infer_batch(x, 3) - &target)
                .frobenius_norm()
                .powi(2)
        };

        let y = attn.forward(&x);
        attn.backward(&(&y - &target));

        let h = 1e-3;
        let n_params = attn.params_mut().len();
        for pi in 0..n_params {
            let p0 = attn.params_mut()[pi].value.clone();
            let analytic = attn.params_mut()[pi].grad.clone();
            for i in (0..p0.len()).step_by(5) {
                let mut pp = p0.clone();
                pp.as_mut_slice()[i] += h;
                attn.params_mut()[pi].value = pp;
                let lp = loss(&attn, &x);
                let mut pm = p0.clone();
                pm.as_mut_slice()[i] -= h;
                attn.params_mut()[pi].value = pm;
                let lm = loss(&attn, &x);
                attn.params_mut()[pi].value = p0.clone();
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (analytic.as_slice()[i] - fd).abs() < 2e-2,
                    "param {pi}[{i}]: {} vs {fd}",
                    analytic.as_slice()[i]
                );
            }
        }
    }
}
