//! Multi-head self-attention (paper Eq. 1).

use crate::{Layer, Linear, Param, QuantMode};
use pivot_tensor::{softmax_row, Matrix, Rng};

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

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
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

    /// Training's scaled-dot-product attention over already-projected
    /// Q/K/V: returns the concatenated head outputs and the per-head
    /// probabilities [`Layer::backward`] needs. Inference runs
    /// [`crate::PreparedAttention`], which keeps no probabilities.
    fn attend(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, Vec<Matrix>) {
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let t = q.rows();
        let mut out = Matrix::zeros(t, self.dim());
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qh = q.slice_cols(lo, hi);
            let kh = k.slice_cols(lo, hi);
            let vh = v.slice_cols(lo, hi);
            let mut scores = qh.matmul_transpose_b(&kh);
            scores.scale_in_place(scale);
            for r in 0..t {
                let soft = softmax_row(scores.row(r));
                scores.row_mut(r).copy_from_slice(&soft);
            }
            let oh = scores.matmul(&vh);
            for r in 0..t {
                for c in 0..dh {
                    out[(r, lo + c)] = oh[(r, c)];
                }
            }
            probs.push(scores);
        }
        (out, probs)
    }
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
        let (out, probs) = self.attend(&q, &k, &v);
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
        assert!(attn.prepare().infer(&x).approx_eq(&attn.forward(&x), 1e-6));
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
            0.5 * (&m.prepare().infer(x) - &target).frobenius_norm().powi(2)
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
            0.5 * (&m.prepare().infer(x) - &target).frobenius_norm().powi(2)
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
