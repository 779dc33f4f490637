//! Pre-norm transformer encoder block with an attention-skip switch.

use crate::{Layer, LayerNorm, Mlp, MultiHeadAttention, Param, QuantMode};
use pivot_tensor::{Matrix, Rng};

/// One ViT encoder: `x += MHSA(LN(x))` (optional) then `x += MLP(LN(x))`.
///
/// The attention sub-block can be *skipped* — the core mechanism PIVOT
/// exploits: with [`EncoderBlock::set_attention_active`]`(false)` the block
/// computes only the MLP path, and the residual stream flows straight from
/// the previous encoder's MLP output into this block's MLP (paper Fig. 3b).
///
/// # Example
///
/// ```
/// use pivot_nn::{EncoderBlock, Layer, QuantMode};
/// use pivot_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::new(0);
/// let mut enc = EncoderBlock::new(8, 2, 16, QuantMode::None, &mut rng);
/// enc.set_attention_active(false);
/// let y = enc.forward(&Matrix::zeros(3, 8));
/// assert_eq!(y.shape(), (3, 8));
/// ```
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    mlp: Mlp,
    attention_active: bool,
}

impl EncoderBlock {
    /// Creates an encoder block (attention active by default).
    pub fn new(
        dim: usize,
        heads: usize,
        mlp_hidden: usize,
        quant: QuantMode,
        rng: &mut Rng,
    ) -> Self {
        Self {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, quant, rng),
            ln2: LayerNorm::new(dim),
            mlp: Mlp::new(dim, mlp_hidden, quant, rng),
            attention_active: true,
        }
    }

    /// Whether the attention sub-block participates in the forward pass.
    pub fn attention_active(&self) -> bool {
        self.attention_active
    }

    /// Activates or skips the attention sub-block.
    pub fn set_attention_active(&mut self, active: bool) {
        self.attention_active = active;
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.attn.dim()
    }

    /// Sets the quantization mode on all sub-layers.
    pub fn set_quant_mode(&mut self, quant: QuantMode) {
        self.attn.set_quant_mode(quant);
        self.mlp.set_quant_mode(quant);
    }

    /// Freezes the block into an immutable inference view (attention and
    /// MLP prepared once, layer norms and the skip switch snapshotted; see
    /// [`crate::Linear::prepare`]).
    pub fn prepare(&self) -> crate::PreparedEncoderBlock {
        self.prepare_with(None)
    }

    /// Like [`EncoderBlock::prepare`], with every projection deduplicated
    /// through `store` (see [`crate::Linear::prepare_in`]). Layer norms
    /// are tiny (two rows) and cloned either way.
    pub fn prepare_in(&self, store: &crate::PreparedStore) -> crate::PreparedEncoderBlock {
        self.prepare_with(Some(store))
    }

    fn prepare_with(&self, store: Option<&crate::PreparedStore>) -> crate::PreparedEncoderBlock {
        crate::PreparedEncoderBlock {
            ln1: self.ln1.clone(),
            attn: self.attn.prepare_with(store),
            ln2: self.ln2.clone(),
            mlp: self.mlp.prepare_with(store),
            attention_active: self.attention_active,
        }
    }
}

impl Layer for EncoderBlock {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let after_attn = if self.attention_active {
            let mut a = self.attn.forward(&self.ln1.forward(x));
            a.add_scaled_in_place(x, 1.0);
            a
        } else {
            x.clone()
        };
        let mut out = self.mlp.forward(&self.ln2.forward(&after_attn));
        out.add_scaled_in_place(&after_attn, 1.0);
        out
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        // out = after_attn + mlp(ln2(after_attn))
        let d_mlp_in = self.mlp.backward(d_out);
        let mut d_after_attn = self.ln2.backward(&d_mlp_in);
        d_after_attn.add_scaled_in_place(d_out, 1.0);

        if self.attention_active {
            // after_attn = x + attn(ln1(x))
            let d_attn_in = self.attn.backward(&d_after_attn);
            let mut dx = self.ln1.backward(&d_attn_in);
            dx.add_scaled_in_place(&d_after_attn, 1.0);
            dx
        } else {
            d_after_attn
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.ln1.params_mut();
        params.extend(self.attn.params_mut());
        params.extend(self.ln2.params_mut());
        params.extend(self.mlp.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(seed: u64) -> EncoderBlock {
        let mut rng = Rng::new(seed);
        EncoderBlock::new(6, 2, 12, QuantMode::None, &mut rng)
    }

    #[test]
    fn prepared_infer_matches_training_forward_both_modes() {
        for active in [true, false] {
            let mut enc = block(2);
            enc.set_attention_active(active);
            let mut rng = Rng::new(3);
            let x = Matrix::randn(4, 6, 1.0, &mut rng);
            let bits = |m: Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(enc.prepare().infer_batch(&x, 4)),
                bits(enc.forward(&x)),
                "{active}"
            );
        }
    }

    #[test]
    fn gradient_check_input_active_and_skipped() {
        for active in [true, false] {
            let mut enc = block(4);
            enc.set_attention_active(active);
            let mut rng = Rng::new(5);
            let x = Matrix::randn(3, 6, 1.0, &mut rng);
            let target = Matrix::randn(3, 6, 1.0, &mut rng);
            let loss = |m: &EncoderBlock, x: &Matrix| {
                0.5 * (&m.prepare().infer_batch(x, 3) - &target)
                    .frobenius_norm()
                    .powi(2)
            };

            let y = enc.forward(&x);
            let dx = enc.backward(&(&y - &target));

            let h = 1e-3;
            for i in (0..x.len()).step_by(2) {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += h;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= h;
                let fd = (loss(&enc, &xp) - loss(&enc, &xm)) / (2.0 * h);
                assert!(
                    (dx.as_slice()[i] - fd).abs() < 3e-2,
                    "active={active} dx[{i}]: {} vs {fd}",
                    dx.as_slice()[i]
                );
            }
        }
    }

    #[test]
    fn param_count_is_stable() {
        let mut enc = block(6);
        // 2 LN x (gamma+beta) + 4 attn linears x (w+b) + 2 mlp linears x (w+b)
        assert_eq!(enc.params_mut().len(), 2 * 2 + 4 * 2 + 2 * 2);
        let n = enc.param_count();
        // dim=6, heads=2, hidden=12:
        // LN: 2*(6+6)=24; attn: 4*(36+6)=168; mlp: 6*12+12 + 12*6+6 = 162.
        assert_eq!(n, 24 + 168 + 162);
    }
}
