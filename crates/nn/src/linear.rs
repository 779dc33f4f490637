//! Affine projection layer with optional 8-bit fake quantization.

use crate::{Layer, Param};
use pivot_tensor::{add_bias_in_place, Matrix, QuantParams, Rng};

/// Whether a [`Linear`] layer fake-quantizes its weights in the forward pass.
///
/// The paper trains all ViTs with 8-bit quantization (Section 4.1); `Int8`
/// reproduces that with quantization-aware training: weights are passed
/// through an 8-bit quantize/dequantize round trip in `forward`, and the
/// backward pass uses the straight-through estimator (gradients flow to the
/// latent full-precision weights unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Full precision `f32` weights.
    #[default]
    None,
    /// 8-bit symmetric fake quantization of weights.
    Int8,
}

/// Fully connected layer `y = x W + b` with `W: in x out`.
///
/// # Example
///
/// ```
/// use pivot_nn::{Layer, Linear, QuantMode};
/// use pivot_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::new(0);
/// let mut lin = Linear::new(4, 2, QuantMode::None, &mut rng);
/// let y = lin.forward(&Matrix::zeros(3, 4));
/// assert_eq!(y.shape(), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    quant: QuantMode,
    cache_x: Option<Matrix>,
    cache_w_eff: Option<Matrix>,
}

impl Linear {
    /// Creates a layer with truncated-normal weights (std 0.02) and zero
    /// bias, the standard ViT initialization.
    pub fn new(in_dim: usize, out_dim: usize, quant: QuantMode, rng: &mut Rng) -> Self {
        let weight = Matrix::from_fn(in_dim, out_dim, |_, _| {
            // Truncate to +-2 std like timm's trunc_normal_.
            loop {
                let z = rng.normal();
                if z.abs() <= 2.0 {
                    return z * 0.02;
                }
            }
        });
        Self {
            weight: Param::new(weight),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            quant,
            cache_x: None,
            cache_w_eff: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Sets the quantization mode (e.g. switch a trained model to `Int8`
    /// deployment numerics).
    pub fn set_quant_mode(&mut self, quant: QuantMode) {
        self.quant = quant;
    }

    /// The weight matrix as seen by the forward pass (fake-quantized when in
    /// `Int8` mode).
    fn effective_weight(&self) -> Matrix {
        match self.quant {
            QuantMode::None => self.weight.value.clone(),
            QuantMode::Int8 => {
                QuantParams::fit_symmetric(&self.weight.value).fake_quant_matrix(&self.weight.value)
            }
        }
    }

    /// Freezes the layer into an immutable inference view: fits the
    /// quantizer once, materializes the effective weight once and computes
    /// the saturation count from those same parameters. The view does zero
    /// per-call weight work; it snapshots the current weights, so any later
    /// mutation of the layer requires re-preparing.
    pub fn prepare(&self) -> crate::PreparedLinear {
        self.prepare_with(None)
    }

    /// Like [`Linear::prepare`], but deduplicated through a
    /// [`crate::PreparedStore`]: if a bit-identical layer (same weights,
    /// bias and quant mode) was already prepared into `store`, its
    /// `Arc`-shared view is returned instead of materializing another
    /// copy. Bit-identical to [`Linear::prepare`] either way.
    pub fn prepare_in(&self, store: &crate::PreparedStore) -> crate::PreparedLinear {
        self.prepare_with(Some(store))
    }

    /// The one preparation body: a private view without a store (no
    /// content hash is computed), the store's entry under this layer's
    /// [`content key`](crate::PreparedLinear::content_key) with one.
    pub(crate) fn prepare_with(
        &self,
        store: Option<&crate::PreparedStore>,
    ) -> crate::PreparedLinear {
        let (weight, bias) = (&self.weight.value, &self.bias.value);
        let fresh = || crate::PreparedLinear::from_weights(weight, bias, self.quant);
        match store {
            None => fresh(),
            Some(store) => store.get_or_prepare(
                crate::PreparedLinear::content_key(weight, bias, self.quant),
                fresh,
            ),
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let w_eff = self.effective_weight();
        let mut y = x.matmul(&w_eff);
        add_bias_in_place(&mut y, self.bias.value.row(0), false);
        self.cache_x = Some(x.clone());
        self.cache_w_eff = Some(w_eff);
        y
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("backward before forward");
        let w_eff = self.cache_w_eff.as_ref().expect("backward before forward");
        // STE: gradient w.r.t. the fake-quantized weight is applied to the
        // latent weight unchanged.
        self.weight.accumulate(&x.matmul_transpose_a(d_out));
        self.bias.accumulate(&Matrix::row_vector(&d_out.col_sums()));
        d_out.matmul_transpose_b(w_eff)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss(y: &Matrix) -> f32 {
        // Simple quadratic loss: 0.5 * ||y||^2 so dL/dy = y.
        0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::new(0);
        let mut lin = Linear::new(3, 5, QuantMode::None, &mut rng);
        assert_eq!(lin.forward(&Matrix::zeros(2, 3)).shape(), (2, 5));
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 5);
    }

    #[test]
    fn zero_weight_gives_bias() {
        let mut rng = Rng::new(0);
        let mut lin = Linear::new(2, 2, QuantMode::None, &mut rng);
        for p in lin.params_mut() {
            p.value.map_in_place(|_| 0.0);
        }
        lin.params_mut()[1].value = Matrix::from_rows(&[&[1.0, -1.0]]);
        let y = lin.forward(&Matrix::from_rows(&[&[5.0, 7.0]]));
        assert_eq!(y, Matrix::from_rows(&[&[1.0, -1.0]]));
    }

    #[test]
    fn gradient_check_weights_bias_and_input() {
        let mut rng = Rng::new(3);
        let mut lin = Linear::new(3, 2, QuantMode::None, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);

        let y = lin.forward(&x);
        let dx = lin.backward(&y.clone());

        // Finite differences on input.
        let h = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd =
                (loss(&lin.prepare().infer(&xp)) - loss(&lin.prepare().infer(&xm))) / (2.0 * h);
            assert!((dx.as_slice()[i] - fd).abs() < 1e-2, "input grad {i}");
        }

        // Finite differences on weight.
        let w0 = lin.params_mut()[0].value.clone();
        let analytic = lin.params_mut()[0].grad.clone();
        for i in 0..w0.len() {
            let mut wp = w0.clone();
            wp.as_mut_slice()[i] += h;
            lin.params_mut()[0].value = wp;
            let lp = loss(&lin.prepare().infer(&x));
            let mut wm = w0.clone();
            wm.as_mut_slice()[i] -= h;
            lin.params_mut()[0].value = wm;
            let lm = loss(&lin.prepare().infer(&x));
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (analytic.as_slice()[i] - fd).abs() < 1e-2,
                "weight grad {i}"
            );
        }
        lin.params_mut()[0].value = w0;

        // Bias gradient equals column sums of dL/dy = y.
        let b_grad = lin.params_mut()[1].grad.clone();
        let expect = Matrix::row_vector(&y.col_sums());
        assert!(b_grad.approx_eq(&expect, 1e-5));
    }

    #[test]
    fn int8_mode_quantizes_forward_weights() {
        let mut rng = Rng::new(1);
        let mut lin = Linear::new(8, 8, QuantMode::Int8, &mut rng);
        let w_eff = lin.effective_weight();
        let qp = QuantParams::fit_symmetric(&lin.params_mut()[0].value);
        // Every effective weight is a multiple of the quant step.
        for &w in w_eff.as_slice() {
            let steps = w / qp.scale();
            assert!((steps - steps.round()).abs() < 1e-3, "{w} not on grid");
        }
    }

    #[test]
    fn int8_error_is_small_relative_to_weights() {
        let mut rng = Rng::new(2);
        let lin = Linear::new(16, 16, QuantMode::Int8, &mut rng);
        let latent = lin.weight.value.clone();
        let err = (&latent - &lin.effective_weight()).max_abs();
        assert!(err < latent.max_abs() / 100.0);
    }

    #[test]
    fn prepared_infer_matches_training_forward() {
        let mut rng = Rng::new(4);
        for quant in [QuantMode::None, QuantMode::Int8] {
            let mut lin = Linear::new(6, 3, quant, &mut rng);
            let x = Matrix::randn(5, 6, 1.0, &mut rng);
            assert_eq!(lin.prepare().infer(&x), lin.forward(&x), "{quant:?}");
        }
    }
}
