//! The two-layer MLP (feed-forward) block of a transformer encoder.

use crate::{Layer, Linear, Param, QuantMode};
use pivot_tensor::{gelu_backward_in_place, gelu_in_place, Matrix, Rng};

/// `Linear(dim -> hidden) -> GELU -> Linear(hidden -> dim)`.
///
/// `hidden = dim * mlp_ratio` in the ViT configurations; the ratio is
/// supplied by the caller as an explicit hidden size.
///
/// # Example
///
/// ```
/// use pivot_nn::{Layer, Mlp, QuantMode};
/// use pivot_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::new(0);
/// let mut mlp = Mlp::new(8, 32, QuantMode::None, &mut rng);
/// assert_eq!(mlp.forward(&Matrix::zeros(3, 8)).shape(), (3, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    cache_pre_act: Option<Matrix>,
}

impl Mlp {
    /// Creates the block with the given embedding and hidden sizes.
    pub fn new(dim: usize, hidden: usize, quant: QuantMode, rng: &mut Rng) -> Self {
        Self {
            fc1: Linear::new(dim, hidden, quant, rng),
            fc2: Linear::new(hidden, dim, quant, rng),
            cache_pre_act: None,
        }
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.fc1.out_dim()
    }

    /// Freezes the block into an immutable inference view (both projections
    /// prepared once; see [`Linear::prepare`]).
    pub fn prepare(&self) -> crate::PreparedMlp {
        self.prepare_with(None)
    }

    /// Like [`Mlp::prepare`], with each projection deduplicated through
    /// `store` (see [`crate::Linear::prepare_in`]).
    pub fn prepare_in(&self, store: &crate::PreparedStore) -> crate::PreparedMlp {
        self.prepare_with(Some(store))
    }

    pub(crate) fn prepare_with(&self, store: Option<&crate::PreparedStore>) -> crate::PreparedMlp {
        crate::PreparedMlp {
            fc1: self.fc1.prepare_with(store),
            fc2: self.fc2.prepare_with(store),
        }
    }

    /// Sets the quantization mode on both projections.
    pub fn set_quant_mode(&mut self, quant: QuantMode) {
        self.fc1.set_quant_mode(quant);
        self.fc2.set_quant_mode(quant);
    }
}

impl Layer for Mlp {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.fc1.forward(x);
        let mut act = pre.clone();
        gelu_in_place(act.as_mut_slice());
        self.cache_pre_act = Some(pre);
        self.fc2.forward(&act)
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let mut d_pre = self.fc2.backward(d_out);
        let pre = self
            .cache_pre_act
            .as_ref()
            .expect("backward before forward");
        gelu_backward_in_place(d_pre.as_mut_slice(), pre.as_slice());
        self.fc1.backward(&d_pre)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.fc1.params_mut();
        params.extend(self.fc2.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_round_trip() {
        let mut rng = Rng::new(0);
        let mut mlp = Mlp::new(6, 24, QuantMode::None, &mut rng);
        let x = Matrix::randn(5, 6, 1.0, &mut rng);
        assert_eq!(mlp.forward(&x).shape(), (5, 6));
        assert_eq!(mlp.hidden_dim(), 24);
    }

    #[test]
    fn prepared_infer_matches_training_forward() {
        let mut rng = Rng::new(1);
        let mut mlp = Mlp::new(4, 8, QuantMode::Int8, &mut rng);
        let x = Matrix::randn(3, 4, 1.0, &mut rng);
        assert!(mlp.prepare().infer(&x).approx_eq(&mlp.forward(&x), 1e-6));
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = Rng::new(2);
        let mut mlp = Mlp::new(3, 7, QuantMode::None, &mut rng);
        let x = Matrix::randn(2, 3, 1.0, &mut rng);
        let target = Matrix::randn(2, 3, 1.0, &mut rng);

        let y = mlp.forward(&x);
        let d_out = &y - &target;
        let dx = mlp.backward(&d_out);

        let loss =
            |m: &Mlp, x: &Matrix| 0.5 * (&m.prepare().infer(x) - &target).frobenius_norm().powi(2);
        let h = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = (loss(&mlp, &xp) - loss(&mlp, &xm)) / (2.0 * h);
            assert!((dx.as_slice()[i] - fd).abs() < 2e-2, "dx[{i}]");
        }
    }

    #[test]
    fn gradient_check_all_params() {
        let mut rng = Rng::new(3);
        let mut mlp = Mlp::new(3, 5, QuantMode::None, &mut rng);
        let x = Matrix::randn(2, 3, 1.0, &mut rng);
        let target = Matrix::randn(2, 3, 1.0, &mut rng);
        let loss =
            |m: &Mlp, x: &Matrix| 0.5 * (&m.prepare().infer(x) - &target).frobenius_norm().powi(2);

        let y = mlp.forward(&x);
        mlp.backward(&(&y - &target));

        let h = 1e-3;
        let n_params = mlp.params_mut().len();
        for pi in 0..n_params {
            let p0 = mlp.params_mut()[pi].value.clone();
            let analytic = mlp.params_mut()[pi].grad.clone();
            for i in (0..p0.len()).step_by(3) {
                let mut pp = p0.clone();
                pp.as_mut_slice()[i] += h;
                mlp.params_mut()[pi].value = pp;
                let lp = loss(&mlp, &x);
                let mut pm = p0.clone();
                pm.as_mut_slice()[i] -= h;
                mlp.params_mut()[pi].value = pm;
                let lm = loss(&mlp, &x);
                mlp.params_mut()[pi].value = p0.clone();
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
