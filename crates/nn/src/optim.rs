//! The optimizer: Adam.
//!
//! The optimizer is stateless with respect to the model type: it operates on
//! the flat `Vec<&mut Param>` a [`Layer`](crate::Layer) exposes, keyed by
//! position, so the parameter order must be stable across steps (it is — the
//! layers build the vector deterministically).

use crate::Param;
use pivot_tensor::Matrix;

/// Hyper-parameters for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW style); 0 disables.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with optional decoupled weight decay.
///
/// # Example
///
/// ```
/// use pivot_nn::{Adam, AdamConfig, Param};
/// use pivot_tensor::Matrix;
///
/// let mut p = Param::new(Matrix::filled(1, 1, 1.0));
/// p.grad = Matrix::filled(1, 1, 1.0);
/// let mut adam = Adam::new(AdamConfig::default());
/// adam.step(&mut [&mut p]);
/// assert!(p.value[(0, 0)] < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    step: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Self {
            config,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> AdamConfig {
        self.config
    }

    /// Updates the learning rate (e.g. for cosine decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Applies one update using each parameter's accumulated gradient, then
    /// clears the gradients.
    ///
    /// # Panics
    ///
    /// Panics if the number or shapes of parameters change between steps.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "parameter count changed between steps"
        );
        self.step += 1;
        let c = self.config;
        let bc1 = 1.0 - c.beta1.powi(self.step as i32);
        let bc2 = 1.0 - c.beta2.powi(self.step as i32);
        for (i, p) in params.iter_mut().enumerate() {
            assert_eq!(
                self.m[i].shape(),
                p.value.shape(),
                "parameter {i} shape changed"
            );
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for j in 0..p.value.len() {
                let g = p.grad.as_slice()[j];
                let mj = c.beta1 * m.as_slice()[j] + (1.0 - c.beta1) * g;
                let vj = c.beta2 * v.as_slice()[j] + (1.0 - c.beta2) * g * g;
                m.as_mut_slice()[j] = mj;
                v.as_mut_slice()[j] = vj;
                let m_hat = mj / bc1;
                let v_hat = vj / bc2;
                let mut update = c.lr * m_hat / (v_hat.sqrt() + c.eps);
                if c.weight_decay > 0.0 {
                    update += c.lr * c.weight_decay * p.value.as_slice()[j];
                }
                p.value.as_mut_slice()[j] -= update;
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and checks convergence.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new(Matrix::filled(1, 1, 0.0));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            ..Default::default()
        });
        for _ in 0..300 {
            let x = p.value[(0, 0)];
            p.grad = Matrix::filled(1, 1, 2.0 * (x - 3.0));
            adam.step(&mut [&mut p]);
        }
        assert!((p.value[(0, 0)] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = Param::new(Matrix::filled(1, 1, 1.0));
        p.grad = Matrix::filled(1, 1, 5.0);
        Adam::new(AdamConfig::default()).step(&mut [&mut p]);
        assert_eq!(p.grad.max_abs(), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut p = Param::new(Matrix::filled(1, 1, 1.0));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        });
        for _ in 0..50 {
            p.grad = Matrix::zeros(1, 1);
            adam.step(&mut [&mut p]);
        }
        assert!(p.value[(0, 0)] < 1.0);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut p1 = Param::new(Matrix::zeros(1, 1));
        let mut p2 = Param::new(Matrix::zeros(1, 1));
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut [&mut p1, &mut p2]);
        adam.step(&mut [&mut p1]);
    }
}
