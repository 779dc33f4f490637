//! Neural-network building blocks with hand-written backpropagation.
//!
//! This crate implements every layer a Vision Transformer needs — linear
//! projections, layer normalization, GELU, multi-head self-attention, the MLP
//! block and the full pre-norm encoder block with an *attention skip* switch —
//! together with the three losses of the PIVOT training objective
//! (`L_CE + L_Distill + L_En`) and the Adam/SGD optimizers.
//!
//! There is no autodiff tape: each layer caches what its backward pass needs
//! during `forward` and exposes `backward(d_out) -> d_in`, accumulating
//! parameter gradients into [`Param::grad`]. Gradients of every layer are
//! verified against central finite differences in the test suite.
//!
//! Training processes one sample (a `tokens x dim` [`Matrix`]) at a time;
//! batching is a loop with gradient accumulation, which is exact and fast at
//! the model scales used in this reproduction. Inference is not on these
//! layers at all: `prepare()` freezes each into a `Prepared*` view, the only
//! inference entry point, which batches samples along rows and runs the
//! same attention core and layer-norm body as training's `forward`.
//!
//! [`Matrix`]: pivot_tensor::Matrix

#![deny(missing_docs)]

mod attention;
mod encoder;
mod linear;
mod losses;
mod mlp;
mod norm;
mod optim;
mod param;
mod prepared;
mod store;

pub use attention::MultiHeadAttention;
pub use encoder::{EncoderBlock, EncoderTrace};
pub use linear::{Linear, QuantMode};
pub use losses::{
    cross_entropy, distillation_mse, entropy_regularizer, normalized_entropy, LossValue,
};
pub use mlp::Mlp;
pub use norm::LayerNorm;
pub use optim::{Adam, AdamConfig, Sgd};
pub use param::Param;
pub use prepared::{PreparedAttention, PreparedEncoderBlock, PreparedLinear, PreparedMlp};
pub use store::{PreparedStore, StoreStats};

/// A trainable component: forward caches, backward returns the input
/// gradient and accumulates parameter gradients.
pub trait Layer {
    /// Runs the layer on one sample, caching intermediates for `backward`.
    fn forward(&mut self, x: &pivot_tensor::Matrix) -> pivot_tensor::Matrix;

    /// Backpropagates `d_out` through the most recent `forward` call.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any `forward`.
    fn backward(&mut self, d_out: &pivot_tensor::Matrix) -> pivot_tensor::Matrix;

    /// All trainable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }
}
