//! Dense `f32` matrix kernels for the PIVOT reproduction.
//!
//! This crate is the numerical substrate under everything else in the
//! workspace: the neural-network layers in `pivot-nn`, the CKA similarity in
//! `pivot-cka` and the ViT models in `pivot-vit` are all written against the
//! row-major [`Matrix`] type defined here.
//!
//! The crate deliberately avoids external linear-algebra dependencies: every
//! kernel (matmul, softmax, GELU, layer statistics, quantization) is written
//! from scratch so that the whole reproduction is self-contained and
//! deterministic.
//!
//! # Example
//!
//! ```
//! use pivot_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![deny(missing_docs)]

mod hash;
mod health;
mod int8;
mod matrix;
mod microkernel;
mod ops;
mod quant;
mod rng;

pub use hash::ContentHasher;
pub use int8::{matmul_quantized, matmul_quantized_into, PackedInt8};
pub use matrix::Matrix;
pub use microkernel::{f32_simd_available, PackedF32, PANEL_WIDTH};
pub use ops::{
    add_bias_in_place, erf, exp, gelu, gelu_backward_in_place, gelu_derivative, gelu_in_place,
    log_softmax_row, softmax_columns_in_place, softmax_row,
};
pub use quant::QuantParams;
pub use rng::Rng;

#[cfg(test)]
mod thread_safety {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn core_types_are_send_and_sync() {
        assert_send_sync::<crate::Matrix>();
        assert_send_sync::<crate::PackedInt8>();
        assert_send_sync::<crate::QuantParams>();
        assert_send_sync::<crate::Rng>();
    }
}
