//! # PIVOT — Input-aware Path Selection for Energy-efficient ViT Inference
//!
//! A complete Rust reproduction of the DAC 2024 paper *"PIVOT: Input-aware
//! Path Selection for Energy-efficient ViT Inference"* (Moitra,
//! Bhattacharjee, Panda — Yale University).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! * [`tensor`] — dense `f32` matrix kernels, activations, 8-bit quantization.
//! * [`nn`] — neural-network layers with hand-written backprop, losses,
//!   optimizers.
//! * [`vit`] — Vision Transformer with per-encoder attention skipping,
//!   training and activation capture.
//! * [`data`] — synthetic difficulty-controlled classification dataset.
//! * [`cka`] — centered kernel alignment similarity.
//! * [`core`] — the PIVOT co-optimization itself: entropy cascade,
//!   Path-Score (Algorithm 1), Phase 1 and Phase 2 hardware-in-loop search.
//! * [`sim`] — PIVOT-Sim, the cycle-accurate ZCU102 systolic-array delay and
//!   energy simulator.
//! * [`baselines`] — HeatViT / ViTCOD re-implementations and GPP platform
//!   cost models.
//! * [`serve`] — deadline-aware online serving: bounded admission,
//!   micro-batch coalescing, overload-driven effort degradation.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: train a tiny ViT,
//! build the CKA matrix, run both PIVOT phases and deploy the entropy-gated
//! low/high-effort cascade.

#![forbid(unsafe_code)]

pub use pivot_baselines as baselines;
pub use pivot_cka as cka;
pub use pivot_core as core;
pub use pivot_data as data;
pub use pivot_nn as nn;
pub use pivot_serve as serve;
pub use pivot_sim as sim;
pub use pivot_tensor as tensor;
pub use pivot_vit as vit;
