//! Vision Transformer with per-encoder attention skipping.
//!
//! Implements the encoder architecture of the paper's Fig. 1a: patch
//! embedding, a learnable class token, learnable positional embeddings, a
//! stack of pre-norm encoder blocks (each of which can have its attention
//! module *skipped* — the mechanism PIVOT modulates), a final layer norm and
//! a linear classification head.
//!
//! Two model scales coexist (see `DESIGN.md` §4):
//!
//! * **Paper-scale configs** ([`VitConfig::deit_s`], [`VitConfig::lvvit_s`])
//!   describe the real DeiT-S / LVViT-S geometries. They are consumed by
//!   `pivot-sim` for delay/energy modeling and are never trained here.
//! * **Tiny configs** ([`VitConfig::tiny`], [`VitConfig::tiny_deep`]) are
//!   trainable stand-ins with the same depth but small embedding size, used
//!   by the accuracy pipeline on the synthetic dataset.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod io;
mod model;
mod prepared;
mod train;

pub use config::{ConfigError, VitConfig};
pub use io::{crc32, CheckpointError};
pub use model::VisionTransformer;
pub use prepared::{chunked_accuracy, PreparedModel, EVAL_BATCH};
pub use train::{EpochStats, TrainConfig, Trainer};

// Re-exported so effort-ladder builders (pivot-core, pivot-bench) can share
// one content-addressed store across models without depending on pivot-nn
// directly.
pub use pivot_nn::{PreparedStore, StoreStats};

#[cfg(test)]
mod thread_safety {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn model_types_are_send_and_sync() {
        assert_send_sync::<crate::VisionTransformer>();
        assert_send_sync::<crate::PreparedModel>();
        assert_send_sync::<crate::VitConfig>();
        assert_send_sync::<crate::Trainer>();
    }
}
