//! Prior-work baselines and general-purpose-platform (GPP) cost models.
//!
//! The paper compares PIVOT against two algorithm-hardware co-design
//! frameworks (Table 4, Figs. 1c and 7):
//!
//! * **HeatViT** (Dong et al., HPCA'23) — adaptive token pruning with
//!   head-level token scoring and token *packaging* (unimportant tokens are
//!   merged into one). Re-implemented functionally in [`heatvit`].
//! * **ViTCOD** (You et al., HPCA'23) — attention sparsification (90%
//!   sparsity) with a dedicated sparse accelerator. Re-implemented
//!   functionally in [`vitcod`].
//!
//! Both need nuanced hardware support to realize their savings; on CPUs and
//! GPUs they fall back to dense execution plus their own overheads, which is
//! exactly what the [`gpp`] cost models capture.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod gpp;
pub mod heatvit;
pub mod vitcod;

pub use gpp::{GppWorkload, Platform, PlatformSpec};
pub use heatvit::{HeatVit, HeatVitConfig};
pub use vitcod::VitCod;
