//! Experiment harnesses that regenerate every table and figure of the
//! PIVOT paper (see `DESIGN.md` §8 for the index).
//!
//! Each experiment is a function in [`experiments`] that takes the shared
//! [`Reproduction`] state and prints a paper-style report (with the paper's
//! reference values alongside). The one binary, `experiment`, runs them by
//! name; `experiment all` runs everything against one shared state and is
//! what `EXPERIMENTS.md` is produced from.
//!
//! Trained models are checkpointed one file per model under
//! `target/pivot-cache/<profile>/<family>/<key>/` (the key hashes the
//! pipeline configuration and the training set), so repeated runs skip
//! the training and a partly filled cache trains only what is missing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{FamilyArtifacts, Profile, Reproduction};
pub use table::Table;
