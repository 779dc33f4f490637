//! PIVOT's co-optimization framework: input-aware attention-path selection.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrates in the rest of the workspace:
//!
//! * [`path`] — attention-skip path configurations and enumeration.
//! * [`score`] — the Path-Score of Algorithm 1, computed from a
//!   [`pivot_cka::CkaMatrix`].
//! * [`phase1`] — optimal-path selection per effort (Fig. 2b).
//! * [`guarded`] — the guarded sweep: the one memoised N-level walk that
//!   applies the entropy gate ([`stays_low`]) and the fault accounting of
//!   DESIGN.md §5, over a memo private to it. [`evaluate_guarded_slice`]
//!   is its per-request form (what `pivot-serve` runs per batch, under an
//!   effort cap); the two below are typed front-ends over it. It also
//!   holds Phase 2's threshold iteration ([`threshold_grid_walk`]), the
//!   one rule for its `lec` and `step` ([`check_grid_walk`]), and the one
//!   rule for a gate threshold and a ladder ([`check_threshold`],
//!   [`check_ladder`]).
//! * [`multilevel`] — [`EffortLadder`], the one holder of prepared effort
//!   levels (the paper's low/high cascade of Fig. 2a is its `N = 2` case),
//!   and [`CascadeStats`], the one fold of outcomes over labels (`C_L`,
//!   `I_L`, `C_H`, `I_H`, `F_L`, `F_H`, per-level exits).
//! * [`cache`] — the entropy cache: the low effort observed once per
//!   sample set (several low efforts in one shared pass), serving `F_L`
//!   queries and threshold sweeps in O(N).
//! * [`batched`] — chunked batched inference over sample sets against
//!   [`pivot_vit::PreparedModel`] views (weights materialized once per
//!   sweep), one or several models per pass: one wide GEMM per layer per
//!   chunk, bit-identical to per-sample inference.
//! * [`parallel`] — the deterministic scoped parallel map behind every
//!   batched evaluation ([`Parallelism`], [`par_map`]).
//! * [`phase2`] — the hardware-in-the-loop search for the optimal effort
//!   combination under LEC and delay constraints (Fig. 2c), with
//!   `pivot-sim` in the loop.
//! * [`pipeline`] — the end-to-end flow: train a teacher, build the CKA
//!   matrix, select and fine-tune every effort.
//! * [`search_space`] — design-space accounting (Fig. 4b).
//! * [`train_cost`] — GPU-hours model for training all efforts (Fig. 4c).
//! * [`faults`] — deterministic fault injection (bit flips, NaN, stuck-at)
//!   for accuracy-under-fault experiments.
//!
//! No config here returns an error: each is built in code and panics,
//! naming the rule it broke, when it is used. A typed config error exists
//! only for bytes read from outside ([`pivot_vit::CheckpointError`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod batched;
pub mod cache;
pub mod faults;
pub mod guarded;
pub mod multilevel;
pub mod parallel;
pub mod path;
pub mod phase1;
pub mod phase2;
pub mod pipeline;
pub mod score;
pub mod search_space;
pub mod train_cost;

pub use batched::{batched_logits, EVAL_BATCH};
pub use cache::CascadeCache;
pub use faults::{FaultInjector, FaultKind, InjectedFault, StallSchedule};
pub use guarded::{
    check_grid_walk, check_ladder, check_threshold, evaluate_guarded_slice, stays_low,
    threshold_grid_walk, write_degradation_summary, DegradationEvent, DegradationReport,
    GuardedOutcome,
};
pub use multilevel::{CascadeStats, EffortLadder};
pub use parallel::{par_map, Parallelism};
pub use path::PathConfig;
pub use phase1::{select_optimal_path, Phase1Result, ScoredPath};
pub use phase2::{EffortModel, Phase2Config, Phase2Result, Phase2Search};
pub use pipeline::{PipelineConfig, PivotArtifacts, PivotPipeline};
pub use score::path_score;
pub use train_cost::TrainCostModel;
// A serving cost table and what builds it, so `pivot-serve` needs no crate edge to `pivot-sim`.
pub use pivot_sim::{AcceleratorConfig, EnergyLedger, LadderEnergy, Simulator, VitGeometry};
