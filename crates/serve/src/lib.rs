//! # pivot-serve — deadline-aware online serving for PIVOT cascades
//!
//! The offline crates answer "what accuracy does this cascade buy per
//! FLOP?"; this crate answers the production question: "what happens when
//! requests arrive faster than the cascade can run?" Its answer is the
//! robustness contract the `server`/`engine` tests pin:
//!
//! * **Bounded admission** — a full queue sheds at the door with a typed
//!   [`SubmitError::Rejected`] carrying the observed depth. Overload is
//!   backpressure, never unbounded buffering.
//! * **Micro-batch coalescing** — concurrent arrivals within a
//!   configurable window share one `forward_batch`-wide GEMM, so serving
//!   keeps the throughput the batched kernels were built for.
//! * **Deadlines over effort** — requests carry deadlines; a request that
//!   cannot be answered in time resolves as [`ServeOutcome::TimedOut`],
//!   and under sustained queue pressure the engine's overload controller
//!   ([`OverloadPolicy`]) downshifts the cascade's effort cap (ultimately
//!   to low-effort-only) so answers degrade instead of dying, recovering
//!   hysteretically when pressure lifts.
//! * **Adaptive gating under drift** — the entropy gate's threshold need
//!   not stay at Phase 2's offline pick: an optional threshold controller
//!   ([`ThresholdPolicy`]) retunes `Th` from a sliding window of observed
//!   low-effort entropies to hold `F_L >= LEC` as the traffic's
//!   difficulty mix drifts, deferring to the overload cap whenever it is
//!   engaged (the cap outranks the gate — DESIGN.md §7). The controllers
//!   decide; the engine counts their decisions in [`HealthStats`].
//! * **Typed terminal states** — every admitted request resolves as
//!   exactly one of completed / degraded / timed-out / failed, and the
//!   ledger identity `submitted == shed + completed + degraded +
//!   timed_out + failed` holds at drain ([`HealthStats::accounted`]), and
//!   as soon as every ticket is answered: a batch is counted before its
//!   responses are delivered.
//! * **Panic isolation** — a panicking inference batch fails only its own
//!   requests ([`ServeError::BatchPanicked`]); the serve loop survives.
//! * **Determinism where it matters** — healthy-path responses are
//!   bit-identical to the offline guarded evaluation
//!   ([`pivot_core::evaluate_guarded_slice`]), and every timing-dependent
//!   path is testable on a virtual [`ServeClock`] with deterministic
//!   [`StallSchedule`](pivot_core::StallSchedule) chaos.
//!
//! ```
//! use pivot_data::{Dataset, DatasetConfig};
//! use pivot_serve::{Server, ServeConfig, ServeOutcome};
//! use pivot_tensor::Rng;
//! use pivot_vit::{VisionTransformer, VitConfig};
//! use std::time::Duration;
//!
//! let mut low = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(1));
//! low.set_active_attentions(&[0]);
//! let mut high = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(2));
//! high.set_active_attentions(&[0, 1]);
//!
//! let server = Server::spawn(
//!     vec![low.prepare(), high.prepare()],
//!     vec![0.5],
//!     ServeConfig::default(),
//! );
//! let sample = Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.5], 1, 3)
//!     .remove(0);
//! let ticket = server
//!     .submit(sample.image, Duration::from_secs(5))
//!     .expect("admitted");
//! let response = ticket.wait().expect("drain contract");
//! assert!(matches!(
//!     response.outcome,
//!     ServeOutcome::Completed(_) | ServeOutcome::Degraded(_)
//! ));
//! let health = server.shutdown();
//! assert!(health.accounted());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod clock;
mod engine;
mod health;
mod overload;
mod queue;
mod replay;
mod request;
mod server;
mod threshold;

pub use clock::ServeClock;
pub use engine::ChaosConfig;
pub use health::HealthStats;
pub use overload::OverloadPolicy;
pub use replay::ReplayEngine;
pub use request::{ServeError, ServeOutcome, ServeResponse, Served, SubmitError, Ticket};
pub use server::{ServeConfig, Server};
pub use threshold::ThresholdPolicy;
