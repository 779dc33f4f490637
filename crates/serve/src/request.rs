//! Request, response and typed-error vocabulary of the serving engine.
//!
//! Every admitted request resolves to exactly one [`ServeResponse`] whose
//! [`ServeOutcome`] is one of four terminal states — completed, degraded,
//! timed out, or failed — and every rejected submission gets a synchronous
//! typed [`SubmitError`]. There is no fifth path: the accounting identity
//! `submitted == shed + completed + degraded + timed_out + failed` is the
//! engine's liveness contract (asserted by the `server` and `engine` tests).

use pivot_tensor::Matrix;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// One admitted request as the engine executes it: the id handed to the
/// caller, the image the engine borrows for one batch, and the admission
/// and deadline stamps on the engine clock (resolving after the deadline
/// is a timeout).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request<'a> {
    pub id: u64,
    pub image: &'a Matrix,
    pub enqueued_ns: u64,
    pub deadline_ns: u64,
}

/// A successfully served prediction and the effort context it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// Predicted class.
    pub prediction: usize,
    /// Effort level that produced (and was charged for) the answer.
    pub level: usize,
    /// Normalized entropy of the exit level's logits (NaN if that level
    /// was faulted and a fallback served).
    pub entropy: f32,
    /// The effort cap in force when the request was executed (the ladder
    /// top when the engine is healthy and unloaded).
    pub effort_cap: usize,
    /// The earlier level whose prediction stood in because the exit
    /// level's logits were non-finite, if any (DESIGN.md §5 fallback).
    pub fault_fallback: Option<usize>,
}

/// Terminal state of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// Served at the gate-chosen effort with finite logits — bit-identical
    /// to what the offline guarded evaluation computes for this image.
    Completed(Served),
    /// Served, but not at full fidelity: the overload controller capped
    /// the effort below what the entropy gate demanded, or a fault forced
    /// a fallback prediction.
    Degraded(Served),
    /// The deadline expired — either in the queue (never executed) or
    /// because execution finished too late to be useful. Late results are
    /// not delivered as completions.
    TimedOut {
        /// Admission-to-resolution time.
        queued_for: Duration,
    },
    /// Execution failed with a typed error (the request's batch panicked);
    /// the engine itself survived.
    Failed(ServeError),
}

impl ServeOutcome {
    /// The served prediction, if the request produced one.
    pub fn served(&self) -> Option<&Served> {
        match self {
            Self::Completed(s) | Self::Degraded(s) => Some(s),
            Self::TimedOut { .. } | Self::Failed(_) => None,
        }
    }
}

/// The engine's answer to one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The id returned by `submit` for this request.
    pub id: u64,
    /// Terminal state.
    pub outcome: ServeOutcome,
    /// Admission-to-response latency on the engine's clock.
    pub latency: Duration,
}

/// Typed execution failure attached to a [`ServeOutcome::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The batch this request was coalesced into panicked during
    /// inference. The panic was isolated: the loop survived and only the
    /// batch's requests fail.
    BatchPanicked {
        /// Index of the panicked batch (for correlation with health
        /// counters and chaos schedules).
        batch: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BatchPanicked { batch } => {
                write!(f, "inference batch {batch} panicked; request failed")
            }
        }
    }
}

impl Error for ServeError {}

/// Typed admission failure: the caller gets backpressure, not buffering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is full; the request was shed at the
    /// door. `queue_depth` is the depth observed at rejection — the signal
    /// a well-behaved client backs off on.
    Rejected {
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
    },
    /// The server is draining and admits no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rejected { queue_depth } => {
                write!(
                    f,
                    "admission queue full (depth {queue_depth}); request shed"
                )
            }
            Self::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl Error for SubmitError {}

/// A claim on one in-flight request's eventual [`ServeResponse`].
#[derive(Debug)]
pub struct Ticket {
    /// The request id (matches the eventual response's id).
    pub id: u64,
    pub(crate) rx: Receiver<ServeResponse>,
}

impl Ticket {
    /// Blocks until the response arrives. Returns `None` only if the
    /// server vanished without resolving the request (a bug — the drain
    /// contract resolves every admitted request).
    pub fn wait(self) -> Option<ServeResponse> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = SubmitError::Rejected { queue_depth: 64 };
        assert_eq!(
            e.to_string(),
            "admission queue full (depth 64); request shed"
        );
        assert_eq!(
            SubmitError::ShuttingDown.to_string(),
            "server is shutting down"
        );
        assert_eq!(
            ServeError::BatchPanicked { batch: 3 }.to_string(),
            "inference batch 3 panicked; request failed"
        );
    }

    #[test]
    fn served_accessor_distinguishes_terminal_states() {
        let served = Served {
            prediction: 1,
            level: 0,
            entropy: 0.5,
            effort_cap: 1,
            fault_fallback: None,
        };
        assert!(ServeOutcome::Completed(served).served().is_some());
        assert!(ServeOutcome::Degraded(served).served().is_some());
        assert!(ServeOutcome::TimedOut {
            queued_for: Duration::ZERO
        }
        .served()
        .is_none());
        assert!(ServeOutcome::Failed(ServeError::BatchPanicked { batch: 0 })
            .served()
            .is_none());
    }
}
