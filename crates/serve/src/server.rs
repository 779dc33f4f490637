//! The server handle: spawn, submit, observe, drain.
//!
//! One worker thread owns the [`EngineCore`] and loops on
//! [`AdmissionQueue::next_batch`]; the handle side is `Send + Sync` and
//! cheap to share. Shutdown is a drain, not an abort: `close` stops
//! admissions, the worker finishes every already-admitted request (each
//! reaching a typed terminal state), and `shutdown` returns the final
//! balanced [`HealthStats`] ledger.

use crate::clock::ServeClock;
use crate::engine::{lock, ChaosConfig, EngineCore};
use crate::health::HealthStats;
use crate::overload::OverloadPolicy;
use crate::queue::{AdmissionQueue, Pending};
use crate::request::{Request, SubmitError, Ticket};
use crate::threshold::ThresholdPolicy;
use pivot_core::{LadderEnergy, Parallelism};
use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning. The defaults suit the repo's synthetic test-small
/// models; production ladders want a measured `batch_window`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded admission queue capacity; submissions beyond it are shed
    /// with [`SubmitError::Rejected`].
    pub queue_capacity: usize,
    /// Largest coalesced batch handed to one guarded evaluation.
    pub max_batch: usize,
    /// How long the engine holds a non-full batch open for concurrent
    /// arrivals to coalesce. Zero disables coalescing.
    pub batch_window: Duration,
    /// Parallelism of each level's chunked `forward_batch` sweep. A batch
    /// of at most [`EVAL_BATCH`](pivot_core::EVAL_BATCH) requests is one
    /// chunk, so it runs sequentially whatever this says.
    pub parallelism: Parallelism,
    /// Overload-controller tuning.
    pub overload: OverloadPolicy,
    /// Adaptive gate-threshold control. `None` (the default) serves with
    /// the static thresholds passed at spawn — Phase 2's offline
    /// operating point. `Some` closes the loop online: the gate's
    /// threshold is retuned from observed low-effort entropies to hold
    /// `F_L >= lec` as traffic drifts (see [`ThresholdPolicy`]). It needs
    /// a two-level ladder: the tuner moves one gate.
    pub threshold: Option<ThresholdPolicy>,
    /// Simulated per-level cost, one entry per ladder level. `Some` charges
    /// every served request its exit level's joules and delay into
    /// [`HealthStats::energy`]; `None` (the default) keeps no ledger.
    pub costs: Option<LadderEnergy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            max_batch: 32,
            batch_window: Duration::from_millis(2),
            parallelism: Parallelism::Auto,
            overload: OverloadPolicy::default(),
            threshold: None,
            costs: None,
        }
    }
}

/// Handle to a running serving engine.
#[derive(Debug)]
pub struct Server {
    queue: Arc<AdmissionQueue>,
    health: Arc<Mutex<HealthStats>>,
    clock: ServeClock,
    next_id: AtomicU64,
    worker: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns a server over an effort ladder (levels low → high, one
    /// entropy threshold per gate) with a wall clock and no chaos.
    ///
    /// # Panics
    ///
    /// Panics if the ladder breaks
    /// [`check_ladder`](pivot_core::check_ladder), adaptive threshold
    /// control is requested over more than two levels, a level's cost is
    /// missing or extra, or the config's capacity or `max_batch` is zero.
    pub fn spawn(levels: Vec<PreparedModel>, thresholds: Vec<f32>, config: ServeConfig) -> Self {
        Self::spawn_with(
            levels,
            thresholds,
            config,
            ServeClock::wall(),
            ChaosConfig::default(),
        )
    }

    /// Spawns a server with an explicit clock and chaos schedule — the
    /// entry point deterministic and fault-scenario tests use.
    fn spawn_with(
        levels: Vec<PreparedModel>,
        thresholds: Vec<f32>,
        config: ServeConfig,
        clock: ServeClock,
        chaos: ChaosConfig,
    ) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be >= 1");
        let (mut core, health) = EngineCore::new(levels, thresholds, &config, chaos, clock.clone());
        let queue = Arc::new(AdmissionQueue::new(config.queue_capacity));
        let worker = {
            let queue = Arc::clone(&queue);
            let worker_clock = clock.clone();
            let (max_batch, window) = (config.max_batch, config.batch_window);
            std::thread::spawn(move || {
                while let Some(batch) = queue.next_batch(max_batch, window, &worker_clock) {
                    let requests: Vec<_> = batch
                        .iter()
                        .map(|p| Request {
                            id: p.id,
                            image: &p.image,
                            enqueued_ns: p.enqueued_ns,
                            deadline_ns: p.deadline_ns,
                        })
                        .collect();
                    let responses = core.process(&requests);
                    for (pending, response) in batch.iter().zip(responses) {
                        // A vanished caller (dropped ticket) is not an
                        // engine error.
                        let _ = pending.reply.send(response);
                    }
                }
            })
        };
        Self {
            queue,
            health,
            clock,
            next_id: AtomicU64::new(0),
            worker: Some(worker),
        }
    }

    /// Offers one request with a relative deadline. Returns a [`Ticket`]
    /// on admission or a typed [`SubmitError`] (backpressure) — never
    /// blocks, never buffers beyond the bounded queue.
    pub fn submit(&self, image: Matrix, deadline: Duration) -> Result<Ticket, SubmitError> {
        lock(&self.health).submitted += 1;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_ns();
        let (tx, rx) = channel();
        let pending = Pending {
            id,
            image,
            enqueued_ns: now,
            deadline_ns: now.saturating_add(deadline.as_nanos() as u64),
            reply: tx,
        };
        match self.queue.push(pending) {
            Ok(()) => Ok(Ticket { id, rx }),
            Err(e) => {
                lock(&self.health).shed += 1;
                Err(e)
            }
        }
    }

    /// Requests currently waiting for batch formation.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Snapshot of the cumulative health ledger.
    pub fn health(&self) -> HealthStats {
        lock(&self.health).clone()
    }

    /// The clock the engine charges latencies against (shared source;
    /// advancing a manual clone moves server time).
    pub fn clock(&self) -> ServeClock {
        self.clock.clone()
    }

    /// Stops admissions, drains every already-admitted request to a typed
    /// terminal state, joins the worker, and returns the final ledger.
    pub fn shutdown(mut self) -> HealthStats {
        self.drain();
        lock(&self.health).clone()
    }

    fn drain(&mut self) {
        self.queue.close();
        if let Some(worker) = self.worker.take() {
            // A panicked worker already failed its batch via the
            // firewall; anything reaching here is an engine bug, but the
            // drain contract still holds for the handle.
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ServeError, ServeOutcome};
    use pivot_core::evaluate_guarded_slice;
    use pivot_data::{Dataset, DatasetConfig, Sample};
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};

    fn ladder() -> (Vec<PreparedModel>, Vec<f32>) {
        let mut low = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(50));
        low.set_active_attentions(&[0]);
        let mut high = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(51));
        high.set_active_attentions(&[0, 1]);
        (vec![low.prepare(), high.prepare()], vec![0.5])
    }

    fn samples(n: usize) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], n / 2, 52)
    }

    fn config() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            batch_window: Duration::from_millis(1),
            parallelism: Parallelism::Off,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthy_serving_is_bit_identical_to_offline_guarded_evaluation() {
        let (levels, thresholds) = ladder();
        let set = samples(16);
        let images: Vec<&Matrix> = set.iter().map(|s| &s.image).collect();
        let (offline, offline_report) =
            evaluate_guarded_slice(&levels, &thresholds, 1, &images, Parallelism::Off);
        assert!(offline_report.is_empty());

        let server = Server::spawn(levels, thresholds, config());
        let tickets: Vec<_> = set
            .iter()
            .map(|s| {
                server
                    .submit(s.image.clone(), Duration::from_secs(30))
                    .expect("capacity")
            })
            .collect();
        for (ticket, expected) in tickets.into_iter().zip(&offline) {
            let resp = ticket.wait().expect("drain contract");
            match resp.outcome {
                ServeOutcome::Completed(s) => {
                    assert_eq!(s.prediction, expected.prediction);
                    assert_eq!(s.level, expected.level);
                    assert_eq!(s.entropy.to_bits(), expected.entropy.to_bits());
                    assert_eq!(s.fault_fallback, None);
                }
                other => panic!("healthy request resolved as {other:?}"),
            }
        }
        let h = server.shutdown();
        assert_eq!(h.completed, 16);
        assert!(h.accounted(), "ledger must balance: {h}");
        assert_eq!((h.fallbacks, h.fault_escalations), (0, 0));
    }

    /// The engine counts a batch before the worker delivers it, so a
    /// caller holding every response reads a balanced ledger without
    /// draining the server.
    #[test]
    fn the_ledger_balances_once_every_ticket_is_answered() {
        let (levels, thresholds) = ladder();
        let server = Server::spawn(levels, thresholds, config());
        let set = samples(12);
        let tickets: Vec<_> = set
            .iter()
            .map(|s| {
                server
                    .submit(s.image.clone(), Duration::from_secs(30))
                    .expect("capacity")
            })
            .collect();
        for t in tickets {
            assert!(t.wait().expect("drain contract").outcome.served().is_some());
        }
        let h = server.health();
        assert!(h.accounted(), "ledger must balance before shutdown: {h}");
        assert_eq!(h.completed, 12, "{h}");
        server.shutdown();
    }

    #[test]
    fn overflow_is_shed_with_typed_backpressure_and_stays_accounted() {
        let (levels, thresholds) = ladder();
        // Capacity 1 and a long window: the first request occupies the
        // queue while the engine coalesces, so a burst overflows.
        let cfg = ServeConfig {
            queue_capacity: 1,
            batch_window: Duration::from_secs(2),
            ..config()
        };
        let server = Server::spawn(levels, thresholds, cfg);
        let set = samples(8);
        let mut tickets = Vec::new();
        let mut shed = 0u64;
        for s in &set {
            match server.submit(s.image.clone(), Duration::from_secs(30)) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Rejected { queue_depth }) => {
                    assert_eq!(queue_depth, 1);
                    shed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "burst must overflow capacity 1");
        for t in tickets {
            assert!(t.wait().expect("drain contract").outcome.served().is_some());
        }
        let h = server.shutdown();
        assert_eq!(h.shed, shed);
        assert!(h.accounted(), "ledger must balance: {h}");
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_rejects_new_ones() {
        let (levels, thresholds) = ladder();
        let server = Server::spawn(levels, thresholds, config());
        let set = samples(8);
        let tickets: Vec<_> = set
            .iter()
            .map(|s| {
                server
                    .submit(s.image.clone(), Duration::from_secs(30))
                    .expect("capacity")
            })
            .collect();
        let h = server.shutdown();
        assert_eq!(h.resolved(), 8, "drain resolves every admitted request");
        assert!(h.accounted());
        for t in tickets {
            assert!(t.wait().is_some(), "responses survive shutdown");
        }
    }

    #[test]
    fn a_panicking_batch_fails_typed_and_the_worker_keeps_serving() {
        let (levels, thresholds) = ladder();
        let chaos = ChaosConfig {
            panic_batches: vec![0],
            ..ChaosConfig::default()
        };
        let server = Server::spawn_with(levels, thresholds, config(), ServeClock::wall(), chaos);
        let set = samples(8);
        let first = server
            .submit(set[0].image.clone(), Duration::from_secs(30))
            .expect("capacity");
        assert_eq!(
            first.wait().expect("drain contract").outcome,
            ServeOutcome::Failed(ServeError::BatchPanicked { batch: 0 })
        );
        let tickets: Vec<_> = set
            .iter()
            .map(|s| {
                server
                    .submit(s.image.clone(), Duration::from_secs(30))
                    .expect("capacity")
            })
            .collect();
        for t in tickets {
            assert!(t.wait().expect("drain contract").outcome.served().is_some());
        }
        let h = server.shutdown();
        assert_eq!(h.panics, 1);
        assert!(h.accounted(), "ledger must balance: {h}");
    }

    #[test]
    fn submit_after_shutdown_path_reports_shutting_down() {
        let (levels, thresholds) = ladder();
        let server = Server::spawn(levels, thresholds, config());
        server.queue.close();
        let img = samples(2).remove(0).image;
        assert_eq!(
            server
                .submit(img, Duration::from_secs(1))
                .map(|_| ())
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        let h = server.shutdown();
        assert_eq!(h.submitted, 1);
        assert_eq!(h.shed, 1);
        assert!(h.accounted());
    }

    #[test]
    #[should_panic(expected = "one threshold per gate")]
    fn mismatched_thresholds_are_rejected_at_spawn() {
        let (levels, _) = ladder();
        let _ = Server::spawn(levels, vec![0.5, 0.5], config());
    }

    #[test]
    #[should_panic(expected = "efforts must share the class space, got class counts [4, 7]")]
    fn levels_of_different_class_counts_are_rejected_at_spawn() {
        let (mut levels, thresholds) = ladder();
        let cfg = VitConfig {
            num_classes: 7,
            ..VitConfig::test_small()
        };
        levels[1] = VisionTransformer::new(&cfg, &mut Rng::new(53)).prepare();
        let _ = Server::spawn(levels, thresholds, config());
    }
}
