//! The batch execution core: one coalesced batch in, one typed terminal
//! state per request out, with the loop guaranteed to survive.
//!
//! `process` is deliberately free of threads — the [`Server`](crate::Server)
//! wraps it in a worker loop, and deterministic tests drive it directly on
//! a [`ServeClock::manual`](crate::ServeClock::manual) virtual clock with
//! [`StallSchedule`] chaos, so every deadline-miss and panic-isolation path
//! replays bit-identically with no wall-clock flakiness.

use crate::clock::ServeClock;
use crate::health::HealthStats;
use crate::overload::OverloadController;
use crate::queue::Pending;
use crate::request::{ServeError, ServeOutcome, ServeResponse, Served};
use crate::server::ServeConfig;
use crate::threshold::ThresholdController;
use pivot_core::{check_ladder, evaluate_guarded_slice, Parallelism, StallSchedule};
use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Deterministic chaos injected into the engine, for the stall and
/// panic-isolation tests. Default is no chaos.
#[derive(Debug, Default)]
pub struct ChaosConfig {
    /// Per-batch stall faults: each batch draws from the schedule and, on
    /// a hit, charges the drawn duration to the engine clock *before*
    /// inference — simulating a transient slow worker.
    pub stall: Option<StallSchedule>,
    /// Batch indices (0-based, in execution order) that panic instead of
    /// running inference. Exercises the panic-isolation path.
    pub panic_batches: Vec<u64>,
}

/// Locks `mutex`, recovering the data from a poisoned lock: every value
/// the crate guards (the health ledger, the admission queue) stays
/// consistent across a panic, so poisoning carries no information here.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine state owned by the worker thread.
pub(crate) struct EngineCore {
    levels: Vec<PreparedModel>,
    thresholds: Vec<f32>,
    controller: OverloadController,
    tuner: Option<ThresholdController>,
    par: Parallelism,
    chaos: ChaosConfig,
    clock: ServeClock,
    health: Arc<Mutex<HealthStats>>,
    batch_index: u64,
}

impl EngineCore {
    /// Validates the ladder and builds the engine over it, returning the
    /// core and its health ledger — seeded with the full effort cap and
    /// the first gate's threshold — for the caller to share. `config`'s
    /// overload, threshold and parallelism fields are honored; its queue
    /// fields are the caller's business.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` and `thresholds` pass [`check_ladder`], or if
    /// adaptive threshold control is requested on a ladder deeper than two
    /// levels: the tuner moves gate 0 alone and could cross gate 1 mid-run.
    pub fn new(
        levels: Vec<PreparedModel>,
        thresholds: Vec<f32>,
        config: &ServeConfig,
        chaos: ChaosConfig,
        clock: ServeClock,
    ) -> (Self, Arc<Mutex<HealthStats>>) {
        check_ladder(&levels, &thresholds);
        assert!(
            config.threshold.is_none() || levels.len() == 2,
            "adaptive threshold control needs a two-level ladder, got {} levels",
            levels.len()
        );
        let (top, initial_th) = (levels.len() - 1, thresholds[0]);
        let health = Arc::new(Mutex::new(HealthStats {
            effort_cap: top,
            threshold: initial_th,
            ..HealthStats::default()
        }));
        let core = Self {
            levels,
            thresholds,
            controller: OverloadController::new(top, config.overload),
            tuner: config
                .threshold
                .map(|policy| ThresholdController::new(initial_th, policy)),
            par: config.parallelism,
            chaos,
            clock,
            health: Arc::clone(&health),
            batch_index: 0,
        };
        (core, health)
    }

    /// Executes one coalesced batch to full resolution: every request in
    /// it gets exactly one [`ServeResponse`], whatever happens.
    pub fn process(&mut self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let batch_id = self.batch_index;
        self.batch_index += 1;

        // 1. Shed requests that already missed their deadline in the
        //    queue: running them would burn GEMM work on unusable answers.
        let now = self.clock.now_ns();
        let (expired, live): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|p| p.deadline_ns <= now);
        for p in &expired {
            self.resolve_timeout(p, now);
        }
        {
            let mut health = lock(&self.health);
            health.timed_out += expired.len() as u64;
        }

        // 2. Observe queue pressure and settle the effort cap for this
        //    batch. The oldest live request's age is the load signal.
        let oldest_age = live
            .iter()
            .map(|p| now.saturating_sub(p.enqueued_ns))
            .max()
            .unwrap_or(0);
        let cap = self.controller.observe(Duration::from_nanos(oldest_age));
        {
            let mut health = lock(&self.health);
            health.batches += 1;
            health.effort_cap = cap;
            health.downshifts = self.controller.downshifts();
            health.upshifts = self.controller.upshifts();
        }
        if live.is_empty() {
            return;
        }

        // 3. Chaos: an injected stall charges the clock before inference.
        if let Some(stall) = self.chaos.stall.as_mut() {
            if let Some(d) = stall.next_stall() {
                self.clock.advance(d);
                lock(&self.health).stalls += 1;
            }
        }

        // 4. Run the guarded cascade with the panic firewall up. The
        //    `AssertUnwindSafe` is sound because on Err we discard every
        //    piece of state the closure touched except the controller and
        //    clock, which are only read before inference starts.
        let must_panic = self.chaos.panic_batches.contains(&batch_id);
        let levels = &self.levels;
        let thresholds = &self.thresholds;
        let par = self.par;
        let images: Vec<&Matrix> = live.iter().map(|p| &p.image).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            assert!(!must_panic, "chaos: injected batch panic");
            evaluate_guarded_slice(levels, thresholds, cap, &images, par)
        }));

        let done = self.clock.now_ns();
        match result {
            Err(_) => {
                // 5a. The whole batch fails typed; the loop survives.
                let mut health = lock(&self.health);
                health.panics += 1;
                health.failed += live.len() as u64;
                drop(health);
                for p in &live {
                    let outcome =
                        ServeOutcome::Failed(ServeError::BatchPanicked { batch: batch_id });
                    self.respond(p, outcome, done);
                }
            }
            Ok((outcomes, report)) => {
                // 5b. Classify each request by its guarded outcome and the
                //     deadline at completion time.
                let mut completed = 0u64;
                let mut degraded = 0u64;
                let mut timed_out = 0u64;
                for (p, o) in live.iter().zip(&outcomes) {
                    if p.deadline_ns <= done {
                        self.resolve_timeout(p, done);
                        timed_out += 1;
                        continue;
                    }
                    let served = Served {
                        prediction: o.prediction,
                        level: o.level,
                        entropy: o.entropy,
                        effort_cap: cap,
                        fault_fallback: o.fault_fallback,
                    };
                    let outcome = if o.capped || !o.exit_finite || o.fault_fallback.is_some() {
                        degraded += 1;
                        ServeOutcome::Degraded(served)
                    } else {
                        completed += 1;
                        ServeOutcome::Completed(served)
                    };
                    self.respond(p, outcome, done);
                }
                // 6. Close the threshold control loop: every executed
                //    sample's level-0 entropy is drift evidence, and a due
                //    control tick retunes the gate for the *next* batch —
                //    unless the overload cap is engaged, which outranks
                //    the tuner (precedence contract: a held retune is
                //    counted, not applied).
                if let Some(tuner) = self.tuner.as_mut() {
                    for o in &outcomes {
                        tuner.observe(o.low_entropy);
                    }
                    self.thresholds[0] = tuner.end_batch(self.controller.is_degraded());
                }
                let mut health = lock(&self.health);
                health.completed += completed;
                health.degraded += degraded;
                health.timed_out += timed_out;
                health.threshold = self.thresholds[0];
                if let Some(tuner) = self.tuner.as_ref() {
                    health.retunes = tuner.retunes();
                    health.th_holds = tuner.holds();
                }
                health.fallbacks += report.fallbacks() as u64;
                health.fault_escalations += report.escalations() as u64;
            }
        }
    }

    fn resolve_timeout(&self, p: &Pending, now_ns: u64) {
        let queued_for = Duration::from_nanos(now_ns.saturating_sub(p.enqueued_ns));
        self.respond(p, ServeOutcome::TimedOut { queued_for }, now_ns);
    }

    fn respond(&self, p: &Pending, outcome: ServeOutcome, now_ns: u64) {
        let latency = Duration::from_nanos(now_ns.saturating_sub(p.enqueued_ns));
        // A vanished caller (dropped ticket) is not an engine error.
        let _ = p.reply.send(ServeResponse {
            id: p.id,
            outcome,
            latency,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::OverloadPolicy;
    use pivot_core::FaultInjector;
    use pivot_data::{Dataset, DatasetConfig, Sample};
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};
    use std::sync::mpsc::{channel, Receiver};

    fn levels() -> (Vec<PreparedModel>, Vec<f32>) {
        let mut low = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(40));
        low.set_active_attentions(&[0]);
        let mut high = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(41));
        high.set_active_attentions(&[0, 1]);
        (vec![low.prepare(), high.prepare()], vec![0.5])
    }

    fn samples(n: usize) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], n / 2, 42)
    }

    fn engine(
        chaos: ChaosConfig,
        clock: ServeClock,
        policy: OverloadPolicy,
    ) -> (EngineCore, Arc<Mutex<HealthStats>>) {
        let (lv, th) = levels();
        let config = ServeConfig {
            parallelism: Parallelism::Off,
            overload: policy,
            ..ServeConfig::default()
        };
        EngineCore::new(lv, th, &config, chaos, clock)
    }

    fn enqueue(
        set: &[Sample],
        clock: &ServeClock,
        deadline: Duration,
    ) -> (Vec<Pending>, Vec<Receiver<ServeResponse>>) {
        let now = clock.now_ns();
        set.iter()
            .enumerate()
            .map(|(i, s)| {
                let (tx, rx) = channel();
                (
                    Pending {
                        id: i as u64,
                        image: s.image.clone(),
                        enqueued_ns: now,
                        deadline_ns: now + deadline.as_nanos() as u64,
                        reply: tx,
                    },
                    rx,
                )
            })
            .unzip()
    }

    #[test]
    fn healthy_batch_completes_everything_and_balances_the_ledger() {
        let clock = ServeClock::manual();
        let (mut core, health) = engine(
            ChaosConfig::default(),
            clock.clone(),
            OverloadPolicy::default(),
        );
        let set = samples(8);
        let (batch, rxs) = enqueue(&set, &clock, Duration::from_secs(1));
        core.process(batch);
        for rx in rxs {
            let resp = rx.try_recv().expect("resolved");
            assert!(matches!(resp.outcome, ServeOutcome::Completed(_)));
        }
        let h = lock(&health).clone();
        assert_eq!(h.completed, 8);
        assert_eq!(h.batches, 1);
        assert_eq!(h.effort_cap, 1);
        assert_eq!((h.fallbacks, h.fault_escalations), (0, 0));
    }

    #[test]
    fn injected_panic_fails_the_batch_and_spares_the_next() {
        let clock = ServeClock::manual();
        let chaos = ChaosConfig {
            panic_batches: vec![0],
            ..ChaosConfig::default()
        };
        let (mut core, health) = engine(chaos, clock.clone(), OverloadPolicy::default());
        let set = samples(4);
        let (batch, rxs) = enqueue(&set, &clock, Duration::from_secs(1));
        core.process(batch);
        for rx in rxs {
            let resp = rx.try_recv().expect("resolved");
            assert_eq!(
                resp.outcome,
                ServeOutcome::Failed(ServeError::BatchPanicked { batch: 0 })
            );
        }
        // The very next batch runs normally on the same engine.
        let (batch, rxs) = enqueue(&set, &clock, Duration::from_secs(1));
        core.process(batch);
        for rx in rxs {
            assert!(matches!(
                rx.try_recv().expect("resolved").outcome,
                ServeOutcome::Completed(_)
            ));
        }
        let h = lock(&health).clone();
        assert_eq!(h.panics, 1);
        assert_eq!(h.failed, 4);
        assert_eq!(h.completed, 4);
    }

    #[test]
    fn stall_fault_pushes_live_requests_past_their_deadline() {
        let clock = ServeClock::manual();
        // permille 1000 => every batch stalls 5ms, deterministic.
        let stall = FaultInjector::new(7).stall_schedule(
            1000,
            Duration::from_millis(5),
            Duration::from_millis(5),
        );
        let chaos = ChaosConfig {
            stall: Some(stall),
            ..ChaosConfig::default()
        };
        let (mut core, health) = engine(chaos, clock.clone(), OverloadPolicy::default());
        let set = samples(4);
        // Deadline shorter than the stall: execution finishes too late.
        let (batch, rxs) = enqueue(&set, &clock, Duration::from_millis(2));
        core.process(batch);
        for rx in rxs {
            let resp = rx.try_recv().expect("resolved");
            match resp.outcome {
                ServeOutcome::TimedOut { queued_for } => {
                    assert_eq!(queued_for, Duration::from_millis(5));
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
        let h = lock(&health).clone();
        assert_eq!(h.stalls, 1);
        assert_eq!(h.timed_out, 4);
        assert_eq!(h.completed, 0);
    }

    #[test]
    fn queue_expired_requests_are_shed_without_inference() {
        let clock = ServeClock::manual();
        let (mut core, health) = engine(
            ChaosConfig::default(),
            clock.clone(),
            OverloadPolicy::default(),
        );
        let set = samples(4);
        let (batch, rxs) = enqueue(&set, &clock, Duration::from_millis(1));
        // The batch sat in the queue past every deadline.
        clock.advance(Duration::from_millis(10));
        core.process(batch);
        for rx in rxs {
            let resp = rx.try_recv().expect("resolved");
            assert!(matches!(resp.outcome, ServeOutcome::TimedOut { .. }));
            assert_eq!(resp.latency, Duration::from_millis(10));
        }
        let h = lock(&health).clone();
        assert_eq!(h.timed_out, 4);
        // No live requests: the engine never ran inference.
        assert_eq!(h.completed + h.degraded, 0);
    }

    #[test]
    fn overload_downshifts_to_low_only_and_marks_capped_requests_degraded() {
        let clock = ServeClock::manual();
        let policy = OverloadPolicy {
            queue_budget: Duration::from_millis(10),
            recover_ratio: 0.5,
            recover_after: 2,
        };
        let (mut core, health) = engine(ChaosConfig::default(), clock.clone(), policy);
        let set = samples(12);
        let (batch, rxs) = enqueue(&set, &clock, Duration::from_secs(1));
        // Age the batch past the queue budget before the engine sees it.
        clock.advance(Duration::from_millis(20));
        core.process(batch);
        let h = lock(&health).clone();
        assert_eq!(h.effort_cap, 0, "one over-budget observation downshifts");
        assert_eq!(h.downshifts, 1);
        let mut degraded = 0;
        for rx in rxs {
            let resp = rx.try_recv().expect("resolved");
            match resp.outcome {
                ServeOutcome::Completed(s) => assert_eq!(s.level, 0),
                ServeOutcome::Degraded(s) => {
                    assert_eq!(s.level, 0, "cap 0 serves low only");
                    assert_eq!(s.effort_cap, 0);
                    degraded += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(degraded > 0, "some samples must have demanded escalation");
        assert_eq!(lock(&health).degraded, degraded);
    }

    #[test]
    fn recovery_restores_full_effort_after_calm_batches() {
        let clock = ServeClock::manual();
        let policy = OverloadPolicy {
            queue_budget: Duration::from_millis(10),
            recover_ratio: 0.5,
            recover_after: 2,
        };
        let (mut core, health) = engine(ChaosConfig::default(), clock.clone(), policy);
        let set = samples(4);
        let (batch, _rxs) = enqueue(&set, &clock, Duration::from_secs(1));
        clock.advance(Duration::from_millis(20));
        core.process(batch);
        assert_eq!(lock(&health).effort_cap, 0);
        // Two fresh (zero-age) batches rebuild trust.
        for _ in 0..2 {
            let (batch, _rxs) = enqueue(&set, &clock, Duration::from_secs(1));
            core.process(batch);
        }
        let h = lock(&health).clone();
        assert_eq!(h.effort_cap, 1, "hysteretic recovery reached the top");
        assert_eq!(h.upshifts, 1);
    }
}
