//! The batch execution core: one coalesced batch in, one typed terminal
//! state per request out, with the loop guaranteed to survive.
//!
//! Data flows one way: `process` borrows the requests, counts the whole
//! batch into the health ledger under one lock, then returns the
//! responses in input order for the caller to deliver (the
//! [`Server`](crate::Server) worker on the tickets' channels, the
//! [`ReplayEngine`](crate::ReplayEngine) as its return value). The
//! controllers decide; the engine counts.
//!
//! `process` is deliberately free of threads, so deterministic tests drive
//! it directly on a [`ServeClock::manual`](crate::ServeClock::manual)
//! virtual clock with [`StallSchedule`] chaos, and every deadline-miss and
//! panic-isolation path replays bit-identically with no wall-clock
//! flakiness.

use crate::clock::ServeClock;
use crate::health::HealthStats;
use crate::overload::OverloadController;
use crate::request::{Request, ServeError, ServeOutcome, ServeResponse, Served};
use crate::server::ServeConfig;
use crate::threshold::{ThresholdController, Tick};
use pivot_core::{
    check_ladder, evaluate_guarded_slice, EnergyLedger, GuardedOutcome, LadderEnergy, Parallelism,
    StallSchedule,
};
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
    costs: Option<LadderEnergy>,
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
    /// overload, threshold, cost and parallelism fields are honored; its
    /// queue fields are the caller's business.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` and `thresholds` pass [`check_ladder`], if
    /// adaptive threshold control is requested on a ladder deeper than two
    /// levels: the tuner moves gate 0 alone and could cross gate 1 mid-run,
    /// or unless `config.costs` prices each level once: the charge runs
    /// outside the panic firewall.
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
        if let Some(costs) = &config.costs {
            assert_eq!(costs.levels(), levels.len(), "one cost per ladder level");
        }
        let (top, initial_th) = (levels.len() - 1, thresholds[0]);
        let health = Arc::new(Mutex::new(HealthStats {
            effort_cap: top,
            threshold: initial_th,
            energy: config.costs.as_ref().map(|_| EnergyLedger::new()),
            ..HealthStats::default()
        }));
        let core = Self {
            levels,
            thresholds,
            controller: OverloadController::new(top, config.overload),
            tuner: config
                .threshold
                .map(|policy| ThresholdController::new(initial_th, policy)),
            costs: config.costs.clone(),
            par: config.parallelism,
            chaos,
            clock,
            health: Arc::clone(&health),
            batch_index: 0,
        };
        (core, health)
    }

    /// Executes one coalesced batch to full resolution and returns exactly
    /// one [`ServeResponse`] per request, in input order, whatever happens.
    /// The batch is counted into the health ledger, under one lock, before
    /// this returns.
    pub fn process(&mut self, batch: &[Request<'_>]) -> Vec<ServeResponse> {
        if batch.is_empty() {
            return Vec::new();
        }
        let batch_id = self.batch_index;
        self.batch_index += 1;

        // 1. Settle the effort cap for this batch. The load signal is the
        //    oldest request's age, expired ones included: a batch that
        //    aged out in the queue is overload, never calm.
        let now = self.clock.now_ns();
        let oldest_age = batch
            .iter()
            .map(|r| now.saturating_sub(r.enqueued_ns))
            .max()
            .unwrap_or(0);
        let prior_cap = self.controller.cap();
        let cap = self.controller.observe(Duration::from_nanos(oldest_age));

        // 2. Requests that missed their deadline in the queue are shed:
        //    running them would burn GEMM work on unusable answers.
        let live: Vec<&Matrix> = batch
            .iter()
            .filter(|r| r.deadline_ns > now)
            .map(|r| r.image)
            .collect();
        let mut stalled = false;
        let mut run = None;
        if !live.is_empty() {
            // 3. Chaos: an injected stall charges the clock first.
            if let Some(stall) = self.chaos.stall.as_mut() {
                if let Some(d) = stall.next_stall() {
                    self.clock.advance(d);
                    stalled = true;
                }
            }
            // 4. Run the guarded cascade with the panic firewall up. The
            //    `AssertUnwindSafe` is sound because on Err we discard
            //    every piece of state the closure touched; it only reads
            //    the levels and thresholds.
            let must_panic = self.chaos.panic_batches.contains(&batch_id);
            let (levels, thresholds, par) = (&self.levels, &self.thresholds, self.par);
            run = Some(catch_unwind(AssertUnwindSafe(|| {
                assert!(!must_panic, "chaos: injected batch panic");
                evaluate_guarded_slice(levels, thresholds, cap, &live, par)
            })));
        }

        // 5. Resolve every request in input order: queue-expired ones at
        //    `now`, the rest at completion time, where a panicked batch
        //    fails typed and a finished one is classified by its guarded
        //    outcome and the deadline.
        let done = self.clock.now_ns();
        let panicked = matches!(run, Some(Err(_)));
        let mut outcomes = match &run {
            Some(Ok((outcomes, _))) => outcomes.iter(),
            _ => [].iter(),
        };
        let responses: Vec<ServeResponse> = batch
            .iter()
            .map(|r| {
                let expired = r.deadline_ns <= now;
                let at = if expired { now } else { done };
                let latency = Duration::from_nanos(at.saturating_sub(r.enqueued_ns));
                let timed_out = ServeOutcome::TimedOut {
                    queued_for: latency,
                };
                let outcome = if expired {
                    timed_out
                } else if panicked {
                    ServeOutcome::Failed(ServeError::BatchPanicked { batch: batch_id })
                } else {
                    let o = outcomes.next().expect("one outcome per live request");
                    if r.deadline_ns <= done {
                        timed_out
                    } else {
                        served(o, cap)
                    }
                };
                ServeResponse {
                    id: r.id,
                    outcome,
                    latency,
                }
            })
            .collect();

        // 6. Close the threshold control loop on an executed batch: every
        //    sample's level-0 entropy is drift evidence, and a due tick
        //    retunes the gate for the *next* batch — unless the overload
        //    cap is engaged, which outranks the tuner (the tick is held).
        let mut tick = Tick::Idle;
        if let (Some(Ok((outcomes, _))), Some(tuner)) = (&run, self.tuner.as_mut()) {
            for o in outcomes {
                tuner.observe(o.low_entropy);
            }
            tick = tuner.end_batch(self.controller.is_degraded());
            self.thresholds[0] = tuner.threshold();
        }

        // 7. Count the batch, once, before any caller sees a response.
        let mut health = lock(&self.health);
        health.batches += 1;
        health.effort_cap = cap;
        health.threshold = self.thresholds[0];
        health.downshifts += u64::from(cap < prior_cap);
        health.upshifts += u64::from(cap > prior_cap);
        health.stalls += u64::from(stalled);
        health.panics += u64::from(panicked);
        health.retunes += u64::from(tick == Tick::Retuned);
        health.th_holds += u64::from(tick == Tick::Held);
        if let Some(Ok((_, report))) = &run {
            health.fallbacks += report.fallbacks() as u64;
            health.fault_escalations += report.escalations() as u64;
        }
        for response in &responses {
            *match response.outcome {
                ServeOutcome::Completed(_) => &mut health.completed,
                ServeOutcome::Degraded(_) => &mut health.degraded,
                ServeOutcome::TimedOut { .. } => &mut health.timed_out,
                ServeOutcome::Failed(_) => &mut health.failed,
            } += 1;
        }
        if let (Some(costs), Some(ledger)) = (&self.costs, health.energy.as_mut()) {
            for served in responses.iter().filter_map(|r| r.outcome.served()) {
                ledger.charge(costs, served.level);
            }
        }
        drop(health);
        responses
    }
}

/// A finished request's answer: degraded when the cap cut its escalation
/// short or a fault forced a fallback, completed otherwise.
fn served(o: &GuardedOutcome, cap: usize) -> ServeOutcome {
    let served = Served {
        prediction: o.prediction,
        level: o.level,
        entropy: o.entropy,
        effort_cap: cap,
        fault_fallback: o.fault_fallback,
    };
    if o.capped || !o.exit_finite || o.fault_fallback.is_some() {
        ServeOutcome::Degraded(served)
    } else {
        ServeOutcome::Completed(served)
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

    /// One request per sample, numbered in order, admitted now with
    /// `deadline` to run.
    fn enqueue<'a>(set: &'a [Sample], clock: &ServeClock, deadline: Duration) -> Vec<Request<'a>> {
        let now = clock.now_ns();
        (0..)
            .zip(set)
            .map(|(id, s)| Request {
                id,
                image: &s.image,
                enqueued_ns: now,
                deadline_ns: now + deadline.as_nanos() as u64,
            })
            .collect()
    }

    /// The overload policy of the downshift and recovery tests.
    fn tight(recover_after: usize) -> OverloadPolicy {
        OverloadPolicy {
            queue_budget: Duration::from_millis(10),
            recover_ratio: 0.5,
            recover_after,
        }
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
        for resp in core.process(&enqueue(&set, &clock, Duration::from_secs(1))) {
            assert!(matches!(resp.outcome, ServeOutcome::Completed(_)));
        }
        let h = lock(&health).clone();
        assert_eq!(h.completed, 8);
        assert_eq!(h.batches, 1);
        assert_eq!(h.effort_cap, 1);
        assert_eq!((h.fallbacks, h.fault_escalations), (0, 0));
    }

    /// A batch shaped like the ones `AdmissionQueue::next_batch` forms:
    /// requests that expired in the queue first, live ones after. The
    /// engine answers each exactly once, in input order.
    #[test]
    fn responses_come_back_one_per_request_in_input_order() {
        let clock = ServeClock::manual();
        let (mut core, health) = engine(
            ChaosConfig::default(),
            clock.clone(),
            OverloadPolicy::default(),
        );
        let set = samples(6);
        let mut batch = enqueue(&set, &clock, Duration::from_secs(1));
        for (r, id) in batch.iter_mut().zip([7, 3, 0, 1, 2, 9]) {
            r.id = id;
        }
        for r in &mut batch[..2] {
            r.deadline_ns = 1;
        }
        clock.advance(Duration::from_millis(1));
        let responses = core.process(&batch);
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, [7, 3, 0, 1, 2, 9]);
        for (i, resp) in responses.iter().enumerate() {
            match (i < 2, &resp.outcome) {
                (true, ServeOutcome::TimedOut { .. }) | (false, ServeOutcome::Completed(_)) => {}
                (_, other) => panic!("request {i} resolved as {other:?}"),
            }
        }
        let h = lock(&health).clone();
        assert_eq!((h.timed_out, h.completed, h.batches), (2, 4, 1));
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
        let batch = enqueue(&set, &clock, Duration::from_secs(1));
        for resp in core.process(&batch) {
            assert_eq!(
                resp.outcome,
                ServeOutcome::Failed(ServeError::BatchPanicked { batch: 0 })
            );
        }
        // The very next batch runs normally on the same engine.
        for resp in core.process(&batch) {
            assert!(matches!(resp.outcome, ServeOutcome::Completed(_)));
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
        for resp in core.process(&enqueue(&set, &clock, Duration::from_millis(2))) {
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
        let batch = enqueue(&set, &clock, Duration::from_millis(1));
        // The batch sat in the queue past every deadline.
        clock.advance(Duration::from_millis(10));
        for resp in core.process(&batch) {
            assert!(matches!(resp.outcome, ServeOutcome::TimedOut { .. }));
            assert_eq!(resp.latency, Duration::from_millis(10));
        }
        let h = lock(&health).clone();
        assert_eq!(h.timed_out, 4);
        // No live requests: the engine never ran inference.
        assert_eq!(h.completed + h.degraded, 0);
    }

    /// Regression: with no live request the load signal used to fall back
    /// to age 0, so a batch that had all expired in the queue read as a
    /// calm observation and could upshift the cap.
    #[test]
    fn a_batch_that_expired_in_the_queue_reads_as_overload() {
        let clock = ServeClock::manual();
        let (mut core, health) = engine(ChaosConfig::default(), clock.clone(), tight(1));
        let set = samples(4);
        let batch = enqueue(&set, &clock, Duration::from_secs(1));
        clock.advance(Duration::from_millis(20));
        core.process(&batch);
        assert_eq!(lock(&health).effort_cap, 0);
        // Four requests wait 30 ms and expire: no inference, but the
        // oldest age is still far over budget.
        let batch = enqueue(&set, &clock, Duration::from_millis(1));
        clock.advance(Duration::from_millis(30));
        core.process(&batch);
        let h = lock(&health).clone();
        assert_eq!(h.timed_out, 4);
        assert_eq!((h.effort_cap, h.upshifts), (0, 0), "{h}");
    }

    #[test]
    fn overload_downshifts_to_low_only_and_marks_capped_requests_degraded() {
        let clock = ServeClock::manual();
        let (mut core, health) = engine(ChaosConfig::default(), clock.clone(), tight(2));
        let set = samples(12);
        let batch = enqueue(&set, &clock, Duration::from_secs(1));
        // Age the batch past the queue budget before the engine sees it.
        clock.advance(Duration::from_millis(20));
        let responses = core.process(&batch);
        let h = lock(&health).clone();
        assert_eq!(h.effort_cap, 0, "one over-budget observation downshifts");
        assert_eq!(h.downshifts, 1);
        let mut degraded = 0;
        for resp in responses {
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
        assert_eq!(h.degraded, degraded);
    }

    #[test]
    fn recovery_restores_full_effort_after_calm_batches() {
        let clock = ServeClock::manual();
        let (mut core, health) = engine(ChaosConfig::default(), clock.clone(), tight(2));
        let set = samples(4);
        let batch = enqueue(&set, &clock, Duration::from_secs(1));
        clock.advance(Duration::from_millis(20));
        core.process(&batch);
        assert_eq!(lock(&health).effort_cap, 0);
        // Two fresh (zero-age) batches rebuild trust.
        for _ in 0..2 {
            core.process(&enqueue(&set, &clock, Duration::from_secs(1)));
        }
        let h = lock(&health).clone();
        assert_eq!(h.effort_cap, 1, "hysteretic recovery reached the top");
        assert_eq!(h.upshifts, 1);
    }
}
