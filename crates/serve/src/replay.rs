//! Deterministic single-threaded replay driver over the engine core.
//!
//! [`Server`](crate::Server) runs the engine on a worker thread behind the
//! admission queue — right for production, wrong for experiments that must
//! replay bit-identically: thread scheduling decides batch boundaries, and
//! a wall clock decides coalescing. [`ReplayEngine`] removes both sources
//! of nondeterminism. The caller forms every batch explicitly, time is a
//! [`ServeClock::manual`] the caller advances, and each `process` call
//! resolves synchronously — same classification, overload, threshold and
//! chaos machinery as the live server, same health ledger, zero threads.
//!
//! This is the harness the drift benchmark and the controller acceptance
//! tests drive: every `F_L` trajectory it produces is a pure function of
//! (ladder, config, request stream, clock script).

use crate::clock::ServeClock;
use crate::engine::{lock, ChaosConfig, EngineCore};
use crate::health::HealthStats;
use crate::request::{Request, ServeResponse};
use crate::server::ServeConfig;
use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;
use std::borrow::Borrow;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A synchronous, deterministic engine: batches in, typed responses out,
/// on a virtual clock the caller scripts.
pub struct ReplayEngine {
    core: EngineCore,
    clock: ServeClock,
    health: Arc<Mutex<HealthStats>>,
    next_id: u64,
}

impl ReplayEngine {
    /// Builds a replay engine over an effort ladder on a fresh manual
    /// clock. `config`'s overload, threshold, cost and parallelism fields
    /// are honored; its queue fields (`queue_capacity`, `max_batch`,
    /// `batch_window`) are ignored — the caller forms batches explicitly.
    ///
    /// # Panics
    ///
    /// Same ladder validation as [`Server::spawn`](crate::Server::spawn):
    /// panics if the ladder breaks
    /// [`check_ladder`](pivot_core::check_ladder), adaptive threshold
    /// control is requested over more than two levels, or a cost is missed.
    pub fn new(
        levels: Vec<PreparedModel>,
        thresholds: Vec<f32>,
        config: ServeConfig,
        chaos: ChaosConfig,
    ) -> Self {
        let clock = ServeClock::manual();
        let (core, health) = EngineCore::new(levels, thresholds, &config, chaos, clock.clone());
        Self {
            core,
            clock,
            health,
            next_id: 0,
        }
    }

    /// The engine's manual clock (shared source — advancing the returned
    /// clone moves engine time).
    pub fn clock(&self) -> ServeClock {
        self.clock.clone()
    }

    /// Executes one batch synchronously: every image becomes a request
    /// admitted *now* with the given relative deadline, and the returned
    /// responses are in input order, one per image. The health ledger
    /// counts each image as submitted, so it balances at every return.
    /// Images may be owned or borrowed (`&[Matrix]` or `&[&Matrix]`):
    /// each request only borrows its image.
    pub fn process<M: Borrow<Matrix>>(
        &mut self,
        images: &[M],
        deadline: Duration,
    ) -> Vec<ServeResponse> {
        self.process_aged(images, Duration::ZERO, deadline)
    }

    /// Like [`Self::process`], but backdates every request's admission by
    /// `queued_for` — scripting queue pressure without a queue. The
    /// overload controller sees exactly that age, so overload and
    /// recovery trajectories replay deterministically. The deadline is
    /// relative to *now* (not the backdated admission).
    fn process_aged<M: Borrow<Matrix>>(
        &mut self,
        images: &[M],
        queued_for: Duration,
        deadline: Duration,
    ) -> Vec<ServeResponse> {
        let now = self.clock.now_ns();
        let enqueued_ns = now.saturating_sub(queued_for.as_nanos() as u64);
        let deadline_ns = now.saturating_add(deadline.as_nanos() as u64);
        lock(&self.health).submitted += images.len() as u64;
        let batch: Vec<Request<'_>> = (self.next_id..)
            .zip(images)
            .map(|(id, image)| Request {
                id,
                image: image.borrow(),
                enqueued_ns,
                deadline_ns,
            })
            .collect();
        self.next_id += images.len() as u64;
        self.core.process(&batch)
    }

    /// Snapshot of the cumulative health ledger.
    pub fn health(&self) -> HealthStats {
        lock(&self.health).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServeOutcome;
    use crate::threshold::ThresholdPolicy;
    use pivot_core::Parallelism;
    use pivot_data::{Dataset, DatasetConfig, DriftSchedule, Sample};
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};
    use std::time::Duration;

    fn ladder() -> (Vec<PreparedModel>, Vec<f32>) {
        let mut low = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(60));
        low.set_active_attentions(&[0]);
        let mut high = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(61));
        high.set_active_attentions(&[0, 1]);
        (vec![low.prepare(), high.prepare()], vec![0.5])
    }

    fn config() -> ServeConfig {
        ServeConfig {
            parallelism: Parallelism::Off,
            ..ServeConfig::default()
        }
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], n / 2, seed)
    }

    #[test]
    fn replay_is_deterministic_and_balances_the_ledger() {
        let run = || {
            let (levels, ths) = ladder();
            let mut eng = ReplayEngine::new(levels, ths, config(), ChaosConfig::default());
            let set = samples(16, 62);
            let mut out = Vec::new();
            for chunk in set.chunks(4) {
                let images: Vec<Matrix> = chunk.iter().map(|s| s.image.clone()).collect();
                out.extend(eng.process(&images, Duration::from_secs(1)));
                eng.clock().advance(Duration::from_millis(1));
            }
            (out, eng.health())
        };
        let (a, ha) = run();
        let (b, hb) = run();
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(ha, hb);
        assert!(ha.accounted(), "ledger balances: {ha}");
        assert_eq!(ha.resolved(), 16);
        assert!(a
            .iter()
            .all(|r| matches!(r.outcome, ServeOutcome::Completed(_))));
    }

    #[test]
    #[should_panic(expected = "efforts must share the class space, got class counts [4, 7]")]
    fn levels_of_different_class_counts_are_rejected() {
        let (mut levels, ths) = ladder();
        let cfg = VitConfig {
            num_classes: 7,
            ..VitConfig::test_small()
        };
        levels[1] = VisionTransformer::new(&cfg, &mut Rng::new(66)).prepare();
        let _ = ReplayEngine::new(levels, ths, config(), ChaosConfig::default());
    }

    #[test]
    fn the_ledger_counts_the_sums_of_the_per_batch_reports() {
        use pivot_core::{evaluate_guarded_slice, DegradationReport, FaultInjector, FaultKind};
        // A few stuck-at-max low-effort weights poison some samples' level-0
        // entropies (fault escalations); a stuck-NaN high effort makes every
        // escalated sample fall back to its low prediction (fallbacks).
        let mut low = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(0));
        low.set_active_attentions(&[0]);
        FaultInjector::new(0).inject_params(&mut low, FaultKind::StuckMax, 8);
        let mut high = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(61));
        high.set_active_attentions(&[0, 1]);
        FaultInjector::new(1).inject_params(&mut high, FaultKind::StuckNan, 10_000);
        let (levels, ths) = (vec![low.prepare(), high.prepare()], vec![0.5]);

        let set = samples(24, 3);
        let mut eng = ReplayEngine::new(
            levels.clone(),
            ths.clone(),
            config(),
            ChaosConfig::default(),
        );
        let mut all = DegradationReport::default();
        let (mut fallbacks, mut escalations) = (0, 0);
        for chunk in set.chunks(5) {
            let images: Vec<Matrix> = chunk.iter().map(|s| s.image.clone()).collect();
            eng.process(&images, Duration::from_secs(1));
            let refs: Vec<&Matrix> = images.iter().collect();
            let (_, report) = evaluate_guarded_slice(&levels, &ths, 1, &refs, Parallelism::Off);
            fallbacks += report.fallbacks() as u64;
            escalations += report.escalations() as u64;
            all.events.extend(report.events);
        }
        let h = eng.health();
        assert!(fallbacks > 0 && escalations > 0, "{all}");
        assert_eq!((h.fallbacks, h.fault_escalations), (fallbacks, escalations));
        // The ledger line words the counts as the reports do.
        assert!(h.to_string().ends_with(&all.to_string()), "{h}");
    }

    #[test]
    fn expired_deadlines_resolve_as_timeouts() {
        let (levels, ths) = ladder();
        let mut eng = ReplayEngine::new(levels, ths, config(), ChaosConfig::default());
        let set = samples(4, 63);
        let images: Vec<Matrix> = set.iter().map(|s| s.image.clone()).collect();
        let responses = eng.process(&images, Duration::ZERO);
        assert!(responses
            .iter()
            .all(|r| matches!(r.outcome, ServeOutcome::TimedOut { .. })));
        let h = eng.health();
        assert_eq!(h.timed_out, 4);
        assert!(h.accounted());
    }

    /// Chaos through the replay engine: the panicked batch comes back
    /// failed, in input order, and the ledger counts the panic, every
    /// stall and every request.
    #[test]
    fn chaos_batches_come_back_failed_in_input_order() {
        use crate::request::ServeError;
        use pivot_core::FaultInjector;
        let (levels, ths) = ladder();
        // permille 1000: every executed batch stalls 2 ms.
        let stall = FaultInjector::new(7).stall_schedule(
            1000,
            Duration::from_millis(2),
            Duration::from_millis(2),
        );
        let chaos = ChaosConfig {
            stall: Some(stall),
            panic_batches: vec![1],
        };
        let mut eng = ReplayEngine::new(levels, ths, config(), chaos);
        let images: Vec<Matrix> = samples(12, 67).into_iter().map(|s| s.image).collect();
        let batches: Vec<Vec<ServeResponse>> = images
            .chunks(4)
            .map(|chunk| eng.process(chunk, Duration::from_secs(1)))
            .collect();
        for (b, responses) in batches.iter().enumerate() {
            let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
            let first = 4 * b as u64;
            assert_eq!(ids, (first..first + 4).collect::<Vec<_>>());
            for r in responses {
                if b == 1 {
                    let failed = ServeOutcome::Failed(ServeError::BatchPanicked { batch: 1 });
                    assert_eq!(r.outcome, failed);
                } else {
                    assert!(matches!(r.outcome, ServeOutcome::Completed(_)));
                }
            }
        }
        let h = eng.health();
        assert_eq!((h.batches, h.panics, h.stalls), (3, 1, 3));
        assert_eq!((h.failed, h.completed), (4, 8));
        assert!(h.accounted(), "{h}");
    }

    /// The energy oracle: the engine charges exactly its served answers,
    /// each at its exit level, in response order. The trace stalls every
    /// executed batch, panics one, sheds one that expired in the queue,
    /// runs one past its deadline and downshifts under queue pressure, so
    /// capped answers come back degraded at level 0.
    #[test]
    fn the_engine_charges_every_served_response_and_nothing_else() {
        use crate::request::ServeOutcome;
        use pivot_core::{AcceleratorConfig, FaultInjector, LadderEnergy, Simulator, VitGeometry};

        let geom = VitGeometry::deit_s();
        let low: Vec<bool> = (0..geom.depth).map(|i| i < geom.depth / 4).collect();
        let costs = LadderEnergy::from_masks(
            &Simulator::new(AcceleratorConfig::zcu102()),
            &geom,
            &[low, vec![true; geom.depth]],
        );
        let images: Vec<Matrix> = samples(32, 68).into_iter().map(|s| s.image).collect();
        let trace = |costs: Option<LadderEnergy>| {
            let config = ServeConfig {
                costs,
                overload: crate::OverloadPolicy {
                    queue_budget: Duration::from_millis(10),
                    recover_ratio: 0.5,
                    recover_after: 2,
                },
                ..config()
            };
            // permille 1000: every executed batch stalls 2 ms.
            let stall = FaultInjector::new(9).stall_schedule(
                1000,
                Duration::from_millis(2),
                Duration::from_millis(2),
            );
            let chaos = ChaosConfig {
                stall: Some(stall),
                panic_batches: vec![1],
            };
            let (levels, ths) = ladder();
            let mut eng = ReplayEngine::new(levels, ths, config, chaos);
            let long = Duration::from_secs(1);
            let mut out = eng.process(&images[..4], long);
            out.extend(eng.process(&images[4..8], long)); // panics
            out.extend(eng.process(&images[8..12], Duration::ZERO)); // shed in the queue
            out.extend(eng.process(&images[12..16], Duration::from_millis(1))); // ran, too late
            eng.clock().advance(Duration::from_millis(100));
            out.extend(eng.process_aged(&images[16..24], Duration::from_millis(20), long));
            out.extend(eng.process(&images[24..32], long)); // still capped
            out.extend(eng.process(&images[..8], long)); // recovered
            (out, eng.health())
        };

        let (responses, h) = trace(Some(costs.clone()));
        let levels: Vec<usize> = responses
            .iter()
            .filter_map(|r| r.outcome.served().map(|s| s.level))
            .collect();
        let capped = responses
            .iter()
            .filter(|r| matches!(r.outcome, ServeOutcome::Degraded(s) if s.effort_cap == 0))
            .count();
        assert!(capped > 0 && h.downshifts == 1 && h.upshifts == 1, "{h}");
        assert_eq!((h.panics, h.stalls, h.failed, h.timed_out), (1, 6, 4, 8));
        let n = levels.len();
        let ledger = h.energy.as_ref().expect("a priced engine keeps a ledger");
        let at = |level| levels.iter().filter(|&&l| l == level).count() as u64;
        assert_eq!(ledger.exits(), [at(0), at(1)]);
        assert!(at(1) > 0, "some requests escalated: {h}");
        assert_eq!(ledger.requests(), h.completed + h.degraded);
        assert_eq!(ledger.requests(), n as u64);
        // The per-response sums, in response order.
        let mean = |cost: fn(&LadderEnergy, usize) -> f64| {
            levels.iter().fold(0.0, |sum, &l| sum + cost(&costs, l)) / n as f64
        };
        let energy = mean(LadderEnergy::request_energy_j);
        let delay = mean(LadderEnergy::request_delay_ms);
        assert_eq!(ledger.mean_energy_j().to_bits(), energy.to_bits());
        assert_eq!(ledger.mean_delay_ms().to_bits(), delay.to_bits());

        // Pricing changes nothing else, and an unpriced engine keeps no ledger.
        let (unpriced, u) = trace(None);
        assert_eq!(unpriced, responses);
        assert_eq!(u.energy, None);
        assert_eq!(HealthStats { energy: None, ..h }, u);
    }

    fn tuned_config(lec: f64, window: usize, min_fill: usize) -> ServeConfig {
        ServeConfig {
            overload: crate::OverloadPolicy {
                queue_budget: Duration::from_millis(10),
                recover_ratio: 0.5,
                recover_after: 2,
            },
            threshold: Some(ThresholdPolicy {
                lec,
                window,
                tick_batches: 1,
                min_fill,
                step: 0.01,
                floor: 0.0,
                ceil: 1.0,
            }),
            ..config()
        }
    }

    /// The precedence contract, end to end on one engine: while the
    /// overload cap is engaged, the tuner ingests entropies but holds
    /// every due retune (Th frozen, holds counted, cap moving); once calm
    /// observations restore full effort, retuning resumes and applies the
    /// accumulated windowed evidence.
    #[test]
    fn overload_cap_outranks_threshold_retuning() {
        let (levels, ths) = ladder();
        let initial_th = ths[0];
        let mut eng = ReplayEngine::new(
            levels,
            ths,
            tuned_config(0.5, 64, 1),
            ChaosConfig::default(),
        );
        let set = samples(64, 64);
        let images: Vec<Matrix> = set.iter().map(|s| s.image.clone()).collect();
        let deadline = Duration::from_secs(5);

        // Batch 1, fresh (age 0 < calm line): the tuner retunes.
        eng.process(&images[..8], deadline);
        let h = eng.health();
        assert_eq!(h.effort_cap, 1, "calm batch keeps full effort");
        assert_eq!((h.retunes, h.th_holds), (1, 0));
        let tuned_th = h.threshold;
        assert_ne!(tuned_th, initial_th, "observed traffic moved the gate");

        // Batches 2-4 arrive aged past the queue budget: the cap
        // downshifts (and floors), and every due retune is HELD — the
        // threshold does not move while the cap is shedding effort.
        // (Advance the clock first so backdated admission has room.)
        eng.clock().advance(Duration::from_millis(100));
        for chunk in images[8..32].chunks(8) {
            eng.process_aged(chunk, Duration::from_millis(20), deadline);
        }
        let h = eng.health();
        assert_eq!(h.effort_cap, 0, "over-budget observations floored the cap");
        assert!(h.downshifts >= 1);
        assert_eq!(h.retunes, 1, "no retune applied under overload");
        assert_eq!(h.th_holds, 3, "each due tick was held, not dropped");
        assert_eq!(h.threshold, tuned_th, "Th frozen while the cap moves");

        // Pressure lifts: one calm batch is observed while still degraded
        // (cap recovering) — still held. recover_after = 2, so the second
        // calm batch restores the cap *before* end_batch runs, and the
        // tuner resumes retuning on that very batch.
        eng.process(&images[32..40], deadline);
        let h = eng.health();
        assert_eq!(h.effort_cap, 0, "one calm batch is not enough (hysteresis)");
        assert_eq!(h.th_holds, 4);
        eng.process(&images[40..48], deadline);
        let h = eng.health();
        assert_eq!(h.effort_cap, 1, "second calm batch recovered the cap");
        assert_eq!(h.retunes, 2, "retuning resumed at full effort");
        assert!(
            h.accounted(),
            "ledger balances through the whole episode: {h}"
        );
    }

    /// Under a stationary mix the adaptive controller converges to within
    /// one sweep-step of Phase 2's static threshold. With the window
    /// sized to the whole stream the final retune sees exactly the
    /// samples the offline search calibrates on, so the grid walks agree
    /// bitwise — the strongest form of the convergence claim.
    #[test]
    fn stationary_mix_converges_to_phase2_static_threshold() {
        use pivot_core::{CascadeCache, Parallelism};

        let (levels, ths) = ladder();
        let lec = 0.5;
        let step = 0.01f32;
        let n = 128;
        let cfg = DatasetConfig::small();
        let stream =
            Dataset::generate_drift(&cfg, &DriftSchedule::Stationary { difficulty: 0.5 }, n, 65);

        // Phase 2's offline answer on the same mix.
        let cache = CascadeCache::build_prepared(&levels[0], &stream, Parallelism::Off);
        let static_th = cache.threshold_reaching(lec, step);

        // Online: window = min_fill = n, so exactly one retune fires, on
        // the full stream.
        let mut eng =
            ReplayEngine::new(levels, ths, tuned_config(lec, n, n), ChaosConfig::default());
        for chunk in stream.chunks(16) {
            let images: Vec<Matrix> = chunk.iter().map(|s| s.image.clone()).collect();
            eng.process(&images, Duration::from_secs(5));
        }
        let h = eng.health();
        assert_eq!(h.retunes, 1, "window filled exactly once");
        assert!(
            (h.threshold - static_th).abs() <= step + 1e-6,
            "adaptive Th {} vs static Th {static_th}: more than one sweep-step apart",
            h.threshold
        );
        assert_eq!(
            h.threshold.to_bits(),
            static_th.to_bits(),
            "same samples, same grid: the walks agree bitwise"
        );
    }
}
