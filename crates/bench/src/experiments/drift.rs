//! Serving under difficulty drift: static vs adaptive gate thresholds.
//!
//! Phase 2 picks the entropy threshold `Th` offline, on a calibration set
//! whose difficulty mix is assumed stationary. Production traffic drifts:
//! when inputs harden, low-effort entropies rise, fewer requests stay
//! below the frozen `Th`, and the realized `F_L` collapses under the LEC
//! the operating point was chosen for — every lost low exit is a full
//! high-effort re-run, so energy-per-request climbs exactly when the
//! fleet is busiest. This experiment measures that failure and the
//! adaptive threshold controller's fix ([`ThresholdPolicy`]) on
//! deterministic drift schedules from `pivot-data`:
//!
//! * **static** — `Th` calibrated once on the stream's first
//!   [`CALIBRATION`] requests (exactly Phase 2's
//!   `CascadeCache::threshold_reaching`), then frozen.
//! * **adaptive** — same starting point, but a sliding window of observed
//!   low-effort entropies retunes `Th` after every batch to hold
//!   `F_L >= LEC` (DESIGN.md §7).
//!
//! Both policies replay the *same* request stream through a
//! [`ReplayEngine`] on a manual clock, so each trajectory is a pure
//! function of (ladder, schedule, seed). Hardware cost comes from the
//! cycle-accurate simulator: the tiny functional ladder (1 of 4
//! attention layers active vs all 4) maps onto DeiT-S as a 3-of-12 vs
//! 12-of-12 attention mask on the ZCU102 config, so a level-1 exit is
//! charged the paper's re-computation overhead `E_L + E_H`
//! ([`LadderEnergy`]) by the engine itself, into its [`HealthStats`].
//! The headline `ramp` scenario hardens 0.05 → 0.95; the acceptance bar:
//! adaptive back-half `F_L` within ±5% of the LEC while static degrades
//! ≥ 15%, at equal or better energy-per-request.

use crate::Table;
use pivot_core::{CascadeCache, Parallelism};
use pivot_data::{Dataset, DatasetConfig, DriftSchedule, Sample};
use pivot_serve::{ChaosConfig, HealthStats, ReplayEngine, ServeConfig, ThresholdPolicy};
use pivot_sim::{AcceleratorConfig, EnergyLedger, LadderEnergy, Simulator, VitGeometry};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{PreparedModel, TrainConfig, Trainer, VisionTransformer, VitConfig};
use std::time::Duration;

/// The low-exit constraint every scenario targets.
pub const LEC: f64 = 0.5;
/// Threshold sweep granularity (shared by calibration and the online
/// controller, so a stationary mix converges bitwise).
pub const STEP: f32 = 0.01;
/// Requests per replay batch (one control tick per batch).
pub const BATCH: usize = 16;
/// Sliding-window size of the online controller.
pub const WINDOW: usize = 256;
/// Leading requests used to calibrate the static threshold.
pub const CALIBRATION: usize = 128;

/// One threshold policy's measured trajectory over a drift scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPolicyRun {
    /// `static` or `adaptive`.
    pub policy: &'static str,
    /// Level-0 exit fraction over the back half of the stream — the
    /// region the drift has moved away from the calibration mix.
    pub back_f_low: f64,
    /// The engine's ledger at drain: the final threshold, the retunes,
    /// and in `energy` the exits, joules and delay of every request.
    pub health: HealthStats,
}

impl DriftPolicyRun {
    /// The run's energy ledger (every drift engine is priced).
    fn energy(&self) -> &EnergyLedger {
        self.health.energy.as_ref().expect("priced engine")
    }
}

/// Static-vs-adaptive comparison on one drift schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScenario {
    /// Schedule name (`ramp` / `step` / `sinusoid` / `regimes` /
    /// `stationary`).
    pub name: &'static str,
    /// Requests replayed per policy.
    pub requests: usize,
    /// The calibrated (Phase 2-style) threshold both policies start from.
    pub static_th: f32,
    /// The frozen-threshold run.
    pub static_run: DriftPolicyRun,
    /// The controller-driven run.
    pub adaptive_run: DriftPolicyRun,
}

impl DriftScenario {
    /// Relative back-half `F_L` shortfall of a run against the LEC:
    /// `(LEC - back_f_low) / LEC`. Positive means the constraint is
    /// violated; the issue's bar is static ≥ 0.15 while adaptive stays
    /// within ±0.05 on the headline ramp.
    fn back_shortfall(run: &DriftPolicyRun) -> f64 {
        (LEC - run.back_f_low) / LEC
    }
}

/// Full report: one scenario per drift schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftBench {
    /// The shared low-exit constraint.
    pub lec: f64,
    /// Scenarios in run order (`ramp` first — the headline).
    pub scenarios: Vec<DriftScenario>,
}

impl DriftBench {
    /// Looks up a scenario by name.
    pub fn scenario(&self, name: &str) -> &DriftScenario {
        self.scenarios
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scenario named {name}"))
    }
}

/// Trains the two-level ladder whose low-effort entropy actually tracks
/// input difficulty (untrained weights gate on noise): 1-of-4 attentions
/// vs all 4, distilled from nothing — plain supervised training on the
/// full-difficulty-range stripe set.
fn trained_ladder(dcfg: &DatasetConfig) -> Vec<PreparedModel> {
    let data = Dataset::generate(dcfg, 42);
    let train = |weights_seed: u64, active: &[usize], train_seed: u64| {
        let mut model =
            VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(weights_seed));
        model.set_active_attentions(active);
        Trainer::new(TrainConfig {
            epochs: 24,
            batch_size: 16,
            lr: 2e-3,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: train_seed,
        })
        .train(&mut model, None, &data);
        model.prepare()
    };
    vec![train(7, &[0], 3), train(8, &[0, 1, 2, 3], 4)]
}

/// The simulated hardware cost table the functional ladder maps onto:
/// DeiT-S on the ZCU102, low effort = 3 of 12 attention layers (the same
/// 1-in-4 ratio as the functional models), high effort = all 12.
fn energy_ladder() -> LadderEnergy {
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geom = VitGeometry::deit_s();
    let low: Vec<bool> = (0..geom.depth).map(|i| i < geom.depth / 4).collect();
    let high = vec![true; geom.depth];
    LadderEnergy::from_masks(&sim, &geom, &[low, high])
}

/// Replays `stream` through one policy: `levels` gated at `static_th` on
/// an engine built from `config`, which prices the ladder and carries the
/// adaptive threshold policy, if any.
fn run_policy(
    policy: &'static str,
    levels: &[PreparedModel],
    static_th: f32,
    config: ServeConfig,
    stream: &[Sample],
) -> DriftPolicyRun {
    let levels = levels.to_vec();
    let mut eng = ReplayEngine::new(levels, vec![static_th], config, ChaosConfig::default());
    let mut feed = |part: &[Sample]| {
        for chunk in part.chunks(BATCH) {
            let images: Vec<&Matrix> = chunk.iter().map(|s| &s.image).collect();
            eng.process(&images, Duration::from_secs(60));
            eng.clock().advance(Duration::from_millis(1));
        }
        let ledger = eng.health().energy.expect("priced engine");
        (ledger.exits()[0], ledger.requests())
    };
    // The back half starts on a batch boundary, so two snapshots split it off.
    let (front, back) = stream.split_at(stream.len() / 2);
    assert_eq!(front.len() % BATCH, 0, "the back half must start a batch");
    let (front_low, front_total) = feed(front);
    let (low, total) = feed(back);
    DriftPolicyRun {
        policy,
        back_f_low: (low - front_low) as f64 / (total - front_total).max(1) as f64,
        health: eng.health(),
    }
}

/// Runs one schedule: generate the stream, calibrate the static threshold
/// on its head, then replay both policies over identical requests.
fn run_scenario(
    name: &'static str,
    dcfg: &DatasetConfig,
    levels: &[PreparedModel],
    costs: &LadderEnergy,
    schedule: &DriftSchedule,
    n: usize,
    seed: u64,
) -> DriftScenario {
    let stream = Dataset::generate_drift(dcfg, schedule, n, seed);
    let calib = CALIBRATION.min(n);
    let cache = CascadeCache::build_prepared(&levels[0], &stream[..calib], Parallelism::Off);
    let static_th = cache.threshold_reaching(LEC, STEP);

    let policy = ThresholdPolicy {
        lec: LEC,
        window: WINDOW,
        tick_batches: 1,
        min_fill: BATCH,
        step: STEP,
        floor: 0.0,
        ceil: 1.0,
    };
    let config = |threshold| ServeConfig {
        parallelism: Parallelism::Off,
        threshold,
        costs: Some(costs.clone()),
        ..ServeConfig::default()
    };
    DriftScenario {
        name,
        requests: n,
        static_th,
        static_run: run_policy("static", levels, static_th, config(None), &stream),
        adaptive_run: run_policy("adaptive", levels, static_th, config(Some(policy)), &stream),
    }
}

/// Runs the drift benchmark: trains the ladder once, then replays every
/// drift schedule under both threshold policies and prints the
/// comparison.
pub fn drift_bench() -> DriftBench {
    println!("\n=== Serving under difficulty drift (static vs adaptive Th) ===");
    let dcfg = DatasetConfig {
        classes: 4,
        image_size: 16,
        train_per_class: 50,
        test_per_class: 10,
        difficulty: (0.0, 1.0),
    };
    let levels = trained_ladder(&dcfg);
    let costs = energy_ladder();
    println!(
        "ladder (DeiT-S on ZCU102): low {:.4} J / {:.2} ms, escalation {:.4} J / {:.2} ms per request",
        costs.request_energy_j(0),
        costs.request_delay_ms(0),
        costs.request_energy_j(1),
        costs.request_delay_ms(1),
    );

    let schedules = [
        (
            "ramp",
            DriftSchedule::Ramp {
                from: 0.05,
                to: 0.95,
                start: 0.0,
                end: 1.0,
            },
            70,
        ),
        (
            "stationary",
            DriftSchedule::Stationary { difficulty: 0.5 },
            74,
        ),
        (
            "step",
            DriftSchedule::Step {
                before: 0.2,
                after: 0.8,
                at: 0.5,
            },
            71,
        ),
        (
            "sinusoid",
            DriftSchedule::Sinusoid {
                base: 0.5,
                amplitude: 0.4,
                periods: 2.0,
            },
            72,
        ),
        (
            "regimes",
            DriftSchedule::RegimeSwitch {
                difficulties: vec![0.1, 0.8, 0.3, 0.9],
                dwell: 0.25,
            },
            73,
        ),
    ];
    let scenarios = schedules
        .into_iter()
        .map(|(name, schedule, seed)| {
            run_scenario(name, &dcfg, &levels, &costs, &schedule, 1280, seed)
        })
        .collect();
    let report = DriftBench {
        lec: LEC,
        scenarios,
    };

    let mut table = Table::new(&[
        "Schedule",
        "Policy",
        "Th (final)",
        "F_L",
        "F_L (back half)",
        "E/req (J)",
        "Delay (ms)",
        "Retunes",
        "Ledger",
    ]);
    for s in &report.scenarios {
        for r in [&s.static_run, &s.adaptive_run] {
            let (h, e) = (&r.health, r.energy());
            table.row_owned(vec![
                s.name.to_string(),
                r.policy.to_string(),
                format!("{:.3}", h.threshold),
                format!("{:.3}", e.f_low()),
                format!("{:.3}", r.back_f_low),
                format!("{:.4}", e.mean_energy_j()),
                format!("{:.2}", e.mean_delay_ms()),
                format!("{}", h.retunes),
                if h.accounted() { "balanced" } else { "LEAKED" }.to_string(),
            ]);
        }
    }
    println!("{table}");
    let ramp = report.scenario("ramp");
    println!(
        "ramp (hardening 0.05->0.95, LEC {:.2}): static Th {:.3} collapses to back-half F_L {:.3} \
         ({:.0}% under target); adaptive holds {:.3} at {:.4} J/req vs {:.4} J/req static",
        LEC,
        ramp.static_th,
        ramp.static_run.back_f_low,
        DriftScenario::back_shortfall(&ramp.static_run) * 100.0,
        ramp.adaptive_run.back_f_low,
        ramp.adaptive_run.energy().mean_energy_j(),
        ramp.static_run.energy().mean_energy_j(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The issue's acceptance bar, end to end and deterministic: under
    /// the hardening ramp the adaptive controller holds the back-half
    /// `F_L` within ±5% of the LEC while the frozen threshold degrades
    /// at least 15%, at equal-or-better energy per request — and the
    /// stationary control shows the adaptive policy changes nothing when
    /// there is no drift to chase. Runs the full-size streams: the whole
    /// replay is a ServeClock-scripted pure function, so the numbers
    /// asserted here are the numbers `experiment drift` prints.
    #[test]
    fn drift_bench_meets_the_acceptance_bar() {
        let report = drift_bench();
        for s in &report.scenarios {
            for run in [&s.static_run, &s.adaptive_run] {
                assert!(
                    run.health.accounted(),
                    "{} {}: ledger leaked",
                    s.name,
                    run.policy
                );
                assert_eq!(
                    run.energy().requests(),
                    s.requests as u64,
                    "{} {}: the healthy unloaded replay serves every request",
                    s.name,
                    run.policy
                );
            }
            assert_eq!(
                s.static_run.health.retunes, 0,
                "static policy never retunes"
            );
            assert_eq!(
                s.static_run.health.threshold, s.static_th,
                "static Th must stay frozen"
            );
        }

        let ramp = report.scenario("ramp");
        assert!(
            DriftScenario::back_shortfall(&ramp.static_run) >= 0.15,
            "static Th must visibly collapse under hardening drift, got back F_L {:.3}",
            ramp.static_run.back_f_low
        );
        assert!(
            DriftScenario::back_shortfall(&ramp.adaptive_run).abs() <= 0.05,
            "adaptive back F_L {:.3} outside +/-5% of LEC {LEC}",
            ramp.adaptive_run.back_f_low
        );
        assert!(
            ramp.adaptive_run.health.retunes > 0,
            "the controller must actually retune under drift"
        );
        assert!(
            ramp.adaptive_run.health.threshold > ramp.static_th,
            "hardening inputs must push the gate up"
        );
        assert!(
            ramp.adaptive_run.energy().mean_energy_j() <= ramp.static_run.energy().mean_energy_j(),
            "holding F_L must not cost energy: {} vs {}",
            ramp.adaptive_run.health,
            ramp.static_run.health
        );

        // No drift, nothing to chase: the adaptive policy stays near the
        // calibrated point and matches the static baseline's F_L.
        let flat = report.scenario("stationary");
        assert!(
            (flat.adaptive_run.health.threshold - flat.static_th).abs() <= 4.0 * STEP + 1e-6,
            "stationary adaptive Th {:.3} wandered from calibrated {:.3}",
            flat.adaptive_run.health.threshold,
            flat.static_th
        );
        assert!(
            (flat.adaptive_run.back_f_low - flat.static_run.back_f_low).abs() <= 0.1,
            "stationary policies must agree: adaptive {:.3} vs static {:.3}",
            flat.adaptive_run.back_f_low,
            flat.static_run.back_f_low
        );
    }
}
