//! One rule for the threshold grid walk's inputs: the walk itself, the
//! Phase-2 search and the serving threshold controller (reached through
//! the replay engine, which builds it) accept and reject the same `lec`
//! and `step` values, because all three call `check_grid_walk`.

use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};

use pivot::core::{
    threshold_grid_walk, EffortModel, Parallelism, PathConfig, Phase2Config, Phase2Search,
};
use pivot::data::{Dataset, DatasetConfig};
use pivot::serve::{ChaosConfig, ReplayEngine, ServeConfig, ThresholdPolicy};
use pivot::sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot::tensor::Rng;
use pivot::vit::{VisionTransformer, VitConfig};

/// Two deep-skip efforts over one untrained depth-12 backbone.
fn efforts() -> Vec<EffortModel> {
    let cfg = VitConfig {
        depth: 12,
        ..VitConfig::test_small()
    };
    let base = VisionTransformer::new(&cfg, &mut Rng::new(3));
    [6, 12]
        .into_iter()
        .map(|effort| {
            let path = PathConfig::new(12, &(0..effort).collect::<Vec<_>>());
            let mut model = base.clone();
            model.set_active_attentions(path.active());
            EffortModel {
                effort,
                path,
                score: effort as f32,
                model,
            }
        })
        .collect()
}

/// Whether `f` returns without panicking.
fn accepts(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

#[test]
fn every_entry_point_accepts_and_rejects_the_same_values() {
    let efforts = efforts();
    let calibration =
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.1, 0.9], 8, 4);
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geometry = VitGeometry::deit_s();
    let search = Phase2Search::new(&sim, &geometry, &efforts, &calibration)
        .with_parallelism(Parallelism::Off);
    let ladder: Vec<_> = efforts.iter().map(|e| e.model.prepare()).collect();

    let (lec, step) = (0.7, 0.02);
    let above_one = f64::from_bits(1.0f64.to_bits() + 1);
    let subnormal = f64::from_bits(1);
    // (lec, step, accepted)
    let cases = [
        (f64::NAN, step, false),
        (0.0, step, false),
        (-0.0, step, false),
        (f64::INFINITY, step, false),
        (f64::NEG_INFINITY, step, false),
        (above_one, step, false),
        (subnormal, step, true),
        (1.0, step, true),
        (lec, f32::NAN, false),
        (lec, 0.0, false),
        (lec, -step, false),
        (lec, 1e-8, false),
        (lec, f32::INFINITY, false),
        (lec, 0.25, true),
    ];

    // The rejected cases panic by design; keep their messages out of the
    // test output, and restore the hook before asserting.
    set_hook(Box::new(|_| {}));
    let verdicts: Vec<[bool; 3]> = cases
        .iter()
        .map(|&(lec, step, _)| {
            [
                accepts(|| {
                    threshold_grid_walk(lec, step, |_| 0.0);
                }),
                accepts(|| {
                    search.run(&Phase2Config {
                        lec,
                        threshold_step: step,
                        delay_constraint_ms: 100.0,
                        ..Phase2Config::default()
                    });
                }),
                accepts(|| {
                    ReplayEngine::new(
                        ladder.clone(),
                        vec![0.5],
                        ServeConfig {
                            parallelism: Parallelism::Off,
                            threshold: Some(ThresholdPolicy {
                                lec,
                                step,
                                ..ThresholdPolicy::default()
                            }),
                            ..ServeConfig::default()
                        },
                        ChaosConfig::default(),
                    );
                }),
            ]
        })
        .collect();
    drop(take_hook());

    for (&(lec, step, accepted), verdict) in cases.iter().zip(verdicts) {
        assert_eq!(
            verdict, [accepted; 3],
            "lec {lec:e}, step {step:e}: [walk, Phase 2, controller]"
        );
    }
}
