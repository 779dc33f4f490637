//! One rule per ladder: every entry that takes effort levels and a gate
//! threshold accepts and rejects the same ones, because all of them call
//! `check_threshold` and `check_ladder`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pivot::core::{evaluate_guarded_slice, CascadeCache, EffortLadder, Parallelism};
use pivot::data::{Dataset, DatasetConfig, Sample};
use pivot::serve::{ChaosConfig, ReplayEngine, ServeConfig, Server, ThresholdPolicy};
use pivot::sim::{AcceleratorConfig, LadderEnergy, Simulator, VitGeometry};
use pivot::tensor::{Matrix, Rng};
use pivot::vit::{PreparedModel, VisionTransformer, VitConfig};

/// Efforts 1, 2 and 4 over one untrained backbone, then a level over the
/// same backbone shape with 7 classes in place of 4.
fn models() -> (Vec<VisionTransformer>, VisionTransformer) {
    let base = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(3));
    let ladder = [1usize, 2, 4]
        .into_iter()
        .map(|effort| {
            let mut model = base.clone();
            model.set_active_attentions(&(0..effort).collect::<Vec<_>>());
            model
        })
        .collect();
    let cfg = VitConfig {
        num_classes: 7,
        ..VitConfig::test_small()
    };
    (ladder, VisionTransformer::new(&cfg, &mut Rng::new(4)))
}

fn samples() -> Vec<Sample> {
    Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], 2, 5)
}

fn serve_config(adaptive: bool) -> ServeConfig {
    ServeConfig {
        parallelism: Parallelism::Off,
        threshold: adaptive.then(ThresholdPolicy::default),
        ..ServeConfig::default()
    }
}

/// Whether `f` returns without panicking. The test harness captures the
/// messages of the rejected cases, which panic by design.
fn accepts(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

/// The verdict of every entry point that takes a whole ladder, in the
/// order `[EffortLadder::new, set_thresholds, evaluate_guarded_slice,
/// Server::spawn, ReplayEngine::new]`. `set_thresholds` runs on a ladder
/// of the same levels built with valid gates.
fn ladder_verdicts(levels: &[VisionTransformer], thresholds: &[f32]) -> [bool; 5] {
    let prepared = || -> Vec<PreparedModel> { levels.iter().map(|m| m.prepare()).collect() };
    let images: Vec<&Matrix> = Vec::new();
    let gates = levels.len().saturating_sub(1);
    [
        accepts(|| {
            EffortLadder::new(levels.to_vec(), thresholds.to_vec());
        }),
        accepts(|| {
            let mut ladder = EffortLadder::new(levels.to_vec(), vec![0.5; gates]);
            ladder.set_thresholds(thresholds.to_vec());
        }),
        accepts(|| {
            evaluate_guarded_slice(&prepared(), thresholds, 0, &images, Parallelism::Off);
        }),
        accepts(|| {
            Server::spawn(prepared(), thresholds.to_vec(), serve_config(false));
        }),
        accepts(|| {
            ReplayEngine::new(
                prepared(),
                thresholds.to_vec(),
                serve_config(false),
                ChaosConfig::default(),
            );
        }),
    ]
}

#[test]
fn every_entry_point_accepts_and_rejects_the_same_thresholds() {
    let (ladder, _) = models();
    let pair = &ladder[..2];
    let set = samples();
    let prepared_pair = || -> Vec<PreparedModel> { pair.iter().map(|m| m.prepare()).collect() };
    let high = ladder[1].prepare();
    let cache = CascadeCache::build_prepared(&ladder[0].prepare(), &set, Parallelism::Off);
    let above_one = f32::from_bits(1.0f32.to_bits() + 1);
    // (threshold, accepted)
    let cases = [
        (f32::NAN, false),
        (-1.0, false),
        (-0.0, true),
        (0.0, true),
        (f32::from_bits(1), true),
        (1.0, true),
        (above_one, false),
        (f32::INFINITY, false),
    ];

    let verdicts: Vec<Vec<bool>> = cases
        .iter()
        .map(|&(th, _)| {
            let mut verdict = ladder_verdicts(pair, &[th]).to_vec();
            verdict.extend([
                accepts(|| {
                    ReplayEngine::new(
                        prepared_pair(),
                        vec![th],
                        serve_config(true),
                        ChaosConfig::default(),
                    );
                }),
                accepts(|| {
                    ThresholdPolicy {
                        floor: th,
                        ..ThresholdPolicy::default()
                    }
                    .validate();
                }),
                accepts(|| {
                    ThresholdPolicy {
                        floor: 0.0,
                        ceil: th,
                        ..ThresholdPolicy::default()
                    }
                    .validate();
                }),
                accepts(|| {
                    cache.f_low_at(th);
                }),
                accepts(|| {
                    cache.escalated(th);
                }),
                accepts(|| {
                    cache.evaluate(&high, &set, th, Parallelism::Off);
                }),
            ]);
            verdict
        })
        .collect();

    for (&(th, accepted), verdict) in cases.iter().zip(verdicts) {
        assert_eq!(
            verdict, [accepted; 11],
            "Th {th:e}: [ladder new, set_thresholds, slice, spawn, replay, adaptive replay, \
             floor, ceil, f_low_at, escalated, cache evaluate]"
        );
    }
}

#[test]
fn every_entry_point_accepts_and_rejects_the_same_ladders() {
    let (ladder, seven_classes) = models();
    let (low, mid, high) = (&ladder[0], &ladder[1], &ladder[2]);
    // (what, levels, thresholds, accepted)
    let cases: [(&str, Vec<VisionTransformer>, Vec<f32>, bool); 8] = [
        (
            "two levels",
            vec![low.clone(), high.clone()],
            vec![0.5],
            true,
        ),
        ("three levels", ladder.clone(), vec![0.4, 0.7], true),
        ("equal gates", ladder.clone(), vec![0.5, 0.5], true),
        ("one level", vec![low.clone()], vec![], false),
        (
            "mixed class counts",
            vec![low.clone(), seven_classes],
            vec![0.5],
            false,
        ),
        ("too few gates", ladder.clone(), vec![0.5], false),
        (
            "too many gates",
            vec![low.clone(), mid.clone()],
            vec![0.4, 0.7],
            false,
        ),
        ("decreasing gates", ladder.clone(), vec![0.7, 0.4], false),
    ];

    let verdicts: Vec<[bool; 5]> = cases
        .iter()
        .map(|(_, levels, thresholds, _)| ladder_verdicts(levels, thresholds))
        .collect();

    for ((what, _, thresholds, accepted), verdict) in cases.iter().zip(verdicts) {
        assert_eq!(
            verdict, [*accepted; 5],
            "{what}, gates {thresholds:?}: [ladder new, set_thresholds, slice, spawn, replay]"
        );
    }
}

#[test]
fn adaptive_control_is_served_over_two_levels_only() {
    // The tuner moves gate 0 alone: over three levels it could cross
    // gate 1 mid-run, so both serving constructors reject that ladder.
    let (ladder, _) = models();
    let prepared = |n: usize| ladder[..n].iter().map(|m| m.prepare()).collect();
    // (levels, thresholds, adaptive, accepted)
    let cases = [
        (2, vec![0.5], true, true),
        (3, vec![0.4, 0.7], false, true),
        (3, vec![0.4, 0.7], true, false),
    ];

    let verdicts: Vec<[bool; 2]> = cases
        .iter()
        .map(|(n, thresholds, adaptive, _)| {
            [
                accepts(|| {
                    Server::spawn(prepared(*n), thresholds.clone(), serve_config(*adaptive));
                }),
                accepts(|| {
                    ReplayEngine::new(
                        prepared(*n),
                        thresholds.clone(),
                        serve_config(*adaptive),
                        ChaosConfig::default(),
                    );
                }),
            ]
        })
        .collect();

    for ((n, _, adaptive, accepted), verdict) in cases.iter().zip(verdicts) {
        assert_eq!(
            verdict, [*accepted; 2],
            "{n} levels, adaptive {adaptive}: [spawn, replay]"
        );
    }
}

#[test]
fn a_cost_table_must_price_every_ladder_level() {
    // The engine charges outside its panic firewall, so both serving
    // constructors reject a table that could not price some exit level.
    let (ladder, _) = models();
    let prepared = || ladder[..2].iter().map(|m| m.prepare()).collect();
    let geom = VitGeometry::deit_s();
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let table = |levels: usize| {
        let masks: Vec<Vec<bool>> = (1..=levels)
            .map(|l| {
                (0..geom.depth)
                    .map(|i| i < geom.depth * l / levels)
                    .collect()
            })
            .collect();
        LadderEnergy::from_masks(&sim, &geom, &masks)
    };
    // (cost levels, accepted)
    let cases = [(1, false), (2, true), (3, false)];

    let verdicts: Vec<[bool; 2]> = cases
        .iter()
        .map(|&(levels, _)| {
            let config = || ServeConfig {
                costs: Some(table(levels)),
                ..serve_config(false)
            };
            [
                accepts(|| {
                    Server::spawn(prepared(), vec![0.5], config());
                }),
                accepts(|| {
                    ReplayEngine::new(prepared(), vec![0.5], config(), ChaosConfig::default());
                }),
            ]
        })
        .collect();

    for ((levels, accepted), verdict) in cases.iter().zip(verdicts) {
        assert_eq!(
            verdict, [*accepted; 2],
            "{levels}-level cost table over 2 levels: [spawn, replay]"
        );
    }
}
