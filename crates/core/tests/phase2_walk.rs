//! Phase 2's walk against a reference written here.
//!
//! `Phase2Search::run` prices each pair from the low effort's cached `F_L`
//! before any high-effort inference, and builds the caches of low efforts
//! that share blocks in one pass. Neither may change what it returns: the
//! reference below is the plain walk (each cache built on its own, every
//! pair evaluated over the whole calibration batch, priced on the
//! evaluated `stats.f_low()`, first feasible pair wins), and the two must
//! agree bit for bit at constraints just above and just below every
//! pair's delay, and at one no pair meets.

use pivot_core::{
    CascadeCache, EffortModel, Parallelism, PathConfig, Phase2Config, Phase2Result, Phase2Search,
};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_sim::{combine_efforts, AcceleratorConfig, Simulator, VitGeometry};
use pivot_tensor::Rng;
use pivot_vit::{VisionTransformer, VitConfig};

const LEC: f64 = 0.7;
const TOLERANCE: f64 = 0.05;

fn config(delay_constraint_ms: f64) -> Phase2Config {
    Phase2Config {
        lec: LEC,
        delay_constraint_ms,
        delay_tolerance: TOLERANCE,
        threshold_step: 0.02,
    }
}

/// Efforts as deep-skip masks over one random backbone. With `tuned`,
/// each effort's weights are moved by its own factor, as fine-tuning
/// would move them, so no two efforts share a layer.
fn efforts(config: &VitConfig, efforts: &[usize], seed: u64, tuned: bool) -> Vec<EffortModel> {
    let mut backbone = VisionTransformer::new(config, &mut Rng::new(seed));
    // A random head yields near-uniform logits, whose entropies all sit
    // near 1: sharpen it so thresholds spread and samples escalate.
    let head = backbone.params_mut().len() - 2;
    backbone.params_mut()[head].value.map_in_place(|v| v * 40.0);
    efforts
        .iter()
        .map(|&effort| {
            let active: Vec<usize> = (0..effort).collect();
            let mut model = backbone.clone();
            model.set_active_attentions(&active);
            if tuned {
                let factor = 1.0 + 1e-3 * effort as f32;
                for p in model.params_mut() {
                    p.value.map_in_place(|v| v * factor);
                }
            }
            EffortModel {
                effort,
                path: PathConfig::new(config.depth, &active),
                score: 0.0,
                model,
            }
        })
        .collect()
}

/// Every pair, in the order the walk visits them, evaluated the plain
/// way: its own cache, the whole batch, priced on the evaluated `F_L`.
fn reference_pairs(
    sim: &Simulator,
    geometry: &VitGeometry,
    efforts: &[EffortModel],
    calibration: &[Sample],
    par: Parallelism,
) -> Vec<Phase2Result> {
    let cfg = config(0.0);
    let mut pairs = Vec::new();
    for (i, low) in efforts.iter().enumerate() {
        for (j, high) in efforts.iter().enumerate() {
            if low.effort < high.effort {
                pairs.push((i, j));
            }
        }
    }
    pairs.sort_by_key(|&(i, j)| {
        std::cmp::Reverse((efforts[i].effort + efforts[j].effort, efforts[j].effort))
    });
    pairs
        .into_iter()
        .map(|(i, j)| {
            let (low, high) = (&efforts[i], &efforts[j]);
            let cache = CascadeCache::build_prepared(&low.model.prepare(), calibration, par);
            let threshold = cache.threshold_reaching(cfg.lec, cfg.threshold_step);
            let (stats, _) = cache.evaluate(&high.model.prepare(), calibration, threshold, par);
            let perf = combine_efforts(
                &sim.simulate(geometry, &low.path.to_mask()),
                &sim.simulate(geometry, &high.path.to_mask()),
                stats.f_low(),
            );
            Phase2Result {
                low_path: low.path.clone(),
                high_path: high.path.clone(),
                low_effort: low.effort,
                high_effort: high.effort,
                threshold,
                stats,
                perf,
            }
        })
        .collect()
}

fn assert_same(got: &Option<Phase2Result>, want: Option<&Phase2Result>, what: &str) {
    match (got, want) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                (a.low_effort, a.high_effort),
                (b.low_effort, b.high_effort),
                "{what}"
            );
            assert_eq!(a.low_path, b.low_path, "{what}");
            assert_eq!(a.high_path, b.high_path, "{what}");
            assert_eq!(a.threshold.to_bits(), b.threshold.to_bits(), "{what}");
            assert_eq!(a.stats, b.stats, "{what}");
            assert_eq!(
                a.perf.delay_ms.to_bits(),
                b.perf.delay_ms.to_bits(),
                "{what}"
            );
            assert_eq!(
                a.perf.energy_j().to_bits(),
                b.perf.energy_j().to_bits(),
                "{what}"
            );
        }
        _ => panic!(
            "{what}: search found {:?}, the reference {:?}",
            got.as_ref().map(|r| (r.low_effort, r.high_effort)),
            want.map(|r| (r.low_effort, r.high_effort))
        ),
    }
}

/// Runs the search at a constraint just above and just below each pair's
/// delay, and at one no pair meets, and checks each result against the
/// reference walk over the same pairs.
fn check_against_reference(efforts: &[EffortModel], calibration: &[Sample], par: Parallelism) {
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geometry = VitGeometry::deit_s();
    let reference = reference_pairs(&sim, &geometry, efforts, calibration, par);
    let search = Phase2Search::new(&sim, &geometry, efforts, calibration).with_parallelism(par);
    let mut constraints = vec![1e-6];
    for r in &reference {
        let boundary = r.perf.delay_ms / (1.0 + TOLERANCE);
        constraints.extend([boundary * (1.0 + 1e-9), boundary * (1.0 - 1e-9)]);
    }
    for delay_constraint_ms in constraints {
        let cfg = config(delay_constraint_ms);
        let max_delay = cfg.delay_constraint_ms * (1.0 + cfg.delay_tolerance);
        let want = reference.iter().find(|r| r.perf.delay_ms <= max_delay);
        assert_same(
            &search.run(&cfg),
            want,
            &format!("{par:?}, constraint {delay_constraint_ms} ms"),
        );
    }
}

fn stripes(config: &DatasetConfig, per_stripe: usize, seed: u64) -> Vec<Sample> {
    Dataset::generate_difficulty_stripes(
        config,
        &[0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0],
        per_stripe,
        seed,
    )
}

#[test]
fn search_matches_the_reference_walk() {
    let config = VitConfig {
        depth: 12,
        ..VitConfig::test_small()
    };
    let calibration = stripes(&DatasetConfig::small(), 5, 3);
    for tuned in [false, true] {
        let efforts = efforts(&config, &[3, 6, 9, 12], 2, tuned);
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            check_against_reference(&efforts, &calibration, par);
        }
    }
}

/// The same differential at the benchmark's ladder scale: `VitConfig::tiny`
/// (17 tokens) with 8 classes, 256 calibration images, efforts 3/6/9/12.
/// Release-mode only (`cargo test --release -p pivot-core -- --ignored`).
#[test]
#[ignore = "ladder-scale differential; run explicitly with --ignored in release"]
fn search_matches_the_reference_walk_at_ladder_scale() {
    let config = VitConfig {
        num_classes: 8,
        ..VitConfig::tiny()
    };
    let data = DatasetConfig {
        classes: 8,
        image_size: 32,
        train_per_class: 0,
        test_per_class: 0,
        difficulty: (0.0, 1.0),
    };
    let calibration = stripes(&data, 32, 5);
    assert_eq!(calibration.len(), 256);
    let efforts = efforts(&config, &[3, 6, 9, 12], 4, false);
    for par in [Parallelism::Off, Parallelism::Auto] {
        check_against_reference(&efforts, &calibration, par);
    }
}
