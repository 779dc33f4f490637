//! The benchmark's models: the committed `ladder17` fixture pair, the
//! seed-built `deit197` model, the simulated energy ladder they map onto,
//! and the quality gate every set-up asserts on the fixtures.

use crate::run::Outcome;
use crate::stats;
use pivot_core::{CascadeCache, Parallelism};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_nn::QuantMode;
use pivot_sim::{AcceleratorConfig, LadderEnergy, Simulator, VitGeometry};
use pivot_tensor::Rng;
use pivot_vit::{PreparedModel, TrainConfig, Trainer, VisionTransformer, VitConfig};
use std::path::PathBuf;
use std::time::Instant;

/// Attention layers active in the low-effort level (the paper's effort 3).
pub const LOW_ACTIVE: [usize; 3] = [0, 1, 2];
/// Classes of the `ladder17` task.
pub const CLASSES: usize = 8;
/// Difficulty stripes every stripe set is drawn on.
pub const STRIPES: [f32; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Minimum level-0 normalized-entropy inter-decile spread (p90 - p10).
pub const GATE_MIN_SPREAD: f64 = 0.3;
/// Minimum difficulty gap between the high- and low-entropy halves.
pub const GATE_MIN_DIFFICULTY_GAP: f64 = 0.1;

/// `ladder17` geometry: `VitConfig::tiny()` (depth 12, dim 64, 4 heads,
/// 17 tokens) with 8 classes.
pub fn ladder17_config() -> VitConfig {
    VitConfig {
        name: "ladder17".to_string(),
        num_classes: CLASSES,
        ..VitConfig::tiny()
    }
}

/// The dataset family `ladder17` is trained and served on.
pub fn ladder17_data() -> DatasetConfig {
    DatasetConfig {
        classes: CLASSES,
        image_size: 32,
        train_per_class: 0,
        test_per_class: 0,
        difficulty: (0.0, 1.0),
    }
}

/// `deit197` geometry: DeiT-S (197 tokens, dim 384) in full precision.
pub fn deit197_config() -> VitConfig {
    VitConfig {
        quant: QuantMode::None,
        ..VitConfig::deit_s()
    }
}

/// The dataset family `deit197` images are drawn from (speed only).
pub fn deit197_data() -> DatasetConfig {
    DatasetConfig {
        classes: 10,
        image_size: 224,
        train_per_class: 0,
        test_per_class: 0,
        difficulty: (0.0, 1.0),
    }
}

/// Directory holding the benchmark's files: `benchmark/` under the
/// checkout root the benchmark is run from, else (under `cargo test`,
/// which runs in the package directory) where this package was built.
pub fn benchmark_dir() -> PathBuf {
    let from_root = PathBuf::from("benchmark");
    if from_root.join("fixtures").is_dir() {
        from_root
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn fixture_path(level: &str) -> PathBuf {
    benchmark_dir()
        .join("fixtures")
        .join(format!("ladder17_{level}.pvit"))
}

/// Path of the low-effort checkpoint.
pub fn low_fixture() -> PathBuf {
    fixture_path("low")
}

/// Path of the high-effort checkpoint.
pub fn high_fixture() -> PathBuf {
    fixture_path("high")
}

/// Loads the two-level serving ladder through the cold-start path.
pub fn load_ladder() -> Result<Vec<PreparedModel>, String> {
    [low_fixture(), high_fixture()]
        .iter()
        .map(|p| VisionTransformer::load_prepared(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// Loads the mutable high-effort fixture (the backbone `offline_phase2`
/// masks, and the source of `embed_tokens` for traced block replays).
pub fn load_model(path: PathBuf) -> Result<VisionTransformer, String> {
    VisionTransformer::load(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// A held-out stripe set: `n` images spread evenly over [`STRIPES`].
pub fn stripe_set(config: &DatasetConfig, n: usize, seed: u64) -> Vec<Sample> {
    let mut set =
        Dataset::generate_difficulty_stripes(config, &STRIPES, n.div_ceil(STRIPES.len()), seed);
    set.truncate(n);
    set
}

/// DeiT-S on the ZCU102 under PIVOT-Sim: the hardware the functional
/// ladder's exits are charged on (effort 3 and effort 12).
pub fn energy_ladder() -> LadderEnergy {
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geom = VitGeometry::deit_s();
    LadderEnergy::from_masks(
        &sim,
        &geom,
        &[effort_mask(LOW_ACTIVE.len()), effort_mask(12)],
    )
}

/// The first-`effort`-attentions-active mask over DeiT-S depth.
pub fn effort_mask(effort: usize) -> Vec<bool> {
    (0..VitGeometry::deit_s().depth)
        .map(|i| i < effort)
        .collect()
}

/// What the quality gate measured on one held-out set.
#[derive(Debug, Clone, Copy)]
pub struct GateReading {
    /// p90 - p10 of the level-0 normalized entropies.
    pub entropy_spread: f64,
    /// Mean difficulty of the high-entropy half minus the low-entropy half.
    pub difficulty_gap: f64,
}

impl GateReading {
    /// Whether the low-effort entropy carries a usable difficulty signal.
    pub fn passes(&self) -> bool {
        self.entropy_spread >= GATE_MIN_SPREAD && self.difficulty_gap >= GATE_MIN_DIFFICULTY_GAP
    }
}

/// Reads the gate statistics from level-0 entropies and the difficulties
/// of the samples they were computed on (same order).
pub fn gate_reading(entropies: &[f32], samples: &[Sample]) -> GateReading {
    assert_eq!(entropies.len(), samples.len());
    let mut order: Vec<usize> = (0..entropies.len()).collect();
    order.sort_by(|&a, &b| entropies[a].total_cmp(&entropies[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| entropies[i] as f64).collect();
    let half = order.len() / 2;
    let mean_difficulty = |idx: &[usize]| {
        idx.iter()
            .map(|&i| samples[i].difficulty as f64)
            .sum::<f64>()
            / idx.len().max(1) as f64
    };
    GateReading {
        entropy_spread: stats::percentile(&sorted, 0.9) - stats::percentile(&sorted, 0.1),
        difficulty_gap: mean_difficulty(&order[half..]) - mean_difficulty(&order[..half]),
    }
}

/// The fixed held-out stripe set the gate is read on. It does not depend
/// on the run's seed: the gate validates the committed fixtures and the
/// inference code under them, so it must not fail by sampling chance.
pub fn gate_set() -> Vec<Sample> {
    stripe_set(&ladder17_data(), 720, 2025)
}

/// Level-0 normalized entropies of `samples` under `low`.
pub fn level0_entropies(low: &PreparedModel, samples: &[Sample]) -> Vec<f32> {
    let cache = CascadeCache::build_prepared(low, samples, Parallelism::Off);
    cache.entropies().to_vec()
}

/// The `fixture_gate` output check: the low fixture must gate on
/// difficulty (README, "Fixtures").
pub fn check_gate(low: &PreparedModel, out: &mut Outcome) {
    let samples = gate_set();
    let reading = gate_reading(&level0_entropies(low, &samples), &samples);
    out.check(
        "fixture_gate",
        reading.passes(),
        format!(
            "level-0 entropy spread {:.3} (need >= {GATE_MIN_SPREAD}), difficulty gap {:.3} \
             (need >= {GATE_MIN_DIFFICULTY_GAP}); if it fails, rerun train-fixtures",
            reading.entropy_spread, reading.difficulty_gap
        ),
    );
}

/// How one fixture level is trained. The low level is deliberately
/// trained less: a level that fits the task almost perfectly is confident
/// everywhere, and its entropy stops carrying the difficulty signal the
/// gate needs (README, "Fixtures", lists the recipes that failed).
struct Recipe {
    level: &'static str,
    active: Vec<usize>,
    train_per_class: usize,
    epochs: usize,
    weights_seed: u64,
    path: PathBuf,
}

/// Regenerates both checkpoints deterministically (fixed seeds, plain
/// supervised training over the full difficulty range) and prints what
/// the README records: wall time, test accuracy and the gate reading.
pub fn train_fixtures() -> Result<(), String> {
    let held_out = gate_set();
    std::fs::create_dir_all(benchmark_dir().join("fixtures")).map_err(|e| e.to_string())?;
    let recipes = [
        Recipe {
            level: "low",
            active: LOW_ACTIVE.to_vec(),
            train_per_class: 1000,
            epochs: 3,
            weights_seed: 11,
            path: low_fixture(),
        },
        Recipe {
            level: "high",
            active: (0..ladder17_config().depth).collect(),
            train_per_class: 1500,
            epochs: 4,
            weights_seed: 12,
            path: high_fixture(),
        },
    ];
    for r in recipes {
        let started = Instant::now();
        let data = Dataset::generate(
            &DatasetConfig {
                train_per_class: r.train_per_class,
                test_per_class: 40,
                ..ladder17_data()
            },
            2024,
        );
        let mut model = VisionTransformer::new(&ladder17_config(), &mut Rng::new(r.weights_seed));
        model.set_active_attentions(&r.active);
        let epochs = Trainer::new(TrainConfig {
            epochs: r.epochs,
            batch_size: 16,
            lr: 2e-3,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: r.weights_seed + 100,
        })
        .train(&mut model, None, &data);
        let prepared = model.prepare();
        let reading = gate_reading(&level0_entropies(&prepared, &held_out), &held_out);
        println!(
            "{}: effort {} trained {} epochs x {} images in {:.1} s, train acc {:.3}, \
             test acc {:.3}, held-out stripe acc {:.3}, entropy spread {:.3}, difficulty gap {:.3}",
            r.level,
            model.effort(),
            epochs.len(),
            data.train.len(),
            started.elapsed().as_secs_f64(),
            epochs.last().map_or(0.0, |e| e.train_accuracy),
            prepared.accuracy(&data.test),
            prepared.accuracy(&held_out),
            reading.entropy_spread,
            reading.difficulty_gap,
        );
        if r.level == "low" && !reading.passes() {
            return Err("low-effort fixture does not pass the quality gate".to_string());
        }
        model
            .save(&r.path)
            .map_err(|e| format!("{}: {e}", r.path.display()))?;
        println!("wrote {}", r.path.display());
    }
    Ok(())
}
