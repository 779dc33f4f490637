//! Ablations beyond the paper's figures (DESIGN.md §9): they quantify each
//! design choice PIVOT makes — CKA-guided path selection, the entropy
//! regularizer, the input-aware gate, the input-stationary dataflow, the
//! two-level ladder and the 8-bit deployment numerics.

use super::{finetuned_accuracy, pair_ladder, pvds50};
use crate::harness::Reproduction;
use crate::Table;
use pivot_core::{batched_logits, CascadeStats, EffortLadder, Parallelism, PathConfig};
use pivot_data::Sample;
use pivot_nn::QuantMode;
use pivot_sim::{AcceleratorConfig, Dataflow, Simulator, VitGeometry};
use pivot_vit::{TrainConfig, Trainer};

/// Ablation 1: optimal vs median vs worst path at a fixed effort, each
/// fine-tuned identically. Quantifies what Algorithm 1 buys.
/// Returns `(best, median, worst)` accuracies.
pub fn ablation_path_selection(repro: &Reproduction, effort: usize) -> (f64, f64, f64) {
    println!("\n=== Ablation: CKA path selection vs random/worst (effort {effort}) ===");
    let ranked =
        pivot_core::select_optimal_path(effort, &repro.deit.artifacts.cka, Parallelism::Auto)
            .ranked;
    let finetune = |path: &PathConfig| finetuned_accuracy(repro, path, 55);

    let best = finetune(&ranked.first().expect("paths").path);
    let median = finetune(&ranked[ranked.len() / 2].path);
    let worst = finetune(&ranked.last().expect("paths").path);

    let mut table = Table::new(&["Path choice", "Score S", "Accuracy (%)"]);
    table.row_owned(vec![
        "optimal (Algorithm 1)".into(),
        format!("{:.3}", ranked.first().expect("paths").score),
        format!("{:.1}", best * 100.0),
    ]);
    table.row_owned(vec![
        "median".into(),
        format!("{:.3}", ranked[ranked.len() / 2].score),
        format!("{:.1}", median * 100.0),
    ]);
    table.row_owned(vec![
        "worst".into(),
        format!("{:.3}", ranked.last().expect("paths").score),
        format!("{:.1}", worst * 100.0),
    ]);
    table.print();
    (best, median, worst)
}

/// Ablation 2: the entropy regularizer `L_En`. Fine-tunes the low-effort
/// model with and without `L_En` and compares the mean test entropy and
/// the low-exit fraction `F_L` at a fixed threshold.
/// Returns `((entropy_with, f_low_with), (entropy_without, f_low_without))`.
pub fn ablation_entropy_regularizer(repro: &Reproduction) -> ((f64, f64), (f64, f64)) {
    println!("\n=== Ablation: entropy regularizer L_En on/off ===");
    let family = &repro.deit;
    let teacher = &family.artifacts.teacher;
    let low = family.efforts().first().expect("efforts");
    let threshold = 0.6f32;

    let run = |entropy_weight: f32| -> (f64, f64) {
        let mut model = teacher.clone();
        model.set_active_attentions(low.path.active());
        Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            distill_weight: 0.5,
            entropy_weight,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: 66,
        })
        .train(&mut model, Some(teacher), &repro.dataset);
        let test = &repro.dataset.test;
        let cache =
            pivot_core::CascadeCache::build_prepared(&model.prepare(), test, Parallelism::Auto);
        let total_entropy: f64 = cache.entropies().iter().map(|&e| e as f64).sum();
        (total_entropy / test.len() as f64, cache.f_low_at(threshold))
    };

    let with_len = run(0.2);
    let without = run(0.0);
    let mut table = Table::new(&["Config", "Mean entropy", &format!("F_L @ Th={threshold}")]);
    table.row_owned(vec![
        "with L_En".into(),
        format!("{:.3}", with_len.0),
        format!("{:.2}", with_len.1),
    ]);
    table.row_owned(vec![
        "without L_En".into(),
        format!("{:.3}", without.0),
        format!("{:.2}", without.1),
    ]);
    table.print();
    println!("L_En should lower entropy and raise F_L (more low-effort exits).");
    (with_len, without)
}

/// Ablation 3: gating policies on the PVDS-50 pair — entropy gate (PIVOT),
/// ground-truth-difficulty oracle, always-low and always-high.
/// Returns `(policy, accuracy, mean_efforts)` rows.
pub fn ablation_gating(repro: &Reproduction) -> Vec<(String, f64, f64)> {
    println!("\n=== Ablation: entropy gate vs difficulty oracle vs static ===");
    let pvds = pvds50(repro);
    let cascade = pair_ladder(&repro.deit, &pvds);
    let test = &repro.dataset.test;

    let (entropy_stats, _) = cascade.evaluate(test, Parallelism::Auto);
    // Oracle threshold chosen so its F_L matches the entropy gate's.
    let mut difficulties: Vec<f32> = test.iter().map(|s| s.difficulty).collect();
    difficulties.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((entropy_stats.f_low() * test.len() as f64) as usize).min(test.len() - 1);
    let oracle_threshold = difficulties[idx];
    let oracle_stats = route_by_difficulty(&cascade, test, oracle_threshold);

    let [low, high] = cascade.prepared_levels() else {
        unreachable!("a pair ladder has two levels")
    };
    let low_acc = low.accuracy(test) as f64;
    let high_acc = high.accuracy(test) as f64;

    let rows = vec![
        (
            format!("entropy gate (Th {:.2})", pvds.threshold),
            entropy_stats.accuracy(),
            1.0 + entropy_stats.f_high(),
        ),
        (
            format!("difficulty oracle (d < {oracle_threshold:.2})"),
            oracle_stats.accuracy(),
            1.0 + oracle_stats.f_high(),
        ),
        (format!("always low (E{})", pvds.low_effort), low_acc, 1.0),
        (
            format!("always high (E{})", pvds.high_effort),
            high_acc,
            1.0,
        ),
    ];
    let mut table = Table::new(&["Policy", "Accuracy (%)", "Inferences/input"]);
    for (name, acc, cost) in &rows {
        table.row_owned(vec![
            name.clone(),
            format!("{:.1}", acc * 100.0),
            format!("{cost:.2}"),
        ]);
    }
    table.print();
    rows
}

/// The oracle upper bound on input-aware gating: routes by **ground-truth
/// difficulty** instead of entropy — samples with `difficulty <
/// difficulty_threshold` take the low effort, the rest the high effort
/// only. The synthetic dataset's difficulty labels make it measurable
/// (ImageNet has no such labels, so the paper cannot report this). The
/// partition is known up front, so each side runs as one batched sweep.
fn route_by_difficulty(
    cascade: &EffortLadder,
    samples: &[Sample],
    difficulty_threshold: f32,
) -> CascadeStats {
    let (easy, hard): (Vec<Sample>, Vec<Sample>) = samples
        .iter()
        .cloned()
        .partition(|s| s.difficulty < difficulty_threshold);
    let per_level = [easy, hard]
        .iter()
        .zip(cascade.prepared_levels())
        .map(|(group, model)| {
            let logits = batched_logits(model, group, |s| &s.image, Parallelism::Auto);
            let correct = logits
                .iter()
                .zip(group)
                .filter(|(l, s)| l.row_argmax(0) == s.label)
                .count();
            (group.len(), correct)
        })
        .collect();
    CascadeStats { per_level }
}

/// Ablation 4: systolic dataflow choice on the ZCU102 (the paper fixes
/// input stationary; this shows it is the right call for ViT shapes).
/// Returns `(dataflow name, DeiT-S delay ms)`.
pub fn ablation_dataflow() -> Vec<(&'static str, f64)> {
    println!("\n=== Ablation: systolic dataflow (DeiT-S, 64x36 array) ===");
    let geom = VitGeometry::deit_s();
    let mut rows = Vec::new();
    let mut table = Table::new(&["Dataflow", "Delay (ms)", "EDP (Jxms)"]);
    for dataflow in [
        Dataflow::InputStationary,
        Dataflow::WeightStationary,
        Dataflow::OutputStationary,
    ] {
        let sim = Simulator::new(AcceleratorConfig {
            dataflow,
            ..AcceleratorConfig::zcu102()
        });
        let perf = sim.simulate(&geom, &[true; 12]);
        table.row_owned(vec![
            dataflow.name().into(),
            format!("{:.2}", perf.delay_ms),
            format!("{:.2}", perf.edp()),
        ]);
        rows.push((dataflow.name(), perf.delay_ms));
    }
    table.print();
    rows
}

/// Ablation 5: two-level cascade vs a three-level ladder at matched
/// accuracy targets. Returns `(name, accuracy, mean inferences)`.
pub fn ablation_ladder(repro: &Reproduction) -> Vec<(String, f64, f64)> {
    println!("\n=== Ablation: two-level cascade vs three-level ladder ===");
    let family = &repro.deit;
    let efforts = family.efforts();
    let low = &efforts[0];
    let mid = &efforts[efforts.len() / 2];
    let high = efforts.last().expect("efforts");
    let test = &repro.dataset.test;

    let two = EffortLadder::new(vec![low.model.clone(), high.model.clone()], vec![0.6]);
    let three = EffortLadder::new(
        vec![low.model.clone(), mid.model.clone(), high.model.clone()],
        vec![0.6, 0.75],
    );

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "Ladder",
        "Accuracy (%)",
        "Inferences/input",
        "Level fractions",
    ]);
    for (name, ladder) in [
        (format!("2-level [E{}, E{}]", low.effort, high.effort), two),
        (
            format!(
                "3-level [E{}, E{}, E{}]",
                low.effort, mid.effort, high.effort
            ),
            three,
        ),
    ] {
        let (stats, _) = ladder.evaluate(test, Parallelism::Auto);
        table.row_owned(vec![
            name.clone(),
            format!("{:.1}", stats.accuracy() * 100.0),
            format!("{:.2}", stats.mean_inferences()),
            format!(
                "{:?}",
                stats
                    .level_fractions()
                    .iter()
                    .map(|f| (f * 100.0).round() as i64)
                    .collect::<Vec<_>>()
            ),
        ]);
        rows.push((name, stats.accuracy(), stats.mean_inferences()));
    }
    table.print();
    rows
}

/// Ablation 6: 8-bit deployment numerics — accuracy of the trained teacher
/// in fp32 vs int8 fake-quant. Returns `(fp32, int8)`.
pub fn ablation_quantization(repro: &Reproduction) -> (f64, f64) {
    println!("\n=== Ablation: fp32 vs int8 deployment numerics ===");
    let test = &repro.dataset.test;
    let teacher = &repro.deit.artifacts.teacher;
    let fp32 = teacher.accuracy(test) as f64;
    let mut quantized = teacher.clone();
    quantized.set_quant_mode(QuantMode::Int8);
    let int8 = quantized.accuracy(test) as f64;
    let mut table = Table::new(&["Numerics", "Accuracy (%)"]);
    table.row_owned(vec!["fp32".into(), format!("{:.1}", fp32 * 100.0)]);
    table.row_owned(vec!["int8 weights".into(), format!("{:.1}", int8 * 100.0)]);
    table.print();
    println!("paper trains at 8-bit; the drop from weight fake-quant should be small.");
    (fp32, int8)
}
