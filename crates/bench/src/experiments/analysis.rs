//! Analysis experiments: Fig. 3a (CKA matrix), Fig. 4a (path accuracy vs
//! score), Fig. 4b (design space), Fig. 4c (training cost), Fig. 8 (LEC
//! sweep) and Fig. 9 (effort combinations vs delay target).

use super::phase2_at;
use crate::harness::Reproduction;
use crate::Table;
use pivot_core::{search_space, PathConfig};
use pivot_core::{CascadeCache, Parallelism, Phase2Config, Phase2Search, TrainCostModel};
use pivot_vit::Trainer;

/// Fig. 3a: the CKA matrix `CKA(MLP_i, A_{i+1})` of the trained DeiT-S
/// stand-in. The paper's observation: CKA grows toward deeper encoders,
/// which is why skips concentrate there.
///
/// Returns `(mean CKA in the first half, mean CKA in the second half)` of
/// the first superdiagonal.
pub fn fig3a(repro: &Reproduction) -> (f32, f32) {
    println!("\n=== Fig. 3a: CKA matrix (MLP_i vs A_j) of the DeiT-S stand-in ===");
    println!("paper: CKA(MLP_i, A_i+1) is higher in deeper encoders\n");
    let cka = &repro.deit.artifacts.cka;
    let depth = cka.depth();
    print!("      ");
    for j in 1..depth {
        print!("A{j:<5}");
    }
    println!();
    for i in 0..depth - 1 {
        print!("MLP{i:<3}");
        for j in 1..depth {
            if j > i {
                print!("{:<6.2}", cka.get(i, j));
            } else {
                print!("      ");
            }
        }
        println!();
    }
    let superdiag: Vec<f32> = (0..depth - 1).map(|i| cka.get(i, i + 1)).collect();
    let half = superdiag.len() / 2;
    let first: f32 = superdiag[..half].iter().sum::<f32>() / half as f32;
    let second: f32 = superdiag[half..].iter().sum::<f32>() / (superdiag.len() - half) as f32;
    println!("\nmean CKA(MLP_i, A_i+1): shallow half {first:.3}, deep half {second:.3}");
    (first, second)
}

/// One sampled path of Fig. 4a.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAccuracyPoint {
    /// The path's Algorithm-1 score.
    pub score: f32,
    /// Test accuracy after a short fine-tune.
    pub accuracy: f64,
}

/// Fig. 4a: path accuracy vs Path-Score at a fixed effort. The paper shows
/// a positive correlation (effort 6, DeiT-S).
///
/// Samples `n_paths` paths evenly across the score range, fine-tunes each
/// briefly with distillation from the teacher, and reports test accuracy.
/// Returns the points and the Pearson correlation.
pub fn fig4a(repro: &Reproduction, effort: usize, n_paths: usize) -> (Vec<PathAccuracyPoint>, f64) {
    println!("\n=== Fig. 4a: path accuracy vs Path-Score (effort {effort}) ===");
    println!("paper: positive correlation between S and path accuracy\n");
    let family = &repro.deit;
    let ranked =
        pivot_core::select_optimal_path(effort, &family.artifacts.cka, Parallelism::Auto).ranked;
    let step = (ranked.len().saturating_sub(1)).max(1) / (n_paths - 1).max(1);
    let sampled: Vec<_> = (0..n_paths)
        .map(|i| ranked[(i * step).min(ranked.len() - 1)].clone())
        .collect();

    let teacher = &family.artifacts.teacher;
    let eval: Vec<_> = repro.dataset.test.to_vec();

    let mut points = Vec::with_capacity(sampled.len());
    let mut table = Table::new(&["Path", "Score S", "Accuracy (%)"]);
    for sp in &sampled {
        let mut student = teacher.clone();
        student.set_active_attentions(sp.path.active());
        let cfg = pivot_vit::TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 1e-3,
            distill_weight: 0.5,
            entropy_weight: 0.0,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: 77,
        };
        Trainer::new(cfg).train(&mut student, Some(teacher), &repro.dataset);
        let acc = student.accuracy(&eval) as f64;
        table.row_owned(vec![
            sp.path.to_string(),
            format!("{:.3}", sp.score),
            format!("{:.1}", acc * 100.0),
        ]);
        points.push(PathAccuracyPoint {
            score: sp.score,
            accuracy: acc,
        });
    }
    table.print();
    let corr = pearson(
        &points.iter().map(|p| p.score as f64).collect::<Vec<_>>(),
        &points.iter().map(|p| p.accuracy).collect::<Vec<_>>(),
    );
    println!("Pearson correlation(score, accuracy) = {corr:.3}");
    (points, corr)
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Fig. 4b: Phase-2 design-space size with random search vs PIVOT.
/// Returns the reduction factor per family.
pub fn fig4b() -> Vec<(String, f64)> {
    println!("\n=== Fig. 4b: Phase-2 design-space size, random vs PIVOT ===");
    println!("paper: DeiT-S random search space ~1e5 x PIVOT's\n");
    let mut out = Vec::new();
    let mut table = Table::new(&[
        "Model",
        "Efforts",
        "Random space",
        "PIVOT space",
        "Reduction",
    ]);
    for (name, depth, efforts) in [
        ("DeiT-S", 12usize, (3..=9).collect::<Vec<usize>>()),
        ("LVViT-S", 16, (4..=12).collect()),
    ] {
        let random = search_space::total_random_space(depth, &efforts);
        let pivot = search_space::total_pivot_space(&efforts);
        let factor = search_space::reduction_factor(depth, &efforts);
        table.row_owned(vec![
            name.to_string(),
            format!("{}..={}", efforts[0], efforts[efforts.len() - 1]),
            format!("{random:.3e}"),
            format!("{pivot}"),
            format!("{factor:.3e}x"),
        ]);
        out.push((name.to_string(), factor));
    }
    table.print();
    out
}

/// Fig. 4c: GPU hours for training all efforts, normalized to training the
/// ViT from scratch. Returns the ratio per family (paper: ~1/3 for DeiT-S,
/// ~1/2 for LVViT-S).
pub fn fig4c(repro: &Reproduction) -> Vec<(String, f64)> {
    println!("\n=== Fig. 4c: normalized GPU hours for training all efforts ===");
    println!("paper: all DeiT-S efforts cost ~1/3 of from-scratch training; LVViT-S ~1/2\n");
    let model = TrainCostModel::default();
    let mut out = Vec::new();
    let mut table = Table::new(&["Model", "Efforts trained", "Relative GPU hours"]);
    for (family, efforts) in [
        (&repro.deit, (3..=9).collect::<Vec<usize>>()),
        (&repro.lvvit, (4..=12).collect()),
    ] {
        // Use Phase-1 optimal paths (deep skips) at the paper's ladder.
        let paths: Vec<PathConfig> = efforts
            .iter()
            .map(|&e| {
                pivot_core::select_optimal_path(e, &family.artifacts.cka, Parallelism::Auto)
                    .optimal
                    .path
            })
            .collect();
        let cost = model.all_efforts_cost(&repro.sim, &family.geometry, &paths);
        table.row_owned(vec![
            family.label.clone(),
            format!("{}..={}", efforts[0], efforts[efforts.len() - 1]),
            format!("{cost:.2} of scratch"),
        ]);
        out.push((family.label.clone(), cost));
    }
    table.print();
    out
}

/// One LEC point of Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct LecPoint {
    /// LEC as a fraction.
    pub lec: f64,
    /// Combination EDP (J*ms).
    pub edp: f64,
    /// Test accuracy of the cascade.
    pub accuracy: f64,
    /// EDP split `(low, high, overhead)`.
    pub edp_split: (f64, f64, f64),
}

/// Fig. 8: effect of the LEC constraint on EDP and accuracy for the
/// PVDS-50 effort pair, plus the EDP decomposition into low-effort,
/// high-effort and re-computation overhead.
///
/// Paper: LEC 70-80 gives the best trade-off; LEC 100 minimizes EDP but
/// costs accuracy.
pub fn fig8(repro: &Reproduction) -> Vec<LecPoint> {
    println!("\n=== Fig. 8: LEC vs EDP and accuracy (PVDS effort pair) ===");
    println!("paper: best tradeoff at LEC 70-80; LEC 100 lowest EDP, worst accuracy\n");
    let family = &repro.deit;
    let pvds = super::pvds50(repro);
    let low = family
        .efforts()
        .iter()
        .find(|e| e.effort == pvds.low_effort)
        .expect("low effort");
    let high = family
        .efforts()
        .iter()
        .find(|e| e.effort == pvds.high_effort)
        .expect("high effort");

    // Evaluate on the test set so accuracy is honest.
    let search = Phase2Search::new(
        &repro.sim,
        &family.geometry,
        family.efforts(),
        &repro.dataset.test,
    );
    // Each effort is observed / prepared once and reused at every LEC.
    let cache =
        CascadeCache::build_prepared(&low.model.prepare(), &repro.dataset.test, Parallelism::Auto);
    let high_view = high.model.prepare();
    let mut out = Vec::new();
    let mut table = Table::new(&[
        "LEC (%)",
        "Th",
        "F_L",
        "EDP (Jxms)",
        "Accuracy (%)",
        "EDP low",
        "EDP high",
        "EDP overhead",
    ]);
    for lec in [0.6, 0.7, 0.8, 0.9, 1.0] {
        // No delay gate: the pair is priced against an infinite maximum
        // below, so the config's delay fields go unread.
        let cfg = Phase2Config {
            lec,
            ..Default::default()
        };
        let result = search
            .evaluate_pair_prepared(low, high, &high_view, &cache, &cfg, f64::INFINITY)
            .expect("no delay gate");
        let (el, eh, eo) = result.perf.edp_split();
        table.row_owned(vec![
            format!("{:.0}", lec * 100.0),
            format!("{:.2}", result.threshold),
            format!("{:.2}", result.stats.f_low()),
            format!("{:.2}", result.perf.edp()),
            format!("{:.1}", result.stats.accuracy() * 100.0),
            format!("{el:.2}"),
            format!("{eh:.2}"),
            format!("{eo:.2}"),
        ]);
        out.push(LecPoint {
            lec,
            edp: result.perf.edp(),
            accuracy: result.stats.accuracy(),
            edp_split: (el, eh, eo),
        });
    }
    table.print();
    out
}

/// Fig. 9: the effort combinations Phase 2 samples at different delay
/// constraints, with their path diagrams. Returns
/// `(delay target, low effort, high effort, mean skipped index of the low
/// path)` per feasible target.
pub fn fig9(repro: &Reproduction) -> Vec<(f64, usize, usize, f64)> {
    println!("\n=== Fig. 9: PVDS ViTs sampled at different delay constraints ===");
    println!("paper: lower delay targets -> fewer active attentions; skips sit deep\n");
    let family = &repro.deit;
    let mut out = Vec::new();
    let mut table = Table::new(&["Target (ms)", "Efforts", "Low path", "High path", "F_L"]);
    for target in [58.0, 52.0, 46.0, 40.0, 35.0] {
        match phase2_at(repro, family, target, 0.7) {
            Some(r) => {
                let skipped = r.low_path.skipped();
                let mean_skip = if skipped.is_empty() {
                    0.0
                } else {
                    skipped.iter().map(|&i| i as f64).sum::<f64>() / skipped.len() as f64
                };
                table.row_owned(vec![
                    format!("{target:.0}"),
                    format!("[{}, {}]", r.low_effort, r.high_effort),
                    r.low_path.to_string(),
                    r.high_path.to_string(),
                    format!("{:.2}", r.stats.f_low()),
                ]);
                out.push((target, r.low_effort, r.high_effort, mean_skip));
            }
            None => {
                table.row_owned(vec![format!("{target:.0}"), "infeasible".into()]);
            }
        }
    }
    table.print();
    out
}
