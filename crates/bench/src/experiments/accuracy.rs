//! Tables 2, 3 and 4: end-to-end performance and prior-work comparison.

use super::{cascade_test_accuracy, phase2_at};
use crate::harness::{FamilyArtifacts, Reproduction};
use crate::Table;
use pivot_baselines::{HeatVit, HeatVitConfig, VitCod};

/// One row of Table 2/3.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortTableRow {
    /// Row label (e.g. `"PVDS-50"`).
    pub label: String,
    /// Per-image energy (J).
    pub energy_j: f64,
    /// Per-image delay (ms).
    pub delay_ms: f64,
    /// Average power (W).
    pub power_w: f64,
    /// Energy-delay product (J*ms).
    pub edp: f64,
    /// FPS per watt.
    pub fps_per_w: f64,
    /// Test accuracy (fraction).
    pub accuracy: f64,
}

fn effort_table(
    repro: &Reproduction,
    family: &FamilyArtifacts,
    prefix: &str,
    targets: &[(f64, f64)],
) -> Vec<EffortTableRow> {
    let depth = family.geometry.depth;
    let base = repro.sim.simulate(&family.geometry, &vec![true; depth]);
    let base_acc = family.artifacts.teacher.accuracy(&repro.dataset.test) as f64;
    let mut rows = vec![EffortTableRow {
        label: family.label.clone(),
        energy_j: base.energy_j(),
        delay_ms: base.delay_ms,
        power_w: base.power_w(),
        edp: base.edp(),
        fps_per_w: base.fps_per_w(),
        accuracy: base_acc,
    }];
    for &(target, lec) in targets {
        match phase2_at(repro, family, target, lec) {
            Some(result) => {
                let acc = cascade_test_accuracy(repro, family, &result);
                rows.push(EffortTableRow {
                    label: format!(
                        "{prefix}-{} [E{}+E{}, Th {:.2}, F_L {:.2}]",
                        target as u32,
                        result.low_effort,
                        result.high_effort,
                        result.threshold,
                        result.stats.f_low()
                    ),
                    energy_j: result.perf.energy_j(),
                    delay_ms: result.perf.delay_ms,
                    power_w: result.perf.power_w(),
                    edp: result.perf.edp(),
                    fps_per_w: result.perf.fps_per_w(),
                    accuracy: acc,
                });
            }
            None => println!("  (delay target {target} ms infeasible with this effort ladder)"),
        }
    }
    rows
}

fn print_effort_table(rows: &[EffortTableRow]) {
    let base = &rows[0];
    let mut table = Table::new(&[
        "Model",
        "Energy (J)",
        "Delay (ms)",
        "Power (W)",
        "EDP (Jxms)",
        "FPS/W",
        "Accuracy (%)",
    ]);
    for r in rows {
        table.row_owned(vec![
            r.label.clone(),
            format!("{:.3} ({:.2}x)", r.energy_j, base.energy_j / r.energy_j),
            format!("{:.2} ({:.2}x)", r.delay_ms, base.delay_ms / r.delay_ms),
            format!("{:.2}", r.power_w),
            format!("{:.2} ({:.2}x)", r.edp, base.edp / r.edp),
            format!("{:.2} ({:.2}x)", r.fps_per_w, r.fps_per_w / base.fps_per_w),
            format!("{:.1}", r.accuracy * 100.0),
        ]);
    }
    table.print();
}

/// Table 2: DeiT-S vs PVDS-50 / PVDS-35.
///
/// Paper: PVDS-50 = 1.73x lower EDP at -0.4% accuracy; PVDS-35 = 2.6x
/// lower EDP at -1.6%.
pub fn table2(repro: &Reproduction) -> Vec<EffortTableRow> {
    println!("\n=== Table 2: DeiT-S vs PIVOT-optimized DeiT-S ===");
    println!("paper: PVDS-50 EDP 1.73x lower @ -0.4% acc; PVDS-35 EDP 2.6x lower @ -1.6%\n");
    let rows = effort_table(repro, &repro.deit, "PVDS", &[(50.0, 0.8), (35.0, 0.8)]);
    print_effort_table(&rows);
    rows
}

/// Table 3: LVViT-S vs PVLS-50 / PVLS-35.
///
/// Paper: PVLS-50 = 2.7x lower EDP at -0.2% accuracy; PVLS-35 = 4.5x lower
/// EDP at -1.7% (the 36.5 ms point needs a high LEC, like the paper's
/// LEC-90 analysis).
pub fn table3(repro: &Reproduction) -> Vec<EffortTableRow> {
    println!("\n=== Table 3: LVViT-S vs PIVOT-optimized LVViT-S ===");
    println!("paper: PVLS-50 EDP 2.7x lower @ -0.2% acc; PVLS-35 EDP 4.5x lower @ -1.7%\n");
    let rows = effort_table(repro, &repro.lvvit, "PVLS", &[(50.0, 0.8), (36.5, 0.9)]);
    print_effort_table(&rows);
    rows
}

/// One comparison row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Method name.
    pub method: String,
    /// Effort-modulation style.
    pub modulation: &'static str,
    /// Prediction mechanism.
    pub mechanism: &'static str,
    /// Test accuracy (fraction).
    pub accuracy: f64,
    /// Whether the method speeds up on general-purpose platforms.
    pub gpp_compatible: bool,
}

/// Table 4: PIVOT vs ViTCOD vs HeatViT on the DeiT-S backbone.
///
/// Paper accuracies: ViTCOD 78.1%, HeatViT 79.1%, PIVOT 79.4% (ImageNet).
/// Here the same three mechanisms run on the trained tiny stand-in and the
/// synthetic test set; the *ordering* is the reproduced claim.
pub fn table4(repro: &Reproduction) -> Vec<ComparisonRow> {
    println!("\n=== Table 4: comparison with ViTCOD and HeatViT ===");
    println!("paper: ViTCOD 78.1% < HeatViT 79.1% < PIVOT 79.4%; only PIVOT is GPP-compatible\n");
    let teacher = &repro.deit.artifacts.teacher.prepare();
    let test = &repro.dataset.test;

    let vitcod = VitCod::new(0.9);
    let vitcod_acc = vitcod.accuracy(teacher, test) as f64;

    let heatvit = HeatVit::new(HeatVitConfig::deit_s(), teacher.config().depth);
    let heatvit_acc = heatvit.accuracy(teacher, test) as f64;

    let pvds = super::pvds50(repro);
    let pivot_acc = cascade_test_accuracy(repro, &repro.deit, &pvds);

    let rows = vec![
        ComparisonRow {
            method: "ViTCOD".into(),
            modulation: "Constant",
            mechanism: "Norm score (90% attn sparsity)",
            accuracy: vitcod_acc,
            gpp_compatible: false,
        },
        ComparisonRow {
            method: "HeatViT".into(),
            modulation: "Constant",
            mechanism: "Head-level token score + packaging",
            accuracy: heatvit_acc,
            gpp_compatible: false,
        },
        ComparisonRow {
            method: "PIVOT (ours)".into(),
            modulation: "Input-aware",
            mechanism: "Entropy metric",
            accuracy: pivot_acc,
            gpp_compatible: true,
        },
    ];

    let mut table = Table::new(&[
        "Work",
        "Effort Modulation",
        "Prediction Mechanism",
        "Accuracy (%)",
        "GPP Compatible",
    ]);
    for r in &rows {
        table.row_owned(vec![
            r.method.clone(),
            r.modulation.to_string(),
            r.mechanism.to_string(),
            format!("{:.1}", r.accuracy * 100.0),
            if r.gpp_compatible {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table.print();
    rows
}
