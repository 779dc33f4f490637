//! One function per table/figure of the paper's evaluation.
//!
//! Every function prints a paper-style report to stdout (with the paper's
//! published values alongside for comparison) and returns the key numbers
//! so the integration tests can assert the reproduced *shapes*.

mod ablations;
mod accuracy;
mod analysis;
mod delay;
mod drift;
mod faults;
mod gpp;

pub use ablations::{
    ablation_dataflow, ablation_entropy_regularizer, ablation_gating, ablation_ladder,
    ablation_path_selection, ablation_quantization,
};
pub use accuracy::{table2, table3, table4, ComparisonRow, EffortTableRow};
pub use analysis::{fig3a, fig4a, fig4b, fig4c, fig8, fig9, LecPoint, PathAccuracyPoint};
pub use delay::{fig1b, fig6a, fig6b, DelayShare, EnergyReduction};
pub use drift::{
    drift_bench, DriftBench, DriftPolicyRun, DriftScenario, BATCH, CALIBRATION, LEC, STEP, WINDOW,
};
pub use faults::{fault_injection, FaultReport, FaultSweepPoint};
pub use gpp::{fig1c, fig7, GppMethodResult};

use crate::harness::{FamilyArtifacts, Reproduction};
use pivot_core::{EffortLadder, Parallelism, PathConfig, Phase2Config, Phase2Result, Phase2Search};
use pivot_vit::{TrainConfig, Trainer};

/// Runs Phase 2 for one family at a delay target, returning the chosen
/// combination (or `None` when infeasible).
pub fn phase2_at(
    repro: &Reproduction,
    family: &FamilyArtifacts,
    delay_ms: f64,
    lec: f64,
) -> Option<Phase2Result> {
    let search = Phase2Search::new(
        &repro.sim,
        &family.geometry,
        family.efforts(),
        &repro.calibration,
    );
    search.run(&Phase2Config {
        lec,
        delay_constraint_ms: delay_ms,
        delay_tolerance: 0.05,
        threshold_step: 0.02,
    })
}

/// The PVDS-50 operating point used by several figures: DeiT-S at a 50 ms
/// delay target, LEC 70%.
pub fn pvds50(repro: &Reproduction) -> Phase2Result {
    phase2_at(repro, &repro.deit, 50.0, 0.7).expect("a 50 ms target on DeiT-S must be feasible")
}

/// The PVLS-50 operating point: LVViT-S at a 50 ms target.
pub fn pvls50(repro: &Reproduction) -> Phase2Result {
    phase2_at(repro, &repro.lvvit, 50.0, 0.7).expect("a 50 ms target on LVViT-S must be feasible")
}

/// Evaluates a Phase-2 combination's cascade accuracy on the held-out test
/// set.
pub fn cascade_test_accuracy(
    repro: &Reproduction,
    family: &FamilyArtifacts,
    result: &Phase2Result,
) -> f64 {
    pair_ladder(family, result)
        .evaluate(&repro.dataset.test, Parallelism::Auto)
        .0
        .accuracy()
}

/// The two-level cascade a Phase-2 result picks: `family`'s models at its
/// low and high efforts, gated at its threshold.
fn pair_ladder(family: &FamilyArtifacts, result: &Phase2Result) -> EffortLadder {
    let model = |effort| {
        let level = family.efforts().iter().find(|e| e.effort == effort);
        level
            .unwrap_or_else(|| panic!("effort {effort} exists"))
            .model
            .clone()
    };
    EffortLadder::new(
        vec![model(result.low_effort), model(result.high_effort)],
        vec![result.threshold],
    )
}

/// Test accuracy of the DeiT-S teacher after a 2-epoch distillation
/// fine-tune on `path`, shuffled with `seed` (Fig. 4a, the path-selection
/// ablation).
fn finetuned_accuracy(repro: &Reproduction, path: &PathConfig, seed: u64) -> f64 {
    let teacher = &repro.deit.artifacts.teacher;
    let mut student = teacher.clone();
    student.set_active_attentions(path.active());
    Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 1e-3,
        distill_weight: 0.5,
        entropy_weight: 0.0,
        grad_clip: 1.0,
        warmup_fraction: 0.1,
        seed,
    })
    .train(&mut student, Some(teacher), &repro.dataset);
    student.accuracy(&repro.dataset.test) as f64
}
