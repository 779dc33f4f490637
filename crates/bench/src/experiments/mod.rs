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
use pivot_core::{EffortLadder, Parallelism, Phase2Config, Phase2Result, Phase2Search};

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
    let low = family
        .efforts()
        .iter()
        .find(|e| e.effort == result.low_effort)
        .expect("low effort exists");
    let high = family
        .efforts()
        .iter()
        .find(|e| e.effort == result.high_effort)
        .expect("high effort exists");
    let cascade = EffortLadder::new(
        vec![low.model.clone(), high.model.clone()],
        vec![result.threshold],
    );
    cascade
        .evaluate(&repro.dataset.test, Parallelism::Auto)
        .0
        .accuracy()
}
