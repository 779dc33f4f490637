//! Accuracy under injected faults: the hardened cascade vs. a naive
//! full-effort ViT (DESIGN.md §5).
//!
//! The sweep corrupts the **high-effort** model's weights with an
//! increasing number of faults of each [`FaultKind`] and evaluates two
//! deployments on the same samples:
//!
//! * the **cascade** through [`EffortLadder::evaluate`] — a
//!   faulted high effort degrades gracefully to the cached low-effort
//!   prediction, and the [`DegradationReport`] counts every fallback;
//! * the **baseline**: the faulted full-effort model alone, where a
//!   non-finite logits row has no meaningful argmax and the sample is
//!   simply lost (counted wrong).
//!
//! Everything derives from one seed, so a curve is replayable bit-for-bit.
//! A second part of the experiment demonstrates the checkpoint side of the
//! failure model: PVIT2 files with corrupted bytes are rejected with a
//! typed [`CheckpointError`], never loaded silently and never a panic.

use crate::Table;
use pivot_core::{EffortLadder, FaultInjector, FaultKind, Parallelism};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_tensor::Rng;
use pivot_vit::{CheckpointError, VisionTransformer, VitConfig};

/// One point of the accuracy-under-fault curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepPoint {
    /// Fault model injected.
    pub kind: FaultKind,
    /// Number of faults injected into the high-effort / baseline weights.
    pub n_faults: usize,
    /// Cascade accuracy with graceful degradation.
    pub cascade_accuracy: f64,
    /// Samples the cascade served via low-effort fallback.
    pub cascade_fallbacks: usize,
    /// Baseline (single faulted full-effort model) accuracy, counting
    /// samples with non-finite logits as wrong.
    pub baseline_accuracy: f64,
    /// Baseline samples whose logits were non-finite (lost outputs).
    pub baseline_non_finite: usize,
}

/// Everything the fault-injection experiment produces.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The sweep, ordered by fault kind then fault count.
    pub points: Vec<FaultSweepPoint>,
    /// Accuracy of the healthy (fault-free) cascade on the same samples.
    pub healthy_cascade_accuracy: f64,
    /// Samples that escalated because a faulted *low* effort produced a
    /// non-finite entropy (the low-fault demonstration).
    pub low_fault_escalations: usize,
    /// Accuracy of the cascade with the faulted low effort — served by the
    /// healthy high effort via escalation.
    pub low_fault_accuracy: f64,
    /// Whether every corrupted checkpoint was rejected with a typed error.
    pub corrupt_checkpoints_rejected: bool,
}

fn build_models(seed: u64) -> (VisionTransformer, VisionTransformer) {
    let cfg = VitConfig::test_small();
    let mut low = VisionTransformer::new(&cfg, &mut Rng::new(seed));
    low.set_active_attentions(&[0]);
    let mut high = low.clone();
    high.set_active_attentions(&[0, 1, 2, 3]);
    (low, high)
}

/// Baseline evaluation of one (possibly faulted) model: non-finite logits
/// have no meaningful prediction, so those samples count as wrong.
fn baseline_accuracy(model: &VisionTransformer, samples: &[Sample]) -> (f64, usize) {
    let model = model.prepare();
    let mut correct = 0usize;
    let mut non_finite = 0usize;
    for s in samples {
        let logits = model.infer(&s.image);
        if logits.is_all_finite() {
            correct += (logits.row_argmax(0) == s.label) as usize;
        } else {
            non_finite += 1;
        }
    }
    (correct as f64 / samples.len().max(1) as f64, non_finite)
}

/// Corrupts saved checkpoints and verifies every one is rejected with a
/// typed error (no silent load, no panic). Returns `false` if any corrupt
/// file loaded.
fn checkpoint_rejection_demo(high: &VisionTransformer, seed: u64) -> bool {
    let path = std::env::temp_dir().join(format!(
        "pivot_fault_injection_{}_{seed}.pvit",
        std::process::id()
    ));
    let mut all_rejected = true;
    if high.save(&path).is_err() {
        return false;
    }
    let Ok(original) = std::fs::read(&path) else {
        return false;
    };
    let mut injector = FaultInjector::new(seed);
    for trial in 0..8 {
        let mut bytes = original.clone();
        injector.corrupt_bytes(&mut bytes, 1 + trial % 3);
        if std::fs::write(&path, &bytes).is_err() {
            all_rejected = false;
            break;
        }
        match VisionTransformer::load(&path) {
            Ok(_) => {
                println!("  trial {trial}: corrupt checkpoint LOADED — contract violated");
                all_rejected = false;
            }
            Err(e) => {
                let variant = match e {
                    CheckpointError::ChecksumMismatch { .. } => "checksum mismatch",
                    CheckpointError::BadMagic => "bad magic",
                    CheckpointError::Corrupt(_) => "corrupt field",
                    CheckpointError::LimitExceeded { .. } => "limit exceeded",
                    CheckpointError::InvalidConfig(_) => "invalid config",
                    CheckpointError::Io(_) => "I/O error",
                };
                println!("  trial {trial}: rejected with typed error ({variant})");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    all_rejected
}

/// Runs the accuracy-under-fault sweep on `n_samples` synthetic inputs,
/// injecting each count of `fault_counts` faults per [`FaultKind`], all
/// derived from `seed`. Prints paper-style tables and returns the curve.
pub fn fault_injection(n_samples: usize, fault_counts: &[usize], seed: u64) -> FaultReport {
    println!("\n=== Fault injection: graceful cascade degradation vs. naive baseline ===");
    println!("seed {seed}; {n_samples} samples; faults injected into the high-effort weights\n");

    let (low, high) = build_models(seed);
    let samples: Vec<Sample> = Dataset::generate_difficulty_stripes(
        &DatasetConfig::small(),
        &[0.1, 0.5, 0.9],
        n_samples.div_ceil(3),
        seed ^ 0x5eed,
    );
    let samples = &samples[..n_samples.min(samples.len())];
    let threshold = 0.6;
    let cascade = |low: &VisionTransformer, high: &VisionTransformer| {
        EffortLadder::new(vec![low.clone(), high.clone()], vec![threshold])
            .evaluate(samples, Parallelism::Auto)
    };

    let (healthy_stats, healthy_report) = cascade(&low, &high);
    assert!(
        healthy_report.is_empty(),
        "healthy models must produce an empty degradation report"
    );
    let healthy_cascade_accuracy = healthy_stats.accuracy();
    println!(
        "healthy cascade: accuracy {:.3}, F_H {:.2}, no degradation events\n",
        healthy_cascade_accuracy,
        healthy_stats.f_high()
    );

    let mut table = Table::new(&[
        "Fault kind",
        "Faults",
        "Cascade acc",
        "Fallbacks",
        "Baseline acc",
        "Lost (non-finite)",
    ]);
    let mut points = Vec::new();
    for (k, &kind) in FaultKind::ALL.iter().enumerate() {
        for (c, &n_faults) in fault_counts.iter().enumerate() {
            // One deterministic injector per point; the same stream
            // corrupts the cascade's high effort and the baseline model,
            // so both see the identical physical fault pattern.
            let point_seed = seed
                .wrapping_add(1 + k as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(c as u64);
            let mut faulty_high = high.clone();
            FaultInjector::new(point_seed).inject_params(&mut faulty_high, kind, n_faults);

            let (stats, degradation) = cascade(&low, &faulty_high);
            let (base_acc, base_lost) = baseline_accuracy(&faulty_high, samples);

            let point = FaultSweepPoint {
                kind,
                n_faults,
                cascade_accuracy: stats.accuracy(),
                cascade_fallbacks: degradation.fallbacks(),
                baseline_accuracy: base_acc,
                baseline_non_finite: base_lost,
            };
            table.row_owned(vec![
                kind.label().to_string(),
                format!("{n_faults}"),
                format!("{:.3}", point.cascade_accuracy),
                format!("{}", point.cascade_fallbacks),
                format!("{:.3}", point.baseline_accuracy),
                format!("{base_lost}"),
            ]);
            points.push(point);
        }
    }
    println!("{table}");

    // Low-effort faults: the gate escalates non-finite entropies, so the
    // healthy high effort serves every sample — no accuracy cliff.
    let mut faulty_low = low.clone();
    let low_weights = faulty_low.param_count();
    FaultInjector::new(seed ^ 0x10f).inject_params(
        &mut faulty_low,
        FaultKind::StuckNan,
        low_weights,
    );
    let (low_stats, low_report) = cascade(&faulty_low, &high);
    let low_fault_escalations = low_report.non_finite_at(0);
    println!(
        "faulted LOW effort: {} / {} samples escalated on non-finite entropy; \
         accuracy {:.3} (served by the healthy high effort)\n",
        low_fault_escalations,
        samples.len(),
        low_stats.accuracy()
    );

    println!("corrupted-checkpoint rejection (PVIT2 CRC + caps + typed errors):");
    let corrupt_checkpoints_rejected = checkpoint_rejection_demo(&high, seed ^ 0xc4c);

    FaultReport {
        points,
        healthy_cascade_accuracy,
        low_fault_escalations,
        low_fault_accuracy: low_stats.accuracy(),
        corrupt_checkpoints_rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_degrades_gracefully() {
        let report = fault_injection(18, &[0, 8, 4096], 42);
        assert!(report.corrupt_checkpoints_rejected);
        // Zero faults: cascade matches the healthy run, nothing falls back.
        for p in report.points.iter().filter(|p| p.n_faults == 0) {
            assert_eq!(p.cascade_accuracy, report.healthy_cascade_accuracy);
            assert_eq!(p.cascade_fallbacks, 0);
            assert_eq!(p.baseline_non_finite, 0);
        }
        // Wherever the baseline loses samples to non-finite logits, the
        // cascade falls back and never does worse.
        for p in report.points.iter().filter(|p| p.baseline_non_finite > 0) {
            let at = format!("{} x{}", p.kind.label(), p.n_faults);
            assert!(p.cascade_fallbacks > 0, "{at}: the cascade never fell back");
            assert!(
                p.cascade_accuracy >= p.baseline_accuracy,
                "{at}: degraded cascade ({:.3}) below baseline ({:.3})",
                p.cascade_accuracy,
                p.baseline_accuracy
            );
        }
        // Saturating NaN faults: the baseline loses every sample, the
        // cascade falls back for every escalated sample and keeps the
        // low effort's accuracy (far above zero).
        let nan_heavy = report
            .points
            .iter()
            .find(|p| p.kind == FaultKind::StuckNan && p.n_faults == 4096)
            .expect("sweep point exists");
        assert_eq!(nan_heavy.baseline_non_finite, 18);
        assert_eq!(nan_heavy.baseline_accuracy, 0.0);
        assert!(nan_heavy.cascade_fallbacks > 0);
        assert!(nan_heavy.cascade_accuracy > 0.0);
        assert!(nan_heavy.cascade_accuracy >= nan_heavy.baseline_accuracy);
        // A fully faulted low effort escalates everything and keeps the
        // healthy high effort's accuracy.
        assert_eq!(report.low_fault_escalations, 18);
        assert!(report.low_fault_accuracy > 0.0);
    }

    #[test]
    fn fault_sweep_is_reproducible_from_the_seed() {
        let a = fault_injection(9, &[2], 7);
        let b = fault_injection(9, &[2], 7);
        assert_eq!(a.points, b.points);
    }
}
