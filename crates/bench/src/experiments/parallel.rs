//! Parallel evaluation-engine throughput: sequential vs. worker-pool
//! wall-clock for the hot host-side loops (cascade `evaluate`, Phase-2
//! search, threshold sweeps).
//!
//! This is part of this reproduction's performance trajectory rather than
//! a paper figure: PIVOT's Phase-2 search is hardware-in-the-loop, so the
//! host-side orchestration must not be the bottleneck. The experiment
//! also verifies the engine's determinism contract — every parallel
//! result must be **bit-identical** to its sequential counterpart.

use crate::Table;
use pivot_core::{
    EffortModel, MultiEffortVit, Parallelism, PathConfig, Phase2Config, Phase2Search,
};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_nn::QuantMode;
use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot_tensor::Rng;
use pivot_vit::{VisionTransformer, VitConfig};
use std::time::Instant;

/// Wall-clock comparison of sequential vs. parallel evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelSpeedup {
    /// Worker count the parallel runs used (`Parallelism::Auto`).
    pub workers: usize,
    /// Sequential cascade `evaluate` over the sample set (ms).
    pub evaluate_seq_ms: f64,
    /// Parallel cascade `evaluate` over the same set (ms).
    pub evaluate_par_ms: f64,
    /// Sequential `Phase2Search::run` (ms).
    pub phase2_seq_ms: f64,
    /// Parallel `Phase2Search::run` (ms).
    pub phase2_par_ms: f64,
    /// Threshold sweep re-running inference per threshold, the
    /// pre-cache behavior (ms).
    pub sweep_uncached_ms: f64,
    /// The same sweep through one `CascadeCache` build (ms).
    pub sweep_cached_ms: f64,
    /// Whether every parallel result was bit-identical to sequential.
    pub bit_identical: bool,
}

impl ParallelSpeedup {
    /// Sequential-over-parallel speedup of cascade `evaluate`.
    pub fn evaluate_speedup(&self) -> f64 {
        self.evaluate_seq_ms / self.evaluate_par_ms.max(1e-9)
    }

    /// Sequential-over-parallel speedup of the Phase-2 search.
    pub fn phase2_speedup(&self) -> f64 {
        self.phase2_seq_ms / self.phase2_par_ms.max(1e-9)
    }

    /// Uncached-over-cached speedup of the threshold sweep.
    pub fn sweep_speedup(&self) -> f64 {
        self.sweep_uncached_ms / self.sweep_cached_ms.max(1e-9)
    }
}

fn build_efforts(depth: usize, efforts: &[usize], seed: u64) -> Vec<EffortModel> {
    let cfg = VitConfig {
        depth,
        ..VitConfig::test_small()
    };
    let mut base = VisionTransformer::new(&cfg, &mut Rng::new(seed));
    // Deployment numerics: the paper runs every effort 8-bit quantized
    // (Section 4.1), so the throughput comparison uses Int8 weights.
    base.set_quant_mode(QuantMode::Int8);
    efforts
        .iter()
        .map(|&e| {
            let active: Vec<usize> = (0..e).collect();
            let path = PathConfig::new(depth, &active);
            let mut model = base.clone();
            model.set_active_attentions(path.active());
            EffortModel {
                effort: e,
                path,
                score: e as f32,
                model,
            }
        })
        .collect()
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Measures sequential vs. parallel wall-clock of the evaluation engine
/// on `n_samples` synthetic inputs and prints a report. On a single-core
/// host the thread speedups hover around 1.0x (the pool degenerates to
/// the sequential path); only the cache-sweep row wins regardless of core
/// count. On >= 4 cores the thread rows land >= 2x.
pub fn parallel_speedup(n_samples: usize) -> ParallelSpeedup {
    println!("\n=== Parallel evaluation engine: sequential vs. worker pool ===");
    let workers = Parallelism::Auto.workers(usize::MAX);
    println!("host parallelism: {workers} worker(s); {n_samples} samples\n");

    let efforts = build_efforts(12, &[3, 6, 9, 12], 7);
    let samples: Vec<Sample> = Dataset::generate_difficulty_stripes(
        &DatasetConfig::small(),
        &[0.1, 0.5, 0.9],
        n_samples.div_ceil(3),
        21,
    );
    let samples = &samples[..n_samples.min(samples.len())];

    let mut identical = true;

    // 1. Cascade evaluate over the full batch.
    let cascade = MultiEffortVit::new(efforts[1].model.clone(), efforts[3].model.clone(), 0.6);
    let (evaluate_seq_ms, stats_seq) = time_ms(|| cascade.evaluate_with(samples, Parallelism::Off));
    let (evaluate_par_ms, stats_par) =
        time_ms(|| cascade.evaluate_with(samples, Parallelism::Auto));
    identical &= stats_seq == stats_par;

    // 2. Phase-2 hardware-in-the-loop search.
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geom = VitGeometry::deit_s();
    let calibration = &samples[..samples.len().min(256)];
    let cfg = Phase2Config {
        delay_constraint_ms: 60.0,
        ..Default::default()
    };
    let (phase2_seq_ms, result_seq) = time_ms(|| {
        Phase2Search::new(&sim, &geom, &efforts, calibration)
            .with_parallelism(Parallelism::Off)
            .run(&cfg)
    });
    let (phase2_par_ms, result_par) = time_ms(|| {
        Phase2Search::new(&sim, &geom, &efforts, calibration)
            .with_parallelism(Parallelism::Auto)
            .run(&cfg)
    });
    identical &= match (&result_seq, &result_par) {
        (Some(a), Some(b)) => {
            a.stats == b.stats
                && a.threshold.to_bits() == b.threshold.to_bits()
                && a.perf.delay_ms.to_bits() == b.perf.delay_ms.to_bits()
        }
        (None, None) => true,
        _ => false,
    };

    // 3. Threshold sweep: per-threshold re-inference (the pre-cache
    // behavior) vs. one cache build + O(N) queries.
    let thresholds: Vec<f32> = (0..=50).map(|i| i as f32 / 50.0).collect();
    let (sweep_uncached_ms, curve_uncached) = time_ms(|| {
        thresholds
            .iter()
            .map(|&th| cascade.f_low_at(samples, th))
            .collect::<Vec<f64>>()
    });
    let (sweep_cached_ms, curve_cached) =
        time_ms(|| cascade.cache(samples).f_low_curve(&thresholds));
    identical &= curve_uncached == curve_cached;

    let out = ParallelSpeedup {
        workers,
        evaluate_seq_ms,
        evaluate_par_ms,
        phase2_seq_ms,
        phase2_par_ms,
        sweep_uncached_ms,
        sweep_cached_ms,
        bit_identical: identical,
    };

    let mut table = Table::new(&["Workload", "Baseline (ms)", "Optimized (ms)", "Speedup"]);
    table.row_owned(vec![
        format!("cascade evaluate ({} samples)", samples.len()),
        format!("{evaluate_seq_ms:.1}"),
        format!("{evaluate_par_ms:.1}"),
        format!("{:.2}x", out.evaluate_speedup()),
    ]);
    table.row_owned(vec![
        format!("Phase2Search::run ({} calib)", calibration.len()),
        format!("{phase2_seq_ms:.1}"),
        format!("{phase2_par_ms:.1}"),
        format!("{:.2}x", out.phase2_speedup()),
    ]);
    table.row_owned(vec![
        format!(
            "F_L sweep, {} thresholds (uncached vs cache)",
            thresholds.len()
        ),
        format!("{sweep_uncached_ms:.1}"),
        format!("{sweep_cached_ms:.1}"),
        format!("{:.2}x", out.sweep_speedup()),
    ]);
    println!("{table}");
    println!(
        "parallel results bit-identical to sequential: {}",
        if identical {
            "yes"
        } else {
            "NO — DETERMINISM VIOLATED"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_report_is_identical_and_finite() {
        // Small sample count: this validates wiring and the determinism
        // contract, not throughput.
        let report = parallel_speedup(24);
        assert!(
            report.bit_identical,
            "parallel results must be bit-identical"
        );
        assert!(report.evaluate_seq_ms >= 0.0);
        assert!(report.workers >= 1);
        // The cached sweep can never be slower than ~the uncached one
        // plus noise; with 51 thresholds it should win clearly even on
        // one core.
        assert!(report.sweep_cached_ms < report.sweep_uncached_ms);
    }

    /// Multi-core throughput smoke test (`cargo test -- --ignored`): on
    /// hosts with >= 4 cores the multi-worker evaluation at 1000 samples
    /// must beat sequential by >= 2x. Ignored by
    /// default because it takes tens of seconds and its timing assertions
    /// are load-sensitive. The thread-scaling assertion self-skips on
    /// small hosts (it cannot hold on 1–3 cores), so the test can be
    /// wired into multi-core CI without failing on single-core runners.
    #[test]
    #[ignore = "throughput smoke test; run explicitly with --ignored"]
    fn parallel_speedup_smoke() {
        let report = parallel_speedup(1000);
        assert!(
            report.bit_identical,
            "parallel results must be bit-identical"
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 4 {
            assert!(
                report.evaluate_speedup() >= 2.0,
                "parallel evaluation only {:.2}x faster than sequential on {cores} cores",
                report.evaluate_speedup()
            );
        } else {
            println!(
                "skipping thread-scaling assertion: {cores} core(s) available, need >= 4 \
                 (measured {:.2}x)",
                report.evaluate_speedup()
            );
        }
    }
}
