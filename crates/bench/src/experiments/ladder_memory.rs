//! Effort-ladder memory footprint and checkpoint cold start.
//!
//! This is part of this reproduction's performance trajectory rather than
//! a paper figure. PIVOT's effort ladders derive every level from **one**
//! backbone by masking attention modules, so an `N`-level deployment
//! logically needs ~1x the backbone weights — but a naive implementation
//! prepares each level independently and holds `N`x. The experiment
//! measures what the content-addressed [`pivot_vit::PreparedStore`]
//! actually keeps resident for 2/4/8-level ladders, and the
//! checkpoint-to-first-inference cold-start latency of
//! [`pivot_vit::VisionTransformer::load_prepared`] (parse once, build the
//! frozen view directly, re-view per level) against the classic
//! load -> clone -> mask -> prepare-per-level path. Both paths must be
//! bit-identical; the delta is pure overhead.

use crate::Table;
use pivot_core::EffortLadder;
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{PreparedModel, VisionTransformer, VitConfig};
use std::time::Instant;

/// Encoder depth of the benchmark backbone: deep enough for an 8-level
/// ladder with a distinct effort per level.
pub const LADDER_DEPTH: usize = 8;

/// Memory and cold-start measurements for one ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderMemoryRow {
    /// Number of ladder levels.
    pub levels: usize,
    /// Prepared weight bytes of a single level (the backbone footprint).
    pub single_weight_bytes: usize,
    /// Naive per-level sum — what independent preparation would hold.
    pub total_weight_bytes: usize,
    /// Bytes actually resident with every Arc-shared layer counted once.
    pub unique_weight_bytes: usize,
    /// Store hits while preparing the ladder (layers served by sharing).
    pub store_hits: usize,
    /// Store misses (layers materialized).
    pub store_misses: usize,
    /// Checkpoint -> `load_prepared` -> per-level re-view -> first
    /// inference at every level (ms, best of the configured repetitions).
    pub cold_prepared_ms: f64,
    /// Checkpoint -> `load` -> per-level clone + mask + prepare -> first
    /// inference at every level (ms, best of the configured repetitions).
    pub cold_baseline_ms: f64,
}

impl LadderMemoryRow {
    /// Resident bytes over the single-level footprint. The contract the
    /// CI smoke asserts: an `N`-level ladder stays within 1.1x of one
    /// backbone (same-backbone levels share everything, so it is 1.0x).
    pub fn unique_ratio(&self) -> f64 {
        self.unique_weight_bytes as f64 / self.single_weight_bytes as f64
    }

    /// Naive-over-resident memory reduction (~`N`x for `N` levels).
    pub fn memory_reduction(&self) -> f64 {
        self.total_weight_bytes as f64 / self.unique_weight_bytes.max(1) as f64
    }

    /// Baseline-over-prepared cold-start speedup.
    pub fn cold_start_speedup(&self) -> f64 {
        self.cold_baseline_ms / self.cold_prepared_ms.max(1e-9)
    }
}

/// Full report: one row per ladder size.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderMemory {
    /// Rows for 2/4/8 levels.
    pub rows: Vec<LadderMemoryRow>,
    /// Whether the fast cold-start path produced logits bit-identical to
    /// load-then-prepare at every level of every ladder.
    pub bit_identical: bool,
}

impl LadderMemory {
    /// Serializes the report as a JSON array (for `BENCH_ladder.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"levels\": {}, \
                 \"single_weight_bytes\": {}, \"total_weight_bytes\": {}, \
                 \"unique_weight_bytes\": {}, \"unique_ratio\": {:.4}, \
                 \"memory_reduction\": {:.2}, \"cold_prepared_ms\": {:.3}, \
                 \"cold_baseline_ms\": {:.3}, \"cold_start_speedup\": {:.2}, \
                 \"bit_identical\": {}}}{}\n",
                r.levels,
                r.single_weight_bytes,
                r.total_weight_bytes,
                r.unique_weight_bytes,
                r.unique_ratio(),
                r.memory_reduction(),
                r.cold_prepared_ms,
                r.cold_baseline_ms,
                r.cold_start_speedup(),
                self.bit_identical,
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Evenly spaced effort sizes for an `n`-level ladder over the depth-8
/// backbone: `[4, 8]`, `[2, 4, 6, 8]`, `[1..=8]`.
fn level_efforts(n: usize) -> Vec<usize> {
    (1..=n).map(|i| i * LADDER_DEPTH / n).collect()
}

fn active(effort: usize) -> Vec<usize> {
    (0..effort).collect()
}

fn time_best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("at least one repetition"))
}

/// Measures ladder memory dedup and checkpoint cold start; timing rows
/// report the best of `reps` repetitions (use 1 for smoke wiring checks,
/// more for stable numbers) and prints a report.
pub fn ladder_memory(reps: usize) -> LadderMemory {
    println!("\n=== Effort-ladder memory footprint & checkpoint cold start ===");
    let cfg = VitConfig {
        name: "ladder-mem".to_string(),
        depth: LADDER_DEPTH,
        ..VitConfig::test_small()
    };
    let backbone = VisionTransformer::new(&cfg, &mut Rng::new(42));
    let ckpt = std::env::temp_dir().join(format!("pivot_ladder_memory_{}.bin", std::process::id()));
    backbone.save(&ckpt).expect("save benchmark checkpoint");
    let image = Matrix::from_fn(cfg.image_size, cfg.image_size, |r, c| {
        ((r * 31 + c * 7) as f32) / 331.0 - 0.5
    });

    let mut rows = Vec::new();
    let mut bit_identical = true;
    for &n in &[2usize, 4, 8] {
        // Resident-memory accounting through the ladder's shared store.
        let levels: Vec<VisionTransformer> = level_efforts(n)
            .iter()
            .map(|&e| {
                let mut m = backbone.clone();
                m.set_active_attentions(&active(e));
                m
            })
            .collect();
        let ladder = EffortLadder::new(levels, vec![0.5; n - 1]);
        let stats = ladder.share_stats();

        // Cold start A: parse the checkpoint once into a prepared
        // view, derive every level as a cheap Arc re-view, first
        // inference at each level.
        let (cold_prepared_ms, fast_logits) = time_best_ms(reps, || {
            let base = VisionTransformer::load_prepared(&ckpt).expect("load_prepared");
            level_efforts(n)
                .iter()
                .map(|&e| base.with_active_attentions(&active(e)).infer(&image))
                .collect::<Vec<Matrix>>()
        });

        // Cold start B: the classic path — load the mutable model,
        // then clone + mask + prepare per level.
        let (cold_baseline_ms, slow_logits) = time_best_ms(reps, || {
            let model = VisionTransformer::load(&ckpt).expect("load");
            let views: Vec<PreparedModel> = level_efforts(n)
                .iter()
                .map(|&e| {
                    let mut m = model.clone();
                    m.set_active_attentions(&active(e));
                    m.prepare()
                })
                .collect();
            views
                .iter()
                .map(|v| v.infer(&image))
                .collect::<Vec<Matrix>>()
        });

        for (a, b) in fast_logits.iter().zip(&slow_logits) {
            bit_identical &= a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        }

        rows.push(LadderMemoryRow {
            levels: n,
            single_weight_bytes: ladder.prepared_levels()[0].weight_bytes(),
            total_weight_bytes: ladder.weight_bytes(),
            unique_weight_bytes: ladder.unique_weight_bytes(),
            store_hits: stats.hits,
            store_misses: stats.misses,
            cold_prepared_ms,
            cold_baseline_ms,
        });
    }
    std::fs::remove_file(&ckpt).ok();

    let mut table = Table::new(&[
        "Levels",
        "Naive (KiB)",
        "Resident (KiB)",
        "Ratio vs 1 level",
        "Cold start (ms)",
        "vs load+prepare",
    ]);
    for r in &rows {
        table.row_owned(vec![
            format!("{}", r.levels),
            format!("{:.1}", r.total_weight_bytes as f64 / 1024.0),
            format!("{:.1}", r.unique_weight_bytes as f64 / 1024.0),
            format!("{:.2}x", r.unique_ratio()),
            format!("{:.2}", r.cold_prepared_ms),
            format!("{:.2}x", r.cold_start_speedup()),
        ]);
    }
    println!("{table}");
    println!(
        "fast cold-start logits bit-identical to load-then-prepare: {}",
        if bit_identical {
            "yes"
        } else {
            "NO — CONTRACT VIOLATED"
        }
    );

    LadderMemory {
        rows,
        bit_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_memory_meets_the_sharing_and_identity_contract() {
        let report = ladder_memory(1);
        assert!(report.bit_identical, "cold-start paths must agree bitwise");
        assert_eq!(report.rows.len(), 3, "2/4/8 levels");
        for r in &report.rows {
            // Naive footprint is exactly N independent copies...
            assert_eq!(r.total_weight_bytes, r.levels * r.single_weight_bytes);
            // ...but one backbone's worth stays resident (the CI contract
            // allows 1.1x; same-backbone ladders achieve exactly 1.0x).
            assert_eq!(r.unique_weight_bytes, r.single_weight_bytes);
            assert!(
                r.unique_ratio() <= 1.1,
                "{} levels: {}",
                r.levels,
                r.unique_ratio()
            );
            // Every level past the first hits the store on every layer.
            assert_eq!(r.store_hits, (r.levels - 1) * r.store_misses);
            assert!(r.cold_prepared_ms > 0.0 && r.cold_baseline_ms > 0.0);
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = LadderMemory {
            rows: vec![LadderMemoryRow {
                levels: 2,
                single_weight_bytes: 100,
                total_weight_bytes: 200,
                unique_weight_bytes: 100,
                store_hits: 10,
                store_misses: 10,
                cold_prepared_ms: 1.0,
                cold_baseline_ms: 2.0,
            }],
            bit_identical: true,
        };
        let json = report.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"levels\": 2"));
        assert!(json.contains("\"unique_ratio\": 1.0000"));
        assert!(json.contains("\"cold_start_speedup\": 2.00"));
        assert!(json.trim_end().ends_with(']'));
    }
}
