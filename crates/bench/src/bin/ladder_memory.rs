//! Effort-ladder resident memory and checkpoint cold start (see
//! DESIGN.md, "Content-addressed weight sharing"): 2/4/8-level ladders
//! over one backbone, measuring what the shared
//! `PreparedStore` keeps resident versus naive per-level preparation,
//! and `load_prepared`'s checkpoint-to-first-inference latency versus
//! the load-then-prepare path. Writes the report to `BENCH_ladder.json`
//! at the workspace root.
//!
//! `ladder_memory smoke` runs a single timing repetition for CI and
//! asserts only the memory-sharing and bit-identity contracts — the
//! cold-start speedup assertion is reserved for the full run.
fn main() {
    let smoke = std::env::args().any(|a| a == "smoke");
    let reps = if smoke { 1 } else { 5 };
    let report = pivot_bench::experiments::ladder_memory(reps);

    assert!(
        report.bit_identical,
        "load_prepared logits must be bit-identical to load-then-prepare"
    );
    for row in &report.rows {
        assert!(
            row.unique_ratio() <= 1.1,
            "{}-level ladder holds {:.2}x a single backbone (limit 1.1x)",
            row.levels,
            row.unique_ratio()
        );
    }
    if !smoke {
        for row in &report.rows {
            assert!(
                row.cold_start_speedup() >= 1.0,
                "{}-level cold start slower than load+prepare: {:.2}x",
                row.levels,
                row.cold_start_speedup()
            );
        }
    }

    let json = report.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ladder.json");
    std::fs::write(path, json).expect("write BENCH_ladder.json");
    println!("\nwrote {path}");
}
