//! Measures the parallel evaluation engine against sequential execution:
//! cascade `evaluate` over 1000 samples (sequential vs. the worker pool),
//! `Phase2Search::run`, and the cached vs. uncached threshold sweep (see
//! DESIGN.md, "The evaluation engine"). Needs no trained models —
//! throughput and bit-identity do not depend on weights.
fn main() {
    let report = pivot_bench::experiments::parallel_speedup(1000);
    assert!(report.bit_identical, "determinism contract violated");
}
