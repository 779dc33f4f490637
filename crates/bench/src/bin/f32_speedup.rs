//! Dispatched f32 GEMM vs. the naive reference (see DESIGN.md §4f): the
//! packed SIMD microkernel (or the scalar dispatch ladder on non-AVX2
//! hosts) timed against `matmul_naive` at the shapes the tiny ViTs
//! actually execute.
//!
//! Always asserts the numeric contracts — every benched product inside
//! the documented fused-accumulation tolerance, and cascade predictions
//! argmax-identical to the gate replayed by hand from per-sample
//! inference — plus the no-regression timing
//! contract (dispatched never slower than naive at any benched shape;
//! this is the point of dispatching, and it holds on scalar hosts too,
//! where the chosen arm is the same loop as naive). `f32_speedup smoke`
//! runs fewer timing iterations for CI and skips only the SIMD-speedup
//! floor, which is reserved for the full run.
fn main() {
    let smoke = std::env::args().any(|a| a == "smoke");
    let iters = if smoke { 20 } else { 200 };
    let report = pivot_bench::experiments::f32_speedup(iters);
    assert!(
        report.tolerance_ok(),
        "dispatched GEMM deviates {:.3}x the documented fused tolerance",
        report.max_tolerance_ratio
    );
    assert!(
        report.argmax_identical(),
        "cascade diverged from the hand-replayed gate: {}/{} agree",
        report.cascade_agree,
        report.cascade_total
    );
    assert!(
        report.no_shape_regresses(),
        "dispatched GEMM slower than naive at a benched shape (min speedup {:.2}x)",
        report.min_speedup()
    );
    println!(
        "\ndispatched f32 GEMM: {:.2}x minimum speedup over naive across benched shapes",
        report.min_speedup()
    );
    // On SIMD hosts the microkernel's worst benched shape still clears
    // 2x in isolation (see BENCH_matmul); the floor leaves slack for a
    // loaded machine.
    if !smoke && report.simd {
        assert!(
            report.min_speedup() >= 1.5,
            "SIMD GEMM only {:.2}x faster than naive at its worst benched shape",
            report.min_speedup()
        );
    }
}
