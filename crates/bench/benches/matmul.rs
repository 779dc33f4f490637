//! Microbenchmarks of the dense matmul kernels under `pivot-tensor`,
//! at the shapes the tiny ViTs actually execute: naive reference vs. the
//! dispatched f32 GEMM (pack → the host's one kernel: the AVX2+FMA
//! microkernel, or the scalar panel kernel elsewhere) vs. one wide GEMM
//! over a stacked batch, plus the prepacked-weight path and the
//! packed-int8 quantized GEMM against the f32 kernels on the same shapes.
//! Results are written to `BENCH_matmul.json` at the workspace root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pivot_tensor::{matmul_quantized_into, Matrix, PackedF32, PackedInt8, Rng};

/// Samples stacked into the wide-GEMM comparison (matches
/// `pivot_core::EVAL_BATCH`).
const BATCH: usize = 32;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(0);
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);

    // Tiny-ViT projection: tokens x dim * dim x dim, naive vs dispatched.
    let x17 = Matrix::randn(17, 64, 1.0, &mut rng);
    let w64 = Matrix::randn(64, 64, 1.0, &mut rng);
    group.bench_function("naive 17x64 * 64x64 (qkv slice)", |b| {
        b.iter(|| black_box(&x17).matmul_naive(black_box(&w64)))
    });
    group.bench_function("dispatched 17x64 * 64x64 (qkv slice)", |b| {
        b.iter(|| black_box(&x17).matmul(black_box(&w64)))
    });

    // MLP expansion.
    let w_up = Matrix::randn(64, 128, 1.0, &mut rng);
    group.bench_function("naive 17x64 * 64x128 (mlp fc1)", |b| {
        b.iter(|| black_box(&x17).matmul_naive(black_box(&w_up)))
    });
    group.bench_function("dispatched 17x64 * 64x128 (mlp fc1)", |b| {
        b.iter(|| black_box(&x17).matmul(black_box(&w_up)))
    });

    // A square GEMM wider than the batched shapes' reduction and output.
    let sq = 96;
    let a_sq = Matrix::randn(sq, sq, 1.0, &mut rng);
    let b_sq = Matrix::randn(sq, sq, 1.0, &mut rng);
    group.bench_function(format!("naive {sq}x{sq} * {sq}x{sq}"), |b| {
        b.iter(|| black_box(&a_sq).matmul_naive(black_box(&b_sq)))
    });
    group.bench_function(format!("dispatched {sq}x{sq} * {sq}x{sq}"), |b| {
        b.iter(|| black_box(&a_sq).matmul(black_box(&b_sq)))
    });

    // Batched: BATCH per-sample GEMMs vs. one wide GEMM over the stack —
    // the comparison `forward_batch` makes per layer.
    let samples: Vec<Matrix> = (0..BATCH)
        .map(|_| Matrix::randn(17, 64, 1.0, &mut rng))
        .collect();
    let stacked = Matrix::from_vec(
        BATCH * 17,
        64,
        samples.iter().flat_map(|s| s.as_slice()).copied().collect(),
    );
    group.bench_function(format!("per-sample {BATCH} x (17x64 * 64x64)"), |b| {
        b.iter(|| {
            for s in black_box(&samples) {
                black_box(s.matmul(&w64));
            }
        })
    });
    group.bench_function(
        format!("batched {}x64 * 64x64 (one GEMM)", BATCH * 17),
        |b| b.iter(|| black_box(&stacked).matmul(black_box(&w64))),
    );

    // Buffer-reusing variant: no output allocation per call.
    let mut out = Matrix::zeros(BATCH * 17, 64);
    group.bench_function(
        format!("batched {}x64 * 64x64 (matmul_into)", BATCH * 17),
        |b| b.iter(|| black_box(&stacked).matmul_into(black_box(&w64), &mut out)),
    );
    // Naive reference at the batched shape — the ISSUE-7 speedup target
    // and the floor the dispatched kernel must never fall below.
    group.bench_function(format!("naive {}x64 * 64x64 (batched)", BATCH * 17), |b| {
        b.iter(|| black_box(&stacked).matmul_naive(black_box(&w64)))
    });
    // Weight prepacked once (the PreparedLinear fast path): the same
    // kernel as matmul_into with the per-call pack hoisted out.
    let packed_f32 = PackedF32::pack(&w64);
    group.bench_function(
        format!(
            "prepacked {}x64 * 64x64 (matmul_prepacked_into)",
            BATCH * 17
        ),
        |b| b.iter(|| black_box(&stacked).matmul_prepacked_into(black_box(&packed_f32), &mut out)),
    );
    group.bench_function("pack 64x64 weights (f32 panels)", |b| {
        b.iter(|| black_box(PackedF32::pack(black_box(&w64))))
    });

    // Packed int8 GEMM vs. the f32 kernels on the same shapes: the
    // per-row activation quantization + i8xi8->i32 sweep + requantization
    // against f32 `matmul_into` over identical operands. The pack row
    // prices the one-off weight quantization the prepared view amortizes.
    let packed = PackedInt8::pack(&w64);
    let mut out17 = Matrix::zeros(17, 64);
    group.bench_function("int8 17x64 * 64x64 (quantized qkv slice)", |b| {
        b.iter(|| matmul_quantized_into(black_box(&x17), black_box(&packed), &mut out17))
    });
    group.bench_function(
        format!("int8 {}x64 * 64x64 (quantized batched)", BATCH * 17),
        |b| b.iter(|| matmul_quantized_into(black_box(&stacked), black_box(&packed), &mut out)),
    );
    group.bench_function("pack 64x64 weights (int8 panels)", |b| {
        b.iter(|| black_box(PackedInt8::pack(black_box(&w64))))
    });

    // Attention scores via the no-transpose kernel.
    let q = Matrix::randn(17, 16, 1.0, &mut rng);
    let k = Matrix::randn(17, 16, 1.0, &mut rng);
    group.bench_function("17x16 * (17x16)^T (scores)", |b| {
        b.iter(|| black_box(&q).matmul_transpose_b(black_box(&k)))
    });

    // Gradient-style A^T B.
    let a = Matrix::randn(17, 64, 1.0, &mut rng);
    let g = Matrix::randn(17, 64, 1.0, &mut rng);
    group.bench_function("(17x64)^T * 17x64 (weight grad)", |b| {
        b.iter(|| black_box(&a).matmul_transpose_a(black_box(&g)))
    });

    group.finish();
    c.save_json(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_matmul.json"
    ))
    .expect("write BENCH_matmul.json");
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
