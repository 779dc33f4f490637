//! Microbenchmarks of the non-GEMM kernels: softmax, entropy, GELU,
//! LayerNorm.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pivot_nn::{normalized_entropy, LayerNorm};
use pivot_tensor::{gelu, softmax_row, Matrix, Rng};

fn bench_nonlinear(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let mut group = c.benchmark_group("nonlinear");
    group.sample_size(30);

    let row197: Vec<f32> = (0..197).map(|_| rng.normal()).collect();
    group.bench_function("softmax_row (197)", |b| {
        b.iter(|| softmax_row(black_box(&row197)))
    });

    let logits = Matrix::randn(1, 1000, 1.0, &mut rng);
    group.bench_function("normalized_entropy (K=1000)", |b| {
        b.iter(|| normalized_entropy(black_box(&logits)))
    });

    let logits10 = Matrix::randn(1, 10, 1.0, &mut rng);
    group.bench_function("normalized_entropy (K=10)", |b| {
        b.iter(|| normalized_entropy(black_box(&logits10)))
    });

    let acts = Matrix::randn(17, 128, 1.0, &mut rng);
    group.bench_function("gelu map (17x128)", |b| {
        b.iter(|| black_box(&acts).map(gelu))
    });

    // The two LayerNorm shapes of the benchmark's workloads: a batch of 16
    // at 17 tokens x 64, and a batch of 2 at DeiT-S's 197 tokens x 384.
    for (rows, dim) in [(272usize, 64usize), (394, 384)] {
        let norm = LayerNorm::new(dim);
        let x = Matrix::randn(rows, dim, 1.0, &mut rng);
        group.bench_function(format!("LayerNorm::infer ({rows}x{dim})"), |b| {
            b.iter(|| norm.infer(black_box(&x)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_nonlinear);
criterion_main!(benches);
