//! Search-machinery cost: path enumeration, Algorithm-1 scoring, and
//! Phase-1 optimal-path selection at DeiT-S and LVViT-S scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pivot_cka::CkaMatrix;
use pivot_core::{path_score, select_optimal_path, Parallelism, PathConfig};
use pivot_tensor::Matrix;

fn synthetic_cka(depth: usize) -> CkaMatrix {
    let mut m = Matrix::zeros(depth, depth);
    for i in 0..depth {
        for j in (i + 1)..depth {
            m[(i, j)] = 0.3 + 0.6 * (j as f32 / depth as f32);
        }
    }
    CkaMatrix::from_matrix(m)
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    group.sample_size(15);

    group.bench_function("enumerate C(12,6)=924 paths", |b| {
        b.iter(|| PathConfig::enumerate(black_box(12), black_box(6)))
    });

    let cka12 = synthetic_cka(12);
    let path = PathConfig::new(12, &[0, 1, 2, 3, 6, 9]);
    group.bench_function("path_score (Algorithm 1)", |b| {
        b.iter(|| path_score(black_box(&path), black_box(&cka12)))
    });

    group.bench_function("phase1 select C(12,6)", |b| {
        b.iter(|| select_optimal_path(black_box(6), black_box(&cka12), Parallelism::Auto))
    });

    let cka16 = synthetic_cka(16);
    group.bench_function("phase1 select C(16,8)=12870", |b| {
        b.iter(|| select_optimal_path(black_box(8), black_box(&cka16), Parallelism::Auto))
    });

    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
