//! Microbenchmarks of the non-GEMM kernels: exp, softmax, entropy, GELU,
//! LayerNorm.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pivot_nn::{normalized_entropy, LayerNorm};
use pivot_tensor::{exp, gelu_in_place, softmax_row, softmax_row_in_place, Matrix, Rng};

fn bench_nonlinear(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let mut group = c.benchmark_group("nonlinear");
    group.sample_size(30);

    // One call at a time: the scalar instantiation, inlined into this crate.
    let xs: Vec<f32> = (0..4096).map(|_| 4.0 * rng.normal()).collect();
    group.bench_function("exp scalar (4096)", |b| {
        b.iter(|| xs.iter().map(|&x| exp(black_box(x))).sum::<f32>())
    });

    let row197: Vec<f32> = (0..197).map(|_| rng.normal()).collect();
    group.bench_function("softmax_row (197)", |b| {
        b.iter(|| softmax_row(black_box(&row197)))
    });
    // The attention core's form, at the benchmark's two row widths. The
    // routine is branch-free, so its time does not depend on the values:
    // the row is softmaxed over and over rather than refilled (a refill
    // just before the call would add a store-forwarding stall).
    for width in [17usize, 197] {
        let mut row = row197[..width].to_vec();
        group.bench_function(format!("softmax_row_in_place ({width})"), |b| {
            b.iter(|| softmax_row_in_place(black_box(&mut row)))
        });
    }

    let logits = Matrix::randn(1, 1000, 1.0, &mut rng);
    group.bench_function("normalized_entropy (K=1000)", |b| {
        b.iter(|| normalized_entropy(black_box(&logits)))
    });

    let logits10 = Matrix::randn(1, 10, 1.0, &mut rng);
    group.bench_function("normalized_entropy (K=10)", |b| {
        b.iter(|| normalized_entropy(black_box(&logits10)))
    });

    // The MLP's hidden activations: one image at 17 tokens x 128, and a
    // batch of 2 at DeiT-S's 197 tokens x 1536. The clone is part of the
    // reading (an activated buffer is not a pre-activation).
    for (rows, hidden) in [(17usize, 128usize), (394, 1536)] {
        let pre = Matrix::randn(rows, hidden, 1.0, &mut rng);
        group.bench_function(format!("gelu_in_place ({rows}x{hidden})"), |b| {
            b.iter(|| {
                let mut act = black_box(&pre).clone();
                gelu_in_place(act.as_mut_slice());
                act
            })
        });
    }

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
