//! ViT inference cost at different efforts — PIVOT's core claim measured
//! on our own runtime: skipping attention modules is a *general-purpose*
//! speedup (no special kernels required).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pivot_nn::{MultiHeadAttention, QuantMode};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{VisionTransformer, VitConfig};

fn bench_forward(c: &mut Criterion) {
    let cfg = VitConfig::tiny();
    let mut model = VisionTransformer::new(&cfg, &mut Rng::new(0));
    let mut rng = Rng::new(1);
    let image = Matrix::rand_uniform(32, 32, 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("vit_forward");
    group.sample_size(20);

    for effort in [12usize, 9, 6, 3] {
        let active: Vec<usize> = (0..effort).collect();
        model.set_active_attentions(&active);
        let snapshot = model.clone();
        group.bench_function(format!("tiny-deit effort {effort}"), |b| {
            b.iter(|| snapshot.infer(black_box(&image)))
        });
    }

    // Traced forward (CKA capture) overhead.
    model.set_active_attentions(&(0..12).collect::<Vec<_>>());
    let full = model.clone();
    group.bench_function("tiny-deit traced forward", |b| {
        b.iter(|| full.infer_traced(black_box(&image)))
    });

    // The attention branch alone at the benchmark's two geometries: a
    // serving batch of 16 at 17 tokens, and 2 samples at DeiT-S's 197.
    for (cfg, batch) in [(VitConfig::tiny(), 16usize), (VitConfig::deit_s(), 2)] {
        let (tokens, dim) = (cfg.tokens(), cfg.dim);
        let attn = MultiHeadAttention::new(dim, cfg.heads, QuantMode::None, &mut rng).prepare();
        let x = Matrix::randn(batch * tokens, dim, 1.0, &mut rng);
        group.bench_function(
            format!("PreparedAttention::infer_batch ({tokens} tok x{batch})"),
            |b| b.iter(|| attn.infer_batch(black_box(&x), tokens)),
        );
    }

    group.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
