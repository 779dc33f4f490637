//! Cascade inference cost: easy inputs (low effort only) vs hard inputs
//! (low + high re-computation) vs always-full baseline, plus the batched
//! evaluation engine sequential vs. parallel.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pivot_core::{CascadeCache, EffortLadder, Parallelism};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{VisionTransformer, VitConfig};

fn bench_cascade(c: &mut Criterion) {
    let cfg = VitConfig::tiny();
    let mut low = VisionTransformer::new(&cfg, &mut Rng::new(0));
    low.set_active_attentions(&[0, 1, 2]);
    let high = VisionTransformer::new(&cfg, &mut Rng::new(0));
    let mut rng = Rng::new(2);
    let image = Matrix::rand_uniform(32, 32, 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("cascade");
    group.sample_size(20);

    // Threshold 1.0: every input exits at the low effort (easy-path cost).
    let easy_gate = EffortLadder::new(vec![low.clone(), high.clone()], vec![1.0]);
    group.bench_function("low-exit inference", |b| {
        b.iter(|| easy_gate.infer(black_box(&image)))
    });

    // Threshold 0.0: every input escalates (worst-case re-computation).
    let hard_gate = EffortLadder::new(vec![low.clone(), high.clone()], vec![0.0]);
    group.bench_function("escalated inference", |b| {
        b.iter(|| hard_gate.infer(black_box(&image)))
    });

    // The always-full baseline for comparison.
    group.bench_function("baseline full ViT", |b| {
        b.iter(|| high.infer(black_box(&image)))
    });

    group.finish();
}

/// Batched evaluation throughput: the sequential loop vs. `par_map`'s
/// scoped workers, and the per-threshold sweep vs. one `CascadeCache`. The
/// parallel variants are bit-identical to sequential by contract, so
/// this group measures pure engine overhead/speedup.
fn bench_batched_evaluation(c: &mut Criterion) {
    let cfg = VitConfig::test_small();
    let mut low = VisionTransformer::new(&cfg, &mut Rng::new(0));
    low.set_active_attentions(&[0, 1]);
    let high = VisionTransformer::new(&cfg, &mut Rng::new(0));
    let cascade = EffortLadder::new(vec![low, high], vec![0.6]);
    let low = &cascade.prepared_levels()[0];

    let samples: Vec<Sample> =
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.1, 0.5, 0.9], 32, 21);

    let mut group = c.benchmark_group("batched-evaluation");
    group.sample_size(10);

    group.bench_function("evaluate sequential", |b| {
        b.iter(|| cascade.evaluate(black_box(&samples), Parallelism::Off))
    });
    group.bench_function("evaluate parallel", |b| {
        b.iter(|| cascade.evaluate(black_box(&samples), Parallelism::Auto))
    });

    let thresholds: Vec<f32> = (0..=20).map(|i| i as f32 / 20.0).collect();
    group.bench_function("F_L sweep uncached", |b| {
        b.iter(|| {
            thresholds
                .iter()
                .map(|&th| {
                    CascadeCache::build_prepared(low, black_box(&samples), Parallelism::Auto)
                        .f_low_at(th)
                })
                .collect::<Vec<f64>>()
        })
    });
    group.bench_function("F_L sweep via cache", |b| {
        b.iter(|| {
            let cache = CascadeCache::build_prepared(low, black_box(&samples), Parallelism::Auto);
            thresholds
                .iter()
                .map(|&th| cache.f_low_at(th))
                .collect::<Vec<f64>>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cascade, bench_batched_evaluation);
criterion_main!(benches);
