//! Allocation budget of the lean forward: warm inference allocates only
//! its outputs, whatever the batch and head count, and the encoder walk
//! behind `forward_batch` adds nothing per sample.
//!
//! The counter is thread-local, so the test harness's other threads
//! cannot disturb a reading.

use pivot_nn::{LayerNorm, PreparedAttention, PreparedLinear, PreparedMlp, QuantMode};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{VisionTransformer, VitConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a plain
// thread-local `Cell` with a const initializer, so bumping it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

fn linear(rows: usize, cols: usize, rng: &mut Rng) -> PreparedLinear {
    PreparedLinear::from_weights(
        &Matrix::randn(rows, cols, 0.05, rng),
        &Matrix::zeros(1, cols),
        QuantMode::None,
    )
}

fn attention(dim: usize, heads: usize, rng: &mut Rng) -> PreparedAttention {
    let mut linear = || linear(dim, dim, rng);
    PreparedAttention::from_parts(linear(), linear(), linear(), linear(), heads)
}

#[test]
fn warm_attention_allocates_only_its_outputs_for_any_batch_and_head_count() {
    let (tokens, dim) = (17, 48);
    let mut rng = Rng::new(1);
    let mut counts = Vec::new();
    for heads in [1, 4, 6] {
        let attn = attention(dim, heads, &mut rng);
        for batch in [1, 16] {
            let x = Matrix::randn(batch * tokens, dim, 1.0, &mut rng);
            // Warm-up grows this thread's scratch to its high-water mark.
            let _ = attn.infer_batch(&x, tokens);
            counts.push((
                heads,
                batch,
                allocations_of(|| attn.infer_batch(&x, tokens)),
            ));
        }
    }
    // One product per projection, its bias added in place, and the
    // context matrix; nothing per sample, per head or per score row.
    for (heads, batch, n) in counts {
        assert_eq!(n, 5, "heads {heads}, batch {batch}");
    }
}

#[test]
fn warm_mlp_allocates_one_block_per_projection_for_any_batch() {
    let (tokens, dim, hidden) = (17, 64, 128);
    let mut rng = Rng::new(3);
    let mlp = PreparedMlp::from_parts(linear(dim, hidden, &mut rng), linear(hidden, dim, &mut rng));
    for batch in [1, 16] {
        let x = Matrix::randn(batch * tokens, dim, 1.0, &mut rng);
        let _ = mlp.infer(&x);
        // One product per projection; the biases, and GELU after `fc1`'s,
        // run in place on them.
        assert_eq!(allocations_of(|| mlp.infer(&x)), 2, "batch {batch}");
    }
}

#[test]
fn warm_layer_norm_allocates_exactly_its_output() {
    let norm = LayerNorm::new(64);
    let x = Matrix::randn(272, 64, 1.0, &mut Rng::new(2));
    let _ = norm.infer(&x);
    assert_eq!(allocations_of(|| norm.infer(&x)), 1);
}

#[test]
fn warm_forward_batch_allocates_per_stage_not_per_sample() {
    let cfg = VitConfig::tiny();
    let mut rng = Rng::new(4);
    let mut model = VisionTransformer::new(&cfg, &mut rng);
    // A skipped attention runs no attention stage: 12 blocks with 3 active
    // attentions, then with all 12.
    for (active, want) in [(3, 69), (12, 114)] {
        model.set_active_attentions(&(0..active).collect::<Vec<_>>());
        let prepared = model.prepare();
        for batch in [1, 16] {
            let images: Vec<Matrix> = (0..batch)
                .map(|_| Matrix::rand_uniform(cfg.image_size, cfg.image_size, 0.0, 1.0, &mut rng))
                .collect();
            let _ = prepared.forward_batch(&images);
            assert_eq!(
                allocations_of(|| prepared.forward_batch(&images)),
                want,
                "{active} active attentions, batch {batch}"
            );
        }
    }
}
