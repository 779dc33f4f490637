//! Allocation budget of the lean forward: warm inference allocates only
//! its outputs, whatever the batch and head count; an encoder block runs
//! in place on per-thread buffers and allocates nothing; and the encoder
//! walk behind `forward_batch`, per-sample `infer` and HeatViT's pruned
//! forward allocates the same few buffers at any depth, effort and batch,
//! so a warm batch takes no page faults.
//!
//! Both counters are per thread, so the test harness's other threads
//! cannot disturb a reading.

use pivot::baselines::{HeatVit, HeatVitConfig};
use pivot::nn::{
    EncoderBlock, LayerNorm, PreparedAttention, PreparedLinear, PreparedMlp, QuantMode,
};
use pivot::tensor::{Matrix, Rng};
use pivot::vit::{PreparedModel, VisionTransformer, VitConfig};
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
    // The projections, the context and the scores live in per-thread
    // buffers: the copy of the result is the one allocation, with nothing
    // per sample, per head or per score row.
    for (heads, batch, n) in counts {
        assert_eq!(n, 1, "heads {heads}, batch {batch}");
    }
}

#[test]
fn warm_mlp_allocates_only_its_output_for_any_batch() {
    let (tokens, dim, hidden) = (17, 64, 128);
    let mut rng = Rng::new(3);
    let mlp = PreparedMlp::from_parts(linear(dim, hidden, &mut rng), linear(hidden, dim, &mut rng));
    for batch in [1, 16] {
        let x = Matrix::randn(batch * tokens, dim, 1.0, &mut rng);
        let _ = mlp.infer(&x);
        // The hidden layer lives in a per-thread buffer; the biases, and
        // GELU after `fc1`'s, run in place on the products.
        assert_eq!(allocations_of(|| mlp.infer(&x)), 1, "batch {batch}");
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
fn warm_block_in_place_allocates_nothing() {
    let (tokens, dim, heads, hidden) = (17, 64, 4, 128);
    let mut rng = Rng::new(5);
    let mut block = EncoderBlock::new(dim, heads, hidden, QuantMode::None, &mut rng);
    for active in [true, false] {
        block.set_attention_active(active);
        let prepared = block.prepare();
        for batch in [1, 16, 32] {
            let mut x = Matrix::randn(batch * tokens, dim, 1.0, &mut rng);
            let run = |x: &mut Matrix| prepared.infer_batch_in_place(x, tokens, |_| {}, |_| {});
            run(&mut x);
            assert_eq!(
                allocations_of(|| run(&mut x)),
                0,
                "attention active {active}, batch {batch}"
            );
        }
    }
}

/// A `config` model with its first `active` attentions on, prepared.
fn prepared(config: &VitConfig, active: usize, rng: &mut Rng) -> PreparedModel {
    let mut model = VisionTransformer::new(config, rng);
    model.set_active_attentions(&(0..active).collect::<Vec<_>>());
    model.prepare()
}

fn images(config: &VitConfig, batch: usize, rng: &mut Rng) -> Vec<Matrix> {
    (0..batch)
        .map(|_| Matrix::rand_uniform(config.image_size, config.image_size, 0.0, 1.0, rng))
        .collect()
}

#[test]
fn warm_forward_batch_allocation_count_is_independent_of_depth_effort_and_batch() {
    let mut rng = Rng::new(4);
    // A skipped attention runs no attention stage: depth 12 and 16, with 3
    // active attentions and with all of them, at batch 1, 16 and 32.
    for config in [VitConfig::tiny(), VitConfig::tiny_deep()] {
        for active in [3, config.depth] {
            let model = prepared(&config, active, &mut rng);
            for batch in [1, 16, 32] {
                let images = images(&config, batch, &mut rng);
                let _ = model.forward_batch(&images);
                // The patches, their embedding, the residual stream, the
                // class rows, their final norm and the logits; every
                // block runs in place on per-thread buffers.
                assert_eq!(
                    allocations_of(|| model.forward_batch(&images)),
                    6,
                    "depth {}, {active} active attentions, batch {batch}",
                    config.depth
                );
            }
            // Per-sample `infer` is the same walk over one image.
            let image = &images(&config, 1, &mut rng)[0];
            let _ = model.infer(image);
            assert_eq!(
                allocations_of(|| model.infer(image)),
                6,
                "depth {}, {active} active attentions, per-sample infer",
                config.depth
            );
        }
    }
}

#[test]
fn warm_heatvit_forward_allocation_count_is_independent_of_batch() {
    let config = VitConfig::tiny();
    let mut rng = Rng::new(7);
    let model = prepared(&config, 3, &mut rng);
    let heatvit = HeatVit::new(HeatVitConfig::deit_s(), config.depth);
    for batch in [1, 16, 32] {
        let images = images(&config, batch, &mut rng);
        let _ = heatvit.forward_batch(&model, &images);
        // The walk's six, plus the pruning's two scratch buffers (token
        // norms, package sum); every image is pruned in place on the
        // residual stream.
        assert_eq!(
            allocations_of(|| heatvit.forward_batch(&model, &images)),
            8,
            "batch {batch}"
        );
    }
}

/// Minor page faults the calling thread has taken (field 10 of
/// `/proc/thread-self/stat`), or `None` where that file does not exist.
fn thread_minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Field 2, the command name, is parenthesised and may hold spaces:
    // count from the last `)`, after which field 3 comes first.
    let fields = &stat[stat.rfind(')')? + 1..];
    fields.split_whitespace().nth(7)?.parse().ok()
}

#[test]
fn warm_batch_32_forwards_take_no_page_faults() {
    if thread_minor_faults().is_none() {
        eprintln!("skipped: no /proc/thread-self/stat on this host");
        return;
    }
    let config = VitConfig::tiny();
    let mut rng = Rng::new(6);
    let model = prepared(&config, 3, &mut rng);
    let images = images(&config, 32, &mut rng);
    for _ in 0..3 {
        let _ = model.forward_batch(&images);
    }
    // Freed activation buffers of this size go back to the kernel and
    // fault in again on the next block; buffers kept across calls do not.
    let before = thread_minor_faults().expect("read once already");
    for _ in 0..20 {
        let _ = model.forward_batch(&images);
    }
    let faults = thread_minor_faults().expect("read once already") - before;
    assert_eq!(
        faults, 0,
        "minor page faults over 20 warm batch-32 forwards"
    );
}
