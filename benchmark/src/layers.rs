//! Traced replays of the layers under a workload, from outside.
//!
//! A traced unit of work is a public call plus the same work replayed
//! through the layer below on identical inputs (calls are pure and
//! deterministic): `forward_batch` as its chained encoder blocks, a block
//! with and without its attention, attention as its four projections.
//! The sub-blocks of a prepared model are private, so the `nn` and
//! `tensor` probes run on components the runner builds `from_parts` at
//! the workload's own shapes.

use crate::host::CpuInstant;
use crate::models;
use crate::run::Outcome;
use crate::trace::{SpanId, Tracer};
use pivot_nn::{
    LayerNorm, PreparedAttention, PreparedEncoderBlock, PreparedLinear, PreparedMlp, QuantMode,
};
use pivot_sim::{AcceleratorConfig, ModuleClass, Simulator, VitGeometry};
use pivot_tensor::{matmul_quantized_into, softmax_row, Matrix, PackedF32, PackedInt8, Rng};
use pivot_vit::{PreparedModel, VisionTransformer, VitConfig};

/// A model with what a traced forward needs beside the prepared view:
/// its source (for `embed_tokens`, the input of block 0) and its blocks
/// with attention switched off.
pub struct TracedModel {
    pub prepared: PreparedModel,
    source: VisionTransformer,
    skipped: Vec<PreparedEncoderBlock>,
}

impl TracedModel {
    pub fn new(source: VisionTransformer, prepared: PreparedModel) -> Self {
        let skipped = prepared
            .encoder_blocks()
            .iter()
            .map(|b| b.with_attention_active(false))
            .collect();
        Self {
            prepared,
            source,
            skipped,
        }
    }

    /// `forward_batch` as a span, then its encoder blocks chained on the
    /// same tokens as child spans. Each active block is also timed with
    /// its attention skipped (`nn.block_skipped`, not a child: it is a
    /// variant, not a part).
    pub fn forward(
        &self,
        tracer: &mut Tracer,
        name: &'static str,
        parent: Option<SpanId>,
        work: u64,
        images: &[&Matrix],
    ) -> Matrix {
        let (logits, id) = tracer.span(name, parent, work, || self.prepared.forward_batch(images));
        let tokens = self.prepared.config().tokens();
        let mut x = images
            .iter()
            .map(|im| self.source.embed_tokens(im))
            .reduce(|a, b| a.vcat(&b))
            .expect("forward of at least one image");
        for (block, skipped) in self.prepared.encoder_blocks().iter().zip(&self.skipped) {
            if block.attention_active() {
                tracer.span("nn.block_skipped", None, work, || {
                    skipped.infer_batch(&x, tokens)
                });
                x = tracer
                    .span("nn.block", Some(id), work, || block.infer_batch(&x, tokens))
                    .0;
            } else {
                x = tracer
                    .span("nn.block_noattn", Some(id), work, || {
                        block.infer_batch(&x, tokens)
                    })
                    .0;
            }
        }
        logits
    }
}

/// Runner-built `nn` components and `tensor` operands at one geometry.
pub struct Components {
    images: usize,
    tokens: usize,
    x: Matrix,
    attention: PreparedAttention,
    projections: [PreparedLinear; 4],
    mlp: PreparedMlp,
    norm: LayerNorm,
    fc1_weight: Matrix,
    fc1_packed: PackedF32,
    fc1_int8: PackedInt8,
    gemm_out: Matrix,
    q_head: Matrix,
    k_head: Matrix,
    scores: Matrix,
}

impl Components {
    /// Components shaped like `config`'s encoder for `images` stacked
    /// samples. Weights are random (from the run's seed): timing does not
    /// depend on values.
    pub fn new(config: &VitConfig, images: usize, seed: u64) -> Self {
        let rng = &mut Rng::new(seed ^ 0xC0_4F0E);
        let (dim, hidden, tokens) = (config.dim, config.mlp_hidden(), config.tokens());
        let rows = images * tokens;
        let linear = |i: usize, o: usize, rng: &mut Rng| {
            PreparedLinear::from_weights(
                &Matrix::randn(i, o, 0.05, rng),
                &Matrix::zeros(1, o),
                QuantMode::None,
            )
        };
        let projections: [PreparedLinear; 4] = std::array::from_fn(|_| linear(dim, dim, rng));
        let [q, k, v, p] = projections.clone();
        let fc1_weight = Matrix::randn(dim, hidden, 0.05, rng);
        let head_dim = dim / config.heads;
        Self {
            images,
            tokens,
            x: Matrix::randn(rows, dim, 1.0, rng),
            attention: PreparedAttention::from_parts(q, k, v, p, config.heads),
            projections,
            mlp: PreparedMlp::from_parts(linear(dim, hidden, rng), linear(hidden, dim, rng)),
            norm: LayerNorm::new(dim),
            fc1_packed: PackedF32::pack(&fc1_weight),
            fc1_int8: PackedInt8::pack(&fc1_weight),
            fc1_weight,
            gemm_out: Matrix::zeros(rows, hidden),
            q_head: Matrix::randn(tokens, head_dim, 1.0, rng),
            k_head: Matrix::randn(tokens, head_dim, 1.0, rng),
            scores: Matrix::zeros(tokens, tokens),
        }
    }

    /// One reading of every `nn` and `tensor` probe, as spans of `work`.
    pub fn probe(&mut self, tracer: &mut Tracer, work: u64) {
        let (x, tokens) = (&self.x, self.tokens);
        let (_, attention) = tracer.span("nn.attention", None, work, || {
            self.attention.infer_batch(x, tokens)
        });
        for p in &self.projections {
            tracer.span("nn.linear", Some(attention), work, || p.infer(x));
        }
        tracer.span("nn.mlp", None, work, || self.mlp.infer(x));
        tracer.span("nn.layernorm", None, work, || self.norm.infer(x));

        let out = &mut self.gemm_out;
        tracer.span("tensor.gemm", None, work, || {
            x.matmul_prepacked_into(&self.fc1_packed, out)
        });
        tracer.span("tensor.gemm_int8", None, work, || {
            matmul_quantized_into(x, &self.fc1_int8, out)
        });
        tracer.span("tensor.pack", None, work, || {
            PackedF32::pack(&self.fc1_weight)
        });
        let scores = &mut self.scores;
        tracer.span("tensor.qkt", None, work, || {
            self.q_head.matmul_transpose_b_into(&self.k_head, scores)
        });
        tracer.span("tensor.softmax_rows", None, work, || {
            for r in 0..tokens {
                std::hint::black_box(softmax_row(scores.row(r)));
            }
        });
    }

    /// Derives the `tensor.*` and `nn.*` metrics from the probe spans.
    /// `forward_high_us_per_image` and `active_layers` scale the softmax
    /// probe up to a whole forward for `vit.softmax_share`.
    pub fn report(&self, tracer: &Tracer, out: &mut Outcome, heads: usize, active_layers: usize) {
        let t = tracer.totals();
        let mean_us = |name: &str| t.get(name).map_or(0.0, |n| n.mean_us());
        let (m, k, n) = (
            self.x.rows() as f64,
            self.x.cols() as f64,
            self.fc1_weight.cols() as f64,
        );
        let gflops = |us: f64| {
            if us == 0.0 {
                0.0
            } else {
                2.0 * m * k * n / (us * 1e3)
            }
        };
        out.set("tensor.gemm_gflops", gflops(mean_us("tensor.gemm")));
        out.set(
            "tensor.gemm_int8_gflops",
            gflops(mean_us("tensor.gemm_int8")),
        );
        out.set("tensor.qkt_us", mean_us("tensor.qkt"));
        let softmax_ns_per_row = mean_us("tensor.softmax_rows") * 1e3 / self.tokens as f64;
        out.set("tensor.softmax_ns_per_row", softmax_ns_per_row);
        out.set("tensor.pack_ms", mean_us("tensor.pack") / 1e3);
        // Computed from tensor sizes, not measured: A and B read, C written.
        out.set("tensor.gemm_bytes", 4.0 * (m * k + k * n + m * n));

        let per_image = |name: &str| mean_us(name) / self.images as f64;
        out.set("nn.attention_us_per_image", per_image("nn.attention"));
        out.set(
            "nn.attention_core_share",
            t.get("nn.attention").map_or(0.0, |n| n.self_share()),
        );
        out.set("nn.mlp_us_per_image", per_image("nn.mlp"));
        out.set("nn.layernorm_us_per_image", per_image("nn.layernorm"));
        let total = |name: &str| t.get(name).map_or(0.0, |n| n.total_ns as f64);
        if total("nn.block") > 0.0 {
            out.set(
                "nn.block_attention_share",
                1.0 - total("nn.block_skipped") / total("nn.block"),
            );
        }
        let forward_us = out.get("vit.forward_high_us_per_image").unwrap_or(0.0);
        if forward_us > 0.0 {
            let rows = (self.tokens * heads * active_layers) as f64;
            out.set(
                "vit.softmax_share",
                softmax_ns_per_row * rows / (forward_us * 1e3),
            );
        }
    }
}

/// `vit.nonblock_share`: what `forward_batch` spends outside its encoder
/// blocks (patchify, embed, final norm, head), over every forward span.
pub fn report_nonblock_share(tracer: &Tracer, out: &mut Outcome, forward_names: &[&str]) {
    let t = tracer.totals();
    let (mut total, mut own) = (0u64, 0i64);
    for name in forward_names {
        if let Some(n) = t.get(name) {
            total += n.total_ns;
            own += n.self_ns;
        }
    }
    if total > 0 {
        out.set("vit.nonblock_share", own as f64 / total as f64);
    }
}

/// `trace.*`: span count and the most negative aggregated self share.
/// Replayed children should not outweigh the calls they explain by more
/// than 5 %; that is a statement about the measurement, so it is a note,
/// not an output check.
pub fn report_trace(tracer: &Tracer, out: &mut Outcome) {
    out.set("trace.spans", tracer.spans().len() as f64);
    let min = tracer
        .totals()
        .values()
        .map(|n| n.self_share())
        .fold(f64::INFINITY, f64::min);
    out.set(
        "trace.min_self_share",
        if min.is_finite() { min } else { 0.0 },
    );
    out.note(
        "trace_self_times",
        min >= -0.05,
        format!("most negative aggregated self share {min:.4} (floor -0.05)"),
    );
}

/// `sim.*`: PIVOT-Sim on DeiT-S / ZCU102 at effort 3 and 12. The values
/// are simulated and exact; only `sim.simulate_us` is host time.
pub fn report_sim(out: &mut Outcome) {
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geom = VitGeometry::deit_s();
    let (low_mask, high_mask) = (
        models::effort_mask(models::LOW_ACTIVE.len()),
        models::effort_mask(geom.depth),
    );
    const REPS: u32 = 32;
    let t = CpuInstant::now();
    for _ in 0..REPS {
        std::hint::black_box(sim.simulate(&geom, std::hint::black_box(&high_mask)));
    }
    out.set(
        "sim.simulate_us",
        t.elapsed().as_secs_f64() * 1e6 / REPS as f64,
    );
    let (low, high) = (
        sim.simulate(&geom, &low_mask),
        sim.simulate(&geom, &high_mask),
    );
    out.set("sim.delay_low_ms", low.delay_ms);
    out.set("sim.delay_high_ms", high.delay_ms);
    out.set("sim.energy_low_j", low.energy_j());
    out.set("sim.energy_high_j", high.energy_j());
    out.set(
        "sim.softmax_share",
        high.breakdown.fraction(ModuleClass::Softmax),
    );
}
