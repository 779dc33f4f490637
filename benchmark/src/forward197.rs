//! `forward_197`: `PreparedModel::forward_batch` at the paper's geometry
//! (DeiT-S, 197 tokens, full precision), batches of two. Weights are
//! random, drawn from the seed: this workload measures speed, and checks
//! only that batching does not change a single bit.

use crate::host::{CpuInstant, HostRef};
use crate::layers::{self, Components, TracedModel};
use crate::models;
use crate::run::{self, timed_call, Outcome, RunOpts};
use crate::trace::Tracer;
use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{PreparedModel, VisionTransformer};
use std::time::Instant;

const BATCH: usize = 2;
/// Distinct batches the run cycles through.
const BATCHES: usize = 4;

struct Setup {
    /// Kept only by a traced run, which needs `embed_tokens`.
    source: Option<VisionTransformer>,
    model: PreparedModel,
    images: Vec<Matrix>,
    model_ready_ms: f64,
    generate_us_per_image: f64,
}

fn setup(opts: &RunOpts) -> Result<Setup, String> {
    let t = CpuInstant::now();
    let source = VisionTransformer::new(&models::deit197_config(), &mut Rng::new(opts.seed));
    let model = source.prepare();
    let model_ready_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = CpuInstant::now();
    let images: Vec<Matrix> =
        models::stripe_set(&models::deit197_data(), BATCH * BATCHES, opts.seed ^ 0x197)
            .into_iter()
            .map(|s| s.image)
            .collect();
    let generate_us_per_image = t.elapsed().as_secs_f64() * 1e6 / images.len() as f64;
    Ok(Setup {
        source: opts.trace.then_some(source),
        model,
        images,
        model_ready_ms,
        generate_us_per_image,
    })
}

impl Setup {
    fn batch(&self, i: usize) -> &[Matrix] {
        let at = (i % BATCHES) * BATCH;
        &self.images[at..at + BATCH]
    }
}

/// `forward_batch` of the first batch against one `infer` per image:
/// rows bit-identical and finite. Returns the share of rows that agree.
fn batching_check(s: &Setup, out: &mut Outcome) -> f64 {
    let batch = s.batch(0);
    let logits = s.model.forward_batch(batch);
    let mut agreeing = 0usize;
    let mut finite = true;
    for (r, image) in batch.iter().enumerate() {
        let single = s.model.infer(image);
        finite &= logits.row(r).iter().all(|v| v.is_finite());
        let same = logits
            .row(r)
            .iter()
            .zip(single.row(0))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        agreeing += same as usize;
    }
    out.failed += (batch.len() - agreeing) as u64;
    out.check(
        "batch_equals_single",
        agreeing == batch.len() && finite,
        format!(
            "{agreeing} of {} batched rows bit-identical to infer; all finite: {finite}",
            batch.len()
        ),
    );
    agreeing as f64 / batch.len() as f64
}

pub fn run(opts: &RunOpts, host: &mut HostRef) -> Result<Outcome, String> {
    let mut out = Outcome {
        params: format!("model=deit_s quant=none batch={BATCH} distinct_batches={BATCHES}"),
        ..Outcome::default()
    };
    let (s, setup_q) = run::timed_setups(opts.setup_reps(), || setup(opts))?;
    if opts.trace {
        return traced(opts, s, host, out);
    }

    let mut i = 0;
    let measured = run::measure(opts, 1, host, |call_ms| {
        let logits = timed_call(call_ms, || s.model.forward_batch(s.batch(i)));
        std::hint::black_box(logits);
        i += 1;
    });
    out.attempted = (measured.segment_s.len() * BATCH) as u64;
    out.set_timings(setup_q, measured, BATCH as f64);

    // One model, one path, no gate: nothing is shed, degraded or exits
    // early, and "accuracy" is agreement with the unbatched reference.
    let agreement = batching_check(&s, &mut out);
    out.set("served_share", 1.0);
    out.set("full_effort_share", 1.0);
    out.set("accuracy", agreement);
    out.set("lec_attainment", 1.0);
    let full = Simulator::new(AcceleratorConfig::zcu102())
        .simulate(&VitGeometry::deit_s(), &models::effort_mask(12));
    out.set("energy_j_per_request", full.energy_j());
    Ok(out)
}

fn traced(
    opts: &RunOpts,
    mut s: Setup,
    host: &mut HostRef,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let source = s.source.take().expect("a traced set-up keeps its source");
    let mut low_source = source.clone();
    low_source.set_active_attentions(&models::LOW_ACTIVE);
    let low = TracedModel::new(
        low_source,
        s.model.with_active_attentions(&models::LOW_ACTIVE),
    );
    let high = TracedModel::new(source, s.model.clone());
    let config = s.model.config().clone();
    let mut components = Components::new(&config, BATCH, opts.seed);
    let mut tracer = Tracer::default();
    host.sample();
    let start = Instant::now();
    let mut work = 0u64;
    while start.elapsed().as_secs_f64() < opts.seconds || work == 0 {
        let batch: Vec<&Matrix> = s.batch(work as usize).iter().collect();
        high.forward(&mut tracer, "vit.forward_high", None, work, &batch);
        low.forward(&mut tracer, "vit.forward_low", None, work, &batch);
        components.probe(&mut tracer, work);
        host.sample();
        work += 1;
    }
    out.attempted = work * BATCH as u64;
    batching_check(&s, &mut out);

    let per_image = |name: &str| tracer.total(name).mean_us() / BATCH as f64;
    out.set("vit.forward_low_us_per_image", per_image("vit.forward_low"));
    out.set(
        "vit.forward_high_us_per_image",
        per_image("vit.forward_high"),
    );
    layers::report_nonblock_share(&tracer, &mut out, &["vit.forward_low", "vit.forward_high"]);
    out.set("vit.model_ready_ms", s.model_ready_ms);
    out.set("vit.weight_bytes", s.model.weight_bytes() as f64);
    components.report(&tracer, &mut out, config.heads, config.depth);
    out.set("data.generate_us_per_image", s.generate_us_per_image);
    layers::report_sim(&mut out);
    layers::report_trace(&tracer, &mut out);
    out.tracer = Some(tracer);
    Ok(out)
}
