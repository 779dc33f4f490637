//! `offline_phase2`: bulk offline use of the same forward pass. One sweep
//! is a whole [`Phase2Search`] over efforts {3, 6, 9, 12} (masks over the
//! high fixture) on 256 calibration images, under a delay constraint no
//! pair can meet, so all six pairs are walked; the feasible search runs
//! once, for the output check and the exact metrics.
//!
//! Measured sweeps run under `Parallelism::Off`, like every gating number
//! (one synchronous thread, timed on its own CPU clock). The worker pool
//! is exercised by the output check, which demands identical results from
//! `Off` and `Auto`, and its wall-clock gain is the per-layer
//! `core.par_speedup`.

use crate::host::{CpuInstant, HostRef};
use crate::layers::{self, Components, TracedModel};
use crate::models;
use crate::run::{self, timed_call, Outcome, RunOpts};
use crate::trace::{SpanId, Tracer};
use pivot_core::{
    CascadeCache, EffortModel, Parallelism, PathConfig, Phase2Config, Phase2Result, Phase2Search,
    EVAL_BATCH,
};
use pivot_data::Sample;
use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot_tensor::Matrix;
use pivot_vit::{PreparedModel, PreparedStore};
use std::collections::hash_map::{Entry, HashMap};
use std::time::Instant;

const EFFORTS: [usize; 4] = [3, 6, 9, 12];
const LEC: f64 = 0.7;
/// The feasible constraint, as a share of the full-effort delay: the
/// walk rejects (9,12) and (6,12) before it accepts a pair.
const FEASIBLE_DELAY_SHARE: f64 = 0.8;

struct Setup {
    sim: Simulator,
    geometry: VitGeometry,
    efforts: Vec<EffortModel>,
    calibration: Vec<Sample>,
    model_ready_ms: f64,
    generate_us_per_image: f64,
}

fn setup(opts: &RunOpts) -> Result<Setup, String> {
    let t = CpuInstant::now();
    let backbone = models::load_model(models::high_fixture())?;
    let depth = backbone.config().depth;
    let efforts = EFFORTS
        .iter()
        .map(|&effort| {
            let active: Vec<usize> = (0..effort).collect();
            let mut model = backbone.clone();
            model.set_active_attentions(&active);
            EffortModel {
                effort,
                path: PathConfig::new(depth, &active),
                score: 0.0,
                model,
            }
        })
        .collect();
    let model_ready_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = CpuInstant::now();
    let calibration = models::stripe_set(&models::ladder17_data(), opts.size(256, 64), opts.seed);
    let generate_us_per_image = t.elapsed().as_secs_f64() * 1e6 / calibration.len() as f64;
    Ok(Setup {
        sim: Simulator::new(AcceleratorConfig::zcu102()),
        geometry: VitGeometry::deit_s(),
        efforts,
        calibration,
        model_ready_ms,
        generate_us_per_image,
    })
}

impl Setup {
    fn search(&self, par: Parallelism) -> Phase2Search<'_> {
        Phase2Search::new(&self.sim, &self.geometry, &self.efforts, &self.calibration)
            .with_parallelism(par)
    }

    fn config(&self, delay_constraint_ms: f64) -> Phase2Config {
        Phase2Config {
            lec: LEC,
            delay_constraint_ms,
            delay_tolerance: 0.05,
            threshold_step: 0.02,
        }
    }

    /// A constraint below any pair's delay: the search walks every pair.
    fn infeasible(&self) -> Phase2Config {
        self.config(1e-6)
    }

    fn feasible(&self) -> Phase2Config {
        let full = self.sim.simulate(&self.geometry, &models::effort_mask(12));
        self.config(FEASIBLE_DELAY_SHARE * full.delay_ms)
    }

    /// `(low, high)` effort indices in the order [`Phase2Search::run`]
    /// walks them: largest combined effort first, then largest high.
    fn pair_order(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, low) in self.efforts.iter().enumerate() {
            for (j, high) in self.efforts.iter().enumerate() {
                if low.effort < high.effort {
                    pairs.push((i, j));
                }
            }
        }
        pairs.sort_by_key(|&(i, j)| {
            std::cmp::Reverse((
                self.efforts[i].effort + self.efforts[j].effort,
                self.efforts[j].effort,
            ))
        });
        pairs
    }
}

fn same_result(a: &Option<Phase2Result>, b: &Option<Phase2Result>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            (a.low_effort, a.high_effort) == (b.low_effort, b.high_effort)
                && a.threshold.to_bits() == b.threshold.to_bits()
                && a.stats == b.stats
                && a.perf.energy_j().to_bits() == b.perf.energy_j().to_bits()
        }
        _ => false,
    }
}

/// The feasible search under both parallelisms: the output check, and
/// the source of the exact metrics.
fn feasible_check(s: &Setup, out: &mut Outcome) -> Option<Phase2Result> {
    let cfg = s.feasible();
    let serial = s.search(Parallelism::Off).run(&cfg);
    let pooled = s.search(Parallelism::Auto).run(&cfg);
    let ok = same_result(&serial, &pooled);
    out.check(
        "parallelism_invariant",
        ok,
        match &serial {
            Some(r) => format!(
                "pair ({}, {}) Th {} F_L {:.3} under Parallelism::Off; Auto identical: {ok}",
                r.low_effort,
                r.high_effort,
                r.threshold,
                r.stats.f_low()
            ),
            None => "the feasible search found no pair".to_string(),
        },
    );
    serial
}

pub fn run(opts: &RunOpts, host: &mut HostRef) -> Result<Outcome, String> {
    let mut out = Outcome {
        params: format!(
            "efforts={EFFORTS:?} lec={LEC} calibration={} feasible_share={FEASIBLE_DELAY_SHARE} \
             threshold_step=0.02 eval_batch={EVAL_BATCH}",
            opts.size(256, 64)
        ),
        ..Outcome::default()
    };
    let (s, setup_q) = run::timed_setups(opts.setup_reps(), || setup(opts))?;
    models::check_gate(&models::load_ladder()?[0], &mut out);
    if opts.trace {
        return traced(opts, &s, host, out);
    }

    let infeasible = s.infeasible();
    let mut found = 0u64;
    let measured = run::measure(opts, 1, host, |call_ms| {
        let result = timed_call(call_ms, || s.search(Parallelism::Off).run(&infeasible));
        found += result.is_some() as u64;
    });
    let items = s.calibration.len();
    out.attempted = (measured.segment_s.len() * items) as u64;
    out.failed = found * items as u64;
    out.check(
        "infeasible_walks_all_pairs",
        found == 0,
        format!("{found} sweeps returned a pair under an unmeetable constraint"),
    );
    out.set_timings(setup_q, measured, items as f64);

    let chosen = feasible_check(&s, &mut out);
    out.set(
        "served_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("full_effort_share", 1.0);
    if let Some(r) = chosen {
        out.set("accuracy", r.stats.accuracy());
        out.set("energy_j_per_request", r.perf.energy_j());
        out.set("lec_attainment", (r.stats.f_low() / LEC).min(1.0));
    }
    Ok(out)
}

/// Images forwarded through the lowest and the highest effort.
#[derive(Default)]
struct Forwarded {
    low: u64,
    high: u64,
}

/// Forwards `images` through one effort in evaluation-sized chunks, as
/// traced spans named after the effort.
fn forward_chunks(
    model: &TracedModel,
    effort: usize,
    tracer: &mut Tracer,
    parent: SpanId,
    work: u64,
    images: &[&Matrix],
    forwarded: &mut Forwarded,
) {
    let name = match effort {
        3 => {
            forwarded.low += images.len() as u64;
            "vit.forward_low"
        }
        12 => {
            forwarded.high += images.len() as u64;
            "vit.forward_high"
        }
        _ => "vit.forward_mid",
    };
    for chunk in images.chunks(EVAL_BATCH) {
        model.forward(tracer, name, Some(parent), work, chunk);
    }
}

/// One sweep under `Parallelism::Off` as a span, then replayed through
/// the calls `Phase2Search::run` makes, in its order, as child spans.
/// `store` plays the search's own store for the children; `deep` repeats
/// its history for the grandchildren, so hits and misses line up.
fn traced_sweep(s: &Setup, tracer: &mut Tracer, work: u64, forwarded: &mut Forwarded) {
    let cfg = s.infeasible();
    let max_delay = cfg.delay_constraint_ms * (1.0 + cfg.delay_tolerance);
    let search = s.search(Parallelism::Off);
    let (_, run_id) = tracer.span("core.phase2_run", None, work, || search.run(&cfg));

    let (store, deep) = (PreparedStore::new(), PreparedStore::new());
    let images: Vec<&Matrix> = s.calibration.iter().map(|c| &c.image).collect();
    let mut caches: HashMap<usize, CascadeCache> = HashMap::new();
    let mut highs: HashMap<usize, (PreparedModel, TracedModel)> = HashMap::new();
    for (li, hi) in s.pair_order() {
        let (low, high) = (&s.efforts[li], &s.efforts[hi]);
        if let Entry::Vacant(slot) = caches.entry(li) {
            let (cache, id) = tracer.span("core.cache_build", Some(run_id), work, || {
                CascadeCache::build_in(&low.model, &s.calibration, Parallelism::Off, &store)
            });
            let (view, _) = tracer.span("vit.prepare", Some(id), work, || {
                low.model.prepare_in(&deep)
            });
            let model = TracedModel::new(low.model.clone(), view);
            forward_chunks(&model, low.effort, tracer, id, work, &images, forwarded);
            slot.insert(cache);
        }
        if let Entry::Vacant(slot) = highs.entry(hi) {
            let (view, _) = tracer.span("vit.prepare", Some(run_id), work, || {
                high.model.prepare_in(&store)
            });
            let model = TracedModel::new(high.model.clone(), high.model.prepare_in(&deep));
            slot.insert((view, model));
        }
        let (cache, (high_view, high_model)) = (&caches[&li], &highs[&hi]);
        let (_, pair) = tracer.span("core.phase2_pair", Some(run_id), work, || {
            search.evaluate_pair_prepared(low, high, high_view, cache, &cfg, max_delay)
        });
        let (th, _) = tracer.span("core.threshold_reaching", Some(pair), work, || {
            cache.threshold_reaching(cfg.lec, cfg.threshold_step)
        });
        let escalated: Vec<&Matrix> = cache.escalated(th).iter().map(|&i| images[i]).collect();
        forward_chunks(
            high_model,
            high.effort,
            tracer,
            pair,
            work,
            &escalated,
            forwarded,
        );
        for e in [low, high] {
            tracer.span("sim.simulate", Some(pair), work, || {
                s.sim.simulate(&s.geometry, &e.path.to_mask())
            });
        }
    }
}

fn traced(
    opts: &RunOpts,
    s: &Setup,
    host: &mut HostRef,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let config = s.efforts[0].model.config().clone();
    let mut components = Components::new(&config, EVAL_BATCH, opts.seed);
    let mut tracer = Tracer::default();
    host.sample();
    let start = Instant::now();
    let (mut work, mut forwarded) = (0u64, Forwarded::default());
    while start.elapsed().as_secs_f64() < opts.seconds || work == 0 {
        traced_sweep(s, &mut tracer, work, &mut forwarded);
        components.probe(&mut tracer, work);
        host.sample();
        work += 1;
    }
    out.attempted = work * s.calibration.len() as u64;

    let chosen = feasible_check(s, &mut out);
    let t = tracer.totals();
    let total = |name: &str| t.get(name).copied().unwrap_or_default();
    let mean_ms = |name: &str| total(name).mean_us() / 1e3;
    let per_image = |name: &str, images: u64| {
        if images == 0 {
            0.0
        } else {
            total(name).total_ns as f64 / 1e3 / images as f64
        }
    };
    out.set(
        "vit.forward_low_us_per_image",
        per_image("vit.forward_low", forwarded.low),
    );
    out.set(
        "vit.forward_high_us_per_image",
        per_image("vit.forward_high", forwarded.high),
    );
    layers::report_nonblock_share(
        &tracer,
        &mut out,
        &["vit.forward_low", "vit.forward_mid", "vit.forward_high"],
    );
    out.set("vit.model_ready_ms", s.model_ready_ms);
    out.set(
        "vit.weight_bytes",
        s.efforts[0].model.prepare().weight_bytes() as f64,
    );
    components.report(&tracer, &mut out, config.heads, config.depth);

    out.set("core.cache_build_ms", mean_ms("core.cache_build"));
    out.set(
        "core.threshold_reaching_us",
        total("core.threshold_reaching").mean_us(),
    );
    out.set("core.phase2_pair_ms", mean_ms("core.phase2_pair"));
    out.set(
        "core.phase2_pairs",
        total("core.phase2_pair").count as f64 / work as f64,
    );
    let (cache, pair) = (total("core.cache_build"), total("core.phase2_pair"));
    if cache.total_ns + pair.total_ns > 0 {
        out.set(
            "core.cascade_overhead_share",
            (cache.self_ns + pair.self_ns) as f64 / (cache.total_ns + pair.total_ns) as f64,
        );
    }
    if let Some(r) = &chosen {
        out.set("core.low_exit_ratio", r.stats.f_low());
    }
    // Wall time, the only clock that sees the worker pool: one sweep each
    // way, back to back.
    let wall = |par: Parallelism| {
        let t = Instant::now();
        std::hint::black_box(s.search(par).run(&s.infeasible()));
        t.elapsed().as_secs_f64()
    };
    out.set(
        "core.par_speedup",
        wall(Parallelism::Off) / wall(Parallelism::Auto),
    );
    let search = s.search(Parallelism::Off);
    search.run(&s.infeasible());
    let store = search.store_stats();
    out.set(
        "nn.store_hit_ratio",
        store.hits as f64 / store.lookups().max(1) as f64,
    );
    out.set("nn.store_unique_bytes", store.unique_bytes as f64);
    out.set("data.generate_us_per_image", s.generate_us_per_image);
    layers::report_sim(&mut out);
    layers::report_trace(&tracer, &mut out);
    out.tracer = Some(tracer);
    Ok(out)
}
