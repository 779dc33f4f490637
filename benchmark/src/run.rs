//! What every workload shares: options, the timing rule, the metric
//! registries and the result each run prints and writes.

use crate::host::{self, CpuInstant, HostRef};
use crate::json::{obj, Value};
use crate::stats::{self, Quartiles};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Schema tag of result files; bump when a field changes meaning.
pub const SCHEMA: &str = "pivot-benchmark/1";

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve_saturated",
    "serve_single_drift",
    "offline_phase2",
    "forward_197",
];

/// End-to-end metrics: every untraced run reports exactly these.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("served_share", "ratio"),
    ("full_effort_share", "ratio"),
    ("accuracy", "ratio"),
    ("energy_j_per_request", "J"),
    ("lec_attainment", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports exactly these, each at the
/// workload's own geometry; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_int8_gflops", "GFLOP/s"),
    ("tensor.qkt_us", "us"),
    ("tensor.softmax_ns_per_row", "ns"),
    ("tensor.pack_ms", "ms"),
    ("tensor.gemm_bytes", "bytes"),
    ("nn.attention_us_per_image", "us"),
    ("nn.attention_core_share", "ratio"),
    ("nn.mlp_us_per_image", "us"),
    ("nn.layernorm_us_per_image", "us"),
    ("nn.block_attention_share", "ratio"),
    ("nn.store_hit_ratio", "ratio"),
    ("nn.store_unique_bytes", "bytes"),
    ("vit.forward_low_us_per_image", "us"),
    ("vit.forward_high_us_per_image", "us"),
    ("vit.nonblock_share", "ratio"),
    ("vit.softmax_share", "ratio"),
    ("vit.model_ready_ms", "ms"),
    ("vit.weight_bytes", "bytes"),
    ("core.guarded_us_per_image", "us"),
    ("core.cascade_overhead_share", "ratio"),
    ("core.low_exit_ratio", "ratio"),
    ("core.cache_build_ms", "ms"),
    ("core.threshold_reaching_us", "us"),
    ("core.phase2_pair_ms", "ms"),
    ("core.phase2_pairs", "count"),
    ("core.par_speedup", "ratio"),
    ("serve.engine_overhead_us_per_batch", "us"),
    ("serve.engine_overhead_share", "ratio"),
    ("serve.batches", "count"),
    ("serve.level0_exits", "count"),
    ("serve.level1_exits", "count"),
    ("serve.retunes", "count"),
    ("serve.th_holds", "count"),
    ("serve.th_final", "ratio"),
    ("serve.downshifts", "count"),
    ("serve.threaded_items_per_s", "items/s"),
    ("serve.thread_overhead_share", "ratio"),
    ("serve.threaded_latency_p50_ms", "ms"),
    ("sim.simulate_us", "us"),
    ("sim.delay_low_ms", "ms"),
    ("sim.delay_high_ms", "ms"),
    ("sim.energy_low_j", "J"),
    ("sim.energy_high_j", "J"),
    ("sim.softmax_share", "ratio"),
    ("data.generate_us_per_image", "us"),
    ("host.ref_per_s", "1/s"),
    ("host.ref_drift", "ratio"),
    ("host.nproc", "count"),
    ("trace.spans", "count"),
    ("trace.min_self_share", "ratio"),
];

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    pub trace: bool,
    /// Shrunk inputs and ~0.5 s of measurement, every output check on.
    pub quick: bool,
    /// Also append the result as one line to this file.
    pub append: Option<PathBuf>,
}

impl RunOpts {
    /// Set-ups timed per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Seconds of unrecorded work before measurement starts.
    pub fn warmup_seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            1.5
        }
    }

    /// `full` for a real run, `quick` for `--quick`.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One check. A failed output check fails the run; a failed note (a
/// statement about the measurement, not about the program's outputs) is
/// reported and changes nothing else.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// A reported value, with the distribution it was taken from if any.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub dist: Option<Quartiles>,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations measured (requests, sweep images, forwarded images).
    pub attempted: u64,
    /// Operations that did not produce the expected output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub notes: Vec<Check>,
    /// The workload's parameters, hashed into the provenance block.
    pub params: String,
    /// Seconds per measured segment, in order: kept in the result so a
    /// stall or a drift inside a run can be seen after the fact.
    pub segment_s: Vec<f64>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            dist: None,
        });
    }

    pub fn set_dist(&mut self, name: &'static str, value: f64, dist: Quartiles) {
        self.metrics.push(Metric {
            name,
            value,
            dist: Some(dist),
        });
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// The four timing metrics every untraced run reports, and the segment
    /// series they were taken from.
    pub fn set_timings(&mut self, setup: Quartiles, measured: Measured, items_per_segment: f64) {
        self.set_dist("setup_s", setup.p50, setup);
        let (rate, rate_q) = measured.rate(items_per_segment);
        self.set_dist("items_per_s", rate, rate_q);
        let (p50, p90, latency_q) = measured.latency();
        self.set_dist("latency_p50_ms", p50, latency_q);
        self.set_dist("latency_p90_ms", p90, latency_q);
        self.segment_s = measured.segment_s;
    }

    pub fn note(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.notes.push(Check::new(name, ok, detail));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Most set-ups a run times, however cheap they are.
const MAX_SETUP_REPS: usize = 15;
/// Set-ups beyond `reps` stop once they have taken this long in total.
const SETUP_BUDGET_S: f64 = 1.0;

/// Builds the workload's state at least `reps` times, and further times
/// while a cheap set-up leaves the budget unspent (a 30 ms set-up needs
/// more than three readings for a steady median). Each state is dropped
/// before the next is built, so peak memory is one set-up's. Returns the
/// last state with the distribution of build times.
pub fn timed_setups<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Quartiles), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < reps.max(1)
        || (reps > 1 && times.len() < MAX_SETUP_REPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let start = CpuInstant::now();
        state = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one rep"), Quartiles::of(&times)))
}

/// Wall times of a measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per equal-work segment.
    pub segment_s: Vec<f64>,
    /// Milliseconds per driver call (the unit a caller waits for).
    pub call_ms: Vec<f64>,
}

impl Measured {
    /// Rate metric: upper quartile of per-segment rates.
    pub fn rate(&self, items_per_segment: f64) -> (f64, Quartiles) {
        let q = Quartiles::of(&stats::segment_rates(items_per_segment, &self.segment_s));
        (q.p75, q)
    }

    /// Latency metrics over all per-call times: (p50, p90, quartiles).
    pub fn latency(&self) -> (f64, f64, Quartiles) {
        let sorted = stats::sorted(&self.call_ms);
        (
            stats::percentile(&sorted, 0.5),
            stats::percentile(&sorted, 0.9),
            Quartiles::of(&self.call_ms),
        )
    }
}

/// Segments between reference-kernel readings.
const REF_EVERY: usize = 8;

/// The timing rule. Runs `segment` unrecorded for the warm-up, then
/// records whole segments until `seconds` of wall time have passed and at
/// least `min_segments` are in. Segments and calls are timed on the
/// driver thread's CPU clock ([`CpuInstant`]); `segment` pushes the wall time of each driver
/// call it makes. The reference kernel is read before, every
/// [`REF_EVERY`] segments, and after.
pub fn measure(
    opts: &RunOpts,
    min_segments: usize,
    host: &mut HostRef,
    mut segment: impl FnMut(&mut Vec<f64>),
) -> Measured {
    let mut scratch = Vec::new();
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < opts.warmup_seconds() {
        segment(&mut scratch);
    }
    let mut m = Measured::default();
    host.sample();
    let start = Instant::now();
    while m.segment_s.len() < min_segments.max(1) || start.elapsed().as_secs_f64() < opts.seconds {
        if !m.segment_s.is_empty() && m.segment_s.len() % REF_EVERY == 0 {
            host.sample();
        }
        let t = CpuInstant::now();
        segment(&mut m.call_ms);
        m.segment_s.push(t.elapsed().as_secs_f64());
    }
    host.sample();
    m
}

/// Times one driver call and records it in milliseconds.
pub fn timed_call<R>(calls: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = CpuInstant::now();
    let r = f();
    calls.push(t.elapsed().as_secs_f64() * 1e3);
    r
}

/// The registry a run of this kind must fill.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The full result object (also the line `compare` reads back).
pub fn result_json(opts: &RunOpts, outcome: &Outcome, host: &HostRef, correct: bool) -> Value {
    let metrics = registry(opts.trace).iter().map(|&(name, unit)| {
        let m = outcome.metrics.iter().find(|m| m.name == name);
        let mut fields = vec![
            ("value", Value::from(m.map_or(0.0, |m| m.value))),
            ("unit", Value::from(unit)),
        ];
        if let Some(q) = m.and_then(|m| m.dist) {
            fields.extend([
                ("p25", Value::from(q.p25)),
                ("p50", Value::from(q.p50)),
                ("p75", Value::from(q.p75)),
                ("n", Value::from(q.n)),
            ]);
        }
        (name, obj(fields))
    });
    let checks = |list: &[Check]| {
        Value::Arr(
            list.iter()
                .map(|c| {
                    obj([
                        ("name", Value::from(c.name)),
                        ("ok", Value::from(c.ok)),
                        ("detail", Value::from(c.detail.as_str())),
                    ])
                })
                .collect(),
        )
    };
    obj([
        ("schema", Value::from(SCHEMA)),
        ("workload", Value::from(opts.workload.as_str())),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("trace", Value::from(opts.trace)),
        ("quick", Value::from(opts.quick)),
        ("provenance", host::provenance(opts.seed, &outcome.params)),
        ("host", host.to_json()),
        ("correct", Value::from(correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("checks", checks(&outcome.checks)),
        ("notes", checks(&outcome.notes)),
        ("metrics", obj(metrics)),
        (
            "segment_s",
            Value::Arr(outcome.segment_s.iter().map(|&s| Value::from(s)).collect()),
        ),
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (`value` and `unit` only).
pub fn contract_line(result: &Value) -> String {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let field = |k: &str| m.get(k).cloned().unwrap_or(Value::Null);
            (
                name.as_str(),
                obj([("value", field("value")), ("unit", field("unit"))]),
            )
        });
    let field = |k: &str| result.get(k).cloned().unwrap_or(Value::Null);
    obj([
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("metrics", obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(trace: bool) -> RunOpts {
        RunOpts {
            workload: "serve_saturated".to_string(),
            seed: 3,
            seconds: 0.0,
            trace,
            quick: true,
            append: None,
        }
    }

    #[test]
    fn registries_have_unique_contract_conformant_names_and_units() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn measure_records_whole_segments_and_brackets_them_with_ref_readings() {
        let mut host = HostRef::default();
        let mut calls = 0;
        let m = measure(&opts(false), 17, &mut host, |call_ms| {
            calls += 1;
            timed_call(call_ms, || std::hint::black_box(calls));
        });
        assert_eq!(m.segment_s.len(), 17, "seconds = 0 stops at the minimum");
        assert_eq!(m.call_ms.len(), 17);
        assert_eq!(calls, 17, "quick mode has no warm-up");
        // before + after segments 8 and 16 + after
        assert!((host.to_json().get("readings").unwrap().as_f64().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn timed_setups_keeps_the_last_state_and_times_every_rep() {
        let mut n = 0;
        let (state, q) = timed_setups(3, || {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!(
            (state, q.n),
            (MAX_SETUP_REPS, MAX_SETUP_REPS),
            "cheap set-ups repeat"
        );
        let (_, q) = timed_setups(1, || Ok(())).unwrap();
        assert_eq!(q.n, 1, "quick mode sets up once");
        assert!(timed_setups(2, || Err::<(), _>("no".to_string())).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_registered_metric() {
        for trace in [false, true] {
            let mut out = Outcome {
                attempted: 1000,
                ..Outcome::default()
            };
            out.set_dist(registry(trace)[1].0, 1.25, Quartiles::of(&[1.0, 1.25, 1.5]));
            let result = result_json(&opts(trace), &out, &HostRef::default(), true);
            let line = crate::json::parse(&contract_line(&result)).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), registry(trace).len());
            for (_, m) in metrics {
                let fields: Vec<&str> = m
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"]);
            }
            assert_eq!(metrics[1].1.get("value").unwrap().as_f64(), Some(1.25));
            // The rich result keeps the quartiles beside the value.
            let rich = result.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(rich[1].1.get("n").unwrap().as_f64(), Some(3.0));
        }
    }
}
