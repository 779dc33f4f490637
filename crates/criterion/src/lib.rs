//! Minimal benchmark harness, API-compatible with the subset of the
//! `criterion` crate this workspace's benches use.
//!
//! The build environment has no crates.io access, so the real `criterion`
//! cannot be vendored. This shim provides [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Each benchmark is
//! warmed up, then timed over `sample_size` samples; the mean, median and
//! minimum per-iteration times are printed to stdout and recorded as
//! [`BenchResult`]s, which [`Criterion::save_json`] can persist for
//! machine consumption (e.g. `BENCH_matmul.json`). There are no plots,
//! baselines or statistical regressions — this is a measurement harness,
//! not an analysis suite.

#![forbid(unsafe_code)]

use std::path::Path;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-iteration timer handed to `bench_function` closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`, recording the total elapsed time.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// One benchmark's recorded timings, all in seconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `group/name` of the benchmark.
    pub name: String,
    /// Fastest sample.
    pub min_s: f64,
    /// Median sample.
    pub median_s: f64,
    /// Mean over all samples.
    pub mean_s: f64,
    /// Number of timed samples collected.
    pub sample_size: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// The benchmark driver.
pub struct Criterion {
    warmup: Duration,
    default_sample_size: usize,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(300),
            default_sample_size: 20,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\ngroup: {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: None,
        }
    }

    /// Runs one free-standing benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size;
        self.run_one(&name.into(), sample_size, f);
        self
    }

    fn run_one<F>(&mut self, name: &str, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        // Warmup and iteration-count calibration: grow the per-sample
        // iteration count until one sample takes ≥ 1/5 of the warmup
        // budget, so short benchmarks are timed over many iterations.
        let mut iters: u64 = 1;
        let warmup_start = Instant::now();
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if warmup_start.elapsed() >= self.warmup {
                break;
            }
            if b.elapsed < self.warmup / 5 {
                iters = iters.saturating_mul(2);
            }
        }

        let mut per_iter: Vec<f64> = Vec::with_capacity(sample_size);
        for _ in 0..sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_iter.push(b.elapsed.as_secs_f64() / iters as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "  {name:<40} min {:>12}  median {:>12}  mean {:>12}  ({} samples x {} iters)",
            format_time(min),
            format_time(median),
            format_time(mean),
            sample_size,
            iters
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            min_s: min,
            median_s: median,
            mean_s: mean,
            sample_size,
            iters,
        });
    }

    /// All results recorded so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes the recorded results to `path` as a JSON array of
    /// `{name, min_s, median_s, mean_s, sample_size, iters}` objects.
    pub fn save_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 == self.results.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"min_s\": {:e}, \"median_s\": {:e}, \"mean_s\": {:e}, \"sample_size\": {}, \"iters\": {}}}{sep}\n",
                json_escape(&r.name),
                r.min_s,
                r.median_s,
                r.mean_s,
                r.sample_size,
                r.iters
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)?;
        println!("results written to {}", path.display());
        Ok(())
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A named set of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        let full = format!("{}/{}", self.name, name.into());
        self.criterion.run_one(&full, sample_size, f);
        self
    }

    /// Ends the group (marker for API parity; timing is already printed).
    pub fn finish(self) {}
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut calls = 0u64;
        let mut b = Bencher {
            iters: 17,
            elapsed: Duration::ZERO,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 17);
        assert!(b.elapsed > Duration::ZERO || calls == 17);
    }

    #[test]
    fn format_time_scales() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with(" ms"));
        assert!(format_time(2e-6).ends_with(" us"));
        assert!(format_time(2e-9).ends_with(" ns"));
    }

    #[test]
    fn results_are_recorded_and_serialized() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            default_sample_size: 2,
            results: Vec::new(),
        };
        let mut group = c.benchmark_group("g");
        group.bench_function("first", |b| b.iter(|| 1 + 1));
        group.bench_function("second", |b| b.iter(|| 2 + 2));
        group.finish();
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].name, "g/first");
        assert!(c.results()[0].min_s <= c.results()[0].median_s);

        let path = std::env::temp_dir().join("criterion_shim_results_test.json");
        c.save_json(&path).expect("write json");
        let json = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert!(json.starts_with('['), "not a JSON array: {json}");
        assert!(json.contains("\"name\": \"g/second\""));
        assert!(json.contains("\"sample_size\": 2"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            default_sample_size: 3,
            results: Vec::new(),
        };
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut ran = false;
        group.bench_function("noop", |b| {
            ran = true;
            b.iter(|| 1 + 1)
        });
        group.finish();
        assert!(ran);
    }
}
