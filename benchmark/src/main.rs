//! `pivot_benchmark`: the one measurement spine of this repository.
//!
//! ```text
//! pivot_benchmark [run] --workload <name> --seed <n> [--seconds <n>] [--trace [0|1]] [--quick] [--append <file>]
//! pivot_benchmark all   [--seed <n>] [--seconds <n>] [--trace [0|1]] [--quick] [--append <file>]
//! pivot_benchmark compare <a.json> <b.json>
//! pivot_benchmark train-fixtures
//! ```
//!
//! A run prints every metric as `name value unit`, writes its full result
//! under `benchmark/results/`, prints the result line `BENCHMARK.json`'s
//! contract asks for last, and exits non-zero if an output check failed.
//! It depends only on the public APIs of the layer crates and measures
//! every layer from outside. See `benchmark/README.md`.

mod compare;
mod forward197;
mod host;
mod json;
mod layers;
mod models;
mod phase2;
mod run;
mod serve;
mod stats;
mod trace;

use host::HostRef;
use run::{Outcome, RunOpts, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds a run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// What `--quick` measures for.
const QUICK_SECONDS: f64 = 0.5;

fn usage() -> String {
    format!(
        "usage: pivot_benchmark [run] --workload <{}> --seed <n> [--seconds <n>] \
         [--trace [0|1]] [--quick] [--append <file>]\n       \
         pivot_benchmark all [--seed <n>] [--seconds <n>] [--trace [0|1]] [--quick] [--append <file>]\n       \
         pivot_benchmark compare <a.json> <b.json>\n       \
         pivot_benchmark train-fixtures",
        WORKLOADS.join("|")
    )
}

/// Parses the flags shared by `run` and `all`. `workload` stays empty if
/// none was named.
fn parse_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        append: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value("a name")?,
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => opts.quick = true,
            "--append" => opts.append = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    opts.seconds = seconds.unwrap_or(if opts.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(opts)
}

fn dispatch(opts: &RunOpts, host: &mut HostRef) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "serve_saturated" | "serve_single_drift" => serve::run(opts, host),
        "offline_phase2" => phase2::run(opts, host),
        "forward_197" => forward197::run(opts, host),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn write_file(path: &Path, text: &str, append: bool) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process. `Ok(true)` if every check passed.
fn run_one(opts: &RunOpts) -> Result<bool, String> {
    let mut host = HostRef::default();
    let mut outcome = dispatch(opts, &mut host)?;
    if opts.trace {
        outcome.set("host.ref_per_s", host.median());
        outcome.set("host.ref_drift", host.drift());
        outcome.set("host.nproc", host::nproc() as f64);
    } else {
        outcome.set("peak_rss_mb", host::peak_rss_mb());
    }

    // A non-finite value, or an end-to-end metric the workload did not
    // report, is a defect of the run, not a zero. (A per-layer metric of a
    // layer the workload never calls is a zero.)
    for &(name, _) in run::registry(opts.trace) {
        match outcome.get(name) {
            Some(v) if !v.is_finite() => {
                outcome.check("metrics_finite", false, format!("{name} = {v}"))
            }
            None if !opts.trace => outcome.check(
                "metrics_complete",
                false,
                format!("{name} was not reported"),
            ),
            _ => {}
        }
    }
    let correct = outcome.checks.iter().all(|c| c.ok);
    let result = run::result_json(opts, &outcome, &host, correct);

    let results = models::benchmark_dir().join("results");
    let suffix = if opts.trace { "_trace" } else { "" };
    let line = format!("{}\n", result.encode());
    write_file(
        &results.join(format!("{}{suffix}.json", opts.workload)),
        &line,
        false,
    )?;
    if let Some(path) = &opts.append {
        write_file(path, &line, true)?;
    }
    if let Some(tracer) = &outcome.tracer {
        write_file(
            &results.join(format!("trace_{}.json", opts.workload)),
            &tracer.to_json(&opts.workload).encode(),
            false,
        )?;
    }

    println!(
        "# {} seed {} ({} s{}{})",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        if opts.quick { ", quick" } else { "" }
    );
    for (kind, list) in [("check", &outcome.checks), ("note", &outcome.notes)] {
        for c in list {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            println!("{kind} {} {verdict} - {}", c.name, c.detail);
        }
    }
    for &(name, unit) in run::registry(opts.trace) {
        println!("{name} {} {unit}", outcome.get(name).unwrap_or(0.0));
    }
    println!("{}", run::contract_line(&result));
    Ok(correct)
}

/// Runs every workload, each in a process of its own, so that peak
/// memory and warm-up are per workload.
fn run_all(args: &[String]) -> Result<bool, String> {
    parse_opts(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(args)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train-fixtures") => models::train_fixtures().map(|()| true),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("all") => run_all(&args[1..]),
        Some("run") => run_one(&parse_opts(&args[1..])?),
        Some(_) => run_one(&parse_opts(&args)?),
        None => Err(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pivot_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse_opts(&args(
            "--workload forward_197 --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("forward_197", 7, 20.0, true)
        );
        let o = parse_opts(&args(
            "--workload forward_197 --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert!(!o.trace);
        let o = parse_opts(&args("--trace --workload x")).unwrap();
        assert!(o.trace && o.workload == "x");
        assert_eq!(parse_opts(&args("--quick")).unwrap().seconds, QUICK_SECONDS);
        assert!(parse_opts(&args("--seed")).is_err());
        assert!(parse_opts(&args("--seconds -1")).is_err());
        assert!(parse_opts(&args("--bogus")).is_err());
    }

    /// Keeps the runner honest end to end: every workload, traced and
    /// not, in `--quick` mode with all output checks on.
    #[test]
    fn quick_mode_runs_every_workload_and_passes_its_checks() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = RunOpts {
                    workload: workload.to_string(),
                    seed: 5,
                    seconds: QUICK_SECONDS,
                    trace,
                    quick: true,
                    append: None,
                };
                let mut host = HostRef::default();
                let outcome = dispatch(&opts, &mut host).unwrap();
                for c in &outcome.checks {
                    assert!(c.ok, "{workload} trace={trace}: {} - {}", c.name, c.detail);
                }
                assert!(outcome.attempted >= 1 && outcome.failed == 0);
                for &(name, _) in run::registry(trace) {
                    let owned_by_main = name == "peak_rss_mb" || name.starts_with("host.");
                    if !trace && !owned_by_main {
                        let v = outcome
                            .get(name)
                            .unwrap_or_else(|| panic!("{workload}: {name}"));
                        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
    }
}
