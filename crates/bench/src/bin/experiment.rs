//! Regenerates the paper's evaluation, one experiment per name (DESIGN.md
//! §8 has the index):
//!
//! ```text
//! cargo run --release -p pivot-bench --bin experiment -- <name>...
//! ```
//!
//! `all` runs every figure and table plus the ablation suite against one
//! shared state (the source of `EXPERIMENTS.md`); `profile [deit|lvvit]
//! [effort]` prints PIVOT-Sim's per-layer view of one effort; `drift` and
//! `faults` are the serving-under-drift and accuracy-under-fault studies.
//!
//! Every name is checked before any runs: an unknown name, or none, prints
//! the list and exits 2, and so does a `PIVOT_PROFILE` other than unset,
//! `fast` or `full`. The trained families are loaded (or trained and
//! cached under `target/pivot-cache/`) at most once, and only when a chosen
//! experiment needs them — `fig1b`, `fig4b`, `profile`, `drift` and
//! `faults` never do.

use pivot_bench::experiments as exp;
use pivot_bench::{Profile, Reproduction};
use pivot_sim::VitGeometry;
use std::cell::OnceCell;
use std::process::ExitCode;

/// The figures and tables in `all`'s order.
const PAPER: [&str; 14] = [
    "fig1b", "fig3a", "fig4a", "fig4b", "fig4c", "table2", "table3", "fig6a", "fig6b", "table4",
    "fig1c", "fig7", "fig8", "fig9",
];

/// Everything else the binary answers to.
const OTHER: [&str; 5] = ["all", "ablations", "profile", "drift", "faults"];

fn is_name(arg: &str) -> bool {
    PAPER.contains(&arg) || OTHER.contains(&arg)
}

/// One requested run: an experiment name, or `profile` with its arguments.
enum Job<'a> {
    Named(&'a str),
    Profile(VitGeometry, usize),
}

fn parse(args: &[String]) -> Result<Vec<Job<'_>>, String> {
    let mut args = args.iter().map(String::as_str).peekable();
    let mut jobs = Vec::new();
    while let Some(arg) = args.next() {
        if !is_name(arg) {
            return Err(format!("unknown experiment `{arg}`"));
        }
        if arg != "profile" {
            jobs.push(Job::Named(arg));
            continue;
        }
        let geometry = match args.next_if(|a| !is_name(a)) {
            None | Some("deit") => VitGeometry::deit_s(),
            Some("lvvit") => VitGeometry::lvvit_s(),
            Some(other) => return Err(format!("unknown family `{other}`")),
        };
        let effort = args
            .next_if(|a| a.parse::<usize>().is_ok())
            .map_or(geometry.depth, |a| a.parse().expect("checked"))
            .min(geometry.depth);
        jobs.push(Job::Profile(geometry, effort));
    }
    if jobs.is_empty() {
        return Err("no experiment named".to_string());
    }
    Ok(jobs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, scale) = match parse(&args).and_then(|jobs| Ok((jobs, Profile::from_env()?))) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("{error}");
            eprintln!("usage: [PIVOT_PROFILE=fast|full] experiment <name>..., each one of");
            eprintln!("  {}", PAPER.join(" "));
            eprintln!("  all | ablations | profile [deit|lvvit] [effort] | drift | faults");
            return ExitCode::from(2);
        }
    };
    let repro = OnceCell::new();
    let trained = || repro.get_or_init(|| Reproduction::load(scale));
    for job in jobs {
        match job {
            Job::Named(name) => run(name, &trained),
            Job::Profile(geometry, effort) => profile(&geometry, effort),
        }
    }
    ExitCode::SUCCESS
}

/// Runs one named experiment; the reports go to stdout, the returned
/// numbers are for the tests.
fn run<'a>(name: &str, trained: &impl Fn() -> &'a Reproduction) {
    match name {
        "fig1b" => _ = exp::fig1b(&Reproduction::simulator()),
        "fig1c" => _ = exp::fig1c(trained()),
        "fig3a" => _ = exp::fig3a(trained()),
        "fig4a" => _ = exp::fig4a(trained(), 6, 6),
        "fig4b" => _ = exp::fig4b(),
        "fig4c" => _ = exp::fig4c(trained()),
        "fig6a" => _ = exp::fig6a(trained()),
        "fig6b" => _ = exp::fig6b(trained()),
        "fig7" => _ = exp::fig7(trained()),
        "fig8" => _ = exp::fig8(trained()),
        "fig9" => _ = exp::fig9(trained()),
        "table2" => _ = exp::table2(trained()),
        "table3" => _ = exp::table3(trained()),
        "table4" => _ = exp::table4(trained()),
        "all" => {
            for name in PAPER {
                run(name, trained);
            }
            ablations(trained());
            println!("\nAll experiments complete.");
        }
        "ablations" => {
            ablations(trained());
            println!("\nAblation suite complete.");
        }
        "drift" => _ = exp::drift_bench(),
        "faults" => _ = exp::fault_injection(120, &[0, 1, 4, 16, 64, 4096], 42),
        _ => unreachable!("names are checked before any runs"),
    }
}

/// The ablation suite of DESIGN.md §9: path selection, entropy regularizer,
/// gating policy, dataflow, ladder depth and quantization.
fn ablations(repro: &Reproduction) {
    exp::ablation_path_selection(repro, 6);
    exp::ablation_entropy_regularizer(repro);
    exp::ablation_gating(repro);
    exp::ablation_dataflow();
    exp::ablation_ladder(repro);
    exp::ablation_quantization(repro);
}

/// Per-layer PIVOT-Sim profile of one effort on the ZCU102 — the per-layer
/// view a SCALE-Sim-class simulator exports.
fn profile(geom: &VitGeometry, effort: usize) {
    let mask: Vec<bool> = (0..geom.depth).map(|i| i < effort).collect();
    let (perf, layers) = Reproduction::simulator().simulate_detailed(geom, &mask);
    println!(
        "{} @ effort {effort} on ZCU102 (64x36 IS, 125 MHz)",
        geom.name
    );
    println!(
        "{:<16} {:>4} {:>10} {:>12} {:>12} {:>7}",
        "layer", "unit", "delay (ms)", "MACs", "DRAM bytes", "util %"
    );
    for l in &layers {
        println!(
            "{:<16} {:>4} {:>10.4} {:>12} {:>12} {:>7.1}",
            l.name,
            if l.on_ps { "PS" } else { "PL" },
            l.delay_ms,
            l.macs,
            l.dram_bytes,
            100.0 * l.utilization
        );
    }
    println!("\ntotal: {perf}");
}
