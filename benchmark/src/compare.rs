//! `compare <a> <b>`: the rule of choosing-metrics section 6, applied
//! with the bounds `BENCHMARK.json` fixes, one row per workload x metric.
//! Each file holds one or more results (`--append` writes one per line);
//! `a` is the baseline.

use crate::json::{self, Value};
use crate::stats::Quartiles;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of `b` beats every run of `a`, or `b` wins nine pairs in
    /// ten and its median is better by more than `a`'s own spread.
    Improved,
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Unchanged,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative = better), and the wider of the two sides' spreads.
pub fn worsening_and_spread(a: &[f64], b: &[f64], lower_is_better: bool) -> (f64, f64) {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    let base = qa.p50.abs().max(f64::MIN_POSITIVE);
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let spread = |q: Quartiles| (q.p75 - q.p25) / base;
    (sign * (qb.p50 - qa.p50) / base, spread(qa).max(spread(qb)))
}

pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (worsening, spread) = worsening_and_spread(a, b, lower_is_better);
    let clean_sweep = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if clean_sweep {
        return Verdict::Improved;
    }
    if spread > bound {
        return Verdict::Unresolved;
    }
    if worsening > bound {
        return Verdict::Regressed;
    }
    // Runs pair up in the order they were made (alternating A/B runs).
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let a_spread = Quartiles::of(a).spread();
    if pairs > 0 && wins * 10 >= pairs * 9 && -worsening > a_spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Direction and bound of one declared metric.
struct Declared {
    lower_is_better: bool,
    /// `None` for per-layer metrics, which carry no bound.
    bound: Option<f64>,
}

fn declared(benchmark: &Value) -> Result<BTreeMap<String, Declared>, String> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let metrics = benchmark
            .get(section)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            out.insert(
                name.to_string(),
                Declared {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, traced) -> metric -> one value per run`, in run order.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for result in json::parse_all(&text).map_err(|e| format!("{}: {e}", path.display()))? {
        let workload = result
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: result without workload", path.display()))?;
        let traced = result.get("trace") == Some(&Value::Bool(true));
        let metrics = result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
        let group = runs.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                group.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Prints the table; `Ok(true)` if no pairing regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the checkout root): {e}"))?;
    let declared = declared(&json::parse(&benchmark)?)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    println!(
        "{:<20} {:<36} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "spread", "bound"
    );
    let mut clean = true;
    for ((workload, traced), metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(&(workload.clone(), *traced)) else {
            continue;
        };
        for (name, values_a) in metrics_a {
            let (Some(values_b), Some(d)) = (metrics_b.get(name), declared.get(name)) else {
                continue;
            };
            let (worse, spread) = worsening_and_spread(values_a, values_b, d.lower_is_better);
            let (bound, label) = match d.bound {
                Some(bound) => {
                    let v = verdict(values_a, values_b, d.lower_is_better, bound);
                    clean &= v != Verdict::Regressed;
                    (format!("{:.1}%", bound * 100.0), v.label())
                }
                None => ("-".to_string(), "layer"),
            };
            println!(
                "{:<20} {:<36} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>7}  {label} (n={}/{})",
                workload,
                name,
                Quartiles::of(values_a).p50,
                Quartiles::of(values_b).p50,
                worse * 100.0,
                spread * 100.0,
                bound,
                values_a.len(),
                values_b.len(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: bool = false; // higher is better
    const LATENCY: bool = true; // lower is better

    #[test]
    fn identical_sides_are_unchanged() {
        let runs = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&runs, &runs, RATE, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&runs, &runs, LATENCY, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], RATE, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], LATENCY, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[95.0, 96.0, 94.0], RATE, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_a_clean_sweep() {
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert_eq!(
            verdict(&noisy, &[90.0, 130.0, 70.0], RATE, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[150.0, 160.0, 170.0], RATE, 0.1),
            Verdict::Improved,
            "every run of b beats every run of a"
        );
    }

    #[test]
    fn improvement_needs_nine_wins_in_ten_and_more_than_the_baseline_spread() {
        let a = [
            100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0,
        ];
        let better: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&a, &better, LATENCY, 0.1), Verdict::Improved);
        let barely: Vec<f64> = a.iter().map(|x| x * 0.999).collect();
        assert_eq!(verdict(&a, &barely, LATENCY, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let (w, s) = worsening_and_spread(&[10.0], &[11.0], LATENCY);
        assert!((w - 0.1).abs() < 1e-12 && s == 0.0);
        let (w, _) = worsening_and_spread(&[10.0], &[11.0], RATE);
        assert!((w + 0.1).abs() < 1e-12);
    }
}
