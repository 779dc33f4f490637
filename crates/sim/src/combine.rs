//! Low/high effort combination math (paper Section 3.4, Fig. 5).

use crate::report::{DelayBreakdown, EffortPerf};
use crate::EnergyBreakdown;

/// Per-image performance of a low/high effort combination.
///
/// Every input runs the low effort; a fraction `F_H` additionally re-runs
/// the high effort, so the average per-image delay is
/// `D = D_L + F_H * D_H`. Splitting the low-effort term by destiny gives
/// the paper's Fig. 8b decomposition: `F_L * D_L` (useful low-effort work),
/// `F_H * D_H` (high-effort work) and `F_H * D_L` (re-computation
/// overhead — low-effort work that had to be redone).
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedPerf {
    /// The low-effort report.
    pub low: EffortPerf,
    /// The high-effort report.
    pub high: EffortPerf,
    /// Fraction of inputs classified by the low effort (`F_L`).
    pub f_low: f64,
    /// Average per-image delay (ms).
    pub delay_ms: f64,
    /// Average per-image energy by component.
    pub energy: EnergyBreakdown,
    /// Average per-module delay breakdown.
    pub breakdown: DelayBreakdown,
}

impl CombinedPerf {
    /// `F_H = 1 - F_L`.
    pub fn f_high(&self) -> f64 {
        1.0 - self.f_low
    }

    /// Average per-image energy (J).
    pub fn energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Average power (W). 0.0 for a degenerate zero-delay combination
    /// (rather than a division by zero producing `inf`/`NaN`).
    pub fn power_w(&self) -> f64 {
        if self.delay_ms == 0.0 {
            0.0
        } else {
            self.energy_j() / (self.delay_ms / 1e3)
        }
    }

    /// Energy-delay product (J*ms).
    pub fn edp(&self) -> f64 {
        self.energy_j() * self.delay_ms
    }

    /// Throughput (frames per second). 0.0 for a degenerate zero-delay
    /// combination (no work was simulated, so no frames are produced).
    pub fn fps(&self) -> f64 {
        if self.delay_ms == 0.0 {
            0.0
        } else {
            1e3 / self.delay_ms
        }
    }

    /// Energy efficiency (FPS/W). 0.0 when power is zero (degenerate
    /// combination), keeping every derived metric NaN-free.
    pub fn fps_per_w(&self) -> f64 {
        let power = self.power_w();
        if power == 0.0 {
            0.0
        } else {
            self.fps() / power
        }
    }

    /// Delay attributable to useful low-effort inference: `F_L * D_L` (ms).
    fn low_effort_delay_ms(&self) -> f64 {
        self.f_low * self.low.delay_ms
    }

    /// Delay of the high-effort re-inference: `F_H * D_H` (ms).
    fn high_effort_delay_ms(&self) -> f64 {
        self.f_high() * self.high.delay_ms
    }

    /// Re-computation overhead: `F_H * D_L` (ms) — the paper's
    /// `D_L x F_H` term.
    fn recompute_overhead_ms(&self) -> f64 {
        self.f_high() * self.low.delay_ms
    }

    /// EDP decomposition `(low, high, overhead)` mirroring Fig. 8b, using
    /// the same three-way delay split weighted by average energy density.
    /// All zero at zero delay, like the other derived metrics.
    pub fn edp_split(&self) -> (f64, f64, f64) {
        if self.delay_ms == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let per_ms = self.edp() / self.delay_ms;
        (
            self.low_effort_delay_ms() * per_ms,
            self.high_effort_delay_ms() * per_ms,
            self.recompute_overhead_ms() * per_ms,
        )
    }
}

/// Combines a low- and high-effort report with the measured low-effort
/// classification fraction `f_low` (`F_L`).
///
/// # Panics
///
/// Panics if `f_low` is outside `[0, 1]`.
pub fn combine_efforts(low: &EffortPerf, high: &EffortPerf, f_low: f64) -> CombinedPerf {
    assert!(
        (0.0..=1.0).contains(&f_low),
        "F_L must be in [0, 1], got {f_low}"
    );
    let f_high = 1.0 - f_low;
    let delay_ms = low.delay_ms + f_high * high.delay_ms;

    let mut energy = low.energy.clone();
    energy.accumulate(&high.energy.scaled(f_high));

    let mut breakdown = low.breakdown.clone();
    breakdown.accumulate(&high.breakdown.scaled(f_high));

    CombinedPerf {
        low: low.clone(),
        high: high.clone(),
        f_low,
        delay_ms,
        energy,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcceleratorConfig, Simulator, VitGeometry};

    fn perfs() -> (EffortPerf, EffortPerf) {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let low_mask: Vec<bool> = (0..12).map(|i| i < 6).collect();
        let high_mask: Vec<bool> = (0..12).map(|i| i < 9).collect();
        (
            sim.simulate(&geom, &low_mask),
            sim.simulate(&geom, &high_mask),
        )
    }

    #[test]
    fn delay_formula_matches_paper() {
        let (low, high) = perfs();
        let c = combine_efforts(&low, &high, 0.8);
        let expected = low.delay_ms + 0.2 * high.delay_ms;
        assert!((c.delay_ms - expected).abs() < 1e-9);
    }

    #[test]
    fn all_low_classified_means_low_only() {
        let (low, high) = perfs();
        let c = combine_efforts(&low, &high, 1.0);
        assert!((c.delay_ms - low.delay_ms).abs() < 1e-9);
        assert!((c.energy_j() - low.energy_j()).abs() < 1e-12);
        assert_eq!(c.recompute_overhead_ms(), 0.0);
    }

    #[test]
    fn three_way_split_sums_to_total() {
        let (low, high) = perfs();
        let c = combine_efforts(&low, &high, 0.7);
        let sum = c.low_effort_delay_ms() + c.high_effort_delay_ms() + c.recompute_overhead_ms();
        assert!((sum - c.delay_ms).abs() < 1e-9);
        let (el, eh, eo) = c.edp_split();
        assert!((el + eh + eo - c.edp()).abs() < 1e-6);
    }

    #[test]
    fn higher_f_low_is_cheaper() {
        let (low, high) = perfs();
        let loose = combine_efforts(&low, &high, 0.6);
        let tight = combine_efforts(&low, &high, 0.9);
        assert!(tight.delay_ms < loose.delay_ms);
        assert!(tight.edp() < loose.edp());
    }

    #[test]
    fn combination_beats_baseline_when_f_low_high() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let baseline = sim.simulate(&geom, &[true; 12]);
        let (low, high) = perfs();
        let c = combine_efforts(&low, &high, 0.8);
        assert!(
            c.delay_ms < baseline.delay_ms,
            "cascade must beat baseline at F_L=0.8"
        );
        assert!(c.edp() < baseline.edp());
    }

    #[test]
    #[should_panic(expected = "F_L must be in")]
    fn invalid_fraction_panics() {
        let (low, high) = perfs();
        let _ = combine_efforts(&low, &high, 1.5);
    }

    #[test]
    fn zero_delay_combination_is_nan_free() {
        // Regression: power_w, fps and edp_split divided by zero when
        // delay_ms == 0, yielding inf/NaN that poisoned downstream reports.
        let (low, high) = perfs();
        let mut c = combine_efforts(&low, &high, 0.5);
        c.delay_ms = 0.0;
        assert_eq!(c.power_w(), 0.0);
        assert_eq!(c.fps(), 0.0);
        assert_eq!(c.fps_per_w(), 0.0);
        assert_eq!(c.edp(), 0.0);
        assert_eq!(c.edp_split(), (0.0, 0.0, 0.0));
        for v in [c.power_w(), c.fps(), c.fps_per_w(), c.edp()] {
            assert!(v.is_finite(), "metric {v} not finite");
        }
    }

    #[test]
    fn nonzero_delay_metrics_unchanged() {
        let (low, high) = perfs();
        let c = combine_efforts(&low, &high, 0.5);
        assert!((c.power_w() - c.energy_j() / (c.delay_ms / 1e3)).abs() < 1e-12);
        assert!((c.fps() - 1e3 / c.delay_ms).abs() < 1e-9);
        assert!((c.fps_per_w() - c.fps() / c.power_w()).abs() < 1e-9);
    }
}

impl std::fmt::Display for CombinedPerf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cascade E{}+E{} (F_L {:.2}): {:.2} ms, {:.3} J, EDP {:.2} J*ms",
            self.low.effort,
            self.high.effort,
            self.f_low,
            self.delay_ms,
            self.energy_j(),
            self.edp()
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use crate::{AcceleratorConfig, Simulator, VitGeometry};

    #[test]
    fn combined_perf_display_names_both_efforts() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let low_mask: Vec<bool> = (0..12).map(|i| i < 3).collect();
        let low = sim.simulate(&geom, &low_mask);
        let high = sim.simulate(&geom, &[true; 12]);
        let c = combine_efforts(&low, &high, 0.8);
        let s = c.to_string();
        assert!(s.contains("E3+E12"));
        assert!(s.contains("F_L 0.80"));
    }
}
