//! The accelerator configuration and top-level simulator.

use crate::ps::PsConfig;
use crate::report::{DelayBreakdown, EffortPerf};
use crate::systolic::matmul_cycles;
use crate::workload::{LayerOp, OpKind, VitGeometry, VitWorkload};
use crate::{Dataflow, EnergyBreakdown};

/// Per-operation profile entry produced by [`Simulator::simulate_detailed`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Operation name, e.g. `"enc3.qkv"`.
    pub name: String,
    /// Reporting bucket.
    pub module: crate::ModuleClass,
    /// Whether the operation ran on the PS (true) or the PL array (false).
    pub on_ps: bool,
    /// Latency contribution in milliseconds.
    pub delay_ms: f64,
    /// MAC operations (0 for PS ops).
    pub macs: u64,
    /// DRAM bytes moved (0 for PS ops).
    pub dram_bytes: u64,
    /// PE-array utilization for MAC ops, 0 for PS ops.
    pub utilization: f64,
}

/// ZCU102 accelerator parameters (paper Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// PE array rows.
    pub pe_rows: usize,
    /// PE array columns.
    pub pe_cols: usize,
    /// PL clock in MHz.
    pub clock_mhz: f64,
    /// Dataflow mapping.
    pub dataflow: Dataflow,
    /// Global SRAM buffer capacity in bytes (Table 1: 16 KB).
    pub gb_bytes: usize,
    /// Input SRAM capacity in bytes (Table 1: 64 Kb = 8 KB).
    pub ipmem_bytes: usize,
    /// Weight SRAM capacity in bytes.
    pub wtmem_bytes: usize,
    /// Output SRAM capacity in bytes.
    pub opmem_bytes: usize,
    /// DRAM bandwidth in bytes per PL cycle.
    pub dram_bytes_per_cycle: usize,
    /// Processing-system timing model.
    pub ps: PsConfig,
}

impl AcceleratorConfig {
    /// The paper's Table 1 configuration: 64x36 PEs, input stationary,
    /// 125 MHz, 16 KB GB, 8 KB IP/WT/OP SRAMs.
    pub fn zcu102() -> Self {
        Self {
            pe_rows: 64,
            pe_cols: 36,
            clock_mhz: 125.0,
            dataflow: Dataflow::InputStationary,
            gb_bytes: 16 * 1024,
            ipmem_bytes: 8 * 1024,
            wtmem_bytes: 8 * 1024,
            opmem_bytes: 8 * 1024,
            dram_bytes_per_cycle: 64,
            ps: PsConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics, naming the rule, on an empty PE array or SRAM, zero DRAM
    /// bandwidth, or a clock that is not finite and positive.
    pub fn validate(&self) {
        assert!(
            self.pe_rows > 0 && self.pe_cols > 0,
            "PE array must be non-empty"
        );
        assert!(
            self.clock_mhz.is_finite()
                && self.ps.clock_mhz.is_finite()
                && self.clock_mhz > 0.0
                && self.ps.clock_mhz > 0.0,
            "clocks must be positive"
        );
        assert!(
            self.dram_bytes_per_cycle > 0,
            "DRAM bandwidth must be positive"
        );
        assert!(
            self.gb_bytes > 0
                && self.ipmem_bytes > 0
                && self.wtmem_bytes > 0
                && self.opmem_bytes > 0,
            "SRAM sizes must be positive"
        );
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::zcu102()
    }
}

/// PIVOT-Sim's top-level entry point: maps ViT workloads onto an
/// [`AcceleratorConfig`] and produces per-image delay/energy reports.
///
/// # Example
///
/// ```
/// use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
///
/// let sim = Simulator::new(AcceleratorConfig::zcu102());
/// let geom = VitGeometry::deit_s();
/// let full = sim.simulate(&geom, &vec![true; 12]);
/// let half = sim.simulate(&geom, &{
///     let mut m = vec![false; 12];
///     m.iter_mut().take(6).for_each(|b| *b = true);
///     m
/// });
/// assert!(half.delay_ms < full.delay_ms);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    accel: AcceleratorConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(accel: AcceleratorConfig) -> Self {
        accel.validate();
        Self { accel }
    }

    /// The accelerator configuration in use.
    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.accel
    }

    /// Simulates one inference of `geom` under the given attention-skip
    /// mask and returns the per-image performance report.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the geometry depth.
    pub fn simulate(&self, geom: &VitGeometry, active_attention: &[bool]) -> EffortPerf {
        self.run(geom, active_attention, |_, _| {})
    }

    /// Like [`Simulator::simulate`], but additionally returns one
    /// [`LayerReport`] per scheduled operation — the per-layer profile a
    /// SCALE-Sim-style tool exports for accelerator design-space work.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the geometry depth.
    pub fn simulate_detailed(
        &self,
        geom: &VitGeometry,
        active_attention: &[bool],
    ) -> (EffortPerf, Vec<LayerReport>) {
        let mut layers = Vec::new();
        let perf = self.run(geom, active_attention, |op, cost| {
            layers.push(LayerReport {
                name: op.name.clone(),
                module: op.module,
                on_ps: matches!(op.kind, OpKind::Ps { .. }),
                delay_ms: cost.delay_ms,
                macs: cost.macs,
                dram_bytes: cost.dram_bytes,
                utilization: cost.utilization,
            });
        });
        (perf, layers)
    }

    /// Builds the workload, prices each op once, hands every op and its
    /// cost to `visit`, and sums the costs in op order.
    fn run(
        &self,
        geom: &VitGeometry,
        active_attention: &[bool],
        mut visit: impl FnMut(&LayerOp, &OpCost),
    ) -> EffortPerf {
        let workload = VitWorkload::build(geom, active_attention);
        let mut breakdown = DelayBreakdown::new();
        let mut macs = 0u64;
        let mut dram_bytes = 0u64;
        let mut sram_bytes = 0u64;
        let mut ps_cycles = 0.0f64;

        for op in &workload.ops {
            let cost = self.price(op.kind);
            breakdown.add(op.module, cost.delay_ms);
            macs += cost.macs;
            dram_bytes += cost.dram_bytes;
            sram_bytes += cost.sram_bytes;
            ps_cycles += cost.ps_cycles;
            visit(op, &cost);
        }

        let delay_ms = breakdown.total_ms();
        let energy =
            EnergyBreakdown::from_activity(delay_ms, macs, sram_bytes, dram_bytes, ps_cycles);
        EffortPerf {
            model: geom.name.clone(),
            effort: active_attention.iter().filter(|&&a| a).count(),
            delay_ms,
            breakdown,
            energy,
            macs,
            dram_bytes,
            sram_bytes,
            ps_cycles,
        }
    }

    /// The delay and activity of one op: a PL matmul group or a PS op.
    fn price(&self, kind: OpKind) -> OpCost {
        match kind {
            OpKind::Mac { dims, count } => {
                let stats = matmul_cycles(dims, &self.accel);
                let count = count as u64;
                OpCost {
                    delay_ms: (stats.total_cycles * count) as f64 / (self.accel.clock_mhz * 1e3),
                    macs: stats.macs * count,
                    dram_bytes: stats.dram_bytes * count,
                    sram_bytes: stats.sram_bytes * count,
                    ps_cycles: 0.0,
                    utilization: stats.utilization(self.accel.pe_rows, self.accel.pe_cols),
                }
            }
            OpKind::Ps { kind, elements } => OpCost {
                delay_ms: self.accel.ps.delay_ms(kind, elements),
                macs: 0,
                dram_bytes: 0,
                sram_bytes: 0,
                ps_cycles: self.accel.ps.cycles(kind, elements),
                utilization: 0.0,
            },
        }
    }
}

/// What one op costs, as [`Simulator::price`] computes it.
struct OpCost {
    delay_ms: f64,
    macs: u64,
    dram_bytes: u64,
    sram_bytes: u64,
    ps_cycles: f64,
    utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ModuleClass;

    fn sim() -> Simulator {
        Simulator::new(AcceleratorConfig::zcu102())
    }

    #[test]
    #[should_panic(expected = "PE array must be non-empty")]
    fn an_empty_pe_array_is_rejected() {
        AcceleratorConfig {
            pe_rows: 0,
            ..AcceleratorConfig::zcu102()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "clocks must be positive")]
    fn a_nan_clock_is_rejected() {
        AcceleratorConfig {
            clock_mhz: f64::NAN,
            ..AcceleratorConfig::zcu102()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "clocks must be positive")]
    fn a_negative_clock_is_rejected() {
        AcceleratorConfig {
            clock_mhz: -1.0,
            ..AcceleratorConfig::zcu102()
        }
        .validate();
    }

    /// Calibration anchor 1: the DeiT-S baseline must land near the paper's
    /// published 59.66 ms with softmax around 60% of it (Table 2 / Fig. 6a).
    #[test]
    fn deit_s_baseline_matches_paper_anchor() {
        let perf = sim().simulate(&VitGeometry::deit_s(), &[true; 12]);
        assert!(
            (50.0..70.0).contains(&perf.delay_ms),
            "DeiT-S delay {} ms, paper 59.66 ms",
            perf.delay_ms
        );
        let softmax_frac = perf.breakdown.fraction(ModuleClass::Softmax);
        assert!(
            (0.52..0.68).contains(&softmax_frac),
            "softmax fraction {softmax_frac}, paper ~0.60"
        );
    }

    /// Calibration anchor: LVViT-S near 79.55 ms with softmax ~63%.
    #[test]
    fn lvvit_s_baseline_matches_paper_anchor() {
        let perf = sim().simulate(&VitGeometry::lvvit_s(), &[true; 16]);
        assert!(
            (66.0..92.0).contains(&perf.delay_ms),
            "LVViT-S delay {} ms, paper 79.55 ms",
            perf.delay_ms
        );
        let softmax_frac = perf.breakdown.fraction(ModuleClass::Softmax);
        assert!(
            (0.55..0.70).contains(&softmax_frac),
            "softmax fraction {softmax_frac}, paper ~0.63"
        );
    }

    /// Fig. 1b: the attention module (MACs + softmax) is 77.5-81.9% of
    /// total inference delay.
    #[test]
    fn attention_share_matches_fig_1b() {
        for (geom, mask_len) in [(VitGeometry::deit_s(), 12), (VitGeometry::lvvit_s(), 16)] {
            let perf = sim().simulate(&geom, &vec![true; mask_len]);
            let frac = perf.breakdown.attention_total_ms() / perf.delay_ms;
            assert!(
                (0.72..0.88).contains(&frac),
                "{}: attention share {frac}, paper 0.775-0.819",
                geom.name
            );
        }
    }

    /// Power anchor: baseline average power near the paper's 7.92 W.
    #[test]
    fn baseline_power_matches_paper_anchor() {
        let perf = sim().simulate(&VitGeometry::deit_s(), &[true; 12]);
        let p = perf.power_w();
        assert!((6.0..10.0).contains(&p), "power {p} W, paper 7.92 W");
    }

    /// Entropy check is negligible (< 0.05% of delay, Section 3.4).
    #[test]
    fn entropy_overhead_is_negligible() {
        let perf = sim().simulate(&VitGeometry::deit_s(), &[true; 12]);
        let frac = perf.breakdown.fraction(ModuleClass::Entropy);
        assert!(frac < 0.0005, "entropy fraction {frac} >= 0.05%");
    }

    #[test]
    fn fewer_attentions_are_strictly_faster() {
        let geom = VitGeometry::deit_s();
        let mut prev = f64::INFINITY;
        for effort in [12usize, 9, 6, 3] {
            let mask: Vec<bool> = (0..12).map(|i| i < effort).collect();
            let perf = sim().simulate(&geom, &mask);
            assert!(perf.delay_ms < prev, "effort {effort} not faster");
            prev = perf.delay_ms;
        }
    }

    #[test]
    fn skip_position_does_not_change_delay() {
        // Delay depends only on how many attentions run, not where.
        let geom = VitGeometry::deit_s();
        let front: Vec<bool> = (0..12).map(|i| i < 6).collect();
        let back: Vec<bool> = (0..12).map(|i| i >= 6).collect();
        let a = sim().simulate(&geom, &front);
        let b = sim().simulate(&geom, &back);
        assert!((a.delay_ms - b.delay_ms).abs() < 1e-9);
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let perf = sim().simulate(&VitGeometry::deit_s(), &[true; 12]);
        assert!((perf.edp() - perf.energy_j() * perf.delay_ms).abs() < 1e-9);
        assert!((perf.fps() * perf.delay_ms - 1e3).abs() < 1e-6);
        let recomputed = perf.fps() / perf.power_w();
        assert!((perf.fps_per_w() - recomputed).abs() < 1e-9);
    }

    #[test]
    fn bigger_array_is_faster_on_macs() {
        let geom = VitGeometry::deit_s();
        let small = Simulator::new(AcceleratorConfig::zcu102());
        let big = Simulator::new(AcceleratorConfig {
            pe_rows: 128,
            pe_cols: 72,
            ..AcceleratorConfig::zcu102()
        });
        let mask = vec![true; 12];
        let a = small.simulate(&geom, &mask);
        let b = big.simulate(&geom, &mask);
        assert!(
            b.breakdown.get(ModuleClass::Mlp) < a.breakdown.get(ModuleClass::Mlp),
            "larger array should cut MAC time"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::VitGeometry;
    use proptest::prelude::*;

    fn geom(depth: usize, dim_heads: (usize, usize), tokens: usize) -> VitGeometry {
        VitGeometry {
            name: "prop".to_string(),
            depth,
            dim: dim_heads.0,
            heads: dim_heads.1,
            mlp_hidden: dim_heads.0 * 4,
            tokens,
            patch_dim: 768,
            num_classes: 1000,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Delay grows monotonically with effort (more active attentions).
        #[test]
        fn prop_delay_monotone_in_effort(effort in 0usize..12) {
            let sim = Simulator::new(AcceleratorConfig::zcu102());
            let g = VitGeometry::deit_s();
            let mask_a: Vec<bool> = (0..12).map(|i| i < effort).collect();
            let mask_b: Vec<bool> = (0..12).map(|i| i <= effort).collect();
            let a = sim.simulate(&g, &mask_a);
            let b = sim.simulate(&g, &mask_b);
            prop_assert!(b.delay_ms > a.delay_ms);
            prop_assert!(b.energy_j() > a.energy_j());
        }

        /// Delay grows with model depth.
        #[test]
        fn prop_delay_monotone_in_depth(depth in 2usize..20) {
            let sim = Simulator::new(AcceleratorConfig::zcu102());
            let small = sim.simulate(&geom(depth, (384, 6), 197), &vec![true; depth]);
            let big = sim.simulate(&geom(depth + 1, (384, 6), 197), &vec![true; depth + 1]);
            prop_assert!(big.delay_ms > small.delay_ms);
        }

        /// Delay grows with sequence length.
        #[test]
        fn prop_delay_monotone_in_tokens(tokens in 16usize..256) {
            let sim = Simulator::new(AcceleratorConfig::zcu102());
            let a = sim.simulate(&geom(4, (384, 6), tokens), &[true; 4]);
            let b = sim.simulate(&geom(4, (384, 6), tokens + 16), &[true; 4]);
            prop_assert!(b.delay_ms > a.delay_ms);
        }

        /// A faster clock never increases delay.
        #[test]
        fn prop_clock_speedup(mult in 1.1f64..4.0) {
            let g = VitGeometry::deit_s();
            let mask = vec![true; 12];
            let base = Simulator::new(AcceleratorConfig::zcu102()).simulate(&g, &mask);
            let fast_cfg = AcceleratorConfig {
                clock_mhz: 125.0 * mult,
                ..AcceleratorConfig::zcu102()
            };
            let fast = Simulator::new(fast_cfg).simulate(&g, &mask);
            prop_assert!(fast.delay_ms < base.delay_ms);
        }

        /// Combined delay interpolates between the two efforts' extremes.
        #[test]
        fn prop_combination_bounds(f_low in 0.0f64..=1.0) {
            let sim = Simulator::new(AcceleratorConfig::zcu102());
            let g = VitGeometry::deit_s();
            let low_mask: Vec<bool> = (0..12).map(|i| i < 4).collect();
            let low = sim.simulate(&g, &low_mask);
            let high = sim.simulate(&g, &[true; 12]);
            let c = crate::combine_efforts(&low, &high, f_low);
            prop_assert!(c.delay_ms >= low.delay_ms - 1e-9);
            prop_assert!(c.delay_ms <= low.delay_ms + high.delay_ms + 1e-9);
            // Delay is linear (decreasing) in f_low.
            let c2 = crate::combine_efforts(&low, &high, (f_low + 0.1).min(1.0));
            prop_assert!(c2.delay_ms <= c.delay_ms + 1e-9);
        }
    }
}

#[cfg(test)]
mod detailed_tests {
    use super::*;
    use crate::{ModuleClass, VitGeometry};

    #[test]
    fn detailed_profile_sums_to_total_delay() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let (perf, layers) = sim.simulate_detailed(&geom, &[true; 12]);
        let layer_sum: f64 = layers.iter().map(|l| l.delay_ms).sum();
        assert!((layer_sum - perf.delay_ms).abs() < 1e-9);
        // 1 embed + 12 * 10 encoder ops + 3 tail ops.
        assert_eq!(layers.len(), 1 + 12 * 10 + 3);
    }

    #[test]
    fn detailed_profile_separates_ps_and_pl() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let (_, layers) = sim.simulate_detailed(&geom, &[true; 12]);
        let softmax = layers
            .iter()
            .find(|l| l.module == ModuleClass::Softmax)
            .expect("softmax");
        assert!(softmax.on_ps);
        assert_eq!(softmax.macs, 0);
        let qkv = layers.iter().find(|l| l.name == "enc0.qkv").expect("qkv");
        assert!(!qkv.on_ps);
        assert!(qkv.macs > 0);
        assert!((0.0..=1.0).contains(&qkv.utilization));
    }

    #[test]
    fn detailed_macs_match_summary() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::lvvit_s();
        let (perf, layers) = sim.simulate_detailed(&geom, &[true; 16]);
        let mac_sum: u64 = layers.iter().map(|l| l.macs).sum();
        assert_eq!(mac_sum, perf.macs);
    }
}
