//! Component energy model (paper Fig. 6b).
//!
//! Energy for each ZCU102 resource is `idle power x inference delay` plus a
//! per-operation dynamic term driven by the activity counters the timing
//! simulation produces (MACs, SRAM bytes, DRAM bytes, PS cycles). The
//! constants live in [`crate::calib`] and are fitted once to the paper's
//! DeiT-S totals (7.92 W average power).

use crate::calib;
use std::collections::BTreeMap;

/// The four ZCU102 resources the paper's Fig. 6b reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnergyComponent {
    /// The PL systolic PE array.
    PeArray,
    /// On-chip SRAMs (GB, IPMEM, WTMEM, OPMEM).
    Sram,
    /// Periphery: PS-PL interconnect, reset and memory controllers.
    Periphery,
    /// The ZynQ MPSoC processing system.
    Ps,
}

impl EnergyComponent {
    /// All components in report order.
    pub const ALL: [EnergyComponent; 4] = [
        EnergyComponent::PeArray,
        EnergyComponent::Sram,
        EnergyComponent::Periphery,
        EnergyComponent::Ps,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EnergyComponent::PeArray => "PE Array",
            EnergyComponent::Sram => "SRAM",
            EnergyComponent::Periphery => "Periphery",
            EnergyComponent::Ps => "PS",
        }
    }
}

/// Per-component energy in joules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyBreakdown {
    per_component: BTreeMap<EnergyComponent, f64>,
}

impl EnergyBreakdown {
    /// Computes the breakdown from activity counters and the total delay.
    pub(crate) fn from_activity(
        delay_ms: f64,
        macs: u64,
        sram_bytes: u64,
        dram_bytes: u64,
        ps_cycles: f64,
    ) -> Self {
        let secs = delay_ms / 1e3;
        let mut b = Self::default();
        b.set(
            EnergyComponent::PeArray,
            calib::IDLE_POWER_PE_W * secs + macs as f64 * calib::ENERGY_PER_MAC_PJ * 1e-12,
        );
        b.set(
            EnergyComponent::Sram,
            calib::IDLE_POWER_SRAM_W * secs
                + sram_bytes as f64 * calib::ENERGY_PER_SRAM_BYTE_PJ * 1e-12,
        );
        b.set(
            EnergyComponent::Periphery,
            calib::IDLE_POWER_PERIPHERY_W * secs
                + dram_bytes as f64 * calib::ENERGY_PER_DRAM_BYTE_PJ * 1e-12,
        );
        b.set(
            EnergyComponent::Ps,
            calib::IDLE_POWER_PS_W * secs + ps_cycles * calib::ENERGY_PER_PS_CYCLE_PJ * 1e-12,
        );
        b
    }

    fn set(&mut self, component: EnergyComponent, joules: f64) {
        self.per_component.insert(component, joules);
    }

    /// Adds `joules` to a component (used when combining efforts).
    pub fn add(&mut self, component: EnergyComponent, joules: f64) {
        *self.per_component.entry(component).or_insert(0.0) += joules;
    }

    /// Joules attributed to `component`.
    pub fn get(&self, component: EnergyComponent) -> f64 {
        self.per_component.get(&component).copied().unwrap_or(0.0)
    }

    /// Total energy in joules.
    pub(crate) fn total_j(&self) -> f64 {
        self.per_component.values().sum()
    }

    /// Scales every component by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut out = Self::default();
        for (c, v) in &self.per_component {
            out.set(*c, v * factor);
        }
        out
    }

    /// Adds another breakdown component-wise.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        for (c, v) in &other.per_component {
            self.add(*c, *v);
        }
    }

    /// Iterates `(component, joules)` pairs in report order.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyComponent, f64)> + '_ {
        EnergyComponent::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_activity_costs_only_idle() {
        let b = EnergyBreakdown::from_activity(1000.0, 0, 0, 0, 0.0);
        let idle_total = calib::IDLE_POWER_PE_W
            + calib::IDLE_POWER_SRAM_W
            + calib::IDLE_POWER_PERIPHERY_W
            + calib::IDLE_POWER_PS_W;
        assert!((b.total_j() - idle_total).abs() < 1e-9);
    }

    #[test]
    fn more_macs_cost_more_pe_energy() {
        let a = EnergyBreakdown::from_activity(10.0, 1_000_000, 0, 0, 0.0);
        let b = EnergyBreakdown::from_activity(10.0, 2_000_000, 0, 0, 0.0);
        assert!(b.get(EnergyComponent::PeArray) > a.get(EnergyComponent::PeArray));
        assert_eq!(b.get(EnergyComponent::Sram), a.get(EnergyComponent::Sram));
    }

    #[test]
    fn scaling_and_accumulation() {
        let a = EnergyBreakdown::from_activity(10.0, 1_000, 1_000, 1_000, 1_000.0);
        let doubled = a.scaled(2.0);
        assert!((doubled.total_j() - 2.0 * a.total_j()).abs() < 1e-12);
        let mut acc = a.clone();
        acc.accumulate(&a);
        assert!((acc.total_j() - doubled.total_j()).abs() < 1e-12);
    }
}
