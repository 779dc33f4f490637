//! Per-request energy accounting over an effort ladder.
//!
//! [`combine_efforts`](crate::combine_efforts) answers the *aggregate*
//! question the paper's Section 3.4 poses: given `F_L`, what is the
//! average per-image delay and energy of a two-effort cascade? An online
//! serving experiment needs the *per-request* form — each request exits
//! the cascade at some level, having executed every level up to it, and
//! should be charged exactly that hardware cost. [`LadderEnergy`] holds
//! one simulated [`EffortPerf`] per ladder level; [`EnergyLedger`]
//! accumulates charges by exit level so a whole request stream folds into
//! mean energy-per-request, mean delay and the realized `F_L` — the
//! quantities `pivot-bench`'s `drift` experiment compares between the
//! static and adaptive threshold policies.
//!
//! For a two-level ladder the ledger's means agree exactly with
//! `combine_efforts` at the realized `F_L` (pinned by test): a level-1
//! exit costs `E_L + E_H` because the cascade *re-runs* the input at high
//! effort after the low effort failed to classify it — the paper's
//! re-computation overhead, charged per request instead of averaged.

use crate::report::EffortPerf;
use crate::simulator::Simulator;
use crate::workload::VitGeometry;

/// Simulated per-level hardware cost of one effort ladder.
#[derive(Debug, Clone)]
pub struct LadderEnergy {
    levels: Vec<EffortPerf>,
}

impl LadderEnergy {
    /// Builds the ladder cost table from already-simulated level reports,
    /// ordered low → high effort.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<EffortPerf>) -> Self {
        assert!(!levels.is_empty(), "need at least one effort level");
        Self { levels }
    }

    /// Simulates each attention mask on `sim` over `geom` and builds the
    /// cost table: `masks[i]` is level `i`'s active-attention mask
    /// (length `geom.depth`), low effort first.
    ///
    /// # Panics
    ///
    /// Panics if `masks` is empty (and the simulator panics on a mask
    /// whose length differs from the geometry's depth).
    pub fn from_masks(sim: &Simulator, geom: &VitGeometry, masks: &[Vec<bool>]) -> Self {
        assert!(!masks.is_empty(), "need at least one effort mask");
        Self::new(masks.iter().map(|m| sim.simulate(geom, m)).collect())
    }

    /// Number of ladder levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The simulated report of level `i`.
    pub fn level(&self, i: usize) -> &EffortPerf {
        &self.levels[i]
    }

    /// Energy (J) charged to a request that exited at `exit_level`: the
    /// sum over every level it executed (`0..=exit_level` — the cascade
    /// always ascends one level at a time from the bottom).
    ///
    /// # Panics
    ///
    /// Panics if `exit_level` is beyond the ladder top.
    pub fn request_energy_j(&self, exit_level: usize) -> f64 {
        assert!(exit_level < self.levels.len(), "exit beyond ladder top");
        self.levels[..=exit_level]
            .iter()
            .map(|l| l.energy.total_j())
            .sum()
    }

    /// Delay (ms) of a request that exited at `exit_level`: the sum of
    /// every executed level's delay (sequential re-runs).
    ///
    /// # Panics
    ///
    /// Panics if `exit_level` is beyond the ladder top.
    pub fn request_delay_ms(&self, exit_level: usize) -> f64 {
        assert!(exit_level < self.levels.len(), "exit beyond ladder top");
        self.levels[..=exit_level].iter().map(|l| l.delay_ms).sum()
    }
}

/// Accumulator folding a request stream into per-request hardware means.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    exits: Vec<u64>,
    energy_j: f64,
    delay_ms: f64,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one request that exited at `exit_level` against the
    /// ladder's cost table.
    ///
    /// # Panics
    ///
    /// Panics if `exit_level` is beyond the ladder top.
    pub fn charge(&mut self, ladder: &LadderEnergy, exit_level: usize) {
        assert!(exit_level < ladder.levels(), "exit beyond ladder top");
        if self.exits.len() < ladder.levels() {
            self.exits.resize(ladder.levels(), 0);
        }
        self.exits[exit_level] += 1;
        self.energy_j += ladder.request_energy_j(exit_level);
        self.delay_ms += ladder.request_delay_ms(exit_level);
    }

    /// Requests charged so far.
    pub fn requests(&self) -> u64 {
        self.exits.iter().sum()
    }

    /// Requests that exited at each level (index = level).
    pub fn exits(&self) -> &[u64] {
        &self.exits
    }

    /// Realized low-exit fraction `F_L` (level-0 exits over requests).
    /// 0.0 for an empty ledger.
    pub fn f_low(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            return 0.0;
        }
        self.exits.first().copied().unwrap_or(0) as f64 / n as f64
    }

    /// Mean energy per request (J). 0.0 for an empty ledger.
    pub fn mean_energy_j(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            return 0.0;
        }
        self.energy_j / n as f64
    }

    /// Mean delay per request (ms). 0.0 for an empty ledger.
    pub fn mean_delay_ms(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            return 0.0;
        }
        self.delay_ms / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine_efforts;
    use crate::simulator::AcceleratorConfig;

    fn ladder() -> LadderEnergy {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let low: Vec<bool> = (0..geom.depth).map(|i| i < 3).collect();
        let high = vec![true; geom.depth];
        LadderEnergy::from_masks(&sim, &geom, &[low, high])
    }

    #[test]
    fn request_cost_sums_every_executed_level() {
        let l = ladder();
        assert_eq!(l.levels(), 2);
        let e_low = l.level(0).energy.total_j();
        let e_high = l.level(1).energy.total_j();
        assert!(e_low > 0.0 && e_high > e_low);
        assert_eq!(l.request_energy_j(0), e_low);
        assert!((l.request_energy_j(1) - (e_low + e_high)).abs() < 1e-12);
        assert!(
            (l.request_delay_ms(1) - (l.level(0).delay_ms + l.level(1).delay_ms)).abs() < 1e-12
        );
    }

    /// The per-request ledger and the paper's aggregate combination math
    /// agree: charging a stream request-by-request yields exactly
    /// `combine_efforts` at the realized `F_L`.
    #[test]
    fn ledger_means_match_combine_efforts_at_realized_f_low() {
        let l = ladder();
        let mut ledger = EnergyLedger::new();
        // 6 low exits, 2 escalations: F_L = 0.75.
        for _ in 0..6 {
            ledger.charge(&l, 0);
        }
        for _ in 0..2 {
            ledger.charge(&l, 1);
        }
        assert_eq!(ledger.requests(), 8);
        assert_eq!(ledger.exits(), &[6, 2]);
        assert!((ledger.f_low() - 0.75).abs() < 1e-12);

        let combined = combine_efforts(l.level(0), l.level(1), ledger.f_low());
        assert!(
            (ledger.mean_energy_j() - combined.energy_j()).abs() < 1e-9,
            "ledger {} vs combined {}",
            ledger.mean_energy_j(),
            combined.energy_j()
        );
        assert!((ledger.mean_delay_ms() - combined.delay_ms).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_all_zeros() {
        let ledger = EnergyLedger::new();
        assert_eq!(ledger.requests(), 0);
        assert_eq!(ledger.f_low(), 0.0);
        assert_eq!(ledger.mean_energy_j(), 0.0);
        assert_eq!(ledger.mean_delay_ms(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exit beyond ladder top")]
    fn exit_beyond_top_panics() {
        let _ = ladder().request_energy_j(2);
    }

    #[test]
    #[should_panic(expected = "exit beyond ladder top")]
    fn charge_rejects_exit_beyond_top() {
        EnergyLedger::new().charge(&ladder(), 2);
    }

    /// A rejected charge panics before it touches the ledger, even when an
    /// earlier, taller ladder already sized the exit counters past it.
    #[test]
    fn rejected_charge_leaves_the_ledger_unchanged() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let masks: Vec<Vec<bool>> = [3, 6, 12]
            .iter()
            .map(|&e| (0..geom.depth).map(|i| i < e).collect())
            .collect();
        let tall = LadderEnergy::from_masks(&sim, &geom, &masks);
        let mut ledger = EnergyLedger::new();
        ledger.charge(&tall, 2);
        let mean = ledger.mean_energy_j();

        let rejected =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ledger.charge(&ladder(), 2)));
        assert!(rejected.is_err());
        assert_eq!(ledger.requests(), 1);
        assert_eq!(ledger.exits(), &[0, 0, 1]);
        assert_eq!(ledger.mean_energy_j().to_bits(), mean.to_bits());
    }
}
