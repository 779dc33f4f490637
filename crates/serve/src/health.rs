//! Aggregate server health: the accounting ledger the robustness contract
//! is audited against.
//!
//! Every submission increments exactly one admission counter and — if
//! admitted — exactly one resolution counter, so at drain the identity
//! `submitted == shed + completed + degraded + timed_out + failed` holds.
//! The engine folds each batch in once, under one lock, before it returns
//! the batch's responses; the controllers keep no counts of their own.
//! The ledger also sums two counts of every batch's
//! [`DegradationReport`](pivot_core::DegradationReport) — its fallbacks
//! and its fault escalations — folding the offline fault-accounting
//! vocabulary (DESIGN.md §5) into the online one at a fixed size.

use pivot_core::{write_degradation_summary, EnergyLedger};
use std::fmt;

/// Snapshot of the server's cumulative counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthStats {
    /// Requests offered to `submit` (admitted or not).
    pub submitted: u64,
    /// Requests rejected at admission (queue full or shutting down).
    pub shed: u64,
    /// Requests served at gate-chosen effort with finite logits.
    pub completed: u64,
    /// Requests served below fidelity (effort-capped or fault fallback).
    pub degraded: u64,
    /// Requests whose deadline expired before a useful answer existed.
    pub timed_out: u64,
    /// Requests that failed with a typed error (batch panic).
    pub failed: u64,
    /// Non-empty batches the engine processed: executed, panicked, and
    /// those whose requests had all expired in the queue and were shed
    /// without inference.
    pub batches: u64,
    /// Batches that panicked and were isolated.
    pub panics: u64,
    /// Injected stall faults honored by the engine.
    pub stalls: u64,
    /// Overload-controller downshift steps.
    pub downshifts: u64,
    /// Overload-controller upshift (recovery) steps.
    pub upshifts: u64,
    /// Effort cap in force after the most recent batch.
    pub effort_cap: usize,
    /// Gate threshold (`Th`) in force after the most recent executed
    /// batch — Phase 2's static pick unless the adaptive controller is
    /// retuning it.
    pub threshold: f32,
    /// Adaptive-threshold retunes applied by the controller.
    pub retunes: u64,
    /// Adaptive-threshold retunes held because the overload cap was
    /// engaged (the precedence contract: the cap outranks the gate).
    pub th_holds: u64,
    /// Requests served by a fallback prediction: the sum of every executed
    /// batch's `DegradationReport::fallbacks`.
    pub fallbacks: u64,
    /// Degradation events without a substituted prediction: the sum of
    /// every executed batch's `DegradationReport::escalations`.
    pub fault_escalations: u64,
    /// Every completed or degraded request, charged at its exit level when
    /// [`ServeConfig::costs`](crate::ServeConfig::costs) is set. Timed-out,
    /// failed and shed requests are not charged.
    pub energy: Option<EnergyLedger>,
}

impl HealthStats {
    /// Requests that reached a terminal state after admission.
    pub fn resolved(&self) -> u64 {
        self.completed + self.degraded + self.timed_out + self.failed
    }

    /// Whether the ledger balances: every submission is either shed or
    /// resolved. True at any quiescent point and always after drain.
    pub fn accounted(&self) -> bool {
        self.submitted == self.shed + self.resolved()
    }
}

impl fmt::Display for HealthStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submitted {} = shed {} + completed {} + degraded {} + timed_out {} + failed {} \
             | {} batches ({} panicked, {} stalled), effort cap {} \
             ({} down / {} up), Th {:.3} ({} retunes / {} held), ",
            self.submitted,
            self.shed,
            self.completed,
            self.degraded,
            self.timed_out,
            self.failed,
            self.batches,
            self.panics,
            self.stalls,
            self.effort_cap,
            self.downshifts,
            self.upshifts,
            self.threshold,
            self.retunes,
            self.th_holds,
        )?;
        write_degradation_summary(f, self.fault_escalations, self.fallbacks)?;
        match &self.energy {
            Some(ledger) => write!(f, ", {:.4} J/request", ledger.mean_energy_j()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_core::{AcceleratorConfig, LadderEnergy, Simulator, VitGeometry};

    #[test]
    fn accounting_identity_detects_leaks() {
        let mut h = HealthStats {
            submitted: 10,
            shed: 2,
            completed: 5,
            degraded: 1,
            timed_out: 1,
            failed: 1,
            ..HealthStats::default()
        };
        assert_eq!(h.resolved(), 8);
        assert!(h.accounted());
        // A lost request breaks the ledger.
        h.completed -= 1;
        assert!(!h.accounted());
    }

    #[test]
    fn display_reads_as_a_ledger_line() {
        let h = HealthStats {
            submitted: 3,
            completed: 3,
            batches: 1,
            effort_cap: 1,
            ..HealthStats::default()
        };
        let line = h.to_string();
        assert!(line.contains("submitted 3"), "{line}");
        assert!(line.contains("completed 3"), "{line}");
        assert!(line.contains("no degradation events"), "{line}");
        assert!(!line.contains("J/request"), "unpriced: {line}");

        let geom = VitGeometry::deit_s();
        let costs = LadderEnergy::from_masks(
            &Simulator::new(AcceleratorConfig::zcu102()),
            &geom,
            &[vec![true; geom.depth]],
        );
        let mut ledger = EnergyLedger::new();
        for _ in 0..3 {
            ledger.charge(&costs, 0);
        }
        let mean = format!("{:.4} J/request", ledger.mean_energy_j());
        let priced = HealthStats {
            energy: Some(ledger),
            ..h
        }
        .to_string();
        assert_eq!(priced, format!("{line}, {mean}"));
    }
}
