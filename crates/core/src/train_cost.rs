//! Training-cost (GPU hours) model for Fig. 4c.
//!
//! The paper fine-tunes every effort for 30 epochs and compares the summed
//! cost against training the full ViT from scratch (the standard 300-epoch
//! DeiT recipe), finding the multi-effort preparation 3x (DeiT-S) / 2x
//! (LVViT-S) cheaper. Per-epoch cost is proportional to the per-image
//! compute time of the configuration being trained (backward passes scale
//! with the same work), which PIVOT-Sim already models.

use crate::PathConfig;
use pivot_sim::{Simulator, VitGeometry};

/// Epoch counts of the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainCostModel {
    /// Epochs to train the full ViT from scratch (DeiT recipe: 300).
    pub scratch_epochs: f64,
    /// Fine-tuning epochs per effort (paper: 30).
    pub finetune_epochs: f64,
}

impl Default for TrainCostModel {
    fn default() -> Self {
        Self {
            scratch_epochs: 300.0,
            finetune_epochs: 30.0,
        }
    }
}

impl TrainCostModel {
    /// Relative GPU hours to fine-tune one effort path, normalized so the
    /// full-effort model's per-epoch cost is 1 epoch-unit.
    fn effort_cost(&self, sim: &Simulator, geom: &VitGeometry, path: &PathConfig) -> f64 {
        let full = sim.simulate(geom, &vec![true; geom.depth]).delay_ms;
        let this = sim.simulate(geom, &path.to_mask()).delay_ms;
        self.finetune_epochs * this / full
    }

    /// Relative GPU hours to prepare all effort paths, in scratch-training
    /// units (1.0 = the cost of training the ViT from scratch).
    pub fn all_efforts_cost(
        &self,
        sim: &Simulator,
        geom: &VitGeometry,
        paths: &[PathConfig],
    ) -> f64 {
        let total: f64 = paths.iter().map(|p| self.effort_cost(sim, geom, p)).sum();
        total / self.scratch_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_sim::AcceleratorConfig;

    fn deep_paths(depth: usize, efforts: &[usize]) -> Vec<PathConfig> {
        // Skips concentrated in deep layers, like Phase 1 selects.
        efforts
            .iter()
            .map(|&e| PathConfig::new(depth, &(0..e).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn deit_s_efforts_are_at_least_2x_cheaper_than_scratch() {
        // Paper Fig. 4c: 7 efforts (3..=9) cost ~1/3 of scratch training.
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let paths = deep_paths(12, &[3, 4, 5, 6, 7, 8, 9]);
        let cost = TrainCostModel::default().all_efforts_cost(&sim, &geom, &paths);
        assert!(
            (0.2..0.5).contains(&cost),
            "DeiT-S all-efforts cost {cost}, paper ~0.33"
        );
    }

    #[test]
    fn lvvit_s_efforts_are_about_2x_cheaper() {
        // Paper Fig. 4c: 9 efforts (4..=12) cost ~1/2 of scratch training.
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::lvvit_s();
        let paths = deep_paths(16, &[4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let cost = TrainCostModel::default().all_efforts_cost(&sim, &geom, &paths);
        assert!(
            (0.3..0.65).contains(&cost),
            "LVViT-S all-efforts cost {cost}, paper ~0.5"
        );
    }

    #[test]
    fn smaller_efforts_train_faster() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let model = TrainCostModel::default();
        let small = model.effort_cost(&sim, &geom, &deep_paths(12, &[3])[0]);
        let big = model.effort_cost(&sim, &geom, &deep_paths(12, &[9])[0]);
        assert!(small < big);
    }

    #[test]
    fn full_effort_costs_exactly_finetune_epochs() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let model = TrainCostModel::default();
        let cost = model.effort_cost(&sim, &geom, &PathConfig::full(12));
        assert!((cost - model.finetune_epochs).abs() < 1e-9);
    }
}
