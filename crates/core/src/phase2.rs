//! Phase 2: hardware-in-the-loop search for the optimal effort combination
//! (paper Fig. 2c).

use crate::cache::CascadeCache;
use crate::parallel::Parallelism;
use crate::{CascadeStats, PathConfig};
use pivot_data::Sample;
use pivot_sim::{combine_efforts, CombinedPerf, Simulator, VitGeometry};
use pivot_vit::{PreparedModel, PreparedStore, StoreStats, VisionTransformer};
use std::collections::HashMap;

/// One effort with its Phase-1 optimal path and fine-tuned model.
#[derive(Debug, Clone)]
pub struct EffortModel {
    /// Number of active attentions.
    pub effort: usize,
    /// The optimal path from Phase 1.
    pub path: PathConfig,
    /// Algorithm-1 score of the path.
    pub score: f32,
    /// The fine-tuned ViT realizing the path.
    pub model: VisionTransformer,
}

/// User constraints for Phase 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase2Config {
    /// Low-effort constraint: minimum fraction of inputs that must be
    /// classified by the low effort (the paper's LEC, as a fraction).
    pub lec: f64,
    /// Target per-image delay in milliseconds.
    pub delay_constraint_ms: f64,
    /// Acceptance tolerance around the delay constraint (paper: 5%).
    pub delay_tolerance: f64,
    /// Step of the incremental threshold iteration.
    pub threshold_step: f32,
}

impl Default for Phase2Config {
    fn default() -> Self {
        Self {
            lec: 0.7,
            delay_constraint_ms: 50.0,
            delay_tolerance: 0.05,
            threshold_step: 0.02,
        }
    }
}

/// The effort combination Phase 2 settles on.
#[derive(Debug, Clone)]
pub struct Phase2Result {
    /// Low-effort path (`Config_L`).
    pub low_path: PathConfig,
    /// High-effort path (`Config_H`).
    pub high_path: PathConfig,
    /// Low effort size.
    pub low_effort: usize,
    /// High effort size.
    pub high_effort: usize,
    /// Chosen entropy threshold `Th`.
    pub threshold: f32,
    /// Calibration-batch cascade statistics (`C_L/C_H/F_L/F_H`), two
    /// levels.
    pub stats: CascadeStats,
    /// Simulated delay/energy of the combination.
    pub perf: CombinedPerf,
}

/// The Phase-2 searcher: pairs every candidate low/high effort, iterates
/// the entropy threshold until `F_L >= LEC` on a calibration batch, asks
/// PIVOT-Sim for the combination delay, and walks from the largest effort
/// pair downward until the delay constraint is met (within tolerance).
#[derive(Debug)]
pub struct Phase2Search<'a> {
    sim: &'a Simulator,
    geometry: &'a VitGeometry,
    efforts: &'a [EffortModel],
    calibration: &'a [Sample],
    parallelism: Parallelism,
    /// One content-addressed store for the whole search: the distinct
    /// efforts all derive from one backbone, so every low-effort cache and
    /// every prepared high effort across all probed pairs Arc-shares one
    /// set of materialized layers.
    store: PreparedStore,
}

impl<'a> Phase2Search<'a> {
    /// Creates a searcher.
    ///
    /// `geometry` is the paper-scale ViT whose delay the constraint refers
    /// to; `efforts` are the Phase-1 outputs (any order); `calibration` is
    /// the small batch (the paper uses 256 training images) on which
    /// thresholds and accuracies are measured.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two efforts are supplied, the calibration batch
    /// is empty, or an effort's depth does not match the geometry.
    pub fn new(
        sim: &'a Simulator,
        geometry: &'a VitGeometry,
        efforts: &'a [EffortModel],
        calibration: &'a [Sample],
    ) -> Self {
        assert!(efforts.len() >= 2, "need at least two efforts to combine");
        assert!(
            !calibration.is_empty(),
            "calibration batch must be non-empty"
        );
        for e in efforts {
            assert_eq!(
                e.path.depth(),
                geometry.depth,
                "effort {} path depth mismatch with geometry",
                e.effort
            );
        }
        Self {
            sim,
            geometry,
            efforts,
            calibration,
            parallelism: Parallelism::Auto,
            store: PreparedStore::new(),
        }
    }

    /// Hit/miss and byte accounting of the content-addressed store all of
    /// this searcher's prepared views were deduplicated through.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Builder-style override of the parallelism used for calibration
    /// inference (default [`Parallelism::Auto`]).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    fn build_cache(&self, model: &VisionTransformer) -> CascadeCache {
        CascadeCache::build_in(model, self.calibration, self.parallelism, &self.store)
    }

    /// Runs the search. Returns `None` when no combination meets the delay
    /// constraint (the constraint is infeasible even with the smallest
    /// efforts).
    pub fn run(&self, cfg: &Phase2Config) -> Option<Phase2Result> {
        let max_delay = cfg.delay_constraint_ms * (1.0 + cfg.delay_tolerance);

        // Candidate (low, high) pairs, largest combined effort first: the
        // paper starts with maximum active attentions and samples smaller
        // combinations each iteration.
        let mut order: Vec<usize> = (0..self.efforts.len()).collect();
        order.sort_by_key(|&i| self.efforts[i].effort);
        let mut pairs = Vec::new();
        for (a, &i) in order.iter().enumerate() {
            for &j in order.iter().skip(a + 1) {
                if self.efforts[i].effort < self.efforts[j].effort {
                    pairs.push((i, j));
                }
            }
        }
        pairs.sort_by_key(|&(i, j)| {
            std::cmp::Reverse((
                self.efforts[i].effort + self.efforts[j].effort,
                self.efforts[j].effort,
            ))
        });

        // Low-effort calibration logits are computed once per distinct low
        // effort and reused across every pair sharing it; likewise each
        // distinct high effort is prepared (quantizers fitted, effective
        // weights materialized) once and reused across every pair.
        let mut low_caches: HashMap<usize, CascadeCache> = HashMap::new();
        let mut prepared_highs: HashMap<usize, PreparedModel> = HashMap::new();
        for (li, hi) in pairs {
            let low = &self.efforts[li];
            let high = &self.efforts[hi];
            let cache = low_caches
                .entry(li)
                .or_insert_with(|| self.build_cache(&low.model));
            let high_prepared = prepared_highs
                .entry(hi)
                .or_insert_with(|| high.model.prepare_in(&self.store));
            if let Some(result) =
                self.evaluate_pair_prepared(low, high, high_prepared, cache, cfg, max_delay)
            {
                return Some(result);
            }
        }
        None
    }

    /// Evaluates one effort pair: iterate `Th` until `F_L >= LEC`, then
    /// check the simulated delay against the constraint.
    ///
    /// Low-effort entropies come from a pre-built `cache` and the high
    /// effort runs on an already-prepared view, so a caller probing several
    /// pairs (as [`Self::run`] does) infers / materializes each distinct
    /// effort once and reuses it across every pair sharing it. The
    /// incremental threshold iteration runs on cached entropies in O(N)
    /// per step, and only the escalated samples are re-inferred with the
    /// high effort.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was not built from this searcher's calibration
    /// batch (length check).
    pub fn evaluate_pair_prepared(
        &self,
        low: &EffortModel,
        high: &EffortModel,
        high_prepared: &PreparedModel,
        cache: &CascadeCache,
        cfg: &Phase2Config,
        max_delay_ms: f64,
    ) -> Option<Phase2Result> {
        // Step 2-3: incremental threshold iteration until F_L >= LEC.
        let threshold = cache.threshold_reaching(cfg.lec, cfg.threshold_step);

        // Step 3-4: measure C_L/C_H/F_L/F_H and accuracy on the batch.
        let (stats, _) =
            cache.evaluate(high_prepared, self.calibration, threshold, self.parallelism);

        // Step 5: hardware-in-the-loop delay of the combination.
        let perf_low = self.sim.simulate(self.geometry, &low.path.to_mask());
        let perf_high = self.sim.simulate(self.geometry, &high.path.to_mask());
        let perf = combine_efforts(&perf_low, &perf_high, stats.f_low());

        (perf.delay_ms <= max_delay_ms).then(|| Phase2Result {
            low_path: low.path.clone(),
            high_path: high.path.clone(),
            low_effort: low.effort,
            high_effort: high.effort,
            threshold,
            stats,
            perf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::{Dataset, DatasetConfig};
    use pivot_sim::AcceleratorConfig;
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};

    fn make_efforts(depth: usize, efforts: &[usize], seed: u64) -> Vec<EffortModel> {
        let cfg = VitConfig {
            depth,
            ..VitConfig::test_small()
        };
        let base = VisionTransformer::new(&cfg, &mut Rng::new(seed));
        efforts
            .iter()
            .map(|&e| {
                // Deep-skip paths, like Phase 1 would produce.
                let active: Vec<usize> = (0..e).collect();
                let path = PathConfig::new(depth, &active);
                let mut model = base.clone();
                model.set_active_attentions(path.active());
                EffortModel {
                    effort: e,
                    path,
                    score: e as f32,
                    model,
                }
            })
            .collect()
    }

    fn calibration(seed: u64) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.1, 0.9], 15, seed)
    }

    #[test]
    fn finds_combination_meeting_loose_constraint() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[3, 6, 9, 12], 0);
        let calib = calibration(1);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        let result = search
            .run(&Phase2Config {
                delay_constraint_ms: 80.0,
                ..Default::default()
            })
            .expect("loose constraint must be satisfiable");
        // Largest pair is tried first and meets a loose constraint.
        assert_eq!((result.low_effort, result.high_effort), (9, 12));
        assert!(result.perf.delay_ms <= 80.0 * 1.05);
        assert!(result.stats.f_low() >= 0.7 || result.threshold >= 1.0);
    }

    #[test]
    fn tighter_constraint_selects_smaller_efforts() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[3, 6, 9, 12], 2);
        let calib = calibration(3);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        let loose = search
            .run(&Phase2Config {
                delay_constraint_ms: 70.0,
                ..Default::default()
            })
            .expect("loose");
        let tight = search
            .run(&Phase2Config {
                delay_constraint_ms: 45.0,
                ..Default::default()
            })
            .expect("tight");
        assert!(
            tight.low_effort + tight.high_effort <= loose.low_effort + loose.high_effort,
            "tighter delay must not select larger efforts"
        );
        assert!(tight.perf.delay_ms < loose.perf.delay_ms + 1e-9);
    }

    #[test]
    fn infeasible_constraint_returns_none() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[9, 12], 4);
        let calib = calibration(5);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        assert!(search
            .run(&Phase2Config {
                delay_constraint_ms: 1.0,
                ..Default::default()
            })
            .is_none());
    }

    #[test]
    fn threshold_satisfies_lec_on_calibration() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[6, 12], 6);
        let calib = calibration(7);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        let cfg = Phase2Config {
            lec: 0.8,
            delay_constraint_ms: 100.0,
            ..Default::default()
        };
        let result = search.run(&cfg).expect("satisfiable");
        assert!(
            result.stats.f_low() >= 0.8 - 1e-9 || result.threshold >= 1.0,
            "F_L {} below LEC at Th {}",
            result.stats.f_low(),
            result.threshold
        );
    }

    #[test]
    fn parallel_search_is_bit_identical() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[3, 6, 9, 12], 10);
        let calib = calibration(11);
        let cfg = Phase2Config {
            delay_constraint_ms: 60.0,
            ..Default::default()
        };
        let seq = Phase2Search::new(&sim, &geom, &efforts, &calib)
            .with_parallelism(Parallelism::Off)
            .run(&cfg)
            .expect("satisfiable");
        for par in [Parallelism::Auto, Parallelism::Fixed(4)] {
            let p = Phase2Search::new(&sim, &geom, &efforts, &calib)
                .with_parallelism(par)
                .run(&cfg)
                .expect("satisfiable");
            assert_eq!(seq.low_effort, p.low_effort);
            assert_eq!(seq.high_effort, p.high_effort);
            assert_eq!(seq.threshold.to_bits(), p.threshold.to_bits());
            assert_eq!(seq.stats, p.stats);
            assert_eq!(seq.perf.delay_ms.to_bits(), p.perf.delay_ms.to_bits());
            assert_eq!(seq.perf.energy_j().to_bits(), p.perf.energy_j().to_bits());
        }
    }

    #[test]
    fn search_shares_prepared_layers_across_pairs() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        // All efforts derive from one backbone, so every prepared view
        // past the first (low caches and high efforts alike) hits the
        // searcher's shared store.
        let efforts = make_efforts(12, &[3, 6, 9, 12], 16);
        let calib = calibration(17);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        assert_eq!(search.store_stats().lookups(), 0);
        // An infeasible constraint forces the search through every pair.
        assert!(search
            .run(&Phase2Config {
                delay_constraint_ms: 1.0,
                ..Default::default()
            })
            .is_none());
        let stats = search.store_stats();
        assert!(stats.hits > 0, "pairs must reuse prepared layers");
        // Memoization prepares six distinct views (lows 3/6/9, highs
        // 6/9/12), all resolving to one resident backbone copy.
        assert_eq!(stats.total_bytes(), 6 * stats.unique_bytes);
        assert_eq!(stats.hit_bytes, 5 * stats.unique_bytes);
    }

    #[test]
    #[should_panic(expected = "at least two efforts")]
    fn single_effort_panics() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[12], 8);
        let calib = calibration(9);
        let _ = Phase2Search::new(&sim, &geom, &efforts, &calib);
    }
}
