//! Phase 2: hardware-in-the-loop search for the optimal effort combination
//! (paper Fig. 2c).

use crate::cache::CascadeCache;
use crate::guarded::check_grid_walk;
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
    /// classified by the low effort (the paper's LEC, as a fraction), in
    /// `(0, 1]` ([`check_grid_walk`]).
    pub lec: f64,
    /// Target per-image delay in milliseconds, finite and positive.
    pub delay_constraint_ms: f64,
    /// Acceptance tolerance around the delay constraint (paper: 5%),
    /// finite and non-negative.
    pub delay_tolerance: f64,
    /// Step of the incremental threshold iteration, finite and at least
    /// `f32::EPSILON` ([`check_grid_walk`]).
    pub threshold_step: f32,
}

impl Phase2Config {
    /// Panics, naming the field, unless every field is in its documented
    /// range: a NaN LEC or delay would otherwise be compared as always
    /// false and read as "met" or "infeasible". `lec` and `threshold_step`
    /// follow the grid walk's one rule, [`check_grid_walk`].
    fn check(&self) {
        check_grid_walk(self.lec, self.threshold_step);
        assert!(
            self.delay_constraint_ms.is_finite() && self.delay_constraint_ms > 0.0,
            "Phase2Config::delay_constraint_ms must be finite and > 0, got {}",
            self.delay_constraint_ms
        );
        assert!(
            self.delay_tolerance.is_finite() && self.delay_tolerance >= 0.0,
            "Phase2Config::delay_tolerance must be finite and >= 0, got {}",
            self.delay_tolerance
        );
    }
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
    /// is empty, an effort's depth does not match the geometry, or an
    /// effort's model runs another skip mask than its path (PIVOT-Sim
    /// would price one network while the calibration batch measures
    /// another).
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
            assert_eq!(
                e.path.effort(),
                e.effort,
                "effort {}: its path has {} active attentions",
                e.effort,
                e.path.effort()
            );
            assert_eq!(
                e.model.active_attentions(),
                e.path.active(),
                "effort {}: its model's active attentions differ from its path",
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

    /// Runs the search. Returns `None` when no combination meets the delay
    /// constraint (the constraint is infeasible even with the smallest
    /// efforts).
    ///
    /// Pairs are walked largest combined effort first, and each is priced
    /// by [`Self::evaluate_pair_prepared`]: threshold, then `F_L` and the
    /// simulated delay from the low effort's cache, and high-effort
    /// inference only for the pair it accepts.
    ///
    /// # Panics
    ///
    /// Panics if a field of `cfg` is outside its documented range (see
    /// [`Phase2Config`]), before any inference.
    ///
    /// Low-effort caches are built lazily, each distinct low effort once.
    /// When the walk first needs one, the same pass
    /// ([`CascadeCache::build_shared`]) also builds every low effort still
    /// pending that shares at least the embedding and encoder block 0 with
    /// it ([`PreparedModel::shared_prefix`]): masks over one backbone
    /// compute their common blocks once. Efforts with distinct (fine-tuned)
    /// weights share nothing and are built one at a time. Every distinct
    /// low and every distinct high effort is prepared once, through the
    /// searcher's store (the lows before the walk starts).
    pub fn run(&self, cfg: &Phase2Config) -> Option<Phase2Result> {
        cfg.check();
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

        // Every distinct low effort, prepared once, waits here until its
        // cache is built.
        let mut pending: Vec<(usize, PreparedModel)> = Vec::new();
        for &(li, _) in &pairs {
            if pending.iter().all(|&(l, _)| l != li) {
                pending.push((li, self.efforts[li].model.prepare_in(&self.store)));
            }
        }
        let mut low_caches: HashMap<usize, CascadeCache> = HashMap::new();
        let mut prepared_highs: HashMap<usize, PreparedModel> = HashMap::new();
        for (li, hi) in pairs {
            let low = &self.efforts[li];
            let high = &self.efforts[hi];
            if !low_caches.contains_key(&li) {
                self.build_caches_sharing_with(li, &mut pending, &mut low_caches);
            }
            let high_prepared = prepared_highs
                .entry(hi)
                .or_insert_with(|| high.model.prepare_in(&self.store));
            if let Some(result) = self.evaluate_pair_prepared(
                low,
                high,
                high_prepared,
                &low_caches[&li],
                cfg,
                max_delay,
            ) {
                return Some(result);
            }
        }
        None
    }

    /// Builds the cache of pending low effort `li`, and in the same pass
    /// those of the pending low efforts that share at least the embedding
    /// and encoder block 0 with it, moving them from `pending` into
    /// `caches`.
    fn build_caches_sharing_with(
        &self,
        li: usize,
        pending: &mut Vec<(usize, PreparedModel)>,
        caches: &mut HashMap<usize, CascadeCache>,
    ) {
        let at = pending
            .iter()
            .position(|&(l, _)| l == li)
            .expect("a low effort without a cache is pending");
        let (_, anchor) = pending.remove(at);
        let (sharing, rest): (Vec<_>, Vec<_>) = std::mem::take(pending)
            .into_iter()
            .partition(|(_, view)| anchor.shared_prefix(view).is_some_and(|k| k >= 1));
        *pending = rest;
        let group: Vec<(usize, &PreparedModel)> = std::iter::once((li, &anchor))
            .chain(sharing.iter().map(|(l, view)| (*l, view)))
            .collect();
        let views: Vec<&PreparedModel> = group.iter().map(|&(_, view)| view).collect();
        let built = CascadeCache::build_shared(&views, self.calibration, self.parallelism);
        for (&(l, _), cache) in group.iter().zip(built) {
            caches.insert(l, cache);
        }
    }

    /// Evaluates one effort pair: iterate `Th` until `F_L >= LEC`, price
    /// the pair on PIVOT-Sim from `F_L` alone, and only if the delay meets
    /// `max_delay_ms` measure its accuracy.
    ///
    /// The steps run on a pre-built low-effort `cache` and an
    /// already-prepared high effort, so a caller probing several pairs (as
    /// [`Self::run`] does) infers / materializes each distinct effort once
    /// and reuses it across every pair sharing it:
    ///
    /// 1. the incremental threshold iteration, in O(N) per step on the
    ///    cached entropies;
    /// 2. `F_L` at that threshold ([`CascadeCache::f_low_at`]) and the
    ///    combined delay `D_L + F_H·D_H`; a pair over the constraint is
    ///    rejected here, with no inference at all;
    /// 3. for a pair that passes, [`CascadeCache::evaluate`]: the high
    ///    effort runs over the escalated samples only.
    ///
    /// `f_low_at` counts the same [`stays_low`](crate::stays_low) gate over
    /// the same samples as the statistics of step 3 (a non-finite entropy
    /// escalates in both), so `result.stats.f_low()` equals the `F_L` the
    /// delay was priced on, bit for bit.
    ///
    /// `max_delay_ms = f64::INFINITY` accepts every pair (no delay gate).
    ///
    /// # Panics
    ///
    /// Panics if a field of `cfg` is outside its documented range (see
    /// [`Phase2Config`]), `max_delay_ms` is NaN (no delay compares below
    /// it, so every pair would read as rejected), or `cache` was not built
    /// from this searcher's calibration batch (length check).
    pub fn evaluate_pair_prepared(
        &self,
        low: &EffortModel,
        high: &EffortModel,
        high_prepared: &PreparedModel,
        cache: &CascadeCache,
        cfg: &Phase2Config,
        max_delay_ms: f64,
    ) -> Option<Phase2Result> {
        cfg.check();
        assert!(
            !max_delay_ms.is_nan(),
            "max_delay_ms is NaN: pass f64::INFINITY for no delay gate"
        );
        assert_eq!(
            cache.len(),
            self.calibration.len(),
            "cache built from a different sample set"
        );
        // Step 2-3: incremental threshold iteration until F_L >= LEC.
        let threshold = cache.threshold_reaching(cfg.lec, cfg.threshold_step);

        // Step 4-5: hardware-in-the-loop delay of the combination, from the
        // cached F_L.
        let perf_low = self.sim.simulate(self.geometry, &low.path.to_mask());
        let perf_high = self.sim.simulate(self.geometry, &high.path.to_mask());
        let perf = combine_efforts(&perf_low, &perf_high, cache.f_low_at(threshold));

        // Only an accepted pair needs C_L/C_H/F_L/F_H and its accuracy.
        (perf.delay_ms <= max_delay_ms).then(|| {
            let (stats, _) =
                cache.evaluate(high_prepared, self.calibration, threshold, self.parallelism);
            Phase2Result {
                low_path: low.path.clone(),
                high_path: high.path.clone(),
                low_effort: low.effort,
                high_effort: high.effort,
                threshold,
                stats,
                perf,
            }
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
    #[should_panic(expected = "effort 6: its path has 5 active attentions")]
    fn an_effort_whose_path_has_another_effort_panics() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let mut efforts = make_efforts(12, &[6, 12], 18);
        // The model and the path agree, the declared effort does not.
        let path = PathConfig::new(12, &[0, 1, 2, 3, 4]);
        efforts[0].model.set_active_attentions(path.active());
        efforts[0].path = path;
        let calib = calibration(19);
        let _ = Phase2Search::new(&sim, &geom, &efforts, &calib);
    }

    #[test]
    #[should_panic(expected = "effort 6: its model's active attentions differ from its path")]
    fn an_effort_whose_model_runs_another_mask_panics() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let mut efforts = make_efforts(12, &[6, 12], 20);
        // Same effort, another mask: PIVOT-Sim would price the path's
        // network while the cache measured the model's.
        efforts[0]
            .model
            .set_active_attentions(&[6, 7, 8, 9, 10, 11]);
        let calib = calibration(21);
        let _ = Phase2Search::new(&sim, &geom, &efforts, &calib);
    }

    /// Runs a search under `cfg`.
    fn run_with(cfg: Phase2Config) {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[6, 12], 22);
        let calib = calibration(23);
        let _ = Phase2Search::new(&sim, &geom, &efforts, &calib).run(&cfg);
    }

    #[test]
    #[should_panic(expected = "lec must be in (0, 1], got NaN")]
    fn a_nan_lec_is_rejected_not_ignored() {
        // Regression: `F_L >= NaN` never held, so the threshold walk ran to
        // its first step and the LEC was ignored.
        run_with(Phase2Config {
            lec: f64::NAN,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "Phase2Config::delay_constraint_ms must be finite and > 0, got NaN")]
    fn a_nan_delay_constraint_is_rejected_not_infeasible() {
        run_with(Phase2Config {
            delay_constraint_ms: f64::NAN,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "Phase2Config::delay_tolerance must be finite and >= 0, got -2")]
    fn a_negative_delay_tolerance_is_rejected_not_infeasible() {
        run_with(Phase2Config {
            delay_tolerance: -2.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "step must be finite and >= f32::EPSILON, got NaN")]
    fn a_nan_threshold_step_is_rejected_by_name() {
        run_with(Phase2Config {
            threshold_step: f32::NAN,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "lec must be in (0, 1], got 1.5")]
    fn a_single_pair_evaluation_checks_the_config_too() {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[6, 12], 24);
        let calib = calibration(25);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        let cache =
            CascadeCache::build_prepared(&efforts[0].model.prepare(), &calib, Parallelism::Off);
        let high = efforts[1].model.prepare();
        let cfg = Phase2Config {
            lec: 1.5,
            ..Default::default()
        };
        let _ = search.evaluate_pair_prepared(
            &efforts[0],
            &efforts[1],
            &high,
            &cache,
            &cfg,
            f64::INFINITY,
        );
    }

    /// One (6, 12) pair evaluated under the default config against the
    /// delay gate `max_delay_ms`.
    fn pair_gated_at(max_delay_ms: f64) -> Option<Phase2Result> {
        let sim = Simulator::new(AcceleratorConfig::zcu102());
        let geom = VitGeometry::deit_s();
        let efforts = make_efforts(12, &[6, 12], 26);
        let calib = calibration(27);
        let search = Phase2Search::new(&sim, &geom, &efforts, &calib);
        let cache =
            CascadeCache::build_prepared(&efforts[0].model.prepare(), &calib, Parallelism::Off);
        let high = efforts[1].model.prepare();
        let cfg = Phase2Config::default();
        search.evaluate_pair_prepared(&efforts[0], &efforts[1], &high, &cache, &cfg, max_delay_ms)
    }

    #[test]
    #[should_panic(expected = "max_delay_ms is NaN")]
    fn a_nan_delay_gate_is_rejected_not_read_as_a_rejected_pair() {
        // Regression: `delay <= NaN` never held, so every pair came back
        // `None`, which callers read as "over the delay constraint".
        let _ = pair_gated_at(f64::NAN);
    }

    #[test]
    fn an_infinite_delay_gate_accepts_the_pair() {
        let result = pair_gated_at(f64::INFINITY).expect("an infinite gate accepts every pair");
        assert_eq!((result.low_effort, result.high_effort), (6, 12));
        assert!(result.perf.delay_ms.is_finite() && result.perf.delay_ms > 0.0);
        // The gate is `<=`: the pair's own delay accepts it too.
        assert!(pair_gated_at(result.perf.delay_ms).is_some());
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
