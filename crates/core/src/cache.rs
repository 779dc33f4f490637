//! Entropy cache: low-effort inference observed once, served everywhere.
//!
//! Phase 2's threshold iteration and the cascade's `F_L` queries all need
//! the same quantity — the normalized entropy of the **low-effort** logits
//! of every calibration sample. Re-running low-effort inference per probed
//! threshold makes a sweep O(thresholds x N x forward-pass);
//! [`CascadeCache`] observes the low effort once (batched, across
//! [`par_map`](crate::par_map)'s workers), keeps each sample's entropy,
//! argmax and finiteness flag, and then answers every threshold query in
//! O(N) with no model in the loop. Phase 2 prices a pair on that `F_L`
//! alone ([`CascadeCache::f_low_at`]), so a pair it rejects costs no
//! inference beyond the cache.
//!
//! Several low efforts can be observed in one pass
//! ([`CascadeCache::build_shared`]): efforts that are masks over one
//! backbone compute the same embedding and leading encoder blocks, and
//! [`PreparedModel::forward_batch_shared`] runs those once for all of
//! them. [`CascadeCache::build_prepared`] is that pass over one effort.
//!
//! For evaluation it is level 0 of the guarded sweep's memo
//! ([`crate::guarded`]), observed ahead: only escalated samples run the
//! high effort, and gating plus fault accounting are the sweep's.
//!
//! ## Invariants
//!
//! * `entropies[i]` and `low_prediction(i)` describe sample `i` of the set
//!   the cache was built from, in input order; no logit rows are kept.
//! * A cache is tied to one (model, sample set) pair; callers index it
//!   with the same sample slice they built it from (checked by length),
//!   and evaluate it against a high effort of the same class space
//!   (checked by class count).
//! * Queries are pure reads: building with any [`Parallelism`], alone or
//!   in a shared pass, yields bit-identical contents, so every downstream
//!   result is deterministic.
//! * `f_low_at(th)` and the `F_L` of `evaluate(.., th, ..)` count the
//!   same [`stays_low`] gate over the same samples (a non-finite entropy
//!   escalates in both), so the two are equal bit for bit.

use crate::guarded::{
    observe_level, observe_levels, stays_low, sweep_from_level0, threshold_grid_walk,
    DegradationReport, LevelObs,
};
use crate::multilevel::CascadeStats;
use crate::parallel::Parallelism;
use pivot_data::Sample;
use pivot_vit::{PreparedModel, PreparedStore, VisionTransformer};

/// Cached low-effort inference over one sample set.
///
/// # Example
///
/// ```
/// use pivot_core::{CascadeCache, Parallelism};
/// use pivot_data::{Dataset, DatasetConfig};
/// use pivot_tensor::Rng;
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let model = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(0));
/// let samples =
///     Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.3], 8, 1);
/// let cache = CascadeCache::build_prepared(&model.prepare(), &samples, Parallelism::Auto);
/// assert_eq!(cache.len(), samples.len());
/// assert_eq!(cache.f_low_at(1.0), 1.0); // inclusive top boundary
/// ```
#[derive(Debug, Clone)]
pub struct CascadeCache {
    level0: Vec<LevelObs>,
    /// `level0[i].entropy`, contiguous for [`Self::entropies`].
    entropies: Vec<f32>,
    /// The low effort's class count, which the high effort must share.
    num_classes: usize,
}

impl CascadeCache {
    /// Runs low-effort inference over `samples` — batched through
    /// [`PreparedModel::forward_batch`] on `par_map`'s workers — and caches
    /// normalized entropies and argmax predictions, with the low effort
    /// prepared through a shared content-addressed `store`: layers already
    /// materialized by another participant (an earlier cache, a prepared
    /// high effort) are Arc-shared instead of re-packed. Bit-identical to
    /// [`CascadeCache::build_prepared`] on a view prepared on its own.
    pub fn build_in(
        low: &VisionTransformer,
        samples: &[Sample],
        par: Parallelism,
        store: &PreparedStore,
    ) -> Self {
        Self::build_prepared(&low.prepare_in(store), samples, par)
    }

    /// [`CascadeCache::build_in`] against an already-prepared inference
    /// view: [`CascadeCache::build_shared`] over one low effort.
    pub fn build_prepared(low: &PreparedModel, samples: &[Sample], par: Parallelism) -> Self {
        Self::build_shared(&[low], samples, par)
            .pop()
            .expect("one low effort in, one cache out")
    }

    /// One cache per low effort in `lows` (in that order), all observed in
    /// one batched pass over `samples` on `par_map`'s workers: each chunk
    /// runs through [`PreparedModel::forward_batch_shared`], so efforts that
    /// share their embedding and leading encoder blocks (masks over one
    /// backbone, prepared through one store) compute those once. Cache `l`
    /// is bit-identical to [`CascadeCache::build_prepared`] on `lows[l]`
    /// alone, for any [`Parallelism`].
    pub fn build_shared(
        lows: &[&PreparedModel],
        samples: &[Sample],
        par: Parallelism,
    ) -> Vec<Self> {
        observe_levels(lows, samples, |s| &s.image, par)
            .into_iter()
            .zip(lows)
            .map(|(level0, low)| Self {
                entropies: level0.iter().map(|o| o.entropy).collect(),
                level0,
                num_classes: low.config().num_classes,
            })
            .collect()
    }

    /// Number of cached samples.
    pub fn len(&self) -> usize {
        self.entropies.len()
    }

    /// Whether the cache holds no samples.
    pub fn is_empty(&self) -> bool {
        self.entropies.is_empty()
    }

    /// The cached normalized entropies, in sample order.
    pub fn entropies(&self) -> &[f32] {
        &self.entropies
    }

    /// The cached low-effort argmax prediction of sample `i`.
    pub fn low_prediction(&self, i: usize) -> usize {
        self.level0[i].prediction as usize
    }

    /// Fraction of cached samples the low effort would classify at
    /// `threshold` (`F_L`), in O(N) with no inference. Returns 0.0 for an
    /// empty cache.
    pub fn f_low_at(&self, threshold: f32) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let below = self
            .entropies
            .iter()
            .filter(|&&e| stays_low(e, threshold))
            .count();
        below as f64 / self.len() as f64
    }

    /// Indices of the samples that escalate to the high effort at
    /// `threshold`, in sample order.
    pub fn escalated(&self, threshold: f32) -> Vec<usize> {
        self.entropies
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| (!stays_low(e, threshold)).then_some(i))
            .collect()
    }

    /// Phase 2's incremental threshold iteration on cached entropies: the
    /// smallest multiple of `step` (capped at 1.0) whose `F_L` reaches
    /// `lec` (see [`threshold_grid_walk`]).
    ///
    /// # Panics
    ///
    /// Panics if `lec` is NaN or `step` is not strictly positive.
    pub fn threshold_reaching(&self, lec: f64, step: f32) -> f32 {
        threshold_grid_walk(lec, step, |th| self.f_low_at(th))
    }

    /// Evaluates the cascade against ground-truth labels at `threshold`:
    /// low-effort outcomes come from the cache, only the escalated samples
    /// run high-effort inference (batched, on `par_map`'s workers), and the
    /// statistics are bit-identical for any [`Parallelism`]. The sweep's
    /// fault accounting (DESIGN.md §5), in two-level terms:
    ///
    /// * A **low-effort fault** surfaces as a non-finite cached entropy;
    ///   [`stays_low`] escalates it at every threshold, so the high effort
    ///   serves the sample (event with `served_by: None` — no fallback was
    ///   needed, escalation itself was the recovery).
    /// * A **high-effort fault** surfaces as non-finite high logits; the
    ///   cached low-effort prediction is served instead (event with
    ///   `served_by: Some(0)`). The sample stays counted under level 1 —
    ///   the high-effort cost was spent — with the fallback prediction's
    ///   correctness.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is not the set the cache was built from (length
    /// check), or `high` does not share the low effort's class space.
    pub fn evaluate(
        &self,
        high: &PreparedModel,
        samples: &[Sample],
        threshold: f32,
        par: Parallelism,
    ) -> (CascadeStats, DegradationReport) {
        assert_eq!(
            samples.len(),
            self.len(),
            "cache built from a different sample set"
        );
        assert_eq!(
            high.config().num_classes,
            self.num_classes,
            "efforts must share the class space"
        );
        let (outcomes, report) = sweep_from_level0(&self.level0, threshold, |escalated| {
            let reached: Vec<&Sample> = escalated.iter().map(|&i| &samples[i]).collect();
            observe_level(high, &reached, |s| &s.image, par)
        });
        (CascadeStats::from_outcomes(&outcomes, samples, 2), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::{Dataset, DatasetConfig};
    use pivot_nn::normalized_entropy;
    use pivot_tensor::Rng;
    use pivot_vit::VitConfig;

    fn model(seed: u64, active: &[usize]) -> VisionTransformer {
        let mut m = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(seed));
        m.set_active_attentions(active);
        m
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], n / 2, seed)
    }

    #[test]
    fn cache_matches_direct_inference() {
        let low = model(0, &[0]).prepare();
        let set = samples(12, 1);
        let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
        for (i, s) in set.iter().enumerate() {
            let logits = low.infer(&s.image);
            assert_eq!(
                cache.entropies()[i].to_bits(),
                normalized_entropy(&logits).to_bits()
            );
            assert_eq!(cache.low_prediction(i), logits.row_argmax(0));
        }
    }

    #[test]
    fn build_is_identical_across_parallelism_and_weight_store() {
        let low = model(2, &[0, 1]);
        let set = samples(14, 3);
        let prepared = low.prepare();
        let seq = CascadeCache::build_prepared(&prepared, &set, Parallelism::Off);
        let store = PreparedStore::new();
        let builds = [
            CascadeCache::build_prepared(&prepared, &set, Parallelism::Auto),
            CascadeCache::build_prepared(&prepared, &set, Parallelism::Fixed(3)),
            CascadeCache::build_prepared(&prepared, &set, Parallelism::Fixed(16)),
            CascadeCache::build_in(&low, &set, Parallelism::Off, &store),
            // A second build through the store hits every layer.
            CascadeCache::build_in(&low, &set, Parallelism::Fixed(2), &store),
        ];
        assert!(store.stats().hits > 0);
        for p in &builds {
            for i in 0..seq.len() {
                assert_eq!(seq.entropies()[i].to_bits(), p.entropies()[i].to_bits());
                assert_eq!(seq.low_prediction(i), p.low_prediction(i));
            }
        }
    }

    #[test]
    fn empty_cache_reports_zero_fraction() {
        let low = model(7, &[0]).prepare();
        let cache = CascadeCache::build_prepared(&low, &[], Parallelism::Auto);
        assert!(cache.is_empty());
        assert_eq!(cache.f_low_at(0.5), 0.0);
        assert!(cache.escalated(0.5).is_empty());
    }

    #[test]
    fn threshold_reaching_respects_lec_and_cap() {
        let low = model(8, &[0]).prepare();
        let set = samples(20, 9);
        let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
        let th = cache.threshold_reaching(0.5, 0.02);
        assert!(th <= 1.0);
        assert!(cache.f_low_at(th) >= 0.5 || (th - 1.0).abs() < 1e-6);
        // An unreachable LEC caps at 1.0, where the inclusive gate gives
        // F_L = 1 and the constraint is met after all.
        let capped = cache.threshold_reaching(2.0, 0.3);
        assert_eq!(capped, 1.0);
        assert_eq!(cache.f_low_at(capped), 1.0);
    }

    #[test]
    #[should_panic(expected = "lec is NaN")]
    fn threshold_reaching_rejects_a_nan_lec() {
        let low = model(8, &[0]).prepare();
        let cache = CascadeCache::build_prepared(&low, &samples(4, 9), Parallelism::Off);
        cache.threshold_reaching(f64::NAN, 0.02);
    }

    #[test]
    fn threshold_reaching_clamps_non_dividing_steps_to_exactly_one() {
        // A zero-head low model emits identical logits for every sample, so
        // every normalized entropy is ~1.0 and only the inclusive Th = 1.0
        // gate classifies anything at the low effort.
        let mut low = model(26, &[0]);
        let n = low.params_mut().len();
        for pi in [n - 2, n - 1] {
            low.params_mut()[pi].value.map_in_place(|_| 0.0);
        }
        let set = samples(10, 27);
        let cache = CascadeCache::build_prepared(&low.prepare(), &set, Parallelism::Off);
        assert!(cache.entropies().iter().all(|&e| e > 0.999));
        assert_eq!(cache.f_low_at(0.99), 0.0);
        // 0.03 does not divide 1.0: accumulating it in f32 never lands on
        // 1.0 exactly, so without the in-loop clamp the sweep would probe
        // 0.99999994-style values and miss the inclusive gate. The final
        // probe must be exactly 1.0 bitwise.
        let th = cache.threshold_reaching(0.5, 0.03);
        assert_eq!(th.to_bits(), 1.0f32.to_bits());
        assert_eq!(cache.f_low_at(th), 1.0);
        // A step larger than the whole range clamps on the first probe.
        assert_eq!(
            cache.threshold_reaching(0.5, 7.0).to_bits(),
            1.0f32.to_bits()
        );
    }

    #[test]
    fn evaluation_escalates_exactly_the_gated_samples() {
        let low = model(10, &[0]).prepare();
        let high = model(11, &[0, 1]).prepare();
        let set = samples(16, 12);
        let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
        for th in [0.0, 0.4, 0.8, 1.0] {
            let (stats, report) = cache.evaluate(&high, &set, th, Parallelism::Fixed(3));
            assert!(report.is_empty(), "healthy models must not degrade");
            assert_eq!(stats.per_level[1].0, cache.escalated(th).len(), "Th={th}");
            assert_eq!(stats.f_low(), cache.f_low_at(th), "Th={th}");
            assert_eq!(stats.total(), set.len());
        }
    }

    #[test]
    fn f_low_at_is_the_evaluated_f_low_bit_for_bit_on_every_grid_threshold() {
        // Phase 2 prices a pair on `f_low_at` before it evaluates anything;
        // the result then reports the evaluated `f_low`. They must be one
        // number, also where low-effort faults leave NaN entropies.
        let high = model(41, &[0, 1]).prepare();
        let set = samples(20, 3);
        let mut faulted = model(0, &[0]);
        crate::FaultInjector::new(0).inject_params(&mut faulted, crate::FaultKind::StuckMax, 8);
        let faulted = CascadeCache::build_prepared(&faulted.prepare(), &set, Parallelism::Off);
        let non_finite = faulted
            .entropies()
            .iter()
            .filter(|e| !e.is_finite())
            .count();
        assert!(
            non_finite > 0 && non_finite < set.len(),
            "the fault must poison some samples and spare others ({non_finite}/{})",
            set.len()
        );
        let healthy =
            CascadeCache::build_prepared(&model(0, &[0]).prepare(), &set, Parallelism::Off);
        for cache in [&healthy, &faulted] {
            let step = 0.02f32;
            let mut th = step;
            loop {
                let (stats, _) = cache.evaluate(&high, &set, th, Parallelism::Fixed(3));
                assert_eq!(
                    cache.f_low_at(th).to_bits(),
                    stats.f_low().to_bits(),
                    "Th={th}"
                );
                if th >= 1.0 {
                    break;
                }
                th = (th + step).min(1.0);
            }
        }
    }

    #[test]
    fn shared_build_is_bit_identical_to_separate_builds() {
        // A mask ladder over one backbone through one store (sharing
        // blocks), plus an effort on other weights (sharing nothing).
        let backbone = model(42, &[0, 1, 2, 3]);
        let store = PreparedStore::new();
        let mut lows: Vec<PreparedModel> = [&[0usize, 1, 2][..], &[0, 1], &[0], &[1]]
            .iter()
            .map(|active| {
                let mut m = backbone.clone();
                m.set_active_attentions(active);
                m.prepare_in(&store)
            })
            .collect();
        lows.push(model(43, &[0]).prepare_in(&store));
        let views: Vec<&PreparedModel> = lows.iter().collect();
        let set = samples(70, 44);
        assert!(set.len() > 2 * crate::EVAL_BATCH);
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            let shared = CascadeCache::build_shared(&views, &set, par);
            assert_eq!(shared.len(), lows.len());
            for (l, (cache, low)) in shared.iter().zip(&lows).enumerate() {
                let alone = CascadeCache::build_prepared(low, &set, Parallelism::Off);
                assert_eq!(cache.len(), set.len());
                for i in 0..set.len() {
                    assert_eq!(
                        cache.entropies()[i].to_bits(),
                        alone.entropies()[i].to_bits(),
                        "level {l}, sample {i}, {par:?}"
                    );
                    assert_eq!(cache.low_prediction(i), alone.low_prediction(i));
                }
            }
        }
        assert!(CascadeCache::build_shared(&[], &set, Parallelism::Off).is_empty());
        let empty = CascadeCache::build_shared(&views, &[], Parallelism::Off);
        assert!(empty.len() == lows.len() && empty.iter().all(CascadeCache::is_empty));
    }

    #[test]
    fn f_low_is_monotone_in_threshold() {
        let low = model(13, &[0]).prepare();
        let set = samples(18, 14);
        let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
        let mut prev = 0.0;
        for th in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let f = cache.f_low_at(th);
            assert!(f >= prev, "F_L not monotone at Th={th}");
            prev = f;
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    #[should_panic(expected = "different sample set")]
    fn evaluation_rejects_a_different_sample_set() {
        let low = model(30, &[0]).prepare();
        let set = samples(8, 31);
        let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
        cache.evaluate(&low, &set[1..], 0.5, Parallelism::Off);
    }

    #[test]
    #[should_panic(expected = "efforts must share the class space")]
    fn evaluation_rejects_a_high_effort_of_another_class_space() {
        // Regression: the high effort's argmax was scored against labels of
        // the low effort's class space, so a mismatched pair reported a
        // wrong accuracy instead of failing.
        let low = model(32, &[0]).prepare();
        let cfg = VitConfig {
            num_classes: 7,
            ..VitConfig::test_small()
        };
        let high = VisionTransformer::new(&cfg, &mut Rng::new(33)).prepare();
        let set = samples(8, 34);
        let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
        cache.evaluate(&high, &set, 0.0, Parallelism::Off);
    }
}
