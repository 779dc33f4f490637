//! Effort ladders and their statistics — the paper's two-effort cascade
//! (Fig. 2a) and its natural extension to `N` levels (Section 5 positions
//! PIVOT as a framework for future ViT-hardware co-optimization; a deeper
//! effort ladder is the first step).
//!
//! An [`EffortLadder`] holds `N >= 2` efforts with `N - 1` non-decreasing
//! entropy thresholds: an input ascends the ladder until its entropy at
//! some level stays under that level's threshold (the last level accepts
//! everything). With `N = 2` this is exactly the paper's low/high cascade.
//! The ladder is the one typed holder of prepared levels; the walk, the
//! gate ([`stays_low`](crate::stays_low), inclusive at `Th = 1.0`) and the
//! fault accounting are the guarded sweep's ([`crate::guarded`]), and
//! [`CascadeStats`] is the one fold of its outcomes over labels.

use crate::guarded::{evaluate_guarded_slice, DegradationReport, GuardedOutcome};
use crate::parallel::Parallelism;
use pivot_data::Sample;
use pivot_tensor::Matrix;
use pivot_vit::{PreparedModel, PreparedStore, StoreStats, VisionTransformer};

/// Per-level statistics of a cascade evaluation over labeled samples.
///
/// In the paper's two-level notation, level 0 is the low effort and every
/// level above it the high effort:
///
/// * `C_L = per_level[0].1`, `I_L = per_level[0].0 - C_L`;
/// * `C_H` and `I_H` are the same sums over `per_level[1..]`;
/// * `F_L` is [`Self::f_low`] and `F_H` is [`Self::f_high`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CascadeStats {
    /// `(exited, correct)` per level: inputs that exited at the level, and
    /// how many of those were classified correctly.
    pub per_level: Vec<(usize, usize)>,
}

impl CascadeStats {
    /// Folds the sweep's per-sample outcomes over their labels into a
    /// `depth`-level tally. A fault-fallback prediction counts under the
    /// exit level — its cost was spent.
    pub(crate) fn from_outcomes(
        outcomes: &[GuardedOutcome],
        samples: &[Sample],
        depth: usize,
    ) -> Self {
        let mut per_level = vec![(0, 0); depth];
        for (o, s) in outcomes.iter().zip(samples) {
            per_level[o.level].0 += 1;
            per_level[o.level].1 += (o.prediction == s.label) as usize;
        }
        Self { per_level }
    }

    /// Total inputs evaluated.
    pub fn total(&self) -> usize {
        self.per_level.iter().map(|&(n, _)| n).sum()
    }

    /// Overall accuracy (`(C_L + C_H) / total` in Fig. 2a). 0.0 when
    /// nothing was evaluated.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = self.per_level.iter().map(|&(_, c)| c).sum();
        correct as f64 / total as f64
    }

    /// Fraction classified by the low effort, level 0 (`F_L`). 0.0 when
    /// nothing was evaluated.
    pub fn f_low(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.per_level[0].0 as f64 / total as f64
    }

    /// Fraction escalated past the low effort (`F_H`). 0.0 when nothing
    /// was evaluated (an empty evaluation escalated nothing — it is not
    /// "all high").
    pub fn f_high(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        1.0 - self.f_low()
    }

    /// Fraction of inputs classified at each level.
    pub fn level_fractions(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.per_level
            .iter()
            .map(|&(n, _)| n as f64 / total)
            .collect()
    }

    /// Average number of model evaluations per input (1 = every input
    /// exits at the first level).
    pub fn mean_inferences(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .per_level
            .iter()
            .enumerate()
            .map(|(i, &(n, _))| (i + 1) * n)
            .sum();
        weighted as f64 / total as f64
    }
}

/// An `N`-level effort ladder with entropy gates between levels.
///
/// # Example
///
/// ```
/// use pivot_core::{EffortLadder, Parallelism};
/// use pivot_data::{Dataset, DatasetConfig};
/// use pivot_tensor::{Matrix, Rng};
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let cfg = VitConfig::test_small();
/// let mut rng = Rng::new(0);
/// let mut low = VisionTransformer::new(&cfg, &mut rng);
/// low.set_active_attentions(&[0]);
/// let high = low.clone();
/// let mut mid = low.clone();
/// mid.set_active_attentions(&[0, 1]);
///
/// // The paper's two-level cascade...
/// let cascade = EffortLadder::new(vec![low.clone(), high.clone()], vec![0.5]);
/// let out = cascade.infer(&Matrix::zeros(16, 16));
/// assert!(out.prediction < 4 && out.level <= 1);
///
/// // ...and a three-level ladder, evaluated over labeled samples.
/// let ladder = EffortLadder::new(vec![low, mid, high], vec![0.4, 0.7]);
/// let samples =
///     Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.3], 8, 1);
/// let (stats, report) = ladder.evaluate(&samples, Parallelism::Auto);
/// assert_eq!(stats.total(), samples.len());
/// assert!(report.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EffortLadder {
    prepared: Vec<PreparedModel>,
    thresholds: Vec<f32>,
    share_stats: StoreStats,
}

impl EffortLadder {
    /// Creates a ladder from models ordered low effort -> high effort and
    /// `levels.len() - 1` thresholds.
    ///
    /// Every level is [prepared](VisionTransformer::prepare) here, once,
    /// through a shared content-addressed [`PreparedStore`]: layers whose
    /// weights and quantization parameters are identical across levels
    /// (in PIVOT's cascades, *every* layer — the levels differ only in
    /// their attention-skip mask) are materialized once and Arc-shared, so
    /// an `N`-level ladder holds ~1x the backbone weights instead of `N`x
    /// (see [`Self::unique_weight_bytes`] and [`Self::share_stats`]). Only
    /// the views are kept — the trainable models (weights plus gradients)
    /// are dropped — and the ladder exposes no weight-mutating API, so the
    /// shared views cannot go stale, and deduplicated inference is
    /// bit-identical to preparing each level independently.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two levels are given, the levels disagree on
    /// class count, the threshold count is not `levels - 1`, a threshold is
    /// outside `[0, 1]`, or thresholds are not non-decreasing (a later gate must not be stricter: otherwise an
    /// input could bypass a level it would have accepted).
    pub fn new(levels: Vec<VisionTransformer>, thresholds: Vec<f32>) -> Self {
        assert!(levels.len() >= 2, "a ladder needs at least two levels");
        assert!(
            levels
                .iter()
                .all(|m| m.config().num_classes == levels[0].config().num_classes),
            "efforts must share the class space"
        );
        let store = PreparedStore::new();
        let prepared = levels.iter().map(|m| m.prepare_in(&store)).collect();
        let mut ladder = Self {
            prepared,
            thresholds: Vec::new(),
            share_stats: store.stats(),
        };
        ladder.set_thresholds(thresholds);
        ladder
    }

    /// Replaces the gate thresholds, under the constructor's checks.
    ///
    /// # Panics
    ///
    /// Panics if the threshold count is not `levels - 1`, a threshold is
    /// outside `[0, 1]`, or thresholds are not non-decreasing.
    pub fn set_thresholds(&mut self, thresholds: Vec<f32>) {
        assert_eq!(
            thresholds.len(),
            self.depth() - 1,
            "need one threshold per gate (levels - 1)"
        );
        let mut prev = 0.0f32;
        for &t in &thresholds {
            assert!((0.0..=1.0).contains(&t), "threshold {t} out of [0, 1]");
            assert!(t >= prev, "thresholds must be non-decreasing");
            prev = t;
        }
        self.thresholds = thresholds;
    }

    /// Hit/miss and byte accounting of the content-addressed weight store
    /// the levels were prepared through. Levels derived from one backbone
    /// share every layer: the first level misses, every later level hits.
    pub fn share_stats(&self) -> StoreStats {
        self.share_stats
    }

    /// Total prepared weight bytes summed per level, as if each level held
    /// an independent copy (the pre-sharing footprint).
    pub fn weight_bytes(&self) -> usize {
        self.prepared.iter().map(PreparedModel::weight_bytes).sum()
    }

    /// Prepared weight bytes actually resident, counting every Arc-shared
    /// layer once across all levels.
    pub fn unique_weight_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.prepared
            .iter()
            .map(|m| m.unique_weight_bytes_into(&mut seen))
            .sum()
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.prepared.len()
    }

    /// The frozen inference views of the levels, low to high effort,
    /// prepared at construction.
    pub fn prepared_levels(&self) -> &[PreparedModel] {
        &self.prepared
    }

    /// The gate thresholds.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// Ascends the ladder with one image until a level is confident enough
    /// (or the last level is reached): the guarded sweep over a slice of
    /// one. A faulted exit level is served by the deepest earlier finite
    /// level (`fault_fallback`; see DESIGN.md §5).
    pub fn infer(&self, image: &Matrix) -> GuardedOutcome {
        let (outcomes, _) = evaluate_guarded_slice(
            &self.prepared,
            &self.thresholds,
            self.depth() - 1,
            &[image],
            Parallelism::Off,
        );
        outcomes[0]
    }

    /// Evaluates the ladder on labeled samples: one batched sweep per
    /// level over exactly the samples that reach it. Returns the
    /// statistics together with the [`DegradationReport`] of every sample
    /// that hit non-finite values on its way up (empty for healthy
    /// models). The result is the same for every `par` and batch split.
    pub fn evaluate(
        &self,
        samples: &[Sample],
        par: Parallelism,
    ) -> (CascadeStats, DegradationReport) {
        let images: Vec<&Matrix> = samples.iter().map(|s| &s.image).collect();
        let (outcomes, report) = evaluate_guarded_slice(
            &self.prepared,
            &self.thresholds,
            self.depth() - 1,
            &images,
            par,
        );
        (
            CascadeStats::from_outcomes(&outcomes, samples, self.depth()),
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::{Dataset, DatasetConfig};
    use pivot_tensor::Rng;
    use pivot_vit::VitConfig;

    fn models(seed: u64) -> Vec<VisionTransformer> {
        let cfg = VitConfig::test_small();
        let base = VisionTransformer::new(&cfg, &mut Rng::new(seed));
        [1usize, 2, 4]
            .iter()
            .map(|&e| {
                let mut m = base.clone();
                m.set_active_attentions(&(0..e).collect::<Vec<_>>());
                m
            })
            .collect()
    }

    fn samples(seed: u64) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], 20, seed)
    }

    /// The reference a shared-store ladder is checked against: the same
    /// sweep over independently prepared levels.
    fn independent_evaluation(
        independent: &[PreparedModel],
        thresholds: &[f32],
        set: &[Sample],
        par: Parallelism,
    ) -> (CascadeStats, DegradationReport) {
        let images: Vec<&Matrix> = set.iter().map(|s| &s.image).collect();
        let depth = independent.len();
        let (outcomes, report) =
            evaluate_guarded_slice(independent, thresholds, depth - 1, &images, par);
        (CascadeStats::from_outcomes(&outcomes, set, depth), report)
    }

    #[test]
    fn uniform_logits_exit_at_level_zero_at_threshold_one() {
        // Regression: the ladder used to gate on a strict `entropy < th`,
        // so a sample with exactly uniform logits (normalized entropy 1.0)
        // climbed to the top even at Th = 1.0, where the caches and the
        // serve engine (all on `stays_low`, inclusive at the top boundary)
        // keep it low.
        let mut ms = models(50);
        for m in &mut ms {
            let n = m.params_mut().len();
            // Head weight + bias come last: zero them for uniform logits.
            for p in m.params_mut().into_iter().skip(n - 2) {
                p.value.map_in_place(|_| 0.0);
            }
        }
        let set = samples(51);
        for depth in [2, 3] {
            let mut ladder = EffortLadder::new(ms[..depth].to_vec(), vec![1.0; depth - 1]);
            let out = ladder.infer(&set[0].image);
            assert!((out.entropy - 1.0).abs() < 1e-6, "entropy {}", out.entropy);
            assert_eq!(out.level, 0, "{depth} levels: infer escalated");
            let (stats, _) = ladder.evaluate(&set, Parallelism::Off);
            assert_eq!(stats.f_low(), 1.0, "{depth} levels: {stats:?}");
            // Just below the boundary the same sample climbs to the top.
            ladder.set_thresholds(vec![0.999; depth - 1]);
            assert_eq!(ladder.infer(&set[0].image).level, depth - 1);
        }
    }

    #[test]
    fn empty_evaluation_has_no_high_fraction() {
        // Regression: `f_high()` reported 1.0 on an empty evaluation
        // because `f_low()` returns 0.0 when `total() == 0`.
        let ladder = EffortLadder::new(models(1)[..2].to_vec(), vec![0.5]);
        let (evaluated, report) = ladder.evaluate(&[], Parallelism::Off);
        assert!(report.is_empty());
        for stats in [CascadeStats::default(), evaluated] {
            assert_eq!(stats.total(), 0);
            assert_eq!(stats.f_low(), 0.0);
            assert_eq!(stats.f_high(), 0.0);
            assert_eq!(stats.accuracy(), 0.0);
            assert_eq!(stats.mean_inferences(), 0.0);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let set = samples(3);
        for (depth, ths) in [(2, vec![0.5]), (3, vec![0.3, 0.6])] {
            let ladder = EffortLadder::new(models(2)[..depth].to_vec(), ths);
            let (stats, _) = ladder.evaluate(&set, Parallelism::Off);
            assert_eq!(stats.per_level.len(), depth);
            assert_eq!(stats.total(), set.len());
            assert!(stats.per_level.iter().all(|&(n, c)| c <= n));
            assert!((stats.f_low() + stats.f_high() - 1.0).abs() < 1e-12);
            let fractions = stats.level_fractions();
            assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&stats.accuracy()));
        }
    }

    #[test]
    fn zero_thresholds_send_everything_to_the_top() {
        let set = samples(5);
        for depth in [2, 3] {
            let ladder = EffortLadder::new(models(4)[..depth].to_vec(), vec![0.0; depth - 1]);
            let (stats, _) = ladder.evaluate(&set, Parallelism::Off);
            assert_eq!(stats.per_level[depth - 1].0, set.len(), "{stats:?}");
            assert_eq!(stats.f_high(), 1.0);
            assert_eq!(stats.mean_inferences(), depth as f64);
        }
    }

    #[test]
    fn unit_thresholds_stop_at_the_bottom() {
        let set = samples(7);
        for depth in [2, 3] {
            let ladder = EffortLadder::new(models(6)[..depth].to_vec(), vec![1.0; depth - 1]);
            let (stats, _) = ladder.evaluate(&set, Parallelism::Off);
            assert_eq!(stats.per_level[0].0, set.len(), "{stats:?}");
            assert_eq!(stats.f_low(), 1.0);
            assert_eq!(stats.mean_inferences(), 1.0);
        }
    }

    #[test]
    fn mean_inferences_between_one_and_depth() {
        let ladder = EffortLadder::new(models(8), vec![0.5, 0.8]);
        let (stats, _) = ladder.evaluate(&samples(9), Parallelism::Off);
        let m = stats.mean_inferences();
        assert!((1.0..=3.0).contains(&m), "mean inferences {m}");
    }

    #[test]
    fn batched_evaluation_matches_single_image_infer() {
        // One sweep over the whole set must agree with one sweep per image,
        // for every depth, threshold and parallelism, and a healthy ladder
        // reports no degradation.
        let ms = models(12);
        let set = samples(13);
        for depth in [2, 3] {
            for ths in [[0.0, 0.0], [0.4, 0.7], [1.0, 1.0]] {
                let ladder = EffortLadder::new(ms[..depth].to_vec(), ths[..depth - 1].to_vec());
                let singles: Vec<GuardedOutcome> =
                    set.iter().map(|s| ladder.infer(&s.image)).collect();
                let reference = CascadeStats::from_outcomes(&singles, &set, depth);
                for par in [Parallelism::Off, Parallelism::Fixed(3)] {
                    let (batched, report) = ladder.evaluate(&set, par);
                    assert_eq!(reference, batched, "thresholds {ths:?} under {par:?}");
                    assert!(report.is_empty());
                }
            }
        }
    }

    #[test]
    fn faulted_middle_level_escalates_and_faulted_top_falls_back() {
        use crate::faults::{FaultInjector, FaultKind};
        let mut ms = models(22);
        let set = samples(23);

        // Faulted middle level: every sample passing through it escalates
        // (NaN entropy fails the gate) and the healthy top serves it.
        let mut mid_faulty = ms.clone();
        FaultInjector::new(24).inject_params(&mut mid_faulty[1], FaultKind::StuckNan, 10_000);
        // Gates that would otherwise keep many samples at the middle.
        let ladder = EffortLadder::new(mid_faulty, vec![0.0, 1.0]);
        let (stats, report) = ladder.evaluate(&set, Parallelism::Off);
        assert_eq!(
            stats.per_level[1].0, 0,
            "no sample may exit at the faulty level"
        );
        assert_eq!(stats.per_level[2].0, set.len());
        assert_eq!(report.non_finite_at(1), set.len());
        assert_eq!(report.fallbacks(), 0);

        // Faulted top level: escalated samples fall back to the deepest
        // healthy level below (level 1 here), but stay attributed to the
        // top in the statistics.
        FaultInjector::new(25).inject_params(&mut ms[2], FaultKind::StuckNan, 10_000);
        let ladder = EffortLadder::new(ms.clone(), vec![0.0, 0.0]);
        let (stats, report) = ladder.evaluate(&set, Parallelism::Off);
        assert_eq!(stats.per_level[2].0, set.len());
        assert_eq!(report.fallbacks(), set.len());
        for e in &report.events {
            assert_eq!((e.level, e.served_by), (2, Some(1)));
        }
        // Served accuracy equals the healthy level-1 model's accuracy.
        let mid_correct = set
            .iter()
            .filter(|s| ms[1].infer(&s.image).row_argmax(0) == s.label)
            .count();
        assert_eq!(stats.per_level[2].1, mid_correct);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_threshold_panics() {
        let _ = EffortLadder::new(models(10)[..2].to_vec(), vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_thresholds_panic() {
        let _ = EffortLadder::new(models(10), vec![0.8, 0.4]);
    }

    #[test]
    #[should_panic(expected = "one threshold per gate")]
    fn wrong_threshold_count_panics() {
        let _ = EffortLadder::new(models(11), vec![0.5]);
    }

    #[test]
    fn same_backbone_levels_share_one_weight_copy() {
        // All three levels derive from one backbone via attention skipping,
        // so every layer deduplicates: the ladder holds 1x the backbone
        // weights instead of 3x.
        let ladder = EffortLadder::new(models(30), vec![0.4, 0.7]);
        let single = ladder.prepared_levels()[0].weight_bytes();
        assert_eq!(ladder.weight_bytes(), 3 * single);
        assert_eq!(ladder.unique_weight_bytes(), single);
        let stats = ladder.share_stats();
        assert_eq!(stats.hits, 2 * stats.misses);
        assert_eq!(stats.unique_bytes, single);
        assert_eq!(stats.hit_bytes, 2 * single);
        assert_eq!(stats.total_bytes(), ladder.weight_bytes());
    }

    #[test]
    fn distinct_backbones_share_nothing() {
        // Levels drawn from different seeds: no layer can dedupe, and the
        // accounting must say so.
        let (low, high) = (models(62).remove(0), models(63).remove(2));
        let ladder = EffortLadder::new(vec![low, high], vec![0.5]);
        assert_eq!(ladder.share_stats().hits, 0);
        assert_eq!(ladder.unique_weight_bytes(), ladder.weight_bytes());
    }

    #[test]
    fn faulted_level_stops_sharing_but_reports_identically() {
        use crate::faults::{FaultInjector, FaultKind};
        let mut ms = models(31);
        FaultInjector::new(32).inject_params(&mut ms[1], FaultKind::StuckNan, 10_000);
        let ladder = EffortLadder::new(ms.clone(), vec![0.0, 1.0]);
        // The mutated middle level no longer hashes to the backbone's
        // layers, so the resident footprint exceeds one backbone copy...
        let single = ladder.prepared_levels()[0].weight_bytes();
        assert!(ladder.unique_weight_bytes() > single);
        // ...while the untouched levels 0 and 2 still share everything.
        assert!(ladder.share_stats().hits > 0);
        assert!(ladder.unique_weight_bytes() < ladder.weight_bytes());

        // Fault accounting through the shared store is identical to
        // independently prepared levels.
        let set = samples(33);
        let (shared_stats, shared_report) = ladder.evaluate(&set, Parallelism::Off);
        let independent: Vec<PreparedModel> = ms.iter().map(|m| m.prepare()).collect();
        let (ind_stats, ind_report) =
            independent_evaluation(&independent, ladder.thresholds(), &set, Parallelism::Off);
        assert!(!shared_report.is_empty(), "fault must surface");
        assert_eq!(shared_stats, ind_stats);
        assert_eq!(shared_report, ind_report);
    }

    mod sharing_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The deduplication contract of the content-addressed store:
            /// a ladder whose levels Arc-share one backbone copy is
            /// bit-identical — entropies, predictions, statistics and
            /// degradation report — to the same levels each prepared
            /// independently, across skip patterns, thresholds, ragged
            /// batch sizes and parallelism.
            #[test]
            fn shared_store_ladder_is_bit_identical_to_independent_levels(
                seed in 0u64..1_000,
                efforts_sel in 0usize..6,
                raw_ths in collection::vec(0.0f32..=1.0, 3usize),
                n_pairs in 1usize..8,
                par_sel in 0usize..3,
            ) {
                let efforts: &[usize] = [
                    &[1usize, 2][..],
                    &[1, 4],
                    &[2, 3, 4],
                    &[1, 2, 3, 4],
                    &[1, 3],
                    &[2, 4],
                ][efforts_sel];
                let par = [Parallelism::Off, Parallelism::Fixed(2), Parallelism::Fixed(5)]
                    [par_sel];

                let cfg = VitConfig::test_small();
                let base = VisionTransformer::new(&cfg, &mut Rng::new(seed));
                let ms: Vec<VisionTransformer> = efforts
                    .iter()
                    .map(|&e| {
                        let mut m = base.clone();
                        m.set_active_attentions(&(0..e).collect::<Vec<_>>());
                        m
                    })
                    .collect();
                let mut ths: Vec<f32> = raw_ths[..ms.len() - 1].to_vec();
                ths.sort_by(f32::total_cmp);

                let ladder = EffortLadder::new(ms.clone(), ths.clone());
                // Same backbone: every level past the first hits the store
                // and the resident footprint stays below the naive sum.
                prop_assert!(ladder.share_stats().hits > 0);
                prop_assert!(ladder.unique_weight_bytes() < ladder.weight_bytes());
                prop_assert_eq!(
                    ladder.unique_weight_bytes(),
                    ladder.prepared_levels()[0].weight_bytes()
                );

                let set = Dataset::generate_difficulty_stripes(
                    &DatasetConfig::small(),
                    &[0.2, 0.8],
                    n_pairs,
                    seed + 1,
                );

                let independent: Vec<PreparedModel> = ms.iter().map(|m| m.prepare()).collect();
                let (shared_stats, shared_report) = ladder.evaluate(&set, par);
                let (ind_stats, ind_report) = independent_evaluation(&independent, &ths, &set, par);

                prop_assert_eq!(shared_stats, ind_stats);
                prop_assert_eq!(shared_report, ind_report);
                // Every level's observations, sample by sample: the shared
                // view's batched logits against the independent view's.
                let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for (level, (shared, alone)) in
                    ladder.prepared_levels().iter().zip(&independent).enumerate()
                {
                    let got = crate::batched_logits(shared, &set, |s| &s.image, par);
                    let want = crate::batched_logits(alone, &set, |s| &s.image, par);
                    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                        prop_assert!(bits(got) == bits(want), "level {level}, sample {i}");
                    }
                }
            }
        }
    }
}
