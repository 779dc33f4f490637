//! The entropy-gated multi-effort inference engine (paper Fig. 2a): the
//! two-level typed front-end of the guarded sweep ([`crate::guarded`]).

use crate::cache::CascadeCache;
use crate::guarded::{evaluate_guarded_slice, observe_level, DegradationReport, GuardedOutcome};
use crate::multilevel::EffortLadder;
use crate::parallel::Parallelism;
use pivot_data::Sample;
use pivot_tensor::Matrix;
use pivot_vit::{PreparedModel, VisionTransformer};

/// Aggregate statistics of a cascaded evaluation, in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CascadeStats {
    /// Inputs classified by the low effort (`E(x) < Th`).
    pub n_low: usize,
    /// Inputs escalated to the high effort.
    pub n_high: usize,
    /// Correct low-effort classifications (`C_L`).
    pub c_low: usize,
    /// Incorrect low-effort classifications (`I_L`).
    pub i_low: usize,
    /// Correct high-effort classifications (`C_H`).
    pub c_high: usize,
    /// Incorrect high-effort classifications (`I_H`).
    pub i_high: usize,
}

impl CascadeStats {
    /// Total inputs evaluated.
    pub fn total(&self) -> usize {
        self.n_low + self.n_high
    }

    /// Fraction classified by the low effort (`F_L`). 0.0 when nothing
    /// was evaluated.
    pub fn f_low(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.n_low as f64 / self.total() as f64
        }
    }

    /// Fraction escalated to the high effort (`F_H`). 0.0 when nothing
    /// was evaluated (an empty evaluation escalated nothing — it is not
    /// "all high").
    pub fn f_high(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            1.0 - self.f_low()
        }
    }

    /// Overall accuracy, computed from `C_L` and `C_H` as in Fig. 2a.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.c_low + self.c_high) as f64 / self.total() as f64
        }
    }

    /// Folds the sweep's per-sample outcomes over their labels: level 0 is
    /// "low", every level above is "high" (so an N-level ladder collapses
    /// to the paper's two-level view), and a fault-fallback prediction
    /// counts under the level whose cost was spent.
    pub(crate) fn from_outcomes(outcomes: &[GuardedOutcome], samples: &[Sample]) -> Self {
        let mut stats = Self::default();
        for (o, s) in outcomes.iter().zip(samples) {
            stats.record(o.level > 0, o.prediction == s.label);
        }
        stats
    }

    fn record(&mut self, used_high: bool, correct: bool) {
        let (n, c, i) = if used_high {
            (&mut self.n_high, &mut self.c_high, &mut self.i_high)
        } else {
            (&mut self.n_low, &mut self.c_low, &mut self.i_low)
        };
        *n += 1;
        *(if correct { c } else { i }) += 1;
    }
}

/// A two-effort ViT: all inputs run the low effort; those with logit
/// entropy above the threshold re-run the high effort.
///
/// This is the `N = 2` [`EffortLadder`] under the paper's names, plus the
/// [`Parallelism`] its batch evaluations use (default
/// [`Parallelism::Auto`]; results are bit-identical to sequential
/// execution for every setting). Walking, gating and fault accounting are
/// [`evaluate_guarded_slice`]'s.
///
/// # Example
///
/// ```
/// use pivot_core::MultiEffortVit;
/// use pivot_tensor::{Matrix, Rng};
/// use pivot_vit::{VisionTransformer, VitConfig};
///
/// let cfg = VitConfig::test_small();
/// let mut rng = Rng::new(0);
/// let mut low = VisionTransformer::new(&cfg, &mut rng);
/// low.set_active_attentions(&[0]);
/// let high = low.clone();
/// let cascade = MultiEffortVit::new(low, high, 0.5);
/// let out = cascade.infer(&Matrix::zeros(16, 16));
/// assert!(out.prediction < 4 && out.level <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct MultiEffortVit {
    ladder: EffortLadder,
    parallelism: Parallelism,
}

impl MultiEffortVit {
    /// Creates a cascade from a low- and a high-effort model and an entropy
    /// threshold `Th` (see [`EffortLadder::new`]: both efforts are prepared
    /// once through one shared weight store and only the frozen views are
    /// kept).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not in `[0, 1]` or the models disagree on
    /// class count.
    pub fn new(low: VisionTransformer, high: VisionTransformer, threshold: f32) -> Self {
        Self {
            ladder: EffortLadder::new(vec![low, high], vec![threshold]),
            parallelism: Parallelism::Auto,
        }
    }

    /// The two-level ladder underneath: its prepared views, weight-sharing
    /// statistics and resident-byte accounting.
    pub fn ladder(&self) -> &EffortLadder {
        &self.ladder
    }

    /// The entropy threshold `Th`.
    pub fn threshold(&self) -> f32 {
        self.ladder.thresholds()[0]
    }

    /// Updates the entropy threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not in `[0, 1]`.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.ladder.set_thresholds(vec![threshold]);
    }

    /// The parallelism used by batch evaluations.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Builder-style parallelism override.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The frozen inference view of the low effort, prepared at
    /// construction.
    pub fn low_prepared(&self) -> &PreparedModel {
        &self.ladder.prepared_levels()[0]
    }

    /// The frozen inference view of the high effort, prepared at
    /// construction.
    pub fn high_prepared(&self) -> &PreparedModel {
        &self.ladder.prepared_levels()[1]
    }

    /// Runs the input-difficulty-aware inference of Fig. 2a on one image:
    /// the guarded sweep over a slice of one. `level` is 1 when the high
    /// effort re-inferred the input, `low_entropy` is the gate's input, and
    /// a faulted high effort degrades to the already-computed low-effort
    /// prediction (`fault_fallback == Some(0)`; see DESIGN.md §5).
    pub fn infer(&self, image: &Matrix) -> GuardedOutcome {
        self.ladder.infer(image)
    }

    /// Builds the entropy cache for `samples`: low-effort entropies and
    /// predictions, computed once on the worker pool. Threshold sweeps and
    /// repeated `F_L` queries should go through the cache instead of
    /// re-running inference per threshold.
    pub fn cache(&self, samples: &[Sample]) -> CascadeCache {
        CascadeCache::build_prepared(self.low_prepared(), samples, self.parallelism)
    }

    /// Evaluates the cascade on labeled samples, producing the paper's
    /// `C_L/I_L/C_H/I_H/F_L/F_H` statistics, using the cascade's
    /// configured parallelism.
    pub fn evaluate(&self, samples: &[Sample]) -> CascadeStats {
        self.evaluate_with(samples, self.parallelism)
    }

    /// [`Self::evaluate`] with an explicit parallelism: one chunked
    /// `forward_batch` sweep of the low effort over all samples, then one
    /// batched high-effort sweep over the escalated subset. Statistics are
    /// reduced in sample order and `forward_batch` matches per-sample
    /// inference bitwise, so the result is the same for every `par` and
    /// batch split.
    pub fn evaluate_with(&self, samples: &[Sample], par: Parallelism) -> CascadeStats {
        self.evaluate_guarded_with(samples, par).0
    }

    /// [`Self::evaluate`] with fault accounting: returns the statistics
    /// together with a [`DegradationReport`] describing every sample that
    /// produced non-finite values and how it was served. For healthy models
    /// the report is empty.
    pub fn evaluate_guarded(&self, samples: &[Sample]) -> (CascadeStats, DegradationReport) {
        self.evaluate_guarded_with(samples, self.parallelism)
    }

    fn evaluate_guarded_with(
        &self,
        samples: &[Sample],
        par: Parallelism,
    ) -> (CascadeStats, DegradationReport) {
        let images: Vec<&Matrix> = samples.iter().map(|s| &s.image).collect();
        let (outcomes, report) = evaluate_guarded_slice(
            self.ladder.prepared_levels(),
            self.ladder.thresholds(),
            1,
            &images,
            par,
        );
        (CascadeStats::from_outcomes(&outcomes, samples), report)
    }

    /// Ablation: routes by **ground-truth difficulty** instead of entropy —
    /// samples with `difficulty < difficulty_threshold` take the low
    /// effort. This is the oracle upper bound on input-aware gating; the
    /// synthetic dataset's difficulty labels make it measurable (ImageNet
    /// has no such labels, so the paper cannot report this). The difficulty
    /// partition is known up front, so each side runs as one batched sweep.
    pub fn evaluate_with_oracle(
        &self,
        samples: &[Sample],
        difficulty_threshold: f32,
    ) -> CascadeStats {
        let (easy, hard): (Vec<&Sample>, Vec<&Sample>) = samples
            .iter()
            .partition(|s| s.difficulty < difficulty_threshold);
        let mut stats = CascadeStats::default();
        for (level, group) in [easy, hard].iter().enumerate() {
            let observed = observe_level(
                &self.ladder.prepared_levels()[level],
                group,
                |s| &s.image,
                self.parallelism,
            );
            for (obs, sample) in observed.iter().zip(group) {
                stats.record(level == 1, obs.prediction as usize == sample.label);
            }
        }
        stats
    }

    /// The fraction of `samples` the low effort would classify at a given
    /// threshold, without running the high effort (used by Phase 2's
    /// threshold iteration).
    ///
    /// One call runs low-effort inference once (on the worker pool). To
    /// probe many thresholds, build [`Self::cache`] once and query
    /// [`CascadeCache::f_low_at`] per threshold in O(N).
    pub fn f_low_at(&self, samples: &[Sample], threshold: f32) -> f64 {
        self.cache(samples).f_low_at(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_nn::normalized_entropy;
    use pivot_tensor::Rng;
    use pivot_vit::VitConfig;

    fn models(seed: u64) -> (VisionTransformer, VisionTransformer) {
        let cfg = VitConfig::test_small();
        let mut rng = Rng::new(seed);
        let mut low = VisionTransformer::new(&cfg, &mut rng);
        low.set_active_attentions(&[0]);
        let high = VisionTransformer::new(&cfg, &mut Rng::new(seed + 1));
        (low, high)
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        pivot_data::Dataset::generate_difficulty_stripes(
            &pivot_data::DatasetConfig::small(),
            &[0.2, 0.8],
            n / 2,
            seed,
        )
    }

    /// Zeroes the classifier head so every input yields exactly uniform
    /// logits — normalized entropy 1.0, the hardest possible sample.
    fn zero_head(model: &mut VisionTransformer) {
        let mut params = model.params_mut();
        // Patch embed, cls token, pos embed, encoder blocks, final norm,
        // then head weight + bias last.
        let n = params.len();
        for p in params.iter_mut().skip(n - 2) {
            p.value = Matrix::zeros(p.value.rows(), p.value.cols());
        }
    }

    #[test]
    fn threshold_zero_always_escalates() {
        let (low, high) = models(0);
        let cascade = MultiEffortVit::new(low, high, 0.0);
        let stats = cascade.evaluate(&samples(20, 1));
        assert_eq!(stats.n_low, 0);
        assert_eq!(stats.n_high, 20);
        assert_eq!(stats.f_high(), 1.0);
    }

    #[test]
    fn threshold_one_never_escalates() {
        let (low, high) = models(2);
        let cascade = MultiEffortVit::new(low, high, 1.0);
        let stats = cascade.evaluate(&samples(20, 3));
        assert_eq!(stats.n_high, 0);
        assert_eq!(stats.f_low(), 1.0);
    }

    #[test]
    fn uniform_logits_stay_low_at_threshold_one() {
        // Regression: a sample with exactly uniform logits has normalized
        // entropy 1.0. With a strict `<` gate it escaped even at Th = 1.0,
        // contradicting the paper's "F_L = 1 at Th = 1" semantics; the
        // gate is inclusive at the top boundary.
        let (mut low, high) = models(20);
        zero_head(&mut low);
        let set = samples(8, 21);
        let entropy = normalized_entropy(&low.infer(&set[0].image));
        assert!(
            (entropy - 1.0).abs() < 1e-6,
            "zeroed head must give uniform logits, entropy {entropy}"
        );

        let cascade = MultiEffortVit::new(low, high, 1.0);
        let out = cascade.infer(&set[0].image);
        assert_eq!(out.level, 0, "uniform logits must stay low at Th = 1.0");
        let stats = cascade.evaluate(&set);
        assert_eq!(stats.n_high, 0);
        assert_eq!(stats.f_low(), 1.0);
        assert_eq!(cascade.f_low_at(&set, 1.0), 1.0);

        // Just below the boundary the same samples all escalate.
        let mut strict = cascade.clone();
        strict.set_threshold(0.999);
        assert_eq!(strict.infer(&set[0].image).level, 1);
    }

    #[test]
    fn faulted_high_effort_degrades_to_the_low_prediction() {
        let (low, high) = models(50);
        let mut faulty_high = high.clone();
        crate::faults::FaultInjector::new(51).inject_params(
            &mut faulty_high,
            crate::faults::FaultKind::StuckNan,
            10_000,
        );
        // Th = 0 escalates everything, so every sample exercises the
        // faulted high effort.
        let healthy = MultiEffortVit::new(low.clone(), high, 0.0);
        let degraded = MultiEffortVit::new(low.clone(), faulty_high, 0.0);
        let set = samples(10, 52);
        for s in &set {
            let out = degraded.infer(&s.image);
            assert_eq!(out.level, 1, "Th=0 must escalate");
            assert_eq!(out.fault_fallback, Some(0), "NaN high logits degrade");
            // The served prediction is the low effort's, not garbage.
            assert_eq!(out.prediction, low.infer(&s.image).row_argmax(0));
            // A healthy cascade on the same input does not degrade.
            assert_eq!(healthy.infer(&s.image).fault_fallback, None);
        }
    }

    #[test]
    fn empty_evaluation_has_no_high_fraction() {
        // Regression: `f_high()` reported 1.0 on an empty evaluation
        // because `f_low()` returns 0.0 when `total() == 0`.
        let stats = CascadeStats::default();
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.f_low(), 0.0);
        assert_eq!(stats.f_high(), 0.0);
        assert_eq!(stats.accuracy(), 0.0);
    }

    #[test]
    fn f_low_is_monotone_in_threshold() {
        let (low, high) = models(4);
        let cascade = MultiEffortVit::new(low, high, 0.5);
        let set = samples(30, 5);
        let mut prev = 0.0;
        for th in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let f = cascade.f_low_at(&set, th);
            assert!(f >= prev, "F_L not monotone at Th={th}");
            prev = f;
        }
        assert_eq!(cascade.f_low_at(&set, 1.0), 1.0);
    }

    #[test]
    fn stats_are_consistent() {
        let (low, high) = models(6);
        let cascade = MultiEffortVit::new(low, high, 0.5);
        let set = samples(40, 7);
        let stats = cascade.evaluate(&set);
        assert_eq!(stats.total(), 40);
        assert_eq!(stats.n_low, stats.c_low + stats.i_low);
        assert_eq!(stats.n_high, stats.c_high + stats.i_high);
        assert!((stats.f_low() + stats.f_high() - 1.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&stats.accuracy()));
    }

    #[test]
    fn batched_evaluate_matches_single_image_infer() {
        // Batched vs single at the cascade level: one sweep over the whole
        // set must agree with one sweep per image, for every threshold and
        // parallelism.
        let (low, high) = models(40);
        let set = samples(26, 41);
        for th in [0.0, 0.5, 1.0] {
            let cascade = MultiEffortVit::new(low.clone(), high.clone(), th);
            let singles: Vec<GuardedOutcome> =
                set.iter().map(|s| cascade.infer(&s.image)).collect();
            let reference = CascadeStats::from_outcomes(&singles, &set);
            for par in [Parallelism::Off, Parallelism::Fixed(3)] {
                assert_eq!(
                    cascade.evaluate_with(&set, par),
                    reference,
                    "Th={th} under {par:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_evaluate_is_bit_identical() {
        let (low, high) = models(30);
        let cascade = MultiEffortVit::new(low, high, 0.5);
        let set = samples(24, 31);
        let seq = cascade.evaluate_with(&set, Parallelism::Off);
        for par in [
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(9),
        ] {
            assert_eq!(seq, cascade.evaluate_with(&set, par), "under {par:?}");
        }
        let oracle = |par| {
            cascade
                .clone()
                .with_parallelism(par)
                .evaluate_with_oracle(&set, 0.5)
        };
        for par in [Parallelism::Auto, Parallelism::Fixed(3)] {
            assert_eq!(
                oracle(Parallelism::Off),
                oracle(par),
                "oracle under {par:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_threshold_panics() {
        let (low, high) = models(10);
        let _ = MultiEffortVit::new(low, high, 1.5);
    }

    #[test]
    fn distinct_backbones_share_nothing() {
        // `models()` draws low and high from different seeds: no layer can
        // dedupe, and the accounting must say so.
        let (low, high) = models(62);
        let cascade = MultiEffortVit::new(low, high, 0.5);
        let ladder = cascade.ladder();
        assert_eq!(ladder.share_stats().hits, 0);
        assert_eq!(ladder.unique_weight_bytes(), ladder.weight_bytes());
    }
}
