//! The guarded sweep: the one place that walks effort levels, applies the
//! entropy gate and does the fault accounting of DESIGN.md §5.
//!
//! PIVOT is one mechanism — run the low effort, gate on normalized entropy,
//! re-infer at a higher effort (paper Fig. 2a). Every front-end in this
//! crate is that one sweep, over a memo that lives for one evaluation and
//! starts in one of two states:
//!
//! * empty — [`evaluate_guarded_slice`] over a transient slice of
//!   unlabeled images (what the `pivot-serve` engine runs per batch), and
//!   through it [`EffortLadder`](crate::EffortLadder)'s `evaluate` and
//!   `infer`;
//! * with level 0 observed — [`CascadeCache`](crate::CascadeCache)'s
//!   evaluation, so a threshold sweep re-runs no low-effort inference.
//!
//! Every evaluation over labeled samples folds its [`GuardedOutcome`]s into
//! one [`CascadeStats`](crate::CascadeStats) and returns it with the sweep's
//! [`DegradationReport`].
//!
//! The memo holds only level observations — entropy, argmax and a
//! finiteness flag, 12 bytes — never logit rows. Inference goes through
//! the chunked batched forward of [`crate::batched`] on `par_map`'s
//! workers, whose rows are bit-identical to per-sample inference, so
//! outcomes do not depend on the batch split, the [`Parallelism`] or what
//! the memo already held.
//!
//! ## Gate and degradation contract
//!
//! Levels are ordered low → high effort, with `levels - 1` thresholds.
//! A sample ascends while `!stays_low(entropy, threshold[level])` and the
//! level is below `max_level` (the effort cap); the cap level accepts
//! everything, whatever the gate says. With two levels and `max_level = 1`
//! the routing is exactly the paper cascade's. Faults, per sample:
//!
//! * a non-finite entropy at a gate level never stays low, so a faulted
//!   level auto-escalates (event with `served_by: None`);
//! * non-finite logits at the *exit* level are served by the deepest
//!   earlier visited level with finite logits (event with `served_by:
//!   Some(level)`), while the sample stays attributed to the exit level —
//!   its cost was spent; if every visited level is faulty the exit level's
//!   own argmax stands (event with `served_by: None`).

use crate::batched::batched_logits_shared;
use crate::parallel::Parallelism;
use pivot_nn::normalized_entropy;
use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;

/// The entropy gate of Fig. 2a: `true` when a sample with normalized
/// entropy `entropy` stays at the low effort under threshold `threshold`.
///
/// The gate is the paper's strict `E(x) < Th` everywhere except the top
/// boundary: at `Th = 1.0` it is inclusive, so `F_L = 1` holds even for
/// exactly uniform logits whose normalized entropy is 1.0 (or a float ulp
/// above). A **non-finite** entropy — the fault signature of corrupted
/// logits (see [`pivot_nn::normalized_entropy`]) — never stays low, even at
/// `Th = 1.0`: a faulted level must escalate so a higher effort gets a
/// chance to serve the sample. This is the only gate comparison in the
/// workspace: the sweep, [`CascadeCache`](crate::CascadeCache)'s `F_L`
/// queries and the serving threshold controller all call it, so the
/// boundary semantics cannot drift apart.
pub fn stays_low(entropy: f32, threshold: f32) -> bool {
    entropy.is_finite() && (entropy < threshold || threshold >= 1.0)
}

/// The smallest threshold on the grid `step, 2·step, …` (capped at 1.0)
/// whose low-effort fraction `f_low(threshold)` reaches `lec` — Phase 2's
/// incremental threshold iteration, shared by the offline
/// [`CascadeCache::threshold_reaching`](crate::CascadeCache::threshold_reaching)
/// and the online threshold controller so a stationary stream converges to
/// the offline `Th` bitwise. Because [`stays_low`] is inclusive at the top,
/// `f_low(1.0) = 1.0` for any non-faulted set and the walk ends at or
/// before 1.0.
///
/// Every probe is clamped to at most 1.0 *inside* the loop: a step that
/// does not divide 1.0 (e.g. 0.03) accumulates to 0.99999994 rather than
/// 1.0 in `f32`, and probing that value would miss the inclusive `Th = 1.0`
/// gate — the final probe must be exactly `1.0` bitwise.
///
/// A `lec` above 1 is never reached and caps the walk at 1.0.
///
/// # Panics
///
/// Panics if `lec` is NaN (every comparison with it is false, so the walk
/// would stop at its first probe as if the constraint were met), or if
/// `step` is not strictly positive.
pub fn threshold_grid_walk(lec: f64, step: f32, f_low: impl Fn(f32) -> f64) -> f32 {
    assert!(!lec.is_nan(), "lec is NaN: no threshold can reach it");
    assert!(step > 0.0, "threshold step must be positive");
    let mut threshold = step.min(1.0);
    while f_low(threshold) < lec && threshold < 1.0 {
        threshold = (threshold + step).min(1.0);
    }
    threshold
}

/// One sample that produced non-finite values during a guarded evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Index of the affected sample, in evaluation order.
    pub sample: usize,
    /// Effort level whose logits were non-finite (0 = low, 1 = high for
    /// the two-level cascade).
    pub level: usize,
    /// The effort level whose prediction was served instead, or `None`
    /// when no fallback prediction was substituted — either the faulty
    /// level was not the serving one (a faulted low effort whose sample
    /// escalated to a healthy high effort), or every visited level was
    /// faulty and the exit level's own prediction stood.
    pub served_by: Option<usize>,
}

/// Fault accounting for one guarded evaluation: which samples hit
/// non-finite values, at which effort level, and who served them instead.
///
/// An empty report means the evaluation was fault-free (DESIGN.md §5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Every degradation event, in sample order.
    pub events: Vec<DegradationEvent>,
}

impl DegradationReport {
    /// Whether the evaluation was completely fault-free.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of degradation events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of samples served by a fallback prediction (the faulty level
    /// was the serving one and an earlier level's prediction stood in).
    pub fn fallbacks(&self) -> usize {
        self.events.iter().filter(|e| e.served_by.is_some()).count()
    }

    /// Number of events whose non-finite logits came from `level`.
    pub fn non_finite_at(&self, level: usize) -> usize {
        self.events.iter().filter(|e| e.level == level).count()
    }

    /// Number of events without a substituted prediction: fault escalations
    /// below the exit level, plus exits where every visited level was
    /// faulty.
    pub fn escalations(&self) -> usize {
        self.events.iter().filter(|e| e.served_by.is_none()).count()
    }

    /// Appends every event of `other`, preserving `other`'s internal
    /// order after the events already present.
    ///
    /// This is the aggregation primitive for long-lived consumers (the
    /// serving engine's health counters, multi-evaluation sweeps): each
    /// per-request/per-batch report merges into one running report whose
    /// counters ([`Self::fallbacks`], [`Self::non_finite_at`], ...) then
    /// describe the whole history. Sample indices stay *local* to the
    /// evaluation that produced them — a merged report counts events, it
    /// does not re-index samples across evaluations.
    pub fn merge(&mut self, other: DegradationReport) {
        self.events.extend(other.events);
    }
}

impl std::iter::Sum for DegradationReport {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        let mut total = DegradationReport::default();
        for report in iter {
            total.merge(report);
        }
        total
    }
}

impl std::fmt::Display for DegradationReport {
    /// One-line health summary, e.g.
    /// `3 degradation events (1 fault escalation, 2 fallbacks)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "no degradation events");
        }
        write!(
            f,
            "{} degradation event{} ({} fault escalation{}, {} fallback{})",
            self.len(),
            if self.len() == 1 { "" } else { "s" },
            self.escalations(),
            if self.escalations() == 1 { "" } else { "s" },
            self.fallbacks(),
            if self.fallbacks() == 1 { "" } else { "s" },
        )
    }
}

/// What one sample's guarded cascade walk produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedOutcome {
    /// Predicted class (after any fault fallback).
    pub prediction: usize,
    /// Effort level the sample exited at (whose cost was spent).
    pub level: usize,
    /// Normalized entropy of the exit level's logits (NaN if faulted).
    pub entropy: f32,
    /// Normalized entropy observed at level 0 (the cascade's low effort),
    /// which every sample visits regardless of where it exits. This is
    /// the signal an online threshold controller tunes against: the gate
    /// decision `stays_low(low_entropy, Th)` for any candidate `Th` is
    /// computable from it without re-running inference. NaN if level 0
    /// was faulted.
    pub low_entropy: f32,
    /// Whether the sample exited at the effort cap while its entropy
    /// still demanded escalation — the signature of an overload-degraded
    /// answer. Always `false` when the cap is the full ladder top and for
    /// samples the gate genuinely accepted.
    pub capped: bool,
    /// Whether the exit level's logits were finite. When `false`, the
    /// prediction came from `fault_fallback` (or, if that is `None`, from
    /// the faulty logits' own argmax — the last resort).
    pub exit_finite: bool,
    /// The earlier level whose prediction was served instead of the
    /// faulty exit level's, if any.
    pub fault_fallback: Option<usize>,
}

/// What the sweep keeps of one forward pass: one sample at one level.
/// `Option<LevelObs>` is 12 bytes (the `bool` carries the niche).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LevelObs {
    pub(crate) entropy: f32,
    pub(crate) prediction: u32,
    pub(crate) finite: bool,
}

/// Observes `model` over the images of `items`: [`observe_levels`] over
/// one model.
pub(crate) fn observe_level<T: Sync>(
    model: &PreparedModel,
    items: &[T],
    image: impl for<'a> Fn(&'a T) -> &'a Matrix + Sync,
    par: Parallelism,
) -> Vec<LevelObs> {
    observe_levels(&[model], items, image, par)
        .pop()
        .expect("one model in, one observation list out")
}

/// Observes several models in one pass over `items`, one observation list
/// per model: a chunked batched sweep on `par_map`'s workers
/// ([`batched_logits_shared`]), so models that share their embedding and
/// leading blocks compute them once, reduced to one [`LevelObs`] per item.
pub(crate) fn observe_levels<T: Sync>(
    models: &[&PreparedModel],
    items: &[T],
    image: impl for<'a> Fn(&'a T) -> &'a Matrix + Sync,
    par: Parallelism,
) -> Vec<Vec<LevelObs>> {
    batched_logits_shared(models, items, image, par)
        .iter()
        .map(|level| level.iter().map(LevelObs::of).collect())
        .collect()
}

impl LevelObs {
    /// One sample's observation from its `1 x classes` logits.
    fn of(logits: &Matrix) -> Self {
        Self {
            entropy: normalized_entropy(logits),
            prediction: logits.row_argmax(0) as u32,
            finite: logits.is_all_finite(),
        }
    }
}

/// The sweep's memo: one observation slot per (level, sample), filled as
/// samples escalate and never changed afterwards. It lives for one
/// evaluation and starts empty ([`evaluate_guarded_slice`]) or with level
/// 0 observed ([`sweep_from_level0`]). What it holds decides only what is
/// observed, never the results. Over `n` samples and `L` levels it holds
/// at most `n·L` 12-byte observations.
type Memo = Vec<Vec<Option<LevelObs>>>;

/// Walks every sample up the ladder under `thresholds`, capping ascent at
/// `max_level`, and accounts for faults (module docs). `observe` is asked
/// for the observations of `(level, sample indices)` the memo lacks — one
/// call per level, only when some are missing — so each level's inference
/// is one batched sweep over exactly the samples that reach it for the
/// first time.
///
/// This is the only function that constructs a [`DegradationEvent`].
fn sweep(
    mut memo: Memo,
    thresholds: &[f32],
    max_level: usize,
    mut observe: impl FnMut(usize, &[usize]) -> Vec<LevelObs>,
) -> (Vec<GuardedOutcome>, DegradationReport) {
    let depth = memo.len();
    assert!(depth > 0, "need at least one effort level");
    assert_eq!(
        thresholds.len(),
        depth - 1,
        "need one threshold per gate (levels - 1)"
    );
    assert!(max_level < depth, "effort cap beyond ladder top");

    let n = memo[0].len();
    let mut exit = vec![0usize; n];
    let mut active: Vec<usize> = (0..n).collect();
    for (level, row) in memo.iter_mut().enumerate().take(max_level + 1) {
        if active.is_empty() {
            break;
        }
        let missing: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| row[i].is_none())
            .collect();
        if !missing.is_empty() {
            for (&i, obs) in missing.iter().zip(observe(level, &missing)) {
                row[i] = Some(obs);
            }
        }
        active.retain(|&i| {
            let obs = row[i].expect("observed above");
            let exits = level == max_level || stays_low(obs.entropy, thresholds[level]);
            if exits {
                exit[i] = level;
            }
            !exits
        });
    }

    let visited = |level: usize, i: usize| memo[level][i].expect("visited by the walk");
    let mut outcomes = Vec::with_capacity(n);
    let mut report = DegradationReport::default();
    for (i, &exit_level) in exit.iter().enumerate() {
        let mut fault = |level, served_by| {
            report.events.push(DegradationEvent {
                sample: i,
                level,
                served_by,
            });
        };
        for level in 0..exit_level {
            if !visited(level, i).entropy.is_finite() {
                fault(level, None);
            }
        }
        let top = visited(exit_level, i);
        let mut fault_fallback = None;
        let mut prediction = top.prediction;
        if !top.finite {
            fault_fallback = (0..exit_level).rev().find(|&l| visited(l, i).finite);
            fault(exit_level, fault_fallback);
            if let Some(l) = fault_fallback {
                prediction = visited(l, i).prediction;
            }
        }
        outcomes.push(GuardedOutcome {
            prediction: prediction as usize,
            level: exit_level,
            entropy: top.entropy,
            low_entropy: visited(0, i).entropy,
            capped: exit_level == max_level
                && max_level < depth - 1
                && !stays_low(top.entropy, thresholds[max_level]),
            exit_finite: top.finite,
            fault_fallback,
        });
    }
    (outcomes, report)
}

/// The sweep over a two-level cascade whose level 0 is already observed,
/// one entry of `level0` per sample, at gate `threshold`:
/// `observe_high` is asked only for the samples that escalate.
pub(crate) fn sweep_from_level0(
    level0: &[LevelObs],
    threshold: f32,
    mut observe_high: impl FnMut(&[usize]) -> Vec<LevelObs>,
) -> (Vec<GuardedOutcome>, DegradationReport) {
    let memo = vec![
        level0.iter().copied().map(Some).collect(),
        vec![None; level0.len()],
    ];
    sweep(memo, &[threshold], 1, |_, escalated| {
        observe_high(escalated)
    })
}

/// Runs the guarded cascade over a slice of images against prepared
/// effort levels, capping ascent at `max_level`, and returns one
/// [`GuardedOutcome`] per image (in input order) plus the batch's
/// [`DegradationReport`] (sample indices local to this slice).
///
/// Each level's inference is one batched sweep over exactly the samples
/// that reached it, so a size-`B` slice costs the same GEMM work as the
/// offline cache path would spend on those `B` samples.
///
/// `thresholds` is a **per-batch parameter**, not a ladder constant: an
/// online caller may pass a different gate threshold on every invocation
/// (the `pivot-serve` adaptive threshold controller retunes `Th` between
/// batches), and each outcome additionally carries the level-0 entropy
/// ([`GuardedOutcome::low_entropy`]) so the controller can evaluate any
/// candidate threshold against observed traffic without extra inference.
///
/// # Panics
///
/// Panics if `levels` is empty, `thresholds.len() != levels.len() - 1`,
/// or `max_level >= levels.len()`.
pub fn evaluate_guarded_slice(
    levels: &[PreparedModel],
    thresholds: &[f32],
    max_level: usize,
    images: &[&Matrix],
    par: Parallelism,
) -> (Vec<GuardedOutcome>, DegradationReport) {
    let memo = vec![vec![None; images.len()]; levels.len()];
    sweep(memo, thresholds, max_level, |level, missing| {
        let reached: Vec<&Matrix> = missing.iter().map(|&i| images[i]).collect();
        observe_level(&levels[level], &reached, |m| *m, par)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CascadeCache;
    use crate::faults::{FaultInjector, FaultKind};
    use crate::multilevel::CascadeStats;
    use pivot_data::{Dataset, DatasetConfig, Sample};
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};
    use proptest::prelude::*;

    fn model(seed: u64, active: &[usize]) -> VisionTransformer {
        let mut m = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(seed));
        m.set_active_attentions(active);
        m
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        Dataset::generate_difficulty_stripes(&DatasetConfig::small(), &[0.2, 0.8], n / 2, seed)
    }

    fn images(set: &[Sample]) -> Vec<&Matrix> {
        set.iter().map(|s| &s.image).collect()
    }

    #[test]
    fn gate_is_strict_below_the_boundary() {
        assert!(stays_low(0.39, 0.4));
        assert!(!stays_low(0.4, 0.4));
        assert!(!stays_low(0.41, 0.4));
        assert!(!stays_low(0.0, 0.0));
        assert!(stays_low(1.0, 1.0));
        assert!(stays_low(1.0 + f32::EPSILON, 1.0));
    }

    #[test]
    #[should_panic(expected = "lec is NaN")]
    fn grid_walk_rejects_a_nan_lec() {
        // Every probe's `f_low < NaN` is false: without the check the walk
        // returned its first probe, 0.02, with F_L = 0.
        threshold_grid_walk(f64::NAN, 0.02, |_| 0.0);
    }

    #[test]
    fn non_finite_entropy_always_escalates() {
        // A NaN entropy is the fault signature of corrupted low-effort
        // logits; the gate must escalate it at every threshold, including
        // the otherwise-inclusive Th = 1.0.
        for th in [0.0, 0.5, 1.0] {
            assert!(!stays_low(f32::NAN, th), "NaN stayed low at Th={th}");
            assert!(!stays_low(f32::INFINITY, th), "inf stayed low at Th={th}");
        }
    }

    /// The single reference the sweep is checked against: one sample's walk
    /// up a table of per-level observations, written as the contract reads
    /// (module docs) with its own gate comparison.
    fn reference_walk(
        table: &[Vec<LevelObs>],
        i: usize,
        ths: &[f32],
        cap: usize,
    ) -> (GuardedOutcome, Vec<DegradationEvent>) {
        let gate = |l: usize| {
            let e = table[l][i].entropy;
            e.is_finite() && (e < ths[l] || ths[l] >= 1.0)
        };
        let mut exit = 0;
        while exit < cap && !gate(exit) {
            exit += 1;
        }
        let mut events: Vec<DegradationEvent> = (0..exit)
            .filter(|&l| !table[l][i].entropy.is_finite())
            .map(|level| DegradationEvent {
                sample: i,
                level,
                served_by: None,
            })
            .collect();
        let top = table[exit][i];
        let fallback = (0..exit).rev().find(|&l| table[l][i].finite);
        if !top.finite {
            events.push(DegradationEvent {
                sample: i,
                level: exit,
                served_by: fallback,
            });
        }
        let served = if top.finite {
            exit
        } else {
            fallback.unwrap_or(exit)
        };
        let outcome = GuardedOutcome {
            prediction: table[served][i].prediction as usize,
            level: exit,
            entropy: top.entropy,
            low_entropy: table[0][i].entropy,
            capped: exit == cap && cap < ths.len() && !gate(cap),
            exit_finite: top.finite,
            fault_fallback: if top.finite { None } else { fallback },
        };
        (outcome, events)
    }

    /// Bitwise outcome equality (`PartialEq` would reject NaN == NaN).
    fn same(a: &GuardedOutcome, b: &GuardedOutcome) -> bool {
        let key = |o: &GuardedOutcome| {
            (
                o.prediction,
                o.level,
                o.entropy.to_bits(),
                o.low_entropy.to_bits(),
                o.capped,
                o.exit_finite,
                o.fault_fallback,
            )
        };
        key(a) == key(b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sweep against the per-sample reference walk, over ladder
        /// depths, non-decreasing thresholds that hit 0.0 and 1.0, every
        /// cap, NaN and all-`-inf` fault patterns at any level, and a random
        /// memo prefill — which must change what is observed, never the
        /// result.
        #[test]
        fn sweep_matches_the_per_sample_reference_walk(
            seed in 0u64..100_000,
            depth in 2usize..=4,
            n in 0usize..24,
        ) {
            let mut rng = Rng::new(seed);
            let table: Vec<Vec<LevelObs>> = (0..depth)
                .map(|_| {
                    (0..n)
                        .map(|_| match rng.below(8) {
                            // NaN logits: no entropy, no usable argmax.
                            0 => LevelObs { entropy: f32::NAN, prediction: 0, finite: false },
                            // All -inf logits: entropy clamps to 1.0 yet the
                            // row is not finite.
                            1 => LevelObs { entropy: 1.0, prediction: 0, finite: false },
                            // Exactly uniform logits.
                            2 => LevelObs { entropy: 1.0, prediction: 0, finite: true },
                            _ => LevelObs {
                                entropy: rng.uniform(0.0, 1.0),
                                prediction: rng.below(10) as u32,
                                finite: true,
                            },
                        })
                        .collect()
                })
                .collect();
            let mut ths: Vec<f32> = (0..depth - 1)
                .map(|_| match rng.below(4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.uniform(0.0, 1.0),
                })
                .collect();
            ths.sort_by(f32::total_cmp);

            for cap in 0..depth {
                let prefilled: Memo = table
                    .iter()
                    .map(|row| row.iter().map(|&obs| rng.chance(0.3).then_some(obs)).collect())
                    .collect();
                let mut asked = Vec::new();
                let (outcomes, report) = sweep(prefilled.clone(), &ths, cap, |level, missing| {
                    asked.extend(missing.iter().map(|&i| (level, i)));
                    missing.iter().map(|&i| table[level][i]).collect()
                });

                let mut expected_events = Vec::new();
                for (i, got) in outcomes.iter().enumerate() {
                    let (want, events) = reference_walk(&table, i, &ths, cap);
                    prop_assert!(same(got, &want), "cap {cap} sample {i}: {got:?} vs {want:?}");
                    expected_events.extend(events);
                }
                prop_assert_eq!(outcomes.len(), n);
                prop_assert_eq!(&report.events, &expected_events);
                // Observed exactly the visited entries the prefill lacked,
                // each once; nothing beyond a sample's exit level.
                let mut want_asked = Vec::new();
                for (level, row) in prefilled.iter().enumerate() {
                    for (i, o) in outcomes.iter().enumerate() {
                        if level <= o.level && row[i].is_none() {
                            want_asked.push((level, i));
                        }
                    }
                }
                prop_assert_eq!(&asked, &want_asked);
            }
        }
    }

    #[test]
    fn non_finite_exit_at_level_zero_is_reported() {
        // All -inf low-effort logits have entropy 1.0, which the inclusive
        // Th = 1.0 gate keeps low: the exit level itself is faulty with no
        // earlier level to fall back on, so its own argmax stands and the
        // event says so.
        let level0 = [LevelObs {
            entropy: 1.0,
            prediction: 2,
            finite: false,
        }];
        let (outcomes, report) =
            sweep_from_level0(&level0, 1.0, |_| unreachable!("nothing escalates"));
        assert_eq!((outcomes[0].level, outcomes[0].prediction), (0, 2));
        assert!(!outcomes[0].exit_finite);
        assert_eq!(
            report.events,
            [DegradationEvent {
                sample: 0,
                level: 0,
                served_by: None
            }]
        );
    }

    #[test]
    fn cold_and_prefilled_memos_agree_across_a_threshold_sweep() {
        // One mechanism, both memo states: the per-request slice (empty)
        // and `CascadeCache` (level 0 observed) — healthy, with a faulted
        // high effort and with a faulted low effort.
        let (mut faulty_low, mut faulty_high) = (model(0, &[0]), model(1, &[0, 1]));
        let (low, high) = (faulty_low.prepare(), faulty_high.prepare());
        FaultInjector::new(12).inject_params(&mut faulty_low, FaultKind::StuckNan, 10_000);
        FaultInjector::new(13).inject_params(&mut faulty_high, FaultKind::StuckNan, 10_000);
        let set = samples(18, 2);
        for (low, high) in [
            (low.clone(), high.clone()),
            (low, faulty_high.prepare()),
            (faulty_low.prepare(), high),
        ] {
            let levels = [low.clone(), high.clone()];
            let cache = CascadeCache::build_prepared(&low, &set, Parallelism::Off);
            for th in [1.0, 0.7, 0.35, 0.0] {
                let (cold, cold_report) =
                    evaluate_guarded_slice(&levels, &[th], 1, &images(&set), Parallelism::Off);
                let (stats, report) = cache.evaluate(&high, &set, th, Parallelism::Fixed(3));
                assert_eq!(report, cold_report, "Th={th}");
                assert_eq!(
                    stats,
                    CascadeStats::from_outcomes(&cold, &set, 2),
                    "Th={th}"
                );
                for (i, o) in cold.iter().enumerate() {
                    assert_eq!(o.low_entropy.to_bits(), cache.entropies()[i].to_bits());
                    assert_eq!(o.level, !stays_low(cache.entropies()[i], th) as usize);
                }
            }
        }
        // (The last configuration's reports were non-empty: every sample's
        // NaN level-0 entropy escalates at every threshold.)
    }

    #[test]
    fn slice_evaluation_is_bit_identical_across_parallelism() {
        let low = model(3, &[0]);
        let high = model(4, &[0, 1]);
        let set = samples(40, 5);
        let levels = [low.prepare(), high.prepare()];
        let (seq, seq_report) =
            evaluate_guarded_slice(&levels, &[0.5], 1, &images(&set), Parallelism::Off);
        for par in [Parallelism::Fixed(3), Parallelism::Fixed(16)] {
            let (par_out, par_report) =
                evaluate_guarded_slice(&levels, &[0.5], 1, &images(&set), par);
            assert_eq!(par_report, seq_report);
            assert!(seq.iter().zip(&par_out).all(|(a, b)| same(a, b)));
        }
    }

    #[test]
    fn effort_cap_outranks_the_gate_and_flags_capped() {
        let low = model(6, &[0]);
        let high = model(7, &[0, 1]);
        let set = samples(16, 8);
        let levels = [low.prepare(), high.prepare()];
        let th = 0.5;
        let (full, _) = evaluate_guarded_slice(&levels, &[th], 1, &images(&set), Parallelism::Off);
        let (capped, report) =
            evaluate_guarded_slice(&levels, &[th], 0, &images(&set), Parallelism::Off);
        assert!(report.is_empty());
        let mut would_escalate = 0;
        for (c, f) in capped.iter().zip(&full) {
            assert_eq!(c.level, 0, "cap 0 must never run the high effort");
            // A capped walk and a full walk agree on the low-level gate:
            // `capped` is set exactly for the samples the full walk
            // escalated.
            assert_eq!(c.capped, f.level == 1);
            would_escalate += c.capped as usize;
            if f.level == 0 {
                assert!(same(c, f));
            }
        }
        assert!(would_escalate > 0, "test set must exercise escalation");
    }

    #[test]
    fn three_level_ladder_respects_intermediate_cap() {
        let levels: Vec<_> = [&[0usize][..], &[0, 1], &[0, 1, 2, 3]]
            .iter()
            .map(|active| model(9, active).prepare())
            .collect();
        let ths = [0.0, 0.0]; // send everything as high as allowed
        let set = samples(10, 10);
        for cap in 0..3 {
            let (outcomes, report) =
                evaluate_guarded_slice(&levels, &ths, cap, &images(&set), Parallelism::Off);
            assert!(report.is_empty());
            for o in &outcomes {
                assert_eq!(o.level, cap, "zero thresholds pin every exit at the cap");
                assert_eq!(o.capped, cap < 2);
            }
        }
    }

    #[test]
    fn faulted_high_effort_falls_back_to_the_low_prediction() {
        let low_p = model(11, &[0]).prepare();
        let mut high = model(12, &[0, 1]);
        FaultInjector::new(13).inject_params(&mut high, FaultKind::StuckNan, 10_000);
        let set = samples(12, 14);
        // Th = 0 escalates everything into the faulted high effort.
        let (outcomes, report) = evaluate_guarded_slice(
            &[low_p.clone(), high.prepare()],
            &[0.0],
            1,
            &images(&set),
            Parallelism::Off,
        );
        assert_eq!(report.fallbacks(), set.len());
        assert_eq!(report.non_finite_at(1), set.len());
        assert_eq!(report.non_finite_at(0), 0);
        for (o, s) in outcomes.iter().zip(&set) {
            assert_eq!(o.level, 1, "the high-effort cost was spent");
            assert!(!o.exit_finite);
            assert_eq!(o.fault_fallback, Some(0));
            assert_eq!(o.prediction, low_p.infer(&s.image).row_argmax(0));
        }
    }

    #[test]
    fn faulted_low_effort_escalates_to_healthy_high() {
        // Every weight stuck at NaN, and a single stuck-NaN cell in the
        // first MLP's `fc1` weight: that one reaches the logits only
        // through GELU, whose vector form must not launder it.
        for one_fc1_cell in [false, true] {
            let mut low = model(15, &[0]);
            if one_fc1_cell {
                let cfg = VitConfig::test_small();
                let fc1 = (cfg.dim, cfg.mlp_hidden());
                let mut params = low.params_mut();
                let weight = params.iter_mut().find(|p| p.value.shape() == fc1);
                weight.expect("an fc1 weight").value.as_mut_slice()[5] = f32::NAN;
            } else {
                FaultInjector::new(16).inject_params(&mut low, FaultKind::StuckNan, 10_000);
            }
            let (low_p, high_p) = (low.prepare(), model(17, &[0, 1]).prepare());
            let set = samples(10, 18);
            assert!(!low_p.infer(&set[0].image).is_all_finite());
            // Even at the inclusive Th = 1.0 boundary, NaN entropies
            // escalate.
            let (outcomes, report) = evaluate_guarded_slice(
                &[low_p, high_p.clone()],
                &[1.0],
                1,
                &images(&set),
                Parallelism::Off,
            );
            assert_eq!(
                report.non_finite_at(0),
                set.len(),
                "one_fc1_cell={one_fc1_cell}"
            );
            assert_eq!(report.fallbacks(), 0, "escalation is the recovery");
            for (o, s) in outcomes.iter().zip(&set) {
                assert_eq!(o.level, 1);
                assert!(o.exit_finite && o.low_entropy.is_nan());
                assert_eq!(o.prediction, high_p.infer(&s.image).row_argmax(0));
            }
        }
    }

    #[test]
    fn outcomes_carry_the_observed_entropies_of_direct_inference() {
        let low = model(23, &[0]).prepare();
        let high = model(24, &[0, 1]).prepare();
        let set = samples(20, 25);
        let (outcomes, _) = evaluate_guarded_slice(
            &[low.clone(), high.clone()],
            &[0.5],
            1,
            &images(&set),
            Parallelism::Off,
        );
        let mut escalated = 0;
        for (o, s) in outcomes.iter().zip(&set) {
            let low_logits = low.infer(&s.image);
            assert_eq!(
                o.low_entropy.to_bits(),
                normalized_entropy(&low_logits).to_bits()
            );
            let exit_logits = if o.level == 0 {
                low_logits
            } else {
                escalated += 1;
                high.infer(&s.image)
            };
            assert_eq!(
                o.entropy.to_bits(),
                normalized_entropy(&exit_logits).to_bits()
            );
            assert_eq!(o.prediction, exit_logits.row_argmax(0));
        }
        assert!(escalated > 0, "test set must exercise escalation");
    }

    #[test]
    fn empty_slice_yields_empty_results() {
        let low = model(19, &[0]);
        let high = model(20, &[0, 1]);
        let (outcomes, report) = evaluate_guarded_slice(
            &[low.prepare(), high.prepare()],
            &[0.5],
            1,
            &[],
            Parallelism::Off,
        );
        assert!(outcomes.is_empty());
        assert!(report.is_empty());
    }

    #[test]
    #[should_panic(expected = "effort cap beyond ladder top")]
    fn cap_beyond_top_panics() {
        let low = model(21, &[0]);
        let high = model(22, &[0, 1]);
        let _ = evaluate_guarded_slice(
            &[low.prepare(), high.prepare()],
            &[0.5],
            2,
            &[],
            Parallelism::Off,
        );
    }

    #[test]
    fn merge_and_sum_aggregate_reports() {
        let event = |sample, level, served_by| DegradationEvent {
            sample,
            level,
            served_by,
        };
        let mut a = DegradationReport {
            events: vec![event(0, 0, None)],
        };
        let b = DegradationReport {
            events: vec![event(1, 1, Some(0)), event(2, 1, Some(0))],
        };
        a.merge(b.clone());
        assert_eq!(a.len(), 3);
        assert_eq!(a.escalations(), 1);
        assert_eq!(a.fallbacks(), 2);
        assert_eq!(a.non_finite_at(1), 2);
        // Merging an empty report is a no-op; merging into an empty report
        // reproduces the source.
        let before = a.clone();
        a.merge(DegradationReport::default());
        assert_eq!(a, before);
        let summed: DegradationReport =
            vec![before.clone(), DegradationReport::default(), b.clone()]
                .into_iter()
                .sum();
        assert_eq!(summed.len(), before.len() + b.len());
        assert_eq!(summed.fallbacks(), before.fallbacks() + b.fallbacks());
    }

    #[test]
    fn report_display_summarizes_counts() {
        assert_eq!(
            DegradationReport::default().to_string(),
            "no degradation events"
        );
        let report = DegradationReport {
            events: vec![
                DegradationEvent {
                    sample: 0,
                    level: 0,
                    served_by: None,
                },
                DegradationEvent {
                    sample: 1,
                    level: 1,
                    served_by: Some(0),
                },
            ],
        };
        assert_eq!(
            report.to_string(),
            "2 degradation events (1 fault escalation, 1 fallback)"
        );
    }
}
