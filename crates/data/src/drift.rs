//! Difficulty-drift schedules over the synthetic difficulty knob.
//!
//! PIVOT's Phase 2 picks a static entropy threshold `Th` offline, assuming
//! the difficulty mix of arriving traffic is stationary. This module
//! provides the non-stationary counterpart: a [`DriftSchedule`] maps
//! normalized run progress `t in [0, 1]` to a generation difficulty, and
//! [`Dataset::generate_drift`] renders a **time-ordered** request stream
//! that follows it. The stream is seed-deterministic (bit-reproducible) so
//! every controller trajectory driven by it is replayable in tests.
//!
//! The per-sample RNG consumption is byte-for-byte identical to
//! [`Dataset::generate_difficulty_stripes`] — draw a label, then render —
//! so a [`DriftSchedule::Stationary`] stream degenerates to exactly the
//! stripe generator's output (modulo the stripe generator's final shuffle;
//! the drift stream is intentionally *not* shuffled because arrival order
//! is the whole point).

use crate::{Dataset, DatasetConfig, Sample};
use pivot_tensor::Rng;

/// A deterministic map from normalized run progress to difficulty.
///
/// Progress `t` is clamped to `[0, 1]` before evaluation and the returned
/// difficulty is clamped to `[0, 1]` after, so every schedule is total and
/// always yields a valid knob setting.
#[derive(Debug, Clone, PartialEq)]
pub enum DriftSchedule {
    /// Constant difficulty — the degenerate no-drift case. Equivalent to a
    /// single-difficulty stripe stream in time order.
    Stationary {
        /// The fixed difficulty.
        difficulty: f32,
    },
    /// An abrupt regime change: `before` for `t < at`, `after` from `at` on.
    Step {
        /// Difficulty before the switch point.
        before: f32,
        /// Difficulty at and after the switch point.
        after: f32,
        /// Switch point in normalized progress `[0, 1]`.
        at: f64,
    },
    /// Linear interpolation from `from` to `to` over `[start, end]`,
    /// holding `from` before `start` and `to` after `end`.
    Ramp {
        /// Difficulty at and before `start`.
        from: f32,
        /// Difficulty at and after `end`.
        to: f32,
        /// Ramp onset in normalized progress.
        start: f64,
        /// Ramp completion in normalized progress (`start < end`).
        end: f64,
    },
    /// `base + amplitude * sin(2π * periods * t)`, clamped to `[0, 1]`.
    Sinusoid {
        /// Center difficulty.
        base: f32,
        /// Oscillation amplitude.
        amplitude: f32,
        /// Number of full oscillations over the run.
        periods: f64,
    },
    /// Cycles through `difficulties`, holding each for `dwell` of
    /// normalized progress before switching to the next (wrapping).
    RegimeSwitch {
        /// The regimes, visited in order and wrapped.
        difficulties: Vec<f32>,
        /// Fraction of the run spent in each regime (`> 0`).
        dwell: f64,
    },
}

impl DriftSchedule {
    /// Validates the schedule's parameters.
    ///
    /// # Panics
    ///
    /// Panics if any difficulty endpoint is outside `[0, 1]`, a ramp has
    /// `start >= end`, a step/ramp breakpoint is outside `[0, 1]`, a
    /// sinusoid has negative amplitude or non-finite parameters, or a
    /// regime switch has no regimes or a non-positive dwell.
    pub fn validate(&self) {
        let unit = |v: f32, what: &str| {
            assert!(
                (0.0..=1.0).contains(&v),
                "{what} must be in [0, 1], got {v}"
            );
        };
        match self {
            Self::Stationary { difficulty } => unit(*difficulty, "difficulty"),
            Self::Step { before, after, at } => {
                unit(*before, "before");
                unit(*after, "after");
                assert!((0.0..=1.0).contains(at), "at must be in [0, 1], got {at}");
            }
            Self::Ramp {
                from,
                to,
                start,
                end,
            } => {
                unit(*from, "from");
                unit(*to, "to");
                assert!(
                    (0.0..=1.0).contains(start) && (0.0..=1.0).contains(end) && start < end,
                    "ramp requires 0 <= start < end <= 1, got [{start}, {end}]"
                );
            }
            Self::Sinusoid {
                base,
                amplitude,
                periods,
            } => {
                unit(*base, "base");
                assert!(
                    amplitude.is_finite() && *amplitude >= 0.0,
                    "amplitude must be finite and >= 0, got {amplitude}"
                );
                assert!(
                    periods.is_finite() && *periods > 0.0,
                    "periods must be finite and > 0, got {periods}"
                );
            }
            Self::RegimeSwitch {
                difficulties,
                dwell,
            } => {
                assert!(!difficulties.is_empty(), "difficulties must be non-empty");
                for &d in difficulties {
                    unit(d, "difficulty");
                }
                assert!(
                    dwell.is_finite() && *dwell > 0.0,
                    "dwell must be finite and > 0, got {dwell}"
                );
            }
        }
    }

    /// The difficulty in force at normalized progress `t`.
    ///
    /// `t` is clamped to `[0, 1]` first; the result is clamped to `[0, 1]`
    /// last, so the return value is always a valid difficulty knob setting.
    fn difficulty_at(&self, t: f64) -> f32 {
        let t = t.clamp(0.0, 1.0);
        let raw = match self {
            Self::Stationary { difficulty } => *difficulty,
            Self::Step { before, after, at } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            Self::Ramp {
                from,
                to,
                start,
                end,
            } => {
                let frac = ((t - start) / (end - start)).clamp(0.0, 1.0) as f32;
                from + (to - from) * frac
            }
            Self::Sinusoid {
                base,
                amplitude,
                periods,
            } => base + amplitude * (std::f64::consts::TAU * periods * t).sin() as f32,
            Self::RegimeSwitch {
                difficulties,
                dwell,
            } => {
                let idx = (t / dwell).floor() as usize % difficulties.len();
                difficulties[idx]
            }
        };
        raw.clamp(0.0, 1.0)
    }
}

impl Dataset {
    /// Generates a **time-ordered** request stream of `n` samples whose
    /// difficulty follows `schedule` over normalized progress
    /// `t = i / (n - 1)`.
    ///
    /// Unlike [`Dataset::generate_difficulty_stripes`] the stream is *not*
    /// shuffled — sample `i` is the `i`-th arrival, so drift unfolds in
    /// order. The per-sample RNG consumption is otherwise identical to the
    /// stripe generator (label draw, then render), which makes the
    /// stationary schedule bit-equal to a one-difficulty stripe set as a
    /// multiset.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the configuration or schedule is invalid.
    pub fn generate_drift(
        config: &DatasetConfig,
        schedule: &DriftSchedule,
        n: usize,
        seed: u64,
    ) -> Vec<Sample> {
        config.validate();
        schedule.validate();
        assert!(n > 0, "n must be > 0");
        let mut rng = Rng::new(seed);
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = if n == 1 {
                0.0
            } else {
                i as f64 / (n - 1) as f64
            };
            let d = schedule.difficulty_at(t);
            let label = rng.below(config.classes);
            samples.push(Self::sample(config, label, Some(d), &mut rng));
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_switches_at_breakpoint() {
        let s = DriftSchedule::Step {
            before: 0.1,
            after: 0.9,
            at: 0.5,
        };
        assert_eq!(s.difficulty_at(0.0), 0.1);
        assert_eq!(s.difficulty_at(0.49), 0.1);
        assert_eq!(s.difficulty_at(0.5), 0.9);
        assert_eq!(s.difficulty_at(1.0), 0.9);
    }

    #[test]
    fn ramp_holds_ends_and_interpolates() {
        let s = DriftSchedule::Ramp {
            from: 0.0,
            to: 1.0,
            start: 0.25,
            end: 0.75,
        };
        assert_eq!(s.difficulty_at(0.0), 0.0);
        assert_eq!(s.difficulty_at(0.25), 0.0);
        assert!((s.difficulty_at(0.5) - 0.5).abs() < 1e-6);
        assert_eq!(s.difficulty_at(0.75), 1.0);
        assert_eq!(s.difficulty_at(1.0), 1.0);
    }

    #[test]
    fn sinusoid_is_clamped_to_unit_range() {
        let s = DriftSchedule::Sinusoid {
            base: 0.5,
            amplitude: 0.9,
            periods: 2.0,
        };
        for i in 0..=100 {
            let d = s.difficulty_at(i as f64 / 100.0);
            assert!((0.0..=1.0).contains(&d), "out of range: {d}");
        }
        // It actually oscillates: hits both clamp rails somewhere.
        let ds: Vec<f32> = (0..=100)
            .map(|i| s.difficulty_at(i as f64 / 100.0))
            .collect();
        assert!(ds.contains(&0.0));
        assert!(ds.contains(&1.0));
    }

    #[test]
    fn regime_switch_cycles_with_wrap() {
        let s = DriftSchedule::RegimeSwitch {
            difficulties: vec![0.2, 0.8],
            dwell: 0.3,
        };
        assert_eq!(s.difficulty_at(0.0), 0.2);
        assert_eq!(s.difficulty_at(0.29), 0.2);
        assert_eq!(s.difficulty_at(0.31), 0.8);
        assert_eq!(s.difficulty_at(0.61), 0.2); // wrapped
        assert_eq!(s.difficulty_at(0.95), 0.8);
    }

    #[test]
    fn progress_is_clamped() {
        let s = DriftSchedule::Step {
            before: 0.1,
            after: 0.9,
            at: 0.5,
        };
        assert_eq!(s.difficulty_at(-3.0), 0.1);
        assert_eq!(s.difficulty_at(7.0), 0.9);
    }

    #[test]
    fn drift_stream_is_time_ordered_under_ramp() {
        let cfg = DatasetConfig::small();
        let s = DriftSchedule::Ramp {
            from: 0.05,
            to: 0.95,
            start: 0.0,
            end: 1.0,
        };
        let stream = Dataset::generate_drift(&cfg, &s, 32, 5);
        assert_eq!(stream.len(), 32);
        for pair in stream.windows(2) {
            assert!(
                pair[0].difficulty <= pair[1].difficulty,
                "hardening ramp must be monotone in arrival order"
            );
        }
        assert_eq!(stream[0].difficulty, 0.05);
        assert_eq!(stream[31].difficulty, 0.95);
    }

    #[test]
    fn single_sample_stream_uses_t_zero() {
        let cfg = DatasetConfig::small();
        let s = DriftSchedule::Ramp {
            from: 0.1,
            to: 0.9,
            start: 0.0,
            end: 1.0,
        };
        let stream = Dataset::generate_drift(&cfg, &s, 1, 5);
        assert_eq!(stream[0].difficulty, 0.1);
    }

    #[test]
    #[should_panic(expected = "ramp requires")]
    fn inverted_ramp_panics() {
        DriftSchedule::Ramp {
            from: 0.0,
            to: 1.0,
            start: 0.8,
            end: 0.2,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "difficulties must be non-empty")]
    fn empty_regime_switch_panics() {
        DriftSchedule::RegimeSwitch {
            difficulties: vec![],
            dwell: 0.5,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "n must be > 0")]
    fn zero_length_stream_panics() {
        let _ = Dataset::generate_drift(
            &DatasetConfig::small(),
            &DriftSchedule::Stationary { difficulty: 0.5 },
            0,
            1,
        );
    }

    mod drift_proptests {
        use super::*;
        use proptest::prelude::*;

        fn schedule_from(sel: usize, a: f32, b: f32, x: f64, y: f64) -> DriftSchedule {
            match sel % 5 {
                0 => DriftSchedule::Stationary { difficulty: a },
                1 => DriftSchedule::Step {
                    before: a,
                    after: b,
                    at: x,
                },
                2 => {
                    let (start, end) = if x < y { (x, y) } else { (y, x) };
                    DriftSchedule::Ramp {
                        from: a,
                        to: b,
                        start: start * 0.5,
                        end: 0.5 + end * 0.5,
                    }
                }
                3 => DriftSchedule::Sinusoid {
                    base: a,
                    amplitude: b,
                    periods: 0.5 + 3.0 * x,
                },
                _ => DriftSchedule::RegimeSwitch {
                    difficulties: vec![a, b],
                    dwell: 0.05 + 0.45 * x,
                },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Every schedule shape is total over progress and always
            /// yields a valid difficulty knob setting.
            #[test]
            fn difficulty_is_always_in_unit_range(
                sel in 0usize..5,
                a in 0.0f32..=1.0,
                b in 0.0f32..=1.0,
                x in 0.0f64..=1.0,
                y in 0.0f64..=1.0,
                t in -1.0f64..=2.0,
            ) {
                let s = schedule_from(sel, a, b, x, y);
                s.validate();
                let d = s.difficulty_at(t);
                prop_assert!((0.0..=1.0).contains(&d), "difficulty {} out of range", d);
            }

            /// Drift streams are bit-reproducible per seed: same schedule,
            /// same seed, same stream — labels, difficulties and pixels.
            #[test]
            fn streams_are_bit_reproducible_per_seed(
                sel in 0usize..5,
                a in 0.0f32..=1.0,
                b in 0.0f32..=1.0,
                x in 0.0f64..=1.0,
                seed in 0u64..10_000,
            ) {
                let cfg = DatasetConfig::small();
                let s = schedule_from(sel, a, b, x, 0.9);
                let p = Dataset::generate_drift(&cfg, &s, 12, seed);
                let q = Dataset::generate_drift(&cfg, &s, 12, seed);
                prop_assert_eq!(p.len(), q.len());
                for (u, v) in p.iter().zip(&q) {
                    prop_assert_eq!(u.label, v.label);
                    prop_assert_eq!(u.difficulty, v.difficulty);
                    prop_assert_eq!(&u.image, &v.image);
                }
            }

            /// Distinct seeds produce distinct streams.
            #[test]
            fn distinct_seeds_differ(seed in 0u64..10_000) {
                let cfg = DatasetConfig::small();
                let s = DriftSchedule::Stationary { difficulty: 0.5 };
                let p = Dataset::generate_drift(&cfg, &s, 8, seed);
                let q = Dataset::generate_drift(&cfg, &s, 8, seed + 1);
                prop_assert!(p.iter().zip(&q).any(|(u, v)| u.image != v.image));
            }

            /// The stationary schedule degenerates to today's stripe
            /// generator exactly: same config, difficulty and seed yield
            /// the same multiset of (label, image) pairs — the stripe
            /// generator shuffles at the end, the drift stream does not,
            /// so equality is up to order.
            #[test]
            fn stationary_degenerates_to_stripe_generator(
                d in 0.0f32..=1.0,
                seed in 0u64..10_000,
            ) {
                let cfg = DatasetConfig::small();
                let s = DriftSchedule::Stationary { difficulty: d };
                let drift = Dataset::generate_drift(&cfg, &s, 20, seed);
                let stripes = Dataset::generate_difficulty_stripes(&cfg, &[d], 20, seed);
                let key = |set: &[Sample]| {
                    let mut ks: Vec<(usize, u128)> = set
                        .iter()
                        .map(|smp| (smp.label, smp.image.content_hash()))
                        .collect();
                    ks.sort_unstable();
                    ks
                };
                prop_assert_eq!(key(&drift), key(&stripes));
                prop_assert!(drift.iter().all(|smp| smp.difficulty == d));
            }
        }
    }
}
