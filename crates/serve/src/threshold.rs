//! The adaptive threshold controller: closing Phase 2's loop online.
//!
//! Phase 2 picks a static gate threshold `Th` offline so that the
//! low-effort exit fraction `F_L` meets the Low-Exit Constraint
//! (`F_L >= LEC`) on a *calibration* mix. When the difficulty of live
//! traffic drifts, entropies shift, the static gate escalates too much
//! (or too little) and `F_L` collapses — the exact failure ROADMAP's
//! top open item describes. This controller re-solves Phase 2's
//! one-dimensional search continuously, on observed traffic:
//!
//! * **Window** — a bounded ring buffer of the most recent low-effort
//!   entropies (every sample visits level 0, so every request
//!   contributes one observation; non-finite entropies from faulted
//!   batches are skipped).
//! * **Quantile by grid walk** — each retune sorts the window into a
//!   reusable scratch buffer and walks the same threshold grid as
//!   [`CascadeCache::threshold_reaching`](pivot_core::CascadeCache::threshold_reaching):
//!   the smallest multiple of `step` (final probe clamped bitwise to
//!   `1.0`) whose windowed `F_L` reaches `lec`, under the exact
//!   [`stays_low`] gate semantics the cascade executes. On a stationary
//!   mix this converges to within one grid step of the offline answer —
//!   pinned by test.
//! * **Tick cadence** — retunes fire every `tick_batches` completed
//!   batches, and only once the window holds `min_fill` observations, so
//!   a cold start never swings the gate on a handful of samples.
//! * **Overload precedence** — the effort cap outranks the gate. While
//!   the [`OverloadController`](crate::overload::OverloadController) holds
//!   the cap below the ladder top, a due retune is *held* (reported to the
//!   engine, which counts it, but not applied):
//!   entropies observed under a cap still enter the window, but moving
//!   `Th` while the cap is already shedding effort would double-degrade
//!   and fight the cap's hysteresis. Retuning resumes at full effort.

use pivot_core::{check_grid_walk, check_threshold, stays_low, threshold_grid_walk};
use std::collections::VecDeque;

/// Tuning of the adaptive threshold control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    /// Target low-exit fraction (`F_L >= lec`), in `(0, 1]`
    /// ([`check_grid_walk`]).
    pub lec: f64,
    /// Sliding-window capacity (most recent low-effort entropies).
    pub window: usize,
    /// Retune every this many completed batches.
    pub tick_batches: u64,
    /// Minimum window occupancy before the first retune.
    pub min_fill: usize,
    /// Threshold grid step (mirrors Phase 2's sweep step), finite and at
    /// least `f32::EPSILON` ([`check_grid_walk`]).
    pub step: f32,
    /// Lowest threshold the controller may set ([`check_threshold`]).
    pub floor: f32,
    /// Highest threshold the controller may set ([`check_threshold`]), at
    /// least `floor`.
    pub ceil: f32,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        Self {
            lec: 0.7,
            window: 256,
            tick_batches: 1,
            min_fill: 64,
            step: 0.01,
            floor: 0.0,
            ceil: 1.0,
        }
    }
}

impl ThresholdPolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `lec` or `step` breaks the grid walk's one rule
    /// ([`check_grid_walk`]), `window` or `tick_batches` is zero,
    /// `min_fill` exceeds `window`, `floor` or `ceil` breaks the threshold
    /// rule ([`check_threshold`]), or `floor > ceil`.
    pub fn validate(&self) {
        check_grid_walk(self.lec, self.step);
        assert!(self.window >= 1, "window must be >= 1");
        assert!(self.tick_batches >= 1, "tick_batches must be >= 1");
        assert!(
            self.min_fill <= self.window,
            "min_fill ({}) cannot exceed window ({})",
            self.min_fill,
            self.window
        );
        check_threshold(self.floor);
        check_threshold(self.ceil);
        assert!(
            self.floor <= self.ceil,
            "clamp range must satisfy floor <= ceil, got [{}, {}]",
            self.floor,
            self.ceil
        );
    }
}

/// What one batch's control tick did; the engine counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// No retune was due: mid-cadence, or the window below `min_fill`.
    Idle,
    /// A due retune was held because the overload cap was engaged.
    Held,
    /// A due retune ran (it may have left the threshold where it was).
    Retuned,
}

/// The control loop state: one instance per engine, fed once per request
/// and ticked once per batch.
#[derive(Debug, Clone)]
pub(crate) struct ThresholdController {
    policy: ThresholdPolicy,
    th: f32,
    window: VecDeque<f32>,
    scratch: Vec<f32>,
    batches_since_tick: u64,
}

impl ThresholdController {
    /// Creates a controller starting at `initial_th` (typically Phase 2's
    /// offline threshold) under `policy`. The engine hands it a gate
    /// threshold that [`pivot_core::check_ladder`] has already checked.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`ThresholdPolicy::validate`]).
    pub fn new(initial_th: f32, policy: ThresholdPolicy) -> Self {
        policy.validate();
        Self {
            policy,
            th: initial_th,
            window: VecDeque::with_capacity(policy.window),
            scratch: Vec::with_capacity(policy.window),
            batches_since_tick: 0,
        }
    }

    /// Feeds one observed low-effort entropy into the sliding window.
    /// Non-finite observations (faulted level-0 logits) are skipped —
    /// they carry no difficulty signal.
    pub fn observe(&mut self, low_entropy: f32) {
        if !low_entropy.is_finite() {
            return;
        }
        if self.window.len() == self.policy.window {
            self.window.pop_front();
        }
        self.window.push_back(low_entropy);
    }

    /// Marks one completed batch and reports what its tick did; the
    /// threshold for the next batch is then [`Self::threshold`]. A due
    /// tick retunes — unless `overloaded` is set (the effort cap is below
    /// the ladder top), in which case the retune is held per the
    /// precedence contract.
    pub fn end_batch(&mut self, overloaded: bool) -> Tick {
        self.batches_since_tick += 1;
        if self.batches_since_tick < self.policy.tick_batches
            || self.window.len() < self.policy.min_fill.max(1)
        {
            return Tick::Idle;
        }
        self.batches_since_tick = 0;
        if overloaded {
            return Tick::Held;
        }
        self.retune();
        Tick::Retuned
    }

    /// Phase 2's grid walk over the *window*
    /// ([`threshold_grid_walk`], the very function
    /// `CascadeCache::threshold_reaching` runs): the smallest multiple of
    /// `step` whose windowed `F_L` reaches `lec`, clamped into
    /// `[floor, ceil]`.
    fn retune(&mut self) {
        self.scratch.clear();
        self.scratch.extend(self.window.iter().copied());
        self.scratch.sort_by(f32::total_cmp);
        let scratch = &self.scratch;
        let th = threshold_grid_walk(self.policy.lec, self.policy.step, |th| {
            // Sorted scratch: the stays_low count is a partition point.
            // The inclusive top boundary (Th = 1.0 admits e == 1.0)
            // matches the gate's semantics bit for bit.
            let below = if th >= 1.0 {
                scratch.partition_point(|&e| e <= 1.0)
            } else {
                scratch.partition_point(|&e| e < th)
            };
            debug_assert_eq!(below, scratch.iter().filter(|&&e| stays_low(e, th)).count());
            below as f64 / scratch.len() as f64
        });
        self.th = th.clamp(self.policy.floor, self.policy.ceil);
    }

    /// The gate threshold currently in force.
    pub fn threshold(&self) -> f32 {
        self.th
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy {
            lec: 0.5,
            window: 8,
            tick_batches: 1,
            min_fill: 4,
            step: 0.1,
            floor: 0.0,
            ceil: 1.0,
        }
    }

    /// Ends one batch: the tick's decision and the threshold it leaves.
    fn tick(c: &mut ThresholdController, overloaded: bool) -> (Tick, f32) {
        (c.end_batch(overloaded), c.threshold())
    }

    /// Ends one batch that must retune, and returns the new threshold.
    fn retune(c: &mut ThresholdController) -> f32 {
        let (decision, th) = tick(c, false);
        assert_eq!(decision, Tick::Retuned);
        th
    }

    #[test]
    fn holds_initial_threshold_until_min_fill() {
        let mut c = ThresholdController::new(0.42, policy());
        c.observe(0.1);
        c.observe(0.2);
        assert_eq!(tick(&mut c, false), (Tick::Idle, 0.42), "below min_fill");
        c.observe(0.1);
        c.observe(0.2);
        // min_fill reached: the grid walk fires.
        let th = retune(&mut c);
        // Half the window below th at lec 0.5: 0.2 < th works; smallest
        // grid multiple beating {0.1, 0.1, 0.2, 0.2} at lec 0.5 is 0.2
        // (0.1 < 0.2 counts two of four).
        assert!((th - 0.2).abs() < 1e-6, "got {th}");
    }

    #[test]
    fn tick_cadence_skips_intermediate_batches() {
        let mut c = ThresholdController::new(
            0.5,
            ThresholdPolicy {
                tick_batches: 3,
                min_fill: 1,
                ..policy()
            },
        );
        for _ in 0..8 {
            c.observe(0.05);
        }
        assert_eq!(tick(&mut c, false), (Tick::Idle, 0.5), "tick 1 of 3");
        assert_eq!(tick(&mut c, false), (Tick::Idle, 0.5), "tick 2 of 3");
        let th = retune(&mut c);
        assert!((th - 0.1).abs() < 1e-6, "all entropies at 0.05: one step");
    }

    #[test]
    fn window_slides_and_tracks_the_recent_mix() {
        let mut c = ThresholdController::new(0.5, policy());
        // Fill with easy traffic...
        for _ in 0..8 {
            c.observe(0.1);
        }
        assert!((retune(&mut c) - 0.2).abs() < 1e-6);
        // ...then hard traffic displaces it completely (window 8).
        for _ in 0..8 {
            c.observe(0.75);
        }
        let th = retune(&mut c);
        assert!((th - 0.8).abs() < 1e-6, "gate follows the window: {th}");
        assert_eq!(c.window.len(), 8);
    }

    #[test]
    fn overload_holds_a_due_retune() {
        let mut c = ThresholdController::new(0.5, policy());
        for _ in 0..8 {
            c.observe(0.75);
        }
        assert_eq!(tick(&mut c, true), (Tick::Held, 0.5), "overloaded tick");
        // Pressure lifts: the next tick applies the pending evidence.
        assert!((retune(&mut c) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn non_finite_observations_are_skipped() {
        let mut c = ThresholdController::new(0.5, policy());
        c.observe(f32::NAN);
        c.observe(f32::INFINITY);
        assert_eq!(c.window.len(), 0);
        for _ in 0..4 {
            c.observe(0.3);
        }
        assert_eq!(c.window.len(), 4);
        assert!((retune(&mut c) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn clamp_range_bounds_the_retuned_threshold() {
        let mut c = ThresholdController::new(
            0.5,
            ThresholdPolicy {
                floor: 0.3,
                ceil: 0.6,
                ..policy()
            },
        );
        for _ in 0..8 {
            c.observe(0.9);
        }
        assert!((retune(&mut c) - 0.6).abs() < 1e-6, "ceil binds");
        let mut c = ThresholdController::new(
            0.5,
            ThresholdPolicy {
                floor: 0.3,
                ceil: 0.6,
                ..policy()
            },
        );
        for _ in 0..8 {
            c.observe(0.01);
        }
        assert!((retune(&mut c) - 0.3).abs() < 1e-6, "floor binds");
    }

    #[test]
    fn all_hard_window_tops_out_at_exactly_one() {
        let mut c = ThresholdController::new(
            0.5,
            ThresholdPolicy {
                lec: 1.0,
                step: 0.03, // does not divide 1.0: final probe must clamp
                ..policy()
            },
        );
        for _ in 0..8 {
            c.observe(0.999);
        }
        let th = retune(&mut c);
        assert_eq!(th.to_bits(), 1.0f32.to_bits(), "bitwise 1.0, not 0.9999");
    }

    #[test]
    #[should_panic(expected = "min_fill")]
    fn min_fill_beyond_window_is_rejected() {
        let _ = ThresholdController::new(
            0.5,
            ThresholdPolicy {
                window: 4,
                min_fill: 8,
                ..policy()
            },
        );
    }
}
