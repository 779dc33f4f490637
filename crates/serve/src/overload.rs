//! The overload controller: a hysteretic effort-downshift state machine.
//!
//! PIVOT's premise is that effort is negotiable and deadlines are not.
//! When the queue ages past its budget — the engine is not keeping up —
//! blowing deadlines helps nobody; serving *cheaper* answers restores
//! balance, because the cascade's lower efforts cost a fraction of the
//! GEMM work (PAPER.md Phase 2 trades exactly this). The controller
//! watches the age of the oldest queued request at every batch and moves
//! a single cap through the effort ladder:
//!
//! * **Downshift** (one level per overloaded observation): oldest age
//!   exceeds the budget → the cap drops, ultimately to level 0
//!   (low-effort-only). Escalation-worthy samples then resolve as
//!   `Degraded` instead of timing out.
//! * **Recover** (hysteretic): only after `recover_after` *consecutive*
//!   observations with age strictly below `recover_ratio x budget` does
//!   the cap rise one level. A single calm batch never re-opens the
//!   expensive path — the asymmetry that prevents cap flapping at the
//!   boundary.
//! * Ages between the calm line and the budget hold the cap and reset the
//!   calm streak.
//!
//! # Interval convention
//!
//! The three zones partition the age axis as **calm = `[0, calm_line)`**,
//! **hold = `[calm_line, budget]`**, **overload = `(budget, ∞)`** — calm is
//! half-open on the right, hold is closed on both ends. The closed hold
//! zone makes the boundary cases unambiguous:
//!
//! * `age == budget` is *at* budget, not over it: the cap holds and the
//!   calm streak resets. Only strictly exceeding the budget downshifts.
//! * `age == calm_line` is *not* calm: sitting exactly on the line is
//!   evidence of equilibrium, not of slack, so it holds and resets the
//!   streak rather than crediting recovery.
//! * With `recover_ratio = 1.0` the hold zone collapses to the single
//!   point `{budget}`. An exactly-at-budget age then holds the cap — it
//!   never counts as recovery evidence while one nanosecond more
//!   downshifts, which is the flapping hazard this convention removes.
//! * With `recover_ratio = 0.0` the calm zone `[0, 0)` is empty and
//!   recovery is unreachable by construction: the cap ratchets down only.
//!   Use a positive ratio when upshift is desired.

use std::time::Duration;

/// Tuning of the overload state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Oldest-queued-age budget: one observation above this downshifts
    /// the cap one level.
    pub queue_budget: Duration,
    /// Fraction of the budget strictly below which an observation counts
    /// as calm (recovery evidence). Must lie in `[0, 1]`: building an
    /// engine panics on anything else, NaN included. `0.0` makes recovery
    /// unreachable (see the module-level interval convention).
    pub recover_ratio: f64,
    /// Consecutive calm observations required per upshift step.
    pub recover_after: usize,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            queue_budget: Duration::from_millis(50),
            recover_ratio: 0.5,
            recover_after: 8,
        }
    }
}

/// The state machine. One instance per engine, observed once per batch;
/// the engine counts its downshifts and upshifts from the cap it returns.
#[derive(Debug, Clone)]
pub(crate) struct OverloadController {
    top: usize,
    cap: usize,
    budget_ns: u64,
    calm_line_ns: u64,
    recover_after: usize,
    calm_streak: usize,
}

impl OverloadController {
    /// Creates a controller for a ladder whose highest level is `top`
    /// (i.e. `levels - 1`), starting at full effort.
    ///
    /// # Panics
    ///
    /// Panics if `recover_after` is zero (recovery would be instant and
    /// the hysteresis contract meaningless), or if `recover_ratio` is not
    /// in `[0, 1]`.
    pub fn new(top: usize, policy: OverloadPolicy) -> Self {
        assert!(policy.recover_after >= 1, "recover_after must be >= 1");
        assert!(
            (0.0..=1.0).contains(&policy.recover_ratio),
            "recover_ratio must be in [0, 1], got {}",
            policy.recover_ratio
        );
        let budget_ns = policy.queue_budget.as_nanos() as u64;
        Self {
            top,
            cap: top,
            budget_ns,
            calm_line_ns: (budget_ns as f64 * policy.recover_ratio) as u64,
            recover_after: policy.recover_after,
            calm_streak: 0,
        }
    }

    /// Feeds one queue-age observation and returns the effort cap to use
    /// for the batch about to execute.
    ///
    /// Zones follow the module-level interval convention: strictly over
    /// budget downshifts, strictly under the calm line credits the
    /// recovery streak, and the closed band `[calm_line, budget]` holds
    /// the cap while resetting the streak.
    pub fn observe(&mut self, oldest_age: Duration) -> usize {
        let age_ns = oldest_age.as_nanos() as u64;
        if age_ns > self.budget_ns {
            if self.cap > 0 {
                self.cap -= 1;
            }
            self.calm_streak = 0;
        } else if age_ns < self.calm_line_ns {
            if self.cap < self.top {
                self.calm_streak += 1;
                if self.calm_streak >= self.recover_after {
                    self.cap += 1;
                    self.calm_streak = 0;
                }
            }
        } else {
            // The gray zone between calm and overloaded: hold the cap,
            // restart the recovery clock.
            self.calm_streak = 0;
        }
        self.cap
    }

    /// The current effort cap (highest ladder level the engine may run).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether the engine currently serves below full effort.
    pub fn is_degraded(&self) -> bool {
        self.cap < self.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(top: usize) -> OverloadController {
        OverloadController::new(
            top,
            OverloadPolicy {
                queue_budget: Duration::from_millis(100),
                recover_ratio: 0.5,
                recover_after: 3,
            },
        )
    }

    #[test]
    fn sustained_overload_staircases_down_to_low_only() {
        let mut c = controller(3);
        assert_eq!(c.cap(), 3);
        let over = Duration::from_millis(150);
        let caps: Vec<usize> = (0..4).map(|_| c.observe(over)).collect();
        // Three downshifts, then the floor holds: low-effort-only is the
        // terminal degradation.
        assert_eq!(caps, [2, 1, 0, 0]);
        assert!(c.is_degraded());
    }

    #[test]
    fn recovery_is_hysteretic_not_instant() {
        let mut c = controller(2);
        let over = Duration::from_millis(200);
        let calm = Duration::from_millis(10);
        c.observe(over);
        assert_eq!(c.cap(), 1);
        // Two calm observations are not enough (recover_after = 3)...
        assert_eq!(c.observe(calm), 1);
        assert_eq!(c.observe(calm), 1);
        // ...the third restores one level, and the streak restarts.
        assert_eq!(c.observe(calm), 2);
        assert!(!c.is_degraded());
        // At full effort, calm observations are a no-op.
        assert_eq!(c.observe(calm), 2);
    }

    #[test]
    fn gray_zone_holds_cap_and_resets_the_streak() {
        let mut c = controller(2);
        c.observe(Duration::from_millis(200)); // cap -> 1
        let calm = Duration::from_millis(10);
        let gray = Duration::from_millis(80); // between 50 (calm line) and 100 (budget)
        c.observe(calm);
        c.observe(calm);
        // The gray observation wipes the two-calm streak...
        assert_eq!(c.observe(gray), 1);
        // ...so recovery needs three fresh calm ticks again.
        c.observe(calm);
        c.observe(calm);
        assert_eq!(c.cap(), 1);
        assert_eq!(c.observe(calm), 2);
    }

    #[test]
    fn overload_mid_recovery_cancels_progress() {
        let mut c = controller(1);
        c.observe(Duration::from_millis(200)); // cap -> 0
        c.observe(Duration::from_millis(1));
        c.observe(Duration::from_millis(1));
        // A fresh overload both wipes the streak and (already at 0) keeps
        // the floor.
        assert_eq!(c.observe(Duration::from_millis(300)), 0);
        c.observe(Duration::from_millis(1));
        c.observe(Duration::from_millis(1));
        assert_eq!(c.cap(), 0);
        assert_eq!(c.observe(Duration::from_millis(1)), 1);
    }

    /// Pins the interval convention at `recover_ratio = 1.0`, where the
    /// hold zone collapses to exactly `{budget}`: at-budget holds (never
    /// recovery evidence), one nanosecond more downshifts, one less is
    /// calm.
    #[test]
    fn ratio_one_at_budget_holds_instead_of_recovering() {
        let budget = Duration::from_millis(100);
        let mut c = OverloadController::new(
            2,
            OverloadPolicy {
                queue_budget: budget,
                recover_ratio: 1.0,
                recover_after: 1,
            },
        );
        // Strictly over: downshift.
        assert_eq!(c.observe(budget + Duration::from_nanos(1)), 1);
        // Exactly at budget: hold, even with recover_after = 1. Before the
        // boundary fix this counted as calm and flapped the cap back up.
        for _ in 0..5 {
            assert_eq!(c.observe(budget), 1);
        }
        // One nanosecond under budget is strictly under the (ratio-1.0)
        // calm line: recovery evidence.
        assert_eq!(c.observe(budget - Duration::from_nanos(1)), 2);
    }

    /// Pins `age == calm_line` and `age == budget` in the generic (ratio
    /// 0.5) geometry: both land in the closed hold zone and reset the
    /// streak.
    #[test]
    fn boundary_ages_hold_and_reset_the_streak() {
        let mut c = controller(2); // budget 100ms, calm line 50ms, recover_after 3
        c.observe(Duration::from_millis(200)); // cap -> 1
        let calm = Duration::from_millis(10);
        let at_calm_line = Duration::from_millis(50);
        let at_budget = Duration::from_millis(100);

        // Exactly at the calm line: hold + streak reset.
        c.observe(calm);
        c.observe(calm);
        assert_eq!(c.observe(at_calm_line), 1);
        // Exactly at the budget: hold + streak reset (no downshift).
        c.observe(calm);
        c.observe(calm);
        assert_eq!(c.observe(at_budget), 1);
        // Three fresh strictly-calm ticks recover.
        c.observe(calm);
        c.observe(calm);
        assert_eq!(c.observe(calm), 2);
        // Just under the calm line is calm; the line itself is not.
        c.observe(Duration::from_millis(300)); // cap -> 1
        c.observe(Duration::from_millis(49));
        c.observe(Duration::from_millis(49));
        assert_eq!(c.observe(Duration::from_millis(49)), 2);
    }

    /// With `recover_ratio = 0.0` the calm zone is empty: the cap only
    /// ratchets down, and even a zero-age observation holds.
    #[test]
    fn ratio_zero_makes_recovery_unreachable() {
        let mut c = OverloadController::new(
            1,
            OverloadPolicy {
                queue_budget: Duration::from_millis(100),
                recover_ratio: 0.0,
                recover_after: 1,
            },
        );
        c.observe(Duration::from_millis(200)); // cap -> 0
        for _ in 0..10 {
            assert_eq!(c.observe(Duration::ZERO), 0);
        }
    }

    #[test]
    #[should_panic(expected = "recover_after")]
    fn zero_recovery_window_is_rejected() {
        let _ = OverloadController::new(
            1,
            OverloadPolicy {
                recover_after: 0,
                ..OverloadPolicy::default()
            },
        );
    }

    fn with_ratio(recover_ratio: f64) -> OverloadController {
        OverloadController::new(
            1,
            OverloadPolicy {
                recover_ratio,
                ..OverloadPolicy::default()
            },
        )
    }

    /// Regression: NaN used to clamp to 0, so the cap never recovered.
    #[test]
    #[should_panic(expected = "recover_ratio must be in [0, 1], got NaN")]
    fn nan_recover_ratio_is_rejected() {
        with_ratio(f64::NAN);
    }

    /// Regression: a ratio above one used to clamp to 1.0 silently.
    #[test]
    #[should_panic(expected = "recover_ratio must be in [0, 1], got 2")]
    fn recover_ratio_above_one_is_rejected() {
        with_ratio(2.0);
    }
}
