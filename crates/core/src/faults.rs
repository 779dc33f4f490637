//! Deterministic fault injection: bit flips, NaN and stuck-at faults.
//!
//! Edge accelerators hold quantized weights in SRAM and stream checkpoints
//! over flaky links; single-event upsets, stuck cells and torn writes are
//! routine. This module corrupts weights and checkpoint bytes
//! *reproducibly* — every fault position and pattern derives from the
//! in-tree xoshiro [`Rng`], so an accuracy-under-fault curve (see the
//! `faults` experiment in `pivot-bench`) is replayable from a single seed.
//!
//! The injector is deliberately model-agnostic: it mutates parameter lists
//! and byte buffers, and the guarded sweep ([`guarded`](crate::guarded)) is
//! what turns the resulting non-finite logits into graceful fallbacks
//! instead of aborts.

use pivot_tensor::Rng;
use pivot_vit::VisionTransformer;

/// The hardware fault model applied to one `f32` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one uniformly chosen bit of the IEEE-754 representation — the
    /// classic single-event-upset model. Exponent-bit flips produce huge or
    /// non-finite values; mantissa flips produce small perturbations.
    BitFlip,
    /// The value reads back as NaN (e.g. a poisoned DMA descriptor).
    StuckNan,
    /// The cell is stuck at zero.
    StuckZero,
    /// The cell is stuck at the maximum representable magnitude, keeping
    /// the original sign (saturated stuck-at-one on the exponent field).
    StuckMax,
}

impl FaultKind {
    /// All fault models, for sweeps.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::BitFlip,
        FaultKind::StuckNan,
        FaultKind::StuckZero,
        FaultKind::StuckMax,
    ];

    /// Short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::StuckNan => "stuck-nan",
            FaultKind::StuckZero => "stuck-zero",
            FaultKind::StuckMax => "stuck-max",
        }
    }
}

/// One injected fault, for reporting and replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// Index of the corrupted parameter tensor (for
    /// [`FaultInjector::inject_params`]).
    pub param: usize,
    /// Flat element index within the tensor.
    pub index: usize,
    /// Value before corruption.
    pub before: f32,
    /// Value after corruption.
    pub after: f32,
}

/// Seeded source of reproducible faults.
///
/// Two injectors built from the same seed corrupt the same positions with
/// the same patterns, independent of platform — the property the
/// accuracy-under-fault experiment and CI smoke test rely on.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng,
}

impl FaultInjector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
        }
    }

    /// Corrupts one value under the given fault model.
    pub fn corrupt_value(&mut self, x: f32, kind: FaultKind) -> f32 {
        match kind {
            FaultKind::BitFlip => f32::from_bits(x.to_bits() ^ (1u32 << self.rng.below(32))),
            FaultKind::StuckNan => f32::NAN,
            FaultKind::StuckZero => 0.0,
            FaultKind::StuckMax => f32::MAX.copysign(if x == 0.0 { 1.0 } else { x }),
        }
    }

    /// Injects `count` faults into a model's parameters, choosing positions
    /// uniformly over *all* weights (larger tensors absorb proportionally
    /// more faults, matching a physical SRAM fault model).
    pub fn inject_params(
        &mut self,
        model: &mut VisionTransformer,
        kind: FaultKind,
        count: usize,
    ) -> Vec<InjectedFault> {
        let mut params = model.params_mut();
        let sizes: Vec<usize> = params.iter().map(|p| p.value.len()).collect();
        let total: usize = sizes.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let mut flat = self.rng.below(total);
            let mut param = 0;
            while flat >= sizes[param] {
                flat -= sizes[param];
                param += 1;
            }
            let before = params[param].value.as_slice()[flat];
            let after = self.corrupt_value(before, kind);
            params[param].value.as_mut_slice()[flat] = after;
            faults.push(InjectedFault {
                param,
                index: flat,
                before,
                after,
            });
        }
        faults
    }

    /// Derives a deterministic latency-fault schedule: each
    /// [`StallSchedule::next_stall`] call independently stalls with
    /// probability `permille`/1000, for a uniformly chosen duration in
    /// `[min, max]`.
    ///
    /// Timing faults (a preempted core, a DMA retry, a thermally throttled
    /// burst) are what make deadline-sensitive serving fragile, and they
    /// are the hardest faults to test because real stalls are wall-clock
    /// flaky. The schedule moves the nondeterminism into the seed: the
    /// serving engine charges each scheduled stall to its clock (a manual
    /// test clock or a real sleep), so deadline-miss and timeout paths
    /// replay bit-identically from one seed with no actual waiting.
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000` or `max < min`.
    pub fn stall_schedule(
        &mut self,
        permille: u32,
        min: std::time::Duration,
        max: std::time::Duration,
    ) -> StallSchedule {
        assert!(
            permille <= 1000,
            "stall probability is per-mille (0..=1000)"
        );
        assert!(max >= min, "max stall must be at least min stall");
        StallSchedule {
            rng: self.rng.fork(0x57a1_1ed0),
            permille,
            min_ns: min.as_nanos() as u64,
            max_ns: max.as_nanos() as u64,
        }
    }

    /// Corrupts `count` bytes of a serialized artifact (e.g. checkpoint
    /// bytes) at uniformly chosen positions. Each corruption XORs a
    /// non-zero mask, so the byte is guaranteed to change. Returns the
    /// corrupted positions.
    pub fn corrupt_bytes(&mut self, bytes: &mut [u8], count: usize) -> Vec<usize> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let mut positions = Vec::with_capacity(count);
        for _ in 0..count {
            let pos = self.rng.below(bytes.len());
            let mask = 1u8 + self.rng.below(255) as u8;
            bytes[pos] ^= mask;
            positions.push(pos);
        }
        positions
    }
}

/// A deterministic stream of stall decisions (see
/// [`FaultInjector::stall_schedule`]). Two schedules derived from
/// equal-seeded injectors with the same parameters produce the same
/// sequence of stalls, independent of platform.
#[derive(Debug, Clone)]
pub struct StallSchedule {
    rng: Rng,
    permille: u32,
    min_ns: u64,
    max_ns: u64,
}

impl StallSchedule {
    /// Draws the next stall decision: `None` (no stall this step) or the
    /// stall duration. Every call advances the schedule, hit or miss, so
    /// consumers that poll at different granularities still replay the
    /// same sequence step-for-step.
    pub fn next_stall(&mut self) -> Option<std::time::Duration> {
        // Draw position before deciding, so the duration stream stays
        // aligned with the decision stream across probabilities.
        let span = self.max_ns - self.min_ns;
        let offset = if span == 0 {
            0
        } else {
            self.rng.next_u64() % (span + 1)
        };
        let hit = (self.rng.below(1000) as u32) < self.permille;
        hit.then(|| std::time::Duration::from_nanos(self.min_ns + offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{par_map, Parallelism};
    use pivot_tensor::Matrix;
    use pivot_vit::VitConfig;

    fn model(seed: u64) -> VisionTransformer {
        VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(seed))
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let mut a = model(1);
        let mut b = model(1);
        let fa = FaultInjector::new(42).inject_params(&mut a, FaultKind::BitFlip, 16);
        let fb = FaultInjector::new(42).inject_params(&mut b, FaultKind::BitFlip, 16);
        assert_eq!(fa, fb);
        // The corrupted models agree bitwise on a forward pass.
        let img = Matrix::zeros(16, 16);
        assert_eq!(a.infer(&img), b.infer(&img));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = model(2);
        let mut b = model(2);
        let fa = FaultInjector::new(1).inject_params(&mut a, FaultKind::BitFlip, 8);
        let fb = FaultInjector::new(2).inject_params(&mut b, FaultKind::BitFlip, 8);
        assert_ne!(fa, fb);
    }

    #[test]
    fn stuck_models_apply_their_pattern() {
        let mut inj = FaultInjector::new(7);
        assert!(inj.corrupt_value(1.5, FaultKind::StuckNan).is_nan());
        assert_eq!(inj.corrupt_value(1.5, FaultKind::StuckZero), 0.0);
        assert_eq!(inj.corrupt_value(-1.5, FaultKind::StuckMax), f32::MIN);
        assert_eq!(inj.corrupt_value(1.5, FaultKind::StuckMax), f32::MAX);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut inj = FaultInjector::new(9);
        for _ in 0..64 {
            let x = 0.714f32;
            let y = inj.corrupt_value(x, FaultKind::BitFlip);
            assert_eq!((x.to_bits() ^ y.to_bits()).count_ones(), 1);
        }
    }

    #[test]
    fn stall_schedule_is_deterministic_per_seed() {
        use std::time::Duration;
        let make = |seed: u64| {
            FaultInjector::new(seed).stall_schedule(
                250,
                Duration::from_millis(1),
                Duration::from_millis(20),
            )
        };
        let a: Vec<_> = (0..256)
            .map({
                let mut s = make(7);
                move |_| s.next_stall()
            })
            .collect();
        let b: Vec<_> = (0..256)
            .map({
                let mut s = make(7);
                move |_| s.next_stall()
            })
            .collect();
        assert_eq!(a, b, "same seed must replay the same stall sequence");
        let c: Vec<_> = (0..256)
            .map({
                let mut s = make(8);
                move |_| s.next_stall()
            })
            .collect();
        assert_ne!(a, c, "different seeds must differ");
        // Roughly a quarter of steps stall, and every stall is in range.
        let hits: Vec<_> = a.iter().flatten().collect();
        assert!(
            hits.len() > 256 / 8 && hits.len() < 256 / 2,
            "{}",
            hits.len()
        );
        for d in hits {
            assert!(*d >= Duration::from_millis(1) && *d <= Duration::from_millis(20));
        }
    }

    #[test]
    fn stall_schedule_edge_probabilities() {
        use std::time::Duration;
        let mut never = FaultInjector::new(1).stall_schedule(
            0,
            Duration::from_millis(5),
            Duration::from_millis(5),
        );
        assert!((0..64).all(|_| never.next_stall().is_none()));
        let mut always = FaultInjector::new(1).stall_schedule(
            1000,
            Duration::from_millis(5),
            Duration::from_millis(5),
        );
        for _ in 0..64 {
            assert_eq!(always.next_stall(), Some(Duration::from_millis(5)));
        }
    }

    #[test]
    #[should_panic(expected = "per-mille")]
    fn stall_schedule_rejects_overflowing_probability() {
        let _ = FaultInjector::new(0).stall_schedule(
            1001,
            std::time::Duration::ZERO,
            std::time::Duration::ZERO,
        );
    }

    #[test]
    fn corrupt_bytes_always_changes_the_byte() {
        let original: Vec<u8> = (0..=255).collect();
        let mut bytes = original.clone();
        let positions = FaultInjector::new(3).corrupt_bytes(&mut bytes, 64);
        assert_eq!(positions.len(), 64);
        for &p in &positions {
            assert_ne!(bytes[p], original[p], "byte {p} unchanged");
        }
    }

    #[test]
    fn nan_faults_reach_the_logits() {
        // Saturating every parameter tensor with NaN guarantees the fault
        // propagates to the output — the signal the cascade's degradation
        // path keys on.
        let mut m = model(4);
        FaultInjector::new(5).inject_params(&mut m, FaultKind::StuckNan, 10_000);
        let logits = m.infer(&Matrix::zeros(16, 16));
        assert!(!logits.is_all_finite());
    }

    #[test]
    fn int8_stuck_nan_faults_stay_visible_through_fake_quant() {
        // Regression for the NaN-laundering bug: `QuantParams::quantize`
        // saturating-cast NaN to 0 — the zero point — so fake-quantized
        // Int8 inference silently dequantized injected NaNs to finite
        // values and health checks (`is_all_finite`, guarded evaluation)
        // never saw the fault. `fake_quant` must propagate non-finite
        // values unchanged, and the prepared view must both surface NaN
        // logits and count the corrupted weights as saturated.
        let mut m = model(42);
        m.set_quant_mode(pivot_nn::QuantMode::Int8);
        FaultInjector::new(43).inject_params(&mut m, FaultKind::StuckNan, 10_000);
        let prepared = m.prepare();
        assert!(
            !prepared.infer(&Matrix::zeros(16, 16)).is_all_finite(),
            "Int8 fake-quant must not launder stuck-NaN faults to finite logits"
        );
        assert!(
            prepared.total_weight_saturation() > 0,
            "NaN weights must register as saturation in the prepared params"
        );
    }

    #[test]
    fn saturation_counters_localize_int8_faults() {
        let mut m = model(6);
        m.set_quant_mode(pivot_nn::QuantMode::Int8);
        assert_eq!(m.prepare().total_weight_saturation(), 0);
        FaultInjector::new(8).inject_params(&mut m, FaultKind::StuckNan, 12);
        let prepared = m.prepare();
        let total = prepared.total_weight_saturation();
        assert!(total > 0, "injected NaNs must register as saturation");
        assert!(total <= 12);
        // The per-layer report pins the damage to specific layers.
        let layered: usize = prepared
            .quant_saturation_report()
            .iter()
            .map(|(_, n)| n)
            .sum();
        assert_eq!(layered, total);
    }

    /// The worker pool must survive a fault-injected forward that panics
    /// inside `par_map` and stay usable for subsequent healthy work.
    #[test]
    fn worker_pool_survives_fault_induced_panics() {
        let mut faulty = model(10);
        FaultInjector::new(11).inject_params(&mut faulty, FaultKind::StuckNan, 10_000);
        let images: Vec<Matrix> = (0..8).map(|_| Matrix::zeros(16, 16)).collect();

        let faulty_ref = &faulty.prepare();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&images, Parallelism::Fixed(4), |_, img| {
                let logits = faulty_ref.infer(img);
                logits
                    .validate_finite("logits")
                    .expect("fault-injected forward");
                logits.row_argmax(0)
            })
        }));
        assert!(outcome.is_err(), "non-finite logits must panic in the map");

        // The pool is still alive: a healthy workload completes and matches
        // the sequential reference.
        let healthy = model(10).prepare();
        let healthy_ref = &healthy;
        let par = par_map(&images, Parallelism::Fixed(4), |_, img| {
            healthy_ref.infer(img).row_argmax(0)
        });
        let seq: Vec<usize> = images
            .iter()
            .map(|img| healthy.infer(img).row_argmax(0))
            .collect();
        assert_eq!(par, seq);
    }
}
