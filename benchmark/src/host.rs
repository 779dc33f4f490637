//! The host under a run: the clock every timing is taken with, a
//! reference kernel that makes drift visible, peak memory, and the
//! provenance block every result carries.

use crate::json::{obj, Value};
use std::process::Command;
use std::time::{Duration, Instant};

/// A reading of the calling thread's CPU time.
///
/// Every driver is synchronous, single-threaded and does no I/O while it
/// is timed, so on an idle machine this is wall time. On the shared VM
/// the benchmark was sized on it is wall time minus what the hypervisor
/// took: steal was 7-9 % of wall and varied from run to run, and timing
/// on this clock halved the run-to-run spread of every rate (README,
/// "Timing"). Where the clock is unavailable it falls back to wall time.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    pub fn now() -> Self {
        Self(thread_cpu_time().unwrap_or_else(wall_since_start))
    }

    pub fn elapsed(&self) -> Duration {
        Self::now().0.saturating_sub(self.0)
    }

    /// Nanoseconds since the thread started running (the span time axis).
    pub fn as_nanos(&self) -> u64 {
        self.0.as_nanos() as u64
    }
}

fn wall_since_start() -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `timespec` through the
    // pointer, which is valid and exclusively borrowed for the call; on
    // 64-bit Linux `timespec` is two 64-bit signed fields, as declared.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0 && ts.tv_sec >= 0 && (0..1_000_000_000).contains(&ts.tv_nsec))
        .then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_time() -> Option<Duration> {
    None
}

/// Iterations of one reference-kernel reading (~5 ms on the sizing host).
const REF_ITERS: u64 = 2_000_000;

/// One reading of the runner-owned reference kernel, in iterations per
/// second: a dependent scalar integer/float chain that touches no memory,
/// so it tracks the core's speed and the hypervisor's share, not caches.
/// It is reported, never used to normalise a metric (README, "Timing").
/// Read on the CPU clock too, so what it shows is contention, not steal.
pub fn ref_kernel_per_s() -> f64 {
    let start = CpuInstant::now();
    let mut state = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut acc = 0.0f64;
    for _ in 0..REF_ITERS {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc * 0.999_999 + (state >> 40) as f64;
    }
    std::hint::black_box(acc);
    REF_ITERS as f64 / start.elapsed().as_secs_f64()
}

/// Reference-kernel readings taken before, during and after measurement.
#[derive(Debug, Default)]
pub struct HostRef {
    readings: Vec<f64>,
}

impl HostRef {
    pub fn sample(&mut self) {
        self.readings.push(ref_kernel_per_s());
    }

    pub fn start(&self) -> f64 {
        self.readings.first().copied().unwrap_or(0.0)
    }

    pub fn end(&self) -> f64 {
        self.readings.last().copied().unwrap_or(0.0)
    }

    pub fn min(&self) -> f64 {
        self.readings.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn median(&self) -> f64 {
        crate::stats::Quartiles::of(&self.readings).p50
    }

    /// Slowest reading as a shortfall from the fastest (0 = steady host).
    pub fn drift(&self) -> f64 {
        let max = self.readings.iter().copied().fold(0.0, f64::max);
        if max == 0.0 {
            0.0
        } else {
            1.0 - self.min() / max
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("ref_per_s_start", Value::from(self.start())),
            ("ref_per_s_min", Value::from(self.min())),
            ("ref_per_s_end", Value::from(self.end())),
            ("readings", Value::from(self.readings.len())),
        ])
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First line of a tool's output, `unknown` if it fails. `git` is kept
/// from searching above the checkout, which need not be a repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_flags() -> Value {
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma, avx512f, vnni) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
        std::is_x86_feature_detected!("avx512f"),
        std::is_x86_feature_detected!("avx512vnni"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma, avx512f, vnni) = (false, false, false, false);
    obj([
        ("avx2", Value::from(avx2)),
        ("fma", Value::from(fma)),
        ("avx512f", Value::from(avx512f)),
        ("vnni", Value::from(vnni)),
        (
            "f32_simd_available",
            Value::from(pivot_tensor::f32_simd_available()),
        ),
    ])
}

/// 64-bit FNV-1a of the workload's parameter string, as hex: two results
/// are comparable only if this matches.
pub fn params_hash(params: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in params.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Where a result came from. The commit reads `unknown` in a checkout
/// that is not a git repository.
pub fn provenance(seed: u64, params: &str) -> Value {
    obj([
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        ("cpu_model", Value::from(cpu_model())),
        ("cpu_flags", cpu_flags()),
        ("nproc", Value::from(nproc())),
        ("seed", Value::from(seed)),
        ("params", Value::from(params)),
        ("params_hash", Value::from(params_hash(params))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_hash_is_stable_and_sensitive() {
        assert_eq!(params_hash(""), "cbf29ce484222325");
        assert_eq!(params_hash("batch=16"), params_hash("batch=16"));
        assert_ne!(params_hash("batch=16"), params_hash("batch=1"));
    }

    #[test]
    fn host_ref_reports_drift_between_extremes() {
        let h = HostRef {
            readings: vec![100.0, 50.0, 80.0],
        };
        assert_eq!(h.start(), 100.0);
        assert_eq!(h.min(), 50.0);
        assert_eq!(h.end(), 80.0);
        assert!((h.drift() - 0.5).abs() < 1e-12);
        assert_eq!(HostRef::default().drift(), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let t = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(30));
        let slept = t.elapsed();
        let t = CpuInstant::now();
        while t.elapsed() < Duration::from_millis(5) {
            std::hint::black_box(ref_kernel_per_s());
        }
        assert!(t.elapsed() >= Duration::from_millis(5));
        if thread_cpu_time().is_some() {
            assert!(
                slept < Duration::from_millis(20),
                "sleeping is not CPU time: {slept:?}"
            );
        }
    }

    #[test]
    fn reference_kernel_and_rss_read_positive() {
        assert!(ref_kernel_per_s() > 0.0);
        assert!(peak_rss_mb() >= 0.0);
        assert!(nproc() >= 1);
    }
}
