//! Order statistics the benchmark reports: percentiles of call times and
//! quartiles of per-segment rates.

/// Linear-interpolated percentile `q` in `[0, 1]` of an ascending slice
/// (the same "inclusive" rule for every metric). Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A copy of `values` in ascending order (NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// p25 / p50 / p75 and the sample count of a set of readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Self {
            p25: percentile(&s, 0.25),
            p50: percentile(&s, 0.5),
            p75: percentile(&s, 0.75),
            n: s.len(),
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50.abs()
        }
    }
}

/// Per-segment rates (items per second) of equal-work segments.
pub fn segment_rates(items_per_segment: f64, segment_seconds: &[f64]) -> Vec<f64> {
    segment_seconds
        .iter()
        .map(|&s| items_per_segment / s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn rate_metric_is_the_upper_quartile_of_segment_rates() {
        // Four equal-work segments of 100 items; one was descheduled.
        let rates = segment_rates(100.0, &[1.0, 1.0, 1.0, 4.0]);
        let q = Quartiles::of(&rates);
        assert_eq!(q.n, 4);
        assert_eq!(q.p75, 100.0, "a stalled segment does not drag p75");
        assert!(q.p25 < 100.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = Quartiles::of(&[90.0, 100.0, 110.0]);
        assert!((q.spread() - 0.1).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
