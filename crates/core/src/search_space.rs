//! Phase-2 design-space accounting (paper Fig. 4b).
//!
//! With Phase 1's optimal-path selection there is exactly **one** candidate
//! path per effort, so an effort combination `[e_L, e_H]` is a single design
//! point. A random search that skips Phase 1 must instead consider every
//! placement of both efforts: `C(D, e_L) * C(D, e_H)` points.

use crate::PathConfig;

/// Number of Phase-2 design points for the effort pair `(e_low, e_high)`
/// under random search (no Phase-1 optimal-path selection).
///
/// The paper's example: `[3, 6]` on DeiT-S (D = 12) gives
/// `C(12,3) * C(12,6) = 2.03e5`.
pub fn random_pair_space(depth: usize, e_low: usize, e_high: usize) -> f64 {
    PathConfig::count(depth, e_low) * PathConfig::count(depth, e_high)
}

/// Total random-search design-space size over all ordered effort pairs
/// `e_i < e_j` drawn from `efforts`.
pub fn total_random_space(depth: usize, efforts: &[usize]) -> f64 {
    let mut sorted = efforts.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut total = 0.0;
    for (a, &lo) in sorted.iter().enumerate() {
        for &hi in sorted.iter().skip(a + 1) {
            total += random_pair_space(depth, lo, hi);
        }
    }
    total
}

/// Total PIVOT design-space size over the same pairs (one point per pair).
pub fn total_pivot_space(efforts: &[usize]) -> f64 {
    let mut sorted = efforts.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let n = sorted.len() as f64;
    n * (n - 1.0) / 2.0
}

/// How many times larger the random space is than PIVOT's.
pub fn reduction_factor(depth: usize, efforts: &[usize]) -> f64 {
    let pivot = total_pivot_space(efforts);
    if pivot == 0.0 {
        return 0.0;
    }
    total_random_space(depth, efforts) / pivot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_pair_3_6() {
        // Paper Section 3.3: C(12,3) x C(12,6) = 2.03e5 for DeiT-S.
        let size = random_pair_space(12, 3, 6);
        assert_eq!(size, 220.0 * 924.0);
        assert!((size - 2.03e5).abs() / 2.03e5 < 0.01);
    }

    #[test]
    fn deit_s_reduction_is_about_1e5() {
        // Paper: DeiT-S random search space ~1e5x larger than PIVOT's.
        let efforts: Vec<usize> = (3..=9).collect();
        let factor = reduction_factor(12, &efforts);
        assert!(
            (1e4..1e7).contains(&factor),
            "reduction factor {factor:.3e} not in the paper's ~1e5 regime"
        );
    }

    #[test]
    fn pivot_space_is_pair_count() {
        assert_eq!(total_pivot_space(&[3, 6, 9]), 3.0);
        assert_eq!(total_pivot_space(&[3]), 0.0);
        assert_eq!(total_pivot_space(&[4, 5, 6, 7]), 6.0);
    }

    #[test]
    fn duplicate_efforts_are_ignored() {
        assert_eq!(
            total_random_space(12, &[3, 3, 6]),
            total_random_space(12, &[3, 6])
        );
    }

    #[test]
    fn random_space_grows_with_depth() {
        assert!(total_random_space(16, &[4, 8]) > total_random_space(12, &[4, 8]));
    }
}
