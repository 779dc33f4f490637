//! Attention-skip path configurations.

/// A *Path*: which encoders of a depth-`D` ViT keep their attention module
/// active (paper Section 3.2 — "a Path is uniquely defined by the position
/// of encoders with active and inactive attention modules").
///
/// # Example
///
/// ```
/// use pivot_core::PathConfig;
///
/// let path = PathConfig::new(12, &[0, 1, 2, 7, 8, 9]);
/// assert_eq!(path.effort(), 6);
/// assert!(path.is_active(0));
/// assert!(!path.is_active(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathConfig {
    depth: usize,
    active: Vec<usize>,
}

impl PathConfig {
    /// Creates a path with the given active encoder indices (any order,
    /// duplicates removed).
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= depth`.
    pub fn new(depth: usize, active: &[usize]) -> Self {
        let mut active = active.to_vec();
        active.sort_unstable();
        active.dedup();
        for &i in &active {
            assert!(i < depth, "encoder index {i} out of depth {depth}");
        }
        Self { depth, active }
    }

    /// The full-effort path: every attention active.
    pub fn full(depth: usize) -> Self {
        Self {
            depth,
            active: (0..depth).collect(),
        }
    }

    /// Encoder count.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Active encoder indices in ascending order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Skipped encoder indices in ascending order.
    pub fn skipped(&self) -> Vec<usize> {
        (0..self.depth).filter(|i| !self.is_active(*i)).collect()
    }

    /// The *effort* — the number of active attentions.
    pub fn effort(&self) -> usize {
        self.active.len()
    }

    /// Whether encoder `i`'s attention is active.
    pub fn is_active(&self, i: usize) -> bool {
        self.active.binary_search(&i).is_ok()
    }

    /// Boolean activity mask of length `depth`.
    pub fn to_mask(&self) -> Vec<bool> {
        (0..self.depth).map(|i| self.is_active(i)).collect()
    }

    /// Enumerates every path of the given effort, i.e. all `C(depth,
    /// effort)` placements, in lexicographic order of active indices.
    ///
    /// # Panics
    ///
    /// Panics if `effort > depth`.
    pub fn enumerate(depth: usize, effort: usize) -> Vec<PathConfig> {
        assert!(effort <= depth, "effort {effort} exceeds depth {depth}");
        let mut out = Vec::new();
        let mut current = Vec::with_capacity(effort);
        fn recurse(
            depth: usize,
            effort: usize,
            start: usize,
            current: &mut Vec<usize>,
            out: &mut Vec<PathConfig>,
        ) {
            if current.len() == effort {
                out.push(PathConfig {
                    depth,
                    active: current.clone(),
                });
                return;
            }
            let remaining = effort - current.len();
            for i in start..=(depth - remaining) {
                current.push(i);
                recurse(depth, effort, i + 1, current, out);
                current.pop();
            }
        }
        recurse(depth, effort, 0, &mut current, &mut out);
        out
    }

    /// Number of paths of a given effort, `C(depth, effort)`, as `f64`
    /// (exact for the sizes used here, robust for search-space accounting).
    pub fn count(depth: usize, effort: usize) -> f64 {
        if effort > depth {
            return 0.0;
        }
        let mut result = 1.0f64;
        for i in 0..effort.min(depth - effort) {
            result = result * (depth - i) as f64 / (i + 1) as f64;
        }
        result.round()
    }
}

impl std::fmt::Display for PathConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Path[")?;
        for i in 0..self.depth {
            write!(f, "{}", if self.is_active(i) { 'A' } else { '.' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_round_trip() {
        let p = PathConfig::new(6, &[0, 3, 5]);
        assert_eq!(p.to_mask(), [true, false, false, true, false, true]);
        assert_eq!(p.skipped(), vec![1, 2, 4]);
    }

    #[test]
    fn enumerate_matches_binomial() {
        for (d, e) in [(5, 3), (6, 2), (12, 6), (4, 0), (4, 4)] {
            let paths = PathConfig::enumerate(d, e);
            assert_eq!(paths.len() as f64, PathConfig::count(d, e), "C({d},{e})");
            // All distinct, all correct effort.
            let mut set = std::collections::HashSet::new();
            for p in &paths {
                assert_eq!(p.effort(), e);
                assert!(set.insert(p.clone()), "duplicate path {p}");
            }
        }
    }

    #[test]
    fn paper_example_five_choose_three() {
        // Fig. 2b: a ViT with 5 encoders and Effort=3 entails C(5,3)=10 paths.
        assert_eq!(PathConfig::enumerate(5, 3).len(), 10);
    }

    #[test]
    fn count_handles_big_values() {
        assert_eq!(PathConfig::count(12, 6), 924.0);
        assert_eq!(PathConfig::count(12, 3), 220.0);
        assert_eq!(PathConfig::count(16, 8), 12870.0);
        assert_eq!(PathConfig::count(3, 5), 0.0);
    }

    #[test]
    fn display_shows_activity() {
        let p = PathConfig::new(4, &[0, 2]);
        assert_eq!(p.to_string(), "Path[A.A.]");
    }

    #[test]
    #[should_panic(expected = "out of depth")]
    fn out_of_range_index_panics() {
        let _ = PathConfig::new(4, &[4]);
    }

    #[test]
    fn duplicates_are_removed() {
        let p = PathConfig::new(5, &[2, 2, 1]);
        assert_eq!(p.active(), &[1, 2]);
        assert_eq!(p.effort(), 2);
    }
}
