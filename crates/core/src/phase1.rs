//! Phase 1: optimal path selection per effort (paper Fig. 2b).

use crate::parallel::{par_map, Parallelism};
use crate::{path_score, PathConfig};
use pivot_cka::CkaMatrix;

/// A path together with its Algorithm-1 score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPath {
    /// The path.
    pub path: PathConfig,
    /// Its Path-Score `S`.
    pub score: f32,
}

/// Result of Phase 1 for one effort: the optimal path and, for analysis
/// (paper Fig. 4a), every candidate scored.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Result {
    /// The effort this result is for.
    pub effort: usize,
    /// The highest-scoring path — the paper's *Optimal Path*.
    pub optimal: ScoredPath,
    /// All candidates in descending score order.
    pub ranked: Vec<ScoredPath>,
}

/// Selects the optimal path for one effort by exhaustively scoring all
/// `C(depth, effort)` placements with Algorithm 1.
///
/// The candidates are scored across `par_map`'s workers. Scores are computed
/// per path and re-assembled in enumeration order before the
/// (deterministic) sort, so the result is bit-identical for every `par`.
///
/// Ties are broken toward paths whose active attentions sit earlier
/// (matching the paper's Fig. 9 observation that skips concentrate in
/// deeper layers, where CKA is higher). A NaN score — a CKA matrix
/// captured from a faulted teacher — ranks after every number, so it
/// wins only if every candidate's score is NaN.
///
/// # Panics
///
/// Panics if `effort > cka.depth()`.
pub fn select_optimal_path(effort: usize, cka: &CkaMatrix, par: Parallelism) -> Phase1Result {
    let depth = cka.depth();
    assert!(effort <= depth, "effort {effort} exceeds depth {depth}");
    let paths = PathConfig::enumerate(depth, effort);
    let scores = par_map(&paths, par, |_, path| path_score(path, cka));
    let mut ranked: Vec<ScoredPath> = paths
        .into_iter()
        .zip(scores)
        .map(|(path, score)| ScoredPath { path, score })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or_else(|| a.score.is_nan().cmp(&b.score.is_nan()))
            .then_with(|| a.path.active().cmp(b.path.active()))
    });
    let optimal = ranked.first().expect("at least one path").clone();
    Phase1Result {
        effort,
        optimal,
        ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::Matrix;

    /// A CKA matrix that increases toward deeper layers, like the paper's
    /// Fig. 3a for DeiT-S.
    fn deep_redundancy_cka(depth: usize) -> CkaMatrix {
        let mut m = Matrix::zeros(depth, depth);
        for i in 0..depth {
            for j in (i + 1)..depth {
                m[(i, j)] = 0.2 + 0.7 * (j as f32 / depth as f32);
            }
        }
        CkaMatrix::from_matrix(m)
    }

    #[test]
    fn optimal_is_max_score() {
        let cka = deep_redundancy_cka(8);
        let result = select_optimal_path(4, &cka, Parallelism::Auto);
        assert_eq!(result.ranked.len(), 70); // C(8,4)
        for sp in &result.ranked {
            assert!(sp.score <= result.optimal.score + 1e-6);
        }
    }

    #[test]
    fn deep_redundancy_pushes_skips_to_deep_layers() {
        // With CKA rising toward deep layers, the optimal path should skip
        // deeper encoders (paper Fig. 9).
        let cka = deep_redundancy_cka(12);
        let result = select_optimal_path(6, &cka, Parallelism::Auto);
        let skipped = result.optimal.path.skipped();
        let mean_skip: f32 = skipped.iter().map(|&i| i as f32).sum::<f32>() / skipped.len() as f32;
        assert!(
            mean_skip > 5.5,
            "skips {skipped:?} not biased deep (mean {mean_skip})"
        );
    }

    #[test]
    fn ranked_is_sorted_descending() {
        let cka = deep_redundancy_cka(7);
        let result = select_optimal_path(3, &cka, Parallelism::Auto);
        for w in result.ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn full_effort_has_single_zero_score_path() {
        let cka = deep_redundancy_cka(5);
        let result = select_optimal_path(5, &cka, Parallelism::Auto);
        assert_eq!(result.ranked.len(), 1);
        assert_eq!(result.optimal.score, 0.0);
        assert_eq!(result.optimal.path, PathConfig::full(5));
    }

    #[test]
    fn zero_effort_is_single_path() {
        let cka = deep_redundancy_cka(5);
        let result = select_optimal_path(0, &cka, Parallelism::Auto);
        assert_eq!(result.ranked.len(), 1);
        assert_eq!(result.optimal.path.effort(), 0);
    }

    #[test]
    fn nan_scores_rank_last_and_never_win() {
        // One NaN entry (a stuck-NaN fault upstream of the CKA capture)
        // poisons the score of every path that keeps encoder 0 and skips
        // encoder 1.
        let mut m = deep_redundancy_cka(6).as_matrix().clone();
        m[(0, 1)] = f32::NAN;
        let cka = CkaMatrix::from_matrix(m);
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            let result = select_optimal_path(3, &cka, par);
            assert_eq!(result.ranked.len(), 20); // C(6,3)
            assert!(result.optimal.score.is_finite(), "{:?}", result.optimal);
            let first_nan = result
                .ranked
                .iter()
                .position(|p| p.score.is_nan())
                .expect("some path reads the NaN entry");
            assert!(result.ranked[first_nan..].iter().all(|p| p.score.is_nan()));
            for w in result.ranked[..first_nan].windows(2) {
                assert!(w[0].score >= w[1].score);
            }
        }
        // Full effort skips nothing, so its one path scores 0 regardless.
        let full = select_optimal_path(6, &cka, Parallelism::Off);
        assert_eq!(full.optimal.score, 0.0);
    }

    #[test]
    fn parallel_enumeration_is_bit_identical() {
        let cka = deep_redundancy_cka(10);
        let seq = select_optimal_path(5, &cka, Parallelism::Off);
        for par in [
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(13),
        ] {
            let p = select_optimal_path(5, &cka, par);
            assert_eq!(seq.ranked.len(), p.ranked.len());
            for (a, b) in seq.ranked.iter().zip(&p.ranked) {
                assert_eq!(a.path, b.path, "path order differs under {par:?}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "score differs under {par:?}"
                );
            }
        }
    }
}
