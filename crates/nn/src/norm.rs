//! Layer normalization over the embedding dimension.

use crate::{Layer, Param};
use pivot_tensor::Matrix;

/// Layer normalization applied independently to each token (row).
///
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`
///
/// # Example
///
/// ```
/// use pivot_nn::{Layer, LayerNorm};
/// use pivot_tensor::Matrix;
///
/// let mut ln = LayerNorm::new(4);
/// let y = ln.forward(&Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
/// assert!(y.row(0).iter().sum::<f32>().abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    pub(crate) eps: f32,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x: Matrix,
    /// Each row's `(mean, inv_std)`.
    stats: Vec<(f32, f32)>,
}

impl LayerNorm {
    /// Creates a layer-norm over `dim` features with `gamma = 1`, `beta = 0`.
    pub fn new(dim: usize) -> Self {
        Self::from_parts(Matrix::filled(1, dim, 1.0), Matrix::zeros(1, dim))
    }

    /// Builds a layer-norm from explicit scale/shift rows.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` and `beta` are not `1 x dim` rows of equal width.
    pub fn from_parts(gamma: Matrix, beta: Matrix) -> Self {
        assert!(
            gamma.rows() == 1 && beta.rows() == 1 && gamma.cols() == beta.cols(),
            "gamma {:?} / beta {:?} must be equal-width rows",
            gamma.shape(),
            beta.shape()
        );
        Self {
            gamma: Param::new(gamma),
            beta: Param::new(beta),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Whether `other` normalizes every input to the same bits as `self`:
    /// bitwise-equal γ, β and ε (see
    /// [`PreparedEncoderBlock::computes_same_as`](crate::PreparedEncoderBlock::computes_same_as)).
    pub(crate) fn computes_same_as(&self, other: &Self) -> bool {
        self.eps.to_bits() == other.eps.to_bits()
            && self.gamma.value.same_bits(&other.gamma.value)
            && self.beta.value.same_bits(&other.beta.value)
    }

    /// Inference-only forward without caching, into a new matrix: the one
    /// layer-norm body every forward of the crate runs.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.infer_into(x, &mut y);
        y
    }

    /// The inference forward into a caller buffer, reshaped to `x`'s
    /// shape on its own storage ([`Matrix::reuse_as`]) and overwritten
    /// row by row — the body training's [`Layer::forward`] runs too,
    /// there with a sink that records each row's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub(crate) fn infer_into(&self, x: &Matrix, y: &mut Matrix) {
        self.normalize(x, y, |_, _| {});
    }

    /// The one layer-norm body: every row of `y` is written once, and
    /// `stats` sees each row's `(mean, inv_std)` once, in row order
    /// (inference's no-op is monomorphised away).
    fn normalize(&self, x: &Matrix, y: &mut Matrix, mut stats: impl FnMut(f32, f32)) {
        let d = self.dim();
        assert_eq!(x.cols(), d, "layer-norm input width");
        y.reuse_as(x.rows(), d);
        if d > 0 {
            let mut groups = x.as_slice().chunks_exact(4 * d);
            let mut out = y.as_mut_slice().chunks_exact_mut(4 * d);
            for (x4, y4) in (&mut groups).zip(&mut out) {
                self.infer_rows::<4>(x4, y4, &mut stats);
            }
            let rest = out.into_remainder().chunks_exact_mut(d);
            for (x1, y1) in groups.remainder().chunks_exact(d).zip(rest) {
                self.infer_rows::<1>(x1, y1, &mut stats);
            }
        }
    }

    /// Writes the normalization of the `R` consecutive rows in `x` to
    /// the same rows of `y`, their reductions interleaved to hide the add
    /// latency. Each row's sums are still one sequential chain in column
    /// order starting from `Iterator::sum`'s own identity, so grouping
    /// never moves a bit.
    // `c` walks one column of all `R` rows in lockstep.
    #[allow(clippy::needless_range_loop)]
    fn infer_rows<const R: usize>(
        &self,
        x: &[f32],
        y: &mut [f32],
        stats: &mut impl FnMut(f32, f32),
    ) {
        let d = self.dim();
        let n = d as f32;
        let rows: [&[f32]; R] = std::array::from_fn(|r| &x[r * d..(r + 1) * d]);
        let identity: f32 = std::iter::empty::<f32>().sum();
        let mut sum = [identity; R];
        for c in 0..d {
            for r in 0..R {
                sum[r] += rows[r][c];
            }
        }
        let mean = sum.map(|s| s / n);
        let mut sq = [identity; R];
        for c in 0..d {
            for r in 0..R {
                let dv = rows[r][c] - mean[r];
                sq[r] += dv * dv;
            }
        }
        let scale_shift = self.gamma.value.row(0).iter().zip(self.beta.value.row(0));
        for (r, out) in y.chunks_exact_mut(d).enumerate() {
            let (mean, inv_std) = (mean[r], 1.0 / (sq[r] / n + self.eps).sqrt());
            stats(mean, inv_std);
            for ((o, &v), (&g, &b)) in out.iter_mut().zip(rows[r]).zip(scale_shift.clone()) {
                *o = g * ((v - mean) * inv_std) + b;
            }
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let (mut y, mut stats) = (Matrix::default(), Vec::with_capacity(x.rows()));
        self.normalize(x, &mut y, |mean, inv_std| stats.push((mean, inv_std)));
        self.cache = Some(Cache {
            x: x.clone(),
            stats,
        });
        y
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward before forward");
        let n = d_out.cols() as f32;
        let mut dx = Matrix::zeros(d_out.rows(), d_out.cols());
        let mut d_gamma = Matrix::zeros(1, d_out.cols());
        let mut d_beta = Matrix::zeros(1, d_out.cols());
        for r in 0..d_out.rows() {
            let dy = d_out.row(r);
            let (x, (mean, inv_std)) = (cache.x.row(r), cache.stats[r]);
            // The forward's own `x_hat` expression, so the same bits.
            let xh: Vec<f32> = x.iter().map(|&v| (v - mean) * inv_std).collect();
            // d_xhat = dy * gamma
            let d_xhat: Vec<f32> = dy
                .iter()
                .enumerate()
                .map(|(c, &g)| g * self.gamma.value[(0, c)])
                .collect();
            let mean_dxhat = d_xhat.iter().sum::<f32>() / n;
            let mean_dxhat_xhat = d_xhat.iter().zip(&xh).map(|(&a, &b)| a * b).sum::<f32>() / n;
            for c in 0..d_out.cols() {
                dx[(r, c)] = (d_xhat[c] - mean_dxhat - xh[c] * mean_dxhat_xhat) * inv_std;
                d_gamma[(0, c)] += dy[c] * xh[c];
                d_beta[(0, c)] += dy[c];
            }
        }
        self.gamma.accumulate(&d_gamma);
        self.beta.accumulate(&d_beta);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::Rng;

    #[test]
    fn output_rows_are_standardized() {
        let mut rng = Rng::new(0);
        let mut ln = LayerNorm::new(16);
        let x = Matrix::randn(4, 16, 3.0, &mut rng);
        let y = ln.forward(&x);
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean = row.iter().sum::<f32>() / 16.0;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::new(7);
        let mut ln = LayerNorm::new(5);
        // Non-trivial gamma/beta so their gradients are exercised.
        ln.gamma.value = Matrix::randn(1, 5, 1.0, &mut rng);
        ln.beta.value = Matrix::randn(1, 5, 1.0, &mut rng);
        let x = Matrix::randn(3, 5, 1.0, &mut rng);
        let target = Matrix::randn(3, 5, 1.0, &mut rng);

        let loss = |m: &LayerNorm, x: &Matrix| -> f32 {
            let y = m.infer(x);
            0.5 * (&y - &target).frobenius_norm().powi(2)
        };

        let y = ln.forward(&x);
        let d_out = &y - &target;
        let dx = ln.backward(&d_out);

        let h = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * h);
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}]: {} vs {fd}",
                dx.as_slice()[i]
            );
        }

        for (pi, name) in [(0usize, "gamma"), (1usize, "beta")] {
            let p0 = ln.params_mut()[pi].value.clone();
            let analytic = ln.params_mut()[pi].grad.clone();
            for i in 0..p0.len() {
                let mut pp = p0.clone();
                pp.as_mut_slice()[i] += h;
                ln.params_mut()[pi].value = pp;
                let lp = loss(&ln, &x);
                let mut pm = p0.clone();
                pm.as_mut_slice()[i] -= h;
                ln.params_mut()[pi].value = pm;
                let lm = loss(&ln, &x);
                ln.params_mut()[pi].value = p0.clone();
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (analytic.as_slice()[i] - fd).abs() < 2e-2,
                    "{name}[{i}]: {} vs {fd}",
                    analytic.as_slice()[i]
                );
            }
        }
    }

    #[test]
    fn infer_is_bit_identical_to_training_forward() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng::new(9);
        // Every `rows % 4` (the interleaved reductions take four rows at a
        // time), one column, and rows that tell the reductions' starting
        // value apart: all `-0.0` (mean `-0.0` only if the sum starts where
        // `Iterator::sum` does; a `-0.0` beta keeps the sign visible), NaN.
        for (rows, dim) in [(4, 8), (5, 8), (6, 3), (7, 64), (1, 5), (9, 1), (0, 4)] {
            let mut ln = LayerNorm::new(dim);
            ln.gamma.value = Matrix::randn(1, dim, 1.0, &mut rng);
            ln.beta.value = Matrix::filled(1, dim, -0.0);
            let mut x = Matrix::randn(rows, dim, 2.0, &mut rng);
            if rows > 0 {
                x.row_mut(0).fill(-0.0);
                x.row_mut(rows - 1)[0] = f32::NAN;
            }
            let inferred = ln.infer(&x);
            assert_eq!(bits(&inferred), bits(&ln.forward(&x)), "{rows}x{dim}");
            if rows > 1 {
                assert!(inferred.row(rows - 1).iter().all(|v| v.is_nan()));
                assert!(inferred.row(0).iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "layer-norm input width")]
    fn infer_rejects_a_mismatched_width() {
        let _ = LayerNorm::new(4).infer(&Matrix::zeros(2, 3));
    }

    #[test]
    fn constant_row_is_stable() {
        let mut ln = LayerNorm::new(4);
        let y = ln.forward(&Matrix::filled(1, 4, 3.0));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}
