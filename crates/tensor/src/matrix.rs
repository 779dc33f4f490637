//! Row-major dense `f32` matrix.

use crate::microkernel::{gemm, gemm_transpose_b, LhsView, PackedF32, StridedRows};
use crate::rng::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Range, Sub};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the single tensor type used across the PIVOT workspace.
/// Higher-rank data (a batch of token embeddings, a stack of attention heads)
/// is represented as a `Vec<Matrix>` or by packing along rows, which keeps
/// the kernel surface small and easy to verify.
///
/// # Example
///
/// ```
/// use pivot_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {i} has length {} expected {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix that takes ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a matrix with entries drawn i.i.d. from `N(0, std^2)`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.normal() * std)
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.uniform(lo, hi))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows x cols` on the same storage — the primitive of
    /// reusable activation buffers. The flat buffer keeps its first
    /// `min(len, rows * cols)` values and is zero-padded past them, so
    /// `len() == rows * cols` afterwards; capacity never shrinks, so a
    /// buffer cycled through shapes no larger than its high-water mark
    /// allocates nothing. Callers treat the contents as stale and
    /// overwrite every element before reading it.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reuse_as(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .unwrap_or_else(|| panic!("{rows}x{cols} overflows usize"));
        self.data.resize(len, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// 128-bit structural content hash: shape plus every element's bit
    /// pattern. Equal hashes identify matrices whose use in inference is
    /// bit-identical (see [`crate::ContentHasher`] for the collision
    /// argument); `-0.0`/`0.0` and distinct NaN payloads hash apart.
    pub fn content_hash(&self) -> u128 {
        let mut h = crate::ContentHasher::new();
        h.write_usize(self.rows);
        h.write_usize(self.cols);
        h.write_f32_slice(&self.data);
        h.finish()
    }

    /// Whether `other` has the same shape and the same bits. Unlike `==`,
    /// `-0.0` differs from `0.0` (the two can round differently in what a
    /// layer computes from them) and a NaN matches its own bits.
    pub fn same_bits(&self, other: &Self) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow of the contiguous row range `start..end` as a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn rows_slice(&self, start: usize, end: usize) -> &[f32] {
        assert!(
            start <= end && end <= self.rows,
            "row range {start}..{end} out of bounds ({} rows)",
            self.rows
        );
        &self.data[start * self.cols..end * self.cols]
    }

    /// Mutable borrow of the contiguous row range `start..end` as a flat
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn rows_mut(&mut self, start: usize, end: usize) -> &mut [f32] {
        assert!(
            start <= end && end <= self.rows,
            "row range {start}..{end} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[start * self.cols..end * self.cols]
    }

    /// Matrix product `self * rhs` (see [`Self::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product written into a caller-owned output buffer, so hot
    /// loops (batched forwards, attention scores) can reuse one allocation
    /// across calls.
    ///
    /// Packs `rhs` into [`PackedF32`] column panels and runs the one f32
    /// GEMM kernel of the host (see `crate::microkernel`). Hot loops that
    /// reuse the same `rhs` should pack once and call
    /// [`Self::matmul_prepacked_into`] to skip the per-call pack.
    ///
    /// Every element is one ascending-`k` chain of fused multiply-adds
    /// (one rounding per term) with a single accumulator, the same bits on
    /// every host — scalar == AVX2 == AVX-512 — and within the documented
    /// tolerance of the reference `matmul_naive`. Each row is a pure function of
    /// `(a_row, rhs)`: results never depend on the output's row count, on
    /// batching, or on how callers parallelize around the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows() x rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch"
        );
        let packed = PackedF32::pack(rhs);
        gemm(self.lhs_view(), self.rows, &packed, &mut out.data, rhs.cols);
    }

    /// Row-major [`LhsView`] of this matrix for the packed kernels.
    fn lhs_view(&self) -> LhsView<'_> {
        LhsView {
            base: &self.data,
            row_stride: self.cols,
            k_stride: 1,
        }
    }

    /// [`LhsView`] of this matrix's transpose, read in place.
    fn transposed_view(&self) -> LhsView<'_> {
        LhsView {
            base: &self.data,
            row_stride: 1,
            k_stride: self.cols,
        }
    }

    /// The rows of this matrix from flat offset `at` on, at its own row
    /// stride: `at = 0` is the whole matrix, `at = r * cols + c` the block
    /// whose top-left element is `(r, c)`.
    fn strided_rows(&self, at: usize) -> StridedRows<'_> {
        StridedRows {
            base: &self.data[at..],
            stride: self.cols,
        }
    }

    /// Matrix product against an operand packed once with
    /// [`PackedF32::pack`], into a caller-owned output buffer — the
    /// panel-cached fast path for weight operands that are reused across
    /// many calls (see `pivot_nn::PreparedLinear`).
    ///
    /// Bit-identical to [`Self::matmul`] against the unpacked operand on
    /// every machine: it is the same kernel, and packing is the only work
    /// hoisted out.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != packed.k()` or `out` is not
    /// `self.rows() x packed.n()`.
    pub fn matmul_prepacked_into(&self, packed: &PackedF32, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            packed.k(),
            "matmul_prepacked shape mismatch: {:?} x packed {}x{}",
            self.shape(),
            packed.k(),
            packed.n()
        );
        assert_eq!(
            out.shape(),
            (self.rows, packed.n()),
            "matmul_prepacked_into output shape mismatch"
        );
        gemm(
            self.lhs_view(),
            self.rows,
            packed,
            &mut out.data,
            packed.n(),
        );
    }

    /// Matrix product `self * rhs.transpose()` without materializing the
    /// transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transpose_b_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul_transpose_b`] into a caller-owned output buffer.
    ///
    /// Each output element is one dot product of two contiguous rows, so
    /// no packing is needed: the host's dot kernel runs directly — on
    /// AVX-512F+VL a register tile of 3 × 8 lane-split fused dots, on
    /// AVX2+FMA the same dots up to four at a time, elsewhere the same
    /// dots one scalar lane at a time — one exact accumulation order for
    /// all three, documented in `crate::microkernel`, so the same bits on
    /// every host.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` or `out` is not
    /// `self.rows() x rhs.rows()`.
    pub fn matmul_transpose_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_transpose_b shape mismatch: {:?} x {:?}^T",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows),
            "matmul_transpose_b_into output shape mismatch"
        );
        gemm_transpose_b(
            self.strided_rows(0),
            rhs.strided_rows(0),
            (self.rows, self.cols, rhs.rows),
            &mut out.data,
        );
    }

    /// Flat offset of the `rows x cols` block `self` shares with `other`
    /// (the strided kernels read and write such blocks in place).
    ///
    /// # Panics
    ///
    /// Panics if `other` differs from `self` in shape or the block is not
    /// inside them.
    fn block_offset(&self, other: &Matrix, rows: &Range<usize>, cols: &Range<usize>) -> usize {
        assert_eq!(
            other.shape(),
            self.shape(),
            "block operands differ in shape"
        );
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "block rows {rows:?} out of {:?}",
            self.shape()
        );
        assert!(
            cols.start <= cols.end && cols.end <= self.cols,
            "block cols {cols:?} out of {:?}",
            self.shape()
        );
        rows.start * self.cols + cols.start
    }

    /// `self[rows, cols] * rhs[rows, cols]^T` into the dense
    /// `rows.len() x rows.len()` buffer `out`, reading both blocks in place
    /// at the matrices' own row stride — the attention scores of one
    /// (sample, head) straight from the stacked `Q` and `K`, with no
    /// `slice_rows` / `slice_cols` copies; called on `K` with `Q` as `rhs`,
    /// the scores transposed.
    ///
    /// Bit-identical to [`Self::matmul_transpose_b_into`] on the two copied
    /// blocks, on every machine: the same dot kernel runs on the same runs.
    /// Swapping the operands transposes the result exactly: each element
    /// is the same dot of the same two runs, and a fused or plain product
    /// does not depend on its operands' order.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` differs from `self` in shape, the block is not
    /// inside them, or `out.len() != rows.len() * rows.len()`.
    pub fn matmul_transpose_b_block_into(
        &self,
        rhs: &Matrix,
        rows: Range<usize>,
        cols: Range<usize>,
        out: &mut [f32],
    ) {
        let at = self.block_offset(rhs, &rows, &cols);
        let (t, k) = (rows.len(), cols.len());
        assert_eq!(out.len(), t * t, "block score buffer is not {t}x{t}");
        if t == 0 {
            return;
        }
        gemm_transpose_b(self.strided_rows(at), rhs.strided_rows(at), (t, k, t), out);
    }

    /// `out[rows, cols] = P * rhs[rows, cols]` for the
    /// `rows.len() x rows.len()` `P` whose transpose `lhs` holds row-major
    /// (`lhs[c * t + r]` is `P[r][c]`), reading `lhs` through a transposed
    /// view, the `rhs` block and the `out` block in place at the matrices'
    /// own row stride — one head's `softmax(QK^T) V` from the transposed
    /// probabilities, landing directly in the context matrix. The rest of
    /// `out` is left untouched.
    ///
    /// Bit-identical to [`Self::matmul_into`] of `P` on the copied block,
    /// on every machine: the block is repacked into `panel` (the caller's
    /// reusable buffer, see [`PackedF32::pack_block`]) and the same kernel
    /// runs with an output stride, reading `P` as
    /// [`Self::matmul_transpose_a`] reads its lhs.
    ///
    /// # Panics
    ///
    /// Panics if `out` differs from `rhs` in shape, the block is not inside
    /// them, or `lhs.len() != rows.len() * rows.len()`.
    pub fn matmul_block_into(
        lhs: &[f32],
        rhs: &Matrix,
        rows: Range<usize>,
        cols: Range<usize>,
        panel: &mut PackedF32,
        out: &mut Matrix,
    ) {
        let at = rhs.block_offset(out, &rows, &cols);
        let t = rows.len();
        assert_eq!(lhs.len(), t * t, "block lhs is not {t}x{t}");
        if t == 0 {
            return;
        }
        panel.pack_block(rhs, rows, cols);
        let view = LhsView {
            base: lhs,
            row_stride: 1,
            k_stride: t,
        };
        gemm(view, t, panel, &mut out.data[at..], rhs.cols);
    }

    /// Matrix product `self.transpose() * rhs` without materializing the
    /// transpose.
    ///
    /// Packs `rhs` and runs the same kernel as [`Self::matmul_into`] with
    /// a column-strided view of `self`; the results equal
    /// `transpose().matmul(rhs)` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            rhs.rows,
            "matmul_transpose_a shape mismatch: {:?}^T x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let packed = PackedF32::pack(rhs);
        gemm(
            self.transposed_view(),
            self.cols,
            &packed,
            &mut out.data,
            rhs.cols,
        );
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination `f(self[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scaled(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|x| x * s);
    }

    /// Adds `other * s` to `self` in place (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled_in_place(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Sums all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute value, 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element in row `r` (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or the matrix has zero columns.
    pub fn row_argmax(&self, r: usize) -> usize {
        let row = self.row(r);
        assert!(!row.is_empty(), "row_argmax on zero-column matrix");
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Centers each column to zero mean, returning a new matrix.
    pub fn center_columns(&self) -> Matrix {
        if self.rows == 0 {
            return self.clone();
        }
        let means: Vec<f32> = self
            .col_sums()
            .into_iter()
            .map(|s| s / self.rows as f32)
            .collect();
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &m) in out.row_mut(r).iter_mut().zip(&means) {
                *o -= m;
            }
        }
        out
    }

    /// Extracts rows `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows range out of bounds"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Extracts columns `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols range out of bounds"
        );
        Matrix::from_fn(self.rows, end - start, |r, c| self[(r, start + c)])
    }

    /// Horizontally concatenates `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    #[cfg(test)]
    fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        Matrix::from_fn(self.rows, self.cols + other.cols, |r, c| {
            if c < self.cols {
                self[(r, c)]
            } else {
                other[(r, c - self.cols)]
            }
        })
    }

    /// Vertically concatenates `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// True when every pairwise element difference is at most `tol`.
    ///
    /// Shapes must match for the result to be `true`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {:?}",
            self.shape()
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {:?}",
            self.shape()
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f32) -> Matrix {
        self.scaled(s)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_scaled_in_place(rhs, 1.0);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// Test-only references and shorthands.
#[cfg(test)]
impl Matrix {
    /// Returns the transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Reference ikj matmul with no blocking — the ground truth every
    /// other kernel is validated against. Accumulates each output element
    /// in ascending-`k` order with one scalar accumulator (round after
    /// every multiply, no fusing). Every arm of the kernel behind
    /// [`Self::matmul_into`] — scalar, AVX2 and AVX-512, which agree bit
    /// for bit — fuses each multiply-add and is pinned to it within the
    /// fused-rounding tolerance documented in `crate::microkernel`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub(crate) fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = rhs.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// [`Self::matmul_prepacked_into`] into a fresh output.
    pub(crate) fn matmul_prepacked(&self, packed: &PackedF32) -> Matrix {
        let mut out = Matrix::zeros(self.rows, packed.n());
        self.matmul_prepacked_into(packed, &mut out);
        out
    }
}

/// Worst elementwise deviation of `got` from `a.matmul_naive(b)`, as a
/// fraction of the documented fused-rounding envelope
/// `2k · ε · max(|A|·|B|, 1)` (see [`crate::microkernel`]); `<= 1.0`
/// means every element is within tolerance. Test-only oracle for every
/// arm; requires finite inputs.
#[cfg(test)]
pub(crate) fn max_fused_violation(got: &Matrix, a: &Matrix, b: &Matrix) -> f32 {
    let want = a.matmul_naive(b);
    let bound = a.map(f32::abs).matmul_naive(&b.map(f32::abs));
    let k = a.cols() as f32;
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .zip(bound.as_slice())
        .map(|((&g, &w), &bd)| (g - w).abs() / (2.0 * k * f32::EPSILON * bd.max(1.0)))
        .fold(0.0, f32::max)
}

/// The bit patterns of `xs`, for exact comparisons that tell `-0.0` from
/// `0.0` and see NaN payloads.
#[cfg(test)]
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::{
        gemm_arms, gemm_scalar, gemm_transpose_b_scalar, transpose_arms, Arm, TransposeArm,
    };

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart_and_matches_nan_to_itself() {
        let a = Matrix::from_rows(&[&[0.0, f32::NAN]]);
        assert!(a.same_bits(&a.clone()) && a != a.clone());
        assert!(!a.same_bits(&Matrix::from_rows(&[&[-0.0, f32::NAN]])));
        assert!(!a.same_bits(&Matrix::from_vec(2, 1, vec![0.0, f32::NAN])));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let mut rng = Rng::new(7);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(5, 6, 1.0, &mut rng);
        let direct = a.matmul(&b.transpose());
        assert!(a.matmul_transpose_b(&b).approx_eq(&direct, 1e-5));

        let c = Matrix::randn(4, 3, 1.0, &mut rng);
        let direct2 = a.transpose().matmul(&c);
        assert!(a.matmul_transpose_a(&c).approx_eq(&direct2, 1e-5));
    }

    #[test]
    fn dispatched_matmul_tracks_naive_at_vit_shapes() {
        // The benched ViT shapes: qkv slice, mlp expansion, square, batched,
        // and DeiT-S at two images of 197 tokens (fc1, fc2, a projection).
        // Every arm fuses multiply-adds, so the dispatched product is
        // pinned to naive within the documented envelope, and to the
        // scalar arm bit for bit.
        let mut rng = Rng::new(78);
        for &(m, k, n) in &[
            (17, 64, 64),
            (17, 64, 128),
            (96, 96, 96),
            (544, 64, 64),
            (394, 384, 1536),
            (394, 1536, 384),
            (394, 384, 384),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let got = a.matmul(&b);
            let v = max_fused_violation(&got, &a, &b);
            assert!(v <= 1.0, "out of tolerance at {m}x{k}x{n}: {v}");
            let mut scalar = vec![f32::NAN; m * n];
            gemm_scalar(a.lhs_view(), m, &PackedF32::pack(&b), &mut scalar, n);
            assert_eq!(bits(&got.data), bits(&scalar), "scalar arm at {m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_matmul_is_bit_identical_to_matmul() {
        // Packing is the only work hoisted out: the prepacked entry point
        // must reproduce matmul() exactly on every machine, including into
        // a dirty output buffer.
        let mut rng = Rng::new(79);
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 13, 17),
            (17, 64, 64),
            (33, 31, 40),
            (394, 384, 1536),
            (394, 1536, 384),
            (394, 384, 384),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let packed = PackedF32::pack(&b);
            let want = a.matmul(&b);
            assert_eq!(a.matmul_prepacked(&packed), want, "{m}x{k}x{n}");
            let mut out = Matrix::filled(m, n, f32::NAN);
            a.matmul_prepacked_into(&packed, &mut out);
            assert_eq!(out, want, "dirty-buffer prepacked at {m}x{k}x{n}");
        }
    }

    #[test]
    fn dispatched_transpose_kernels_track_naive() {
        // The last shape is DeiT-S's QKᵀ per head (197 tokens, head 64).
        let mut rng = Rng::new(81);
        for &(m, k, n) in &[(17, 16, 17), (40, 33, 37), (197, 64, 197)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            let got = a.matmul_transpose_b(&bt);
            let c = Matrix::randn(m, n, 1.0, &mut rng);
            let got_ta = a.matmul_transpose_a(&c);
            let v = max_fused_violation(&got, &a, &bt.transpose());
            assert!(v <= 1.0, "tb out of tolerance at {m}x{k}x{n}: {v}");
            let v = max_fused_violation(&got_ta, &a.transpose(), &c);
            assert!(v <= 1.0, "ta out of tolerance at {m}x{k}x{n}: {v}");
            let mut scalar = vec![f32::NAN; m * n];
            let (ra, rb) = (a.strided_rows(0), bt.strided_rows(0));
            gemm_transpose_b_scalar(ra, rb, (m, k, n), &mut scalar);
            assert_eq!(bits(&got.data), bits(&scalar), "scalar dots at {m}x{k}x{n}");
        }
    }

    #[test]
    fn non_finite_inputs_propagate_on_every_arm() {
        // Fault-visibility contract: a poisoned lhs element must poison its
        // whole output row, a poisoned rhs element its whole output column,
        // and nothing else — through every entry point of the host's
        // kernels and through each arm of both kernels by name, the scalar
        // ones included. 18 columns make a ragged panel pair on AVX-512, a
        // full panel and a ragged one on AVX2.
        // (±inf may legitimately become NaN through inf−inf, so the
        // assertion is non-finiteness, not exact value.)
        let (arms, dot_arms) = (gemm_arms(), transpose_arms());
        let by_arm = |a: &Matrix, b: &Matrix, arm: Arm| {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            arm(
                a.lhs_view(),
                a.rows(),
                &PackedF32::pack(b),
                &mut out.data,
                b.cols(),
            );
            out
        };
        let by_dot_arm = |a: &Matrix, b: &Matrix, arm: TransposeArm| {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            let bt = b.transpose();
            let shape = (a.rows(), a.cols(), b.cols());
            arm(a.strided_rows(0), bt.strided_rows(0), shape, &mut out.data);
            out
        };
        let (m, k, n) = (9, 11, 18);
        for &bad in &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut rng = Rng::new(82);
            let mut a = Matrix::randn(m, k, 1.0, &mut rng);
            a[(3, 5)] = bad;
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let check_row = |out: &Matrix, label: &str| {
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            out[(i, j)].is_finite(),
                            i != 3,
                            "{label}: ({i},{j}) with bad={bad}"
                        );
                    }
                }
            };
            check_row(&a.matmul(&b), "dispatched");
            check_row(&a.matmul_prepacked(&PackedF32::pack(&b)), "prepacked");
            for &(name, arm) in &arms {
                check_row(&by_arm(&a, &b, arm), name);
            }
            for &(name, arm) in &dot_arms {
                check_row(&by_dot_arm(&a, &b, arm), name);
            }

            let a2 = Matrix::randn(m, k, 1.0, &mut rng);
            let mut b2 = Matrix::randn(k, n, 1.0, &mut rng);
            b2[(4, 7)] = bad;
            let check_col = |out: &Matrix, label: &str| {
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            out[(i, j)].is_finite(),
                            j != 7,
                            "{label}: ({i},{j}) with bad={bad}"
                        );
                    }
                }
            };
            check_col(&a2.matmul(&b2), "dispatched");
            check_col(&a2.matmul_prepacked(&PackedF32::pack(&b2)), "prepacked");
            for &(name, arm) in &arms {
                check_col(&by_arm(&a2, &b2, arm), name);
            }
            for &(name, arm) in &dot_arms {
                check_col(&by_dot_arm(&a2, &b2, arm), name);
            }
            // transposed-B: same poisoned operand through the dot kernels.
            check_col(&a2.matmul_transpose_b(&b2.transpose()), "dispatched tb");
        }
    }

    #[test]
    fn matmul_into_reuses_dirty_buffer() {
        let mut rng = Rng::new(9);
        let a = Matrix::randn(7, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 6, 1.0, &mut rng);
        let mut out = Matrix::filled(7, 6, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let mut out_tb = Matrix::filled(7, 7, -3.0);
        a.matmul_transpose_b_into(&a, &mut out_tb);
        assert_eq!(out_tb, a.matmul_transpose_b(&a));
    }

    #[test]
    #[should_panic(expected = "matmul_into output shape mismatch")]
    fn matmul_into_output_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 5);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn reuse_as_reshapes_on_the_same_storage() {
        let mut m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let base = m.as_slice().as_ptr();
        m.reuse_as(2, 5);
        assert_eq!(m.shape(), (2, 5));
        assert_eq!(m.len(), 10);
        let prefix: Vec<f32> = (0..10).map(|v| v as f32).collect();
        assert_eq!(m.as_slice(), &prefix[..]);
        // Shrinking keeps the prefix; growing back within the high-water
        // mark zero-pads and stays on the same allocation.
        m.reuse_as(1, 3);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0]);
        m.reuse_as(4, 3);
        assert_eq!(m.shape(), (4, 3));
        assert_eq!(&m.as_slice()[..3], &[0.0, 1.0, 2.0]);
        assert!(m.as_slice()[3..].iter().all(|&v| v == 0.0));
        assert_eq!(m.as_slice().as_ptr(), base);
        // An empty matrix grows like a fresh one.
        let mut empty = Matrix::default();
        empty.reuse_as(2, 2);
        assert_eq!(empty, Matrix::zeros(2, 2));
        empty.reuse_as(0, 7);
        assert_eq!(empty.shape(), (0, 7));
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn reuse_as_rejects_an_overflowing_shape() {
        Matrix::default().reuse_as(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "block cols")]
    fn block_kernels_reject_a_block_outside_the_matrix() {
        let q = Matrix::zeros(4, 6);
        q.matmul_transpose_b_block_into(&q, 0..4, 4..8, &mut [0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "differ in shape")]
    fn block_kernels_reject_mismatched_operands() {
        let mut out = Matrix::zeros(4, 5);
        Matrix::matmul_block_into(
            &[0.0; 16],
            &Matrix::zeros(4, 6),
            0..4,
            0..3,
            &mut PackedF32::default(),
            &mut out,
        );
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(1);
        let a = Matrix::randn(5, 3, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn center_columns_zeroes_means() {
        let mut rng = Rng::new(3);
        let a = Matrix::randn(20, 4, 2.0, &mut rng);
        let c = a.center_columns();
        for s in c.col_sums() {
            assert!(s.abs() < 1e-4, "column sum {s} not ~0");
        }
    }

    #[test]
    fn col_sums_of_a_zero_width_matrix_is_empty() {
        let a = Matrix::zeros(3, 0);
        assert_eq!(a.col_sums(), Vec::<f32>::new());
        assert_eq!(a.center_columns(), a);
    }

    #[test]
    fn row_argmax_picks_first_max() {
        let m = Matrix::from_rows(&[&[1.0, 3.0, 3.0, 2.0]]);
        assert_eq!(m.row_argmax(0), 1);
    }

    #[test]
    fn slicing_and_concatenation_roundtrip() {
        let mut rng = Rng::new(11);
        let a = Matrix::randn(6, 5, 1.0, &mut rng);
        let top = a.slice_rows(0, 2);
        let bottom = a.slice_rows(2, 6);
        assert_eq!(top.vcat(&bottom), a);
        let left = a.slice_cols(0, 3);
        let right = a.slice_cols(3, 5);
        assert_eq!(left.hcat(&right), a);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::microkernel::{gemm_arms, gemm_scalar, gemm_transpose_b_scalar, transpose_arms};
    use proptest::prelude::*;

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-5.0f32..5.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    /// Pins every arm of both kernels by name (a host dispatches to one
    /// of each) bit for bit to its kernel's scalar arm on dense row-major
    /// operands, on every geometry they serve, and both scalar products to
    /// `matmul_naive` within the fused-rounding envelope. With
    /// `poison > 0` one lhs and one rhs element are non-finite, which must
    /// poison exactly their output row and column.
    fn check_arms(m: usize, k: usize, n: usize, poison: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let mut a = Matrix::randn(m, k, 1.0, &mut rng);
        let mut b = Matrix::randn(k, n, 1.0, &mut rng);
        let s = seed as usize;
        let poisoned = (poison > 0 && m * k * n > 0).then(|| {
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison - 1];
            let (row, col) = (s % m, s / 7 % n);
            a[(row, s % k)] = bad;
            b[(s / 3 % k, col)] = bad;
            (row, col)
        });
        let geometry = format!("{m}x{k}x{n}, poison {poison}, seed {seed}");
        // A scalar arm's dense product against naive: within the envelope,
        // or non-finite on exactly the poisoned row and column.
        let check_naive = |out: &Matrix, arm: &str| {
            if let Some((row, col)) = poisoned {
                for i in 0..m {
                    for j in 0..n {
                        let finite = out[(i, j)].is_finite();
                        assert_eq!(
                            finite,
                            i != row && j != col,
                            "{arm} ({i},{j}) of {geometry}"
                        );
                    }
                }
            } else {
                let v = max_fused_violation(out, &a, &b);
                assert!(v <= 1.0, "{arm} out of tolerance at {geometry}: {v}");
            }
        };
        let packed = PackedF32::pack(&b);
        let mut reference = Matrix::zeros(m, n);
        gemm_scalar(a.lhs_view(), m, &packed, &mut reference.data, n);
        check_naive(&reference, "scalar");
        let want = bits(reference.as_slice());

        // The rhs packed in place from a wider matrix (`matmul_block_into`).
        let mut panel = PackedF32::default();
        panel.pack_block(&Matrix::filled(k, 2, f32::NAN).hcat(&b), 0..k, 2..n + 2);
        let at = a.transpose();
        let (sentinel, stride) = (12345.0f32, n + 3);
        for (name, arm) in gemm_arms() {
            // The row-major view (`matmul_into`, `matmul_prepacked_into`)
            // and the transposed view (`matmul_transpose_a`), each
            // into a dirty buffer.
            for (view, layout) in [
                (a.lhs_view(), "row-major"),
                (at.transposed_view(), "transposed"),
            ] {
                let mut out = vec![f32::NAN; m * n];
                arm(view, m, &packed, &mut out, n);
                assert_eq!(bits(&out), want, "{name}, {layout} view at {geometry}");
            }
            // A strided output block (`matmul_block_into`): the product
            // lands at (1, 2) of a sentinel-filled matrix whose other lanes
            // stay untouched.
            let mut out = Matrix::filled(m + 2, stride, sentinel);
            arm(a.lhs_view(), m, &panel, &mut out.data[stride + 2..], stride);
            let block = out.slice_rows(1, m + 1).slice_cols(2, n + 2);
            assert_eq!(
                bits(block.as_slice()),
                want,
                "{name}, strided block at {geometry}"
            );
            let untouched = out
                .data
                .iter()
                .filter(|x| x.to_bits() == sentinel.to_bits());
            assert_eq!(
                untouched.count(),
                (m + 2) * stride - m * n,
                "{name}, {geometry}"
            );
        }

        // The dots (`matmul_transpose_b_into` and its block form), on dense
        // runs and on runs strided inside wider matrices whose extra
        // columns are NaN, so a read past `k` would show.
        let bt = b.transpose();
        let (ra, rb) = (a.strided_rows(0), bt.strided_rows(0));
        gemm_transpose_b_scalar(ra, rb, (m, k, n), &mut reference.data);
        check_naive(&reference, "scalar dots");
        let want = bits(reference.as_slice());
        let wide_a = a.hcat(&Matrix::filled(m, 3, f32::NAN));
        let wide_bt = bt.hcat(&Matrix::filled(n, 3, f32::NAN));
        for (name, arm) in transpose_arms() {
            for (lhs, rhs, runs) in [(&a, &bt, "dense"), (&wide_a, &wide_bt, "strided")] {
                let mut out = vec![f32::NAN; m * n];
                arm(
                    lhs.strided_rows(0),
                    rhs.strided_rows(0),
                    (m, k, n),
                    &mut out,
                );
                assert_eq!(bits(&out), want, "{name}, {runs} runs at {geometry}");
            }
        }
    }

    #[test]
    fn every_arm_covers_the_edge_geometries() {
        // Empty operands, an empty reduction (k = 0 must write zeros over
        // a dirty buffer), exact and ragged panels: fixed, so no draw of
        // the property below can miss them.
        for (m, k, n) in [
            (0, 0, 0),
            (0, 5, 7),
            (5, 7, 0),
            (3, 0, 17),
            (1, 1, 1),
            (6, 9, 16),
            (17, 16, 17),
            (7, 13, 33),
        ] {
            for poison in 0..4 {
                check_arms(m, k, n, poison, 99);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_transpose_of_product(
            a in arb_matrix(3, 4),
            b in arb_matrix(4, 2),
        ) {
            // (AB)^T = B^T A^T
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            prop_assert!(left.approx_eq(&right, 1e-4));
        }

        #[test]
        fn prop_matmul_distributes_over_addition(
            a in arb_matrix(3, 3),
            b in arb_matrix(3, 3),
            c in arb_matrix(3, 3),
        ) {
            // A(B + C) = AB + AC
            let left = a.matmul(&(&b + &c));
            let right = &a.matmul(&b) + &a.matmul(&c);
            prop_assert!(left.approx_eq(&right, 1e-3));
        }

        #[test]
        fn prop_matmul_associative(
            a in arb_matrix(2, 3),
            b in arb_matrix(3, 4),
            c in arb_matrix(4, 2),
        ) {
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!(left.approx_eq(&right, 1e-2));
        }

        #[test]
        fn prop_scaling_commutes_with_matmul(
            a in arb_matrix(3, 3),
            b in arb_matrix(3, 3),
            s in -3.0f32..3.0,
        ) {
            let left = a.scaled(s).matmul(&b);
            let right = a.matmul(&b).scaled(s);
            prop_assert!(left.approx_eq(&right, 1e-3));
        }

        #[test]
        fn prop_frobenius_triangle_inequality(
            a in arb_matrix(4, 4),
            b in arb_matrix(4, 4),
        ) {
            let sum = &a + &b;
            prop_assert!(
                sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-4
            );
        }

        #[test]
        fn prop_center_columns_is_idempotent(a in arb_matrix(6, 3)) {
            let once = a.center_columns();
            let twice = once.center_columns();
            prop_assert!(once.approx_eq(&twice, 1e-4));
        }

        #[test]
        fn prop_every_arm_is_bit_identical_to_the_scalar_arm(
            m in 0usize..50,
            k in 0usize..50,
            n in 0usize..50,
            poison in 0usize..4,
            seed in 0u64..1u64 << 32,
        ) {
            check_arms(m, k, n, poison, seed);
        }

        #[test]
        fn prop_dispatched_matmul_matches_naive_at_adversarial_shapes(
            // Free dims up to 49: straddles the 8-lane width, every MR row
            // block split (6/4/2/1) and the 16-column panel tail — with K
            // deliberately off every multiple.
            m in 1usize..50,
            k in 1usize..50,
            n in 1usize..50,
            seed in 0u64..1u64 << 32,
        ) {
            let mut rng = Rng::new(seed);
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            // The dispatched kernel, pinned to the documented
            // fused-rounding envelope.
            let got = a.matmul(&b);
            let v = max_fused_violation(&got, &a, &b);
            prop_assert!(v <= 1.0, "out of tolerance at {}x{}x{}: {}", m, k, n, v);
            // Prepacking never changes results.
            prop_assert_eq!(&a.matmul_prepacked(&PackedF32::pack(&b)), &got);
        }

        #[test]
        fn prop_dispatched_transpose_b_matches_naive_at_adversarial_shapes(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            seed in 0u64..1u64 << 32,
        ) {
            let mut rng = Rng::new(seed);
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            let got = a.matmul_transpose_b(&bt);
            let v = max_fused_violation(&got, &a, &bt.transpose());
            prop_assert!(v <= 1.0, "tb out of tolerance at {}x{}x{}: {}", m, k, n, v);
        }

        #[test]
        fn prop_block_kernels_match_the_copying_path_bitwise(
            // One (sample, head) block of stacked Q/K/V per case, against
            // `slice_rows` + `slice_cols` copies through the dense entry
            // points.
            tokens_ix in 0usize..4,
            head_dim in 3usize..=64,
            heads in 1usize..=6,
            pick in 0usize..12,
            poison in 0usize..4,
            seed in 0u64..1u64 << 32,
        ) {
            let t = [1usize, 5, 17, 197][tokens_ix];
            let (samples, dim) = (2, heads * head_dim);
            let (s, h) = (pick % samples, pick / samples % heads);
            let (rows, cols) = (s * t..(s + 1) * t, h * head_dim..(h + 1) * head_dim);
            let mut rng = Rng::new(seed);
            let mut q = Matrix::randn(samples * t, dim, 1.0, &mut rng);
            let mut k = Matrix::randn(samples * t, dim, 1.0, &mut rng);
            let mut v = Matrix::randn(samples * t, dim, 1.0, &mut rng);
            if poison > 0 {
                // A whole non-finite token row inside the block.
                let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison - 1];
                let r = rows.start + seed as usize % t;
                for m in [&mut q, &mut k, &mut v] {
                    m.row_mut(r).fill(bad);
                }
            }
                let block = |m: &Matrix| {
                m.slice_rows(rows.start, rows.end).slice_cols(cols.start, cols.end)
            };
            let (qh, kh, vh) = (block(&q), block(&k), block(&v));

            // Scores: Q_h K_h^T read in place, and with the operands
            // swapped its exact transpose (`fma(a, b, c) == fma(b, a, c)`).
            let mut want = Matrix::zeros(t, t);
            qh.matmul_transpose_b_into(&kh, &mut want);
            let mut got = vec![f32::NAN; t * t];
            q.matmul_transpose_b_block_into(&k, rows.clone(), cols.clone(), &mut got);
            prop_assert_eq!(bits(&got), bits(want.as_slice()));
            k.matmul_transpose_b_block_into(&q, rows.clone(), cols.clone(), &mut got);
            prop_assert_eq!(bits(&got), bits(want.transpose().as_slice()));

            // Context: P V_h from P stored transposed, written in place,
            // through a dirty, larger panel buffer, into a sentinel-filled
            // output — the row-major product bit for bit.
            let probs = Matrix::randn(t, t, 1.0, &mut rng);
            let mut want = Matrix::zeros(t, head_dim);
            probs.matmul_into(&vh, &mut want);
            let mut panel = PackedF32::pack(&Matrix::filled(200, 70, f32::NAN));
            let sentinel = 12345.0f32;
            let mut out = Matrix::filled(samples * t, dim, sentinel);
            Matrix::matmul_block_into(
                probs.transpose().as_slice(), &v, rows.clone(), cols.clone(), &mut panel, &mut out,
            );
            prop_assert_eq!(bits(block(&out).as_slice()), bits(want.as_slice()));
            let untouched = out.as_slice().iter().filter(|x| x.to_bits() == sentinel.to_bits());
            prop_assert_eq!(untouched.count(), samples * t * dim - t * head_dim);
            prop_assert_eq!(panel.content_hash(), PackedF32::pack(&vh).content_hash());
        }

        #[test]
        fn prop_transpose_kernels_match_naive(
            a in arb_matrix(34, 6),
            c in arb_matrix(37, 6),
            d in arb_matrix(34, 5),
        ) {
            let tb = a.matmul_transpose_b(&c);
            prop_assert!(tb.approx_eq(&a.matmul_naive(&c.transpose()), 1e-4));
            let ta = a.matmul_transpose_a(&d);
            prop_assert!(ta.approx_eq(&a.transpose().matmul_naive(&d), 1e-4));
        }

        #[test]
        fn prop_hcat_vcat_shapes(a in arb_matrix(3, 2), b in arb_matrix(3, 5)) {
            let h = a.hcat(&b);
            prop_assert_eq!(h.shape(), (3, 7));
            let v = h.slice_cols(0, 2).vcat(&a);
            prop_assert_eq!(v.shape(), (6, 2));
        }
    }
}
