//! Row-major dense `f32` matrix.

use crate::microkernel::{f32_simd_available, LhsView, PackedF32, StridedRows};
use crate::rng::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Range, Sub};

/// Tile edge used by the tiled scalar matmul fallback.
///
/// 32 rows of f32 at ViT widths (64–1536 columns) keep one tile of the
/// streamed operand plus a block of output rows inside a typical 256 KiB
/// L2 while staying comfortably under L1 for the small test configs. The
/// accumulation order of every kernel is independent of this constant
/// (ascending `k` per output element), so changing it cannot change
/// results — only speed.
pub const MATMUL_TILE: usize = 32;

/// `rhs` footprint (bytes) below which the scalar matmul arms skip tiling.
///
/// When the whole streamed operand is cache-resident (L2 on any machine
/// this targets), blocking saves no memory traffic — every `rhs` row is a
/// hit anyway — and the extra tile loops only cost overhead. The earlier
/// 16 KiB (half-of-L1) threshold was too conservative: `BENCH_matmul.json`
/// showed the tiled path *losing* to naive at 96x96x96 (36 KiB rhs), so
/// the cutoff now admits anything up to 128 KiB and tiling is reserved
/// for operands that genuinely spill (large MLP expansions). Both scalar
/// paths share the same ascending-`k` accumulation order, so this
/// dispatch can never change results.
const SMALL_GEMM_RHS_BYTES: usize = 128 * 1024;

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
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
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

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
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

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Delegates to the dispatched kernel ([`Self::matmul_into`]): the
    /// packed SIMD microkernel on AVX2+FMA hosts, the scalar
    /// untiled/tiled ladder elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Reference ikj matmul with no blocking — the ground truth every
    /// other kernel is validated against. Accumulates each output element
    /// in ascending-`k` order with one scalar accumulator (round after
    /// every multiply, no fusing): the scalar arms of [`Self::matmul_into`]
    /// reproduce it bit for bit, and the SIMD arm is pinned to it within
    /// the fused-rounding tolerance documented in `crate::microkernel`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
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

    /// Matrix product written into a caller-owned output buffer, so hot
    /// loops (batched forwards, attention scores) can reuse one allocation
    /// across calls.
    ///
    /// Dispatch ladder, decided per call:
    ///
    /// 1. **SIMD** — on x86-64 with AVX2+FMA ([`crate::f32_simd_available`]),
    ///    `rhs` is packed into [`PackedF32`] column panels and the
    ///    register-tiled fused kernel in `crate::microkernel` runs. Hot
    ///    loops that reuse the same `rhs` should pack once and call
    ///    [`Self::matmul_prepacked_into`] to skip the per-call pack.
    /// 2. **Untiled scalar** — when `rhs` is cache-resident
    ///    (`SMALL_GEMM_RHS_BYTES`), the plain ikj loop: tiling an operand
    ///    that already fits in cache only adds loop overhead.
    /// 3. **Tiled scalar** — output rows and the reduction tiled at
    ///    [`MATMUL_TILE`] so a `MATMUL_TILE`-row panel of `rhs` is streamed
    ///    once per row block.
    ///
    /// Both scalar arms accumulate each element in ascending-`k` order with
    /// one scalar accumulator and are **bit-identical** to
    /// [`Self::matmul_naive`]. The SIMD arm keeps the same per-element
    /// chain but fuses each multiply-add (one rounding per term), so it
    /// matches naive within the documented tolerance — see
    /// `crate::microkernel` — while staying a pure function of
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
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            let packed = PackedF32::pack(rhs);
            crate::microkernel::gemm_packed(
                self.lhs_view(),
                self.rows,
                &packed,
                &mut out.data,
                rhs.cols,
            );
            return;
        }
        self.matmul_into_scalar(rhs, out);
    }

    /// Row-major [`LhsView`] of this matrix for the packed kernels.
    fn lhs_view(&self) -> LhsView<'_> {
        LhsView {
            base: &self.data,
            row_stride: self.cols,
            k_stride: 1,
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

    /// The scalar dispatch of [`Self::matmul_into`]: untiled when `rhs` is
    /// cache-resident, tiled otherwise. Both arms are bit-identical to
    /// [`Self::matmul_naive`].
    fn matmul_into_scalar(&self, rhs: &Matrix, out: &mut Matrix) {
        if rhs.data.len() * std::mem::size_of::<f32>() <= SMALL_GEMM_RHS_BYTES {
            self.matmul_into_scalar_untiled(rhs, out);
        } else {
            self.matmul_into_scalar_tiled(rhs, out);
        }
    }

    /// Untiled scalar ikj arm — the [`Self::matmul_naive`] loop writing
    /// into a reused buffer.
    fn matmul_into_scalar_untiled(&self, rhs: &Matrix, out: &mut Matrix) {
        gemm_scalar_strided(
            &self.data,
            (self.rows, self.cols, rhs.cols),
            rhs.strided_rows(0),
            &mut out.data,
            rhs.cols,
        );
    }

    /// Tiled scalar arm: output rows and the reduction tiled at
    /// [`MATMUL_TILE`]. Ascending-`k` per element, bit-identical to the
    /// untiled arm — tiling only reorders *which rows* are in flight,
    /// never the reduction order within an element.
    fn matmul_into_scalar_tiled(&self, rhs: &Matrix, out: &mut Matrix) {
        out.data.fill(0.0);
        let n = rhs.cols;
        for ii in (0..self.rows).step_by(MATMUL_TILE) {
            let i_end = (ii + MATMUL_TILE).min(self.rows);
            for kk in (0..self.cols).step_by(MATMUL_TILE) {
                let k_end = (kk + MATMUL_TILE).min(self.cols);
                for i in ii..i_end {
                    let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    for (k, &a_ik) in a_row[kk..k_end].iter().enumerate() {
                        let b_row = &rhs.data[(kk + k) * n..(kk + k + 1) * n];
                        for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                            *o += a_ik * b_kj;
                        }
                    }
                }
            }
        }
    }

    /// Matrix product against an operand packed once with
    /// [`PackedF32::pack`] — the panel-cached fast path for weight
    /// operands that are reused across many calls (see
    /// `pivot_nn::PreparedLinear`).
    ///
    /// Bit-identical to [`Self::matmul`] against the unpacked operand on
    /// every machine: the SIMD arm runs the identical kernel (packing is
    /// the only work hoisted out), and the non-SIMD fallback replays the
    /// scalar unfused accumulation order through the panel layout.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != packed.k()`.
    pub fn matmul_prepacked(&self, packed: &PackedF32) -> Matrix {
        let mut out = Matrix::zeros(self.rows, packed.n());
        self.matmul_prepacked_into(packed, &mut out);
        out
    }

    /// [`Self::matmul_prepacked`] into a caller-owned output buffer.
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
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            crate::microkernel::gemm_packed(
                self.lhs_view(),
                self.rows,
                packed,
                &mut out.data,
                packed.n(),
            );
            return;
        }
        crate::microkernel::gemm_panels_unfused(self.lhs_view(), self.rows, packed, &mut out.data);
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
    /// no packing is needed; the dispatch ladder is:
    ///
    /// 1. **SIMD** — AVX2+FMA lane-split fused dot kernel (exact
    ///    accumulation order documented in `crate::microkernel`).
    /// 2. **Untiled scalar** — when `rhs` is cache-resident
    ///    (`SMALL_GEMM_RHS_BYTES`), plain row-pair dot products: the
    ///    attention-score GEMM (`17x16 * (17x16)^T`, ~1 KiB rhs) lives
    ///    here and previously paid the tile-loop overhead for nothing.
    /// 3. **Tiled scalar** — output rows and `rhs` rows tiled at
    ///    [`MATMUL_TILE`] so a block of `rhs` rows stays cache-resident
    ///    across a block of `self` rows.
    ///
    /// Both scalar arms are single ascending-`k` accumulator chains and
    /// bit-identical to each other (and to `matmul_naive` against the
    /// materialized transpose).
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
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            crate::microkernel::gemm_transpose_b(
                self.strided_rows(0),
                rhs.strided_rows(0),
                (self.rows, self.cols, rhs.rows),
                &mut out.data,
            );
            return;
        }
        self.matmul_transpose_b_into_scalar(rhs, out);
    }

    /// The scalar dispatch of [`Self::matmul_transpose_b_into`]: untiled
    /// row-pair dots when `rhs` is cache-resident, tiled otherwise.
    fn matmul_transpose_b_into_scalar(&self, rhs: &Matrix, out: &mut Matrix) {
        if rhs.data.len() * std::mem::size_of::<f32>() <= SMALL_GEMM_RHS_BYTES {
            self.matmul_transpose_b_scalar_untiled(rhs, out);
        } else {
            self.matmul_transpose_b_scalar_tiled(rhs, out);
        }
    }

    /// Untiled scalar arm of the transposed-B product.
    fn matmul_transpose_b_scalar_untiled(&self, rhs: &Matrix, out: &mut Matrix) {
        gemm_transpose_b_scalar_strided(
            self.strided_rows(0),
            rhs.strided_rows(0),
            (self.rows, self.cols, rhs.rows),
            &mut out.data,
        );
    }

    /// Tiled scalar arm of the transposed-B product — same per-element dot
    /// as the untiled arm, reordered across elements only.
    fn matmul_transpose_b_scalar_tiled(&self, rhs: &Matrix, out: &mut Matrix) {
        let n = rhs.rows;
        for ii in (0..self.rows).step_by(MATMUL_TILE) {
            let i_end = (ii + MATMUL_TILE).min(self.rows);
            for jj in (0..n).step_by(MATMUL_TILE) {
                let j_end = (jj + MATMUL_TILE).min(n);
                for i in ii..i_end {
                    let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                    for j in jj..j_end {
                        let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                        let mut acc = 0.0;
                        for (&a, &b) in a_row.iter().zip(b_row) {
                            acc += a * b;
                        }
                        out.data[i * n + j] = acc;
                    }
                }
            }
        }
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
    /// `slice_rows` / `slice_cols` copies.
    ///
    /// Bit-identical to [`Self::matmul_transpose_b_into`] on the two copied
    /// blocks, on every machine: the SIMD arm runs the same lane-split dot
    /// kernels on the same runs, the scalar arm the same ascending-`k`
    /// chain.
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
        let (a, b) = (self.strided_rows(at), rhs.strided_rows(at));
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            crate::microkernel::gemm_transpose_b(a, b, (t, k, t), out);
            return;
        }
        gemm_transpose_b_scalar_strided(a, b, (t, k, t), out);
    }

    /// `out[rows, cols] = lhs * rhs[rows, cols]` for a dense
    /// `rows.len() x rows.len()` `lhs`, reading the `rhs` block and writing
    /// the `out` block in place at the matrices' own row stride — one
    /// head's `softmax(QK^T) V` landing directly in the context matrix.
    /// The rest of `out` is left untouched.
    ///
    /// Bit-identical to [`Self::matmul_into`] on the copied block, on every
    /// machine: the SIMD arm repacks the block into `panel` (the caller's
    /// reusable buffer, see [`PackedF32::pack_block`]) and runs the same
    /// register tile with an output stride; the scalar arm runs the same
    /// ascending-`k` chain and leaves `panel` alone.
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
        let (t, n, stride) = (rows.len(), cols.len(), rhs.cols);
        assert_eq!(lhs.len(), t * t, "block lhs is not {t}x{t}");
        if t == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            panel.pack_block(rhs, rows, cols);
            let view = LhsView {
                base: lhs,
                row_stride: t,
                k_stride: 1,
            };
            crate::microkernel::gemm_packed(view, t, panel, &mut out.data[at..], stride);
            return;
        }
        // The scalar arm reads the block where it lies.
        let _ = panel;
        gemm_scalar_strided(
            lhs,
            (t, t, n),
            rhs.strided_rows(at),
            &mut out.data[at..],
            stride,
        );
    }

    /// Matrix product `self.transpose() * rhs` without materializing the
    /// transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_transpose_a_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul_transpose_a`] into a caller-owned output buffer.
    ///
    /// On AVX2+FMA machines this packs `rhs` and runs the same fused
    /// packed kernel as [`Self::matmul_into`] with a column-strided view
    /// of `self` — the transpose is never materialized. The scalar
    /// fallback runs the reduction over `self` rows in ascending order
    /// (dense inner loops, untiled: the weight-gradient shapes this serves
    /// keep `rhs` cache-resident), bit-identical to `transpose().matmul_naive(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `out` is not
    /// `self.cols() x rhs.cols()`.
    pub fn matmul_transpose_a_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            rhs.rows,
            "matmul_transpose_a shape mismatch: {:?}^T x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols),
            "matmul_transpose_a_into output shape mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            let packed = PackedF32::pack(rhs);
            let view = LhsView {
                base: &self.data,
                row_stride: 1,
                k_stride: self.cols,
            };
            crate::microkernel::gemm_packed(view, self.cols, &packed, &mut out.data, rhs.cols);
            return;
        }
        self.matmul_transpose_a_into_scalar(rhs, out);
    }

    /// Scalar arm of the transposed-A product (k-major accumulation,
    /// ascending `k` per element).
    fn matmul_transpose_a_into_scalar(&self, rhs: &Matrix, out: &mut Matrix) {
        out.data.fill(0.0);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a_ki) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b_kj;
                }
            }
        }
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

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
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

    /// Adds a row vector to every row (broadcast add), returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *o += b;
            }
        }
        out
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
        for row in self.iter_rows() {
            for (s, &v) in sums.iter_mut().zip(row) {
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
    pub fn hcat(&self, other: &Matrix) -> Matrix {
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

/// The scalar ikj product over strided rows: row `i` of the `m x n`
/// output, at `out[i * out_stride]`, accumulates `a[i * k + kk] * b.run(kk, n)`
/// in ascending `kk` from `0.0` with one accumulator per element — the
/// [`Matrix::matmul_naive`] chain. `a` is dense `m x k`.
fn gemm_scalar_strided(
    a: &[f32],
    (m, k, n): (usize, usize, usize),
    b: StridedRows<'_>,
    out: &mut [f32],
    out_stride: usize,
) {
    for i in 0..m {
        let out_row = &mut out[i * out_stride..i * out_stride + n];
        out_row.fill(0.0);
        for (kk, &a_ik) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (o, &b_kj) in out_row.iter_mut().zip(b.run(kk, n)) {
                *o += a_ik * b_kj;
            }
        }
    }
}

/// The scalar `A * B^T` over strided rows: `out[i * n + j]` of the dense
/// `m x n` output is the single-accumulator ascending-`k` dot of
/// `a.run(i, k)` and `b.run(j, k)`.
fn gemm_transpose_b_scalar_strided(
    a: StridedRows<'_>,
    b: StridedRows<'_>,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    for i in 0..m {
        let a_row = a.run(i, k);
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b.run(j, k)) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

/// Worst elementwise deviation of `got` from `a.matmul_naive(b)`, as a
/// fraction of the documented fused-rounding envelope
/// `2k · ε · max(|A|·|B|, 1)` (see [`crate::microkernel`]); `<= 1.0`
/// means every element is within tolerance. Test-only oracle for the
/// SIMD arm; requires finite inputs.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
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
    fn scalar_arms_are_bit_identical_to_naive() {
        let mut rng = Rng::new(42);
        // Sizes straddling the tile edge: smaller, equal, off-by-one, multi-tile.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (MATMUL_TILE, MATMUL_TILE, MATMUL_TILE),
            (MATMUL_TILE + 1, MATMUL_TILE - 1, 2 * MATMUL_TILE + 3),
            (70, 65, 33),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let naive = a.matmul_naive(&b);
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_scalar_untiled(&b, &mut out);
            assert_eq!(naive, out, "untiled arm differs from naive at {m}x{k}x{n}");
            a.matmul_into_scalar_tiled(&b, &mut out);
            assert_eq!(naive, out, "tiled arm differs from naive at {m}x{k}x{n}");
            a.matmul_into_scalar(&b, &mut out);
            assert_eq!(naive, out, "scalar dispatch differs at {m}x{k}x{n}");
        }
    }

    #[test]
    fn scalar_dispatch_is_bit_identical_across_the_threshold() {
        // rhs footprints straddling SMALL_GEMM_RHS_BYTES (128 KiB):
        // 256x126 f32 = 126 KiB takes the untiled arm, 256x130 = 130 KiB
        // the tiled arm. Dispatch must never change results.
        let mut rng = Rng::new(77);
        for &(m, k, n) in &[(8, 256, 126), (8, 256, 130)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let naive = a.matmul_naive(&b);
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_scalar(&b, &mut out);
            assert_eq!(out, naive, "scalar dispatch changed results at {m}x{k}x{n}");
        }
    }

    #[test]
    fn dispatched_matmul_tracks_naive_at_vit_shapes() {
        // The benched ViT shapes: qkv slice, mlp expansion, square, batched.
        // The SIMD arm fuses multiply-adds, so it is pinned to naive within
        // the documented envelope; without SIMD the dispatch is bit-identical.
        let mut rng = Rng::new(78);
        for &(m, k, n) in &[(17, 64, 64), (17, 64, 128), (96, 96, 96), (544, 64, 64)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let got = a.matmul(&b);
            if f32_simd_available() {
                let v = max_fused_violation(&got, &a, &b);
                assert!(v <= 1.0, "SIMD arm out of tolerance at {m}x{k}x{n}: {v}");
            } else {
                assert_eq!(got, a.matmul_naive(&b), "dispatch changed results");
            }
        }
    }

    #[test]
    fn prepacked_matmul_is_bit_identical_to_matmul() {
        // Packing is the only work hoisted out: the prepacked entry point
        // must reproduce matmul() exactly on every machine, including into
        // a dirty output buffer.
        let mut rng = Rng::new(79);
        for &(m, k, n) in &[(1, 1, 1), (7, 13, 17), (17, 64, 64), (33, 31, 40)] {
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
    fn transpose_scalar_arms_are_bit_identical_to_naive() {
        let mut rng = Rng::new(80);
        // Attention-score shape (17x16 * (17x16)^T) plus tile-straddling.
        for &(m, k, n) in &[(17, 16, 17), (40, 33, 37), (5, 70, 64)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            let naive = a.matmul_naive(&bt.transpose());
            let mut out = Matrix::zeros(m, n);
            a.matmul_transpose_b_scalar_untiled(&bt, &mut out);
            assert_eq!(out, naive, "tb untiled arm differs at {m}x{k}x{n}");
            a.matmul_transpose_b_scalar_tiled(&bt, &mut out);
            assert_eq!(out, naive, "tb tiled arm differs at {m}x{k}x{n}");
            a.matmul_transpose_b_into_scalar(&bt, &mut out);
            assert_eq!(out, naive, "tb scalar dispatch differs at {m}x{k}x{n}");

            // transpose_a: the k-major scalar arm accumulates each element
            // in the same ascending-k order as naive on the transpose.
            let c = Matrix::randn(m, n, 1.0, &mut rng);
            let naive_ta = a.transpose().matmul_naive(&c);
            let mut out_ta = Matrix::zeros(k, n);
            a.matmul_transpose_a_into_scalar(&c, &mut out_ta);
            assert_eq!(out_ta, naive_ta, "ta scalar arm differs at {m}x{k}x{n}");
        }
    }

    #[test]
    fn dispatched_transpose_kernels_track_naive() {
        let mut rng = Rng::new(81);
        for &(m, k, n) in &[(17, 16, 17), (40, 33, 37)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            let got = a.matmul_transpose_b(&bt);
            let c = Matrix::randn(m, n, 1.0, &mut rng);
            let got_ta = a.matmul_transpose_a(&c);
            if f32_simd_available() {
                let v = max_fused_violation(&got, &a, &bt.transpose());
                assert!(v <= 1.0, "tb SIMD out of tolerance at {m}x{k}x{n}: {v}");
                let v = max_fused_violation(&got_ta, &a.transpose(), &c);
                assert!(v <= 1.0, "ta SIMD out of tolerance at {m}x{k}x{n}: {v}");
            } else {
                assert_eq!(got, a.matmul_naive(&bt.transpose()));
                assert_eq!(got_ta, a.transpose().matmul_naive(&c));
            }
        }
    }

    #[test]
    fn non_finite_inputs_propagate_on_every_arm() {
        // Fault-visibility contract: a poisoned lhs element must poison its
        // whole output row, a poisoned rhs element its whole output column,
        // and nothing else — on the dispatched path and both scalar arms.
        // (±inf may legitimately become NaN through inf−inf, so the
        // assertion is non-finiteness, not exact value.)
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
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_scalar_untiled(&b, &mut out);
            check_row(&out, "untiled");
            a.matmul_into_scalar_tiled(&b, &mut out);
            check_row(&out, "tiled");
            check_row(&a.matmul_prepacked(&PackedF32::pack(&b)), "prepacked");

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
            a2.matmul_into_scalar_untiled(&b2, &mut out);
            check_col(&out, "untiled");
            a2.matmul_into_scalar_tiled(&b2, &mut out);
            check_col(&out, "tiled");
            check_col(&a2.matmul_prepacked(&PackedF32::pack(&b2)), "prepacked");
            // transposed-B: same poisoned operand through the dot kernels.
            check_col(&a2.matmul_transpose_b(&b2.transpose()), "dispatched tb");
            let mut out_tb = Matrix::zeros(m, n);
            a2.matmul_transpose_b_into_scalar(&b2.transpose(), &mut out_tb);
            check_col(&out_tb, "scalar tb");
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

        let c = Matrix::randn(7, 6, 1.0, &mut rng);
        let mut out_ta = Matrix::filled(5, 6, 1e30);
        a.matmul_transpose_a_into(&c, &mut out_ta);
        assert_eq!(out_ta, a.matmul_transpose_a(&c));
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
    fn broadcast_add() {
        let a = Matrix::zeros(2, 3);
        let b = a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(b.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn hadamard_and_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-5.0f32..5.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
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
        fn prop_dispatched_matmul_matches_naive_at_adversarial_shapes(
            // Free dims up to 49: straddles the 8-lane width, every MR row
            // block split (6/4/2/1), the 16-column panel tail, and
            // MATMUL_TILE — with K deliberately off every multiple.
            m in 1usize..50,
            k in 1usize..50,
            n in 1usize..50,
            seed in 0u64..1u64 << 32,
        ) {
            let mut rng = Rng::new(seed);
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let naive = a.matmul_naive(&b);
            // Both scalar arms are exact at every shape, regardless of
            // which one the size dispatch would pick.
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_scalar_untiled(&b, &mut out);
            prop_assert_eq!(&out, &naive);
            a.matmul_into_scalar_tiled(&b, &mut out);
            prop_assert_eq!(&out, &naive);
            // The dispatched kernel: exact without SIMD, pinned to the
            // documented fused-rounding envelope with it.
            let got = a.matmul(&b);
            if f32_simd_available() {
                let v = max_fused_violation(&got, &a, &b);
                prop_assert!(v <= 1.0, "SIMD arm out of tolerance at {}x{}x{}: {}", m, k, n, v);
            } else {
                prop_assert_eq!(&got, &naive);
            }
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
            let naive = a.matmul_naive(&bt.transpose());
            let mut out = Matrix::zeros(m, n);
            a.matmul_transpose_b_scalar_untiled(&bt, &mut out);
            prop_assert_eq!(&out, &naive);
            a.matmul_transpose_b_scalar_tiled(&bt, &mut out);
            prop_assert_eq!(&out, &naive);
            let got = a.matmul_transpose_b(&bt);
            if f32_simd_available() {
                let v = max_fused_violation(&got, &a, &bt.transpose());
                prop_assert!(v <= 1.0, "tb SIMD out of tolerance at {}x{}x{}: {}", m, k, n, v);
            } else {
                prop_assert_eq!(&got, &naive);
            }
        }

        #[test]
        fn prop_block_kernels_match_the_copying_path_bitwise(
            // One (sample, head) block of stacked Q/K/V per case, against
            // `slice_rows` + `slice_cols` copies through the dense entry
            // points — on the dispatched arm and, by name, the scalar one.
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
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            let block = |m: &Matrix| {
                m.slice_rows(rows.start, rows.end).slice_cols(cols.start, cols.end)
            };
            let (qh, kh, vh) = (block(&q), block(&k), block(&v));
            let at = rows.start * dim + cols.start;

            // Scores: Q_h K_h^T read in place.
            let mut want = Matrix::zeros(t, t);
            qh.matmul_transpose_b_into(&kh, &mut want);
            let mut got = vec![f32::NAN; t * t];
            q.matmul_transpose_b_block_into(&k, rows.clone(), cols.clone(), &mut got);
            prop_assert_eq!(bits(&got), bits(want.as_slice()));
            qh.matmul_transpose_b_into_scalar(&kh, &mut want);
            gemm_transpose_b_scalar_strided(
                q.strided_rows(at),
                k.strided_rows(at),
                (t, head_dim, t),
                &mut got,
            );
            prop_assert_eq!(bits(&got), bits(want.as_slice()));

            // Context: P V_h written in place, through a dirty, larger
            // panel buffer, into a sentinel-filled output.
            let probs = Matrix::randn(t, t, 1.0, &mut rng);
            let mut want = Matrix::zeros(t, head_dim);
            probs.matmul_into(&vh, &mut want);
            let mut panel = PackedF32::pack(&Matrix::filled(200, 70, f32::NAN));
            let sentinel = 12345.0f32;
            let mut out = Matrix::filled(samples * t, dim, sentinel);
            Matrix::matmul_block_into(
                probs.as_slice(), &v, rows.clone(), cols.clone(), &mut panel, &mut out,
            );
            prop_assert_eq!(bits(block(&out).as_slice()), bits(want.as_slice()));
            let untouched = out.as_slice().iter().filter(|x| x.to_bits() == sentinel.to_bits());
            prop_assert_eq!(untouched.count(), samples * t * dim - t * head_dim);
            if f32_simd_available() {
                prop_assert_eq!(panel.content_hash(), PackedF32::pack(&vh).content_hash());
            }
            probs.matmul_into_scalar(&vh, &mut want);
            gemm_scalar_strided(
                probs.as_slice(),
                (t, t, head_dim),
                v.strided_rows(at),
                &mut out.as_mut_slice()[at..],
                dim,
            );
            prop_assert_eq!(bits(block(&out).as_slice()), bits(want.as_slice()));
        }

        #[test]
        fn prop_transpose_kernels_match_naive(
            a in arb_matrix(MATMUL_TILE + 2, 6),
            c in arb_matrix(MATMUL_TILE + 5, 6),
            d in arb_matrix(MATMUL_TILE + 2, 5),
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
