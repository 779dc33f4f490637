//! The f32 GEMM: one kernel per platform behind two dispatch points.
//!
//! Every `Matrix` product is pack → one kernel. The streamed operand `B`
//! of `A·B` is repacked into contiguous column panels ([`PackedF32`]) —
//! per call, or once for a weight reused across calls
//! (`Matrix::matmul_prepacked_into`, cached by `pivot_nn::PreparedLinear`)
//! — and [`gemm`] sweeps the panels. `A · B^T` needs no packing: each
//! element is one dot product of two rows, which [`gemm_transpose_b`]
//! runs. These two functions are the only places the platform is chosen,
//! by [`f32_simd_available`]:
//!
//! * **AVX2+FMA** — an unrolled register-tiled kernel with fused
//!   multiply-adds (`core::arch`), and lane-split fused dot kernels.
//! * **Everywhere else** — one scalar panel kernel
//!   ([`gemm_panels_unfused`]) and one scalar strided dot
//!   ([`gemm_transpose_b_unfused`]), both unfused and **bit-identical** to
//!   `Matrix::matmul_naive`.
//!
//! # Numerics contract
//!
//! Fusing the multiply and add changes f32 rounding: the SIMD path is
//! **not** bit-identical to `Matrix::matmul_naive`. The contract instead
//! has two layers, both pinned by tests:
//!
//! * **Exact accumulation order.** Every output element is one ascending-`k`
//!   chain `acc = fma(a_ik, b_kj, acc)` with a single accumulator — the
//!   same chain regardless of the row-block size (`MR`) the element landed
//!   in, of the output's row count, or of panel padding. [`gemm_mirror`]
//!   replays that chain in scalar `f32::mul_add` and is **bit-identical**
//!   to the AVX2 kernel on every input, so the vector kernel is pinned
//!   exactly, not just within a tolerance. (The dot-product kernel used by
//!   `matmul_transpose_b_into` splits the reduction over 8 lanes; its
//!   fixed lane order and reduction tree are mirrored by [`dot_mirror`].)
//! * **Documented tolerance vs. the unfused reference.** Against
//!   `matmul_naive` (round after every multiply), each element differs by
//!   at most one rounding per fused term: `|simd − naive| ≤ k · ε · (|A|·|B|)`
//!   elementwise with `ε = 2^-23`, asserted with slack by the property
//!   tests. Non-finite inputs propagate (NaN in a row/column of the
//!   operands lands in every output element it feeds — fused arithmetic
//!   cannot launder it into a finite value).
//!
//! Because each element is a pure function of its input row and the packed
//! operand, results are independent of batching — stacking samples into a
//! wide GEMM reproduces the per-sample rows bit for bit, which is what the
//! workspace's batch-invariance `assert_eq!` contracts rely on.

use crate::Matrix;
use std::ops::Range;

/// Column-panel width of [`PackedF32`]: 16 f32 lanes = two AVX2 registers,
/// giving the 6×16 register tile (12 accumulators) that keeps enough
/// independent FMA chains in flight to hide the FMA latency.
pub const PANEL_WIDTH: usize = 16;

/// Whether the runtime CPU takes the f32 SIMD path (AVX2 **and** FMA).
///
/// The decision is a property of the machine, not of operand shapes, so
/// dispatch can never differ between a per-sample GEMM and the wide
/// batched GEMM over the same streamed operand.
pub fn f32_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A `k x n` f32 operand repacked into contiguous [`PANEL_WIDTH`]-column
/// panels for the SIMD microkernel.
///
/// Panel `p` holds columns `p*16 .. p*16+16` of the source, laid out
/// `k`-major (`panel[kk*16 + jj]`), so the kernel's reduction loop streams
/// one cache-line-aligned stretch of 16 columns per `k` step. The last
/// panel is zero-padded to full width; padded lanes are computed and
/// discarded, never stored (`fma(a, 0, acc)` leaves real lanes untouched).
///
/// # Example
///
/// ```
/// use pivot_tensor::{Matrix, PackedF32, Rng};
///
/// let mut rng = Rng::new(0);
/// let x = Matrix::randn(4, 8, 1.0, &mut rng);
/// let w = Matrix::randn(8, 3, 1.0, &mut rng);
/// let packed = PackedF32::pack(&w);
/// // Bit-identical to x.matmul(&w): same kernel, packing hoisted out.
/// assert_eq!(x.matmul_prepacked(&packed), x.matmul(&w));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedF32 {
    k: usize,
    n: usize,
    /// `ceil(n/16)` panels of `k * 16` floats each.
    data: Vec<f32>,
}

impl PackedF32 {
    /// Packs a matrix (the `rhs` of `Matrix::matmul`) into column panels.
    pub fn pack(rhs: &Matrix) -> Self {
        let (k, n) = rhs.shape();
        // Allocated zeroed in one go (not `default()` + `pack_block`, whose
        // `resize` would write the zeros a second time over megabytes).
        let mut packed = Self {
            k,
            n,
            data: vec![0.0f32; n.div_ceil(PANEL_WIDTH) * k * PANEL_WIDTH],
        };
        packed.fill_from(rhs, 0, 0);
        packed
    }

    /// Repacks `self` with the `rows x cols` block of `rhs`, reusing the
    /// panel storage (it grows to the largest block seen and is never
    /// shrunk) — for operands that change every call, like one head's `V`
    /// in attention, where [`Self::pack`] would allocate per call. Every
    /// lane of the new panels is written, padding included, so nothing of
    /// the previous contents survives; the result equals
    /// `PackedF32::pack(&rhs.slice_rows(..).slice_cols(..))`.
    /// `PackedF32::default()` is the empty buffer to start from.
    ///
    /// # Panics
    ///
    /// Panics if the block is not inside `rhs`.
    pub fn pack_block(&mut self, rhs: &Matrix, rows: Range<usize>, cols: Range<usize>) {
        assert!(
            rows.start <= rows.end && rows.end <= rhs.rows(),
            "pack_block rows {rows:?} out of {:?}",
            rhs.shape()
        );
        assert!(
            cols.start <= cols.end && cols.end <= rhs.cols(),
            "pack_block cols {cols:?} out of {:?}",
            rhs.shape()
        );
        (self.k, self.n) = (rows.len(), cols.len());
        self.data
            .resize(self.n.div_ceil(PANEL_WIDTH) * self.k * PANEL_WIDTH, 0.0);
        self.fill_from(rhs, rows.start, cols.start);
    }

    /// Writes every lane of the `k x n` panels from the block of `rhs`
    /// whose top-left element is `(r0, c0)`.
    fn fill_from(&mut self, rhs: &Matrix, r0: usize, c0: usize) {
        let (k, n, stride) = (self.k, self.n, rhs.cols());
        if k == 0 {
            return;
        }
        let src = rhs.as_slice();
        for (p, panel) in self.data.chunks_exact_mut(k * PANEL_WIDTH).enumerate() {
            let j0 = p * PANEL_WIDTH;
            let width = (n - j0).min(PANEL_WIDTH);
            for (kk, lanes) in panel.chunks_exact_mut(PANEL_WIDTH).enumerate() {
                let at = (r0 + kk) * stride + c0 + j0;
                lanes[..width].copy_from_slice(&src[at..at + width]);
                lanes[width..].fill(0.0);
            }
        }
    }

    /// Reduction length (rows of the packed operand).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical column count (padding excluded).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of panel storage, padding included.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// 128-bit structural content hash over the panel layout: logical
    /// shape plus every padded lane's bit pattern. Since `pack` is a pure
    /// function of the source matrix, equal source hashes imply equal
    /// panel hashes; this direct form lets tests and stores verify panel
    /// identity without reconstituting the source.
    pub fn content_hash(&self) -> u128 {
        let mut h = crate::ContentHasher::new();
        h.write_usize(self.k);
        h.write_usize(self.n);
        h.write_f32_slice(&self.data);
        h.finish()
    }

    /// Number of [`PANEL_WIDTH`]-column panels.
    fn n_panels(&self) -> usize {
        self.n.div_ceil(PANEL_WIDTH)
    }

    /// The packed panel `p` (`k * 16` floats).
    fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * PANEL_WIDTH..(p + 1) * self.k * PANEL_WIDTH]
    }

    /// Element `(kk, j)` of the logical operand, read back through the
    /// panel layout.
    #[cfg(test)]
    fn get(&self, kk: usize, j: usize) -> f32 {
        self.panel(j / PANEL_WIDTH)[kk * PANEL_WIDTH + j % PANEL_WIDTH]
    }
}

/// Strided view of the left operand: element `(i, kk)` of the logical
/// `m x k` matrix lives at `base[i * row_stride + kk * k_stride]`.
///
/// `matmul` passes a plain row-major view (`row_stride = k, k_stride = 1`);
/// `matmul_transpose_a` passes the transposed view of the same buffer
/// (`row_stride = 1, k_stride = a.cols()`), so both entry points share one
/// kernel without materializing a transpose.
#[derive(Clone, Copy)]
pub(crate) struct LhsView<'a> {
    pub base: &'a [f32],
    pub row_stride: usize,
    pub k_stride: usize,
}

impl LhsView<'_> {
    #[inline]
    fn get(&self, i: usize, kk: usize) -> f32 {
        self.base[i * self.row_stride + kk * self.k_stride]
    }
}

/// Rows of a row-major buffer read in place: row `i` starts at
/// `base[i * stride]`. How the dot-product kernels see one head's
/// columns of a wider matrix without a copy.
#[derive(Clone, Copy)]
pub(crate) struct StridedRows<'a> {
    pub base: &'a [f32],
    pub stride: usize,
}

impl<'a> StridedRows<'a> {
    /// The `k`-long run of row `i`.
    #[inline]
    pub fn run(&self, i: usize, k: usize) -> &'a [f32] {
        &self.base[i * self.stride..i * self.stride + k]
    }
}

/// Scalar mirror of the AVX2 packed kernel: the identical per-element
/// chain `acc = a_ik.mul_add(b_kj, acc)` in ascending `k` with a single
/// accumulator. `f32::mul_add` is the IEEE fused multiply-add (one
/// rounding), the same operation `vfmadd` performs, so this is
/// **bit-identical** to the AVX2 arm of [`gemm`] on every input — the
/// oracle the property tests pin the vector kernel against.
#[cfg(test)]
pub(crate) fn gemm_mirror(a: LhsView<'_>, m: usize, packed: &PackedF32, out: &mut [f32]) {
    let (k, n) = (packed.k, packed.n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a.get(i, kk).mul_add(packed.get(kk, j), acc);
            }
            *o = acc;
        }
    }
}

/// The packed GEMM `out = A · B` for the `m x k` lhs view `a` and the
/// packed `k x n` operand, writing row `i` of the product at
/// `out[i * out_stride..][..packed.n()]` — `out_stride == packed.n()` is a
/// dense output, a larger stride lands the product in a column block of a
/// wider matrix (one attention head inside the context matrix). Runs the
/// AVX2 kernel where [`f32_simd_available`] holds, [`gemm_panels_unfused`]
/// everywhere else.
///
/// # Panics
///
/// Panics if the lhs view does not span `m x packed.k()` or `out` does not
/// hold `m` rows at `out_stride`.
pub(crate) fn gemm(
    a: LhsView<'_>,
    m: usize,
    packed: &PackedF32,
    out: &mut [f32],
    out_stride: usize,
) {
    let (k, n) = (packed.k, packed.n);
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        out_stride >= n && (m - 1) * out_stride + n <= out.len(),
        "gemm output of {} floats cannot hold {m} rows of {n} at stride {out_stride}",
        out.len()
    );
    assert!(
        k == 0 || (m - 1) * a.row_stride + (k - 1) * a.k_stride < a.base.len(),
        "gemm lhs view does not span {m}x{k}"
    );
    #[cfg(target_arch = "x86_64")]
    if f32_simd_available() {
        // SAFETY: AVX2+FMA support was just verified at runtime; the two
        // asserts above bound every lhs read and every output write, and
        // `PackedF32` holds `ceil(n/16)` whole panels of `k * 16` floats.
        unsafe { avx2::gemm(a, m, packed, out, out_stride) };
        return;
    }
    gemm_panels_unfused(a, m, packed, out, out_stride);
}

/// The scalar kernel of [`gemm`], in the shape of the AVX2 kernel at one
/// row: per row and panel a 16-float accumulator updated as
/// `acc[j] += a_ik * panel[kk * 16 + j]` in ascending `kk`, then only the
/// real columns stored. Per element that is `Matrix::matmul_naive`'s sum —
/// unfused, one accumulator, starting from `0.0` — so every result is
/// **bit-identical** to naive.
pub(crate) fn gemm_panels_unfused(
    a: LhsView<'_>,
    m: usize,
    packed: &PackedF32,
    out: &mut [f32],
    out_stride: usize,
) {
    let n = packed.n;
    for i in 0..m {
        for p in 0..packed.n_panels() {
            let mut acc = [0.0f32; PANEL_WIDTH];
            for (kk, lanes) in packed.panel(p).chunks_exact(PANEL_WIDTH).enumerate() {
                let a_ik = a.get(i, kk);
                for (o, &b) in acc.iter_mut().zip(lanes) {
                    *o += a_ik * b;
                }
            }
            let j0 = p * PANEL_WIDTH;
            let cols = (n - j0).min(PANEL_WIDTH);
            out[i * out_stride + j0..][..cols].copy_from_slice(&acc[..cols]);
        }
    }
}

/// Scalar mirror of the AVX2 row-dot kernel used by
/// `matmul_transpose_b_into`: the reduction is split over 8 lanes
/// (lane `l` accumulates `k ≡ l (mod 8)` in ascending order, fused), the
/// lanes are folded by the fixed tree
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, and the sub-8 tail is fused
/// into the folded sum in ascending order. Bit-identical to the AVX2
/// kernel on every input.
#[cfg(test)]
pub(crate) fn dot_mirror(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let mut chunks = a.chunks_exact(8).zip(b.chunks_exact(8));
    for (ca, cb) in &mut chunks {
        for l in 0..8 {
            lanes[l] = ca[l].mul_add(cb[l], lanes[l]);
        }
    }
    let quad = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let mut acc = (quad[0] + quad[2]) + (quad[1] + quad[3]);
    for (&x, &y) in a
        .chunks_exact(8)
        .remainder()
        .iter()
        .zip(b.chunks_exact(8).remainder())
    {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// `A · B^T` over strided rows: element `(i, j)` of the dense `m x n`
/// output is the dot product of the `k`-long runs `a.run(i, k)` and
/// `b.run(j, k)`. A stride of `k` is a dense operand; a larger one reads a
/// column block of a wider matrix in place (one attention head of the
/// stacked `Q` or `K`). Runs the AVX2 lane-split fused dots (see
/// [`dot_mirror`] for the exact order) where [`f32_simd_available`] holds,
/// [`gemm_transpose_b_unfused`] everywhere else.
///
/// # Panics
///
/// Panics if a run leaves its operand or `out` is shorter than `m * n`.
pub(crate) fn gemm_transpose_b(
    a: StridedRows<'_>,
    b: StridedRows<'_>,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if f32_simd_available() {
        // SAFETY: AVX2+FMA support was just verified at runtime; every
        // slice access inside is bounds-checked.
        unsafe { avx2::gemm_transpose_b(a, b, (m, k, n), out) };
        return;
    }
    gemm_transpose_b_unfused(a, b, (m, k, n), out);
}

/// The scalar kernel of [`gemm_transpose_b`]: each element is the
/// single-accumulator ascending-`k` dot of its two runs — unfused, from
/// `0.0`, so **bit-identical** to `Matrix::matmul_naive` against the
/// materialized transpose.
pub(crate) fn gemm_transpose_b_unfused(
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{LhsView, PackedF32, StridedRows, PANEL_WIDTH};
    use std::arch::x86_64::*;

    /// One register tile: `MR` output rows by one 16-column panel, the
    /// full reduction in registers. Every output element is a single
    /// ascending-`k` `vfmadd` chain — the accumulation order [`super::gemm_mirror`]
    /// replays — so the tile size is invisible in the results.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support, and the pointers must
    /// span `MR` lhs rows, a `k * 16` panel, and `MR` output rows of at
    /// least `cols` elements (`1 ..= 16`).
    // The argument list is the flattened tile geometry (SIMD kernels
    // take raw pointers + strides by convention), and indexing `acc` by
    // `r` keeps the three per-row register arrays visibly in lockstep.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn kernel<const MR: usize>(
        a: *const f32,
        a_row_stride: usize,
        a_k_stride: usize,
        panel: *const f32,
        k: usize,
        out: *mut f32,
        out_stride: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let mut p = panel;
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(p);
            let b1 = _mm256_loadu_ps(p.add(8));
            for r in 0..MR {
                let av = _mm256_broadcast_ss(&*a.add(r * a_row_stride + kk * a_k_stride));
                acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
            }
            p = p.add(PANEL_WIDTH);
        }
        if cols == PANEL_WIDTH {
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(r * out_stride), acc_r[0]);
                _mm256_storeu_ps(out.add(r * out_stride + 8), acc_r[1]);
            }
        } else {
            // Ragged last panel: spill the full tile row and copy only the
            // real columns (padded lanes carried zeros of the padding, or
            // NaN from a non-finite lhs — either way they are discarded).
            let mut spill = [0.0f32; PANEL_WIDTH];
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(spill.as_mut_ptr(), acc_r[0]);
                _mm256_storeu_ps(spill.as_mut_ptr().add(8), acc_r[1]);
                std::ptr::copy_nonoverlapping(spill.as_ptr(), out.add(r * out_stride), cols);
            }
        }
    }

    /// Packed GEMM driver: greedy 6/4/2/1 row blocks (17 = 6+6+4+1,
    /// 544 = 90·6+4), panels streamed innermost so the active panel stays
    /// L1-resident across a row block.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `out` must hold `m`
    /// rows of `packed.n()` elements at `out_stride` and the lhs view must
    /// span `m x packed.k()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm(
        a: LhsView<'_>,
        m: usize,
        packed: &PackedF32,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let (k, n) = (packed.k(), packed.n());
        let a_ptr = a.base.as_ptr();
        let out_ptr = out.as_mut_ptr();
        let mut i = 0;
        while i < m {
            let rem = m - i;
            let mr = if rem >= 6 {
                6
            } else if rem >= 4 {
                4
            } else if rem >= 2 {
                2
            } else {
                1
            };
            for p in 0..packed.n_panels() {
                let j0 = p * PANEL_WIDTH;
                let cols = (n - j0).min(PANEL_WIDTH);
                let args = (
                    a_ptr.add(i * a.row_stride),
                    a.row_stride,
                    a.k_stride,
                    packed.panel(p).as_ptr(),
                    k,
                    out_ptr.add(i * out_stride + j0),
                    out_stride,
                    cols,
                );
                match mr {
                    6 => kernel::<6>(
                        args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
                    ),
                    4 => kernel::<4>(
                        args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
                    ),
                    2 => kernel::<2>(
                        args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
                    ),
                    _ => kernel::<1>(
                        args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
                    ),
                }
            }
            i += mr;
        }
    }

    /// The `A · B^T` sweep of [`super::gemm_transpose_b`]: four rhs rows
    /// per [`dot4`], the tail by [`dot1`]. It lives inside the feature
    /// gate so both dots inline into it.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_transpose_b(
        a: StridedRows<'_>,
        b: StridedRows<'_>,
        (m, k, n): (usize, usize, usize),
        out: &mut [f32],
    ) {
        for i in 0..m {
            let a_row = a.run(i, k);
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                dot4(
                    a_row,
                    b.run(j, k),
                    b.run(j + 1, k),
                    b.run(j + 2, k),
                    b.run(j + 3, k),
                    &mut out_row[j..j + 4],
                );
                j += 4;
            }
            while j < n {
                out_row[j] = dot1(a_row, b.run(j, k));
                j += 1;
            }
        }
    }

    /// Fixed-tree horizontal sum of eight f32 lanes:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — mirrored exactly by the
    /// scalar fold in [`super::dot_mirror`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let quad = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let s = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
        _mm_cvtss_f32(s)
    }

    /// One lane-split fused dot product (see [`super::dot_mirror`] for the
    /// exact accumulation order).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `a.len() == b.len()`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot1(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let k8 = k - k % 8;
        let mut acc = _mm256_setzero_ps();
        let mut t = 0;
        while t < k8 {
            acc = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(t)),
                _mm256_loadu_ps(b.as_ptr().add(t)),
                acc,
            );
            t += 8;
        }
        let mut s = hsum(acc);
        while t < k {
            s = a[t].mul_add(b[t], s);
            t += 1;
        }
        s
    }

    /// Four dot products sharing each lhs chunk load — four independent
    /// chains, each bit-identical to [`dot1`] of that row pair.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; all row slices have
    /// `a.len()` elements and `out.len() == 4`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32], out: &mut [f32]) {
        let k = a.len();
        let k8 = k - k % 8;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut t = 0;
        while t < k8 {
            let av = _mm256_loadu_ps(a.as_ptr().add(t));
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0.as_ptr().add(t)), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1.as_ptr().add(t)), acc1);
            acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2.as_ptr().add(t)), acc2);
            acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3.as_ptr().add(t)), acc3);
            t += 8;
        }
        let mut s = [hsum(acc0), hsum(acc1), hsum(acc2), hsum(acc3)];
        while t < k {
            let av = a[t];
            s[0] = av.mul_add(b0[t], s[0]);
            s[1] = av.mul_add(b1[t], s[1]);
            s[2] = av.mul_add(b2[t], s[2]);
            s[3] = av.mul_add(b3[t], s[3]);
            t += 1;
        }
        out.copy_from_slice(&s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn lhs(a: &Matrix) -> LhsView<'_> {
        LhsView {
            base: a.as_slice(),
            row_stride: a.cols(),
            k_stride: 1,
        }
    }

    #[test]
    fn pack_round_trips_every_element() {
        let mut rng = Rng::new(1);
        for &(k, n) in &[(1, 1), (5, 16), (7, 17), (64, 64), (9, 33)] {
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let packed = PackedF32::pack(&b);
            assert_eq!((packed.k(), packed.n()), (k, n));
            for kk in 0..k {
                for j in 0..n {
                    assert_eq!(packed.get(kk, j), b[(kk, j)], "({kk},{j}) of {k}x{n}");
                }
            }
            // Padding of the last panel is exactly zero.
            let last = packed.panel(packed.n_panels() - 1);
            let width = n - (packed.n_panels() - 1) * PANEL_WIDTH;
            for kk in 0..k {
                for jj in width..PANEL_WIDTH {
                    assert_eq!(last[kk * PANEL_WIDTH + jj], 0.0);
                }
            }
        }
    }

    #[test]
    fn pack_block_reuses_one_buffer_and_equals_packing_the_copy() {
        let mut rng = Rng::new(7);
        let src = Matrix::randn(40, 70, 1.0, &mut rng);
        let mut panel = PackedF32::default();
        // Grow, shrink to a ragged panel, an empty block, grow again: no
        // lane of an earlier, larger pack may survive into a later one.
        for (rows, cols) in [
            (0..40, 0..70),
            (3..20, 16..35),
            (5..5, 0..9),
            (1..2, 69..70),
        ] {
            panel.pack_block(&src, rows.clone(), cols.clone());
            let copy = src
                .slice_rows(rows.start, rows.end)
                .slice_cols(cols.start, cols.end);
            assert_eq!(panel, PackedF32::pack(&copy), "{rows:?} x {cols:?}");
        }
    }

    #[test]
    fn mirror_tracks_naive_within_fused_rounding() {
        let mut rng = Rng::new(2);
        for &(m, k, n) in &[(3, 5, 4), (17, 64, 64), (13, 31, 19)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let packed = PackedF32::pack(&b);
            let mut out = vec![0.0f32; m * n];
            gemm_mirror(lhs(&a), m, &packed, &mut out);
            let naive = a.matmul_naive(&b);
            let bound = a.map(f32::abs).matmul_naive(&b.map(f32::abs));
            for (idx, (&got, &want)) in out.iter().zip(naive.as_slice()).enumerate() {
                let tol = 2.0 * k as f32 * f32::EPSILON * bound.as_slice()[idx].max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "{m}x{k}x{n} elem {idx}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn avx2_gemm_is_bit_identical_to_the_mirror() {
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            let mut rng = Rng::new(4);
            // Row counts straddling every MR block split (6/4/2/1), panel
            // tails, and reduction lengths off the 8-lane width.
            for &(m, k, n) in &[
                (1, 1, 1),
                (2, 3, 2),
                (5, 7, 9),
                (6, 8, 16),
                (7, 13, 17),
                (17, 64, 64),
                (23, 31, 33),
                (544, 64, 64),
            ] {
                let a = Matrix::randn(m, k, 1.0, &mut rng);
                let b = Matrix::randn(k, n, 1.0, &mut rng);
                let packed = PackedF32::pack(&b);
                let mut simd = vec![0.0f32; m * n];
                let mut mirror = vec![0.0f32; m * n];
                gemm(lhs(&a), m, &packed, &mut simd, n);
                gemm_mirror(lhs(&a), m, &packed, &mut mirror);
                assert_eq!(simd, mirror, "kernel diverged from mirror at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn avx2_dot_kernels_are_bit_identical_to_the_mirror() {
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            let mut rng = Rng::new(5);
            for &k in &[1usize, 7, 8, 9, 15, 16, 17, 64, 100] {
                let a = Matrix::randn(1, k, 1.0, &mut rng);
                let rows = Matrix::randn(5, k, 1.0, &mut rng);
                // SAFETY: feature support verified above.
                let mut quad = [0.0f32; 4];
                unsafe {
                    avx2::dot4(
                        a.row(0),
                        rows.row(0),
                        rows.row(1),
                        rows.row(2),
                        rows.row(3),
                        &mut quad,
                    )
                };
                for (j, &got) in quad.iter().enumerate() {
                    assert_eq!(
                        got,
                        dot_mirror(a.row(0), rows.row(j)),
                        "dot4 lane {j}, k={k}"
                    );
                    // SAFETY: feature support verified above.
                    assert_eq!(got, unsafe { avx2::dot1(a.row(0), rows.row(j)) });
                }
            }
        }
    }

    #[test]
    fn batching_cannot_change_simd_rows() {
        #[cfg(target_arch = "x86_64")]
        if f32_simd_available() {
            // Row 16 sits in an MR=1 tail at m=17 but inside an MR=6 block
            // at m=544; the single-chain contract makes that invisible.
            let mut rng = Rng::new(6);
            let big = Matrix::randn(544, 64, 1.0, &mut rng);
            let b = Matrix::randn(64, 64, 1.0, &mut rng);
            let packed = PackedF32::pack(&b);
            let mut wide = vec![0.0f32; 544 * 64];
            gemm(lhs(&big), 544, &packed, &mut wide, 64);
            let small = big.slice_rows(0, 17);
            let mut narrow = vec![0.0f32; 17 * 64];
            gemm(lhs(&small), 17, &packed, &mut narrow, 64);
            assert_eq!(&wide[..17 * 64], &narrow[..]);
        }
    }
}
