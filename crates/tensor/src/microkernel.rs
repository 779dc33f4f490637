//! The f32 GEMM: three arms, still two dispatch points.
//!
//! Every `Matrix` product is pack → one kernel. The streamed operand `B`
//! of `A·B` is repacked into contiguous column panels ([`PackedF32`]) —
//! per call, or once for a weight reused across calls
//! (`Matrix::matmul_prepacked_into`, cached by `pivot_nn::PreparedLinear`)
//! — and [`gemm`] sweeps the panels. `A · B^T` needs no packing: each
//! element is one dot product of two rows, which [`gemm_transpose_b`]
//! runs. These two functions are the only places the platform is chosen,
//! on machine features alone:
//!
//! * **AVX-512F** — [`gemm`] runs a register tile of up to six rows by
//!   *two* 16-wide panels, one `zmm` accumulator per row and panel, ragged
//!   columns written with a lane-masked store. With AVX-512VL as well,
//!   [`gemm_transpose_b`] runs a register tile of 3 `A` rows by 8 `B`
//!   rows — 24 eight-lane `ymm` dots in the 32 registers VL provides —
//!   folded eight dots at a time, its ragged edges by the AVX2 dots below
//!   (every AVX-512F CPU has AVX2 and FMA).
//! * **AVX2+FMA** ([`f32_simd_available`]) — [`gemm`] runs six rows by one
//!   panel held in two `ymm` halves; [`gemm_transpose_b`] runs lane-split
//!   fused dots, up to four sharing each `A` load.
//! * **Everywhere else** — one scalar panel kernel ([`gemm_scalar`]) and
//!   one scalar lane-split dot ([`gemm_transpose_b_scalar`]), each the
//!   vector arms' chain in `f32::mul_add`, so **bit-identical** to them.
//!
//! `gemm_transpose_b`'s dots stay eight lanes wide on AVX-512 hosts
//! because their lane split *is* their contract: each element's reduction
//! is spread over 8 lanes and folded by a fixed tree ([`dot_scalar`]), so
//! a 16-lane dot would sum in a different order and change bits. The
//! AVX-512 arm widens the *tile* instead — more dots per load, the same
//! lanes and tree per dot. [`gemm`] has no such split — each lane is a
//! whole output element — so its width is free.
//!
//! # Numerics contract
//!
//! Every arm fuses the multiply and add, so on every host the product has
//! the same bits — scalar == AVX2 == AVX-512 — and none of them is
//! bit-identical to `Matrix::matmul_naive`. The contract has two layers,
//! both pinned by tests:
//!
//! * **Exact accumulation order.** Every output element of [`gemm`] is
//!   one ascending-`k` chain `acc = fma(a_ik, b_kj, acc)` with a single
//!   accumulator starting from `0.0` — the same chain regardless of the
//!   vector width, of the tile (`MR` rows × one or two panels) the element
//!   landed in, of the output's row count, or of panel padding.
//!   [`gemm_scalar`] runs that chain in `f32::mul_add`, the IEEE fused
//!   multiply-add (one rounding, the operation `vfmadd` performs), and the
//!   tests pin every vector arm to it bit for bit. The dots of
//!   [`gemm_transpose_b`] split the reduction over 8 lanes; their fixed
//!   lane order and reduction tree are [`dot_scalar`]'s, pinned the same
//!   way.
//! * **Documented tolerance vs. the unfused reference.** Against
//!   `matmul_naive` (round after every multiply), each element differs by
//!   at most one rounding per fused term: `|fused − naive| ≤ k · ε · (|A|·|B|)`
//!   elementwise with `ε = 2^-23`, asserted with slack by the property
//!   tests on every host. Non-finite inputs propagate (NaN in a row/column
//!   of the operands lands in every output element it feeds — fused
//!   arithmetic cannot launder it into a finite value).
//!
//! Because each element is a pure function of its input row and the packed
//! operand, results are independent of batching — stacking samples into a
//! wide GEMM reproduces the per-sample rows bit for bit, which is what the
//! workspace's batch-invariance `assert_eq!` contracts rely on.

use crate::Matrix;
use std::ops::Range;

/// Column-panel width of [`PackedF32`]: 16 f32 lanes = two AVX2 registers
/// or one AVX-512 register. Either way a 6-row tile holds 12 accumulators
/// (6×16 on AVX2, 6×32 over two panels on AVX-512): enough independent
/// FMA chains in flight to hide the FMA latency.
pub const PANEL_WIDTH: usize = 16;

/// Whether the runtime CPU takes the f32 SIMD path (AVX2 **and** FMA):
/// the fused dots, the slice routines' eight lanes, and the packed GEMM —
/// each of which runs its AVX-512 form instead where the CPU also has
/// AVX-512F (the dots: AVX-512F and VL).
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
/// let mut y = Matrix::zeros(4, 3);
/// x.matmul_prepacked_into(&packed, &mut y);
/// // Bit-identical to x.matmul(&w): same kernel, packing hoisted out.
/// assert_eq!(y, x.matmul(&w));
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

/// An arm of [`gemm`], called by name.
#[cfg(test)]
pub(crate) type Arm = fn(LhsView<'_>, usize, &PackedF32, &mut [f32], usize);

/// Every arm of [`gemm`] this host can run: the one `gemm` dispatches to
/// first, [`gemm_scalar`] last (every host has it). Each vector arm the
/// host cannot run is reported on stderr ([`report_arms`]), so a passing
/// test on such a host still says what it did not check.
#[cfg(test)]
pub(crate) fn gemm_arms() -> Vec<(&'static str, Arm)> {
    let mut arms: Vec<(&'static str, Arm)> = Vec::new();
    let mut skipped = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            arms.push(("avx512f", |a, m, packed, out, out_stride| {
                if gemm_operands_fit(a, m, packed, out.len(), out_stride) {
                    // SAFETY: pushed only after AVX-512F was detected;
                    // the operands passed the checks `gemm` makes.
                    unsafe { avx512::gemm(a, m, packed, out, out_stride) }
                }
            }));
        } else {
            skipped.push("avx512f");
        }
        if f32_simd_available() {
            arms.push(("avx2+fma", |a, m, packed, out, out_stride| {
                if gemm_operands_fit(a, m, packed, out.len(), out_stride) {
                    // SAFETY: pushed only after AVX2+FMA was detected;
                    // the operands passed the checks `gemm` makes.
                    unsafe { avx2::gemm(a, m, packed, out, out_stride) }
                }
            }));
        } else {
            skipped.push("avx2+fma");
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    skipped.extend(["avx512f", "avx2+fma"]);
    arms.push(("scalar", gemm_scalar));
    static REPORTED: std::sync::Once = std::sync::Once::new();
    REPORTED.call_once(|| report_arms("gemm", &arms, &skipped));
    arms
}

/// Says on stderr, past the test harness's output capture and once per
/// test process, which arms of `kernel` the tests check (the first is the
/// one it dispatches to) and which they skip because the host lacks them.
#[cfg(test)]
fn report_arms<F>(kernel: &str, arms: &[(&str, F)], skipped: &[&str]) {
    use std::io::Write;
    let checked: Vec<&str> = arms.iter().map(|(name, _)| *name).collect();
    let mut stderr = std::io::stderr();
    let _ = writeln!(
        stderr,
        "{kernel} arm dispatched: {}; checked: {checked:?}",
        checked[0]
    );
    if !skipped.is_empty() {
        let _ = writeln!(
            stderr,
            "{kernel} arms SKIPPED, the host lacks them: {skipped:?}"
        );
    }
}

/// An arm of [`gemm_transpose_b`], called by name.
#[cfg(test)]
pub(crate) type TransposeArm =
    fn(StridedRows<'_>, StridedRows<'_>, (usize, usize, usize), &mut [f32]);

/// Every arm of [`gemm_transpose_b`] this host can run, the one it
/// dispatches to first and [`gemm_transpose_b_scalar`] last; reported on
/// stderr as [`gemm_arms`] does.
#[cfg(test)]
pub(crate) fn transpose_arms() -> Vec<(&'static str, TransposeArm)> {
    let mut arms: Vec<(&'static str, TransposeArm)> = Vec::new();
    let mut skipped = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if tiled_transpose_available() {
            arms.push(("avx512f+vl tiled", |a, b, shape, out| {
                if transpose_operands_fit(a, b, shape, out.len()) {
                    // SAFETY: pushed only after AVX-512F and AVX-512VL
                    // were detected; the operands passed the checks
                    // `gemm_transpose_b` makes.
                    unsafe { avx512::gemm_transpose_b(a, b, shape, out) }
                }
            }));
        } else {
            skipped.push("avx512f+vl tiled");
        }
        if f32_simd_available() {
            arms.push(("avx2+fma dots", |a, b, (m, k, n), out| {
                // SAFETY: pushed only after AVX2+FMA was detected.
                unsafe { avx2::dots(a, b, (k, n), 0..m, 0, out) }
            }));
        } else {
            skipped.push("avx2+fma dots");
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    skipped.extend(["avx512f+vl tiled", "avx2+fma dots"]);
    arms.push(("scalar dots", gemm_transpose_b_scalar));
    static REPORTED: std::sync::Once = std::sync::Once::new();
    REPORTED.call_once(|| report_arms("A·B^T", &arms, &skipped));
    arms
}

/// The packed GEMM `out = A · B` for the `m x k` lhs view `a` and the
/// packed `k x n` operand, writing row `i` of the product at
/// `out[i * out_stride..][..packed.n()]` — `out_stride == packed.n()` is a
/// dense output, a larger stride lands the product in a column block of a
/// wider matrix (one attention head inside the context matrix). Runs the
/// AVX-512 kernel where the CPU has AVX-512F, the AVX2 kernel where only
/// [`f32_simd_available`] holds, [`gemm_scalar`] everywhere else — all
/// three the same bits.
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
    if !gemm_operands_fit(a, m, packed, out.len(), out_stride) {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime;
            // `gemm_operands_fit` bounds every lhs read and every output
            // row, and `PackedF32` holds `ceil(n/16)` whole panels of
            // `k * 16` floats.
            unsafe { avx512::gemm(a, m, packed, out, out_stride) };
            return;
        }
        if f32_simd_available() {
            // SAFETY: AVX2+FMA support was just verified at runtime; the
            // bounds are as above.
            unsafe { avx2::gemm(a, m, packed, out, out_stride) };
            return;
        }
    }
    gemm_scalar(a, m, packed, out, out_stride);
}

/// The operand checks every arm of [`gemm`] relies on: the lhs view spans
/// `m x packed.k()` and `out_len` floats hold `m` rows of `packed.n()` at
/// `out_stride`. Returns `false` when the product is empty (nothing to
/// write).
///
/// # Panics
///
/// Panics when a check fails.
fn gemm_operands_fit(
    a: LhsView<'_>,
    m: usize,
    packed: &PackedF32,
    out_len: usize,
    out_stride: usize,
) -> bool {
    let (k, n) = (packed.k, packed.n);
    if m == 0 || n == 0 {
        return false;
    }
    assert!(
        out_stride >= n && (m - 1) * out_stride + n <= out_len,
        "gemm output of {out_len} floats cannot hold {m} rows of {n} at stride {out_stride}"
    );
    assert!(
        k == 0 || (m - 1) * a.row_stride + (k - 1) * a.k_stride < a.base.len(),
        "gemm lhs view does not span {m}x{k}"
    );
    true
}

/// Rows of the next register tile when `rem` rows are left: greedy
/// 6/4/2/1 (17 = 6+6+4+1, 394 = 65·6+4), shared by both vector kernels.
#[cfg(target_arch = "x86_64")]
#[inline]
fn row_block(rem: usize) -> usize {
    match rem {
        6.. => 6,
        4 | 5 => 4,
        2 | 3 => 2,
        _ => 1,
    }
}

/// The scalar arm of [`gemm`], in the shape of the AVX2 kernel at one
/// row: per row and panel a 16-float accumulator updated as
/// `acc[j] = a_ik.mul_add(panel[kk * 16 + j], acc[j])` in ascending `kk`,
/// then only the real columns stored. Per element that is the vector
/// arms' chain — fused, one accumulator, starting from `0.0` — so every
/// result is **bit-identical** to theirs. Unless the build targets FMA
/// hardware (`+fma` on x86, or aarch64), `f32::mul_add` is a libm call,
/// which makes this arm slow (DESIGN §4c has the numbers); no benchmark
/// workload runs it.
pub(crate) fn gemm_scalar(
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
                    *o = a_ik.mul_add(b, *o);
                }
            }
            let j0 = p * PANEL_WIDTH;
            let cols = (n - j0).min(PANEL_WIDTH);
            out[i * out_stride + j0..][..cols].copy_from_slice(&acc[..cols]);
        }
    }
}

/// One lane-split fused dot product, the order every arm of
/// [`gemm_transpose_b`] computes: the reduction is split over 8 lanes
/// (lane `l` accumulates `k ≡ l (mod 8)` in ascending order, fused), the
/// lanes are folded by the fixed tree
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, and the sub-8 tail is fused
/// into the folded sum in ascending order.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
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
/// stacked `Q` or `K`). Runs the register-tiled dots where the CPU has
/// AVX-512F and AVX-512VL, the AVX2 lane-split fused dots where only
/// [`f32_simd_available`] holds and [`gemm_transpose_b_scalar`]
/// everywhere else — all three in [`dot_scalar`]'s exact order.
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
    if !transpose_operands_fit(a, b, (m, k, n), out.len()) {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if tiled_transpose_available() {
            // SAFETY: AVX-512F and AVX-512VL support was just verified at
            // runtime; `transpose_operands_fit` bounds every run of both
            // operands and the `m * n` output.
            unsafe { avx512::gemm_transpose_b(a, b, (m, k, n), out) };
            return;
        }
        if f32_simd_available() {
            // SAFETY: AVX2+FMA support was just verified at runtime; every
            // slice access inside is bounds-checked.
            unsafe { avx2::dots(a, b, (k, n), 0..m, 0, out) };
            return;
        }
    }
    gemm_transpose_b_scalar(a, b, (m, k, n), out);
}

/// Whether [`gemm_transpose_b`] runs its register-tiled AVX-512 arm: the
/// tile holds 24 accumulators in `ymm` registers, which needs the sixteen
/// extra ones AVX-512VL adds to AVX-512F.
#[cfg(target_arch = "x86_64")]
fn tiled_transpose_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

/// The operand checks every arm of [`gemm_transpose_b`] relies on: the
/// last of the `m` runs of `a` and of the `n` runs of `b` ends inside its
/// operand, and `out_len` floats hold the `m x n` product. Returns `false`
/// when the product is empty (nothing to write).
///
/// # Panics
///
/// Panics when a check fails.
fn transpose_operands_fit(
    a: StridedRows<'_>,
    b: StridedRows<'_>,
    (m, k, n): (usize, usize, usize),
    out_len: usize,
) -> bool {
    if m == 0 || n == 0 {
        return false;
    }
    // Checked: the AVX-512 arm's raw loads and stores rely on these.
    assert!(
        m.checked_mul(n).is_some_and(|len| len <= out_len),
        "A·B^T output of {out_len} floats cannot hold {m}x{n}"
    );
    for (rows, runs, name) in [(m, a, "lhs"), (n, b, "rhs")] {
        let end = (rows - 1)
            .checked_mul(runs.stride)
            .and_then(|start| start.checked_add(k));
        assert!(
            end.is_some_and(|end| end <= runs.base.len()),
            "A·B^T {name} of {} floats does not hold {rows} runs of {k} at stride {}",
            runs.base.len(),
            runs.stride
        );
    }
    true
}

/// The scalar arm of [`gemm_transpose_b`]: each element is the
/// [`dot_scalar`] of its two runs, so **bit-identical** to the vector
/// arms.
pub(crate) fn gemm_transpose_b_scalar(
    a: StridedRows<'_>,
    b: StridedRows<'_>,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    for i in 0..m {
        let a_row = a.run(i, k);
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            *o = dot_scalar(a_row, b.run(j, k));
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{LhsView, PackedF32, StridedRows, PANEL_WIDTH};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// One register tile: `MR` output rows by one 16-column panel, the
    /// full reduction in registers. Every output element is a single
    /// ascending-`k` `vfmadd` chain — the accumulation order of
    /// [`super::gemm_scalar`] — so the tile size is invisible in the
    /// results.
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

    /// Packed GEMM driver: greedy 6/4/2/1 row blocks ([`super::row_block`])
    /// outer, panels inner. The lhs strip of a row block (`MR` rows by `k`)
    /// is what stays in L1 across its panels; every row block re-streams
    /// every panel of `B` — at fc1 of DeiT-S (`k` 384, `n` 1536) that is
    /// 2.4 MB of panels, 66 times per 394-row GEMM.
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
            let mr = super::row_block(m - i);
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

    /// Elements `(i, j)` for `i` in `rows` and `j` in `cols_from..n` of
    /// the dense `A · B^T` of [`super::gemm_transpose_b`]: four rhs rows
    /// per [`dot4`], the tail by [`dot1`] — the whole product on AVX2
    /// hosts, the ragged edges of the AVX-512 tiles. It lives inside the
    /// feature gate so both dots inline into it.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dots(
        a: StridedRows<'_>,
        b: StridedRows<'_>,
        (k, n): (usize, usize),
        rows: Range<usize>,
        cols_from: usize,
        out: &mut [f32],
    ) {
        for i in rows {
            let a_row = a.run(i, k);
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut j = cols_from;
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
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the fold of
    /// [`super::dot_scalar`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let quad = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let s = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
        _mm_cvtss_f32(s)
    }

    /// One lane-split fused dot product (see [`super::dot_scalar`] for the
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

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{LhsView, PackedF32, StridedRows, PANEL_WIDTH};
    use std::arch::x86_64::*;

    /// One register tile: `MR` output rows by `NP` (1 or 2) consecutive
    /// 16-column panels, one `zmm` accumulator per row and panel, the full
    /// reduction in registers. Every output element is a single
    /// ascending-`k` `vfmadd` chain — the accumulation order
    /// [`super::gemm_scalar`] runs — so neither the tile nor the vector
    /// width shows in the results.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support, and the pointers must
    /// span `MR` lhs rows, `NP` consecutive `k * 16` panels, and `MR`
    /// output rows of at least `cols` elements (`(NP - 1) * 16 + 1 ..=
    /// NP * 16`).
    // Flattened tile geometry and lockstep register arrays, as in the
    // AVX2 kernel.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[target_feature(enable = "avx512f")]
    unsafe fn kernel<const MR: usize, const NP: usize>(
        a: *const f32,
        a_row_stride: usize,
        a_k_stride: usize,
        panels: *const f32,
        k: usize,
        out: *mut f32,
        out_stride: usize,
        cols: usize,
    ) {
        let panel_len = k * PANEL_WIDTH;
        let mut acc = [[_mm512_setzero_ps(); NP]; MR];
        let mut p = panels;
        for kk in 0..k {
            let mut b = [_mm512_setzero_ps(); NP];
            for q in 0..NP {
                b[q] = _mm512_loadu_ps(p.add(q * panel_len));
            }
            for r in 0..MR {
                let av = _mm512_set1_ps(*a.add(r * a_row_stride + kk * a_k_stride));
                for q in 0..NP {
                    acc[r][q] = _mm512_fmadd_ps(av, b[q], acc[r][q]);
                }
            }
            p = p.add(PANEL_WIDTH);
        }
        // Only the real columns are written: padded lanes (zeros of the
        // padding, or NaN from a non-finite lhs) are masked off, so a
        // ragged panel needs no spill and nothing past `cols` is touched.
        for q in 0..NP {
            let real = (cols - q * PANEL_WIDTH).min(PANEL_WIDTH);
            let mask = ((1u32 << real) - 1) as __mmask16;
            for (r, acc_r) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(r * out_stride + q * PANEL_WIDTH), mask, acc_r[q]);
            }
        }
    }

    /// Every row block of one panel group: greedy 6/4/2/1 rows
    /// ([`super::row_block`]) against the `NP` panels starting at panel
    /// `p`.
    ///
    /// # Safety
    ///
    /// As [`gemm`], and panels `p .. p + NP` exist.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_blocks<const NP: usize>(
        a: LhsView<'_>,
        m: usize,
        packed: &PackedF32,
        p: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let (k, n) = (packed.k(), packed.n());
        let j0 = p * PANEL_WIDTH;
        let cols = (n - j0).min(NP * PANEL_WIDTH);
        // From the whole buffer, not `packed.panel(p)`: the kernel reads
        // past panel `p` into panel `p + 1`.
        let panels = packed.data[p * k * PANEL_WIDTH..].as_ptr();
        let (a_ptr, out_ptr) = (a.base.as_ptr(), out.as_mut_ptr());
        let (rs, ks) = (a.row_stride, a.k_stride);
        let mut i = 0;
        while i < m {
            let mr = super::row_block(m - i);
            let (a_i, out_i) = (a_ptr.add(i * rs), out_ptr.add(i * out_stride + j0));
            match mr {
                6 => kernel::<6, NP>(a_i, rs, ks, panels, k, out_i, out_stride, cols),
                4 => kernel::<4, NP>(a_i, rs, ks, panels, k, out_i, out_stride, cols),
                2 => kernel::<2, NP>(a_i, rs, ks, panels, k, out_i, out_stride, cols),
                _ => kernel::<1, NP>(a_i, rs, ks, panels, k, out_i, out_stride, cols),
            }
            i += mr;
        }
    }

    /// Packed GEMM driver: panel pairs outer, row blocks inner, and one
    /// single-panel sweep when the panel count is odd. A pair of panels
    /// (`k × 32` floats: 48 KiB at `k` 384, 192 KiB at 1536) stays
    /// cache-resident while every row block streams past it.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support; `out` must hold `m`
    /// rows of `packed.n()` elements at `out_stride` and the lhs view must
    /// span `m x packed.k()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm(
        a: LhsView<'_>,
        m: usize,
        packed: &PackedF32,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let n_panels = packed.n_panels();
        for p in (0..n_panels - n_panels % 2).step_by(2) {
            row_blocks::<2>(a, m, packed, p, out, out_stride);
        }
        if n_panels % 2 == 1 {
            row_blocks::<1>(a, m, packed, n_panels - 1, out, out_stride);
        }
    }

    /// Rows of `A` (queries) per [`tile`].
    const TILE_ROWS: usize = 3;
    /// Rows of `B` (keys) per [`tile`]: one folded `ymm` of results.
    const TILE_COLS: usize = 8;

    /// The `A · B^T` sweep of [`super::gemm_transpose_b`]: whole
    /// [`TILE_ROWS`] × [`TILE_COLS`] tiles by [`tile`], the ragged
    /// columns of each tile row and the ragged rows by the AVX2 dots.
    /// Every element is the same lane-split dot either way.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F and AVX-512VL support, and
    /// [`super::transpose_operands_fit`] must hold for the operands.
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    pub unsafe fn gemm_transpose_b(
        a: StridedRows<'_>,
        b: StridedRows<'_>,
        (m, k, n): (usize, usize, usize),
        out: &mut [f32],
    ) {
        let (whole_rows, whole_cols) = (m - m % TILE_ROWS, n - n % TILE_COLS);
        let (a_ptr, b_ptr, out_ptr) = (a.base.as_ptr(), b.base.as_ptr(), out.as_mut_ptr());
        for j in (0..whole_cols).step_by(TILE_COLS) {
            for i in (0..whole_rows).step_by(TILE_ROWS) {
                tile(
                    a_ptr.add(i * a.stride),
                    a.stride,
                    b_ptr.add(j * b.stride),
                    b.stride,
                    k,
                    out_ptr.add(i * n + j),
                    n,
                );
            }
        }
        super::avx2::dots(a, b, (k, n), 0..whole_rows, whole_cols, out);
        super::avx2::dots(a, b, (k, n), whole_rows..m, 0, out);
    }

    /// One register tile: [`TILE_ROWS`] rows of `A` against [`TILE_COLS`]
    /// rows of `B`, 24 eight-lane `ymm` dots — the register file AVX-512VL
    /// doubles to 32 holds them beside the three `A` chunks and one `B`
    /// chunk in flight. Each `A` chunk is loaded once per eight `B` rows
    /// and each `B` chunk once per three `A` rows. Lane `l` of a dot
    /// accumulates `k ≡ l (mod 8)` in ascending order, each tile row is
    /// folded by [`fold8`] and the sub-8 tail fused in ascending order:
    /// every element is [`super::dot_scalar`] of its two runs.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F and AVX-512VL support; the
    /// pointers must span [`TILE_ROWS`] runs of `k` floats at `a_stride`,
    /// [`TILE_COLS`] at `b_stride`, and [`TILE_ROWS`] output rows of
    /// [`TILE_COLS`] floats at `out_stride`.
    // Lockstep register arrays, as in the GEMM kernels.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    unsafe fn tile(
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        k: usize,
        out: *mut f32,
        out_stride: usize,
    ) {
        let k8 = k - k % 8;
        let mut acc = [[_mm256_setzero_ps(); TILE_COLS]; TILE_ROWS];
        let mut t = 0;
        while t < k8 {
            let mut av = [_mm256_setzero_ps(); TILE_ROWS];
            for r in 0..TILE_ROWS {
                av[r] = _mm256_loadu_ps(a.add(r * a_stride + t));
            }
            for c in 0..TILE_COLS {
                let bv = _mm256_loadu_ps(b.add(c * b_stride + t));
                for r in 0..TILE_ROWS {
                    acc[r][c] = _mm256_fmadd_ps(av[r], bv, acc[r][c]);
                }
            }
            t += 8;
        }
        for r in 0..TILE_ROWS {
            let dst = out.add(r * out_stride);
            _mm256_storeu_ps(dst, fold8(acc[r]));
            for t in k8..k {
                let x = *a.add(r * a_stride + t);
                for c in 0..TILE_COLS {
                    *dst.add(c) = x.mul_add(*b.add(c * b_stride + t), *dst.add(c));
                }
            }
        }
    }

    /// Eight dots folded at once: lane `j` of the result is the AVX2
    /// `hsum` of `dots[j]` — the tree `((l0+l4)+(l2+l6)) +
    /// ((l1+l5)+(l3+l7))` of [`super::dot_scalar`], every addition with
    /// the same operands in the same order.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    fn fold8(dots: [__m256; 8]) -> __m256 {
        // `[lo(x) + hi(x) | lo(y) + hi(y)]`: the four pair sums
        // `l0+l4, l1+l5, l2+l6, l3+l7` of two dots.
        let quads = |x, y| {
            _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(x, y),
                _mm256_permute2f128_ps::<0x31>(x, y),
            )
        };
        let [q04, q15, q26, q37] = [
            quads(dots[0], dots[4]),
            quads(dots[1], dots[5]),
            quads(dots[2], dots[6]),
            quads(dots[3], dots[7]),
        ];
        // Per dot `e = (l0+l4)+(l2+l6)` and `o = (l1+l5)+(l3+l7)`:
        // `[e0 e1 o0 o1 | e4 e5 o4 o5]` and `[e2 e3 o2 o3 | e6 e7 o6 o7]`.
        let eo0145 = _mm256_add_ps(_mm256_unpacklo_ps(q04, q15), _mm256_unpackhi_ps(q04, q15));
        let eo2367 = _mm256_add_ps(_mm256_unpacklo_ps(q26, q37), _mm256_unpackhi_ps(q26, q37));
        let e = _mm256_shuffle_ps::<0b01_00_01_00>(eo0145, eo2367);
        let o = _mm256_shuffle_ps::<0b11_10_11_10>(eo0145, eo2367);
        _mm256_add_ps(e, o)
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
    fn gemm_arms_are_bit_identical_to_the_scalar_arm() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let arms = gemm_arms();
        let mut rng = Rng::new(4);
        // Row counts ending in every MR block split (6/4/2/1); column
        // counts with an even and an odd panel count, the ragged panel
        // inside a pair and in the one-panel tail (1000 = 63 panels);
        // an empty reduction and lengths off every vector width.
        for m in [1, 2, 3, 5, 6, 7, 17, 23] {
            for n in [1, 15, 16, 17, 31, 32, 33, 48, 49, 1000] {
                for k in [0, 1, 13, 64] {
                    let a = Matrix::randn(m, k, 1.0, &mut rng);
                    let b = Matrix::randn(k, n, 1.0, &mut rng);
                    let packed = PackedF32::pack(&b);
                    let mut reference = vec![0.0f32; m * n];
                    gemm_scalar(lhs(&a), m, &packed, &mut reference, n);
                    let want = bits(&reference);
                    let at = a.transpose();
                    let transposed = LhsView {
                        base: at.as_slice(),
                        row_stride: 1,
                        k_stride: m,
                    };
                    let (sentinel, stride) = (12345.0f32, n + 3);
                    for &(name, arm) in &arms {
                        let case = format!("{name} at {m}x{k}x{n}");
                        // Row-major and transposed lhs views, each into a
                        // dirty buffer.
                        for (view, layout) in [(lhs(&a), "row-major"), (transposed, "transposed")] {
                            let mut out = vec![f32::NAN; m * n];
                            arm(view, m, &packed, &mut out, n);
                            assert_eq!(bits(&out), want, "{case}, {layout} lhs");
                        }
                        // A strided output: the product lands at column 2
                        // of a wider sentinel-filled matrix, whose other
                        // lanes the masked stores must leave alone.
                        let mut wide = vec![sentinel; m * stride];
                        arm(lhs(&a), m, &packed, &mut wide[2..], stride);
                        for (i, row) in wide.chunks_exact(stride).enumerate() {
                            let got = bits(&row[2..2 + n]);
                            assert_eq!(got, want[i * n..(i + 1) * n], "{case}, row {i} strided");
                            let mut outside = row[..2].iter().chain(&row[2 + n..]);
                            assert!(outside.all(|&x| x == sentinel), "{case}, row {i} clobbered");
                        }
                    }
                }
            }
        }
        // `gemm` itself dispatches to the first arm.
        let (m, k, n) = (544, 64, 64);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let packed = PackedF32::pack(&Matrix::randn(k, n, 1.0, &mut rng));
        let (mut dispatched, mut scalar) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        gemm(lhs(&a), m, &packed, &mut dispatched, n);
        gemm_scalar(lhs(&a), m, &packed, &mut scalar, n);
        assert_eq!(bits(&dispatched), bits(&scalar), "gemm at {m}x{k}x{n}");
    }

    #[test]
    fn transpose_b_arms_are_bit_identical_to_the_scalar_arm() {
        let same_bits = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let arms = transpose_arms();
        let mut rng = Rng::new(8);
        // Every tile split (3 rows by 8 columns, ragged on either side or
        // both), reductions shorter than, equal to and off a multiple of
        // the 8-lane split, on operands read at a stride and an offset
        // inside wider matrices; the last two cases poison some lanes
        // with NaN and infinities.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for k in [1, 7, 8, 9, 16, 64, 65] {
            for poison in [0, 2, 7] {
                let (stride, at) = (k + 5, 3);
                let mut q = Matrix::randn(20, stride, 1.0, &mut rng);
                let mut kt = Matrix::randn(20, stride, 1.0, &mut rng);
                for p in 0..poison {
                    let s = specials[p % specials.len()];
                    q.as_mut_slice()[at + rng.below(19 * stride)] = s;
                    kt.as_mut_slice()[at + rng.below(19 * stride)] = s;
                }
                let (qr, kr) = (
                    StridedRows {
                        base: &q.as_slice()[at..],
                        stride,
                    },
                    StridedRows {
                        base: &kt.as_slice()[at..],
                        stride,
                    },
                );
                for m in 1..=20 {
                    for n in 1..=20 {
                        let mut want = vec![0.0f32; m * n];
                        gemm_transpose_b_scalar(qr, kr, (m, k, n), &mut want);
                        let mut dispatched = vec![12345.0f32; m * n];
                        gemm_transpose_b(qr, kr, (m, k, n), &mut dispatched);
                        let mut outputs = vec![("dispatched", dispatched)];
                        for &(name, arm) in &arms {
                            let mut out = vec![12345.0f32; m * n];
                            arm(qr, kr, (m, k, n), &mut out);
                            outputs.push((name, out));
                        }
                        for (name, out) in outputs {
                            for (e, (&got, &w)) in out.iter().zip(&want).enumerate() {
                                assert!(
                                    same_bits(got, w),
                                    "{name} at {m}x{k}x{n}, poison {poison}, ({}, {}): {got:e} vs {w:e}",
                                    e / n,
                                    e % n
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_b_rejects_a_run_outside_its_operand() {
        let base = [0.0f32; 20];
        let run = |stride| StridedRows {
            base: &base,
            stride,
        };
        let mut out = [0.0f32; 6];
        // Three runs of 8 at stride 6 end at 20: inside.
        gemm_transpose_b(run(6), run(6), (3, 8, 2), &mut out);
        for (a, b, shape, out_len, what) in [
            (7, 6, (3, 8, 2), 6, "lhs"),
            (6, 7, (2, 8, 3), 6, "rhs"),
            (6, 6, (3, 8, 2), 5, "output"),
        ] {
            let result = std::panic::catch_unwind(|| {
                gemm_transpose_b(run(a), run(b), shape, &mut [0.0; 6][..out_len]);
            });
            assert!(result.is_err(), "{what} out of bounds was not caught");
        }
    }

    #[test]
    fn batching_cannot_change_a_row_on_any_arm() {
        // Row 16 sits in an MR=1 tail at m=17 but inside an MR=6 block at
        // m=544; the single-chain contract makes that invisible on every
        // arm, and the arms agree with each other bit for bit.
        let mut rng = Rng::new(6);
        let big = Matrix::randn(544, 64, 1.0, &mut rng);
        let b = Matrix::randn(64, 64, 1.0, &mut rng);
        let packed = PackedF32::pack(&b);
        let small = big.slice_rows(0, 17);
        let mut first: Option<Vec<f32>> = None;
        for (name, arm) in gemm_arms() {
            let mut wide = vec![0.0f32; 544 * 64];
            arm(lhs(&big), 544, &packed, &mut wide, 64);
            let mut narrow = vec![0.0f32; 17 * 64];
            arm(lhs(&small), 17, &packed, &mut narrow, 64);
            assert_eq!(&wide[..17 * 64], &narrow[..], "{name}");
            let first = first.get_or_insert_with(|| wide.clone());
            assert_eq!(&wide, first, "{name} differs from the wider arm");
        }
    }
}
