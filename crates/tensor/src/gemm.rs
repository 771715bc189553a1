//! GEMM kernels: dense references and the selection kernels that actually
//! skip dropped output columns and inner indices.
//!
//! The paper's central observation is that conventional dropout cannot shrink
//! the GEMM because the dropped positions are irregular; the Row-based and
//! Tile-based patterns make the dropped positions *predictable*, so the kernel
//! can build compact operand matrices and multiply those instead. The CPU
//! equivalent here is one selection per GEMM axis: [`select_gemm_into`],
//! [`select_gemm_bias_act_into`] and [`select_backward_into`] take a kept
//! output-column set (`n_sel`) and a kept inner-index set (`k_sel`), pack
//! the selected panel, run the dense tile kernel over it and scatter the
//! result back. Every family that keeps whole output neurons (row, N:M, and
//! block dropout expanded to its kept columns) selects on N; column-row
//! sampling (CRS) selects on K; row×CRS selects on both. Tile dropout runs
//! the dense kernel over a tile-masked weight panel with the
//! [`Epilogue::ScaledBias`] write-back; [`tile_masked_gemm_reference`] is
//! its naive reference. The kernels are validated against the dense ones by
//! unit and property tests.
//!
//! # Kernel architecture
//!
//! The three dense products — `C = A·B` ([`blocked_gemm_into`], which also
//! runs under every fused and selection kernel), `C = Aᵀ·B`
//! ([`gemm_at_b_into`]) and `C = A·Bᵀ` ([`gemm_a_bt_into`]) — run one
//! tiled loop nest over register tiles, instantiated per instruction set
//! through [`crate::simd`] (AVX-512, AVX2, NEON and a scalar fallback),
//! and the results are bitwise identical at every level (see the `simd`
//! module docs):
//!
//! * **A·B and Aᵀ·B.** An `MR × NR` block of `C` (4×32 on AVX-512, 4×16 on
//!   AVX2) is held in vector registers across one KC block of `k`, and for
//!   Aᵀ·B across the whole batch. It is loaded once and stored once. Each
//!   step reads NR-wide rows of `B` and broadcasts MR values of `A`. Aᵀ·B is
//!   the same tile reading `A` down its columns.
//! * **A·Bᵀ.** A block of 8-lane dot accumulators (4×8 dots on AVX-512, two
//!   per `zmm`; 3×3 on AVX2), each reduced in the 8-lane `dot` order.
//!
//! Edge tiles run the same micro-tile instantiated at their size; a partial
//! register uses masked loads and stores. A tile starts from `+0.0` and
//! writes every element it covers, so the outputs are resized without a
//! zero fill. Column tiles are the outer loop: the `B` panel of a column
//! tile stays in L1 while the row tiles pass over it. Cache blocking on top
//! comes from [`crate::tune`] (autotuned per shape class; `KC = 128` remains
//! the default), and no tile crosses a block edge. The inner loops never
//! touch the bounds-checked `(i, j)` `Index` operator, and the dense path
//! carries no per-element `aip == 0.0` branch: skipping zeros is the
//! compacted kernels' job, and a data-dependent branch in the dense loop
//! defeats SIMD exactly like warp divergence defeats the GPU kernel in the
//! paper's Fig. 1(b). Around the tiles:
//!
//! * every kernel writes through a `*_into` entry point into a caller-owned
//!   output buffer, so the training hot path can recycle allocations across
//!   iterations; the dense products also have allocating forms
//!   (`blocked_gemm`, `gemm_at_b`, …), the `select_*` kernels do not,
//! * transposed-operand variants [`gemm_at_b`] (`C = Aᵀ·B`) and
//!   [`gemm_a_bt`] (`C = A·Bᵀ`) so backward passes never materialise a
//!   `transpose()`,
//! * batch-dimension parallelism: output rows are split across the
//!   [`crate::pool`] worker threads. Every output row is produced by exactly
//!   one worker, and no element's arithmetic depends on which rows share its
//!   tile, so results are bitwise identical for any thread count.

use crate::matrix::Matrix;
use crate::pool;
use crate::simd::{self, DotVec, Isa, Kernel, TileVec};
use crate::tune::{self, Blocking};
use std::fmt;
use std::ops::Range;

/// Error returned when GEMM operands have incompatible shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmError {
    message: String,
}

impl GemmError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for GemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gemm error: {}", self.message)
    }
}

impl std::error::Error for GemmError {}

fn check_inner(a: &Matrix, b: &Matrix) -> Result<(), GemmError> {
    if a.cols() != b.rows() {
        return Err(GemmError::new(format!(
            "inner dimensions disagree: {:?} * {:?}",
            a.shape(),
            b.shape()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Register tiles
// ---------------------------------------------------------------------------

/// Operands of one A·B or Aᵀ·B tile: `A[r][p]` at `a + r·a_rs + p·a_ks`,
/// `B[p][c]` at `b + p·ldb + c`, `C[r][c]` at `c + r·ldc + c`, over `k`
/// inner terms.
#[derive(Clone, Copy)]
struct AxpyArgs {
    a: *const f32,
    a_rs: usize,
    a_ks: usize,
    b: *const f32,
    ldb: usize,
    k: usize,
    c: *mut f32,
    ldc: usize,
    /// Add to the stored tile (a later KC block) instead of starting from
    /// `+0.0`.
    accumulate: bool,
}

/// One register of a tile row: the first `tail` lanes when `partial`.
///
/// # Safety
///
/// As for [`TileVec::load`] and [`TileVec::load_partial`].
#[inline(always)]
unsafe fn load_reg<V: TileVec>(p: *const f32, partial: bool, tail: usize) -> V {
    if partial {
        V::load_partial(p, tail)
    } else {
        V::load(p)
    }
}

/// One `R × NV` register tile of `C += A·B`: the tile is loaded (or set to
/// `+0.0`) once, then each step reads NV-register rows of `B` and
/// broadcasts R values of `A`, and the tile is stored once. Every element
/// sees the same arithmetic at every tile size: each quad of `p` is added as
/// `c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)`, each leftover term as
/// `c + a·b`. With `PARTIAL` the last register holds only `tail` columns.
///
/// # Safety
///
/// The CPU must support `V`, and `args` must address an `R × width` tile
/// inside its operands.
#[inline(always)]
unsafe fn axpy_tile<V: TileVec, const R: usize, const NV: usize, const PARTIAL: bool>(
    args: AxpyArgs,
    tail: usize,
) {
    let AxpyArgs {
        a,
        a_rs,
        a_ks,
        b,
        ldb,
        k,
        c,
        ldc,
        accumulate,
    } = args;
    let last = |v: usize| PARTIAL && v == NV - 1;
    let mut acc = [[V::zero(); NV]; R];
    if accumulate {
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, reg) in row.iter_mut().enumerate() {
                *reg = load_reg(c.add(r * ldc + v * V::LANES), last(v), tail);
            }
        }
    }
    let mut p = 0;
    while p + 4 <= k {
        let mut bq = [[V::zero(); NV]; 4];
        for (q, row) in bq.iter_mut().enumerate() {
            for (v, reg) in row.iter_mut().enumerate() {
                *reg = load_reg(b.add((p + q) * ldb + v * V::LANES), last(v), tail);
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = a.add(r * a_rs + p * a_ks);
            let x0 = V::splat(*ar);
            let x1 = V::splat(*ar.add(a_ks));
            let x2 = V::splat(*ar.add(2 * a_ks));
            let x3 = V::splat(*ar.add(3 * a_ks));
            for (v, reg) in row.iter_mut().enumerate() {
                let t = x0.mul(bq[0][v]).add(x1.mul(bq[1][v]));
                let t = t.add(x2.mul(bq[2][v]));
                let t = t.add(x3.mul(bq[3][v]));
                *reg = reg.add(t);
            }
        }
        p += 4;
    }
    while p < k {
        let mut bp = [V::zero(); NV];
        for (v, reg) in bp.iter_mut().enumerate() {
            *reg = load_reg(b.add(p * ldb + v * V::LANES), last(v), tail);
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let x = V::splat(*a.add(r * a_rs + p * a_ks));
            for (v, reg) in row.iter_mut().enumerate() {
                *reg = reg.add(x.mul(bp[v]));
            }
        }
        p += 1;
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, reg) in row.iter().enumerate() {
            let p = c.add(r * ldc + v * V::LANES);
            if last(v) {
                reg.store_partial(p, tail);
            } else {
                reg.store(p);
            }
        }
    }
}

/// A `rows × cols` block of `C += A·B`, `args` addressing its top-left
/// tile. Running it dereferences the whole block, so one is only built
/// over operands whose shapes were checked.
struct AxpyBlock {
    args: AxpyArgs,
    rows: usize,
    cols: usize,
}

impl Kernel for AxpyBlock {
    /// Sweeps the block in `MR × NR` tiles, column tiles outer so each
    /// `k × NR` panel of `B` stays in L1 while the row tiles pass over it.
    /// Edge tiles run the same micro-tile instantiated at their size.
    #[inline(always)]
    unsafe fn run<I: Isa>(self) {
        let AxpyBlock { args, rows, cols } = self;
        let lanes = <I::Vec as TileVec>::LANES;
        let nr = I::NV * lanes;
        let mut j = 0;
        while j < cols {
            let width = nr.min(cols - j);
            let nv = width.div_ceil(lanes);
            let tail = width - (nv - 1) * lanes;
            let mut i = 0;
            while i < rows {
                let t = AxpyArgs {
                    a: args.a.add(i * args.a_rs),
                    b: args.b.add(j),
                    c: args.c.add(i * args.ldc + j),
                    ..args
                };
                // Edge tiles are the same micro-tile at a smaller `R`/`NV`.
                macro_rules! tile {
                    ($($r:literal => [$($nv:literal),*]),*) => {
                        match (I::MR.min(rows - i), nv, tail < lanes) {
                            $($(
                                ($r, $nv, false) => axpy_tile::<I::Vec, $r, $nv, false>(t, tail),
                                ($r, $nv, true) => axpy_tile::<I::Vec, $r, $nv, true>(t, tail),
                            )*)*
                            _ => unreachable!("A·B tiles are at most 4 × 2 registers"),
                        }
                    };
                }
                tile!(1 => [1, 2], 2 => [1, 2], 3 => [1, 2], 4 => [1, 2]);
                i += I::MR;
            }
            j += nr;
        }
    }
}

/// Operands of one A·Bᵀ tile: row `r` of `A` at `a + r·lda`, row `c` of
/// `B` at `b + c·ldb`, both `k` long; `C[r][c]` at `c + r·ldc + c`.
#[derive(Clone, Copy)]
struct DotArgs {
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    k: usize,
    c: *mut f32,
    ldc: usize,
}

/// One `R × CG` block of dot accumulators of `C = A·Bᵀ`, `CG · DOTS`
/// output columns of which the first `cols` are stored. Each output keeps
/// the 8-lane `dot` order: eight lane sums over the 8-wide chunks of
/// `k`, added in lane order onto `+0.0`, then the leftover terms in order.
///
/// # Safety
///
/// The CPU must support `D`, and `args` must address an `R × cols` tile
/// inside its operands.
#[inline(always)]
unsafe fn dot_tile<D: DotVec, const R: usize, const CG: usize>(args: DotArgs, cols: usize) {
    let DotArgs {
        a,
        lda,
        b,
        ldb,
        k,
        c,
        ldc,
    } = args;
    // A register's slots past `cols` re-read the last valid row of `B`.
    let stride = |g: usize| if g * D::DOTS + 1 < cols { ldb } else { 0 };
    let mut acc = [[D::zero(); CG]; R];
    let chunks = k / 8;
    for ch in 0..chunks {
        let off = ch * 8;
        let mut y = [D::zero(); CG];
        for (g, reg) in y.iter_mut().enumerate() {
            *reg = D::load_y(b.add(g * D::DOTS * ldb + off), stride(g));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let x = D::load_x(a.add(r * lda + off));
            for (g, reg) in row.iter_mut().enumerate() {
                *reg = reg.add(x.mul(y[g]));
            }
        }
    }
    let mut lanes = [0.0f32; 16];
    for (r, row) in acc.iter().enumerate() {
        let x = a.add(r * lda);
        for (g, reg) in row.iter().enumerate() {
            reg.store(lanes.as_mut_ptr());
            for s in 0..D::DOTS {
                let col = g * D::DOTS + s;
                if col >= cols {
                    break;
                }
                let y = b.add(col * ldb);
                let mut sum = 0.0f32;
                for &lane in &lanes[s * 8..s * 8 + 8] {
                    sum += lane;
                }
                for t in chunks * 8..k {
                    sum += *x.add(t) * *y.add(t);
                }
                *c.add(r * ldc + col) = sum;
            }
        }
    }
}

/// A `rows × cols` block of `C = A·Bᵀ`, `args` addressing its top-left
/// tile; built only over checked shapes, like [`AxpyBlock`].
struct DotBlock {
    args: DotArgs,
    rows: usize,
    cols: usize,
}

impl Kernel for DotBlock {
    /// Sweeps the block in `DR × (DC·DOTS)` tiles, column tiles outer so
    /// the `B` rows of a tile stay in L1 while the row tiles pass over
    /// them.
    #[inline(always)]
    unsafe fn run<I: Isa>(self) {
        let DotBlock { args, rows, cols } = self;
        let dots = <I::Dot as DotVec>::DOTS;
        let nc = I::DC * dots;
        let mut j = 0;
        while j < cols {
            let width = nc.min(cols - j);
            let mut i = 0;
            while i < rows {
                let t = DotArgs {
                    a: args.a.add(i * args.lda),
                    b: args.b.add(j * args.ldb),
                    c: args.c.add(i * args.ldc + j),
                    ..args
                };
                // Edge tiles are the same micro-tile at a smaller `R`/`CG`.
                macro_rules! tile {
                    ($($r:literal => [$($cg:literal),*]),*) => {
                        match (I::DR.min(rows - i), width.div_ceil(dots)) {
                            $($(($r, $cg) => dot_tile::<I::Dot, $r, $cg>(t, width),)*)*
                            _ => unreachable!("A·Bᵀ tiles are at most 4 × 4 registers"),
                        }
                    };
                }
                tile!(1 => [1, 2, 3, 4], 2 => [1, 2, 3, 4], 3 => [1, 2, 3, 4], 4 => [1, 2, 3, 4]);
                i += I::DR;
            }
            j += nc;
        }
    }
}

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

/// Textbook triple-loop GEMM, `C = A * B`.
///
/// Used as the ground-truth reference for the packed and compacted kernels;
/// deliberately kept naive (including the zero-skip branch the paper's
/// Fig. 1(b) motivates against) so the production kernels have an
/// independent implementation to be validated against.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn naive_gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    check_inner(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
    Ok(c)
}

/// Per-row-chunk dense kernel: writes `chunk = A[rows] * B` (every element
/// of `chunk`, which holds exactly `rows.len() * b.cols()` values) with the
/// register-tiled micro-kernel.
///
/// Blocking (`bl`) comes from [`tune::blocking`]: a `kc × nc` panel of `B`
/// is reused across an `mc`-row block of the chunk before the kernel moves
/// on, keeping the panel resident in L2 (the CPU analogue of staging a tile
/// in shared memory); tiles never cross a block edge. `bl.kc` is a
/// multiple of 4, so the quad grouping boundaries sit at the same absolute
/// `k` positions for every config and results are bitwise
/// blocking-invariant (checked by a `tune` test).
fn dense_rows_kernel(a: &Matrix, b: &Matrix, rows: Range<usize>, chunk: &mut [f32], bl: Blocking) {
    let k = a.cols();
    let n = b.cols();
    // Every block below lies inside `A[rows, ..]`, `B` and `chunk` given
    // these shapes.
    assert!(k == b.rows() && rows.end <= a.rows() && chunk.len() == rows.len() * n);
    let kc = if bl.kc == 0 { k } else { bl.kc }.max(1);
    let nc = if bl.nc == 0 { n } else { bl.nc }.max(1);
    let mc = if bl.mc == 0 { rows.len() } else { bl.mc }.max(1);
    for ii in (rows.start..rows.end).step_by(mc) {
        let i_end = (ii + mc).min(rows.end);
        // With `k == 0` one empty block still runs: its tiles store the
        // `+0.0` they start from.
        for pp in (0..k.max(1)).step_by(kc) {
            let p_end = (pp + kc).min(k);
            for jj in (0..n).step_by(nc) {
                let j_end = (jj + nc).min(n);
                let args = AxpyArgs {
                    a: a.as_slice()[ii * k + pp..].as_ptr(),
                    a_rs: k,
                    a_ks: 1,
                    b: b.as_slice()[pp * n + jj..].as_ptr(),
                    ldb: n,
                    k: p_end - pp,
                    c: chunk[(ii - rows.start) * n + jj..].as_mut_ptr(),
                    ldc: n,
                    accumulate: pp > 0,
                };
                simd::dispatch(AxpyBlock {
                    args,
                    rows: i_end - ii,
                    cols: j_end - jj,
                });
            }
        }
    }
}

/// [`blocked_gemm_into`] with an explicit [`Blocking`] instead of the
/// globally active one — the timing probe of [`tune`]'s search, which must
/// evaluate candidates without mutating process state.
pub(crate) fn blocked_gemm_tuned_into(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    bl: Blocking,
) -> Result<(), GemmError> {
    check_inner(a, b)?;
    let m = a.rows();
    let n = b.cols();
    out.resize_for_overwrite(m, n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        dense_rows_kernel(a, b, rows, chunk, bl);
    });
    Ok(())
}

/// Packed, batch-parallel GEMM, `C = A * B`, writing into `out`.
///
/// `out` is resized (reusing its buffer when capacity allows) and every
/// element overwritten; it is never zero-filled first.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn blocked_gemm_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    check_inner(a, b)?;
    let m = a.rows();
    let n = b.cols();
    out.resize_for_overwrite(m, n);
    let bl = tune::blocking(m, a.cols(), n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        dense_rows_kernel(a, b, rows, chunk, bl);
    });
    Ok(())
}

/// Packed, batch-parallel GEMM, `C = A * B`.
///
/// Kept under its historical name (the seed's cache-blocked kernel) because
/// it remains the workspace-wide dense entry point; the implementation is now
/// the register-tiled kernel described in the module docs.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn blocked_gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    blocked_gemm_into(a, b, &mut out)?;
    Ok(out)
}

/// Per-row-chunk kernel for `C = Aᵀ · B`: the chunk covers rows `p` of `C`
/// (columns `p` of `A`). It is the A·B tile with `A` read down its
/// columns, accumulating across the whole batch.
fn at_b_rows_kernel(a: &Matrix, b: &Matrix, prows: Range<usize>, chunk: &mut [f32]) {
    let n = b.cols();
    // The block lies inside `A[.., prows]`, `B` and `chunk` given these
    // shapes.
    assert!(a.rows() == b.rows() && prows.end <= a.cols() && chunk.len() == prows.len() * n);
    let args = AxpyArgs {
        // An empty batch has no column to offset into.
        a: a.as_slice()[prows.start.min(a.len())..].as_ptr(),
        a_rs: 1,
        a_ks: a.cols(),
        b: b.as_slice().as_ptr(),
        ldb: n,
        k: a.rows(),
        c: chunk.as_mut_ptr(),
        ldc: n,
        accumulate: false,
    };
    simd::dispatch(AxpyBlock {
        args,
        rows: prows.len(),
        cols: n,
    });
}

/// Transposed-operand GEMM `C = Aᵀ · B` without materialising `Aᵀ`, writing
/// into `out`.
///
/// With activations `A` of shape `(batch, in)` and output gradients `B` of
/// shape `(batch, out)` this is exactly the weight-gradient product
/// `dW = Xᵀ·G` of the backward pass.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.rows() != b.rows()` (the shared batch
/// dimension).
pub fn gemm_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    if a.rows() != b.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            a.shape(),
            b.shape()
        )));
    }
    let k = a.cols();
    let n = b.cols();
    out.resize_for_overwrite(k, n);
    pool::run_row_chunks(k, n, out.as_mut_slice(), |prows, chunk| {
        at_b_rows_kernel(a, b, prows, chunk);
    });
    Ok(())
}

/// Transposed-operand GEMM `C = Aᵀ · B` without materialising `Aᵀ`.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.rows() != b.rows()`.
pub fn gemm_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    gemm_at_b_into(a, b, &mut out)?;
    Ok(out)
}

/// Per-row-chunk kernel for `C = A · Bᵀ`: element `(i, j)` is the dot
/// product of `A.row(i)` with `B.row(j)`, computed in blocks of dot
/// accumulators.
fn a_bt_rows_kernel(a: &Matrix, b: &Matrix, rows: Range<usize>, chunk: &mut [f32]) {
    let k = a.cols();
    // The block lies inside `A[rows, ..]`, `B` and `chunk` given these
    // shapes.
    assert!(k == b.cols() && rows.end <= a.rows() && chunk.len() == rows.len() * b.rows());
    let args = DotArgs {
        a: a.as_slice()[rows.start * k..].as_ptr(),
        lda: k,
        b: b.as_slice().as_ptr(),
        ldb: k,
        k,
        c: chunk.as_mut_ptr(),
        ldc: b.rows(),
    };
    simd::dispatch(DotBlock {
        args,
        rows: rows.len(),
        cols: b.rows(),
    });
}

/// Transposed-operand GEMM `C = A · Bᵀ` without materialising `Bᵀ`, writing
/// into `out`.
///
/// With output gradients `A` of shape `(batch, out)` and weights `B` of
/// shape `(in, out)` this is exactly the input-gradient product `dX = G·Wᵀ`
/// of the backward pass.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.cols()` (the shared inner
/// dimension).
pub fn gemm_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    if a.cols() != b.cols() {
        return Err(GemmError::new(format!(
            "inner dimensions disagree: {:?} * {:?}ᵀ",
            a.shape(),
            b.shape()
        )));
    }
    let m = a.rows();
    let n = b.rows();
    out.resize_for_overwrite(m, n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        a_bt_rows_kernel(a, b, rows, chunk);
    });
    Ok(())
}

/// Transposed-operand GEMM `C = A · Bᵀ` without materialising `Bᵀ`.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.cols()`.
pub fn gemm_a_bt(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    gemm_a_bt_into(a, b, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Fused whole-layer kernels (GEMM + bias + activation)
// ---------------------------------------------------------------------------

/// Activation function fused into a kernel's write-back epilogue.
///
/// The formulas match the stand-alone maps in [`crate::ops`] exactly, so a
/// fused kernel is bitwise identical to the unfused
/// GEMM → bias → activation chain it replaces. Both route through
/// [`crate::simd`]: under an active vector level the transcendentals use
/// the polynomial kernels (elementwise-deterministic, a few ULP from
/// `libm`; see the `simd` module docs), and with `TENSOR_SIMD=0` the
/// precise `libm` formulas — [`Activation::apply`] on one scalar always
/// agrees bitwise with [`Activation::apply_slice`] on a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Pass-through (`f(v) = v`): bias add only.
    Identity,
    /// Rectified linear unit, `max(0, v)` — scalar-exact at every SIMD
    /// level.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^{-v})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to one scalar (under the active SIMD level,
    /// see the type docs).
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
            Activation::Sigmoid => simd::sigmoid_scalar(v),
            Activation::Tanh => simd::tanh_scalar(v),
        }
    }

    /// Applies the activation elementwise to a row, vectorised when a SIMD
    /// level is active; bitwise identical to mapping [`Activation::apply`]
    /// over the row.
    #[inline]
    pub fn apply_slice(self, row: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => simd::relu_slice(row),
            Activation::Sigmoid => simd::sigmoid_slice(row),
            Activation::Tanh => simd::tanh_slice(row),
        }
    }
}

/// Validates that `bias` is a `1 × n` row vector.
fn check_bias(bias: &Matrix, n: usize) -> Result<(), GemmError> {
    if bias.rows() != 1 || bias.cols() != n {
        return Err(GemmError::new(format!(
            "bias must be a 1x{n} row vector, got {:?}",
            bias.shape()
        )));
    }
    Ok(())
}

/// The per-column write-back a fused dense kernel applies ahead of its
/// activation: the one part of the layer epilogue that differs between the
/// dropout families that run a dense GEMM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue<'a> {
    /// `v + bias[j]`: no dropout.
    Bias,
    /// `(v + bias[j]) · mask[j] · scale`: the conventional Bernoulli column
    /// mask of the paper's Fig. 1(a), folded into the write-back instead of
    /// a separate elementwise kernel.
    MaskedBias {
        /// Per-output-column 0/1 mask (1 = kept), one entry per column.
        mask: &'a [f32],
        /// Inverted-dropout scale of the kept columns.
        scale: f32,
    },
    /// `v · scale + bias[j]`: the raw product is scaled *before* the bias
    /// is added. This is the tile pattern's inverted-dropout scale over a
    /// tile-masked weight panel and the CRS `K/k` estimator scale over a
    /// K-sampled product; neither inflates the bias.
    ScaledBias {
        /// Multiplier of the raw product.
        scale: f32,
    },
}

impl Epilogue<'_> {
    /// Applies the write-back to one output row.
    #[inline]
    fn apply(self, row: &mut [f32], bias: &[f32]) {
        match self {
            Epilogue::Bias => simd::add_bias(row, bias),
            Epilogue::MaskedBias { mask, scale } => {
                simd::add_bias_mask_scale(row, bias, mask, scale);
            }
            Epilogue::ScaledBias { scale } => simd::scale_add_bias(row, scale, bias),
        }
    }
}

/// Fused dense whole-layer kernel, `C = act(A·W + bias)`, writing into `out`.
///
/// The bias add and activation run in the write-back loop of the packed GEMM
/// — one pass over the output while it is cache-hot, instead of the
/// GEMM → bias broadcast → activation map chain of separate kernels. Results
/// are bitwise identical to that chain and thread-invariant like every other
/// kernel here. [`gemm_epilogue_into`] is the same kernel with the other
/// write-backs.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != w.rows()` or `bias` is not a
/// `1 × w.cols()` row vector.
pub fn gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    act: Activation,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    gemm_epilogue_into(a, w, bias, Epilogue::Bias, act, out)
}

/// Allocating variant of [`gemm_bias_act_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] under the same conditions.
pub fn gemm_bias_act(
    a: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    act: Activation,
) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    gemm_bias_act_into(a, w, bias, act, &mut out)?;
    Ok(out)
}

/// Fused dense whole-layer kernel with an explicit write-back,
/// `C = act(epilogue(A·W, bias))`, writing into `out`: the packed GEMM of
/// [`blocked_gemm_into`] with `epilogue` and `act` applied to each row chunk
/// while it is cache-hot. Bitwise identical to the unfused
/// GEMM → write-back → activation chain and thread-invariant.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is not a
/// `1 × w.cols()` row vector, or a [`Epilogue::MaskedBias`] mask does not
/// have one entry per output column.
pub fn gemm_epilogue_into(
    a: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    epilogue: Epilogue<'_>,
    act: Activation,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_bias(bias, n)?;
    if let Epilogue::MaskedBias { mask, .. } = epilogue {
        if mask.len() != n {
            return Err(GemmError::new(format!(
                "column mask length {} must match {n} output features",
                mask.len()
            )));
        }
    }
    let m = a.rows();
    out.resize_for_overwrite(m, n);
    let bl = tune::blocking(m, a.cols(), n);
    let brow = bias.row(0);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        dense_rows_kernel(a, w, rows, chunk, bl);
        for row in chunk.chunks_exact_mut(n) {
            epilogue.apply(row, brow);
            act.apply_slice(row);
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// Selection kernels
// ---------------------------------------------------------------------------

/// Reusable buffers of the selection kernels: the packed `A[:, k]` panel,
/// the packed `W[k, n]` panel, the gathered (and scaled) `G[:, n]` panel of
/// the backward pass and the compact product. They are recycled across
/// training iterations, so the hot path makes no per-call allocations once
/// warmed up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectScratch {
    a_kept: Matrix,
    w_kept: Matrix,
    g_kept: Matrix,
    product: Matrix,
}

/// Validates one axis selection: every index below `len`, strictly
/// ascending (so no index is counted twice).
fn check_selection(sel: Option<&[usize]>, len: usize, axis: &str) -> Result<(), GemmError> {
    let mut next = 0;
    for &i in sel.unwrap_or_default() {
        if i >= len {
            return Err(GemmError::new(format!(
                "kept {axis} index {i} out of bounds for {len}"
            )));
        }
        if i < next {
            return Err(GemmError::new(format!(
                "kept {axis} indices must be strictly ascending: {i} follows {}",
                next - 1
            )));
        }
        next = i + 1;
    }
    Ok(())
}

/// Length of an axis of `len` entries under `sel`.
fn selected_len(sel: Option<&[usize]>, len: usize) -> usize {
    sel.map_or(len, <[usize]>::len)
}

/// Packs the selected rows × selected columns of `src` into the dense
/// panel `dst`; `None` keeps a whole axis. This is the one gather step of
/// every selection: `A[:, k]`, `W[k, :]`, `W[:, n]` and `W[k, n]`.
fn pack(src: &Matrix, rows: Option<&[usize]>, cols: Option<&[usize]>, dst: &mut Matrix) {
    let nrows = selected_len(rows, src.rows());
    dst.resize_for_overwrite(nrows, selected_len(cols, src.cols()));
    for r in 0..nrows {
        let srow = src.row(rows.map_or(r, |sel| sel[r]));
        let drow = dst.row_mut(r);
        match cols {
            Some(cols) => {
                for (d, &j) in drow.iter_mut().zip(cols) {
                    *d = srow[j];
                }
            }
            None => drow.copy_from_slice(srow),
        }
    }
}

/// Gathers the `cols` columns of `g`, times `scale`, into `dst`: the
/// gradient panel of the backward pass.
fn gather_scaled_cols(g: &Matrix, cols: &[usize], scale: f32, dst: &mut Matrix) {
    dst.resize_for_overwrite(g.rows(), cols.len());
    for i in 0..g.rows() {
        let src = g.row(i);
        for (d, &j) in dst.row_mut(i).iter_mut().zip(cols) {
            *d = src[j] * scale;
        }
    }
}

/// Resizes `dst` to the zeroed `rows × cols` full-size matrix and scatters
/// the compact `src` times `scale` into its selected rows and columns.
fn scatter(
    src: &Matrix,
    row_sel: Option<&[usize]>,
    col_sel: Option<&[usize]>,
    scale: f32,
    (rows, cols): (usize, usize),
    dst: &mut Matrix,
) {
    dst.resize(rows, cols);
    for r in 0..src.rows() {
        let s = src.row(r);
        let d = dst.row_mut(row_sel.map_or(r, |sel| sel[r]));
        match col_sel {
            Some(col_sel) => {
                for (&v, &j) in s.iter().zip(col_sel) {
                    d[j] = v * scale;
                }
            }
            None => {
                for (d, &v) in d.iter_mut().zip(s) {
                    *d = v * scale;
                }
            }
        }
    }
}

/// `src` restricted to the selected rows × columns: packed into `dst` when
/// an axis is selected, borrowed in place when none is.
fn select_panel<'a>(
    src: &'a Matrix,
    rows: Option<&[usize]>,
    cols: Option<&[usize]>,
    dst: &'a mut Matrix,
) -> &'a Matrix {
    if rows.is_none() && cols.is_none() {
        return src;
    }
    pack(src, rows, cols, dst);
    dst
}

/// The checked operands of a selected product, `A[:, k]` and `W[k, n]`.
fn select_operands<'a>(
    a: &'a Matrix,
    w: &'a Matrix,
    n_sel: Option<&[usize]>,
    k_sel: Option<&[usize]>,
    a_kept: &'a mut Matrix,
    w_kept: &'a mut Matrix,
) -> Result<(&'a Matrix, &'a Matrix), GemmError> {
    check_inner(a, w)?;
    check_selection(n_sel, w.cols(), "output")?;
    check_selection(k_sel, a.cols(), "inner")?;
    Ok((
        select_panel(a, None, k_sel, a_kept),
        select_panel(w, k_sel, n_sel, w_kept),
    ))
}

/// Selection GEMM, writing into `out`: the raw product of the selected part
/// of `C = A · W`, with every unselected output column exactly zero.
///
/// `n_sel` selects output columns (kept neurons of the row, N:M and block
/// families) and `k_sel` selects inner-dimension indices (column-row
/// sampling, arXiv:1805.08079); `None` keeps the whole axis. The selected
/// columns of `A` and the selected grid of `W` are packed into dense panels,
/// the dense tile kernel runs over them, and the compact product is
/// scattered back into the full-size zero output: steps 1–3 of the paper's
/// Fig. 3(a), on either axis. An axis that is not selected is not packed:
/// `A` is read in place when `k_sel` is `None`, and the product lands in
/// `out` directly when `n_sel` is `None`. Selecting every index of an axis,
/// in order, is bitwise identical to not selecting it.
///
/// No scale is applied: callers fold the `K/k` estimator and the
/// inverted-dropout scale into their epilogue (see
/// [`select_gemm_bias_act_into`]).
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or a selection
/// is not strictly ascending and in bounds.
pub fn select_gemm_into(
    a: &Matrix,
    w: &Matrix,
    n_sel: Option<&[usize]>,
    k_sel: Option<&[usize]>,
    scratch: &mut SelectScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    let SelectScratch {
        a_kept,
        w_kept,
        product,
        ..
    } = scratch;
    let (a_op, w_op) = select_operands(a, w, n_sel, k_sel, a_kept, w_kept)?;
    match n_sel {
        Some(_) => {
            blocked_gemm_into(a_op, w_op, product)?;
            scatter(product, None, n_sel, 1.0, (a.rows(), w.cols()), out);
            Ok(())
        }
        None => blocked_gemm_into(a_op, w_op, out),
    }
}

/// Multiplies `m` by `scale` in place, skipping the pass when `scale == 1`.
fn scale_inplace(m: &mut Matrix, scale: f32) {
    if scale != 1.0 {
        m.map_inplace(|v| v * scale);
    }
}

/// Backward pair of the selection GEMM, through one scratch:
/// `dW[k, n] = X[:, k]ᵀ · G[:, n]` and `dX[:, k] = G[:, n] · W[k, n]ᵀ`, both
/// times `scale`, with every unselected entry of `dw` and `dx` exactly zero.
///
/// When `n_sel` selects columns, `scale` multiplies the gathered gradient
/// panel `G[:, n]` once and both products reuse it; otherwise `G` is used
/// in place and `scale` is applied in the scatter of the `K` axis. `scale`
/// carries the inverted-dropout scale, the `K/k` estimator scale, or their
/// product.
///
/// # Errors
///
/// Returns a [`GemmError`] if the batch dimensions of `x` and `g` disagree,
/// `g.cols() != w.cols()`, `x.cols() != w.rows()`, or a selection is not
/// strictly ascending and in bounds.
#[allow(clippy::too_many_arguments)] // a GEMM pair: 3 operands, 2 selections, 1 scale, scratch, 2 outputs
pub fn select_backward_into(
    x: &Matrix,
    g: &Matrix,
    w: &Matrix,
    n_sel: Option<&[usize]>,
    k_sel: Option<&[usize]>,
    scale: f32,
    scratch: &mut SelectScratch,
    dw: &mut Matrix,
    dx: &mut Matrix,
) -> Result<(), GemmError> {
    if x.rows() != g.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            x.shape(),
            g.shape()
        )));
    }
    if g.cols() != w.cols() || x.cols() != w.rows() {
        return Err(GemmError::new(format!(
            "gradient {:?} and input {:?} do not match weight {:?}",
            g.shape(),
            x.shape(),
            w.shape()
        )));
    }
    check_selection(n_sel, w.cols(), "output")?;
    check_selection(k_sel, w.rows(), "inner")?;
    let SelectScratch {
        a_kept,
        w_kept,
        g_kept,
        product,
    } = scratch;
    // The scale rides in the gradient gather when N is selected, and in
    // the K scatter (or in place) when it is not.
    let (g_op, post) = match n_sel {
        Some(cols) => {
            gather_scaled_cols(g, cols, scale, g_kept);
            (&*g_kept, 1.0)
        }
        None => (g, scale),
    };
    let (k, n) = w.shape();
    // dX: the gradient panel against the packed weight grid. dX first: the
    // weight panel it packs is dead afterwards.
    let w_op = select_panel(w, k_sel, n_sel, w_kept);
    match k_sel {
        Some(_) => {
            gemm_a_bt_into(g_op, w_op, product)?;
            scatter(product, None, k_sel, post, (x.rows(), k), dx);
        }
        None => {
            gemm_a_bt_into(g_op, w_op, dx)?;
            scale_inplace(dx, post);
        }
    }
    // dW: the packed inputs against the same gradient panel, scattered into
    // the selected (row, column) grid.
    let x_op = select_panel(x, None, k_sel, a_kept);
    if n_sel.is_none() && k_sel.is_none() {
        gemm_at_b_into(x_op, g_op, dw)?;
        scale_inplace(dw, post);
    } else {
        gemm_at_b_into(x_op, g_op, product)?;
        scatter(product, k_sel, n_sel, post, (k, n), dw);
    }
    Ok(())
}

/// Fused selection whole-layer kernel: the selection GEMM of
/// [`select_gemm_into`] with the estimator scale, bias add,
/// inverted-dropout scale and activation folded into the write-back.
///
/// * With `n_sel` selecting columns, a kept column `j` is
///   `act((p·k_scale + bias[j])·n_scale)` for the compact product `p`, and
///   a dropped column is `act(0)`: exactly what the unfused
///   select → epilogue → activation chain produces, since the dropped
///   pre-activations are zero. For a plan that selects no `K` indices,
///   `k_scale` is 1 and `p·1 == p`, so this is bitwise `(p + bias[j])·n_scale`.
/// * With `n_sel` `None` the product is written straight into `out` through
///   the [`Epilogue::ScaledBias`] write-back, `act(p·k_scale + bias)`: the
///   `K/k` estimator corrects the raw product before the bias, so the bias
///   is never inflated. `n_scale` must then be 1.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is not a
/// `1 × w.cols()` row vector, a selection is not strictly ascending and in
/// bounds, or `n_scale != 1` without an `n_sel`.
#[allow(clippy::too_many_arguments)] // a whole layer: 3 operands + 2 selections + 2 scales + act + scratch + out
pub fn select_gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    n_sel: Option<&[usize]>,
    k_sel: Option<&[usize]>,
    bias: &Matrix,
    k_scale: f32,
    n_scale: f32,
    act: Activation,
    scratch: &mut SelectScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    let n = w.cols();
    check_bias(bias, n)?;
    if n_sel.is_none() && n_scale != 1.0 {
        return Err(GemmError::new(format!(
            "output scale {n_scale} needs an output selection"
        )));
    }
    let SelectScratch {
        a_kept,
        w_kept,
        product,
        ..
    } = scratch;
    let (a_op, w_op) = select_operands(a, w, n_sel, k_sel, a_kept, w_kept)?;
    let Some(cols) = n_sel else {
        let epilogue = Epilogue::ScaledBias { scale: k_scale };
        return gemm_epilogue_into(a_op, w_op, bias, epilogue, act, out);
    };
    blocked_gemm_into(a_op, w_op, product)?;
    // Scatter with the whole epilogue fused into the write-back: the
    // pre-activations land in the kept columns of a zeroed row and the
    // activation runs vectorised over the full row (`act(0)` in the dropped
    // columns, same as the unfused chain).
    let brow = bias.row(0);
    out.resize_for_overwrite(a.rows(), n);
    for i in 0..a.rows() {
        let src = product.row(i);
        let dst = out.row_mut(i);
        dst.fill(0.0);
        for (&p, &j) in src.iter().zip(cols) {
            dst[j] = (p * k_scale + brow[j]) * n_scale;
        }
        act.apply_slice(dst);
    }
    Ok(())
}

/// Reference implementation of tile dropout through explicit masking.
///
/// Builds the full masked weight matrix (kept tiles preserved, dropped tiles
/// zeroed) and multiplies densely — the slow path that conventional dropout
/// is stuck with, through the naive kernel. The tile path's dense GEMM over
/// a tile-masked panel is validated against it.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `tile == 0`, or
/// a tile index is outside the tile grid.
pub fn tile_masked_gemm_reference(
    a: &Matrix,
    w: &Matrix,
    kept_tiles: &[usize],
    tile: usize,
) -> Result<Matrix, GemmError> {
    if tile == 0 {
        return Err(GemmError::new("tile size must be positive"));
    }
    let tiles_per_row = w.cols().div_ceil(tile);
    let total_tiles = tiles_per_row * w.rows().div_ceil(tile);
    if let Some(&bad) = kept_tiles.iter().find(|&&t| t >= total_tiles) {
        return Err(GemmError::new(format!(
            "tile index {bad} out of bounds for a grid of {total_tiles} tiles"
        )));
    }
    let mut masked = Matrix::zeros(w.rows(), w.cols());
    for &t in kept_tiles {
        let tile_row = t / tiles_per_row;
        let tile_col = t % tiles_per_row;
        for p in (tile_row * tile)..((tile_row + 1) * tile).min(w.rows()) {
            for j in (tile_col * tile)..((tile_col + 1) * tile).min(w.cols()) {
                masked[(p, j)] = w[(p, j)];
            }
        }
    }
    naive_gemm(a, &masked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        init::uniform(rng, r, c, -1.0, 1.0)
    }

    #[test]
    fn naive_gemm_small_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = naive_gemm(&a, &b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gemm_rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(naive_gemm(&a, &b).is_err());
        assert!(blocked_gemm(&a, &b).is_err());
        assert!(gemm_at_b(&a, &b).is_err());
        assert!(gemm_a_bt(&a, &Matrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_matrix(&mut rng, 37, 53);
        let b = random_matrix(&mut rng, 53, 41);
        let c1 = naive_gemm(&a, &b).unwrap();
        let c2 = blocked_gemm(&a, &b).unwrap();
        assert!(crate::approx_eq_slice(c1.as_slice(), c2.as_slice(), 1e-3));
    }

    #[test]
    fn identity_is_neutral_for_all_kernels() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 16, 16);
        let i = Matrix::identity(16);
        assert!(crate::approx_eq_slice(
            naive_gemm(&a, &i).unwrap().as_slice(),
            a.as_slice(),
            1e-5
        ));
        assert!(crate::approx_eq_slice(
            blocked_gemm(&a, &i).unwrap().as_slice(),
            a.as_slice(),
            1e-5
        ));
    }

    #[test]
    fn blocked_into_reuses_the_output_buffer() {
        let mut rng = StdRng::seed_from_u64(29);
        let a = random_matrix(&mut rng, 12, 20);
        let b = random_matrix(&mut rng, 20, 16);
        let mut out = Matrix::zeros(12, 16);
        blocked_gemm_into(&a, &b, &mut out).unwrap();
        let ptr_before = out.as_slice().as_ptr();
        blocked_gemm_into(&a, &b, &mut out).unwrap();
        assert_eq!(
            ptr_before,
            out.as_slice().as_ptr(),
            "same-shape recomputation must not reallocate"
        );
        let reference = naive_gemm(&a, &b).unwrap();
        assert!(crate::approx_eq_slice(
            out.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = random_matrix(&mut rng, 33, 21); // (batch, in)
        let b = random_matrix(&mut rng, 33, 17); // (batch, out)
        let fused = gemm_at_b(&a, &b).unwrap();
        let reference = naive_gemm(&a.transpose(), &b).unwrap();
        assert_eq!(fused.shape(), (21, 17));
        assert!(crate::approx_eq_slice(
            fused.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(37);
        let a = random_matrix(&mut rng, 19, 27); // (batch, out)
        let b = random_matrix(&mut rng, 23, 27); // (in, out)
        let fused = gemm_a_bt(&a, &b).unwrap();
        let reference = naive_gemm(&a, &b.transpose()).unwrap();
        assert_eq!(fused.shape(), (19, 23));
        assert!(crate::approx_eq_slice(
            fused.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn transposed_variants_handle_ragged_batch_remainders() {
        // Batch sizes that are not multiples of the 4-row panel exercise the
        // scalar tail of the unrolled loops.
        let mut rng = StdRng::seed_from_u64(41);
        for batch in [1, 2, 3, 5, 6, 7] {
            let a = random_matrix(&mut rng, batch, 9);
            let b = random_matrix(&mut rng, batch, 11);
            let fused = gemm_at_b(&a, &b).unwrap();
            let reference = naive_gemm(&a.transpose(), &b).unwrap();
            assert!(
                crate::approx_eq_slice(fused.as_slice(), reference.as_slice(), 1e-4),
                "batch {batch}"
            );
        }
    }

    /// Raw selection product with a fresh scratch (the tests' stand-in for
    /// the allocating forms the selection kernels replaced).
    fn select(a: &Matrix, w: &Matrix, n: Option<&[usize]>, k: Option<&[usize]>) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        select_gemm_into(a, w, n, k, &mut SelectScratch::default(), &mut out)
            .map(|()| out)
            .expect("valid selection")
    }

    /// `(dW, dX)` of [`select_backward_into`] with a fresh scratch.
    fn select_backward(
        x: &Matrix,
        g: &Matrix,
        w: &Matrix,
        n: Option<&[usize]>,
        k: Option<&[usize]>,
        scale: f32,
    ) -> (Matrix, Matrix) {
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut scratch = SelectScratch::default();
        select_backward_into(x, g, w, n, k, scale, &mut scratch, &mut dw, &mut dx)
            .expect("valid selection");
        (dw, dx)
    }

    #[test]
    fn row_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 8, 12);
        let w = random_matrix(&mut rng, 12, 10);
        let kept = vec![0, 3, 6, 9];
        let compact = select(&a, &w, Some(&kept), None);
        let reference = col_masked_reference(&a, &w, &kept);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn row_compact_rejects_out_of_bounds_index() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = SelectScratch::default();
        assert!(select_gemm_into(&a, &w, Some(&[4]), None, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn row_compact_with_all_rows_equals_dense() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 6, 7);
        let w = random_matrix(&mut rng, 7, 5);
        let all: Vec<usize> = (0..5).collect();
        let compact = select(&a, &w, Some(&all), None);
        let dense = naive_gemm(&a, &w).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            dense.as_slice(),
            1e-4
        ));
        // Selecting every column in order is bitwise the unselected product.
        assert_eq!(compact, select(&a, &w, None, None));
    }

    #[test]
    fn row_compact_with_no_rows_is_zero() {
        let a = Matrix::ones(3, 4);
        let w = Matrix::ones(4, 5);
        let c = select(&a, &w, Some(&[]), None);
        assert_eq!(c.sum(), 0.0);
        assert_eq!(c.shape(), (3, 5));
    }

    #[test]
    fn row_compact_scratch_is_recycled() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = random_matrix(&mut rng, 6, 10);
        let w = random_matrix(&mut rng, 10, 8);
        let mut scratch = SelectScratch::default();
        let mut out = Matrix::zeros(0, 0);
        select_gemm_into(&a, &w, Some(&[0, 2, 4, 6]), None, &mut scratch, &mut out).unwrap();
        let pack_ptr = scratch.w_kept.as_slice().as_ptr();
        let out_ptr = out.as_slice().as_ptr();
        // Second call with the same kept-count: every buffer is reused.
        select_gemm_into(&a, &w, Some(&[1, 3, 5, 7]), None, &mut scratch, &mut out).unwrap();
        assert_eq!(pack_ptr, scratch.w_kept.as_slice().as_ptr());
        assert_eq!(out_ptr, out.as_slice().as_ptr());
    }

    /// The tile path's weight operand: `w` with every dropped tile of the
    /// `tile`-wide grid zeroed.
    fn tile_masked_panel(w: &Matrix, kept: &[usize], tile: usize) -> Matrix {
        let tiles_per_row = w.cols().div_ceil(tile);
        Matrix::from_fn(w.rows(), w.cols(), |p, j| {
            let t = (p / tile) * tiles_per_row + j / tile;
            if kept.contains(&t) {
                w[(p, j)]
            } else {
                0.0
            }
        })
    }

    /// The tile path's forward GEMM with a zero bias and unit scale: the
    /// dense kernel over the tile-masked panel with the tile write-back.
    fn tile_panel_gemm(a: &Matrix, w: &Matrix, kept: &[usize], tile: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        gemm_epilogue_into(
            a,
            &tile_masked_panel(w, kept, tile),
            &Matrix::zeros(1, w.cols()),
            Epilogue::ScaledBias { scale: 1.0 },
            Activation::Identity,
            &mut out,
        )
        .unwrap();
        out
    }

    #[test]
    fn tile_compact_matches_masked_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = random_matrix(&mut rng, 9, 12);
        let w = random_matrix(&mut rng, 12, 10);
        let tile = 4;
        let kept = vec![0, 2, 5, 7];
        let compact = tile_panel_gemm(&a, &w, &kept, tile);
        let reference = tile_masked_gemm_reference(&a, &w, &kept, tile).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn tile_compact_with_all_tiles_equals_dense() {
        let mut rng = StdRng::seed_from_u64(19);
        let a = random_matrix(&mut rng, 8, 8);
        let w = random_matrix(&mut rng, 8, 8);
        let tile = 4;
        let all: Vec<usize> = (0..4).collect();
        let dense = naive_gemm(&a, &w).unwrap();
        for compact in [
            tile_panel_gemm(&a, &w, &all, tile),
            tile_masked_gemm_reference(&a, &w, &all, tile).unwrap(),
        ] {
            assert!(crate::approx_eq_slice(
                compact.as_slice(),
                dense.as_slice(),
                1e-4
            ));
        }
    }

    #[test]
    fn tile_compact_rejects_zero_tile_size() {
        let a = Matrix::zeros(4, 4);
        let w = Matrix::zeros(4, 4);
        assert!(tile_masked_gemm_reference(&a, &w, &[0], 0).is_err());
    }

    #[test]
    fn tile_compact_rejects_out_of_range_tile() {
        let a = Matrix::zeros(4, 4);
        let w = Matrix::zeros(4, 4);
        // 4x4 weight with tile 4 has exactly one tile (index 0).
        assert!(tile_masked_gemm_reference(&a, &w, &[1], 4).is_err());
    }

    #[test]
    fn tile_compact_handles_non_divisible_edges() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 5, 7);
        let w = random_matrix(&mut rng, 7, 9);
        let tile = 4; // 2x3 tile grid with ragged edges
        let kept = vec![0, 3, 5];
        let compact = tile_panel_gemm(&a, &w, &kept, tile);
        let reference = tile_masked_gemm_reference(&a, &w, &kept, tile).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    /// Dense column-multiplier reference for the gather/block kernels: zero
    /// the dropped columns of `w`, multiply naively.
    fn col_masked_reference(a: &Matrix, w: &Matrix, kept: &[usize]) -> Matrix {
        let mut masked = w.clone();
        for j in 0..w.cols() {
            if !kept.contains(&j) {
                for p in 0..w.rows() {
                    masked[(p, j)] = 0.0;
                }
            }
        }
        naive_gemm(a, &masked).unwrap()
    }

    #[test]
    fn nm_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(51);
        let a = random_matrix(&mut rng, 6, 9);
        let w = random_matrix(&mut rng, 9, 8);
        // 2:4 over 8 columns: lanes {1,3} and {4,6}.
        let kept = vec![1, 3, 4, 6];
        let compact = select(&a, &w, Some(&kept), None);
        let reference = col_masked_reference(&a, &w, &kept);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn nm_compact_handles_ragged_tail_group() {
        let mut rng = StdRng::seed_from_u64(53);
        let a = random_matrix(&mut rng, 3, 5);
        let w = random_matrix(&mut rng, 5, 10);
        // 3:4 over 10 columns: tail group {8, 9} keeps min(3, 2) = 2 lanes.
        let kept = vec![0, 2, 3, 5, 6, 7, 8, 9];
        let compact = select(&a, &w, Some(&kept), None);
        let reference = col_masked_reference(&a, &w, &kept);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn gather_backward_forms_match_dense_references() {
        let mut rng = StdRng::seed_from_u64(57);
        let x = random_matrix(&mut rng, 7, 5); // (batch, in)
        let g = random_matrix(&mut rng, 7, 9); // (batch, out)
        let w = random_matrix(&mut rng, 5, 9); // (in, out)
        let kept = vec![0, 3, 4, 8];
        let scale = 2.25f32;

        // dW reference: Xᵀ · (scale · G ⊙ column mask).
        let mut g_masked = Matrix::zeros(7, 9);
        for i in 0..7 {
            for &j in &kept {
                g_masked[(i, j)] = g[(i, j)] * scale;
            }
        }
        let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
        let (dw, dx) = select_backward(&x, &g, &w, Some(&kept), None, scale);
        assert_eq!(dw.shape(), (5, 9));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-4
        ));

        // dX reference: (scale · G ⊙ mask) · Wᵀ with dropped columns of W
        // contributing nothing.
        let dx_ref = naive_gemm(&g_masked, &w.transpose()).unwrap();
        assert_eq!(dx.shape(), (7, 5));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn fused_gather_backward_matches_the_standalone_pair() {
        // The pair with an output selection alone equals the pair that also
        // selects every inner index in order, bitwise: the unselected K
        // axis is read in place, the selected one packed, and both feed the
        // same kernels the same values.
        let mut rng = StdRng::seed_from_u64(59);
        let x = random_matrix(&mut rng, 6, 4);
        let g = random_matrix(&mut rng, 6, 10);
        let w = random_matrix(&mut rng, 4, 10);
        let kept = vec![1, 2, 6, 9];
        let all_k: Vec<usize> = (0..4).collect();
        let scale = 3.0f32;
        let pair = select_backward(&x, &g, &w, Some(&kept), None, scale);
        assert_eq!(
            pair,
            select_backward(&x, &g, &w, Some(&kept), Some(&all_k), scale)
        );

        // Shape mismatches are rejected up front.
        let mut s2 = SelectScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let bad_batch = Matrix::zeros(5, 4);
        assert!(select_backward_into(
            &bad_batch,
            &g,
            &w,
            Some(&kept),
            None,
            scale,
            &mut s2,
            &mut dw,
            &mut dx
        )
        .is_err());
        let bad_width = Matrix::zeros(4, 9);
        assert!(select_backward_into(
            &x,
            &g,
            &bad_width,
            Some(&kept),
            None,
            scale,
            &mut s2,
            &mut dw,
            &mut dx
        )
        .is_err());
    }

    #[test]
    fn gather_backward_rejects_bad_shapes() {
        let mut scratch = SelectScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut run = |x: &Matrix, g: &Matrix, w: &Matrix, n: &[usize]| {
            select_backward_into(x, g, w, Some(n), None, 1.0, &mut scratch, &mut dw, &mut dx)
        };
        // Batch dimensions disagree.
        let (x, g, w) = (
            Matrix::zeros(3, 4),
            Matrix::zeros(2, 5),
            Matrix::zeros(4, 5),
        );
        assert!(run(&x, &g, &w, &[0]).is_err());
        // Output widths disagree.
        let (x, g, w) = (
            Matrix::zeros(3, 4),
            Matrix::zeros(3, 5),
            Matrix::zeros(4, 6),
        );
        assert!(run(&x, &g, &w, &[0]).is_err());
        // Kept column out of bounds.
        let (x, g, w) = (
            Matrix::zeros(3, 4),
            Matrix::zeros(3, 5),
            Matrix::zeros(4, 5),
        );
        assert!(run(&x, &g, &w, &[5]).is_err());
    }

    /// Kept output columns of a `block`-wide block plan over `n` columns:
    /// the selection kernels' kept set, the last block clipped to `n`.
    fn block_cols(kept_blocks: &[usize], block: usize, n: usize) -> Vec<usize> {
        kept_blocks
            .iter()
            .flat_map(|&b| (b * block)..((b + 1) * block).min(n))
            .collect()
    }

    #[test]
    fn block_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(61);
        let a = random_matrix(&mut rng, 5, 7);
        let w = random_matrix(&mut rng, 7, 10); // 3 blocks of 4 (last ragged)
        let kept_cols = block_cols(&[0, 2], 4, 10);
        assert_eq!(kept_cols, (0..4).chain(8..10).collect::<Vec<_>>());
        let compact = select(&a, &w, Some(&kept_cols), None);
        let reference = col_masked_reference(&a, &w, &kept_cols);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn block_compact_with_all_blocks_equals_dense() {
        let mut rng = StdRng::seed_from_u64(63);
        let a = random_matrix(&mut rng, 6, 8);
        let w = random_matrix(&mut rng, 8, 12);
        let compact = select(&a, &w, Some(&block_cols(&[0, 1, 2], 4, 12)), None);
        let dense = naive_gemm(&a, &w).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            dense.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn block_compact_rejects_bad_parameters() {
        // A block index past the grid expands to columns past the output
        // width, which the selection rejects (block plans reject it where
        // they are built, in `StructuredUnits::resolve_block`).
        let a = Matrix::zeros(2, 4);
        let w = Matrix::zeros(4, 8);
        let cols = block_cols(&[2], 4, 12); // 2 blocks only
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = SelectScratch::default();
        assert!(select_gemm_into(&a, &w, Some(&cols), None, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn block_backward_forms_match_dense_references() {
        let mut rng = StdRng::seed_from_u64(67);
        let x = random_matrix(&mut rng, 6, 5); // (batch, in)
        let g = random_matrix(&mut rng, 6, 11); // (batch, out): 3 blocks of 4
        let w = random_matrix(&mut rng, 5, 11); // (in, out)
        let kept_cols = block_cols(&[1, 2], 4, 11);
        assert_eq!(kept_cols, (4..11).collect::<Vec<_>>());
        let scale = 1.75f32;

        let mut g_masked = Matrix::zeros(6, 11);
        for i in 0..6 {
            for &j in &kept_cols {
                g_masked[(i, j)] = g[(i, j)] * scale;
            }
        }

        let (dw, dx) = select_backward(&x, &g, &w, Some(&kept_cols), None, scale);
        let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
        assert_eq!(dw.shape(), (5, 11));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-3
        ));
        let dx_ref = naive_gemm(&g_masked, &w.transpose()).unwrap();
        assert_eq!(dx.shape(), (6, 5));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn block_backward_with_ragged_batch_exercises_scalar_tail() {
        // Batch sizes off the 4-row panel exercise the scalar tail of the
        // unrolled at_b kernel under a block's contiguous kept columns.
        let mut rng = StdRng::seed_from_u64(71);
        let kept_cols = block_cols(&[0], 4, 8);
        let w = random_matrix(&mut rng, 4, 8);
        for batch in [1usize, 2, 3, 5] {
            let x = random_matrix(&mut rng, batch, 4);
            let g = random_matrix(&mut rng, batch, 8);
            let mut g_masked = Matrix::zeros(batch, 8);
            for i in 0..batch {
                for j in 0..4 {
                    g_masked[(i, j)] = g[(i, j)];
                }
            }
            let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
            let (dw, _) = select_backward(&x, &g, &w, Some(&kept_cols), None, 1.0);
            assert!(
                crate::approx_eq_slice(dw.as_slice(), dw_ref.as_slice(), 1e-4),
                "batch {batch}"
            );
        }
    }

    /// All four activations, for sweeping the fused-kernel tests.
    const ACTIVATIONS: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    #[test]
    fn fused_dense_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(81);
        let a = random_matrix(&mut rng, 9, 13);
        let w = random_matrix(&mut rng, 13, 11);
        let bias = random_matrix(&mut rng, 1, 11);
        for act in ACTIVATIONS {
            let mut reference = blocked_gemm(&a, &w).unwrap();
            reference.add_row_broadcast_inplace(&bias).unwrap();
            reference.map_inplace(|v| act.apply(v));
            let fused = gemm_bias_act(&a, &w, &bias, act).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_dense_masked_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(83);
        let a = random_matrix(&mut rng, 7, 10);
        let w = random_matrix(&mut rng, 10, 8);
        let bias = random_matrix(&mut rng, 1, 8);
        let mask: Vec<f32> = (0..8).map(|j| if j % 3 == 0 { 0.0 } else { 1.0 }).collect();
        let scale = 1.5f32;
        for act in ACTIVATIONS {
            let mut reference = blocked_gemm(&a, &w).unwrap();
            reference.add_row_broadcast_inplace(&bias).unwrap();
            for i in 0..reference.rows() {
                for (v, &m) in reference.row_mut(i).iter_mut().zip(&mask) {
                    *v *= m * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let mut fused = Matrix::zeros(0, 0);
            let epilogue = Epilogue::MaskedBias { mask: &mask, scale };
            gemm_epilogue_into(&a, &w, &bias, epilogue, act, &mut fused).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    /// The fused selection kernel with a fresh scratch.
    #[allow(clippy::too_many_arguments)]
    fn select_fused(
        a: &Matrix,
        w: &Matrix,
        n: Option<&[usize]>,
        k: Option<&[usize]>,
        bias: &Matrix,
        k_scale: f32,
        n_scale: f32,
        act: Activation,
    ) -> Result<Matrix, GemmError> {
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = SelectScratch::default();
        select_gemm_bias_act_into(
            a,
            w,
            n,
            k,
            bias,
            k_scale,
            n_scale,
            act,
            &mut scratch,
            &mut out,
        )
        .map(|()| out)
    }

    #[test]
    fn fused_gather_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(85);
        let a = random_matrix(&mut rng, 6, 9);
        let w = random_matrix(&mut rng, 9, 12);
        let bias = random_matrix(&mut rng, 1, 12);
        let kept = vec![0usize, 3, 5, 6, 10];
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            // Unfused chain: selection GEMM, then the row path's epilogue
            // ((v + bias) * scale on kept columns only), then the activation.
            let mut reference = select(&a, &w, Some(&kept), None);
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept {
                    row[j] = (row[j] + bias[(0, j)]) * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let fused = select_fused(&a, &w, Some(&kept), None, &bias, 1.0, scale, act).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_block_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(89);
        let a = random_matrix(&mut rng, 6, 7);
        let w = random_matrix(&mut rng, 7, 11); // 3 blocks of 4, last ragged
        let bias = random_matrix(&mut rng, 1, 11);
        let kept_cols = block_cols(&[0, 2], 4, 11);
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            let mut reference = select(&a, &w, Some(&kept_cols), None);
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept_cols {
                    row[j] = (row[j] + bias[(0, j)]) * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let fused =
                select_fused(&a, &w, Some(&kept_cols), None, &bias, 1.0, scale, act).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_tile_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(91);
        let a = random_matrix(&mut rng, 5, 8);
        let w = random_matrix(&mut rng, 8, 9); // ragged 2x3 tile grid at tile 4
        let bias = random_matrix(&mut rng, 1, 9);
        let panel = tile_masked_panel(&w, &[0, 2, 5], 4);
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            // Unfused tile chain: GEMM over the masked panel, scale, bias
            // broadcast over every column, then the activation.
            let mut reference = blocked_gemm(&a, &panel).unwrap();
            reference.map_inplace(|v| v * scale);
            reference.add_row_broadcast_inplace(&bias).unwrap();
            reference.map_inplace(|v| act.apply(v));
            let mut fused = Matrix::zeros(0, 0);
            let epilogue = Epilogue::ScaledBias { scale };
            gemm_epilogue_into(&a, &panel, &bias, epilogue, act, &mut fused).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_kernels_reject_malformed_bias() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        let bad_bias = Matrix::zeros(1, 5);
        let mut out = Matrix::zeros(0, 0);
        assert!(gemm_bias_act_into(&a, &w, &bad_bias, Activation::Relu, &mut out).is_err());
        let short_mask = Epilogue::MaskedBias {
            mask: &[1.0; 3],
            scale: 1.0,
        };
        let bias = Matrix::zeros(1, 4);
        assert!(gemm_epilogue_into(&a, &w, &bias, short_mask, Activation::Relu, &mut out).is_err());
        let relu = Activation::Relu;
        assert!(select_fused(&a, &w, Some(&[0]), None, &bad_bias, 1.0, 1.0, relu).is_err());
    }

    #[test]
    fn fused_dropped_columns_carry_the_activation_of_zero() {
        // A dropped neuron's pre-activation is exactly zero; the fused kernel
        // must report act(0) there (0 for ReLU, 0.5 for sigmoid) just like
        // the unfused chain's elementwise activation pass does.
        let a = Matrix::ones(2, 3);
        let w = Matrix::ones(3, 4);
        let bias = Matrix::zeros(1, 4);
        let sigmoid = Activation::Sigmoid;
        let out = select_fused(&a, &w, Some(&[1]), None, &bias, 1.0, 1.0, sigmoid).unwrap();
        assert_eq!(out[(0, 0)], 0.5);
        assert!((out[(0, 1)] - Activation::Sigmoid.apply(3.0)).abs() < 1e-6);
    }

    #[test]
    fn dense_path_keeps_exact_zeros_in_operands() {
        // The packed kernel has no zero-skip branch; a zero in A must simply
        // contribute nothing (and not disturb vectorised lanes).
        let a = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[10.0, 20.0], &[100.0, 200.0]]);
        let c = blocked_gemm(&a, &b).unwrap();
        let reference = naive_gemm(&a, &b).unwrap();
        assert_eq!(c, reference);
    }

    /// Dense reference of the K-sampled product: zero the dropped columns of
    /// `A` (equivalently the dropped rows of `W`) and multiply densely.
    fn k_masked_reference(a: &Matrix, w: &Matrix, kept_k: &[usize]) -> Matrix {
        let mut masked = a.clone();
        for i in 0..a.rows() {
            for (p, v) in masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        naive_gemm(&masked, w).unwrap()
    }

    #[test]
    fn gather_k_matches_masked_dense_reference() {
        let mut rng = StdRng::seed_from_u64(91);
        let a = random_matrix(&mut rng, 9, 14);
        let w = random_matrix(&mut rng, 14, 11);
        let kept_k = vec![0, 2, 3, 7, 8, 12, 13];
        let sampled = select(&a, &w, None, Some(&kept_k));
        let reference = k_masked_reference(&a, &w, &kept_k);
        assert_eq!(sampled.shape(), (9, 11));
        assert!(crate::approx_eq_slice(
            sampled.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn gather_k_with_all_indices_is_bitwise_dense() {
        // The k == K degeneracy: packing every inner index in order feeds the
        // blocked core bitwise-identical operands, so the sampled product must
        // equal the dense kernel exactly, not approximately.
        let mut rng = StdRng::seed_from_u64(93);
        let a = random_matrix(&mut rng, 13, 22);
        let w = random_matrix(&mut rng, 22, 17);
        let all: Vec<usize> = (0..22).collect();
        let sampled = select(&a, &w, None, Some(&all));
        let dense = blocked_gemm(&a, &w).unwrap();
        assert_eq!(sampled, dense);
    }

    #[test]
    fn gather_k_fused_with_all_indices_matches_dense_fused_bitwise() {
        let mut rng = StdRng::seed_from_u64(95);
        let a = random_matrix(&mut rng, 8, 18);
        let w = random_matrix(&mut rng, 18, 12);
        let bias = random_matrix(&mut rng, 1, 12);
        let all: Vec<usize> = (0..18).collect();
        for act in ACTIVATIONS {
            let sampled = select_fused(&a, &w, None, Some(&all), &bias, 1.0, 1.0, act).unwrap();
            let dense = gemm_bias_act(&a, &w, &bias, act).unwrap();
            assert_eq!(sampled, dense, "{act:?}");
        }
    }

    #[test]
    fn gather_k_fused_matches_unfused_chain_bitwise_for_all_activations() {
        let mut rng = StdRng::seed_from_u64(97);
        let a = random_matrix(&mut rng, 7, 15);
        let w = random_matrix(&mut rng, 15, 10);
        let bias = random_matrix(&mut rng, 1, 10);
        let kept_k = vec![1, 2, 5, 6, 9, 11, 14];
        let crs_scale = 15.0f32 / 7.0;
        let mut scratch = SelectScratch::default();
        for act in ACTIVATIONS {
            let mut reference = Matrix::zeros(0, 0);
            select_gemm_into(&a, &w, None, Some(&kept_k), &mut scratch, &mut reference).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                crate::simd::scale_add_bias(row, crs_scale, bias.row(0));
                act.apply_slice(row);
            }
            let fused =
                select_fused(&a, &w, None, Some(&kept_k), &bias, crs_scale, 1.0, act).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn gather_nk_fused_matches_unfused_chain_bitwise_for_all_activations() {
        let mut rng = StdRng::seed_from_u64(99);
        let a = random_matrix(&mut rng, 6, 12);
        let w = random_matrix(&mut rng, 12, 9);
        let bias = random_matrix(&mut rng, 1, 9);
        let kept_k = vec![0, 3, 4, 7, 10, 11];
        let kept_cols = vec![1, 2, 5, 8];
        let crs_scale = 2.0f32;
        let row_scale = 1.8f32;
        for act in ACTIVATIONS {
            let mut reference = select(&a, &w, Some(&kept_cols), Some(&kept_k));
            let brow = bias.row(0);
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept_cols {
                    row[j] = (row[j] * crs_scale + brow[j]) * row_scale;
                }
                act.apply_slice(row);
            }
            let (n, k) = (Some(kept_cols.as_slice()), Some(kept_k.as_slice()));
            let fused = select_fused(&a, &w, n, k, &bias, crs_scale, row_scale, act).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn gather_nk_dropped_columns_carry_the_activation_of_zero() {
        let a = Matrix::ones(2, 4);
        let w = Matrix::ones(4, 3);
        let bias = Matrix::zeros(1, 3);
        let sigmoid = Activation::Sigmoid;
        let out =
            select_fused(&a, &w, Some(&[1]), Some(&[0, 2]), &bias, 2.0, 1.0, sigmoid).unwrap();
        assert_eq!(out[(0, 0)], 0.5);
        assert!((out[(0, 1)] - Activation::Sigmoid.apply(4.0)).abs() < 1e-6);
    }

    #[test]
    fn gather_k_backward_matches_masked_dense_references() {
        let mut rng = StdRng::seed_from_u64(101);
        let x = random_matrix(&mut rng, 8, 13); // (batch, in)
        let g = random_matrix(&mut rng, 8, 10); // (batch, out)
        let w = random_matrix(&mut rng, 13, 10); // (in, out)
        let kept_k = vec![0, 1, 4, 6, 9, 12];
        let scale = 13.0f32 / 6.0;
        let mut x_masked = x.clone();
        for i in 0..x.rows() {
            for (p, v) in x_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        let mut w_masked = w.clone();
        for p in 0..w.rows() {
            if !kept_k.contains(&p) {
                w_masked.row_mut(p).fill(0.0);
            }
        }
        let mut dw_ref = naive_gemm(&x_masked.transpose(), &g).unwrap();
        dw_ref.map_inplace(|v| v * scale);
        let mut dx_ref = naive_gemm(&g, &w_masked.transpose()).unwrap();
        dx_ref.map_inplace(|v| v * scale);

        let (dw, dx) = select_backward(&x, &g, &w, None, Some(&kept_k), scale);
        assert_eq!(dw.shape(), (13, 10));
        assert_eq!(dx.shape(), (8, 13));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-3
        ));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-3
        ));
        // Dropped weight rows and input-gradient columns are exactly zero.
        assert_eq!(dw.row(2).iter().map(|v| v.abs()).sum::<f32>(), 0.0);
        assert_eq!((0..8).map(|i| dx[(i, 2)].abs()).sum::<f32>(), 0.0);
    }

    #[test]
    fn gather_nk_backward_matches_masked_dense_references() {
        let mut rng = StdRng::seed_from_u64(103);
        let x = random_matrix(&mut rng, 7, 12); // (batch, in)
        let g = random_matrix(&mut rng, 7, 9); // (batch, out)
        let w = random_matrix(&mut rng, 12, 9); // (in, out)
        let kept_k = vec![1, 3, 6, 8, 11];
        let kept_cols = vec![0, 2, 5, 7];
        let scale = 2.4f32;
        // Reference: zero dropped inner columns of X, dropped output columns
        // of G and both dropped grids of W, then run the dense backward.
        let mut x_masked = x.clone();
        for i in 0..x.rows() {
            for (p, v) in x_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        let mut g_masked = g.clone();
        for i in 0..g.rows() {
            for (j, v) in g_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_cols.contains(&j) {
                    *v = 0.0;
                }
            }
        }
        let mut w_masked = w.clone();
        for p in 0..w.rows() {
            for (j, v) in w_masked.row_mut(p).iter_mut().enumerate() {
                if !kept_k.contains(&p) || !kept_cols.contains(&j) {
                    *v = 0.0;
                }
            }
        }
        let mut dw_ref = naive_gemm(&x_masked.transpose(), &g_masked).unwrap();
        dw_ref.map_inplace(|v| v * scale);
        let mut dx_ref = naive_gemm(&g_masked, &w_masked.transpose()).unwrap();
        dx_ref.map_inplace(|v| v * scale);

        let (dw, dx) = select_backward(&x, &g, &w, Some(&kept_cols), Some(&kept_k), scale);
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-3
        ));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-3
        ));
        // A dropped (row, col) grid entry of dW stays exactly zero.
        assert_eq!(dw[(0, 0)], 0.0); // row 0 not kept
        assert_eq!(dw[(1, 1)], 0.0); // col 1 not kept
    }

    #[test]
    fn gather_k_scratch_is_recycled() {
        let mut rng = StdRng::seed_from_u64(105);
        let a = random_matrix(&mut rng, 6, 16);
        let w = random_matrix(&mut rng, 16, 8);
        let mut scratch = SelectScratch::default();
        let mut out = Matrix::zeros(0, 0);
        let kept_a = [0, 2, 4, 6, 8, 10];
        select_gemm_into(&a, &w, None, Some(&kept_a), &mut scratch, &mut out).unwrap();
        let a_ptr = scratch.a_kept.as_slice().as_ptr();
        let w_ptr = scratch.w_kept.as_slice().as_ptr();
        let out_ptr = out.as_slice().as_ptr();
        // Second call with the same kept-count: every buffer is reused.
        let kept_b = [1, 3, 5, 7, 9, 11];
        select_gemm_into(&a, &w, None, Some(&kept_b), &mut scratch, &mut out).unwrap();
        assert_eq!(a_ptr, scratch.a_kept.as_slice().as_ptr());
        assert_eq!(w_ptr, scratch.w_kept.as_slice().as_ptr());
        assert_eq!(out_ptr, out.as_slice().as_ptr());
    }

    #[test]
    fn gather_k_with_no_indices_is_zero() {
        let a = Matrix::ones(3, 5);
        let w = Matrix::ones(5, 4);
        let c = select(&a, &w, None, Some(&[]));
        assert_eq!(c.shape(), (3, 4));
        assert_eq!(c.sum(), 0.0);
    }

    #[test]
    fn gather_k_rejects_out_of_bounds_inner_index() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        let g = Matrix::zeros(2, 4);
        let mut scratch = SelectScratch::default();
        let (mut out, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut forward = |n: Option<&[usize]>, k: Option<&[usize]>| {
            select_gemm_into(&a, &w, n, k, &mut scratch, &mut out).is_err()
        };
        assert!(forward(None, Some(&[3])));
        assert!(forward(Some(&[0]), Some(&[3])));
        assert!(forward(Some(&[4]), Some(&[0])));
        assert!(select_backward_into(
            &a,
            &g,
            &w,
            None,
            Some(&[3]),
            1.0,
            &mut scratch,
            &mut out,
            &mut dx
        )
        .is_err());
    }

    #[test]
    fn select_rejects_unsorted_or_duplicate_indices() {
        // A repeated index would count a column (or an inner product) twice
        // and an unsorted one would scatter out of order: both axes, every
        // entry point, reject them instead of computing a wrong result.
        let mut rng = StdRng::seed_from_u64(107);
        let a = random_matrix(&mut rng, 3, 6);
        let w = random_matrix(&mut rng, 6, 5);
        let g = random_matrix(&mut rng, 3, 5);
        let bias = Matrix::zeros(1, 5);
        let mut scratch = SelectScratch::default();
        let (mut out, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let bad: [&[usize]; 2] = [&[0, 0, 2], &[2, 1]];
        for sel in bad {
            for (n, k) in [(Some(sel), None), (None, Some(sel))] {
                let err = select_gemm_into(&a, &w, n, k, &mut scratch, &mut out).unwrap_err();
                assert!(err.to_string().contains("strictly ascending"), "{err}");
                let relu = Activation::Relu;
                assert!(select_fused(&a, &w, n, k, &bias, 1.0, 1.0, relu).is_err());
                let backward =
                    select_backward_into(&a, &g, &w, n, k, 1.0, &mut scratch, &mut out, &mut dx);
                assert!(backward.is_err(), "{sel:?}");
            }
        }
        // An output scale without an output selection has nowhere to go.
        let relu = Activation::Relu;
        assert!(select_fused(&a, &w, None, Some(&[0, 1]), &bias, 1.0, 2.0, relu).is_err());
    }

    #[test]
    fn select_without_selections_is_the_dense_kernels_bitwise() {
        let mut rng = StdRng::seed_from_u64(109);
        let x = random_matrix(&mut rng, 9, 7);
        let w = random_matrix(&mut rng, 7, 6);
        let g = random_matrix(&mut rng, 9, 6);
        let bias = random_matrix(&mut rng, 1, 6);
        assert_eq!(select(&x, &w, None, None), blocked_gemm(&x, &w).unwrap());
        let fused = select_fused(&x, &w, None, None, &bias, 1.0, 1.0, Activation::Tanh).unwrap();
        assert_eq!(
            fused,
            gemm_bias_act(&x, &w, &bias, Activation::Tanh).unwrap()
        );
        let (dw, dx) = select_backward(&x, &g, &w, None, None, 1.0);
        assert_eq!(dw, gemm_at_b(&x, &g).unwrap());
        assert_eq!(dx, gemm_a_bt(&g, &w).unwrap());
    }
}
