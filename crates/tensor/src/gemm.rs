//! GEMM kernels: dense references and the compacted variants that actually
//! skip dropped output columns and inner indices.
//!
//! The paper's central observation is that conventional dropout cannot shrink
//! the GEMM because the dropped positions are irregular; the Row-based and
//! Tile-based patterns make the dropped positions *predictable*, so the kernel
//! can build compact operand matrices and multiply those instead. The CPU
//! equivalent here is the column gather ([`gather_cols_gemm_into`], behind
//! [`row_compact_gemm`]): it packs the kept output columns of `W` and runs
//! the dense micro-kernel over the packed panel. Every family that keeps
//! whole output neurons (row, N:M, and block dropout expanded to its kept
//! columns) runs through it. Tile dropout runs the dense kernel over a
//! tile-masked weight panel with the [`Epilogue::ScaledBias`] write-back;
//! [`tile_masked_gemm_reference`] is its naive reference. The kernels are
//! validated against the dense ones by unit and property tests.
//!
//! # Kernel architecture
//!
//! Every production kernel is built from slice-based packed micro-kernels
//! (`axpy`, `axpy4`, `dot`) that dispatch through [`crate::simd`] to
//! runtime-detected vector kernels (AVX2/AVX-512/NEON, scalar fallback —
//! bitwise identical at every level, see the `simd` module docs): the
//! inner loops never touch the bounds-checked `(i, j)` `Index` operator and
//! the dense path carries no per-element `aip == 0.0` branch (skipping zeros
//! is the compacted kernels' job — a data-dependent branch in the dense loop
//! defeats SIMD exactly like warp divergence defeats the GPU kernel in the
//! paper's Fig. 1(b)). Cache-blocking parameters come from [`crate::tune`]
//! (autotuned per shape class; `KC = 128` remains the default). Each kernel
//! has
//!
//! * an allocating entry point (`blocked_gemm`, `gemm_at_b`, …) and a
//!   `*_into` variant that writes into a caller-owned output buffer so the
//!   training hot path can recycle allocations across iterations,
//! * transposed-operand variants [`gemm_at_b`] (`C = Aᵀ·B`) and
//!   [`gemm_a_bt`] (`C = A·Bᵀ`) so backward passes never materialise a
//!   `transpose()`,
//! * batch-dimension parallelism: output rows are split across the
//!   [`crate::pool`] worker threads. Every output row is produced by exactly
//!   one worker running the same per-row instruction sequence as the serial
//!   kernel, so results are bitwise identical for any thread count.

use crate::matrix::Matrix;
use crate::pool;
use crate::simd;
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
// Micro-kernels
// ---------------------------------------------------------------------------

/// `c += alpha * b`, elementwise over equal-length slices. Dispatches to the
/// active [`crate::simd`] kernel (bitwise identical at every level).
#[inline]
fn axpy(c: &mut [f32], alpha: f32, b: &[f32]) {
    simd::axpy(c, alpha, b);
}

/// `c += a0*b0 + a1*b1 + a2*b2 + a3*b3`: a four-row panel update, the unit of
/// work the dense kernels are unrolled around (enough independent chains to
/// keep the SIMD units busy without spilling accumulators). Dispatches to the
/// active [`crate::simd`] kernel.
#[inline]
fn axpy4(c: &mut [f32], alpha: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    simd::axpy4(c, alpha, b0, b1, b2, b3);
}

/// Dot product with eight independent accumulator lanes so the reduction
/// vectorises; the building block of [`gemm_a_bt`]. Dispatches to the
/// active [`crate::simd`] kernel, which preserves the 8-lane accumulation
/// order bitwise.
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    simd::dot(x, y)
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

/// Per-row-chunk dense kernel: accumulates `chunk += A[rows] * B` with the
/// panel-blocked, 4-way-unrolled micro-kernel. `chunk` must be zeroed by the
/// caller and hold exactly `rows.len() * b.cols()` values.
///
/// Blocking (`bl`) comes from [`tune::blocking`]: a `kc × nc` panel of `B`
/// is reused across an `mc`-row block of the chunk before the kernel moves
/// on, keeping the panel resident in L2 (the CPU analogue of staging a tile
/// in shared memory). `bl.kc` is a multiple of 4, so the quad grouping
/// boundaries sit at the same absolute `k` positions for every config and
/// results are bitwise blocking-invariant (checked by a `tune` test).
fn dense_rows_kernel(a: &Matrix, b: &Matrix, rows: Range<usize>, chunk: &mut [f32], bl: Blocking) {
    let k = a.cols();
    let n = b.cols();
    let kc = if bl.kc == 0 { k } else { bl.kc }.max(1);
    let nc = if bl.nc == 0 { n } else { bl.nc }.max(1);
    let mc = if bl.mc == 0 { rows.len() } else { bl.mc }.max(1);
    for ii in (rows.start..rows.end).step_by(mc) {
        let i_end = (ii + mc).min(rows.end);
        for pp in (0..k).step_by(kc) {
            let p_end = (pp + kc).min(k);
            for jj in (0..n).step_by(nc) {
                let j_end = (jj + nc).min(n);
                for i in ii..i_end {
                    let local = i - rows.start;
                    let apanel = &a.row(i)[pp..p_end];
                    let crow = &mut chunk[local * n + jj..local * n + j_end];
                    let mut quads = apanel.chunks_exact(4);
                    let mut p = pp;
                    for quad in &mut quads {
                        axpy4(
                            crow,
                            [quad[0], quad[1], quad[2], quad[3]],
                            &b.row(p)[jj..j_end],
                            &b.row(p + 1)[jj..j_end],
                            &b.row(p + 2)[jj..j_end],
                            &b.row(p + 3)[jj..j_end],
                        );
                        p += 4;
                    }
                    for &alpha in quads.remainder() {
                        axpy(crow, alpha, &b.row(p)[jj..j_end]);
                        p += 1;
                    }
                }
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
    out.resize(m, n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        dense_rows_kernel(a, b, rows, chunk, bl);
    });
    Ok(())
}

/// Packed, batch-parallel GEMM, `C = A * B`, writing into `out`.
///
/// `out` is resized (reusing its buffer when capacity allows) and zeroed.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn blocked_gemm_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    check_inner(a, b)?;
    let m = a.rows();
    let n = b.cols();
    out.resize(m, n);
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
/// the packed micro-kernel pipeline described in the module docs.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn blocked_gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    blocked_gemm_into(a, b, &mut out)?;
    Ok(out)
}

/// Per-row-chunk kernel for `C = Aᵀ · B`: the chunk covers rows of `C`
/// (columns `p` of `A`); batch rows `i` are walked in panels of four.
fn at_b_rows_kernel(a: &Matrix, b: &Matrix, prows: Range<usize>, chunk: &mut [f32]) {
    let m = a.rows();
    let n = b.cols();
    let mut i = 0;
    while i + 4 <= m {
        let (a0, a1, a2, a3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        let (b0, b1, b2, b3) = (b.row(i), b.row(i + 1), b.row(i + 2), b.row(i + 3));
        for (local, p) in prows.clone().enumerate() {
            let crow = &mut chunk[local * n..(local + 1) * n];
            axpy4(crow, [a0[p], a1[p], a2[p], a3[p]], b0, b1, b2, b3);
        }
        i += 4;
    }
    while i < m {
        let arow = a.row(i);
        let brow = b.row(i);
        for (local, p) in prows.clone().enumerate() {
            let crow = &mut chunk[local * n..(local + 1) * n];
            axpy(crow, arow[p], brow);
        }
        i += 1;
    }
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
    out.resize(k, n);
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

/// Per-row-chunk kernel for `C = A · Bᵀ`: row `i` of `C` is the vector of
/// dot products of `A.row(i)` with every row of `B`.
fn a_bt_rows_kernel(a: &Matrix, b: &Matrix, rows: Range<usize>, chunk: &mut [f32]) {
    let n = b.rows();
    for (local, i) in rows.enumerate() {
        let arow = a.row(i);
        let crow = &mut chunk[local * n..(local + 1) * n];
        for (j, cj) in crow.iter_mut().enumerate() {
            *cj = dot(arow, b.row(j));
        }
    }
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
    out.resize(m, n);
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
// Compacted kernels
// ---------------------------------------------------------------------------

/// Reusable packing buffers for the column-gather compacted GEMMs
/// ([`gather_cols_gemm_into`] and its [`row_compact_gemm_into`] /
/// [`nm_compact_gemm_into`] wrappers): the compact weight panel and the
/// compact product, recycled across training iterations so the hot path
/// performs no per-call allocations once warmed up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowCompactScratch {
    pack: Matrix,
    product: Matrix,
}

fn check_kept_cols(kept: &[usize], n: usize) -> Result<(), GemmError> {
    if let Some(&bad) = kept.iter().find(|&&j| j >= n) {
        return Err(GemmError::new(format!(
            "kept output index {bad} out of bounds for {n} output features"
        )));
    }
    Ok(())
}

/// Validates that every kept inner-dimension (K) index of a sampled GEMM is
/// in bounds.
fn check_kept_k(kept_k: &[usize], k: usize) -> Result<(), GemmError> {
    if let Some(&bad) = kept_k.iter().find(|&&p| p >= k) {
        return Err(GemmError::new(format!(
            "kept inner index {bad} out of bounds for inner dimension {k}"
        )));
    }
    Ok(())
}

/// Packs the `kept` columns of `src` into the dense panel `dst`
/// (`src.rows() × kept.len()`) — the shared scalar gather step of both
/// compacted families (output-column gather and K-dimension gather alike).
fn pack_cols(src: &Matrix, kept: &[usize], dst: &mut Matrix) {
    let rows = src.rows();
    dst.resize_for_overwrite(rows, kept.len());
    for r in 0..rows {
        let srow = src.row(r);
        let drow = dst.row_mut(r);
        for (c, &j) in kept.iter().enumerate() {
            drow[c] = srow[j];
        }
    }
}

/// Packs the `kept` rows of `src` into the dense panel
/// `dst` (`kept.len() × src.cols()`) — the K-dimension gather of the sampled
/// weight operand, contiguous row copies with no strided access.
fn pack_rows(src: &Matrix, kept: &[usize], dst: &mut Matrix) {
    dst.resize_for_overwrite(kept.len(), src.cols());
    for (r, &p) in kept.iter().enumerate() {
        dst.row_mut(r).copy_from_slice(src.row(p));
    }
}

/// Packs the `kept_k × kept_cols` sub-grid of `w` into a dense panel — the
/// double-gathered weight operand of the composed gather-N × gather-K
/// kernels.
fn pack_rows_cols(w: &Matrix, kept_k: &[usize], kept_cols: &[usize], dst: &mut Matrix) {
    dst.resize_for_overwrite(kept_k.len(), kept_cols.len());
    for (r, &p) in kept_k.iter().enumerate() {
        let srow = w.row(p);
        let drow = dst.row_mut(r);
        for (c, &j) in kept_cols.iter().enumerate() {
            drow[c] = srow[j];
        }
    }
}

/// Column-gather compacted GEMM: the shared execution core of every scheme
/// that drops whole output neurons at scattered positions (the Row-based
/// Dropout Pattern and N:M structured sparsity).
///
/// Computes `C = A * W` where only the output columns listed in `kept_cols`
/// participate: the surviving columns of `W` are packed into a dense panel,
/// a small `M × K × |kept|` GEMM runs, and the compact product is scattered
/// back into the full-size zero output — steps 1–3 of the paper's
/// Fig. 3(a), generalised to an arbitrary kept set.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or any kept
/// index is out of bounds.
pub fn gather_cols_gemm_into(
    a: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    scratch: &mut RowCompactScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_kept_cols(kept_cols, n)?;
    // Pack only the kept columns of W into a dense panel (step 1: fetch
    // only surviving synapses), …
    pack_cols(w, kept_cols, &mut scratch.pack);
    // … run the small GEMM (step 2), …
    blocked_gemm_into(a, &scratch.pack, &mut scratch.product)?;
    // … and scatter back into the full-size zero output (step 3).
    let m = a.rows();
    out.resize(m, n);
    for i in 0..m {
        let src = scratch.product.row(i);
        let dst = out.row_mut(i);
        for (c, &j) in kept_cols.iter().enumerate() {
            dst[j] = src[c];
        }
    }
    Ok(())
}

/// Row-compacted GEMM used by the Row-based Dropout Pattern, writing into
/// `out` and packing through caller-owned `scratch`.
///
/// See [`row_compact_gemm`] for the semantics.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or any kept index
/// is out of bounds.
pub fn row_compact_gemm_into(
    a: &Matrix,
    w: &Matrix,
    kept_output_rows: &[usize],
    scratch: &mut RowCompactScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    gather_cols_gemm_into(a, w, kept_output_rows, scratch, out)
}

/// Validates that `kept_cols` has the N:M group structure: exactly
/// `min(n, group_size)` ascending kept lanes inside every `m`-wide group of
/// the `out_features` output columns.
fn check_nm_structure(
    kept_cols: &[usize],
    n: usize,
    m: usize,
    out_features: usize,
) -> Result<(), GemmError> {
    if n == 0 || m == 0 || n > m {
        return Err(GemmError::new(format!("invalid N:M parameters {n}:{m}")));
    }
    let mut it = kept_cols.iter().peekable();
    let mut start = 0;
    while start < out_features {
        let size = m.min(out_features - start);
        let expected = n.min(size);
        let mut in_group = 0;
        let mut prev = None;
        while let Some(&&j) = it.peek() {
            if j >= start + size {
                break;
            }
            if j < start || prev.is_some_and(|p| j <= p) {
                return Err(GemmError::new(format!(
                    "kept lane {j} breaks the ascending N:M group order"
                )));
            }
            prev = Some(j);
            in_group += 1;
            it.next();
        }
        if in_group != expected {
            return Err(GemmError::new(format!(
                "group starting at {start} keeps {in_group} lanes, expected {expected} for {n}:{m}"
            )));
        }
        start += size;
    }
    if it.next().is_some() {
        return Err(GemmError::new("kept lane beyond the output width"));
    }
    Ok(())
}

/// Group-compacted GEMM for N:M structured sparsity, writing into `out`.
///
/// Validates that `kept_cols` keeps exactly `n` lanes of every `m`-wide
/// output group (the structure a sparse-tensor-core kernel relies on) and
/// executes through the shared column-gather core
/// ([`gather_cols_gemm_into`]).
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or `kept_cols`
/// does not have the `n`-of-`m` group structure.
pub fn nm_compact_gemm_into(
    a: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    n: usize,
    m: usize,
    scratch: &mut RowCompactScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_nm_structure(kept_cols, n, m, w.cols())?;
    gather_cols_gemm_into(a, w, kept_cols, scratch, out)
}

/// Allocating variant of [`nm_compact_gemm_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] under the same conditions.
pub fn nm_compact_gemm(
    a: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    n: usize,
    m: usize,
) -> Result<Matrix, GemmError> {
    let mut scratch = RowCompactScratch::default();
    let mut out = Matrix::zeros(0, 0);
    nm_compact_gemm_into(a, w, kept_cols, n, m, &mut scratch, &mut out)?;
    Ok(out)
}

/// Reusable gather buffers for the backward passes of the column-gather
/// compacted schemes: the gathered (and gradient-scaled) output-gradient
/// panel, and one `in × kept` panel that holds the gathered weight columns
/// for `dX` and then the compact weight-gradient product for `dW`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatherColsScratch {
    g_kept: Matrix,
    panel: Matrix,
}

/// Gathers the kept columns of `g`, scaled by `scale`, into `dst`.
fn gather_scaled_cols(g: &Matrix, kept_cols: &[usize], scale: f32, dst: &mut Matrix) {
    let batch = g.rows();
    dst.resize_for_overwrite(batch, kept_cols.len());
    for i in 0..batch {
        let src = g.row(i);
        let out = dst.row_mut(i);
        for (c, &j) in kept_cols.iter().enumerate() {
            out[c] = src[j] * scale;
        }
    }
}

/// Weight-gradient form of the column-gather compacted backward pass:
/// `dW = Xᵀ · (scale · G[:, kept])`, scattered into the kept columns of
/// `out` (shape `x.cols() × g.cols()`); dropped columns stay exactly zero.
///
/// With activations `X` of shape `(batch, in)` and the full-width output
/// gradient `G` of shape `(batch, out)` this is the weight gradient of a
/// row- or N:M-compacted layer without ever materialising the dense
/// zero-masked gradient.
///
/// # Errors
///
/// Returns a [`GemmError`] if the batch dimensions disagree or any kept
/// index is out of bounds.
pub fn gather_cols_gemm_at_b_into(
    x: &Matrix,
    g: &Matrix,
    kept_cols: &[usize],
    scale: f32,
    scratch: &mut GatherColsScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    if x.rows() != g.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            x.shape(),
            g.shape()
        )));
    }
    check_kept_cols(kept_cols, g.cols())?;
    gather_scaled_cols(g, kept_cols, scale, &mut scratch.g_kept);
    at_b_from_gathered(x, g.cols(), kept_cols, scratch, out)
}

/// `dW` tail of the gather backward given an already-gathered (and scaled)
/// gradient panel in `scratch.g_kept`: compact product + scatter into the
/// kept columns of `out`.
fn at_b_from_gathered(
    x: &Matrix,
    n: usize,
    kept_cols: &[usize],
    scratch: &mut GatherColsScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    let GatherColsScratch { g_kept, panel } = scratch;
    gemm_at_b_into(x, g_kept, panel)?;
    let k = x.cols();
    out.resize(k, n);
    for r in 0..k {
        let src = panel.row(r);
        let dst = out.row_mut(r);
        for (c, &j) in kept_cols.iter().enumerate() {
            dst[j] = src[c];
        }
    }
    Ok(())
}

/// `dX` tail of the gather backward given an already-gathered (and scaled)
/// gradient panel in `scratch.g_kept`: gather the kept weight columns and
/// multiply.
fn a_bt_from_gathered(
    w: &Matrix,
    kept_cols: &[usize],
    scratch: &mut GatherColsScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    let GatherColsScratch { g_kept, panel } = scratch;
    pack_cols(w, kept_cols, panel);
    gemm_a_bt_into(g_kept, panel, out)
}

/// Input-gradient form of the column-gather compacted backward pass:
/// `dX = (scale · G[:, kept]) · W[:, kept]ᵀ` — only the synapses feeding
/// kept output neurons contribute, and neither transpose is materialised.
///
/// # Errors
///
/// Returns a [`GemmError`] if `g.cols() != w.cols()` or any kept index is
/// out of bounds.
pub fn gather_cols_gemm_a_bt_into(
    g: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    scale: f32,
    scratch: &mut GatherColsScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    if g.cols() != w.cols() {
        return Err(GemmError::new(format!(
            "output widths disagree: {:?} * {:?}ᵀ",
            g.shape(),
            w.shape()
        )));
    }
    check_kept_cols(kept_cols, g.cols())?;
    gather_scaled_cols(g, kept_cols, scale, &mut scratch.g_kept);
    a_bt_from_gathered(w, kept_cols, scratch, out)
}

/// Fused backward pair of the column-gather compacted schemes: gathers the
/// scaled kept gradient columns **once** and reuses the panel for both
/// transposed-operand products,
/// `dW = Xᵀ·(scale·G[:, kept])` (scattered into `dw_out`, dropped columns
/// zero) and `dX = (scale·G[:, kept]) · W[:, kept]ᵀ` (into `dx_out`).
///
/// Equivalent to calling [`gather_cols_gemm_at_b_into`] then
/// [`gather_cols_gemm_a_bt_into`], minus the second gather pass — this is
/// the entry point the training hot path uses.
///
/// # Errors
///
/// Returns a [`GemmError`] if the batch dimensions of `x` and `g` disagree,
/// `g.cols() != w.cols()`, or any kept index is out of bounds.
#[allow(clippy::too_many_arguments)] // a GEMM pair: 4 operands, 1 scale, scratch, 2 outputs
pub fn gather_cols_backward_into(
    x: &Matrix,
    g: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    scale: f32,
    scratch: &mut GatherColsScratch,
    dw_out: &mut Matrix,
    dx_out: &mut Matrix,
) -> Result<(), GemmError> {
    if x.rows() != g.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            x.shape(),
            g.shape()
        )));
    }
    if g.cols() != w.cols() {
        return Err(GemmError::new(format!(
            "output widths disagree: {:?} * {:?}ᵀ",
            g.shape(),
            w.shape()
        )));
    }
    check_kept_cols(kept_cols, g.cols())?;
    gather_scaled_cols(g, kept_cols, scale, &mut scratch.g_kept);
    // dX first: the weight panel it packs is dead afterwards, so the dW
    // product reuses its buffer.
    a_bt_from_gathered(w, kept_cols, scratch, dx_out)?;
    at_b_from_gathered(x, g.cols(), kept_cols, scratch, dw_out)
}

// ---------------------------------------------------------------------------
// K-dimension gather (sampled-GEMM / CRS) kernels
// ---------------------------------------------------------------------------

/// Reusable gather buffers for the K-dimension sampled (CRS) kernels: the
/// gathered activation-column panel, the gathered weight-row panel, the
/// gathered (and gradient-scaled) output-gradient panel of the composed
/// backward, and the compact product — recycled across iterations so the hot
/// path performs no per-call allocations once warmed up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatherKScratch {
    a_kept: Matrix,
    w_kept: Matrix,
    g_kept: Matrix,
    compact: Matrix,
}

/// K-dimension sampled GEMM (column-row sampling, CRS): computes the **raw**
/// sampled product `C = A[:, kept_k] · W[kept_k, :]` — only the inner
/// products listed in `kept_k` participate. The kept columns of `A` and rows
/// of `W` are packed into dense panels that route through the same blocked
/// SIMD core as the dense kernel, so `kept_k == 0..K` (in order) is bitwise
/// identical to [`blocked_gemm_into`].
///
/// The `K/k` unbiasedness scale is **not** applied here: the output is the
/// raw sampled product and callers fold the scale into their epilogue (see
/// [`gather_k_gemm_bias_act_into`]), which keeps the degeneracy bitwise and
/// the scale placement identical between fused and unfused paths.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or any kept
/// inner index is out of bounds.
pub fn gather_k_gemm_into(
    a: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    scratch: &mut GatherKScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    check_kept_k(kept_k, a.cols())?;
    pack_cols(a, kept_k, &mut scratch.a_kept);
    pack_rows(w, kept_k, &mut scratch.w_kept);
    blocked_gemm_into(&scratch.a_kept, &scratch.w_kept, out)
}

/// Allocating variant of [`gather_k_gemm_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] under the same conditions.
pub fn gather_k_gemm(a: &Matrix, w: &Matrix, kept_k: &[usize]) -> Result<Matrix, GemmError> {
    let mut scratch = GatherKScratch::default();
    let mut out = Matrix::zeros(0, 0);
    gather_k_gemm_into(a, w, kept_k, &mut scratch, &mut out)?;
    Ok(out)
}

/// Composed gather-N × gather-K GEMM: the raw sampled product restricted to
/// the kept output columns,
/// `C[:, kept_cols] = A[:, kept_k] · W[kept_k, kept_cols]`, with dropped
/// output columns exactly zero. One kernel call compacts **both** GEMM
/// dimensions — the dropout pattern shrinks N while CRS shrinks K, so the
/// two speedups multiply.
///
/// Like [`gather_k_gemm_into`] the output is unscaled; the composed epilogue
/// applies both the `K/k` estimator scale and the inverted-dropout scale.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or any kept
/// index (inner or output) is out of bounds.
pub fn gather_nk_gemm_into(
    a: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    kept_cols: &[usize],
    scratch: &mut GatherKScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_kept_k(kept_k, a.cols())?;
    check_kept_cols(kept_cols, n)?;
    pack_cols(a, kept_k, &mut scratch.a_kept);
    pack_rows_cols(w, kept_k, kept_cols, &mut scratch.w_kept);
    blocked_gemm_into(&scratch.a_kept, &scratch.w_kept, &mut scratch.compact)?;
    let m = a.rows();
    out.resize(m, n);
    for i in 0..m {
        let src = scratch.compact.row(i);
        let dst = out.row_mut(i);
        for (c, &j) in kept_cols.iter().enumerate() {
            dst[j] = src[c];
        }
    }
    Ok(())
}

/// Weight-gradient form of the K-sampled backward pass:
/// `dW[kept_k, :] = scale · X[:, kept_k]ᵀ · G`, scattered into the kept rows
/// of `out` (shape `x.cols() × g.cols()`); dropped weight rows stay exactly
/// zero — the synapses whose inner products were skipped receive no update,
/// and `scale` carries the `K/k` estimator correction.
///
/// # Errors
///
/// Returns a [`GemmError`] if the batch dimensions disagree or any kept
/// inner index is out of bounds.
pub fn gather_k_gemm_at_b_into(
    x: &Matrix,
    g: &Matrix,
    kept_k: &[usize],
    scale: f32,
    scratch: &mut GatherKScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    if x.rows() != g.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            x.shape(),
            g.shape()
        )));
    }
    check_kept_k(kept_k, x.cols())?;
    pack_cols(x, kept_k, &mut scratch.a_kept);
    gemm_at_b_into(&scratch.a_kept, g, &mut scratch.compact)?;
    let (k, n) = (x.cols(), g.cols());
    out.resize(k, n);
    for (r, &p) in kept_k.iter().enumerate() {
        let src = scratch.compact.row(r);
        let dst = out.row_mut(p);
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s * scale;
        }
    }
    Ok(())
}

/// Input-gradient form of the K-sampled backward pass:
/// `dX[:, kept_k] = scale · G · W[kept_k, :]ᵀ`, scattered into the kept
/// columns of `out` (shape `g.rows() × w.rows()`); dropped input features
/// receive exactly zero gradient.
///
/// # Errors
///
/// Returns a [`GemmError`] if `g.cols() != w.cols()` or any kept inner index
/// is out of bounds.
pub fn gather_k_gemm_a_bt_into(
    g: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    scale: f32,
    scratch: &mut GatherKScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    if g.cols() != w.cols() {
        return Err(GemmError::new(format!(
            "output widths disagree: {:?} * {:?}ᵀ",
            g.shape(),
            w.shape()
        )));
    }
    check_kept_k(kept_k, w.rows())?;
    pack_rows(w, kept_k, &mut scratch.w_kept);
    gemm_a_bt_into(g, &scratch.w_kept, &mut scratch.compact)?;
    let (m, k) = (g.rows(), w.rows());
    out.resize(m, k);
    for i in 0..m {
        let src = scratch.compact.row(i);
        let dst = out.row_mut(i);
        for (c, &p) in kept_k.iter().enumerate() {
            dst[p] = src[c] * scale;
        }
    }
    Ok(())
}

/// Backward pair of the K-sampled scheme: both transposed-operand products
/// through one scratch —
/// `dW[kept_k, :] = scale·X[:, kept_k]ᵀ·G` and
/// `dX[:, kept_k] = scale·G·W[kept_k, :]ᵀ`. This is the entry point the
/// training hot path uses.
///
/// # Errors
///
/// Returns a [`GemmError`] under the conditions of
/// [`gather_k_gemm_at_b_into`] and [`gather_k_gemm_a_bt_into`].
#[allow(clippy::too_many_arguments)] // a GEMM pair: 4 operands, 1 scale, scratch, 2 outputs
pub fn gather_k_backward_into(
    x: &Matrix,
    g: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    scale: f32,
    scratch: &mut GatherKScratch,
    dw_out: &mut Matrix,
    dx_out: &mut Matrix,
) -> Result<(), GemmError> {
    gather_k_gemm_at_b_into(x, g, kept_k, scale, scratch, dw_out)?;
    gather_k_gemm_a_bt_into(g, w, kept_k, scale, scratch, dx_out)
}

/// Backward pair of the composed gather-N × gather-K scheme: gathers the
/// scaled kept gradient columns **once** and reuses the panel for both
/// double-compacted products —
/// `dW[kept_k, kept_cols] = X[:, kept_k]ᵀ · (scale·G[:, kept_cols])`
/// (all other entries of `dw_out` exactly zero) and
/// `dX[:, kept_k] = (scale·G[:, kept_cols]) · W[kept_k, kept_cols]ᵀ`.
/// `scale` carries the product of the `K/k` estimator scale and the
/// inverted-dropout scale.
///
/// # Errors
///
/// Returns a [`GemmError`] if the batch dimensions of `x` and `g` disagree,
/// `g.cols() != w.cols()`, or any kept index is out of bounds.
#[allow(clippy::too_many_arguments)] // a GEMM pair: 4 operands, 2 kept sets, 1 scale, scratch, 2 outputs
pub fn gather_nk_backward_into(
    x: &Matrix,
    g: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    kept_cols: &[usize],
    scale: f32,
    scratch: &mut GatherKScratch,
    dw_out: &mut Matrix,
    dx_out: &mut Matrix,
) -> Result<(), GemmError> {
    if x.rows() != g.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            x.shape(),
            g.shape()
        )));
    }
    if g.cols() != w.cols() {
        return Err(GemmError::new(format!(
            "output widths disagree: {:?} * {:?}ᵀ",
            g.shape(),
            w.shape()
        )));
    }
    check_kept_k(kept_k, x.cols())?;
    check_kept_cols(kept_cols, g.cols())?;
    gather_scaled_cols(g, kept_cols, scale, &mut scratch.g_kept);
    // dW: compact product over both kept sets, scattered into the kept
    // (row, column) grid of the full-size zero weight gradient.
    pack_cols(x, kept_k, &mut scratch.a_kept);
    gemm_at_b_into(&scratch.a_kept, &scratch.g_kept, &mut scratch.compact)?;
    let (k, n) = (x.cols(), g.cols());
    dw_out.resize(k, n);
    for (r, &p) in kept_k.iter().enumerate() {
        let src = scratch.compact.row(r);
        let dst = dw_out.row_mut(p);
        for (c, &j) in kept_cols.iter().enumerate() {
            dst[j] = src[c];
        }
    }
    // dX: the same gathered gradient panel against the double-gathered
    // weight panel, scattered into the kept inner columns.
    pack_rows_cols(w, kept_k, kept_cols, &mut scratch.w_kept);
    gemm_a_bt_into(&scratch.g_kept, &scratch.w_kept, &mut scratch.compact)?;
    let m = g.rows();
    dx_out.resize(m, k);
    for i in 0..m {
        let src = scratch.compact.row(i);
        let dst = dx_out.row_mut(i);
        for (c, &p) in kept_k.iter().enumerate() {
            dst[p] = src[c];
        }
    }
    Ok(())
}

/// Row-compacted GEMM used by the Row-based Dropout Pattern.
///
/// Computes `C = A * W` where only the rows of the *output* listed in
/// `kept_output_rows` are needed — equivalently only the corresponding
/// columns of `W` (the synapses feeding the kept neurons) participate.
///
/// Layout convention used across the workspace: activations are
/// `(batch, in_features)` and weights are `(in_features, out_features)`, so
/// dropping output *neurons* means dropping *columns* of `W` and columns of
/// the output. The paper describes the transposed layout (dropping rows of
/// `Wᵀ`); both are the same compaction. The returned matrix has the full
/// `(batch, out_features)` shape with dropped columns left at zero, exactly
/// like step 3 of the paper's Fig. 3(a).
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or any kept index
/// is out of bounds.
pub fn row_compact_gemm(
    a: &Matrix,
    w: &Matrix,
    kept_output_rows: &[usize],
) -> Result<Matrix, GemmError> {
    let mut scratch = RowCompactScratch::default();
    let mut out = Matrix::zeros(0, 0);
    row_compact_gemm_into(a, w, kept_output_rows, &mut scratch, &mut out)?;
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
    out.resize(m, n);
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

/// Fused column-gather whole-layer kernel: the compacted GEMM of
/// [`gather_cols_gemm_into`] with the bias add, inverted-dropout scale and
/// activation folded into the scatter step —
/// `C[:, j] = act((A·W[:, kept] + bias[j]) · scale)` for kept columns `j`
/// and `act(0)` for dropped columns (exactly what the unfused
/// compact → bias/scale → activation chain produces, since the dropped
/// pre-activations are zero).
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is not a
/// `1 × w.cols()` row vector, or any kept index is out of bounds.
#[allow(clippy::too_many_arguments)] // a whole layer: 3 operands + plan params + scratch + out
pub fn gather_cols_gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    bias: &Matrix,
    scale: f32,
    act: Activation,
    scratch: &mut RowCompactScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_bias(bias, n)?;
    check_kept_cols(kept_cols, n)?;
    // Pack the kept columns and run the small GEMM exactly like the unfused
    // kernel …
    pack_cols(w, kept_cols, &mut scratch.pack);
    blocked_gemm_into(a, &scratch.pack, &mut scratch.product)?;
    // … then scatter with the whole epilogue fused into the write-back: the
    // scaled-bias pre-activations land in the kept columns of a zeroed row
    // (dropped pre-activations are exactly zero) and the activation runs
    // vectorised over the full row — `act(0)` in the dropped columns, same
    // as the unfused chain.
    let m = a.rows();
    let brow = bias.row(0);
    out.resize_for_overwrite(m, n);
    for i in 0..m {
        let src = scratch.product.row(i);
        let dst = out.row_mut(i);
        dst.fill(0.0);
        for (c, &j) in kept_cols.iter().enumerate() {
            dst[j] = (src[c] + brow[j]) * scale;
        }
        act.apply_slice(dst);
    }
    Ok(())
}

/// Fused N:M whole-layer kernel: validates the `n`-of-`m` group structure and
/// executes through [`gather_cols_gemm_bias_act_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is
/// malformed, or `kept_cols` does not have the `n`-of-`m` group structure.
#[allow(clippy::too_many_arguments)]
pub fn nm_compact_gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    kept_cols: &[usize],
    n: usize,
    m: usize,
    bias: &Matrix,
    scale: f32,
    act: Activation,
    scratch: &mut RowCompactScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_nm_structure(kept_cols, n, m, w.cols())?;
    gather_cols_gemm_bias_act_into(a, w, kept_cols, bias, scale, act, scratch, out)
}

/// Fused K-sampled whole-layer kernel: the sampled GEMM of
/// [`gather_k_gemm_into`] with the `K/k` estimator scale, bias add and
/// activation folded into the write-back —
/// `C = act(crs_scale · A[:, kept_k]·W[kept_k, :] + bias)`. The scale
/// corrects the **raw product before the bias**, so the bias itself is never
/// inflated by the estimator; `kept_k == 0..K` with `crs_scale == 1` is
/// bitwise identical to [`gemm_bias_act_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is not a
/// `1 × w.cols()` row vector, or any kept inner index is out of bounds.
#[allow(clippy::too_many_arguments)] // a whole layer: 3 operands + plan params + scratch + out
pub fn gather_k_gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    bias: &Matrix,
    crs_scale: f32,
    act: Activation,
    scratch: &mut GatherKScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_bias(bias, n)?;
    check_kept_k(kept_k, a.cols())?;
    pack_cols(a, kept_k, &mut scratch.a_kept);
    pack_rows(w, kept_k, &mut scratch.w_kept);
    gemm_epilogue_into(
        &scratch.a_kept,
        &scratch.w_kept,
        bias,
        Epilogue::ScaledBias { scale: crs_scale },
        act,
        out,
    )
}

/// Fused composed gather-N × gather-K whole-layer kernel: the
/// double-compacted GEMM of [`gather_nk_gemm_into`] with both scales, the
/// bias add and the activation fused into the scatter —
/// `C[:, j] = act((crs_scale · p + bias[j]) · row_scale)` for kept output
/// columns `j` (with `p` the compact sampled product) and `act(0)` for
/// dropped columns, exactly what the unfused compact → epilogue chain
/// produces.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is
/// malformed, or any kept index (inner or output) is out of bounds.
#[allow(clippy::too_many_arguments)] // a whole layer: 3 operands + plan params + scratch + out
pub fn gather_nk_gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    kept_k: &[usize],
    kept_cols: &[usize],
    bias: &Matrix,
    crs_scale: f32,
    row_scale: f32,
    act: Activation,
    scratch: &mut GatherKScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_bias(bias, n)?;
    check_kept_k(kept_k, a.cols())?;
    check_kept_cols(kept_cols, n)?;
    pack_cols(a, kept_k, &mut scratch.a_kept);
    pack_rows_cols(w, kept_k, kept_cols, &mut scratch.w_kept);
    blocked_gemm_into(&scratch.a_kept, &scratch.w_kept, &mut scratch.compact)?;
    let m = a.rows();
    let brow = bias.row(0);
    out.resize_for_overwrite(m, n);
    for i in 0..m {
        let src = scratch.compact.row(i);
        let dst = out.row_mut(i);
        dst.fill(0.0);
        for (c, &j) in kept_cols.iter().enumerate() {
            dst[j] = (src[c] * crs_scale + brow[j]) * row_scale;
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

    #[test]
    fn row_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 8, 12);
        let w = random_matrix(&mut rng, 12, 10);
        let kept = vec![0, 3, 6, 9];
        let compact = row_compact_gemm(&a, &w, &kept).unwrap();

        // Dense reference: zero the dropped columns of W, then multiply.
        let mut masked = w.clone();
        for j in 0..w.cols() {
            if !kept.contains(&j) {
                for p in 0..w.rows() {
                    masked[(p, j)] = 0.0;
                }
            }
        }
        let reference = naive_gemm(&a, &masked).unwrap();
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
        assert!(row_compact_gemm(&a, &w, &[4]).is_err());
    }

    #[test]
    fn row_compact_with_all_rows_equals_dense() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 6, 7);
        let w = random_matrix(&mut rng, 7, 5);
        let all: Vec<usize> = (0..5).collect();
        let compact = row_compact_gemm(&a, &w, &all).unwrap();
        let dense = naive_gemm(&a, &w).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            dense.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn row_compact_with_no_rows_is_zero() {
        let a = Matrix::ones(3, 4);
        let w = Matrix::ones(4, 5);
        let c = row_compact_gemm(&a, &w, &[]).unwrap();
        assert_eq!(c.sum(), 0.0);
        assert_eq!(c.shape(), (3, 5));
    }

    #[test]
    fn row_compact_scratch_is_recycled() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = random_matrix(&mut rng, 6, 10);
        let w = random_matrix(&mut rng, 10, 8);
        let mut scratch = RowCompactScratch::default();
        let mut out = Matrix::zeros(0, 0);
        row_compact_gemm_into(&a, &w, &[0, 2, 4, 6], &mut scratch, &mut out).unwrap();
        let pack_ptr = scratch.pack.as_slice().as_ptr();
        let out_ptr = out.as_slice().as_ptr();
        // Second call with the same kept-count: every buffer is reused.
        row_compact_gemm_into(&a, &w, &[1, 3, 5, 7], &mut scratch, &mut out).unwrap();
        assert_eq!(pack_ptr, scratch.pack.as_slice().as_ptr());
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
        let compact = nm_compact_gemm(&a, &w, &kept, 2, 4).unwrap();
        let reference = col_masked_reference(&a, &w, &kept);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn nm_compact_rejects_malformed_group_structure() {
        let a = Matrix::zeros(2, 4);
        let w = Matrix::zeros(4, 8);
        // Three lanes in the first group of four.
        assert!(nm_compact_gemm(&a, &w, &[0, 1, 2, 4, 6], 2, 4).is_err());
        // Unsorted lanes inside a group.
        assert!(nm_compact_gemm(&a, &w, &[3, 1, 4, 6], 2, 4).is_err());
        // Lane past the output width.
        assert!(nm_compact_gemm(&a, &w, &[1, 3, 4, 8], 2, 4).is_err());
        // Correct structure passes.
        assert!(nm_compact_gemm(&a, &w, &[0, 1, 4, 5], 2, 4).is_ok());
    }

    #[test]
    fn nm_compact_handles_ragged_tail_group() {
        let mut rng = StdRng::seed_from_u64(53);
        let a = random_matrix(&mut rng, 3, 5);
        let w = random_matrix(&mut rng, 5, 10);
        // 3:4 over 10 columns: tail group {8, 9} keeps min(3, 2) = 2 lanes.
        let kept = vec![0, 2, 3, 5, 6, 7, 8, 9];
        let compact = nm_compact_gemm(&a, &w, &kept, 3, 4).unwrap();
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
        let mut scratch = GatherColsScratch::default();

        // dW reference: Xᵀ · (scale · G ⊙ column mask).
        let mut g_masked = Matrix::zeros(7, 9);
        for i in 0..7 {
            for &j in &kept {
                g_masked[(i, j)] = g[(i, j)] * scale;
            }
        }
        let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
        let mut dw = Matrix::zeros(0, 0);
        gather_cols_gemm_at_b_into(&x, &g, &kept, scale, &mut scratch, &mut dw).unwrap();
        assert_eq!(dw.shape(), (5, 9));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-4
        ));

        // dX reference: (scale · G ⊙ mask) · Wᵀ with dropped columns of W
        // contributing nothing.
        let dx_ref = naive_gemm(&g_masked, &w.transpose()).unwrap();
        let mut dx = Matrix::zeros(0, 0);
        gather_cols_gemm_a_bt_into(&g, &w, &kept, scale, &mut scratch, &mut dx).unwrap();
        assert_eq!(dx.shape(), (7, 5));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn fused_gather_backward_matches_the_standalone_pair() {
        let mut rng = StdRng::seed_from_u64(59);
        let x = random_matrix(&mut rng, 6, 4);
        let g = random_matrix(&mut rng, 6, 10);
        let w = random_matrix(&mut rng, 4, 10);
        let kept = vec![1, 2, 6, 9];
        let scale = 3.0f32;

        let mut s1 = GatherColsScratch::default();
        let mut dw_ref = Matrix::zeros(0, 0);
        let mut dx_ref = Matrix::zeros(0, 0);
        gather_cols_gemm_at_b_into(&x, &g, &kept, scale, &mut s1, &mut dw_ref).unwrap();
        gather_cols_gemm_a_bt_into(&g, &w, &kept, scale, &mut s1, &mut dx_ref).unwrap();

        let mut s2 = GatherColsScratch::default();
        let mut dw = Matrix::zeros(0, 0);
        let mut dx = Matrix::zeros(0, 0);
        gather_cols_backward_into(&x, &g, &w, &kept, scale, &mut s2, &mut dw, &mut dx).unwrap();
        assert_eq!(dw, dw_ref);
        assert_eq!(dx, dx_ref);

        // Shape mismatches are rejected up front.
        assert!(gather_cols_backward_into(
            &Matrix::zeros(5, 4),
            &g,
            &w,
            &kept,
            scale,
            &mut s2,
            &mut dw,
            &mut dx
        )
        .is_err());
        assert!(gather_cols_backward_into(
            &x,
            &g,
            &Matrix::zeros(4, 9),
            &kept,
            scale,
            &mut s2,
            &mut dw,
            &mut dx
        )
        .is_err());
    }

    #[test]
    fn gather_backward_rejects_bad_shapes() {
        let mut scratch = GatherColsScratch::default();
        let mut out = Matrix::zeros(0, 0);
        assert!(gather_cols_gemm_at_b_into(
            &Matrix::zeros(3, 4),
            &Matrix::zeros(2, 5),
            &[0],
            1.0,
            &mut scratch,
            &mut out
        )
        .is_err());
        assert!(gather_cols_gemm_a_bt_into(
            &Matrix::zeros(3, 5),
            &Matrix::zeros(4, 6),
            &[0],
            1.0,
            &mut scratch,
            &mut out
        )
        .is_err());
        assert!(gather_cols_gemm_a_bt_into(
            &Matrix::zeros(3, 5),
            &Matrix::zeros(4, 5),
            &[5],
            1.0,
            &mut scratch,
            &mut out
        )
        .is_err());
    }

    /// Kept output columns of a `block`-wide block plan over `n` columns:
    /// the gather kernels' kept set, the last block clipped to `n`.
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
        let compact = row_compact_gemm(&a, &w, &kept_cols).unwrap();
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
        let compact = row_compact_gemm(&a, &w, &block_cols(&[0, 1, 2], 4, 12)).unwrap();
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
        // width, which the gather rejects (a zero block width is rejected
        // where block plans are built, in `BlockUnit::new`).
        let a = Matrix::zeros(2, 4);
        let w = Matrix::zeros(4, 8);
        assert!(row_compact_gemm(&a, &w, &block_cols(&[2], 4, 12)).is_err()); // 2 blocks only
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

        let mut scratch = GatherColsScratch::default();
        let mut dw = Matrix::zeros(0, 0);
        let mut dx = Matrix::zeros(0, 0);
        gather_cols_backward_into(
            &x,
            &g,
            &w,
            &kept_cols,
            scale,
            &mut scratch,
            &mut dw,
            &mut dx,
        )
        .unwrap();
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
            let mut dw = Matrix::zeros(0, 0);
            let mut scratch = GatherColsScratch::default();
            gather_cols_gemm_at_b_into(&x, &g, &kept_cols, 1.0, &mut scratch, &mut dw).unwrap();
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

    #[test]
    fn fused_gather_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(85);
        let a = random_matrix(&mut rng, 6, 9);
        let w = random_matrix(&mut rng, 9, 12);
        let bias = random_matrix(&mut rng, 1, 12);
        let kept = vec![0usize, 3, 5, 6, 10];
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            // Unfused chain: compacted GEMM, then the gather path's epilogue
            // ((v + bias) * scale on kept columns only), then the activation.
            let mut reference = row_compact_gemm(&a, &w, &kept).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept {
                    row[j] = (row[j] + bias[(0, j)]) * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let mut scratch = RowCompactScratch::default();
            let mut fused = Matrix::zeros(0, 0);
            gather_cols_gemm_bias_act_into(
                &a,
                &w,
                &kept,
                &bias,
                scale,
                act,
                &mut scratch,
                &mut fused,
            )
            .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_nm_validates_structure_and_matches_gather() {
        let mut rng = StdRng::seed_from_u64(87);
        let a = random_matrix(&mut rng, 5, 6);
        let w = random_matrix(&mut rng, 6, 8);
        let bias = random_matrix(&mut rng, 1, 8);
        let kept = vec![1usize, 3, 4, 6]; // 2:4 over 8 columns
        let mut scratch = RowCompactScratch::default();
        let mut fused = Matrix::zeros(0, 0);
        nm_compact_gemm_bias_act_into(
            &a,
            &w,
            &kept,
            2,
            4,
            &bias,
            2.0,
            Activation::Relu,
            &mut scratch,
            &mut fused,
        )
        .unwrap();
        let mut reference = Matrix::zeros(0, 0);
        gather_cols_gemm_bias_act_into(
            &a,
            &w,
            &kept,
            &bias,
            2.0,
            Activation::Relu,
            &mut scratch,
            &mut reference,
        )
        .unwrap();
        assert_eq!(fused, reference);
        // Malformed group structure is rejected.
        assert!(nm_compact_gemm_bias_act_into(
            &a,
            &w,
            &[0, 1, 2, 4],
            2,
            4,
            &bias,
            2.0,
            Activation::Relu,
            &mut scratch,
            &mut fused,
        )
        .is_err());
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
            let mut reference = row_compact_gemm(&a, &w, &kept_cols).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept_cols {
                    row[j] = (row[j] + bias[(0, j)]) * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let mut scratch = RowCompactScratch::default();
            let mut fused = Matrix::zeros(0, 0);
            gather_cols_gemm_bias_act_into(
                &a,
                &w,
                &kept_cols,
                &bias,
                scale,
                act,
                &mut scratch,
                &mut fused,
            )
            .unwrap();
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
        let mut scratch = RowCompactScratch::default();
        assert!(gather_cols_gemm_bias_act_into(
            &a,
            &w,
            &[0],
            &bad_bias,
            1.0,
            Activation::Relu,
            &mut scratch,
            &mut out
        )
        .is_err());
    }

    #[test]
    fn fused_dropped_columns_carry_the_activation_of_zero() {
        // A dropped neuron's pre-activation is exactly zero; the fused kernel
        // must report act(0) there (0 for ReLU, 0.5 for sigmoid) just like
        // the unfused chain's elementwise activation pass does.
        let a = Matrix::ones(2, 3);
        let w = Matrix::ones(3, 4);
        let bias = Matrix::zeros(1, 4);
        let mut scratch = RowCompactScratch::default();
        let mut out = Matrix::zeros(0, 0);
        gather_cols_gemm_bias_act_into(
            &a,
            &w,
            &[1],
            &bias,
            1.0,
            Activation::Sigmoid,
            &mut scratch,
            &mut out,
        )
        .unwrap();
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
        let sampled = gather_k_gemm(&a, &w, &kept_k).unwrap();
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
        let sampled = gather_k_gemm(&a, &w, &all).unwrap();
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
        let mut scratch = GatherKScratch::default();
        for act in ACTIVATIONS {
            let mut sampled = Matrix::zeros(0, 0);
            gather_k_gemm_bias_act_into(&a, &w, &all, &bias, 1.0, act, &mut scratch, &mut sampled)
                .unwrap();
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
        let mut scratch = GatherKScratch::default();
        for act in ACTIVATIONS {
            let mut reference = Matrix::zeros(0, 0);
            gather_k_gemm_into(&a, &w, &kept_k, &mut scratch, &mut reference).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                crate::simd::scale_add_bias(row, crs_scale, bias.row(0));
                act.apply_slice(row);
            }
            let mut fused = Matrix::zeros(0, 0);
            gather_k_gemm_bias_act_into(
                &a,
                &w,
                &kept_k,
                &bias,
                crs_scale,
                act,
                &mut scratch,
                &mut fused,
            )
            .unwrap();
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
        let mut scratch = GatherKScratch::default();
        for act in ACTIVATIONS {
            let mut reference = Matrix::zeros(0, 0);
            gather_nk_gemm_into(&a, &w, &kept_k, &kept_cols, &mut scratch, &mut reference).unwrap();
            let brow = bias.row(0);
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept_cols {
                    row[j] = (row[j] * crs_scale + brow[j]) * row_scale;
                }
                act.apply_slice(row);
            }
            let mut fused = Matrix::zeros(0, 0);
            gather_nk_gemm_bias_act_into(
                &a,
                &w,
                &kept_k,
                &kept_cols,
                &bias,
                crs_scale,
                row_scale,
                act,
                &mut scratch,
                &mut fused,
            )
            .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn gather_nk_dropped_columns_carry_the_activation_of_zero() {
        let a = Matrix::ones(2, 4);
        let w = Matrix::ones(4, 3);
        let bias = Matrix::zeros(1, 3);
        let mut scratch = GatherKScratch::default();
        let mut out = Matrix::zeros(0, 0);
        gather_nk_gemm_bias_act_into(
            &a,
            &w,
            &[0, 2],
            &[1],
            &bias,
            2.0,
            1.0,
            Activation::Sigmoid,
            &mut scratch,
            &mut out,
        )
        .unwrap();
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

        let mut scratch = GatherKScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        gather_k_backward_into(&x, &g, &w, &kept_k, scale, &mut scratch, &mut dw, &mut dx).unwrap();
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

        let mut scratch = GatherKScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        gather_nk_backward_into(
            &x,
            &g,
            &w,
            &kept_k,
            &kept_cols,
            scale,
            &mut scratch,
            &mut dw,
            &mut dx,
        )
        .unwrap();
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
        let mut scratch = GatherKScratch::default();
        let mut out = Matrix::zeros(0, 0);
        gather_k_gemm_into(&a, &w, &[0, 2, 4, 6, 8, 10], &mut scratch, &mut out).unwrap();
        let a_ptr = scratch.a_kept.as_slice().as_ptr();
        let w_ptr = scratch.w_kept.as_slice().as_ptr();
        let out_ptr = out.as_slice().as_ptr();
        // Second call with the same kept-count: every buffer is reused.
        gather_k_gemm_into(&a, &w, &[1, 3, 5, 7, 9, 11], &mut scratch, &mut out).unwrap();
        assert_eq!(a_ptr, scratch.a_kept.as_slice().as_ptr());
        assert_eq!(w_ptr, scratch.w_kept.as_slice().as_ptr());
        assert_eq!(out_ptr, out.as_slice().as_ptr());
    }

    #[test]
    fn gather_k_with_no_indices_is_zero() {
        let a = Matrix::ones(3, 5);
        let w = Matrix::ones(5, 4);
        let c = gather_k_gemm(&a, &w, &[]).unwrap();
        assert_eq!(c.shape(), (3, 4));
        assert_eq!(c.sum(), 0.0);
    }

    #[test]
    fn gather_k_rejects_out_of_bounds_inner_index() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        let g = Matrix::zeros(2, 4);
        let mut scratch = GatherKScratch::default();
        let mut out = Matrix::zeros(0, 0);
        assert!(gather_k_gemm(&a, &w, &[3]).is_err());
        assert!(gather_k_gemm_at_b_into(&a, &g, &[3], 1.0, &mut scratch, &mut out).is_err());
        assert!(gather_k_gemm_a_bt_into(&g, &w, &[3], 1.0, &mut scratch, &mut out).is_err());
        assert!(gather_nk_gemm_into(&a, &w, &[3], &[0], &mut scratch, &mut out).is_err());
        assert!(gather_nk_gemm_into(&a, &w, &[0], &[4], &mut scratch, &mut out).is_err());
    }
}
