//! Dense matrix substrate for the Approximate Random Dropout reproduction.
//!
//! The paper accelerates DNN training by shrinking the matrices that the GEMM
//! kernels operate on. This crate provides the CPU-side equivalent of that
//! substrate:
//!
//! * [`Matrix`] — a row-major, `f32` dense matrix with the elementwise and
//!   reduction operations a small training framework needs.
//! * [`gemm`] — naive and cache-blocked matrix multiplication, plus the
//!   *compacted* GEMM variants that actually skip dropped output columns and
//!   inner indices, which is what the Row-based Dropout Pattern does on the
//!   GPU.
//! * [`init`] — weight initialisation helpers (uniform, Xavier/Glorot,
//!   Gaussian via Box–Muller) so the crate has no dependency beyond `rand`.
//! * [`pool`] — a hand-rolled thread pool that splits the batch (row)
//!   dimension of every GEMM entry point across workers; `TENSOR_THREADS=1`
//!   pins execution fully serial, and results are bitwise identical for any
//!   thread count.
//! * [`simd`] — runtime dispatch over AVX2 / AVX-512 / NEON with a
//!   mandatory scalar fallback: the registers of every GEMM tile and the
//!   fused epilogues; `TENSOR_SIMD=0` forces the scalar path.
//! * [`tune`] — a blocking autotuner that searches MC/KC/NC block sizes per
//!   shape class and persists winners to `TUNE_GEMM.json`
//!   (`TENSOR_TUNE_FILE` points loads elsewhere).
//!
//! # Example
//!
//! ```
//! use tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod simd;
pub mod tune;

pub use gemm::{
    blocked_gemm, blocked_gemm_into, gemm_a_bt, gemm_a_bt_into, gemm_at_b, gemm_at_b_into,
    gemm_bias_act, gemm_bias_act_into, gemm_epilogue_into, naive_gemm, select_backward_into,
    select_gemm_bias_act_into, select_gemm_into, Activation, Epilogue, GemmError, SelectScratch,
};
pub use init::{gaussian, uniform, xavier_uniform};
pub use matrix::{Matrix, ShapeError};
pub use simd::SimdLevel;
pub use tune::{Blocking, ShapeClass, TuneConfig};

/// Absolute tolerance used by the crate's approximate float comparisons.
pub const DEFAULT_TOLERANCE: f32 = 1e-4;

/// Returns `true` when two slices agree elementwise within `tol`.
///
/// This is a test/diagnostic helper used throughout the workspace to compare
/// compacted kernels against their dense references.
///
/// # Example
///
/// ```
/// assert!(tensor::approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0 + 1e-6], 1e-4));
/// assert!(!tensor::approx_eq_slice(&[1.0], &[1.5], 1e-4));
/// ```
pub fn approx_eq_slice(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_slice_accepts_small_differences() {
        assert!(approx_eq_slice(&[0.0, 1.0], &[0.0, 1.0 + 1e-5], 1e-4));
    }

    #[test]
    fn approx_eq_slice_rejects_length_mismatch() {
        assert!(!approx_eq_slice(&[0.0], &[0.0, 1.0], 1e-4));
    }

    #[test]
    fn approx_eq_slice_rejects_large_differences() {
        assert!(!approx_eq_slice(&[0.0, 1.0], &[0.0, 1.2], 1e-4));
    }
}
