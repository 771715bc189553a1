//! Runtime-dispatched SIMD: the registers of every GEMM tile and the fused
//! epilogue kernels, behind one dispatch point.
//!
//! # Dispatch
//!
//! The instruction set is picked once per process ([`detected_level`]) with
//! `is_x86_feature_detected!` (AVX-512 only on toolchains ≥ 1.89, see the
//! crate's `build.rs`); NEON is unconditional on aarch64 and the scalar
//! loops remain the mandatory fallback everywhere else. The *active* level
//! ([`level`]) starts from the `TENSOR_SIMD` environment variable —
//! `0`/`off`/`scalar` forces the scalar path, `avx2`/`avx512`/`neon`
//! requests a specific ISA (clamped to what the host supports),
//! `1`/`auto`/empty/unset selects the detected maximum, and any other value
//! falls back to scalar (misconfiguration should be slow and correct, the
//! same policy `TENSOR_THREADS` follows) — and can be overridden at runtime
//! with [`set_level`] (used by the bench binaries' `--no-simd` flag).
//!
//! # Bitwise contract
//!
//! The GEMM tiles (driven by `crate::gemm` over the registers each level
//! provides), ReLU and every bias/mask/scale epilogue helper reproduce the
//! scalar arithmetic **bitwise** at every level; the tiles also at every
//! tile shape, block size and thread count:
//!
//! * multiplies and adds are issued as separate instructions in the scalar
//!   evaluation order — never fused into FMA, which rounds once instead of
//!   twice and would change the low bits. The cost: a mul+add pair does the
//!   work of one FMA, so the GEMMs are capped at half of the machine's FMA
//!   peak (`tensor.fma_peak_gflops` in the benchmark);
//! * A·B and Aᵀ·B accumulate each output `c` from `+0.0`: each quad of `k`,
//!   at the same absolute positions (multiples of 4) for every blocking, is
//!   added as `c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)`, then each leftover
//!   term as `c + a·b`;
//! * A·Bᵀ keeps the 8-lane `dot` order: eight independent lane sums
//!   over the 8-wide chunks of `k`, added in lane order onto `+0.0`, then the
//!   leftover terms in order. A `zmm` holds two such 8-lane accumulators
//!   side by side rather than one 16-lane sum, which would reassociate;
//! * accumulators start at `+0.0` and add; the first product is never stored
//!   directly, so a `-0.0` product still lands as `+0.0`;
//! * ReLU is `max(v, 0.0)` in both worlds (`-0.0` inputs may normalise to
//!   `+0.0` differently across ISAs; accumulated GEMM outputs never produce
//!   `-0.0`).
//!
//! The transcendental activations ([`sigmoid_slice`], [`tanh_slice`]) cannot
//! be bitwise against `libm`: when a vector level is active they switch to
//! polynomial forms — a Cephes-style `exp` for the sigmoid and the Eigen
//! rational approximation for tanh — whose scalar tail replays the exact
//! vector op sequence, so results are still *elementwise deterministic*
//! (independent of slicing, threading and fusion) within one active level.
//! Accuracy versus `libm` is a few ULP (documented bound: ≤ 16 ULP or
//! 1e-6 absolute for sigmoid, ≤ 32 ULP or 1e-6 absolute for tanh, the
//! latter dominated by the saturation clamp at |x| ≈ 7.9). With
//! `TENSOR_SIMD=0` the precise `libm` formulas are used, reproducing the
//! pre-SIMD numerics exactly.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Level detection and selection
// ---------------------------------------------------------------------------

/// Instruction-set tiers the kernels dispatch over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Plain slice loops; the mandatory fallback and the `TENSOR_SIMD=0`
    /// determinism anchor.
    Scalar = 0,
    /// 128-bit NEON (aarch64, where it is architecturally guaranteed).
    Neon = 1,
    /// 256-bit AVX2 (x86-64, runtime-detected).
    Avx2 = 2,
    /// 512-bit AVX-512F (x86-64, runtime-detected, toolchain ≥ 1.89).
    Avx512 = 3,
}

impl SimdLevel {
    /// Stable lowercase name (used in `TENSOR_SIMD`, `TUNE_GEMM.json` and
    /// the bench JSON's `simd.isa` key).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Neon => "neon",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parses a level name as accepted by `TENSOR_SIMD` (see module docs).
    /// `None` means "auto": use the detected maximum.
    pub fn parse(value: &str) -> Option<Option<SimdLevel>> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "1" | "auto" | "native" => Some(None),
            "0" | "off" | "scalar" => Some(Some(SimdLevel::Scalar)),
            "neon" => Some(Some(SimdLevel::Neon)),
            "avx2" => Some(Some(SimdLevel::Avx2)),
            "avx512" => Some(Some(SimdLevel::Avx512)),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Neon,
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Avx512,
            _ => SimdLevel::Scalar,
        }
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        #[cfg(tensor_avx512)]
        if is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// The widest level this host (and toolchain) supports.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// Clamps a requested level to what the host supports: an unsupported
/// request degrades down its own ISA family (AVX-512 → AVX2 → scalar,
/// NEON → scalar) rather than erroring, so `TENSOR_SIMD=avx512` on an
/// AVX2-only machine still vectorises.
pub fn clamp_to_detected(requested: SimdLevel) -> SimdLevel {
    let detected = detected_level();
    match requested {
        SimdLevel::Scalar => SimdLevel::Scalar,
        SimdLevel::Neon if detected == SimdLevel::Neon => SimdLevel::Neon,
        SimdLevel::Neon => SimdLevel::Scalar,
        SimdLevel::Avx2 | SimdLevel::Avx512 if detected < SimdLevel::Avx2 => SimdLevel::Scalar,
        SimdLevel::Avx2 => SimdLevel::Avx2,
        SimdLevel::Avx512 => detected.min(SimdLevel::Avx512),
    }
}

const ACTIVE_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

fn env_level() -> SimdLevel {
    let requested = match std::env::var("TENSOR_SIMD") {
        Ok(value) => match SimdLevel::parse(&value) {
            Some(Some(level)) => Some(level),
            Some(None) => None,
            // Unknown value: slow and correct, like a bad TENSOR_THREADS.
            None => Some(SimdLevel::Scalar),
        },
        Err(_) => None,
    };
    match requested {
        Some(level) => clamp_to_detected(level),
        None => detected_level(),
    }
}

/// The level the kernels currently dispatch to. Initialised from
/// `TENSOR_SIMD` on first use (racing initialisers compute the same value).
#[inline]
pub fn level() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        ACTIVE_UNSET => {
            let level = env_level();
            ACTIVE.store(level as u8, Ordering::Relaxed);
            level
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Overrides the active level (clamped to the host's support) and returns
/// the level that actually took effect. Process-global, like the thread
/// pool: callers that need a pinned mode (tests, `--no-simd`) set it before
/// running kernels.
pub fn set_level(requested: SimdLevel) -> SimdLevel {
    let level = clamp_to_detected(requested);
    ACTIVE.store(level as u8, Ordering::Relaxed);
    level
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the dispatch fallback and the bitwise spec)
// ---------------------------------------------------------------------------

mod scalar {
    use super::{DotVec, Isa, TileVec};

    /// Eight plain `f32` lanes: the scalar level's tile register. The lane
    /// operations are spelled out so unoptimised builds run them without a
    /// loop.
    #[derive(Clone, Copy)]
    pub struct Lanes([f32; 8]);

    impl TileVec for Lanes {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Lanes([0.0; 8])
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            Lanes([v; 8])
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Lanes(p.cast::<[f32; 8]>().read_unaligned())
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, n: usize) -> Self {
            let mut out = [0.0; 8];
            out[..n].copy_from_slice(std::slice::from_raw_parts(p, n));
            Lanes(out)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            p.cast::<[f32; 8]>().write_unaligned(self.0);
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f32, n: usize) {
            std::slice::from_raw_parts_mut(p, n).copy_from_slice(&self.0[..n]);
        }
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            let ([a0, a1, a2, a3, a4, a5, a6, a7], [b0, b1, b2, b3, b4, b5, b6, b7]) =
                (self.0, rhs.0);
            Lanes([
                a0 + b0,
                a1 + b1,
                a2 + b2,
                a3 + b3,
                a4 + b4,
                a5 + b5,
                a6 + b6,
                a7 + b7,
            ])
        }
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            let ([a0, a1, a2, a3, a4, a5, a6, a7], [b0, b1, b2, b3, b4, b5, b6, b7]) =
                (self.0, rhs.0);
            Lanes([
                a0 * b0,
                a1 * b1,
                a2 * b2,
                a3 * b3,
                a4 * b4,
                a5 * b5,
                a6 * b6,
                a7 * b7,
            ])
        }
    }

    impl DotVec for Lanes {}

    /// The scalar level: a 4×8 A·B tile and a 4×2 block of dots.
    pub struct Scalar;

    impl Isa for Scalar {
        type Vec = Lanes;
        type Dot = Lanes;
        const MR: usize = 4;
        const NV: usize = 1;
        const DR: usize = 4;
        const DC: usize = 2;
    }

    #[inline]
    pub fn add_bias(row: &mut [f32], bias: &[f32]) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }

    #[inline]
    pub fn add_bias_mask_scale(row: &mut [f32], bias: &[f32], mask: &[f32], scale: f32) {
        for ((v, &b), &m) in row.iter_mut().zip(bias).zip(mask) {
            *v = (*v + b) * (m * scale);
        }
    }

    #[inline]
    pub fn add_bias_scale(row: &mut [f32], bias: &[f32], scale: f32) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = (*v + b) * scale;
        }
    }

    #[inline]
    pub fn scale_add_bias(row: &mut [f32], scale: f32, bias: &[f32]) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = *v * scale + b;
        }
    }

    #[inline]
    pub fn relu(row: &mut [f32]) {
        for v in row.iter_mut() {
            *v = v.max(0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// GEMM tile registers
// ---------------------------------------------------------------------------

/// One vector register of `f32` lanes as the register tiles of
/// [`crate::gemm`] use it. Only lane-wise multiplies and adds exist, so a
/// tile computes every output element with the same operations at every
/// width.
///
/// # Safety
///
/// Every method requires the instruction set of the implementing type
/// (guaranteed inside a [`Kernel`] run through [`dispatch`]) and valid
/// pointers for the lanes it touches.
pub(crate) trait TileVec: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// Every lane `+0.0`.
    unsafe fn zero() -> Self;
    /// Every lane `v`.
    unsafe fn splat(v: f32) -> Self;
    /// `LANES` values from `p`.
    unsafe fn load(p: *const f32) -> Self;
    /// The first `n < LANES` values from `p`, the other lanes zero. Reads
    /// nothing at or past `p + n`.
    unsafe fn load_partial(p: *const f32, n: usize) -> Self;
    /// Stores every lane to `p`.
    unsafe fn store(self, p: *mut f32);
    /// Stores the first `n < LANES` lanes to `p`.
    unsafe fn store_partial(self, p: *mut f32, n: usize);
    /// Lane-wise `self + rhs`.
    unsafe fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self · rhs`.
    unsafe fn mul(self, rhs: Self) -> Self;
}

/// A register used as `DOTS = LANES / 8` eight-lane dot-product
/// accumulators side by side: lane `l` of slot `s` sums
/// `x[8c + l] · y_s[8c + l]` over the chunks `c`, which is the accumulator
/// array of an 8-lane `dot` loop.
///
/// # Safety
///
/// As for [`TileVec`].
pub(crate) trait DotVec: TileVec {
    /// Dot products per register (1 or 2).
    const DOTS: usize = Self::LANES / 8;
    /// Eight values of `x` from `p`, repeated in every slot. The default
    /// fits a one-dot register.
    #[inline(always)]
    unsafe fn load_x(p: *const f32) -> Self {
        Self::load(p)
    }
    /// Eight values of `y_s` from `p + s · stride` for every slot `s`. The
    /// default fits a one-dot register.
    #[inline(always)]
    unsafe fn load_y(p: *const f32, _stride: usize) -> Self {
        Self::load(p)
    }
}

/// An instruction set the GEMM tiles are instantiated for: its register
/// types and its tile shapes.
pub(crate) trait Isa {
    /// Register of the A·B and Aᵀ·B tile.
    type Vec: TileVec;
    /// Register of the A·Bᵀ tile.
    type Dot: DotVec;
    /// Rows of the A·B tile (at most 4).
    const MR: usize;
    /// Registers per row of the A·B tile (at most 2): `NR = NV · LANES`.
    const NV: usize;
    /// Rows of the A·Bᵀ tile (at most 4).
    const DR: usize;
    /// Registers per row of the A·Bᵀ tile (at most 4), `DOTS` output
    /// columns each.
    const DC: usize;
}

/// A kernel body generic over the instruction set. [`dispatch`] runs it at
/// the active level, compiled with that level's target features: every
/// function `run` reaches must be `#[inline(always)]` to inherit them.
pub(crate) trait Kernel {
    /// Runs the body with the registers of `I`.
    ///
    /// # Safety
    ///
    /// The CPU must support `I`'s instruction set.
    unsafe fn run<I: Isa>(self);
}

/// Runs `kernel` at the active level.
#[inline]
pub(crate) fn dispatch<K: Kernel>(kernel: K) {
    // SAFETY (every arm): the active level is clamped to what the host
    // supports (`clamp_to_detected`), so its instruction set is present;
    // the scalar registers are plain arrays.
    match level() {
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::run_avx512(kernel) },
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::run_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::run_avx2(kernel) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::run_neon(kernel) },
        _ => unsafe { kernel.run::<scalar::Scalar>() },
    }
}

// ---------------------------------------------------------------------------
// Polynomial transcendentals (shared by the vector bodies and their scalar
// tails — every operation below has a lane-for-lane vector twin)
// ---------------------------------------------------------------------------

/// Cephes f32 `exp` constants (the classic `exp_ps` kernel). Valid for the
/// non-positive arguments the sigmoid feeds it; the positive clamp sits just
/// below the overflow threshold.
mod exp_consts {
    pub const HI: f32 = 88.376_26;
    pub const LO: f32 = -88.376_26;
    pub const LOG2EF: f32 = std::f32::consts::LOG2_E;
    pub const C1: f32 = 0.693_359_4;
    pub const C2: f32 = -2.121_944_4e-4;
    pub const P0: f32 = 1.987_569_1e-4;
    pub const P1: f32 = 1.398_199_9e-3;
    pub const P2: f32 = 8.333_452e-3;
    pub const P3: f32 = 4.166_579_6e-2;
    pub const P4: f32 = 1.666_666_6e-1;
    pub const P5: f32 = 5.000_000_3e-1;
}

/// Eigen's `ptanh` rational approximation: `tanh(x) ≈ x·P(x²) / Q(x²)`,
/// clamped to the f32 saturation boundary.
mod tanh_consts {
    pub const CLAMP: f32 = 7.905_311;
    pub const A1: f32 = 4.893_525e-3;
    pub const A3: f32 = 6.372_619e-4;
    pub const A5: f32 = 1.485_722_4e-5;
    pub const A7: f32 = 5.122_297e-8;
    pub const A9: f32 = -8.604_672e-11;
    pub const A11: f32 = 2.000_188e-13;
    pub const A13: f32 = -2.760_768_4e-16;
    pub const B0: f32 = 4.893_525_4e-3;
    pub const B2: f32 = 2.268_434_6e-3;
    pub const B4: f32 = 1.185_347e-4;
    pub const B6: f32 = 1.198_258_4e-6;
}

/// Scalar replay of the vector `exp` kernel: identical op sequence
/// (separate mul/add, floor-based range reduction, exponent-bit 2^n), so a
/// scalar-tail element rounds exactly like a vector-lane element.
#[inline]
fn exp_approx(x: f32) -> f32 {
    use exp_consts::*;
    // min-then-max (not `clamp`) to replicate the vector kernel's
    // `_mm256_min_ps`/`_mm256_max_ps` NaN behaviour lane-for-lane.
    #[allow(clippy::manual_clamp)]
    let x = x.min(HI).max(LO);
    let fx = (x * LOG2EF + 0.5).floor();
    let x = x - fx * C1 - fx * C2;
    let z = x * x;
    let mut y = P0;
    y = y * x + P1;
    y = y * x + P2;
    y = y * x + P3;
    y = y * x + P4;
    y = y * x + P5;
    y = y * z + x + 1.0;
    let n = fx as i32;
    y * f32::from_bits(((n + 127) as u32) << 23)
}

/// Polynomial sigmoid: `t = exp(-|x|)`, `r = 1/(1+t)`, selecting `r` for
/// `x ≥ 0` and `t·r` otherwise (avoids cancellation on the negative side).
#[inline]
pub fn sigmoid_approx(x: f32) -> f32 {
    let t = exp_approx(-x.abs());
    let r = 1.0 / (1.0 + t);
    if x >= 0.0 {
        r
    } else {
        t * r
    }
}

/// Polynomial tanh (Eigen rational form), clamped at the f32 saturation
/// boundary.
#[inline]
pub fn tanh_approx(x: f32) -> f32 {
    use tanh_consts::*;
    // max-then-min (not `clamp`) to replicate the vector kernel's
    // `_mm256_max_ps`/`_mm256_min_ps` NaN behaviour lane-for-lane.
    #[allow(clippy::manual_clamp)]
    let x = x.max(-CLAMP).min(CLAMP);
    let z = x * x;
    let mut p = A13;
    p = z * p + A11;
    p = z * p + A9;
    p = z * p + A7;
    p = z * p + A5;
    p = z * p + A3;
    p = z * p + A1;
    let p = x * p;
    let mut q = B6;
    q = z * q + B4;
    q = z * q + B2;
    q = z * q + B0;
    p / q
}

/// Precise scalar sigmoid (`libm` exp) — the `TENSOR_SIMD=0` numerics.
#[inline]
fn sigmoid_precise(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Sigmoid of one scalar under the *active* level: precise `libm` form when
/// scalar, the polynomial form (bitwise equal to a vector lane) otherwise.
/// This is what keeps `Activation::apply` consistent with the vectorised
/// epilogues, so fused-vs-unfused comparisons stay bitwise in every mode.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if level() == SimdLevel::Scalar {
        sigmoid_precise(x)
    } else {
        sigmoid_approx(x)
    }
}

/// Tanh of one scalar under the active level (see [`sigmoid_scalar`]).
#[inline]
pub fn tanh_scalar(x: f32) -> f32 {
    if level() == SimdLevel::Scalar {
        x.tanh()
    } else {
        tanh_approx(x)
    }
}

// ---------------------------------------------------------------------------
// AVX2 / AVX-512 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{exp_consts, sigmoid_approx, tanh_approx, tanh_consts};
    use super::{DotVec, Isa, Kernel, TileVec};
    use std::arch::x86_64::*;

    /// Lanes `0..n` set, the rest clear: the AVX2 partial-access mask.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn lane_mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    impl TileVec for __m256 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, n: usize) -> Self {
            _mm256_maskload_ps(p, lane_mask(n))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f32, n: usize) {
            _mm256_maskstore_ps(p, lane_mask(n), self);
        }
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            _mm256_add_ps(self, rhs)
        }
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            _mm256_mul_ps(self, rhs)
        }
    }

    /// One 8-lane dot per `ymm`: lane for lane the scalar accumulator array.
    impl DotVec for __m256 {}

    /// AVX2: a 4×16 A·B tile and a 3×3 block of dots, sized to the 16
    /// `ymm` registers.
    pub struct Avx2;

    impl Isa for Avx2 {
        type Vec = __m256;
        type Dot = __m256;
        const MR: usize = 4;
        const NV: usize = 2;
        const DR: usize = 3;
        const DC: usize = 3;
    }

    /// Runs `kernel` with the AVX2 registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn run_avx2<K: Kernel>(kernel: K) {
        kernel.run::<Avx2>();
    }

    // The AVX-512 intrinsics stabilised in 1.89; `tensor_avx512` is only
    // emitted by build.rs on rustc >= 1.89, so the MSRV lint cannot apply.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    impl TileVec for __m512 {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, n: usize) -> Self {
            _mm512_maskz_loadu_ps(((1u32 << n) - 1) as __mmask16, p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f32, n: usize) {
            _mm512_mask_storeu_ps(p, ((1u32 << n) - 1) as __mmask16, self);
        }
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            _mm512_add_ps(self, rhs)
        }
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            _mm512_mul_ps(self, rhs)
        }
    }

    /// Two 8-lane dots per `zmm`: the low half accumulates against one row
    /// of `y`, the high half against the next, each lane for lane the
    /// scalar accumulator array.
    // See the `__m512` `TileVec` impl: the build.rs cfg gate guarantees
    // rustc >= 1.89.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    impl DotVec for __m512 {
        #[inline(always)]
        unsafe fn load_x(p: *const f32) -> Self {
            let x = _mm256_castps_pd(_mm256_loadu_ps(p));
            _mm512_castpd_ps(_mm512_broadcast_f64x4(x))
        }
        #[inline(always)]
        unsafe fn load_y(p: *const f32, stride: usize) -> Self {
            let lo = _mm512_castpd256_pd512(_mm256_castps_pd(_mm256_loadu_ps(p)));
            let hi = _mm256_castps_pd(_mm256_loadu_ps(p.add(stride)));
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi))
        }
    }

    /// AVX-512: a 4×32 A·B tile and a 4×8 block of dots in 16 `zmm`
    /// registers.
    #[cfg(tensor_avx512)]
    pub struct Avx512;

    #[cfg(tensor_avx512)]
    impl Isa for Avx512 {
        type Vec = __m512;
        type Dot = __m512;
        const MR: usize = 4;
        const NV: usize = 2;
        const DR: usize = 4;
        const DC: usize = 4;
    }

    // See the `__m512` impl: the build.rs cfg gate guarantees rustc >= 1.89.
    /// Runs `kernel` with the AVX-512 registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn run_avx512<K: Kernel>(kernel: K) {
        kernel.run::<Avx512>();
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_bias_avx2(row: &mut [f32], bias: &[f32]) {
        let n = row.len().min(bias.len());
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_add_ps(v, b));
            j += 8;
        }
        while j < n {
            row[j] += bias[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_bias_mask_scale_avx2(
        row: &mut [f32],
        bias: &[f32],
        mask: &[f32],
        scale: f32,
    ) {
        let n = row.len().min(bias.len()).min(mask.len());
        let vs = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            let m = _mm256_loadu_ps(mask.as_ptr().add(j));
            let r = _mm256_mul_ps(_mm256_add_ps(v, b), _mm256_mul_ps(m, vs));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), r);
            j += 8;
        }
        while j < n {
            row[j] = (row[j] + bias[j]) * (mask[j] * scale);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_bias_scale_avx2(row: &mut [f32], bias: &[f32], scale: f32) {
        let n = row.len().min(bias.len());
        let vs = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            let r = _mm256_mul_ps(_mm256_add_ps(v, b), vs);
            _mm256_storeu_ps(row.as_mut_ptr().add(j), r);
            j += 8;
        }
        while j < n {
            row[j] = (row[j] + bias[j]) * scale;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_add_bias_avx2(row: &mut [f32], scale: f32, bias: &[f32]) {
        let n = row.len().min(bias.len());
        let vs = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            let r = _mm256_add_ps(_mm256_mul_ps(v, vs), b);
            _mm256_storeu_ps(row.as_mut_ptr().add(j), r);
            j += 8;
        }
        while j < n {
            row[j] = row[j] * scale + bias[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_avx2(row: &mut [f32]) {
        let n = row.len();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_max_ps(v, zero));
            j += 8;
        }
        while j < n {
            row[j] = row[j].max(0.0);
            j += 1;
        }
    }

    /// Vector twin of [`super::exp_approx`]: same clamp, range reduction,
    /// Horner polynomial and exponent-bit 2^n, lane for lane.
    #[target_feature(enable = "avx2")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        use exp_consts::*;
        let x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(HI)), _mm256_set1_ps(LO));
        let fx = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
            _mm256_set1_ps(0.5),
        ));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C1)));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C2)));
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P5));
        y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), x), _mm256_set1_ps(1.0));
        let n = _mm256_cvttps_epi32(fx);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sigmoid_avx2(row: &mut [f32]) {
        let n = row.len();
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(row.as_ptr().add(j));
            // t = exp(-|x|) via OR-ing the sign bit in.
            let t = exp_ps(_mm256_or_ps(x, sign));
            let r = _mm256_div_ps(one, _mm256_add_ps(one, t));
            let neg = _mm256_mul_ps(t, r);
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_blendv_ps(neg, r, ge));
            j += 8;
        }
        while j < n {
            row[j] = sigmoid_approx(row[j]);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh_avx2(row: &mut [f32]) {
        use tanh_consts::*;
        let n = row.len();
        let clamp = _mm256_set1_ps(CLAMP);
        let neg_clamp = _mm256_set1_ps(-CLAMP);
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(row.as_ptr().add(j));
            let x = _mm256_min_ps(_mm256_max_ps(x, neg_clamp), clamp);
            let z = _mm256_mul_ps(x, x);
            let mut p = _mm256_set1_ps(A13);
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A11));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A9));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A7));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A5));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A3));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A1));
            let p = _mm256_mul_ps(x, p);
            let mut q = _mm256_set1_ps(B6);
            q = _mm256_add_ps(_mm256_mul_ps(z, q), _mm256_set1_ps(B4));
            q = _mm256_add_ps(_mm256_mul_ps(z, q), _mm256_set1_ps(B2));
            q = _mm256_add_ps(_mm256_mul_ps(z, q), _mm256_set1_ps(B0));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_div_ps(p, q));
            j += 8;
        }
        while j < n {
            row[j] = tanh_approx(row[j]);
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{Isa, Kernel, TileVec};
    use std::arch::aarch64::*;

    impl TileVec for float32x4_t {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            vdupq_n_f32(0.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            vdupq_n_f32(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            vld1q_f32(p)
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, n: usize) -> Self {
            let mut lanes = [0.0f32; 4];
            std::ptr::copy_nonoverlapping(p, lanes.as_mut_ptr(), n);
            vld1q_f32(lanes.as_ptr())
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            vst1q_f32(p, self);
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f32, n: usize) {
            let mut lanes = [0.0f32; 4];
            vst1q_f32(lanes.as_mut_ptr(), self);
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), p, n);
        }
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            vaddq_f32(self, rhs)
        }
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            vmulq_f32(self, rhs)
        }
    }

    /// NEON: a 4×8 A·B tile and a 4×2 block of dots. Each 8-lane dot
    /// stays in the scalar lane array, which the compiler maps onto two `q`
    /// registers.
    pub struct Neon;

    impl Isa for Neon {
        type Vec = float32x4_t;
        type Dot = super::scalar::Lanes;
        const MR: usize = 4;
        const NV: usize = 2;
        const DR: usize = 4;
        const DC: usize = 2;
    }

    /// Runs `kernel` with the NEON registers.
    ///
    /// # Safety
    ///
    /// The CPU must support NEON (always true on aarch64).
    #[target_feature(enable = "neon")]
    pub unsafe fn run_neon<K: Kernel>(kernel: K) {
        kernel.run::<Neon>();
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn relu_neon(row: &mut [f32]) {
        let n = row.len();
        let zero = vdupq_n_f32(0.0);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vmaxq_f32(v, zero));
            j += 4;
        }
        while j < n {
            row[j] = row[j].max(0.0);
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add_bias_neon(row: &mut [f32], bias: &[f32]) {
        let n = row.len().min(bias.len());
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vaddq_f32(v, b));
            j += 4;
        }
        while j < n {
            row[j] += bias[j];
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add_bias_mask_scale_neon(
        row: &mut [f32],
        bias: &[f32],
        mask: &[f32],
        scale: f32,
    ) {
        let n = row.len().min(bias.len()).min(mask.len());
        let vs = vdupq_n_f32(scale);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            let m = vld1q_f32(mask.as_ptr().add(j));
            vst1q_f32(
                row.as_mut_ptr().add(j),
                vmulq_f32(vaddq_f32(v, b), vmulq_f32(m, vs)),
            );
            j += 4;
        }
        while j < n {
            row[j] = (row[j] + bias[j]) * (mask[j] * scale);
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add_bias_scale_neon(row: &mut [f32], bias: &[f32], scale: f32) {
        let n = row.len().min(bias.len());
        let vs = vdupq_n_f32(scale);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vmulq_f32(vaddq_f32(v, b), vs));
            j += 4;
        }
        while j < n {
            row[j] = (row[j] + bias[j]) * scale;
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn scale_add_bias_neon(row: &mut [f32], scale: f32, bias: &[f32]) {
        let n = row.len().min(bias.len());
        let vs = vdupq_n_f32(scale);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vaddq_f32(vmulq_f32(v, vs), b));
            j += 4;
        }
        while j < n {
            row[j] = row[j] * scale + bias[j];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch points
// ---------------------------------------------------------------------------

/// `row[j] += bias[j]`.
#[inline]
pub fn add_bias(row: &mut [f32], bias: &[f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::add_bias_avx2(row, bias) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::add_bias_neon(row, bias) },
        _ => scalar::add_bias(row, bias),
    }
}

/// `row[j] = (row[j] + bias[j]) * (mask[j] * scale)`.
#[inline]
pub fn add_bias_mask_scale(row: &mut [f32], bias: &[f32], mask: &[f32], scale: f32) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::add_bias_mask_scale_avx2(row, bias, mask, scale)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::add_bias_mask_scale_neon(row, bias, mask, scale) },
        _ => scalar::add_bias_mask_scale(row, bias, mask, scale),
    }
}

/// `row[j] = (row[j] + bias[j]) * scale`.
#[inline]
pub fn add_bias_scale(row: &mut [f32], bias: &[f32], scale: f32) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::add_bias_scale_avx2(row, bias, scale)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::add_bias_scale_neon(row, bias, scale) },
        _ => scalar::add_bias_scale(row, bias, scale),
    }
}

/// `row[j] = row[j] * scale + bias[j]` (the tile epilogue's order).
#[inline]
pub fn scale_add_bias(row: &mut [f32], scale: f32, bias: &[f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::scale_add_bias_avx2(row, scale, bias)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::scale_add_bias_neon(row, scale, bias) },
        _ => scalar::scale_add_bias(row, scale, bias),
    }
}

/// Elementwise `max(v, 0.0)` — scalar-exact at every level.
#[inline]
pub fn relu_slice(row: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::relu_avx2(row) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::relu_neon(row) },
        _ => scalar::relu(row),
    }
}

/// Elementwise sigmoid at the active level: `libm` when scalar, the
/// polynomial kernel otherwise (vectorised on x86; NEON replays the same
/// polynomial in scalar form, keeping results elementwise-deterministic).
#[inline]
pub fn sigmoid_slice(row: &mut [f32]) {
    match level() {
        SimdLevel::Scalar => {
            for v in row.iter_mut() {
                *v = sigmoid_precise(*v);
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::sigmoid_avx2(row) },
        _ => {
            for v in row.iter_mut() {
                *v = sigmoid_approx(*v);
            }
        }
    }
}

/// Elementwise tanh at the active level (see [`sigmoid_slice`]).
#[inline]
pub fn tanh_slice(row: &mut [f32]) {
    match level() {
        SimdLevel::Scalar => {
            for v in row.iter_mut() {
                *v = v.tanh();
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::tanh_avx2(row) },
        _ => {
            for v in row.iter_mut() {
                *v = tanh_approx(*v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with the active level pinned to `level`, restoring after.
    /// Tests touching the global level must go through the serializing lock
    /// below — unit tests in one binary run concurrently.
    fn with_level(requested: SimdLevel, f: impl FnOnce(SimdLevel)) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        let previous = level();
        let actual = set_level(requested);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(actual)));
        set_level(previous);
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    fn test_data(len: usize) -> Vec<f32> {
        // Deterministic, sign-mixed, non-trivial mantissas.
        (0..len)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 / 81.0 - 6.0)
            .collect()
    }

    #[test]
    fn parse_accepts_the_documented_names() {
        assert_eq!(SimdLevel::parse("0"), Some(Some(SimdLevel::Scalar)));
        assert_eq!(SimdLevel::parse("off"), Some(Some(SimdLevel::Scalar)));
        assert_eq!(SimdLevel::parse("AVX2"), Some(Some(SimdLevel::Avx2)));
        assert_eq!(SimdLevel::parse("avx512"), Some(Some(SimdLevel::Avx512)));
        assert_eq!(SimdLevel::parse("neon"), Some(Some(SimdLevel::Neon)));
        assert_eq!(SimdLevel::parse(""), Some(None));
        assert_eq!(SimdLevel::parse("auto"), Some(None));
        assert_eq!(SimdLevel::parse("bogus"), None);
    }

    #[test]
    fn clamp_never_exceeds_detected() {
        for requested in [
            SimdLevel::Scalar,
            SimdLevel::Neon,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ] {
            let clamped = clamp_to_detected(requested);
            assert!(clamped <= detected_level(), "{requested:?} → {clamped:?}");
            assert_eq!(clamp_to_detected(clamped), clamped, "clamp is idempotent");
        }
    }

    #[test]
    fn detected_level_is_selectable() {
        // The dispatch test of the satellite list: whatever the host
        // detects must actually become the active level when requested.
        let detected = detected_level();
        with_level(detected, |actual| {
            assert_eq!(actual, detected);
            assert_eq!(level(), detected);
        });
    }

    /// The levels this host can run, scalar first.
    fn supported_levels() -> Vec<SimdLevel> {
        [
            SimdLevel::Scalar,
            SimdLevel::Neon,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ]
        .into_iter()
        .filter(|&l| clamp_to_detected(l) == l)
        .collect()
    }

    /// A quad update `c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)` and an
    /// 8-lane dot `c·b0` over one row, built from the tile registers of the
    /// active level the way the GEMM tiles use them: whole registers, then
    /// a partial one.
    struct RegisterProbe<'a> {
        c: &'a [f32],
        b: [&'a [f32]; 4],
        alpha: [f32; 4],
        quad: &'a mut [f32],
        dot: &'a mut f32,
    }

    impl Kernel for RegisterProbe<'_> {
        unsafe fn run<I: Isa>(self) {
            let lanes = <I::Vec as TileVec>::LANES;
            let len = self.c.len();
            let x = self.alpha.map(|a| <I::Vec as TileVec>::splat(a));
            let mut j = 0;
            while j < len {
                let n = lanes.min(len - j);
                let load = |row: &[f32]| {
                    let p = row[j..].as_ptr();
                    if n == lanes {
                        <I::Vec as TileVec>::load(p)
                    } else {
                        <I::Vec as TileVec>::load_partial(p, n)
                    }
                };
                let t = x[0].mul(load(self.b[0])).add(x[1].mul(load(self.b[1])));
                let t = t.add(x[2].mul(load(self.b[2])));
                let t = t.add(x[3].mul(load(self.b[3])));
                let r = load(self.c).add(t);
                let out = self.quad[j..].as_mut_ptr();
                if n == lanes {
                    r.store(out);
                } else {
                    r.store_partial(out, n);
                }
                j += lanes;
            }
            // Every slot of a dot register reads the same row (stride 0),
            // so each slot must hold the same eight lanes.
            let mut acc = <I::Dot as TileVec>::zero();
            let chunks = len / 8;
            for ch in 0..chunks {
                let x = <I::Dot as DotVec>::load_x(self.c[ch * 8..].as_ptr());
                let y = <I::Dot as DotVec>::load_y(self.b[0][ch * 8..].as_ptr(), 0);
                acc = acc.add(x.mul(y));
            }
            let mut lanes8 = [0.0f32; 16];
            acc.store(lanes8.as_mut_ptr());
            for s in 1..<I::Dot as DotVec>::DOTS {
                assert_eq!(lanes8[..8], lanes8[s * 8..s * 8 + 8], "dot slot {s}");
            }
            let mut sum = 0.0;
            for &lane in &lanes8[..8] {
                sum += lane;
            }
            for t in chunks * 8..len {
                sum += self.c[t] * self.b[0][t];
            }
            *self.dot = sum;
        }
    }

    #[test]
    fn vector_kernels_match_scalar_bitwise() {
        // Odd lengths exercise every partial register.
        for len in [1usize, 7, 8, 9, 16, 31, 64, 100] {
            let b0 = test_data(len);
            let b1: Vec<f32> = b0.iter().map(|v| v * 0.5 + 1.0).collect();
            let b2: Vec<f32> = b0.iter().map(|v| v * -0.25 + 2.0).collect();
            let b3: Vec<f32> = b0.iter().map(|v| v * 2.0 - 3.0).collect();
            let c0 = test_data(len + 5)[5..].to_vec();
            let alpha = [1.25, -0.5, 0.75, 2.0];

            // The documented scalar arithmetic, written out.
            let expected_quad: Vec<f32> = (0..len)
                .map(|j| {
                    c0[j]
                        + (((alpha[0] * b0[j] + alpha[1] * b1[j]) + alpha[2] * b2[j])
                            + alpha[3] * b3[j])
                })
                .collect();
            let mut lane_sums = [0.0f32; 8];
            for j in 0..len / 8 * 8 {
                lane_sums[j % 8] += c0[j] * b0[j];
            }
            let mut expected_dot = 0.0f32;
            for lane in lane_sums {
                expected_dot += lane;
            }
            for j in len / 8 * 8..len {
                expected_dot += c0[j] * b0[j];
            }

            for level in supported_levels() {
                with_level(level, |_| {
                    let mut quad = vec![f32::NAN; len];
                    let mut dot = f32::NAN;
                    dispatch(RegisterProbe {
                        c: &c0,
                        b: [&b0, &b1, &b2, &b3],
                        alpha,
                        quad: &mut quad,
                        dot: &mut dot,
                    });
                    assert_eq!(quad, expected_quad, "quad update len {len} at {level:?}");
                    assert_eq!(
                        dot.to_bits(),
                        expected_dot.to_bits(),
                        "dot len {len} at {level:?}"
                    );
                });
            }
        }
    }

    #[test]
    fn epilogue_helpers_match_scalar_bitwise() {
        for len in [1usize, 5, 8, 13, 40] {
            let base = test_data(len);
            let bias = test_data(len + 3)[3..].to_vec();
            let mask: Vec<f32> = (0..len)
                .map(|j| if j % 3 == 0 { 0.0 } else { 1.0 })
                .collect();
            let scale = 1.75f32;

            let mut e1 = base.clone();
            scalar::add_bias(&mut e1, &bias);
            let mut e2 = base.clone();
            scalar::add_bias_mask_scale(&mut e2, &bias, &mask, scale);
            let mut e3 = base.clone();
            scalar::add_bias_scale(&mut e3, &bias, scale);
            let mut e4 = base.clone();
            scalar::scale_add_bias(&mut e4, scale, &bias);
            let mut e5 = base.clone();
            scalar::relu(&mut e5);

            with_level(detected_level(), |_| {
                let mut r = base.clone();
                add_bias(&mut r, &bias);
                assert_eq!(r, e1, "add_bias len {len}");
                let mut r = base.clone();
                add_bias_mask_scale(&mut r, &bias, &mask, scale);
                assert_eq!(r, e2, "add_bias_mask_scale len {len}");
                let mut r = base.clone();
                add_bias_scale(&mut r, &bias, scale);
                assert_eq!(r, e3, "add_bias_scale len {len}");
                let mut r = base.clone();
                scale_add_bias(&mut r, scale, &bias);
                assert_eq!(r, e4, "scale_add_bias len {len}");
                let mut r = base.clone();
                relu_slice(&mut r);
                assert_eq!(r, e5, "relu len {len}");
            });
        }
    }

    fn ulp_distance(a: f32, b: f32) -> u32 {
        let ia = a.to_bits() as i32;
        let ib = b.to_bits() as i32;
        // Map to a monotonic integer line (sign-magnitude → offset binary).
        let ma = if ia < 0 { i32::MIN - ia } else { ia };
        let mb = if ib < 0 { i32::MIN - ib } else { ib };
        ma.abs_diff(mb)
    }

    #[test]
    fn vector_transcendentals_match_their_scalar_tails_bitwise() {
        // The vector body and the scalar tail must agree bitwise per
        // element, or slicing/threading would change results.
        let inputs: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.025).collect();
        with_level(detected_level(), |actual| {
            if actual == SimdLevel::Scalar {
                return; // nothing vectorised to compare
            }
            for len in [3usize, 8, 11, 801] {
                let mut sig = inputs[..len].to_vec();
                sigmoid_slice(&mut sig);
                let mut tan = inputs[..len].to_vec();
                tanh_slice(&mut tan);
                for (j, &x) in inputs[..len].iter().enumerate() {
                    assert_eq!(sig[j], sigmoid_approx(x), "sigmoid lane/tail at {x}");
                    assert_eq!(tan[j], tanh_approx(x), "tanh lane/tail at {x}");
                }
            }
        });
    }

    #[test]
    fn polynomial_transcendentals_are_ulp_close_to_libm() {
        for i in -2000..=2000 {
            let x = i as f32 * 0.005; // [-10, 10]
            let sig = sigmoid_approx(x);
            let sig_ref = sigmoid_precise(x);
            assert!(
                ulp_distance(sig, sig_ref) <= 16 || (sig - sig_ref).abs() <= 1e-6,
                "sigmoid({x}): {sig} vs {sig_ref}"
            );
            let tan = tanh_approx(x);
            let tan_ref = x.tanh();
            assert!(
                ulp_distance(tan, tan_ref) <= 32 || (tan - tan_ref).abs() <= 1e-6,
                "tanh({x}): {tan} vs {tan_ref}"
            );
        }
        // Exact anchors.
        assert_eq!(sigmoid_approx(0.0), 0.5);
        assert_eq!(tanh_approx(0.0), 0.0);
        assert!(sigmoid_approx(-30.0).abs() < 1e-9);
        assert!((sigmoid_approx(30.0) - 1.0).abs() < 1e-6);
        assert!(tanh_approx(30.0) <= 1.0 && tanh_approx(30.0) > 0.999999);
    }

    #[test]
    fn scalar_level_uses_precise_transcendentals() {
        with_level(SimdLevel::Scalar, |actual| {
            assert_eq!(actual, SimdLevel::Scalar);
            let mut row = [0.3f32, -1.2, 4.0];
            sigmoid_slice(&mut row);
            for (v, x) in row.iter().zip([0.3f32, -1.2, 4.0]) {
                assert_eq!(*v, sigmoid_precise(x));
            }
            let mut row = [0.3f32, -1.2, 4.0];
            tanh_slice(&mut row);
            for (v, x) in row.iter().zip([0.3f32, -1.2, 4.0]) {
                assert_eq!(*v, x.tanh());
            }
        });
    }
}
