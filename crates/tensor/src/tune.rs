//! Blocking autotuner: searches MC/KC/NC cache-block sizes per shape class
//! (and the pool's serial-fallback row threshold) and persists the winners
//! to a `TUNE_GEMM.json` the bench binaries load at startup.
//!
//! The dense kernels historically hard-coded `KC = 128` and the pool
//! hard-coded a `< 32 rows` serial fallback; both constants remain the
//! defaults, but the *active* values now live here ([`blocking`],
//! [`crate::pool::par_min_rows`]) and can be replaced by an [`autotune`]
//! search keyed on (shape class, thread count, detected ISA).
//!
//! # Numerics
//!
//! Tuning never changes results. The dense kernel accumulates each output
//! element in `k`-panel order with four-row quads grouped as
//! `((a0·x0 + a1·x1) + a2·x2) + a3·x3`, so the only blocking parameter that
//! could move a rounding boundary is `KC` — and only if a block edge fell
//! inside a quad. [`Blocking::validate`] therefore requires `kc % 4 == 0`
//! (or 0 = unblocked): quad boundaries stay at the same absolute `k`
//! positions for every legal config. `MC` only reorders independent output
//! rows and `NC` only splits the elementwise column direction; neither
//! affects any accumulation order. The same reasoning makes the pool
//! threshold free: chunking is already bitwise thread-invariant.

use crate::gemm;
use crate::matrix::Matrix;
use crate::pool;
use crate::simd;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Environment variable naming an explicit tune-file path. Bench binaries
/// treat a file named here as authoritative: a thread-count or ISA mismatch
/// is a hard error rather than a silent mis-tune.
pub const TUNE_FILE_ENV: &str = "TENSOR_TUNE_FILE";

/// Default file name for a persisted config (committed at the workspace
/// root; bench binaries look there when [`TUNE_FILE_ENV`] is unset).
pub const TUNE_FILE_NAME: &str = "TUNE_GEMM.json";

/// Upper bound accepted for any blocking dimension or the pool threshold
/// when loading a config — far beyond useful, it only rejects corrupt files.
const MAX_TUNED_VALUE: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Blocking parameters
// ---------------------------------------------------------------------------

/// Cache-blocking parameters of the dense GEMM kernel. `0` means
/// "unblocked" in that dimension (use the full extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Output-row block (rows of `A`/`C` processed per `B`-panel pass).
    pub mc: usize,
    /// Inner-dimension panel depth; must be a multiple of 4 (see module
    /// docs) or 0.
    pub kc: usize,
    /// Output-column panel width.
    pub nc: usize,
}

impl Blocking {
    /// The pre-tuner constants: `KC = 128`, rows and columns unblocked.
    pub const DEFAULT: Blocking = Blocking {
        mc: 0,
        kc: 128,
        nc: 0,
    };

    /// Checks the numerics-preserving constraint (`kc % 4 == 0`) and sane
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(self) -> Result<(), String> {
        if self.kc % 4 != 0 {
            return Err(format!(
                "kc = {} is not a multiple of 4; a block edge inside a quad would change \
                 the accumulation grouping",
                self.kc
            ));
        }
        for (name, v) in [("mc", self.mc), ("kc", self.kc), ("nc", self.nc)] {
            if v > MAX_TUNED_VALUE {
                return Err(format!(
                    "{name} = {v} exceeds the sanity bound {MAX_TUNED_VALUE}"
                ));
            }
        }
        Ok(())
    }

    /// Normalises against a concrete shape: a block covering the whole
    /// extent is the same kernel as "unblocked", so it maps to 0. Used to
    /// dedupe search candidates.
    fn effective(self, m: usize, k: usize, n: usize) -> Blocking {
        let clamp = |v: usize, extent: usize| if v == 0 || v >= extent { 0 } else { v };
        Blocking {
            mc: clamp(self.mc, m),
            kc: clamp(self.kc, k),
            nc: clamp(self.nc, n),
        }
    }
}

// ---------------------------------------------------------------------------
// Shape classes
// ---------------------------------------------------------------------------

/// Coarse GEMM-size classes the tuner distinguishes (keyed on the
/// multiply-accumulate count `m·k·n`). Tuning per exact shape would
/// overfit the bench shapes; three classes capture the L1/L2/L3 regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// `m·k·n < 2²¹` — operands fit in L1/L2; blocking mostly overhead.
    Small = 0,
    /// `2²¹ ≤ m·k·n < 2²⁶` — the panel-reuse sweet spot.
    Medium = 1,
    /// `m·k·n ≥ 2²⁶` — streaming regime, blocking decides everything.
    Large = 2,
}

impl ShapeClass {
    /// All classes, in storage order.
    pub const ALL: [ShapeClass; 3] = [ShapeClass::Small, ShapeClass::Medium, ShapeClass::Large];

    /// Classifies a `(m × k) · (k × n)` product.
    pub fn of(m: usize, k: usize, n: usize) -> ShapeClass {
        let work = m.saturating_mul(k).saturating_mul(n);
        if work < 1 << 21 {
            ShapeClass::Small
        } else if work < 1 << 26 {
            ShapeClass::Medium
        } else {
            ShapeClass::Large
        }
    }

    /// Stable lowercase name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Small => "small",
            ShapeClass::Medium => "medium",
            ShapeClass::Large => "large",
        }
    }

    /// Representative shape the tuner times for this class.
    fn probe_shape(self) -> (usize, usize, usize) {
        match self {
            ShapeClass::Small => (48, 64, 64),     // 196_608 MACs
            ShapeClass::Medium => (128, 256, 256), // 2²³ MACs
            ShapeClass::Large => (256, 512, 512),  // 2²⁶ MACs
        }
    }
}

// ---------------------------------------------------------------------------
// Active (process-global) blocking state
// ---------------------------------------------------------------------------

struct AtomicBlocking {
    mc: AtomicUsize,
    kc: AtomicUsize,
    nc: AtomicUsize,
}

impl AtomicBlocking {
    const fn new(bl: Blocking) -> AtomicBlocking {
        AtomicBlocking {
            mc: AtomicUsize::new(bl.mc),
            kc: AtomicUsize::new(bl.kc),
            nc: AtomicUsize::new(bl.nc),
        }
    }

    fn load(&self) -> Blocking {
        Blocking {
            mc: self.mc.load(Ordering::Relaxed),
            kc: self.kc.load(Ordering::Relaxed),
            nc: self.nc.load(Ordering::Relaxed),
        }
    }

    fn store(&self, bl: Blocking) {
        self.mc.store(bl.mc, Ordering::Relaxed);
        self.kc.store(bl.kc, Ordering::Relaxed);
        self.nc.store(bl.nc, Ordering::Relaxed);
    }
}

static ACTIVE: [AtomicBlocking; 3] = [
    AtomicBlocking::new(Blocking::DEFAULT),
    AtomicBlocking::new(Blocking::DEFAULT),
    AtomicBlocking::new(Blocking::DEFAULT),
];

/// The blocking the dense kernel should use for a `(m × k) · (k × n)`
/// product under the currently applied config.
#[inline]
pub fn blocking(m: usize, k: usize, n: usize) -> Blocking {
    class_blocking(ShapeClass::of(m, k, n))
}

/// The active blocking of one shape class.
pub fn class_blocking(class: ShapeClass) -> Blocking {
    ACTIVE[class as usize].load()
}

/// Overrides the active blocking of one shape class (validated).
///
/// # Errors
///
/// Returns the [`Blocking::validate`] failure unchanged.
pub fn set_class_blocking(class: ShapeClass, bl: Blocking) -> Result<(), String> {
    bl.validate()?;
    ACTIVE[class as usize].store(bl);
    Ok(())
}

/// Restores the pre-tuner defaults: `KC = 128` everywhere and the pool's
/// `< 32 rows` serial fallback.
pub fn reset() {
    for slot in &ACTIVE {
        slot.store(Blocking::DEFAULT);
    }
    pool::set_par_min_rows(pool::PAR_MIN_ROWS);
}

// ---------------------------------------------------------------------------
// Persisted config
// ---------------------------------------------------------------------------

/// A complete tuning result: the environment it was measured in (ISA,
/// thread count) plus the winning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneConfig {
    /// [`simd::SimdLevel::name`] of the level active during the search.
    pub isa: String,
    /// Pool thread count the search ran at. Applying a config tuned for a
    /// different thread count silently mis-tunes, which is why the bench
    /// loaders check this field loudly.
    pub threads: usize,
    /// Tuned serial-fallback threshold for [`pool::run_row_chunks`].
    pub par_min_rows: usize,
    /// Winning blocking per shape class, indexed by `ShapeClass as usize`.
    pub classes: [Blocking; 3],
}

impl TuneConfig {
    /// Snapshot of the currently active parameters (useful for tests and
    /// for writing a default file).
    pub fn current() -> TuneConfig {
        TuneConfig {
            isa: simd::level().name().to_string(),
            threads: pool::threads(),
            par_min_rows: pool::par_min_rows(),
            classes: [
                class_blocking(ShapeClass::Small),
                class_blocking(ShapeClass::Medium),
                class_blocking(ShapeClass::Large),
            ],
        }
    }

    /// Validates every field (see [`Blocking::validate`] for the numerics
    /// constraint).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match simd::SimdLevel::parse(&self.isa) {
            Some(Some(_)) => {}
            _ => return Err(format!("unknown isa name {:?}", self.isa)),
        }
        if self.threads == 0 || self.threads > pool::MAX_THREADS {
            return Err(format!(
                "threads = {} outside 1..={}",
                self.threads,
                pool::MAX_THREADS
            ));
        }
        if self.par_min_rows == 0 || self.par_min_rows > MAX_TUNED_VALUE {
            return Err(format!(
                "par_min_rows = {} outside 1..={MAX_TUNED_VALUE}",
                self.par_min_rows
            ));
        }
        for (class, bl) in ShapeClass::ALL.iter().zip(self.classes) {
            bl.validate()
                .map_err(|e| format!("class {:?}: {e}", class.name()))?;
        }
        Ok(())
    }

    /// Installs this config as the process-global active parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`TuneConfig::validate`] failure unchanged; on error
    /// nothing is applied.
    pub fn apply(&self) -> Result<(), String> {
        self.validate()?;
        for (class, bl) in ShapeClass::ALL.iter().zip(self.classes) {
            ACTIVE[*class as usize].store(bl);
        }
        pool::set_par_min_rows(self.par_min_rows);
        Ok(())
    }

    /// Serialises to the `TUNE_GEMM.json` format.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"isa\": \"{}\",\n", self.isa));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"par_min_rows\": {},\n", self.par_min_rows));
        s.push_str("  \"classes\": {\n");
        for (idx, class) in ShapeClass::ALL.iter().enumerate() {
            let bl = self.classes[idx];
            let comma = if idx + 1 < ShapeClass::ALL.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    \"{}\": {{ \"mc\": {}, \"kc\": {}, \"nc\": {} }}{comma}\n",
                class.name(),
                bl.mc,
                bl.kc,
                bl.nc
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Parses (and validates) the `TUNE_GEMM.json` format. The parser is a
    /// keyword scanner over the fixed schema written by [`Self::to_json`] —
    /// the workspace has no JSON dependency, and validation rejects
    /// anything structurally off.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing key or violated constraint.
    pub fn parse(json: &str) -> Result<TuneConfig, String> {
        let isa = string_field(json, "isa").ok_or("missing or malformed \"isa\"")?;
        let threads = usize_field(json, "threads").ok_or("missing or malformed \"threads\"")?;
        let par_min_rows =
            usize_field(json, "par_min_rows").ok_or("missing or malformed \"par_min_rows\"")?;
        let mut classes = [Blocking::DEFAULT; 3];
        for class in ShapeClass::ALL {
            let obj = object_field(json, class.name())
                .ok_or_else(|| format!("missing or malformed class {:?}", class.name()))?;
            let get = |key: &str| {
                usize_field(obj, key)
                    .ok_or_else(|| format!("class {:?}: missing {key}", class.name()))
            };
            classes[class as usize] = Blocking {
                mc: get("mc")?,
                kc: get("kc")?,
                nc: get("nc")?,
            };
        }
        let config = TuneConfig {
            isa,
            threads,
            par_min_rows,
            classes,
        };
        config.validate()?;
        Ok(config)
    }

    /// Writes the config to `path` in the `TUNE_GEMM.json` format.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a config from `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a string.
    pub fn load(path: &Path) -> Result<TuneConfig, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        TuneConfig::parse(&json).map_err(|e| format!("parsing {}: {e}", path.display()))
    }
}

/// Positions just past `"key"` + optional whitespace + `:` + whitespace.
fn after_key<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    Some(rest.strip_prefix(':')?.trim_start())
}

fn usize_field(json: &str, key: &str) -> Option<usize> {
    let rest = after_key(json, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn string_field(json: &str, key: &str) -> Option<String> {
    let rest = after_key(json, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The body of the flat `{ ... }` object following `"key"` (the per-class
/// objects never nest).
fn object_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(json, key)?.strip_prefix('{')?;
    Some(&rest[..rest.find('}')?])
}

// ---------------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------------

/// Deterministic non-trivial fill for timing workloads (xorshift-free LCG;
/// values in roughly `[-1, 1]`).
fn fill_workload(m: &mut Matrix, seed: u64) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for v in m.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 33) as u32 % 2001) as f32 / 1000.0 - 1.0;
    }
}

/// Best-of-`reps` wall time of `f` in seconds.
fn best_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times each candidate blocking on a `(m × k) · (k × n)` probe GEMM
/// (through the real pool-parallel kernel path) and returns the fastest.
/// Duplicate candidates (after normalising against the shape) are timed
/// once. Does not touch the global blocking state.
fn search_shape(m: usize, k: usize, n: usize, candidates: &[Blocking], reps: usize) -> Blocking {
    let mut a = Matrix::zeros(m, k);
    let mut b = Matrix::zeros(k, n);
    fill_workload(&mut a, 0x5EED_0001);
    fill_workload(&mut b, 0x5EED_0002);
    let mut out = Matrix::zeros(m, n);

    let mut seen: Vec<Blocking> = Vec::new();
    let mut best = (f64::INFINITY, Blocking::DEFAULT);
    for &candidate in candidates {
        if candidate.validate().is_err() {
            continue;
        }
        let effective = candidate.effective(m, k, n);
        if seen.contains(&effective) {
            continue;
        }
        seen.push(effective);
        // Warm caches and the pool once per candidate before timing.
        gemm::blocked_gemm_tuned_into(&a, &b, &mut out, effective)
            .expect("probe shapes are always conformable");
        let t = best_time(reps, || {
            gemm::blocked_gemm_tuned_into(&a, &b, &mut out, effective)
                .expect("probe shapes are always conformable");
        });
        if t < best.0 {
            best = (t, effective);
        }
    }
    best.1
}

/// The KC/NC/MC grid searched per shape class. Kept deliberately coarse —
/// the win is picking the right regime, not the last 2%.
fn candidate_grid() -> Vec<Blocking> {
    let mut grid = Vec::new();
    for &kc in &[64usize, 128, 256, 0] {
        for &nc in &[0usize, 128, 256] {
            for &mc in &[0usize, 32, 128] {
                grid.push(Blocking { mc, kc, nc });
            }
        }
    }
    grid
}

/// Sweeps the pool's serial-fallback threshold over small-batch GEMMs.
/// Only meaningful with a multi-worker pool; at one thread the threshold
/// is never consulted and the default is returned unchanged.
fn search_par_min_rows(reps: usize) -> usize {
    if pool::threads() <= 1 {
        return pool::par_min_rows();
    }
    let (k, n) = (256, 256);
    let mut b = Matrix::zeros(k, n);
    fill_workload(&mut b, 0x5EED_0003);
    let batches: Vec<Matrix> = [8usize, 16, 32, 64]
        .iter()
        .map(|&m| {
            let mut a = Matrix::zeros(m, k);
            fill_workload(&mut a, 0x5EED_0004 + m as u64);
            a
        })
        .collect();
    let mut out = Matrix::zeros(0, 0);

    let previous = pool::par_min_rows();
    let mut best = (f64::INFINITY, previous);
    for &threshold in &[8usize, 16, 32, 64, 128] {
        pool::set_par_min_rows(threshold);
        let t = best_time(reps, || {
            for a in &batches {
                gemm::blocked_gemm_into(a, &b, &mut out)
                    .expect("probe shapes are always conformable");
            }
        });
        if t < best.0 {
            best = (t, threshold);
        }
    }
    pool::set_par_min_rows(previous);
    best.1
}

/// Runs the full search at the **current** pool thread count and active
/// SIMD level and returns the winning config (not yet applied — call
/// [`TuneConfig::apply`] to install it, [`TuneConfig::save`] to persist).
///
/// The search times the real kernel path, so it takes a few seconds; bench
/// binaries expose it behind `--tune`.
pub fn autotune() -> TuneConfig {
    let grid = candidate_grid();
    let mut classes = [Blocking::DEFAULT; 3];
    for class in ShapeClass::ALL {
        let (m, k, n) = class.probe_shape();
        // Smaller probes are noisier: give them more repetitions.
        let reps = match class {
            ShapeClass::Small => 9,
            ShapeClass::Medium => 5,
            ShapeClass::Large => 3,
        };
        classes[class as usize] = search_shape(m, k, n, &grid, reps);
    }
    TuneConfig {
        isa: simd::level().name().to_string(),
        threads: pool::threads(),
        par_min_rows: search_par_min_rows(5),
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classes_split_at_the_documented_boundaries() {
        assert_eq!(ShapeClass::of(48, 64, 64), ShapeClass::Small);
        assert_eq!(ShapeClass::of(128, 128, 128), ShapeClass::Medium); // 2²¹
        assert_eq!(ShapeClass::of(128, 256, 256), ShapeClass::Medium);
        assert_eq!(ShapeClass::of(256, 512, 512), ShapeClass::Large); // 2²⁶
        assert_eq!(ShapeClass::of(usize::MAX, 2, 2), ShapeClass::Large);
    }

    #[test]
    fn validate_rejects_quad_splitting_kc() {
        assert!(Blocking {
            mc: 0,
            kc: 126,
            nc: 0
        }
        .validate()
        .is_err());
        assert!(Blocking {
            mc: 0,
            kc: 128,
            nc: 0
        }
        .validate()
        .is_ok());
        assert!(Blocking {
            mc: 0,
            kc: 0,
            nc: 0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let config = TuneConfig {
            isa: "avx2".to_string(),
            threads: 4,
            par_min_rows: 16,
            classes: [
                Blocking {
                    mc: 0,
                    kc: 64,
                    nc: 0,
                },
                Blocking {
                    mc: 32,
                    kc: 128,
                    nc: 256,
                },
                Blocking {
                    mc: 128,
                    kc: 256,
                    nc: 128,
                },
            ],
        };
        let parsed = TuneConfig::parse(&config.to_json()).expect("roundtrip parse");
        assert_eq!(parsed, config);
    }

    #[test]
    fn parse_rejects_corrupt_configs() {
        let good = TuneConfig::current().to_json();
        assert!(TuneConfig::parse(&good).is_ok());
        assert!(TuneConfig::parse("").is_err());
        assert!(TuneConfig::parse(&good.replace("\"threads\"", "\"t\"")).is_err());
        assert!(TuneConfig::parse(&good.replace("\"kc\": 128", "\"kc\": 126")).is_err());
        assert!(TuneConfig::parse(&good.replace(
            &format!("\"isa\": \"{}\"", simd::level().name()),
            "\"isa\": \"mmx\""
        ))
        .is_err());
    }

    #[test]
    fn apply_installs_and_reset_restores() {
        let mut config = TuneConfig::current();
        config.classes[ShapeClass::Medium as usize] = Blocking {
            mc: 32,
            kc: 64,
            nc: 128,
        };
        config.par_min_rows = 48;
        config.apply().expect("valid config applies");
        assert_eq!(
            class_blocking(ShapeClass::Medium),
            Blocking {
                mc: 32,
                kc: 64,
                nc: 128
            }
        );
        assert_eq!(pool::par_min_rows(), 48);
        reset();
        assert_eq!(class_blocking(ShapeClass::Medium), Blocking::DEFAULT);
        assert_eq!(pool::par_min_rows(), pool::PAR_MIN_ROWS);
    }

    #[test]
    fn search_returns_a_candidate_and_leaves_globals_alone() {
        let before = TuneConfig::current();
        let candidates = [
            Blocking::DEFAULT,
            Blocking {
                mc: 0,
                kc: 64,
                nc: 0,
            },
        ];
        let winner = search_shape(8, 16, 16, &candidates, 1);
        assert!(winner.validate().is_ok());
        assert_eq!(
            TuneConfig::current(),
            before,
            "search must not mutate globals"
        );
    }

    #[test]
    fn tuned_blockings_produce_bitwise_identical_products() {
        // The numerics argument in the module docs, checked empirically:
        // every legal blocking yields the same bits. The shape is larger
        // than every non-zero candidate block (mc ≤ 128, kc ≤ 256,
        // nc ≤ 256), so each candidate really splits the product.
        let mut a = Matrix::zeros(130, 300);
        let mut b = Matrix::zeros(300, 290);
        fill_workload(&mut a, 1);
        fill_workload(&mut b, 2);
        let mut reference = Matrix::zeros(0, 0);
        gemm::blocked_gemm_tuned_into(&a, &b, &mut reference, Blocking::DEFAULT)
            .expect("conformable");
        for bl in candidate_grid() {
            let mut out = Matrix::zeros(0, 0);
            gemm::blocked_gemm_tuned_into(&a, &b, &mut out, bl).expect("conformable");
            assert_eq!(out.as_slice(), reference.as_slice(), "blocking {bl:?}");
        }
    }
}
