//! SIMD-vs-scalar parity for the runtime-dispatched GEMM tiles and epilogues.
//!
//! The `tensor::simd` contract is that switching the dispatch level never
//! changes ReLU/Identity results by a single bit: every vector kernel
//! replicates the scalar accumulation order exactly (mul-then-add, no FMA,
//! the 8-lane `dot` reduction preserved). These tests pin that contract
//! through the public API — the register tiles on single ragged rows, the
//! dense/transposed GEMMs over a grid of tile-edge shapes at every
//! supported level, and every compacted kernel family via
//! `Linear::forward_act_into`, at serial and parallel pool widths — and
//! bound the documented polynomial tolerance of the sigmoid/tanh epilogues
//! against libm. A dispatch test asserts the detected ISA is actually what
//! gets selected.
//!
//! The SIMD level is process-global state, so every test here serialises
//! on one mutex and restores the entry level before returning.

use approx_dropout::{scheme, Activation, DropoutRate, DropoutScheme};
use nn::{DropoutPlan, LayerShape, Linear, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use tensor::{blocked_gemm, gemm_a_bt, gemm_at_b, init, pool, simd, Matrix, SimdLevel};

/// Serialises tests that rebind the process-global SIMD level.
fn level_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One plan per schedule family (dense, bernoulli-masked, gather, row,
/// tile, N:M, block, CRS, row×CRS), resolved against a `(in, out)` layer.
/// Odd widths exercise the ragged vector tails of every kernel.
fn family_plans(in_features: usize, out_features: usize) -> Vec<(&'static str, DropoutPlan)> {
    let shape = LayerShape::new(in_features, out_features);
    let mut plans = Vec::new();
    plans.push(("none", DropoutPlan::none(shape)));
    let mut bernoulli = scheme::bernoulli(DropoutRate::new(0.5).unwrap());
    plans.push((
        "bernoulli",
        bernoulli.plan(&mut StdRng::seed_from_u64(5), shape),
    ));
    let mut divergent = scheme::divergent_bernoulli(DropoutRate::new(0.5).unwrap());
    plans.push((
        "divergent",
        divergent.plan(&mut StdRng::seed_from_u64(6), shape),
    ));
    let mut row = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
    plans.push(("row", row.plan(&mut StdRng::seed_from_u64(7), shape)));
    let mut tile = scheme::tile(DropoutRate::new(0.5).unwrap(), 8, 16).unwrap();
    plans.push(("tile", tile.plan(&mut StdRng::seed_from_u64(8), shape)));
    let mut nm = scheme::nm(2, 4).unwrap();
    plans.push(("nm", nm.plan(&mut StdRng::seed_from_u64(9), shape)));
    let mut block = scheme::block_unit(DropoutRate::new(0.5).unwrap(), 16).unwrap();
    plans.push(("block", block.plan(&mut StdRng::seed_from_u64(10), shape)));
    let mut crs = scheme::crs(0.5).unwrap();
    plans.push(("crs", crs.plan(&mut StdRng::seed_from_u64(11), shape)));
    let mut row_crs = scheme::row_crs(DropoutRate::new(0.5).unwrap(), 8, 0.5).unwrap();
    plans.push((
        "row_crs",
        row_crs.plan(&mut StdRng::seed_from_u64(12), shape),
    ));
    plans
}

fn workload(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    init::uniform(rng, rows, cols, -1.0, 1.0)
}

#[test]
fn runtime_dispatch_selects_the_detected_isa() {
    let _g = level_guard();
    let entry = simd::level();
    let detected = simd::detected_level();
    // On x86-64 the detector must report what the CPU actually has; a CPU
    // with AVX2 silently landing on the scalar path would be the exact
    // regression this test exists to catch.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_ne!(
            detected,
            SimdLevel::Scalar,
            "AVX2 is available but detection chose the scalar path"
        );
    }
    #[cfg(target_arch = "aarch64")]
    assert_eq!(detected, SimdLevel::Neon, "NEON is baseline on aarch64");
    // Selecting the detected level is honoured verbatim…
    assert_eq!(simd::set_level(detected), detected);
    assert_eq!(simd::level(), detected);
    // …and the mandatory scalar fallback is always selectable.
    assert_eq!(simd::set_level(SimdLevel::Scalar), SimdLevel::Scalar);
    assert_eq!(simd::level(), SimdLevel::Scalar);
    simd::set_level(entry);
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
    .filter(|&l| simd::clamp_to_detected(l) == l)
    .collect()
}

/// `C = A·B` the documented way, one element at a time: from `+0.0`, each
/// quad of `p` added as `c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)`, then each
/// leftover term as `c + a·b`.
fn quad_order_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let k = a.cols();
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let term = |p: usize| a[(i, p)] * b[(p, j)];
        let mut c = 0.0f32;
        let mut p = 0;
        while p + 4 <= k {
            c += ((term(p) + term(p + 1)) + term(p + 2)) + term(p + 3);
            p += 4;
        }
        for p in p..k {
            c += term(p);
        }
        c
    })
}

/// `C = A·Bᵀ` the documented `dot` way: eight lane sums over the 8-wide
/// chunks of `k`, added in lane order onto `+0.0`, then the leftover terms.
fn dot_order_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let k = a.cols();
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let (x, y) = (a.row(i), b.row(j));
        let mut lanes = [0.0f32; 8];
        for p in 0..k / 8 * 8 {
            lanes[p % 8] += x[p] * y[p];
        }
        let mut sum = 0.0f32;
        for lane in lanes {
            sum += lane;
        }
        for p in k / 8 * 8..k {
            sum += x[p] * y[p];
        }
        sum
    })
}

#[test]
fn micro_kernels_match_scalar_bitwise_at_ragged_lengths() {
    // The tile arithmetic on single rows 31 wide: three 8-lane registers
    // (one 16-lane register and a partial one on AVX-512) plus a 7-wide
    // tail, in each of the three tile kinds.
    let _g = level_guard();
    let entry = simd::level();
    pool::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x51D0);
    let x = workload(&mut rng, 1, 31);
    let y = workload(&mut rng, 1, 31);
    // One quad of k and one leftover term.
    let alpha = Matrix::from_rows(&[&[0.1, -0.2, 0.3, -0.4, 0.37]]);
    let panel = workload(&mut rng, 5, 31);
    let expected_axpy = quad_order_reference(&alpha, &panel);
    let expected_dot = dot_order_reference(&x, &y);
    for level in supported_levels() {
        simd::set_level(level);
        let axpy = blocked_gemm(&alpha, &panel).unwrap();
        let axpy_t = gemm_at_b(&alpha.transpose(), &panel).unwrap();
        let dot = gemm_a_bt(&x, &y).unwrap();
        simd::set_level(entry);
        assert_eq!(axpy, expected_axpy, "A·B tile at {level:?}");
        assert_eq!(axpy_t, expected_axpy, "Aᵀ·B tile at {level:?}");
        assert_eq!(
            dot[(0, 0)].to_bits(),
            expected_dot[(0, 0)].to_bits(),
            "A·Bᵀ tile must reproduce the 8-lane reduction order at {level:?}"
        );
    }
}

#[test]
fn dense_and_transposed_gemms_match_scalar_bitwise() {
    let _g = level_guard();
    let entry = simd::level();
    let mut rng = StdRng::seed_from_u64(0x51D1);
    // (m, k, n): m and n across the 4-row tiles, the 8/16-lane registers
    // and the 16/32-column tiles; k below 4, off multiples of 4 and 8, and
    // across the default KC = 128; m ≥ 32 so the pool really splits rows.
    let shapes = [
        (1, 1, 1),
        (3, 2, 7),
        (5, 3, 9),
        (4, 4, 16),
        (13, 37, 29),
        (7, 12, 33),
        (9, 130, 17),
        (2, 259, 47),
        (6, 8, 64),
        (40, 29, 31),
        (37, 131, 65),
    ];
    for (m, k, n) in shapes {
        let a = workload(&mut rng, m, k);
        let b = workload(&mut rng, k, n);
        let (a_t, b_t) = (a.transpose(), b.transpose());
        pool::set_threads(1);
        simd::set_level(SimdLevel::Scalar);
        let dense_scalar = blocked_gemm(&a, &b).unwrap();
        let at_b_scalar = gemm_at_b(&a_t, &b).unwrap();
        let a_bt_scalar = gemm_a_bt(&a, &b_t).unwrap();
        for threads in [1, 2] {
            pool::set_threads(threads);
            for level in supported_levels() {
                simd::set_level(level);
                let dense = blocked_gemm(&a, &b).unwrap();
                let at_b = gemm_at_b(&a_t, &b).unwrap();
                let a_bt = gemm_a_bt(&a, &b_t).unwrap();
                simd::set_level(entry);
                let at = format!("{m}x{k}x{n} at {level:?} on {threads} thread(s)");
                assert_eq!(dense, dense_scalar, "dense GEMM {at}");
                assert_eq!(at_b, at_b_scalar, "AᵀB GEMM {at}");
                assert_eq!(a_bt, a_bt_scalar, "ABᵀ GEMM {at}");
            }
        }
    }
    pool::set_threads(1);
    // The scalar level is tiled too, so it is checked against the
    // documented per-element order directly, on one ragged shape whose k
    // crosses the default KC = 128.
    let a = workload(&mut rng, 5, 133);
    let b = workload(&mut rng, 133, 29);
    let quad = quad_order_reference(&a, &b);
    let dot = dot_order_reference(&a, &b.transpose());
    simd::set_level(SimdLevel::Scalar);
    let dense = blocked_gemm(&a, &b).unwrap();
    let at_b = gemm_at_b(&a.transpose(), &b).unwrap();
    let a_bt = gemm_a_bt(&a, &b.transpose()).unwrap();
    simd::set_level(entry);
    assert_eq!(
        dense, quad,
        "scalar dense GEMM against the documented order"
    );
    assert_eq!(at_b, quad, "scalar AᵀB GEMM against the documented order");
    assert_eq!(a_bt, dot, "scalar ABᵀ GEMM against the documented order");
}

#[test]
fn all_kernel_families_match_scalar_bitwise_at_one_and_four_threads() {
    let _g = level_guard();
    let entry = simd::level();
    let mut rng = StdRng::seed_from_u64(0x51D2);
    // Batch above the pool's serial-fallback threshold so the 4-thread
    // pass really runs parallel.
    let x = workload(&mut rng, 40, 29);
    let mut layer = Linear::new(&mut rng, 29, 48);
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        for (label, plan) in family_plans(29, 48) {
            // Identity and ReLU epilogues are scalar-exact at every level;
            // the transcendental epilogues are covered by the ULP test.
            for act in [Activation::Identity, Activation::Relu] {
                simd::set_level(SimdLevel::Scalar);
                let mut scalar = Matrix::default();
                layer.forward_act_into(&x, &plan, act, &mut scalar);
                simd::set_level(simd::detected_level());
                let mut vector = Matrix::default();
                layer.forward_act_into(&x, &plan, act, &mut vector);
                assert_eq!(
                    scalar,
                    vector,
                    "{label}/{act:?} at {threads} thread(s) must be bitwise \
                     identical between scalar and {:?}",
                    simd::detected_level()
                );
            }
        }
    }
    pool::set_threads(1);
    simd::set_level(entry);
}

/// Same-seed transformer training losses plus a deterministic eval loss,
/// as bit patterns.
fn transformer_trajectory(attn: &dyn DropoutScheme, ffn: &dyn DropoutScheme) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0x51D5);
    let config = TransformerLmConfig {
        vocab: 40,
        model_dim: 16,
        heads: 4,
        ff_dim: 32,
        layers: 2,
        attn_dropout: attn.clone_box(),
        ffn_dropout: ffn.clone_box(),
        learning_rate: 0.05,
        momentum: 0.0,
        grad_clip: 5.0,
    };
    let mut lm = TransformerLm::new(&config, &mut rng);
    let batch: Vec<Vec<usize>> = (0..8)
        .map(|s| (0..9).map(|t| (s * 5 + t * 11) % 40).collect())
        .collect();
    let mut bits: Vec<u32> = (0..5)
        .map(|_| lm.train_batch(&batch, &mut rng).loss.to_bits())
        .collect();
    bits.push(lm.evaluate(&batch).loss.to_bits());
    bits
}

#[test]
fn transformer_attention_matches_scalar_bitwise_for_every_structured_path() {
    // The attention forward/backward pipeline is built entirely from the
    // level-invariant kernels (GEMMs, block-compacted GEMMs, gathers) plus
    // scalar softmax/cross-entropy, so whole training trajectories — head
    // drop, 2:4 projections, FFN row dropout — must not move by a bit when
    // the dispatch level changes.
    let _g = level_guard();
    let entry = simd::level();
    pool::set_threads(1);
    let rate = DropoutRate::new(0.5).unwrap();
    #[allow(clippy::type_complexity)]
    let variants: Vec<(&str, Box<dyn DropoutScheme>, Box<dyn DropoutScheme>)> = vec![
        (
            "head_drop",
            scheme::block_unit(rate, 4).unwrap(),
            scheme::none(),
        ),
        ("nm_proj", scheme::nm(2, 4).unwrap(), scheme::none()),
        ("ffn_row", scheme::none(), scheme::row(rate, 8).unwrap()),
    ];
    for (label, attn, ffn) in &variants {
        simd::set_level(SimdLevel::Scalar);
        let scalar = transformer_trajectory(&**attn, &**ffn);
        simd::set_level(simd::detected_level());
        let vector = transformer_trajectory(&**attn, &**ffn);
        assert_eq!(
            scalar,
            vector,
            "transformer {label} must be bitwise identical between scalar and {:?}",
            simd::detected_level()
        );
    }
    simd::set_level(entry);
}

/// ULP distance between two finite floats (sign-aware, 0 for ±0.0 pairs).
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        let mapped = if bits < 0 { i32::MIN - bits } else { bits };
        i64::from(mapped)
    }
    ordered(a).abs_diff(ordered(b))
}

#[test]
fn sigmoid_and_tanh_epilogues_stay_within_documented_ulp_of_libm() {
    let _g = level_guard();
    let entry = simd::level();
    pool::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x51D3);
    let x = workload(&mut rng, 24, 33);
    let mut layer = Linear::new(&mut rng, 33, 47);
    let plan = DropoutPlan::none(LayerShape::new(33, 47));
    // Evaluate at the *detected* level: the polynomial forms are what the
    // vector epilogues run. (At scalar the std formulas are used and the
    // distance is identically zero.)
    simd::set_level(simd::detected_level());
    let mut pre = Matrix::default();
    layer.forward_act_into(&x, &plan, Activation::Identity, &mut pre);
    for (act, bound) in [(Activation::Sigmoid, 16u64), (Activation::Tanh, 32u64)] {
        let mut out = Matrix::default();
        layer.forward_act_into(&x, &plan, act, &mut out);
        for (&p, &o) in pre.as_slice().iter().zip(out.as_slice()) {
            let reference = match act {
                Activation::Sigmoid => 1.0 / (1.0 + (-p).exp()),
                Activation::Tanh => p.tanh(),
                _ => unreachable!(),
            };
            let ulp = ulp_distance(o, reference);
            assert!(
                ulp <= bound || (o - reference).abs() <= 1e-6,
                "{act:?}({p}) = {o} is {ulp} ULP from libm's {reference} (bound {bound})"
            );
        }
    }
    simd::set_level(entry);
}
