//! Layer-level references for `mlp_train`, measured in its traced run:
//!
//! * the recorded plans replayed through one `Linear` at the hidden shape
//!   (`nn.linear.*`), with achieved GFLOP/s computed as the operations the
//!   plan's kernel schedule executes over the measured time;
//! * roofline references: an FMA-peak loop and the dense fused-forward,
//!   `dX` and `dW` kernels at the three `mlp_train` GEMM shapes
//!   (`tensor.*`);
//! * the same recorded plans priced on the gpu-sim device model
//!   (`gpu_sim.*`), so the modelled speedup sits beside the measured one.

use crate::metrics::speedup_families;
use crate::trace::{mean, median, Tracer};
use crate::training::{MLP_BATCH, MLP_HIDDEN, MLP_INPUT};
use crate::{sub_seed, Outcome};
use approx_dropout::DropoutPlan;
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{Linear, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tensor::{init, Activation, Matrix, SimdLevel};

/// Recorded plan sets of one `mlp_train` model: one `Vec` per step, one
/// plan per hidden layer.
pub type FamilyPlans = (&'static str, Vec<Vec<DropoutPlan>>);

/// Recorded plan sets per family that are priced and replayed.
pub const REPLAYED_STEPS: usize = 8;

/// Timing repetitions per dense GEMM shape.
const GEMM_REPS: usize = 7;

/// Prices every recorded plan set on the GTX 1080 Ti preset with fused
/// forward layers, as the CPU runs them.
pub fn gpu_sim(by_family: &[FamilyPlans], tr: &mut Tracer, out: &mut Outcome) {
    let model = NetworkTimingModel::mlp(
        GpuConfig::gtx_1080ti(),
        MlpSpec {
            batch: MLP_BATCH,
            input_dim: MLP_INPUT,
            hidden: vec![MLP_HIDDEN, MLP_HIDDEN],
            output_dim: 10,
        },
    )
    .with_fusion(true);
    for (family, sets) in by_family {
        let modelled: Vec<f64> = sets
            .iter()
            .map(|set| {
                let span = tr.begin("gpu_sim.price", family, 0);
                let us = model.iteration_time_from_plans(set).total_us();
                tr.end(span);
                us
            })
            .collect();
        out.set(format!("gpu_sim.step_us.{family}"), mean(&modelled));
    }
    let base = out.values["gpu_sim.step_us.bernoulli"];
    for family in speedup_families() {
        let step = out.values[&format!("gpu_sim.step_us.{family}")];
        out.set(format!("gpu_sim.speedup.{family}"), base / step);
    }
    out.set(
        "gpu_sim.price_us",
        mean(&tr.durations_us("gpu_sim.price", None)),
    );
}

/// Replays the recorded second-hidden-layer plans through a `Linear` of
/// the hidden shape, and measures the roofline references.
pub fn layers(by_family: &[FamilyPlans], seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let threads = tensor::pool::threads();
    out.set("tensor.fma_peak_gflops", fma_peak_gflops(threads));
    dense_gemms(seed, out);

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 300));
    let input = init::uniform(&mut rng, MLP_BATCH, MLP_HIDDEN, 0.0, 1.0);
    let grad = init::uniform(&mut rng, MLP_BATCH, MLP_HIDDEN, -1.0, 1.0);
    let sgd = Sgd::new(0.01, 0.9);
    let dense_flops = 2.0 * (MLP_BATCH * MLP_HIDDEN * MLP_HIDDEN) as f64;
    for (family, sets) in by_family {
        let mut layer = Linear::new(&mut rng, MLP_HIDDEN, MLP_HIDDEN);
        let (mut act, mut dx) = (Matrix::default(), Matrix::default());
        // One untraced pass sizes the layer's workspaces.
        layer.forward_act_into(&input, &sets[0][1], Activation::Relu, &mut act);
        layer.backward_into(&grad, &mut dx);
        for (step, set) in sets.iter().enumerate() {
            let plan = &set[1];
            let span = tr.begin("nn.linear.fwd", family, step as u64);
            layer.forward_act_into(&input, plan, Activation::Relu, &mut act);
            tr.end(span);
            let span = tr.begin("nn.linear.bwd", family, step as u64);
            layer.backward_into(&grad, &mut dx);
            tr.end(span);
            let span = tr.begin("nn.linear.opt", family, step as u64);
            layer.step(&sgd);
            tr.end(span);
            black_box((&act, &dx));
        }
        let fwd_us = tr.durations_us("nn.linear.fwd", Some(family));
        let bwd_us = tr.durations_us("nn.linear.bwd", Some(family));
        // Computed operations: the dense count scaled by the fraction of it
        // each plan's kernel schedule executes.
        let flops: f64 = sets
            .iter()
            .map(|set| dense_flops * set[1].kernel_schedule().kept_fraction())
            .sum();
        let total_s = |us: &[f64]| us.iter().sum::<f64>() / 1e6;
        out.set(format!("nn.linear.fwd_us.{family}"), median(&fwd_us));
        out.set(format!("nn.linear.bwd_us.{family}"), median(&bwd_us));
        out.set(
            format!("nn.linear.fwd_gflops.{family}"),
            flops / total_s(&fwd_us) / 1e9,
        );
        out.set(
            format!("nn.linear.bwd_gflops.{family}"),
            2.0 * flops / total_s(&bwd_us) / 1e9,
        );
    }
    out.set(
        "nn.linear.opt_us",
        median(&tr.durations_us("nn.linear.opt", None)),
    );
}

/// Dense fused forward (`act(X·W + b)`), `dX = G·Wᵀ` and `dW = Xᵀ·G` at the
/// three `mlp_train` layer shapes; GFLOP/s over the three shapes together.
fn dense_gemms(seed: u64, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 301));
    let shapes = [
        (MLP_INPUT, MLP_HIDDEN),
        (MLP_HIDDEN, MLP_HIDDEN),
        (MLP_HIDDEN, 10),
    ];
    let mut secs = [0.0f64; 3];
    let mut flops = 0.0;
    for (k, n) in shapes {
        let x = init::uniform(&mut rng, MLP_BATCH, k, 0.0, 1.0);
        let w = init::uniform(&mut rng, k, n, -0.1, 0.1);
        let bias = init::uniform(&mut rng, 1, n, -0.1, 0.1);
        let g = init::uniform(&mut rng, MLP_BATCH, n, -1.0, 1.0);
        let mut c = Matrix::default();
        secs[0] += time_median(|| {
            tensor::gemm_bias_act_into(&x, &w, &bias, Activation::Relu, &mut c)
                .expect("shapes match")
        });
        secs[1] += time_median(|| tensor::gemm_a_bt_into(&g, &w, &mut c).expect("shapes match"));
        secs[2] += time_median(|| tensor::gemm_at_b_into(&x, &g, &mut c).expect("shapes match"));
        flops += 2.0 * (MLP_BATCH * k * n) as f64;
    }
    for (kind, s) in ["fwd", "dx", "dw"].iter().zip(secs) {
        out.set(format!("tensor.dense_gflops.{kind}"), flops / s / 1e9);
    }
}

/// Median seconds of [`GEMM_REPS`] timed calls after one warm-up call.
fn time_median(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..GEMM_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Independent FMA chains per thread: enough to cover the FMA latency on
/// two ports.
const CHAINS: usize = 12;
const FMA_ITERS: u64 = 20_000_000;

/// Register-resident multiply-add throughput of `threads` threads at the
/// SIMD level the kernels dispatch to, in GFLOP/s (one FMA = 2 FLOP).
fn fma_peak_gflops(threads: usize) -> f64 {
    let level = tensor::simd::level();
    let lanes = fma_lanes(level);
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || black_box(fma_loop(level, black_box(FMA_ITERS))));
        }
    });
    let secs = started.elapsed().as_secs_f64();
    (threads as u64 * FMA_ITERS * (CHAINS * lanes * 2) as u64) as f64 / secs / 1e9
}

fn fma_lanes(level: SimdLevel) -> usize {
    match level {
        SimdLevel::Avx512 => 16,
        SimdLevel::Avx2 => 8,
        SimdLevel::Scalar | SimdLevel::Neon => 1,
    }
}

fn fma_loop(level: SimdLevel, iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if level == SimdLevel::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F (checked just above).
            return unsafe { x86::fma_avx512(iters) };
        }
        if level == SimdLevel::Avx2
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU supports AVX2 and FMA (checked just above).
            return unsafe { x86::fma_avx2(iters) };
        }
    }
    let _ = level;
    let mut acc = [1.0f32; CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = black_box(*a) * 0.999_999 + 1e-7;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) -> f32 {
        let a = _mm512_set1_ps(0.999_999);
        let b = _mm512_set1_ps(1e-7);
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for r in acc.iter_mut() {
                *r = _mm512_fmadd_ps(*r, a, b);
            }
        }
        let mut sum = _mm512_setzero_ps();
        for r in acc {
            sum = _mm512_add_ps(sum, r);
        }
        _mm512_reduce_add_ps(sum)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) -> f32 {
        let a = _mm256_set1_ps(0.999_999);
        let b = _mm256_set1_ps(1e-7);
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for r in acc.iter_mut() {
                *r = _mm256_fmadd_ps(*r, a, b);
            }
        }
        let mut lanes = [0.0f32; 8];
        let mut sum = _mm256_setzero_ps();
        for r in acc {
            sum = _mm256_add_ps(sum, r);
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
        lanes.iter().sum()
    }
}
