//! CPU counterpart of Fig. 1(b): skipping dropped neurons with a per-element
//! branch inside the dense GEMM loop does not pay off, while the compacted
//! GEMM does. (On the GPU the branch is even worse because of warp
//! divergence; here it merely fails to remove the memory traffic.)

use approx_dropout::RowPattern;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{gemm, init, Matrix, SelectScratch};

const BATCH: usize = 32;
const DIM: usize = 256;

/// Dense GEMM with an `if kept[j]` branch in the inner loop — the naive
/// skipping approach of Fig. 1(b).
fn branchy_gemm(x: &Matrix, w: &Matrix, kept: &[bool]) -> Matrix {
    let (m, k) = x.shape();
    let n = w.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let xip = x[(i, p)];
            for j in 0..n {
                if kept[j] {
                    c[(i, j)] += xip * w[(p, j)];
                }
            }
        }
    }
    c
}

fn bench_divergence(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let x = init::uniform(&mut rng, BATCH, DIM, -1.0, 1.0);
    let w = init::uniform(&mut rng, DIM, DIM, -0.1, 0.1);
    let pattern = RowPattern::new(2, 0).expect("valid pattern");
    let kept_idx = pattern.kept_rows(DIM);
    let kept_mask: Vec<bool> = (0..DIM).map(|j| pattern.is_kept(j)).collect();

    let mut group = c.benchmark_group("divergence_motivation");
    group.sample_size(10);
    group.bench_function("dense_gemm", |b| {
        b.iter(|| {
            black_box(gemm::blocked_gemm(black_box(&x), black_box(&w)).expect("shapes agree"))
        })
    });
    group.bench_function("branchy_skip_gemm", |b| {
        b.iter(|| black_box(branchy_gemm(black_box(&x), black_box(&w), &kept_mask)))
    });
    group.bench_function("row_compact_gemm", |b| {
        b.iter(|| {
            let mut out = Matrix::default();
            let mut scratch = SelectScratch::default();
            let kept = Some(kept_idx.as_slice());
            gemm::select_gemm_into(
                black_box(&x),
                black_box(&w),
                kept,
                None,
                &mut scratch,
                &mut out,
            )
            .expect("indices in bounds");
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_divergence);
criterion_main!(benches);
