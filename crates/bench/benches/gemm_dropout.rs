//! Measured CPU wall-clock of the dense GEMM + mask path (conventional
//! dropout) vs the compacted GEMM and the tile layer (Fig. 4 / Table I, CPU
//! counterpart).
//!
//! The row-compacted kernel really does skip the dropped work, so the ratio
//! of the `dense_plus_mask` group to the `row_compact` group is a measured
//! (not modelled) speedup with the same shape as the paper's. The
//! `tile_compact` group times a tile-planned `Linear` forward, which on the
//! CPU is a dense GEMM against the tile-masked weight panel.

use approx_dropout::{
    BernoulliDropout, DropoutPlan, DropoutRate, LayerShape, RowPattern, SampledPattern, TileGrid,
    TilePattern,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::Linear;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{gemm, init, Activation, Matrix, SelectScratch};

const BATCH: usize = 32;
const DIM: usize = 256;

fn operands() -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(99);
    let x = init::uniform(&mut rng, BATCH, DIM, -1.0, 1.0);
    let w = init::uniform(&mut rng, DIM, DIM, -0.1, 0.1);
    (x, w)
}

fn bench_gemm_dropout(c: &mut Criterion) {
    let (x, w) = operands();
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("gemm_dropout");
    group.sample_size(10);

    for &dp in &[2usize, 3, 5] {
        let rate = (dp - 1) as f64 / dp as f64;
        let bernoulli = BernoulliDropout::new(DropoutRate::new(rate).expect("valid rate"));
        let mask = bernoulli.mask(&mut rng, BATCH, DIM);
        group.bench_with_input(BenchmarkId::new("dense_plus_mask", dp), &dp, |b, _| {
            b.iter(|| {
                let z = gemm::blocked_gemm(black_box(&x), black_box(&w)).expect("shapes agree");
                black_box(z.hadamard(&mask).expect("shapes agree"))
            })
        });

        let row = RowPattern::new(dp, 0).expect("valid pattern");
        let kept_rows = row.kept_rows(DIM);
        group.bench_with_input(BenchmarkId::new("row_compact", dp), &dp, |b, _| {
            b.iter(|| {
                let mut out = Matrix::default();
                let mut scratch = SelectScratch::default();
                let kept = Some(kept_rows.as_slice());
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

        let grid = TileGrid::new(DIM, DIM, 32).expect("valid grid");
        let tile = TilePattern::new(dp, 0, 32).expect("valid pattern");
        let plan = DropoutPlan::tile(
            LayerShape::new(DIM, DIM),
            SampledPattern::from_tile(tile, &grid),
            grid,
        );
        let mut layer = Linear::from_parameters(w.clone(), Matrix::zeros(1, DIM));
        let mut out = Matrix::default();
        group.bench_with_input(BenchmarkId::new("tile_compact", dp), &dp, |b, _| {
            b.iter(|| {
                layer.forward_act_into(black_box(&x), &plan, Activation::Identity, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_dropout);
criterion_main!(benches);
