//! Ablation of the tile size used by the Tile-based Dropout Pattern.
//!
//! The paper fixes 32×32 to match the 32 shared-memory banks; this bench
//! measures how the CPU tile layer behaves for 8/16/32/64 tiles at the same
//! dropout rate, and the `gpu-sim` model covers the GPU-side argument. On
//! the CPU a tile-planned `Linear` forward is a dense GEMM against the
//! tile-masked weight panel, so only the panel build depends on the tile
//! size.

use approx_dropout::{DropoutPlan, LayerShape, SampledPattern, TileGrid, TilePattern};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::Linear;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{init, Activation, Matrix};

const BATCH: usize = 32;
const DIM: usize = 256;

fn bench_tile_sizes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let x = init::uniform(&mut rng, BATCH, DIM, -1.0, 1.0);
    let w = init::uniform(&mut rng, DIM, DIM, -0.1, 0.1);
    let dp = 2;

    let mut group = c.benchmark_group("tile_size_ablation");
    group.sample_size(10);
    for &tile in &[8usize, 16, 32, 64] {
        let grid = TileGrid::new(DIM, DIM, tile).expect("valid grid");
        let pattern = TilePattern::new(dp, 0, tile).expect("valid pattern");
        let plan = DropoutPlan::tile(
            LayerShape::new(DIM, DIM),
            SampledPattern::from_tile(pattern, &grid),
            grid,
        );
        let mut layer = Linear::from_parameters(w.clone(), Matrix::zeros(1, DIM));
        let mut out = Matrix::default();
        group.bench_with_input(BenchmarkId::from_parameter(tile), &tile, |b, _| {
            b.iter(|| {
                layer.forward_act_into(black_box(&x), &plan, Activation::Identity, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tile_sizes);
criterion_main!(benches);
