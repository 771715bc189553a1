//! Integration tests for the allocation-free, multi-threaded training hot
//! path: parallel-vs-serial kernel equivalence, `plan_into` draw-for-draw
//! fidelity and buffer recycling, proof that the per-layer scratch
//! workspaces are numerically inert, and a count of the heap allocations a
//! warmed layer step makes.

use approx_dropout::{
    scheme, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, PlanCache, PlanKey, RowPattern,
    SampledPattern, TileGrid, TilePattern,
};
use nn::{Linear, Mlp, MlpConfig, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tensor::{
    blocked_gemm, gemm_a_bt, gemm_at_b, init, pool, select_backward_into,
    select_gemm_bias_act_into, select_gemm_into, Activation, Matrix, SelectScratch,
};

/// The system allocator, counting the allocations made on each thread so a
/// test can assert that a code path allocates nothing on its own thread
/// (concurrently running tests allocate on theirs).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// destructor-free thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

/// All global-pool mutation lives in this single test: the pool is
/// process-wide state and the tests of one binary run concurrently.
#[test]
fn parallel_execution_is_bitwise_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(1);
    // Odd, non-panel-aligned shapes on purpose: they exercise every scalar
    // tail of the unrolled kernels and the ragged last row chunk.
    let a = init::uniform(&mut rng, 67, 53, -1.0, 1.0);
    let b = init::uniform(&mut rng, 53, 41, -1.0, 1.0);
    let g = init::uniform(&mut rng, 67, 41, -1.0, 1.0); // shares a's batch dim
    let w2 = init::uniform(&mut rng, 41, 53, -1.0, 1.0);
    let g2 = init::uniform(&mut rng, 53, 53, -1.0, 1.0); // shares b's batch dim and w2's width
    let kept_cols: Vec<usize> = (1..53).step_by(3).collect();
    // A block plan at block 16 over 53 columns keeps blocks {0, 2, 3}: its
    // expanded kept columns, the last block clipped to the width.
    let block_cols: Vec<usize> = (0..16).chain(32..53).collect();
    let kept_k: Vec<usize> = (0..53).step_by(2).collect(); // K-gather over a·b's inner dim
    let bias = init::uniform(&mut rng, 1, 41, -0.5, 0.5);
    // Tile plan over w2's 41x53 weight at tile 16 (a ragged 3x4 grid).
    let grid = TileGrid::new(41, 53, 16).unwrap();
    let tile_plan = DropoutPlan::tile(
        LayerShape::new(41, 53),
        SampledPattern::from_tile(TilePattern::new(2, 1, 16).unwrap(), &grid),
        grid,
    );
    let tile_bias = init::uniform(&mut rng, 1, 53, -0.5, 0.5);
    let run_kernels = || -> Vec<(&str, Matrix)> {
        let mut block_fwd = Matrix::zeros(0, 0);
        select_gemm_bias_act_into(
            &b,
            &w2,
            Some(&block_cols),
            None,
            &tile_bias,
            1.0,
            2.0,
            Activation::Relu,
            &mut SelectScratch::default(),
            &mut block_fwd,
        )
        .unwrap();
        let mut block_dw = Matrix::zeros(0, 0);
        let mut block_dx = Matrix::zeros(0, 0);
        select_backward_into(
            &b,
            &g2,
            &w2,
            Some(&block_cols),
            None,
            2.0,
            &mut SelectScratch::default(),
            &mut block_dw,
            &mut block_dx,
        )
        .unwrap();
        // The tile path: dense GEMMs against the layer's tile-masked panel.
        let mut tile_layer = Linear::from_parameters(w2.clone(), tile_bias.clone());
        let mut tile_fwd = Matrix::zeros(0, 0);
        tile_layer.forward_act_into(&b, &tile_plan, Activation::Relu, &mut tile_fwd);
        let mut tile_dx = Matrix::zeros(0, 0);
        tile_layer.backward_into(&g2, &mut tile_dx);
        let tile_dw = tile_layer.weight_grad().clone();
        let mut crs_scratch = SelectScratch::default();
        let mut crs_fwd = Matrix::zeros(0, 0);
        select_gemm_bias_act_into(
            &a,
            &b,
            None,
            Some(&kept_k),
            &bias,
            53.0 / kept_k.len() as f32,
            1.0,
            Activation::Relu,
            &mut crs_scratch,
            &mut crs_fwd,
        )
        .unwrap();
        let mut crs_dw = Matrix::zeros(0, 0);
        let mut crs_dx = Matrix::zeros(0, 0);
        select_backward_into(
            &a,
            &g,
            &b,
            None,
            Some(&kept_k),
            53.0 / kept_k.len() as f32,
            &mut crs_scratch,
            &mut crs_dw,
            &mut crs_dx,
        )
        .unwrap();
        // Both axes at once: the row×CRS selection over the same operands.
        let mut nk_fwd = Matrix::zeros(0, 0);
        select_gemm_into(
            &a,
            &b,
            Some(&kept_cols[..13]),
            Some(&kept_k),
            &mut crs_scratch,
            &mut nk_fwd,
        )
        .unwrap();
        let mut nk_dw = Matrix::zeros(0, 0);
        let mut nk_dx = Matrix::zeros(0, 0);
        select_backward_into(
            &a,
            &g,
            &b,
            Some(&kept_cols[..13]),
            Some(&kept_k),
            1.5,
            &mut crs_scratch,
            &mut nk_dw,
            &mut nk_dx,
        )
        .unwrap();
        let mut row_compact = Matrix::zeros(0, 0);
        select_gemm_into(
            &b,
            &w2,
            Some(&kept_cols),
            None,
            &mut SelectScratch::default(),
            &mut row_compact,
        )
        .unwrap();
        vec![
            ("dense GEMM", blocked_gemm(&a, &b).unwrap()),
            ("AᵀB", gemm_at_b(&a, &g).unwrap()),
            ("ABᵀ", gemm_a_bt(&a, &w2).unwrap()),
            ("row-compact", row_compact),
            ("tile forward", tile_fwd),
            ("tile dW", tile_dw),
            ("tile dX", tile_dx),
            ("block-compact forward", block_fwd),
            ("block-compact AᵀB", block_dw),
            ("block-compact ABᵀ", block_dx),
            ("fused K-gather GEMM", crs_fwd),
            ("K-gather dW", crs_dw),
            ("K-gather dX", crs_dx),
            ("N×K-gather GEMM", nk_fwd),
            ("N×K-gather dW", nk_dw),
            ("N×K-gather dX", nk_dx),
        ]
    };
    pool::set_threads(1);
    assert_eq!(pool::threads(), 1);
    let serial = run_kernels();
    pool::set_threads(4);
    assert_eq!(pool::threads(), 4);
    let parallel = run_kernels();
    for ((label, serial), (_, parallel)) in serial.iter().zip(&parallel) {
        assert_eq!(serial, parallel, "{label} must be thread-invariant");
    }

    // Whole-model check: a same-seed training trajectory (batch wide enough
    // to engage the pool) is identical at 1 and 4 threads.
    let losses_serial = {
        pool::set_threads(1);
        train_losses()
    };
    let losses_parallel = {
        pool::set_threads(4);
        train_losses()
    };
    assert_eq!(
        losses_serial, losses_parallel,
        "training must be bitwise thread-invariant"
    );

    // Transformer attention forward + backward: every structured-attention
    // execution path (whole-head block drop, 2:4 projections, FFN row
    // dropout) must produce bitwise-identical training trajectories and
    // eval losses at 1 and 4 threads.
    for (label, attn, ffn) in transformer_variants() {
        pool::set_threads(1);
        let serial = transformer_trajectory(&*attn, &*ffn);
        pool::set_threads(4);
        let parallel = transformer_trajectory(&*attn, &*ffn);
        assert_eq!(
            serial, parallel,
            "transformer {label} training must be bitwise thread-invariant"
        );
    }
    pool::set_threads(1);
}

/// The structured-attention variants whose kernels the transformer
/// thread-invariance matrix covers: whole-head drop, N:M projections, FFN
/// row dropout.
#[allow(clippy::type_complexity)]
fn transformer_variants() -> Vec<(&'static str, Box<dyn DropoutScheme>, Box<dyn DropoutScheme>)> {
    let rate = DropoutRate::new(0.5).unwrap();
    vec![
        (
            "head_drop",
            scheme::block_unit(rate, 4).unwrap(),
            scheme::none(),
        ),
        ("nm_proj", scheme::nm(2, 4).unwrap(), scheme::none()),
        ("ffn_row", scheme::none(), scheme::row(rate, 8).unwrap()),
    ]
}

/// Same-seed training losses plus a deterministic eval loss — the bits the
/// thread-invariance assertions compare.
fn transformer_trajectory(attn: &dyn DropoutScheme, ffn: &dyn DropoutScheme) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(77);
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
    // Batch of 8 sequences × 8 steps = 64 rows: wide enough to engage the
    // pool on the attention and FFN GEMMs.
    let batch: Vec<Vec<usize>> = (0..8)
        .map(|s| (0..9).map(|t| (s * 3 + t * 7) % 40).collect())
        .collect();
    let mut bits: Vec<u32> = (0..6)
        .map(|_| lm.train_batch(&batch, &mut rng).loss.to_bits())
        .collect();
    bits.push(lm.evaluate(&batch).loss.to_bits());
    bits
}

fn train_losses() -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(42);
    let config = MlpConfig {
        input_dim: 24,
        hidden: vec![48, 48],
        output_dim: 4,
        dropout: scheme::row(DropoutRate::new(0.5).unwrap(), 4).unwrap(),
        learning_rate: 0.02,
        momentum: 0.9,
    };
    let mut mlp = Mlp::new(&config, &mut rng);
    let inputs = init::uniform(&mut rng, 64, 24, -1.0, 1.0);
    let labels: Vec<usize> = (0..64).map(|i| i % 4).collect();
    (0..10)
        .map(|_| mlp.train_batch(&inputs, &labels, &mut rng).loss)
        .collect()
}

fn all_schemes() -> Vec<Box<dyn DropoutScheme>> {
    vec![
        scheme::none(),
        scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
        scheme::divergent_bernoulli(DropoutRate::new(0.3).unwrap()),
        Box::new(RowPattern::new(3, 1).unwrap()),
        Box::new(TilePattern::new(2, 0, 8).unwrap()),
        scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap(),
        scheme::tile(DropoutRate::new(0.5).unwrap(), 8, 16).unwrap(),
        scheme::nm(2, 4).unwrap(),
        scheme::block_unit(DropoutRate::new(0.5).unwrap(), 8).unwrap(),
        // Off-grid shapes for the block and tile paths: 5-wide blocks leave
        // a clipped last block and 4-wide tiles a multi-tile grid on the
        // layers below.
        scheme::block_unit(DropoutRate::new(0.5).unwrap(), 5).unwrap(),
        scheme::tile(DropoutRate::new(0.5).unwrap(), 8, 4).unwrap(),
        scheme::crs(0.5).unwrap(),
        scheme::row_crs(DropoutRate::new(0.5).unwrap(), 8, 0.5).unwrap(),
    ]
}

#[test]
fn plan_into_equals_fresh_plan_for_every_scheme() {
    let shape = LayerShape::new(64, 96);
    for reference in all_schemes() {
        let mut planner = reference.clone();
        let mut recycler = reference.clone();
        let mut rng_plan = StdRng::seed_from_u64(99);
        let mut rng_into = StdRng::seed_from_u64(99);
        // Start from a deliberately dirty buffer of a *different* shape and
        // family so stale state would be detected.
        let mut buf = DropoutPlan::none(LayerShape::new(3, 7));
        let mut tile_scheme = TilePattern::new(3, 2, 4).unwrap();
        tile_scheme.plan_into(
            &mut StdRng::seed_from_u64(0),
            LayerShape::new(8, 8),
            &mut buf,
        );
        for iteration in 0..6 {
            let fresh = planner.plan(&mut rng_plan, shape);
            recycler.plan_into(&mut rng_into, shape, &mut buf);
            assert_eq!(
                fresh,
                buf,
                "scheme {} diverged at iteration {iteration}",
                reference.label()
            );
        }
    }
}

#[test]
fn plan_into_recycles_kept_index_and_mask_buffers() {
    // Fixed row pattern: the kept count is constant, so after the first
    // resolve the buffer capacity is settled and the pointer must not move.
    let mut row = RowPattern::new(3, 0).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let shape = LayerShape::vector(120);
    let mut buf = DropoutPlan::default();
    row.plan_into(&mut rng, shape, &mut buf);
    let kept_ptr = buf.compact_rows().unwrap().as_ptr();
    for _ in 0..5 {
        row.plan_into(&mut rng, shape, &mut buf);
        assert_eq!(
            kept_ptr,
            buf.compact_rows().unwrap().as_ptr(),
            "kept-index buffer must be reused, not reallocated"
        );
    }

    // Bernoulli: the mask length equals out_features every iteration.
    let mut bern = scheme::bernoulli(DropoutRate::new(0.4).unwrap());
    let mut buf = DropoutPlan::default();
    bern.plan_into(&mut rng, shape, &mut buf);
    let mask_ptr = buf.bernoulli_mask().unwrap().as_ptr();
    for _ in 0..5 {
        bern.plan_into(&mut rng, shape, &mut buf);
        assert_eq!(
            mask_ptr,
            buf.bernoulli_mask().unwrap().as_ptr(),
            "mask buffer must be reused, not reallocated"
        );
    }

    // Matrix cache reuse (the Linear workspace primitive): same-shape
    // clone_from must keep the allocation.
    let src = Matrix::ones(13, 17);
    let mut dst = Matrix::zeros(13, 17);
    let ptr = dst.as_slice().as_ptr();
    dst.clone_from(&src);
    assert_eq!(ptr, dst.as_slice().as_ptr());
    assert_eq!(dst, src);
}

/// The serving-layer plan cache rides the same recycling contract: once a
/// destination buffer is warmed to a key's plan family, repeated cache
/// hits `clone_from` into it without moving the allocation. This is the
/// "cache hits allocate nothing" half of the serve acceptance criteria;
/// bitwise fidelity is covered in `tests/serve_plan_cache.rs`.
#[test]
fn plan_cache_hits_recycle_destination_buffers() {
    let cache = PlanCache::new(2);
    let shape = LayerShape::vector(120);

    // Fixed-dp row plan: the kept count is constant, so the kept-index
    // pointer must be stable from the first hit on.
    let mut row = RowPattern::new(3, 0).unwrap();
    let key = PlanKey::new(1, shape, 0);
    let mut dest = DropoutPlan::default();
    let sample = |scheme: &mut dyn DropoutScheme, key: PlanKey, out: &mut DropoutPlan| {
        let mut rng = StdRng::seed_from_u64(key.seed());
        scheme.plan_into(&mut rng, key.shape, out);
    };
    assert!(!cache.fetch(key, &mut dest, |out| sample(&mut row, key, out)));
    assert!(cache.fetch(key, &mut dest, |out| sample(&mut row, key, out)));
    let kept_ptr = dest.compact_rows().unwrap().as_ptr();
    for _ in 0..5 {
        assert!(cache.fetch(key, &mut dest, |out| sample(&mut row, key, out)));
        assert_eq!(
            kept_ptr,
            dest.compact_rows().unwrap().as_ptr(),
            "cache hit must reuse the kept-index buffer, not reallocate"
        );
    }

    // Bernoulli mask: length equals out_features for every epoch of the
    // same shape, so hits across epochs keep the mask allocation too.
    let mut bern = scheme::bernoulli(DropoutRate::new(0.4).unwrap());
    let mut dest = DropoutPlan::default();
    for epoch in 0..4 {
        let key = PlanKey::new(2, shape, epoch);
        assert!(!cache.fetch(key, &mut dest, |out| sample(bern.as_mut(), key, out)));
    }
    let mask_ptr = dest.bernoulli_mask().unwrap().as_ptr();
    for epoch in 0..4 {
        let key = PlanKey::new(2, shape, epoch);
        assert!(cache.fetch(key, &mut dest, |out| sample(bern.as_mut(), key, out)));
        assert_eq!(
            mask_ptr,
            dest.bernoulli_mask().unwrap().as_ptr(),
            "cross-epoch cache hits must reuse the mask buffer"
        );
    }
}

/// The scratch-workspace refactor must be numerically inert: a layer whose
/// workspace is reused across iterations (with the plan *family* changing
/// between iterations, so stale row/tile/mask state would surface) produces
/// exactly the outputs and gradients of a pristine layer run once.
#[test]
fn linear_workspace_reuse_is_numerically_inert() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut reused = Linear::new(&mut rng, 12, 16);
    let pristine = reused.clone();
    let shape = LayerShape::new(12, 16);
    let mut schemes = all_schemes();
    let mut plan_rng = StdRng::seed_from_u64(3);
    let mut data_rng = StdRng::seed_from_u64(4);
    // Vary the batch size too: workspace buffers must resize correctly.
    let batches = [8usize, 3, 16, 8, 33, 5, 8, 12, 6, 9, 14];
    let scheme_count = schemes.len();
    for iteration in 0..(2 * scheme_count) {
        let batch = batches[iteration % batches.len()];
        let scheme = &mut schemes[iteration % scheme_count];
        let plan = scheme.plan(&mut plan_rng, shape);
        let x = init::uniform(&mut data_rng, batch, 12, -1.0, 1.0);
        let dy = init::uniform(&mut data_rng, batch, 16, -1.0, 1.0);

        let mut fresh = pristine.clone();
        let y_fresh = fresh.forward(&x, &plan);
        let dx_fresh = fresh.backward(&dy);

        let y_reused = reused.forward(&x, &plan);
        let dx_reused = reused.backward(&dy);

        assert_eq!(y_fresh, y_reused, "forward diverged at {iteration}");
        assert_eq!(dx_fresh, dx_reused, "input grad diverged at {iteration}");
        assert_eq!(
            fresh.weight_grad(),
            reused.weight_grad(),
            "weight grad diverged at {iteration}"
        );
    }
}

/// The backward counterpart of the buffer-reuse checks above:
/// `Linear::backward_into` must (a) produce exactly the matrix
/// `Linear::backward` allocates, for every plan family, and (b) recycle the
/// caller's `dx` buffer — once the shape is warmed the pointer never moves,
/// no matter which execution path the iteration's plan selects.
#[test]
fn backward_into_matches_backward_and_recycles_dx_buffer() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut reused = Linear::new(&mut rng, 12, 16);
    let pristine = reused.clone();
    let shape = LayerShape::new(12, 16);
    let mut schemes = all_schemes();
    let mut plan_rng = StdRng::seed_from_u64(22);
    let mut data_rng = StdRng::seed_from_u64(23);
    let scheme_count = schemes.len();

    let mut dx = Matrix::default();
    let mut dx_ptr = None;
    for iteration in 0..(2 * scheme_count) {
        let scheme = &mut schemes[iteration % scheme_count];
        let plan = scheme.plan(&mut plan_rng, shape);
        let x = init::uniform(&mut data_rng, 8, 12, -1.0, 1.0);
        let dy = init::uniform(&mut data_rng, 8, 16, -1.0, 1.0);

        let mut fresh = pristine.clone();
        let _ = fresh.forward(&x, &plan);
        let dx_fresh = fresh.backward(&dy);

        let _ = reused.forward(&x, &plan);
        reused.backward_into(&dy, &mut dx);

        assert_eq!(dx_fresh, dx, "dx diverged at iteration {iteration}");
        assert_eq!(
            fresh.weight_grad(),
            reused.weight_grad(),
            "weight grad diverged at iteration {iteration}"
        );
        match dx_ptr {
            None => dx_ptr = Some(dx.as_slice().as_ptr()),
            Some(ptr) => assert_eq!(
                ptr,
                dx.as_slice().as_ptr(),
                "dx buffer must be reused, not reallocated (iteration {iteration}, scheme {})",
                schemes[iteration % scheme_count].label()
            ),
        }
    }
}

/// A warmed layer step allocates nothing on the calling thread, for every
/// plan family: once a layer has run a plan, running it again (the fused
/// forward into a recycled output, then `backward_into` a recycled `dx`)
/// makes no heap allocation. Every GEMM here stays below the pool's
/// parallel threshold, so the whole step runs on this thread.
#[test]
fn warmed_linear_step_allocates_nothing_for_every_family() {
    let mut rng = StdRng::seed_from_u64(41);
    let pristine = Linear::new(&mut rng, 24, 30);
    let shape = LayerShape::new(24, 30);
    let x = init::uniform(&mut rng, 6, 24, -1.0, 1.0);
    let dy = init::uniform(&mut rng, 6, 30, -1.0, 1.0);
    let mut plan_rng = StdRng::seed_from_u64(42);
    for mut scheme in all_schemes() {
        let plan = scheme.plan(&mut plan_rng, shape);
        let mut layer = pristine.clone();
        let mut out = Matrix::default();
        let mut dx = Matrix::default();
        let mut step = || {
            layer.forward_act_into(&x, &plan, Activation::Relu, &mut out);
            layer.backward_into(&dy, &mut dx);
        };
        step();
        assert_eq!(
            allocations_in(&mut step),
            0,
            "scheme {} allocated on a warmed step",
            scheme.label()
        );
    }
}

/// The selection scratch rides the same recycling contract as the other
/// workspaces: once warmed for a shape, repeated calls with a *different*
/// kept set of the same size move no output allocation.
#[test]
fn gather_k_output_buffers_are_recycled_across_kept_sets() {
    let mut rng = StdRng::seed_from_u64(31);
    let a = init::uniform(&mut rng, 9, 24, -1.0, 1.0);
    let w = init::uniform(&mut rng, 24, 13, -1.0, 1.0);
    let g = init::uniform(&mut rng, 9, 13, -1.0, 1.0);
    let kept_a: Vec<usize> = (0..24).step_by(2).collect();
    let kept_b: Vec<usize> = (1..24).step_by(2).collect();

    let mut scratch = SelectScratch::default();
    let mut out = Matrix::default();
    let (mut dw, mut dx) = (Matrix::default(), Matrix::default());
    let mut step = |kept: &[usize], out: &mut Matrix, dw: &mut Matrix, dx: &mut Matrix| {
        select_gemm_into(&a, &w, None, Some(kept), &mut scratch, out).unwrap();
        select_backward_into(&a, &g, &w, None, Some(kept), 2.0, &mut scratch, dw, dx).unwrap();
    };
    step(&kept_a, &mut out, &mut dw, &mut dx);
    let (out_ptr, dw_ptr, dx_ptr) = (
        out.as_slice().as_ptr(),
        dw.as_slice().as_ptr(),
        dx.as_slice().as_ptr(),
    );

    step(&kept_b, &mut out, &mut dw, &mut dx);
    assert_eq!(
        out_ptr,
        out.as_slice().as_ptr(),
        "forward out must be reused"
    );
    assert_eq!(dw_ptr, dw.as_slice().as_ptr(), "dW buffer must be reused");
    assert_eq!(dx_ptr, dx.as_slice().as_ptr(), "dX buffer must be reused");
}

/// Same-seed loss trajectories are exactly reproducible through the
/// `plan_into` + workspace path end to end (MLP train loop).
#[test]
fn same_seed_mlp_trajectories_are_identical() {
    let run = || train_losses();
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.iter().all(|l| l.is_finite()));
}
