//! The workload and metric names `BENCHMARK.json` lists, in one place.
//!
//! Every run prints every metric of its kind: end-to-end with `--trace 0`,
//! per-layer with `--trace 1`. A per-layer metric of a layer the workload
//! never calls reads 0 (no spans were recorded for it).

pub const WORKLOADS: [&str; 3] = ["mlp_train", "seq_train", "serve_mixed"];

/// The `mlp_train` rotation: scheme family, scheme spec and model tag, one
/// model per family. The first, Bernoulli, is the baseline every speedup is
/// taken against.
pub const MLP_MODELS: [(&str, &str, &str); 7] = [
    ("bernoulli", "bernoulli:0.5", "mlp.bernoulli"),
    ("row", "row:0.5:8", "mlp.row"),
    ("tile", "tile:0.5:8:16", "mlp.tile"),
    ("nm", "nm:2:4", "mlp.nm"),
    ("block", "block:0.5:16", "mlp.block"),
    ("crs", "crs:0.5", "mlp.crs"),
    ("row_crs", "row_crs:0.5:16:0.5", "mlp.row_crs"),
];

/// Families of [`MLP_MODELS`], in rotation order.
pub fn mlp_families() -> impl Iterator<Item = &'static str> {
    MLP_MODELS.iter().map(|m| m.0)
}

/// The families with a speedup over the Bernoulli baseline.
pub fn speedup_families() -> impl Iterator<Item = &'static str> {
    mlp_families().skip(1)
}

pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metric names with their units, expanded over the families.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut each = |prefix: &str, families: &mut dyn Iterator<Item = &'static str>, unit| {
        out.extend(families.map(|f| (format!("{prefix}.{f}"), unit)));
    };
    // `core.*` also covers the transformer's head drop (`seq_train`).
    let plan_families = || mlp_families().chain(["transformer"]);
    each("core.plan_us", &mut plan_families(), "us");
    each("core.kept_frac", &mut plan_families(), "ratio");
    each(
        "nn.step_ms",
        &mut MLP_MODELS
            .iter()
            .map(|m| m.2)
            .chain(["lstm", "transformer"]),
        "ms",
    );
    each("nn.linear.fwd_us", &mut mlp_families(), "us");
    each("nn.linear.bwd_us", &mut mlp_families(), "us");
    each("nn.linear.fwd_gflops", &mut mlp_families(), "GFLOP/s");
    each("nn.linear.bwd_gflops", &mut mlp_families(), "GFLOP/s");
    each("nn.speedup", &mut speedup_families(), "x");
    each(
        "tensor.dense_gflops",
        &mut ["fwd", "dx", "dw"].into_iter(),
        "GFLOP/s",
    );
    each("gpu_sim.step_us", &mut mlp_families(), "us");
    each("gpu_sim.speedup", &mut speedup_families(), "x");
    for (name, unit) in [
        ("data.batch_us", "us"),
        ("core.search_ms", "ms"),
        ("nn.linear.opt_us", "us"),
        ("nn.eval_ms", "ms"),
        ("tensor.fma_peak_gflops", "GFLOP/s"),
        ("gpu_sim.price_us", "us"),
        ("serve.submit_us", "us"),
        ("serve.queue_wait_p99_ms", "ms"),
        ("serve.exec_p50_ms", "ms"),
        ("serve.exec_p99_ms", "ms"),
        ("serve.batch_rows_mean", "rows"),
        ("serve.plan_cache_hit_rate", "ratio"),
        ("serve.p99_ms.train", "ms"),
        ("serve.p99_ms.infer", "ms"),
        ("serve.failed", "count"),
        ("serve.train_loss_spikes", "count"),
        ("serve.train_loss_window_x_chance", "ratio"),
        ("bench.gen_lag_p99_ms", "ms"),
        ("bench.trace_overhead", "ratio"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}
