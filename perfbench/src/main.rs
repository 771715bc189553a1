//! Repository benchmark: one command, three workloads, end-to-end and
//! per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp_train|seq_train|serve_mixed|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that records spans around every library call and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; an output
//! check that fails sets `correct` to false and the exit code to 1.
//! `perfbench/README.md` describes the workloads and every metric.

mod metrics;
mod replay;
mod serving;
mod trace;
mod training;

use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line arguments, all required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value.as_str());
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("{key} is required"))
    };
    let workload = get("--workload")?.to_string();
    if workload != "all" && !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected all or one of {:?}",
            metrics::WORKLOADS
        ));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be a number in (0, 600]")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a workload run produced: counts, metric values and failed checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Context printed with the result: pool width, tune decision, etc.
    pub notes: Vec<(String, String)>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn info(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Derives an independent sub-seed (splitmix64 finaliser), so every
/// input the benchmark generates follows from `--seed` alone.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets the tensor pool width and loads `TUNE_GEMM.json` when it was tuned
/// for this width and SIMD level. Returns a description of the decision.
pub fn configure_pool(threads: usize) -> String {
    tensor::pool::set_threads(threads);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(tensor::tune::TUNE_FILE_NAME);
    let isa = tensor::simd::level().name();
    match tensor::TuneConfig::load(&path) {
        Err(e) => format!("skipped ({e})"),
        Ok(cfg) if cfg.threads != threads => {
            format!(
                "skipped (tuned at {} thread(s), running at {threads})",
                cfg.threads
            )
        }
        Ok(cfg) if cfg.isa != isa => format!("skipped (tuned for {}, running {isa})", cfg.isa),
        Ok(cfg) => match cfg.apply() {
            Ok(()) => "applied".to_string(),
            Err(e) => format!("skipped ({e})"),
        },
    }
}

/// Writes the spans under `perfbench/traces/`.
pub fn write_trace(tr: &trace::Tracer, args: &Args, out: &mut Outcome) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match tr.write_to(&path) {
        Ok(()) => out.info("trace_file", path.display().to_string()),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `--workload all`: runs every workload in a process of its own, one
/// after the other, with the same arguments; exits 1 if any of them did.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut failed = Vec::new();
    for workload in metrics::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("the benchmark can start itself");
        if !status.success() {
            failed.push(workload);
        }
    }
    if !failed.is_empty() {
        eprintln!("perfbench: failed workloads: {failed:?}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        run_all(&args);
    }
    let started = Instant::now();
    let mut outcome = match args.workload.as_str() {
        "mlp_train" => training::run(training::Workload::Mlp, &args),
        "seq_train" => training::run(training::Workload::Seq, &args),
        "serve_mixed" => serving::run(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let listed: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for name in outcome.values.keys() {
        assert!(
            listed.iter().any(|(n, _)| n == name),
            "metric {name} is not listed in metrics.rs"
        );
    }
    if !args.trace {
        for (name, _) in &listed {
            if !outcome.values.contains_key(name) {
                outcome
                    .problems
                    .push(format!("metric {name} was not measured"));
            }
        }
    }
    for (name, v) in &outcome.values {
        if !v.is_finite() {
            outcome
                .problems
                .push(format!("metric {name} is not finite ({v})"));
        }
    }
    outcome.check(outcome.attempted > 0, || {
        "no operation was attempted".to_string()
    });

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} trace {} seconds {}: available_parallelism {cores}, simd {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        tensor::simd::level().name()
    );
    for (key, value) in &outcome.notes {
        println!("  {key}: {value}");
    }
    let mut fields = Vec::new();
    for (name, unit) in &listed {
        // A layer this workload never calls has no spans and reads 0.
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {value:>16.6} {unit}");
        // Names and units are plain ASCII from `metrics.rs`.
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "attempted {} failed {} wall {:.1} s",
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
