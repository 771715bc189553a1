//! `serve_mixed`: open-loop traffic against a one-worker `serve::Server`.
//!
//! One generator thread submits a seeded Poisson schedule over 8 tenants:
//! Interactive `Infer` jobs (reads: dense forward) mixed with Batch `Train`
//! jobs (writes: plan cache, backward, replica update), and picks up the
//! replies between submissions. Every latency is timed from the moment the
//! job was due, so a stalled generator or server charges its delay to every
//! job behind it.
//!
//! The run measures a reference rung (a fixed rate near half the worker's
//! capacity) for the latency metrics, then climbs a fixed rate ladder and
//! stops at the first rung that misses the p99 limit, fails a job, leaves a
//! growing backlog or is invalid because the generator itself ran late.

use crate::trace::{mean, median, percentile, Tracer};
use crate::{configure_pool, sub_seed, Args, Outcome};
use gpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{
    BatchPolicy, JobKind, JobReply, JobSpec, ModelSpec, NetworkKind, QosClass, SchemeSpec,
    ServeConfig, ServeReport, Server,
};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// p99 latency limit a rung must meet, in ms.
const LIMIT_MS: f64 = 25.0;
/// Offered rate of the reference rung, in requests/s: about 40% of the rate
/// at which the worker's p99 reaches the limit. Nearer the limit, bursts
/// back the queue up and the rung's tail and peak memory follow them.
const REFERENCE_RPS: f64 = 1200.0;
/// Share of the run spent at the reference rung; the ladder gets the rest.
const REFERENCE_SHARE: f64 = 0.3;
/// Each rung's latency percentiles are medians over this many equal time
/// windows, so one disturbed stretch cannot move them.
const WINDOWS: usize = 5;
/// The fixed rate ladder, requests/s: 1682 · 2^(i/8).
const LADDER: [f64; 11] = [
    1682.0, 1834.0, 2000.0, 2181.0, 2378.0, 2594.0, 2828.0, 3084.0, 3364.0, 3668.0, 4000.0,
];
const TENANTS: u64 = 8;
/// Share of jobs that are Interactive `Infer` reads; the rest are Batch
/// `Train` writes. The split and the row ranges in [`job`] are those of
/// `bench_serve`'s traces.
const INFER_SHARE: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so many of them cost little.
const SETUPS: usize = 15;
/// Warm-up jobs per (model, kind) during set-up.
const WARMUP_JOBS: usize = 4;
/// A `Train` reply whose loss passes this multiple of its model's chance
/// level is a spike: that one replica update blew up.
const LOSS_LIMIT_CHANCE: f64 = 3.0;
/// `Train` replies per model in one window of the sustained-loss figure:
/// the highest median loss over such a window tells a replica that stays
/// diverged from one that spikes and recovers.
const LOSS_WINDOW: usize = 200;

/// The served catalog: the `bench_serve` MLPs and LSTM plus the transformer
/// LM with its shipped hyper-parameters (lr 0.1, no momentum).
fn catalog() -> Vec<ModelSpec> {
    vec![
        ModelSpec::mlp(
            "mlp-row",
            64,
            vec![256, 256],
            10,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 8,
            },
        ),
        ModelSpec::mlp(
            "mlp-nm",
            48,
            vec![128, 128],
            10,
            SchemeSpec::Nm { n: 2, m: 4 },
        ),
        ModelSpec::lstm(
            "lstm-row",
            64,
            32,
            2,
            8,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        ),
        ModelSpec::transformer_lm(
            "transformer",
            64,
            32,
            4,
            64,
            2,
            8,
            SchemeSpec::Transformer {
                rate: 0.25,
                head_dim: 8,
            },
        ),
    ]
}

/// Chance-level cross-entropy of a catalog model, nats: ln of its classes
/// or vocabulary.
fn chance_nats(spec: &ModelSpec) -> f64 {
    let outputs = match &spec.network {
        NetworkKind::Mlp { classes, .. } => *classes,
        NetworkKind::Lstm { vocab, .. } | NetworkKind::TransformerLm { vocab, .. } => *vocab,
    };
    (outputs as f64).ln()
}

fn start_server(seed: u64) -> Server {
    let config = ServeConfig::builder()
        .workers(1)
        .policy(BatchPolicy::adaptive_default())
        .init_seed(sub_seed(seed, 10))
        .build()
        .expect("benchmark serve configuration is valid");
    Server::start(config, catalog())
}

fn job(rng: &mut StdRng, models: usize) -> JobSpec {
    let model = rng.gen_range(0..models);
    let infer = rng.gen::<f64>() < INFER_SHARE;
    // The first two catalog entries are MLPs. Sequence rows are whole
    // sequences; keep them few so every model's share of the worker's time
    // stays comparable.
    let rows = if model < 2 {
        rng.gen_range(2..9usize)
    } else {
        rng.gen_range(1..3usize)
    };
    JobSpec {
        tenant: rng.gen_range(0..TENANTS),
        model,
        rows,
        seed: rng.gen(),
        kind: if infer {
            JobKind::Infer
        } else {
            JobKind::Train
        },
        qos: if infer {
            QosClass::Interactive
        } else {
            QosClass::Batch
        },
    }
}

/// Seeded Poisson arrivals at `rate` for `secs`: (due offset in s, job).
fn schedule(seed: u64, salt: u64, rate: f64, secs: f64) -> Vec<(f64, JobSpec)> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, salt));
    let models = catalog().len();
    let mut jobs = Vec::with_capacity((rate * secs * 1.1) as usize);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            return jobs;
        }
        jobs.push((t, job(&mut rng, models)));
    }
}

/// Starts a server and warms every (model, kind) with a burst of jobs;
/// the returned server has resolved its first plans and sized its buffers.
fn setup(seed: u64) -> Server {
    let server = start_server(seed);
    let client = server.client();
    let mut replies = Vec::new();
    for model in 0..catalog().len() {
        for kind in [JobKind::Train, JobKind::Infer] {
            for i in 0..WARMUP_JOBS {
                let spec = JobSpec {
                    tenant: 0,
                    model,
                    rows: 2,
                    seed: sub_seed(seed, 20 + i as u64),
                    kind,
                    qos: QosClass::Batch,
                };
                replies.push(client.submit(spec).expect("an unbounded queue admits"));
            }
        }
    }
    for reply in replies {
        reply
            .recv()
            .expect("the server answers every admitted job")
            .expect("warm-up jobs are not shed");
    }
    server
}

#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    secs: f64,
    attempted: u64,
    completed: u64,
    failed: u64,
    nonfinite: u64,
    /// Due-to-reply latency of every completed job, ms, with the job's due
    /// offset in s.
    latency_ms: Vec<(f64, f64)>,
    /// Loss of every `Train` reply, with the job's catalog model.
    train_loss: Vec<(usize, f64)>,
    gen_lag_ms: Vec<f64>,
    /// Jobs still queued when the last one was submitted.
    backlog: usize,
}

impl Rung {
    fn latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().map(|&(_, ms)| ms).collect()
    }

    fn p99(&self) -> f64 {
        self.windowed(0.99)
    }

    /// Median over [`WINDOWS`] equal stretches of the rung of the `q`
    /// latency percentile.
    fn windowed(&self, q: f64) -> f64 {
        let mut windows = vec![Vec::new(); WINDOWS];
        for &(due, ms) in &self.latency_ms {
            let w = ((due / self.secs * WINDOWS as f64) as usize).min(WINDOWS - 1);
            windows[w].push(ms);
        }
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect();
        median(&per_window)
    }

    fn gen_lag_p99(&self) -> f64 {
        percentile(&self.gen_lag_ms, 0.99)
    }

    /// Why the rung does not count as meeting the limit, if it does not.
    fn miss(&self) -> Option<String> {
        self.load_miss().or_else(|| {
            (self.p99() > LIMIT_MS).then(|| format!("p99 {:.2} ms exceeds the limit", self.p99()))
        })
    }

    /// Why the rung misses for a reason other than its p99, if it does.
    fn load_miss(&self) -> Option<String> {
        if self.gen_lag_p99() > LIMIT_MS {
            return Some(format!(
                "invalid: generator lag p99 {:.2} ms exceeds the limit",
                self.gen_lag_p99()
            ));
        }
        if self.failed > 0 {
            return Some(format!("{} failed jobs", self.failed));
        }
        if self.backlog as f64 > self.rate * LIMIT_MS / 1e3 {
            return Some(format!("backlog of {} jobs at the end", self.backlog));
        }
        None
    }
}

/// A submitted job waiting for its reply.
struct Pending {
    id: u64,
    offset: f64,
    due: Instant,
    submitted: Instant,
    model: usize,
    kind: JobKind,
    reply: Receiver<JobReply>,
}

impl Rung {
    /// Books one reply (`None`: refused, shed or dropped by the server).
    /// Latency runs from the due time; the server reports the rest of the
    /// request's intervals, so a reply read late is still timed right.
    fn book(&mut self, p: &Pending, reply: Option<serve::JobResult>, tr: &mut Tracer) {
        let Some(result) = reply else {
            self.failed += 1;
            return;
        };
        self.completed += 1;
        if !result.value.is_finite() {
            self.nonfinite += 1;
        }
        if p.kind == JobKind::Train {
            self.train_loss.push((p.model, f64::from(result.value)));
        }
        let latency = p.submitted.saturating_duration_since(p.due) + result.latency;
        self.latency_ms
            .push((p.offset, latency.as_secs_f64() * 1e3));
        let dispatched = p.submitted + result.queue_wait;
        let kind = p.kind.label();
        tr.record("serve.request", kind, p.id, p.due, p.due + latency);
        tr.record("serve.queue_wait", kind, p.id, p.submitted, dispatched);
        tr.record(
            "serve.exec",
            kind,
            p.id,
            dispatched,
            dispatched + result.exec,
        );
    }
}

/// Offers `jobs` open loop from this thread and collects every reply.
/// Between submissions the generator only picks up replies that are
/// already there, so it never waits on the server.
fn offer(server: &Server, rate: f64, secs: f64, jobs: &[(f64, JobSpec)], tr: &mut Tracer) -> Rung {
    let client = server.client();
    let mut rung = Rung {
        rate,
        secs,
        attempted: jobs.len() as u64,
        ..Rung::default()
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now() + Duration::from_millis(1);
    for (id, &(offset, spec)) in jobs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(offset);
        while let Some(front) = pending.front() {
            match front.reply.try_recv() {
                Ok(reply) => {
                    let p = pending.pop_front().expect("front exists");
                    rung.book(&p, reply.ok(), tr);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    let p = pending.pop_front().expect("front exists");
                    rung.book(&p, None, tr);
                }
            }
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let span = tr.begin("serve.submit", spec.kind.label(), id as u64);
        let submitted = Instant::now();
        let admitted = client.submit(spec);
        tr.end(span);
        rung.gen_lag_ms
            .push(submitted.saturating_duration_since(due).as_secs_f64() * 1e3);
        match admitted {
            Ok(reply) => pending.push_back(Pending {
                id: id as u64,
                offset,
                due,
                submitted,
                model: spec.model,
                kind: spec.kind,
                reply,
            }),
            Err(_) => rung.failed += 1,
        }
    }
    rung.backlog = server.queued();
    for p in pending {
        let reply = p.reply.recv().ok().and_then(Result::ok);
        rung.book(&p, reply, tr);
    }
    rung
}

/// Rungs nearest the limit that the capacity fit uses.
const FIT_RUNGS: usize = 6;

/// Highest sustainable rate: the rate at which a power law fitted to p99
/// over the last rungs run crosses the limit. The ladder stops at the first
/// rung missed, so those rungs bracket the crossing; one rung's p99 is too
/// noisy to decide on its own. Rungs missed for another reason than p99
/// (see [`Rung::load_miss`]), and rungs far past the limit (a backlog swamps
/// the percentile), stay out of the fit; with fewer than two points left the
/// last rung met stands. The estimate never passes a rung left out of the
/// fit, and stays within one ladder step of the rungs run.
fn max_rps(rungs: &[Rung]) -> f64 {
    let Some(last_met) = rungs.iter().take_while(|r| r.miss().is_none()).last() else {
        return 0.0;
    };
    let in_fit = |r: &Rung| r.load_miss().is_none() && r.p99() <= 4.0 * LIMIT_MS;
    let points: Vec<(f64, f64)> = rungs
        .iter()
        .filter(|r| in_fit(r))
        .map(|r| (r.rate.ln(), r.p99().max(1e-3).ln()))
        .collect();
    let points = &points[points.len().saturating_sub(FIT_RUNGS)..];
    let n = points.len() as f64;
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    if points.len() < 2 || slope.is_nan() || slope <= 0.0 {
        return last_met.rate;
    }
    let crossing = (mx + (LIMIT_MS.ln() - my) / slope).exp();
    let last = rungs.last().expect("a rung was met");
    let ceiling = if in_fit(last) {
        last.rate * LADDER[1] / LADDER[0]
    } else {
        last.rate
    };
    crossing.clamp(LADDER[0], ceiling)
}

fn check_rung(out: &mut Outcome, name: &str, r: &Rung) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.check(r.completed + r.failed == r.attempted, || {
        format!(
            "{name}: completed {} + failed {} != attempted {}",
            r.completed, r.failed, r.attempted
        )
    });
    out.check(r.nonfinite == 0, || {
        format!("{name}: {} replies had a non-finite value", r.nonfinite)
    });
}

/// Replies in `losses` past [`LOSS_LIMIT_CHANCE`] times `spec`'s chance level.
fn spikes(losses: &[f64], spec: &ModelSpec) -> u64 {
    let limit = LOSS_LIMIT_CHANCE * chance_nats(spec);
    losses.iter().filter(|&&loss| loss > limit).count() as u64
}

/// Highest median loss over windows of [`LOSS_WINDOW`] consecutive replies.
/// A last window shorter than half of that is skipped, unless it is the
/// only one.
fn worst_window_median(losses: &[f64]) -> f64 {
    let windows: Vec<&[f64]> = losses
        .chunks(LOSS_WINDOW)
        .filter(|w| 2 * w.len() >= LOSS_WINDOW)
        .collect();
    if windows.is_empty() {
        return median(losses);
    }
    windows.iter().map(|w| median(w)).fold(0.0, f64::max)
}

/// `Train` reply losses of catalog model `model` over `rungs`, in order.
fn model_losses(rungs: &[&Rung], model: usize) -> Vec<f64> {
    rungs
        .iter()
        .flat_map(|r| &r.train_loss)
        .filter(|&&(m, _)| m == model)
        .map(|&(_, loss)| loss)
        .collect()
}

/// Notes the `Train` loss of every catalog model over `rungs`, the rungs
/// one server ran in order, beside its chance level. Returns the spikes
/// over all models and the highest windowed median loss over chance.
///
/// Neither fails the run nor counts in `failed`: the transformer replica
/// at its shipped lr 0.1 spikes, and on some seeds stays diverged for
/// hundreds of replies. How often depends on the seed and on how the
/// open-loop schedule happens to batch its jobs, so a count would differ
/// between runs of the same code and a check would fail the benchmark on
/// some seeds. They are per-layer metrics instead.
fn note_train_loss(out: &mut Outcome, server: &str, rungs: &[&Rung]) -> (u64, f64) {
    let mut total = 0;
    let mut worst_ratio = 0.0_f64;
    for (model, spec) in catalog().iter().enumerate() {
        let losses = model_losses(rungs, model);
        let chance = chance_nats(spec);
        let worst = worst_window_median(&losses);
        let spiked = spikes(&losses, spec);
        total += spiked;
        worst_ratio = worst_ratio.max(worst / chance);
        out.info(
            &format!("train_loss.{}.{server}", spec.name),
            format!(
                "mean {:.3}, max {:.3}, worst {LOSS_WINDOW}-reply median {worst:.3} nats \
                 over {} replies, {spiked} spikes; chance {chance:.3}",
                mean(&losses),
                losses.iter().copied().fold(0.0, f64::max),
                losses.len(),
            ),
        );
    }
    (total, worst_ratio)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.info("pool_threads", "1".to_string());
    out.info("tune_gemm", configure_pool(1));
    out.info("limit_ms", LIMIT_MS.to_string());

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let started = Instant::now();
        server = Some(setup(args.seed));
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up ran");
    let mut untraced = Tracer::new(false, Instant::now());

    let reference_secs = args.seconds * if args.trace { 0.5 } else { REFERENCE_SHARE };
    let jobs = schedule(args.seed, 1, REFERENCE_RPS, reference_secs);
    let reference = offer(&server, REFERENCE_RPS, reference_secs, &jobs, &mut untraced);
    check_rung(&mut out, "reference rung", &reference);
    out.check(reference.gen_lag_p99() <= LIMIT_MS, || {
        format!(
            "reference rung invalid: generator lag p99 {:.2} ms exceeds the {LIMIT_MS} ms limit",
            reference.gen_lag_p99()
        )
    });
    out.info("reference_samples", reference.latency_ms.len().to_string());

    if args.trace {
        Server::shutdown(server);
        return traced(args, &reference, &jobs, out);
    }
    // Peak memory through set-up and steady load; the ladder's last rung
    // overloads the worker on purpose and its backlog size is noise.
    out.set("peak_rss_mb", crate::peak_rss_mb());

    let rung_secs = args.seconds * (1.0 - REFERENCE_SHARE) / LADDER.len() as f64;
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let jobs = schedule(args.seed, 100 + i as u64, rate, rung_secs);
        let rung = offer(&server, rate, rung_secs, &jobs, &mut untraced);
        check_rung(&mut out, &format!("rung {rate} rps"), &rung);
        let verdict = rung.miss();
        out.info(
            &format!("rung.{rate}"),
            format!(
                "p50 {:.3} ms, p99 {:.3} ms, gen lag p99 {:.3} ms, {} jobs: {}",
                median(&rung.latencies()),
                rung.p99(),
                rung.gen_lag_p99(),
                rung.attempted,
                verdict.as_deref().unwrap_or("met")
            ),
        );
        rungs.push(rung);
        if verdict.is_some() {
            break;
        }
    }
    let report = Server::shutdown(server);
    note_train_loss(
        &mut out,
        "untraced",
        &std::iter::once(&reference)
            .chain(&rungs)
            .collect::<Vec<_>>(),
    );
    let max = max_rps(&rungs);
    out.check(max > 0.0, || {
        "the first ladder rung already missed the limit".to_string()
    });
    out.info("jobs_served", report.jobs.to_string());
    out.set("items_per_s", max);
    out.set("p50_ms", reference.windowed(0.5));
    out.set("tail_ms", reference.windowed(0.99));
    out.set("setup_s", median(&setup_secs));
    out
}

/// The traced half: a fresh server offered the same reference schedule
/// with spans on, plus the gpu-sim pricing the adaptive batcher runs at
/// start.
fn traced(args: &Args, untraced: &Rung, jobs: &[(f64, JobSpec)], mut out: Outcome) -> Outcome {
    let mut tr = Tracer::new(true, Instant::now());
    let server = setup(args.seed);
    let rung = offer(&server, REFERENCE_RPS, untraced.secs, jobs, &mut tr);
    let report: ServeReport = Server::shutdown(server);
    check_rung(&mut out, "traced reference rung", &rung);
    note_train_loss(&mut out, "untraced", &[untraced]);
    let (spike_count, worst_ratio) = note_train_loss(&mut out, "traced", &[&rung]);

    let p99_ms =
        |name: &str, tag: Option<&str>| percentile(&tr.durations_us(name, tag), 0.99) / 1e3;
    out.set(
        "serve.submit_us",
        mean(&tr.durations_us("serve.submit", None)),
    );
    out.set("serve.queue_wait_p99_ms", p99_ms("serve.queue_wait", None));
    out.set(
        "serve.exec_p50_ms",
        median(&tr.durations_us("serve.exec", None)) / 1e3,
    );
    out.set("serve.exec_p99_ms", p99_ms("serve.exec", None));
    out.set("serve.batch_rows_mean", report.mean_batch_rows());
    out.set(
        "serve.plan_cache_hit_rate",
        report.plan_cache.map_or(0.0, |c| c.hit_rate()),
    );
    out.set(
        "serve.p99_ms.train",
        p99_ms("serve.request", Some(JobKind::Train.label())),
    );
    out.set(
        "serve.p99_ms.infer",
        p99_ms("serve.request", Some(JobKind::Infer.label())),
    );
    out.set("serve.failed", rung.failed as f64);
    out.set("serve.train_loss_spikes", spike_count as f64);
    out.set("serve.train_loss_window_x_chance", worst_ratio);
    out.set("bench.gen_lag_p99_ms", rung.gen_lag_p99());
    let (base, with) = (untraced.windowed(0.5), rung.windowed(0.5));
    out.set("bench.trace_overhead", base / with);
    out.info(
        "trace_overhead_base",
        format!("reference-rung p50 latency: untraced {base:.4} ms, traced {with:.4} ms"),
    );

    // What `AdaptiveController::new` does per catalog model at server start.
    let gpu = GpuConfig::gtx_1080ti();
    for (model, spec) in catalog().iter().enumerate() {
        let plans = serve::resolve_spec_plans(spec, model, 0);
        for rows in [4, 8] {
            let span = tr.begin("gpu_sim.price", "", model as u64);
            std::hint::black_box(serve::simulated_iteration_us(&gpu, spec, &plans, rows));
            tr.end(span);
        }
    }
    out.set(
        "gpu_sim.price_us",
        mean(&tr.durations_us("gpu_sim.price", None)),
    );
    crate::write_trace(&tr, args, &mut out);
    out
}
