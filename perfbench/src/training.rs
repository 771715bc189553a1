//! `mlp_train` and `seq_train`: fixed-length training episodes, repeated
//! until the run's time is up.
//!
//! Every episode restarts from the same warmed-up models and trains each of
//! them for the same number of steps; episode `k` draws its own batches and
//! plans from `--seed` and `k`, so the timed phase sees many plan draws
//! while each episode's held-out loss stays a pure function of the seed.
//! That turns determinism into an output check: episode 0, run again at the
//! other pool width, must reproduce its held-out losses bit for bit.

use crate::metrics::{mlp_families, speedup_families, MLP_MODELS};
use crate::trace::{mean, median, percentile, Tracer};
use crate::{configure_pool, replay, sub_seed, Args, Outcome};
use approx_dropout::{DropoutPlan, DropoutScheme, LayerShape, SchemeSpec};
use data::{CorpusConfig, MnistConfig, SyntheticCorpus, SyntheticMnist};
use nn::lstm::{LstmLm, LstmLmConfig};
use nn::{Mlp, MlpConfig, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::Matrix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mlp,
    Seq,
}

/// Tensor-pool width of each workload. `mlp_train` runs at 2, sized for a
/// two-core machine. `seq_train` runs serially: at width 2 its thousands of
/// small fork-joins per step made its throughput swing 2.3x with the time
/// a shared host took from either core.
fn pool_threads(w: Workload) -> usize {
    match w {
        Workload::Mlp => 2,
        Workload::Seq => 1,
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub const MLP_INPUT: usize = 64;
pub const MLP_HIDDEN: usize = 1024;
pub const MLP_BATCH: usize = 256;
const MLP_CLASSES: usize = 10;
const MLP_EVAL_ROWS: usize = 512;
/// Steps per model per `mlp_train` episode.
const MLP_ROUNDS: u64 = 8;
/// Round-time percentile `tail_ms` reports, and over how many equal
/// stretches of a run's rounds: `tail_ms` is the median of the stretches'
/// percentiles, so one disturbed stretch cannot move it. Each stretch keeps
/// about ten rounds beyond its percentile: `mlp_train` fits about 60
/// rounds in 30 s, so it takes p80 over the whole run; `seq_train` fits
/// 450 to 650, so p90 over five stretches.
const MLP_TAIL: (f64, usize) = (0.8, 1);

const VOCAB: usize = 800;
const SEQ_BATCH: usize = 16;
const SEQ_LEN: usize = 12;
const SEQ_EVAL_ROWS: usize = 64;
/// Steps per model per `seq_train` episode.
const SEQ_ROUNDS: u64 = 150;
const SEQ_TAIL: (f64, usize) = (0.9, 5);

/// Plan sets kept per model in a traced run: the realised keep fractions
/// use all of them, the gpu-sim pricing and the layer replay the first
/// [`replay::REPLAYED_STEPS`].
const RECORDED_STEPS: usize = 256;

#[derive(Debug, Clone)]
enum Net {
    Mlp(Box<Mlp>),
    Lstm(Box<LstmLm>),
    Transformer(Box<TransformerLm>),
}

/// One model with its per-layer schemes and recycled plan buffers.
#[derive(Debug, Clone)]
struct Learner {
    /// `mlp.<family>`, `lstm` or `transformer`.
    tag: &'static str,
    net: Net,
    schemes: Vec<Box<dyn DropoutScheme>>,
    families: Vec<&'static str>,
    shapes: Vec<LayerShape>,
    plans: Vec<DropoutPlan>,
}

enum Data {
    Mnist {
        gen: SyntheticMnist,
        eval: (Matrix, Vec<usize>),
    },
    Corpus {
        gen: SyntheticCorpus,
        eval: Vec<Vec<usize>>,
    },
}

enum Batch {
    Dense(Matrix, Vec<usize>),
    Tokens(Vec<Vec<usize>>),
}

impl Data {
    fn batch(&self, index: u64) -> Batch {
        match self {
            Data::Mnist { gen, .. } => {
                let (x, y) = gen.batch(MLP_BATCH, index);
                Batch::Dense(x, y)
            }
            Data::Corpus { gen, .. } => Batch::Tokens(gen.batch(SEQ_BATCH, SEQ_LEN, index)),
        }
    }

    /// Training items one step consumes: samples or predicted tokens.
    fn items_per_step(&self) -> u64 {
        match self {
            Data::Mnist { .. } => MLP_BATCH as u64,
            Data::Corpus { .. } => (SEQ_BATCH * SEQ_LEN) as u64,
        }
    }

    /// Cross-entropy of a uniform guess, in nats.
    fn chance_loss(&self) -> f64 {
        match self {
            Data::Mnist { .. } => (MLP_CLASSES as f64).ln(),
            Data::Corpus { .. } => (VOCAB as f64).ln(),
        }
    }
}

impl Learner {
    fn step(&mut self, data: &Data, index: u64, rng: &mut StdRng, tr: &mut Tracer) -> f32 {
        let outer = tr.begin("bench.step", self.tag, index);
        let span = tr.begin("data.batch", self.tag, index);
        let batch = data.batch(index);
        tr.end(span);
        for layer in 0..self.plans.len() {
            let span = tr.begin("core.plan", self.families[layer], index);
            self.schemes[layer].plan_into(rng, self.shapes[layer], &mut self.plans[layer]);
            tr.end(span);
        }
        let span = tr.begin("nn.step", self.tag, index);
        let loss = match (&mut self.net, &batch) {
            (Net::Mlp(mlp), Batch::Dense(x, y)) => {
                mlp.train_batch_with_plans(x, y, &self.plans).loss
            }
            (Net::Lstm(lm), Batch::Tokens(t)) => lm.train_batch_with_plans(t, &self.plans).loss,
            (Net::Transformer(lm), Batch::Tokens(t)) => {
                lm.train_batch_with_plans(t, &self.plans).loss
            }
            _ => unreachable!("each workload pairs its models with its data"),
        };
        tr.end(span);
        tr.end(outer);
        loss
    }

    fn eval(&self, data: &Data, tr: &mut Tracer) -> f32 {
        let span = tr.begin("nn.eval", self.tag, 0);
        let loss = match (&self.net, data) {
            (Net::Mlp(mlp), Data::Mnist { eval, .. }) => mlp.evaluate(&eval.0, &eval.1).0,
            (Net::Lstm(lm), Data::Corpus { eval, .. }) => lm.evaluate(eval).loss,
            (Net::Transformer(lm), Data::Corpus { eval, .. }) => lm.evaluate(eval).loss,
            _ => unreachable!("each workload pairs its models with its data"),
        };
        tr.end(span);
        loss
    }
}

fn build_scheme(spec: &str, tr: &mut Tracer) -> (Box<dyn DropoutScheme>, &'static str) {
    let spec: SchemeSpec = spec.parse().expect("benchmark scheme specs parse");
    let span = tr.begin("core.search", spec.family(), 0);
    let scheme = spec.build().expect("benchmark scheme specs are valid");
    tr.end(span);
    (scheme, spec.family())
}

fn mlp_learners(seed: u64, tr: &mut Tracer) -> Vec<Learner> {
    MLP_MODELS
        .iter()
        .enumerate()
        .map(|(i, &(_, spec, tag))| {
            let (scheme, family) = build_scheme(spec, tr);
            let config = MlpConfig {
                input_dim: MLP_INPUT,
                hidden: vec![MLP_HIDDEN, MLP_HIDDEN],
                output_dim: MLP_CLASSES,
                dropout: scheme.clone(),
                learning_rate: 0.01,
                momentum: 0.9,
            };
            let mlp = Mlp::new(
                &config,
                &mut StdRng::seed_from_u64(sub_seed(seed, 100 + i as u64)),
            );
            let shapes = mlp.layer_shapes();
            Learner {
                tag,
                net: Net::Mlp(Box::new(mlp)),
                schemes: vec![scheme; shapes.len()],
                families: vec![family; shapes.len()],
                plans: vec![DropoutPlan::default(); shapes.len()],
                shapes,
            }
        })
        .collect()
}

fn seq_learners(seed: u64, tr: &mut Tracer) -> Vec<Learner> {
    let (lstm_scheme, lstm_family) = build_scheme("row:0.5:8", tr);
    let lstm = LstmLm::new(
        &LstmLmConfig::scaled_paper_lstm(VOCAB, 128, lstm_scheme.clone()),
        &mut StdRng::seed_from_u64(sub_seed(seed, 200)),
    );
    let lstm_shapes = lstm.layer_shapes();
    let (attn, attn_family) = build_scheme("transformer:0.25:16", tr);
    let (ffn, ffn_family) = build_scheme("row:0.3:8", tr);
    let config = TransformerLmConfig {
        vocab: VOCAB,
        model_dim: 64,
        heads: 4,
        ff_dim: 128,
        layers: 2,
        attn_dropout: attn.clone(),
        ffn_dropout: ffn.clone(),
        learning_rate: 0.05,
        momentum: 0.0,
        grad_clip: 5.0,
    };
    let transformer = TransformerLm::new(&config, &mut StdRng::seed_from_u64(sub_seed(seed, 201)));
    let t_shapes = transformer.layer_shapes();
    // Plans alternate attention, FFN per block (`TransformerLm::layer_shapes`).
    let blocks = config.layers;
    vec![
        Learner {
            tag: "lstm",
            net: Net::Lstm(Box::new(lstm)),
            schemes: vec![lstm_scheme; lstm_shapes.len()],
            families: vec![lstm_family; lstm_shapes.len()],
            plans: vec![DropoutPlan::default(); lstm_shapes.len()],
            shapes: lstm_shapes,
        },
        Learner {
            tag: "transformer",
            net: Net::Transformer(Box::new(transformer)),
            schemes: (0..blocks)
                .flat_map(|_| [attn.clone(), ffn.clone()])
                .collect(),
            families: (0..blocks)
                .flat_map(|_| [attn_family, ffn_family])
                .collect(),
            plans: vec![DropoutPlan::default(); t_shapes.len()],
            shapes: t_shapes,
        },
    ]
}

/// Builds the data generator and the models, then warms every model up
/// with one training step on batch 0 — the episodes start from there.
fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> (Data, Vec<Learner>) {
    let data = match w {
        Workload::Mlp => {
            let gen = SyntheticMnist::new(MnistConfig {
                dim: MLP_INPUT,
                classes: MLP_CLASSES,
                noise: 0.25,
                seed: sub_seed(seed, 1),
            });
            let eval = gen.eval_set(MLP_EVAL_ROWS);
            Data::Mnist { gen, eval }
        }
        Workload::Seq => {
            let gen = SyntheticCorpus::new(CorpusConfig {
                vocab: VOCAB,
                seed: sub_seed(seed, 2),
                ..CorpusConfig::default()
            });
            let eval = gen.batch(SEQ_EVAL_ROWS, SEQ_LEN, u64::MAX / 5);
            Data::Corpus { gen, eval }
        }
    };
    let mut learners = match w {
        Workload::Mlp => mlp_learners(seed, tr),
        Workload::Seq => seq_learners(seed, tr),
    };
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    for learner in &mut learners {
        learner.step(&data, 0, &mut rng, &mut Tracer::new(false, Instant::now()));
    }
    (data, learners)
}

#[derive(Debug, Default)]
struct Episode {
    eval: Vec<f32>,
    /// Wall time of each round (one step of every model).
    round_secs: Vec<f64>,
    steps: u64,
    loop_secs: f64,
    nonfinite: u64,
}

/// Trains copies of `initial` for `rounds` steps each (models take turns
/// step by step) on episode `index`'s own batches and plan draws, and
/// evaluates them. With `record`, keeps the plan sets of the first steps of
/// every model.
fn episode(
    initial: &[Learner],
    data: &Data,
    seed: u64,
    index: u64,
    rounds: u64,
    tr: &mut Tracer,
    mut record: Option<&mut Vec<Vec<Vec<DropoutPlan>>>>,
) -> Episode {
    let mut learners = initial.to_vec();
    let episode_seed = sub_seed(seed, 1000 + index);
    let mut rngs: Vec<StdRng> = (0..learners.len())
        .map(|i| StdRng::seed_from_u64(sub_seed(episode_seed, i as u64)))
        .collect();
    let mut ep = Episode::default();
    let started = Instant::now();
    for round in 1..=rounds {
        let t = Instant::now();
        let batch = index * rounds + round;
        for (i, learner) in learners.iter_mut().enumerate() {
            let loss = learner.step(data, batch, &mut rngs[i], tr);
            ep.steps += 1;
            if !loss.is_finite() {
                ep.nonfinite += 1;
            }
            if let Some(rec) = record.as_deref_mut() {
                if rec[i].len() < RECORDED_STEPS {
                    rec[i].push(learner.plans.clone());
                }
            }
        }
        ep.round_secs.push(t.elapsed().as_secs_f64());
    }
    ep.loop_secs = started.elapsed().as_secs_f64();
    ep.eval = learners.iter().map(|l| l.eval(data, tr)).collect();
    ep
}

/// Runs episodes `first`, `first + 1`, ... for about `seconds`: another
/// episode starts only while at most half of an average one would overrun.
#[allow(clippy::too_many_arguments)]
fn timed_episodes(
    initial: &[Learner],
    data: &Data,
    seed: u64,
    first: u64,
    rounds: u64,
    seconds: f64,
    tr: &mut Tracer,
    mut record: Option<&mut Vec<Vec<Vec<DropoutPlan>>>>,
) -> Vec<Episode> {
    let started = Instant::now();
    let mut episodes = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let average = elapsed / episodes.len().max(1) as f64;
        if !episodes.is_empty() && elapsed + average / 2.0 > seconds {
            break;
        }
        let index = first + episodes.len() as u64;
        episodes.push(episode(
            initial,
            data,
            seed,
            index,
            rounds,
            tr,
            record.as_deref_mut(),
        ));
    }
    episodes
}

/// Median over episodes of training items per second of loop time; the
/// median keeps a stretch of interference on a shared host from moving it.
fn items_per_s(episodes: &[Episode], per_step: u64) -> f64 {
    let rates: Vec<f64> = episodes
        .iter()
        .map(|e| (e.steps * per_step) as f64 / e.loop_secs)
        .collect();
    median(&rates)
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

pub fn run(w: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let threads = pool_threads(w);
    out.info("pool_threads", threads.to_string());
    out.info("tune_gemm", configure_pool(threads));
    let origin = Instant::now();
    let mut traced = Tracer::new(true, origin);
    let mut untraced = Tracer::new(false, origin);
    let (rounds, (tail_q, tail_stretches)) = match w {
        Workload::Mlp => (MLP_ROUNDS, MLP_TAIL),
        Workload::Seq => (SEQ_ROUNDS, SEQ_TAIL),
    };

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let tr = if args.trace {
            &mut traced
        } else {
            &mut untraced
        };
        state = Some(setup(w, args.seed, tr));
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let (data, initial) = state.expect("at least one set-up ran");
    let per_step = data.items_per_step();

    // The untraced phase takes the whole run, or half of a traced run.
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut episodes = timed_episodes(
        &initial,
        &data,
        args.seed,
        0,
        rounds,
        untraced_secs,
        &mut untraced,
        None,
    );
    let base_items_per_s = items_per_s(&episodes, per_step);
    let mut recorded = vec![Vec::new(); initial.len()];
    let mut traced_items_per_s = 0.0;
    if args.trace {
        let traced_episodes = timed_episodes(
            &initial,
            &data,
            args.seed,
            episodes.len() as u64,
            rounds,
            args.seconds / 2.0,
            &mut traced,
            Some(&mut recorded),
        );
        traced_items_per_s = items_per_s(&traced_episodes, per_step);
        episodes.extend(traced_episodes);
    }

    // Determinism: episode 0 again, at the other pool width (1 or 2), must
    // reproduce the first run of it bit for bit.
    let other = 3 - threads;
    tensor::pool::set_threads(other);
    let replay = episode(&initial, &data, args.seed, 0, rounds, &mut untraced, None);
    tensor::pool::set_threads(threads);
    out.check(bits(&replay.eval) == bits(&episodes[0].eval), || {
        format!(
            "episode 0 held-out losses {:?} at pool width {threads} and {:?} at width {other} differ",
            episodes[0].eval, replay.eval
        )
    });
    let all = episodes.iter().chain(std::iter::once(&replay));
    let eval_loss = mean(
        &episodes[0]
            .eval
            .iter()
            .map(|&l| f64::from(l))
            .collect::<Vec<_>>(),
    );
    let chance = data.chance_loss();
    out.check(eval_loss < chance, || {
        format!("eval_loss {eval_loss:.4} nats is not below chance {chance:.4}")
    });
    out.attempted = all.clone().map(|e| e.steps).sum();
    let failed = all.map(|e| e.nonfinite).sum();
    out.failed = failed;
    out.check(failed == 0, || {
        format!("{failed} training steps had a non-finite loss")
    });
    out.info("eval_loss_nats", format!("{eval_loss:.6}"));
    for (learner, loss) in initial.iter().zip(&episodes[0].eval) {
        out.info(&format!("eval_loss.{}", learner.tag), format!("{loss:.6}"));
    }
    out.info("episodes", episodes.len().to_string());

    if !args.trace {
        let round_ms: Vec<f64> = episodes
            .iter()
            .flat_map(|e| e.round_secs.iter().map(|s| s * 1e3))
            .collect();
        out.set("items_per_s", base_items_per_s);
        out.set("p50_ms", median(&round_ms));
        let stretch = round_ms.len().div_ceil(tail_stretches);
        let tails: Vec<f64> = round_ms
            .chunks(stretch)
            .map(|c| percentile(c, tail_q))
            .collect();
        out.set("tail_ms", median(&tails));
        out.set("setup_s", median(&setup_secs));
        out.set("peak_rss_mb", crate::peak_rss_mb());
        out.info("rounds_timed", round_ms.len().to_string());
        return out;
    }

    out.set(
        "bench.trace_overhead",
        traced_items_per_s / base_items_per_s,
    );
    out.info(
        "trace_overhead_base",
        format!("untraced {base_items_per_s:.1} items/s, traced {traced_items_per_s:.1} items/s"),
    );
    out.set(
        "data.batch_us",
        mean(&traced.durations_us("data.batch", None)),
    );
    let plan_families: std::collections::BTreeSet<&str> = initial
        .iter()
        .flat_map(|l| l.families.iter().copied())
        .collect();
    for family in plan_families {
        let d = traced.durations_us("core.plan", Some(family));
        out.set(format!("core.plan_us.{family}"), mean(&d));
    }
    let search: f64 = traced.durations_us("core.search", None).iter().sum();
    out.set("core.search_ms", search / 1e3 / SETUPS as f64);
    let mut kept: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (learner, plans) in initial.iter().zip(&recorded) {
        let step = mean(&traced.durations_us("nn.step", Some(learner.tag)));
        out.set(format!("nn.step_ms.{}", learner.tag), step / 1e3);
        for (layer, family) in learner.families.iter().enumerate() {
            let nominal = learner.schemes[layer].nominal_rate();
            kept.entry(family).or_default().extend(
                plans
                    .iter()
                    .map(|set| kept_vs_nominal(&set[layer], nominal)),
            );
        }
    }
    for (family, ratios) in kept {
        out.set(format!("core.kept_frac.{family}"), mean(&ratios));
    }
    out.set(
        "nn.eval_ms",
        mean(&traced.durations_us("nn.eval", None)) / 1e3,
    );

    if w == Workload::Mlp {
        let base = out.values["nn.step_ms.mlp.bernoulli"];
        for family in speedup_families() {
            out.set(
                format!("nn.speedup.{family}"),
                base / out.values[&format!("nn.step_ms.mlp.{family}")],
            );
        }
        let by_family: Vec<replay::FamilyPlans> = mlp_families()
            .zip(recorded)
            .map(|(family, mut sets)| {
                sets.truncate(replay::REPLAYED_STEPS);
                (family, sets)
            })
            .collect();
        replay::gpu_sim(&by_family, &mut traced, &mut out);
        replay::layers(&by_family, args.seed, &mut traced, &mut out);
    }
    crate::write_trace(&traced, args, &mut out);
    out
}

/// Realised kept fraction of a plan over the scheme's nominal kept
/// fraction. CRS drops no units, so its kept fraction is that of the inner
/// dimension it samples.
fn kept_vs_nominal(plan: &DropoutPlan, nominal_rate: f64) -> f64 {
    let kept = match (plan.crs_selection(), plan.realized_drop_fraction()) {
        (Some(sel), d) if d == 0.0 && sel.total() > 0 => {
            sel.kept_indices().len() as f64 / sel.total() as f64
        }
        (_, d) => 1.0 - d,
    };
    kept / (1.0 - nominal_rate)
}
