//! What every workload shares once it has a model to serve: the rounds
//! of load phases with deploys in the high-rate blocks, the fixed
//! evaluation set, and the bit-for-bit check of every answer against the
//! checkpoint whose version gave it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::serving::{content_tokens, lstm_config, to_ids, top_class, write_model_dir, CLASSES};
use metrics::ClassificationReport;
use nn::{AdamW, LrSchedule, LstmClassifier, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use textproc::Vocabulary;

use crate::inputs::{mix, RecipeSource};
use crate::loadgen::{closed_loop, fixed_count, open_loop, Answer, Phase, Reply, Source, Target};
use crate::report::Metrics;
use crate::stats::{median, percentile, window_rates, Sample, Samples, Stopwatch};

/// Open-loop rate well below one arrival per 2 ms batching window, so
/// batches rarely fill (at a fixed rate every batch holds one request).
pub const LOW_RPS: f64 = 250.0;
/// High open-loop rate of both serving workloads: about 30% of the
/// in-process capacity (the smaller of the two) on a 2-core host, so a
/// host that steals a quarter of the CPU does not push it to the knee.
pub const SERVING_HIGH_RPS: f64 = 1200.0;
/// Completions per capacity window.
pub const RATE_WINDOW: usize = 250;
/// Load rounds per run.
pub const ROUNDS: usize = 5;
/// Shares of a round's time for the capacity, low-rate and high-rate
/// blocks. The low-rate block gets the most, so that a 10 s run still
/// collects over a thousand low-rate latencies: enough for a p99 with
/// ten samples beyond it.
pub const SHARES: [f64; 3] = [0.32, 0.44, 0.24];
/// Where in each high-rate block a deploy starts.
pub const DEPLOY_AT: [f64; 2] = [0.25, 0.75];
/// Labelled recipes in the evaluation set.
pub const EVAL_RECIPES: u64 = 1000;
/// Untimed requests that fill the feature cache before the timed phases.
pub const WARMUP: u64 = 4096;
/// Tags evaluation-set recipe ids apart from load-phase ones.
pub const EVAL_TAG: u64 = 1 << 62;

/// The served checkpoints: model directories on disk plus the same
/// weights in memory as the reference engines.
pub struct Checkpoints {
    /// One servable directory (manifest + checkpoint) per model.
    pub dirs: Vec<PathBuf>,
    /// The reference engines, same order.
    pub models: Vec<LstmClassifier>,
    /// The serving vocabulary.
    pub vocab: Vocabulary,
    /// Its content tokens.
    pub tokens: Vec<String>,
    /// The two fits.
    pub fits: Samples,
}

/// Trains the two serving-scale LSTMs the serving workloads deploy back
/// and forth (different seeds, so their answers differ) and writes them
/// out under `dir`. Each sees 40 recipes per cuisine for 2 epochs,
/// enough for about 0.85 accuracy so quality varies little by seed.
pub fn train_checkpoints(seed: u64, dir: &Path) -> Result<Checkpoints, String> {
    crate::progress("training the served checkpoints");
    let tokens = content_tokens();
    let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
    let mut dirs = Vec::new();
    let mut models = Vec::new();
    let mut fits = Samples::default();
    for k in 0..2u64 {
        let model_seed = mix(seed ^ (0x7a11 + k));
        let train: Vec<(Vec<usize>, usize)> = RecipeSource::new(tokens.clone(), model_seed)
            .take(0..(40 * CLASSES) as u64)
            .iter()
            .map(|(text, class)| (to_ids(text, &vocab), *class))
            .collect();
        let mut model = LstmClassifier::new(lstm_config(), &mut StdRng::seed_from_u64(model_seed));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 2,
            batch_size: 64,
            schedule: LrSchedule::Constant(8e-3),
            seed: model_seed,
            ..TrainerConfig::default()
        });
        let clock = Stopwatch::start();
        trainer
            .fit(&mut model, &mut AdamW::default(), &train, None)
            .map_err(|e| format!("train serving model {k}: {e}"))?;
        fits.push(clock.stop());
        let path = dir.join(format!("ckpt{k}"));
        write_model_dir(&path, &model, &vocab, false)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        dirs.push(path);
        models.push(model);
    }
    Ok(Checkpoints {
        dirs,
        models,
        vocab,
        tokens,
        fits,
    })
}

/// One round of the three load phases.
#[derive(Debug, Default)]
pub struct Round {
    /// Closed-loop capacity block.
    pub capacity: Phase,
    /// Its clock, for the share of CPU time the host stole.
    pub capacity_clock: Sample,
    /// Open loop at [`LOW_RPS`].
    pub low: Phase,
    /// Open loop at the workload's high rate, with the deploys.
    pub high: Phase,
}

/// All phases of one measured pass.
#[derive(Debug, Default)]
pub struct Body {
    /// Untimed cache fill.
    pub warmup: Phase,
    /// The evaluation set, once on each checkpoint.
    pub evals: Vec<Phase>,
    /// The load rounds.
    pub rounds: Vec<Round>,
    /// The timed deploys.
    pub deploys: Samples,
}

impl Body {
    /// Every phase, in run order.
    pub fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.warmup).chain(&self.evals).chain(
            self.rounds
                .iter()
                .flat_map(|r| [&r.capacity, &r.low, &r.high]),
        )
    }

    /// Every answer of every phase.
    pub fn answers(&self) -> impl Iterator<Item = &Answer> {
        self.phases().flat_map(|p| p.answers.iter())
    }

    /// Answers of the load phases only.
    pub fn load_answers(&self) -> impl Iterator<Item = &Answer> {
        self.rounds
            .iter()
            .flat_map(|r| [&r.capacity, &r.low, &r.high])
            .flat_map(|p| p.answers.iter())
    }

    /// Requests attempted and failed over all phases.
    pub fn counts(&self) -> (u64, u64) {
        self.phases()
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    /// Serving wall time over all phases, seconds.
    pub fn wall(&self) -> f64 {
        self.phases().map(|p| p.wall.as_secs_f64()).sum()
    }

    /// Completion rates of every capacity window of every round, per
    /// second of CPU time the host did not steal during the round's block.
    pub fn capacity_rates(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| {
                let kept = r.capacity_clock.kept();
                window_rates(&r.capacity.completions, RATE_WINDOW)
                    .into_iter()
                    .map(move |rate| rate / kept)
            })
            .collect()
    }

    /// Latencies of every low (`high = false`) or high phase, µs.
    pub fn latencies(&self, high: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| {
                if high { &r.high } else { &r.low }
                    .latency_us
                    .iter()
                    .copied()
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// What a workload plugs into [`run_body`].
pub struct Plan<'a> {
    /// Load-phase requests.
    pub load: &'a mut Source<'a>,
    /// Evaluation-set requests.
    pub eval: &'a mut Source<'a>,
    /// Outstanding requests in the closed loops.
    pub window: usize,
    /// Seconds the load rounds take together.
    pub seconds: u64,
    /// The high open-loop rate.
    pub high_rps: f64,
    /// Swaps in the checkpoint that is not live, timed.
    pub deploy: &'a (dyn Fn() -> Result<Sample, String> + Sync),
    /// Runs one cold set-up while the served model is idle.
    pub cold: &'a mut dyn FnMut() -> Result<(), String>,
}

/// Runs one measured pass: the warm-up; the evaluation set, a swap to
/// the other checkpoint, and the evaluation set again; then [`ROUNDS`]
/// rounds of a capacity block, a low-rate block and a high-rate block
/// with deploys at [`DEPLOY_AT`] of it, each block after a cold set-up.
/// Spreading every measurement over the whole run keeps a few slow
/// seconds of a shared host from landing on one metric only; a host CPU
/// slows down in phases of about half a second, so set-ups taken back
/// to back would share one phase.
pub fn run_body(target: &mut dyn Target, next: &mut u64, plan: Plan<'_>) -> Result<Body, String> {
    let Plan {
        load,
        eval,
        window,
        seconds,
        high_rps,
        deploy,
        cold,
    } = plan;
    let warmup = fixed_count(target, load, next, window, WARMUP);
    let first = fixed_count(target, eval, next, window, EVAL_RECIPES);
    deploy()?;
    let second = fixed_count(target, eval, next, window, EVAL_RECIPES);
    let share = seconds as f64 / ROUNDS as f64;
    let mut rounds = Vec::new();
    let mut deploys = Samples::default();
    for r in 0..ROUNDS {
        crate::progress(&format!("round {}", r + 1));
        cold()?;
        let clock = Stopwatch::start();
        let capacity = closed_loop(
            target,
            load,
            next,
            window,
            Duration::from_secs_f64(share * SHARES[0]),
        );
        let capacity_clock = clock.stop();
        crate::progress(&format!(
            "capacity {:.0}/s over {} windows",
            median(&window_rates(&capacity.completions, RATE_WINDOW)),
            capacity.completions.len() / RATE_WINDOW
        ));
        cold()?;
        let low = open_loop(
            target,
            load,
            next,
            LOW_RPS,
            Duration::from_secs_f64(share * SHARES[1]),
            &[],
            &mut |_| {},
        );
        cold()?;
        let (high, timed) = std::thread::scope(|s| {
            let mut running = Vec::new();
            let high = open_loop(
                target,
                load,
                next,
                high_rps,
                Duration::from_secs_f64(share * SHARES[2]),
                &DEPLOY_AT,
                &mut |_| running.push(s.spawn(deploy)),
            );
            let timed: Result<Vec<Sample>, String> = running
                .into_iter()
                .map(|h| h.join().map_err(|_| "deploy thread panicked".to_string())?)
                .collect();
            (high, timed)
        });
        let timed = timed?;
        if timed.len() != DEPLOY_AT.len() {
            return Err(format!(
                "{} of {} deploys ran",
                timed.len(),
                DEPLOY_AT.len()
            ));
        }
        for sample in timed {
            deploys.push(sample);
        }
        rounds.push(Round {
            capacity,
            capacity_clock,
            low,
            high,
        });
    }
    Ok(Body {
        warmup,
        evals: vec![first, second],
        rounds,
        deploys,
    })
}

/// Checks every answer bit for bit against `predict_proba_batch` of the
/// checkpoint `checkpoint_of` names for it, and that the served argmax
/// is the reference's. Reference passes are batched; batching never
/// changes the fused engine's answers.
pub fn verify(
    answers: &[&Answer],
    text_of: &(dyn Fn(u64) -> String + Sync),
    vocab: &Vocabulary,
    models: &[LstmClassifier],
    checkpoint_of: &(dyn Fn(&Reply) -> Option<usize> + Sync),
) -> Result<(), String> {
    crate::progress(&format!("checking {} answers", answers.len()));
    let mut work: HashMap<(usize, u64), Vec<&Reply>> = HashMap::new();
    for a in answers {
        let ckpt = checkpoint_of(&a.reply).ok_or_else(|| {
            format!(
                "request {} answered by unknown version {} on slot {}",
                a.req, a.reply.version, a.reply.slot
            )
        })?;
        work.entry((ckpt, a.recipe)).or_default().push(&a.reply);
    }
    let mut keys: Vec<(usize, u64)> = work.keys().copied().collect();
    keys.sort_unstable();
    let check = |part: &[(usize, u64)]| -> Result<(), String> {
        let ids: Vec<Vec<usize>> = part.iter().map(|k| to_ids(&text_of(k.1), vocab)).collect();
        let seqs: Vec<&[usize]> = ids.iter().map(Vec::as_slice).collect();
        let reference = models[part[0].0].predict_proba_batch(&seqs);
        for (key, want) in part.iter().zip(&reference) {
            for got in &work[key] {
                let same = got.probs.len() == want.len()
                    && got
                        .probs
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same || got.top_class != top_class(want) {
                    return Err(format!(
                        "recipe {} (checkpoint {}, version {}, slot {}): served {:?} != reference {:?}",
                        key.1, key.0, got.version, got.slot, got.probs, want
                    ));
                }
            }
        }
        Ok(())
    };
    // reference passes of up to 256 answers, each over one checkpoint,
    // shared out over the cores
    let parts: Vec<&[(usize, u64)]> = keys
        .chunk_by(|a, b| a.0 == b.0)
        .flat_map(|same| same.chunks(256))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let parts = &parts;
                let check = &check;
                s.spawn(move || {
                    parts
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .try_for_each(|p| check(p))
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "check thread panicked".to_string())?)
    })
}

/// Accuracy and macro-F1 of the served answers to the evaluation set,
/// averaged over its two passes (one per checkpoint).
pub fn quality(body: &Body, labels: &[usize]) -> Result<(f64, f64), String> {
    let mut acc = 0.0;
    let mut f1 = 0.0;
    for eval in &body.evals {
        if eval.answers.len() != labels.len() {
            return Err(format!(
                "evaluation set: {} of {} answered",
                eval.answers.len(),
                labels.len()
            ));
        }
        let (gold, pred): (Vec<usize>, Vec<usize>) = eval
            .answers
            .iter()
            .map(|a| (labels[(a.recipe & !EVAL_TAG) as usize], a.reply.top_class))
            .unzip();
        let report = ClassificationReport::evaluate(CLASSES, &gold, &pred, None);
        acc += report.accuracy / 2.0;
        f1 += report.f1 / 2.0;
    }
    Ok((acc, f1))
}

/// The serving end-to-end metrics of one pass.
pub fn end_to_end(m: &mut Metrics, body: &Body) {
    m.set("capacity_rps", median(&body.capacity_rates()));
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(f64::NAN);
    m.set("low.p50_us", p50(&body.latencies(false)));
    m.set("high.p50_us", p50(&body.latencies(true)));
    m.set("deploy_s", body.deploys.interquartile_mean());
}

/// Tail percentiles with their sample counts, and how late the load
/// generator sent (reported, never gated). A p99 without ten samples
/// beyond it reads 0.
pub fn tails(m: &mut Metrics, body: &Body) {
    let p99 = |v: &[f64]| percentile(v, 0.99).unwrap_or(0.0);
    let low = body.latencies(false);
    let high = body.latencies(true);
    m.set("tail.low.p99_us", p99(&low));
    m.set("tail.low.samples", low.len() as f64);
    m.set("tail.high.p99_us", p99(&high));
    m.set("tail.high.samples", high.len() as f64);
    let mut late: Vec<f64> = body
        .rounds
        .iter()
        .flat_map(|r| r.low.late_us.iter().chain(&r.high.late_us))
        .copied()
        .collect();
    late.sort_by(f64::total_cmp);
    m.set("loadgen.late_p99_us", p99(&late));
}

/// Batch size and cache hit rate as the answers of the load phases
/// report them. Mean batch size is per batch: a batch of `b` contributes
/// `b` answers of weight `1/b`.
pub fn answer_layers(m: &mut Metrics, body: &Body) {
    let (mut n, mut batches, mut hits) = (0.0, 0.0, 0.0);
    for a in body.load_answers() {
        n += 1.0;
        batches += 1.0 / a.reply.batch_size as f64;
        hits += f64::from(u8::from(a.reply.cache_hit));
    }
    m.set("service.batch_size_mean", n / batches);
    m.set("cache.hit_rate", hits / n);
}
