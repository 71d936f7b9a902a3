//! `table4-lite`: the paper's own pipeline at `Scale::Small` with cut
//! neural epochs, then the pipeline's trained LSTM served in-process on
//! its test split.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cuisine::{ModelKind, Pipeline, PipelineConfig, Scale};
use nn::{CheckpointManager, LstmClassifier, SequenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{BatchServer, LstmServing, ModelRegistry, ServeConfig};

use crate::inproc::{ClientTimes, InprocTarget, Sent, MODEL, WINDOW};
use crate::layers::span_secs_under;
use crate::loadgen::Answer;
use crate::report::Metrics;
use crate::serving::{self, Body, Plan, EVAL_TAG};
use crate::stats::{mean, Sample, Samples, Stopwatch};
use crate::{Outcome, Run};

/// The four Table IV rows this workload trains, with the names of their
/// accuracy and macro-F1 metrics.
const MODELS: [(ModelKind, &str, &str); 4] = [
    (
        ModelKind::LogReg,
        "ml.logreg.accuracy",
        "ml.logreg.macro_f1",
    ),
    (
        ModelKind::NaiveBayes,
        "ml.naive_bayes.accuracy",
        "ml.naive_bayes.macro_f1",
    ),
    (ModelKind::Lstm, "nn.lstm.accuracy", "nn.lstm.macro_f1"),
    (
        ModelKind::Roberta,
        "nn.roberta.accuracy",
        "nn.roberta.macro_f1",
    ),
];

/// High open-loop rate: about 30% of the served LSTM's capacity (it is
/// wider than the serving-scale model and its recipes are longer).
const HIGH_RPS: f64 = 450.0;

/// The pipeline configuration: `Scale::Small`, LSTM 2 epochs, RoBERTa
/// 2 MLM pre-training epochs and 1 fine-tuning epoch, checkpoints under
/// `dir` so the trained LSTM can be served afterwards.
pub fn config(seed: u64, dir: &std::path::Path) -> PipelineConfig {
    let mut config = PipelineConfig::new(Scale::Small, seed);
    config.models.lstm_trainer.epochs = 2;
    config.models.finetune.epochs = 1;
    config.models.roberta_pretrain_epochs = 1;
    config.checkpoint_dir = Some(dir.join("table4-checkpoints"));
    config
}

/// What training the four models gave.
#[derive(Debug, Clone)]
pub struct Trained {
    /// Per model: `(accuracy, macro-F1)`.
    pub rows: Vec<(f64, f64)>,
    /// Per model: fit + evaluate.
    pub runs: Samples,
}

impl Trained {
    /// Mean test accuracy and macro-F1 over the models.
    pub fn quality(&self) -> (f64, f64) {
        let acc: Vec<f64> = self.rows.iter().map(|r| r.0).collect();
        let f1: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        (mean(&acc), mean(&f1))
    }
}

/// Runs the four models through `Pipeline::run`, timing each call.
pub fn train(pipeline: &Pipeline, config: &PipelineConfig) -> Result<Trained, String> {
    let mut rows = Vec::new();
    let mut runs = Samples::default();
    for (kind, _, _) in MODELS {
        let clock = Stopwatch::start();
        let result = pipeline.run(kind, config);
        runs.push(clock.stop());
        let (acc, f1) = (result.report.accuracy, result.report.f1);
        if !(0.0..=1.0).contains(&acc) || !(0.0..=1.0).contains(&f1) {
            return Err(format!("{}: accuracy {acc}, macro-F1 {f1}", kind.name()));
        }
        rows.push((acc, f1));
    }
    Ok(Trained { rows, runs })
}

/// Test accuracy of always predicting the training split's most common
/// cuisine: the floor every model must be read against.
pub fn majority_accuracy(pipeline: &Pipeline) -> f64 {
    let train = pipeline.labels_of(&pipeline.data.split.train);
    let mut counts = vec![0usize; train.iter().max().map_or(1, |m| m + 1)];
    for &l in &train {
        counts[l] += 1;
    }
    let majority = (0..counts.len())
        .max_by_key(|&c| (counts[c], usize::MAX - c))
        .unwrap_or(0);
    let test = pipeline.labels_of(&pipeline.data.split.test);
    test.iter().filter(|&&l| l == majority).count() as f64 / test.len().max(1) as f64
}

/// The pipeline's trained LSTM, restored from its checkpoint directory.
fn restore_lstm(config: &PipelineConfig) -> Result<LstmClassifier, String> {
    let dir = config
        .checkpoint_dir
        .as_ref()
        .expect("table4-lite checkpoints its models")
        .join("lstm");
    let mut model = LstmClassifier::new(config.models.lstm, &mut StdRng::seed_from_u64(0));
    let found = CheckpointManager::new(&dir)
        .and_then(|m| m.load_latest(model.store_mut()))
        .map_err(|e| format!("restore {}: {e}", dir.display()))?;
    found.ok_or_else(|| format!("no LSTM checkpoint in {}", dir.display()))?;
    Ok(model)
}

/// The test split as request text: each recipe's entity names joined
/// by `", "`, skipping recipes that canonicalize to nothing.
fn test_texts(pipeline: &Pipeline) -> Vec<String> {
    let data = &pipeline.data;
    data.split
        .test
        .iter()
        .map(|&i| {
            data.dataset.recipes[i]
                .tokens
                .iter()
                .map(|&t| data.dataset.table.name(t))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .filter(|text| !cuisine::featurize::entity_tokens(text).is_empty())
        .collect()
}

/// Records the per-layer metrics only a traced pass can give.
fn traced_layers(m: &mut Metrics, snap: &trace::TraceSnapshot, trained: &Trained) {
    // mean per `Pipeline::prepare`: the rounds' cold set-ups prepare too
    for (name, span) in [
        ("recipedb.generate_ms", "featurize.generate"),
        ("textproc.preprocess_ms", "featurize.preprocess"),
        ("textproc.encode_ms", "featurize.encode"),
    ] {
        let ms: Vec<f64> = crate::layers::spans(snap, span)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        m.set(name, mean(&ms));
    }
    for ((kind, acc, f1), row) in MODELS.iter().zip(&trained.rows) {
        let model = format!("model[{}]", kind.name());
        match kind {
            ModelKind::LogReg => m.set("ml.logreg.fit_s", span_secs_under(snap, "train", &model)),
            ModelKind::NaiveBayes => {
                m.set(
                    "ml.naive_bayes.fit_s",
                    span_secs_under(snap, "train", &model),
                );
            }
            ModelKind::Lstm => m.set(
                "nn.lstm.fit_s",
                span_secs_under(snap, "nn.trainer.fit", &model),
            ),
            _ => {
                m.set(
                    "nn.roberta.pretrain_s",
                    span_secs_under(snap, "pretrain", &model),
                );
                m.set(
                    "nn.roberta.finetune_s",
                    span_secs_under(snap, "nn.trainer.fit", &model),
                );
            }
        }
        m.set(acc, row.0);
        m.set(f1, row.1);
    }
    let fit_s: f64 = crate::layers::spans(snap, "nn.trainer.fit")
        .map(|s| s.dur_ns as f64 / 1e9)
        .sum();
    m.set(
        "nn.train.tokens_per_sec",
        snap.counter("nn.train.tokens").unwrap_or(0) as f64 / fit_s.max(1e-9),
    );
}

/// `table4-lite`.
pub fn table4_lite(run: &Run) -> Result<Outcome, String> {
    let config = config(run.seed, &run.dir);
    let mut setups = Samples::default();
    let mut prepare = || {
        let clock = Stopwatch::start();
        let pipeline = Pipeline::prepare(&config);
        setups.push(clock.stop());
        pipeline
    };
    let pipeline = prepare();
    let floor = majority_accuracy(&pipeline);
    eprintln!("perfbench: table4-lite majority-class accuracy floor {floor:.4}");
    let texts = test_texts(&pipeline);
    let n = texts.len() as u64;

    let mut pass =
        |outcome: &mut Outcome| -> Result<(Trained, Body, f64, ClientTimes, Sent), String> {
            crate::progress("training LogReg, Naive Bayes, LSTM, RoBERTa");
            let trained = train(&pipeline, &config)?;
            outcome.count((MODELS.len() as u64, 0));
            let registry = Arc::new(ModelRegistry::new());
            let started = Instant::now();
            let reference = restore_lstm(&config)?;
            let first = registry
                .publish(
                    MODEL,
                    Box::new(LstmServing::new(
                        reference.clone(),
                        pipeline.data.vocab.clone(),
                    )),
                )
                .map_err(|e| format!("publish: {e}"))?;
            let load_ms = started.elapsed().as_secs_f64() * 1e3;
            let versions = Mutex::new(HashSet::from([first.version()]));
            let deploy = || -> Result<Sample, String> {
                let clock = Stopwatch::start();
                let model = restore_lstm(&config)?;
                let loaded = registry
                    .publish(
                        MODEL,
                        Box::new(LstmServing::new(model, pipeline.data.vocab.clone())),
                    )
                    .map_err(|e| format!("publish: {e}"))?;
                let sample = clock.stop();
                versions
                    .lock()
                    .expect("version set lock")
                    .insert(loaded.version());
                Ok(sample)
            };
            let server = BatchServer::start(Arc::clone(&registry), MODEL, ServeConfig::default())
                .map_err(|e| e.to_string())?;
            let mut target = InprocTarget::new(&server);
            let mut load = |req: u64| (req % n, texts[(req % n) as usize].clone());
            let mut i = 0u64;
            let mut eval_src = |_req: u64| {
                let k = i % n;
                i += 1;
                (EVAL_TAG | k, texts[k as usize].clone())
            };
            let mut cold = || -> Result<(), String> {
                drop(prepare());
                Ok(())
            };
            let mut next = 0u64;
            let body = serving::run_body(
                &mut target,
                &mut next,
                Plan {
                    load: &mut load,
                    eval: &mut eval_src,
                    window: WINDOW,
                    seconds: run.seconds,
                    high_rps: HIGH_RPS,
                    deploy: &deploy,
                    cold: &mut cold,
                },
            )?;
            let answers: Vec<&Answer> = body.answers().collect();
            let known = versions.lock().expect("version set lock").clone();
            outcome.check(serving::verify(
                &answers,
                &|recipe| texts[(recipe & !EVAL_TAG) as usize].clone(),
                &pipeline.data.vocab,
                std::slice::from_ref(&reference),
                &|r| known.contains(&r.version).then_some(0),
            ));
            outcome.count(body.counts());
            Ok((trained, body, load_ms, target.times, target.sent))
        };

    let mut outcome = Outcome::default();
    outcome.metrics.set("quality.majority_accuracy", floor);
    if !run.trace {
        let (trained, body, ..) = pass(&mut outcome)?;
        let m = &mut outcome.metrics;
        serving::end_to_end(m, &body);
        m.set("train_s", trained.runs.total());
        let (accuracy, f1) = trained.quality();
        m.set("accuracy", accuracy);
        m.set("macro_f1", f1);
        m.set("peak_rss_mb", crate::report::self_peak_mb());
        eprintln!(
            "perfbench: table4-lite accuracy {accuracy:.4} macro-F1 {f1:.4} (floor {floor:.4})"
        );
    } else {
        let (base, ..) = pass(&mut outcome)?;
        let rss = crate::report::self_rss_mb();
        trace::reset();
        trace::enable();
        let traced = pass(&mut outcome);
        trace::disable();
        let (trained, body, load_ms, times, sent) = traced?;
        let snap = trace::snapshot();
        let m = &mut outcome.metrics;
        m.set("trace.rss_growth_mb", crate::report::self_rss_mb() - rss);
        m.set(
            "trace.overhead_frac",
            trained.runs.total() / base.runs.total() - 1.0,
        );
        m.set("registry.load_ms", load_ms);
        let answers: Vec<&Answer> = body.answers().collect();
        crate::layers::client_layers(m, &times);
        crate::layers::service_layers(m, &snap, &sent, &answers, body.wall());
        crate::layers::kernel_layers(m, &snap);
        serving::answer_layers(m, &body);
        serving::tails(m, &body);
        traced_layers(m, &snap, &trained);
        if trained.quality() != base.quality() {
            outcome.check(Err(format!(
                "quality changed between two passes at one seed: {:?} vs {:?}",
                base.quality(),
                trained.quality()
            )));
        }
    }
    outcome.metrics.set("setup_s", setups.min());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_repeats_exactly_at_one_seed() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("table4-test-{}", std::process::id()));
        let mut config = config(11, &dir);
        // a tenth of Scale::Small keeps the test quick; the code path is
        // the workload's
        config.generator.scale = 0.002;
        let pipeline = Pipeline::prepare(&config);
        let first = train(&pipeline, &config).unwrap();
        let second = train(&Pipeline::prepare(&config), &config).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(first.quality(), second.quality());
        let (acc, f1) = first.quality();
        assert!(acc > 0.0 && f1 > 0.0);
        assert_eq!(first.rows.len(), MODELS.len());
    }
}
