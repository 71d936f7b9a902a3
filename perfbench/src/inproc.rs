//! The in-process target: one `BatchServer` driven through its
//! non-blocking `submit` + `CompletionQueue` front-end.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serve::{BatchServer, CompletionQueue, ModelRegistry, ServeConfig};

use crate::inputs::{RecipeSource, Zipf};
use crate::loadgen::{Answer, Done, Reply, Target};
use crate::serving::{self, Body, Plan, EVAL_RECIPES, EVAL_TAG};
use crate::stats::{median, Sample, Samples, Stopwatch};
use crate::{Outcome, Run};

/// Client-side time spent in the two calls a request makes before it is
/// queued, accumulated only while tracing is on.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientTimes {
    /// `cuisine::featurize::entity_tokens` plus the key join, ns.
    pub canonicalize_ns: u128,
    /// `BatchServer::submit`, ns.
    pub submit_ns: u128,
    /// Requests timed.
    pub requests: u64,
}

/// Request numbers and submission instants, in submission order.
pub type Sent = Vec<(u64, Instant)>;

/// One batch server, one completion queue, tickets mapped back to
/// request numbers.
pub struct InprocTarget<'a> {
    server: &'a BatchServer,
    cq: CompletionQueue,
    tickets: HashMap<u64, (u64, u64)>,
    /// Accumulated client-side layer times.
    pub times: ClientTimes,
    /// Traced runs: request numbers and submission instants, in the
    /// server's FIFO order.
    pub sent: Sent,
}

impl<'a> InprocTarget<'a> {
    /// A target over `server`.
    pub fn new(server: &'a BatchServer) -> Self {
        Self {
            server,
            cq: CompletionQueue::new(),
            tickets: HashMap::new(),
            times: ClientTimes::default(),
            sent: Vec::new(),
        }
    }
}

impl Target for InprocTarget<'_> {
    fn send(&mut self, req: u64, recipe: u64, text: &str) -> Result<(), String> {
        let traced = trace::enabled();
        let t0 = Instant::now();
        let tokens = cuisine::featurize::entity_tokens(text);
        let key = tokens.join("\x1f");
        let t1 = Instant::now();
        let ticket = self
            .server
            .submit(tokens, key, None, &self.cq)
            .map_err(|e| e.to_string())?;
        if traced {
            self.times.canonicalize_ns += (t1 - t0).as_nanos();
            self.times.submit_ns += t1.elapsed().as_nanos();
            self.times.requests += 1;
            self.sent.push((req, t1));
        }
        self.tickets.insert(ticket.id(), (req, recipe));
        Ok(())
    }

    fn next(&mut self, timeout: Duration) -> Option<Done> {
        if self.tickets.is_empty() {
            std::thread::sleep(timeout);
            return None;
        }
        let completion = self.cq.wait_with_timeout(timeout)?;
        let at = Instant::now();
        let (req, recipe) = self
            .tickets
            .remove(&completion.ticket.id())
            .expect("every completion belongs to a ticket this target submitted");
        let result = completion
            .result
            .map(|p| Reply {
                probs: p.probs,
                top_class: p.top_class,
                version: p.model_version,
                batch_size: p.batch_size,
                cache_hit: p.cache_hit,
                slot: 0,
            })
            .map_err(|e| e.to_string());
        Some(Done {
            req,
            recipe,
            at,
            result,
        })
    }

    fn outstanding(&self) -> usize {
        self.tickets.len()
    }
}

/// Registry name every in-process workload serves under.
pub const MODEL: &str = "lstm";
/// Outstanding requests in the in-process closed loops (two full batches).
pub const WINDOW: usize = 64;
/// Distinct recipes behind the Zipf key stream.
const ZIPF_KEYS: usize = 4096;
/// Zipf exponent: about a 0.9 hit rate at the default 2048-entry cache.
const ZIPF_S: f64 = 1.07;

/// One cold in-process set-up: a fresh registry loads `dir` (load +
/// warmup), a batch server starts, and `probe` gets its first answer.
pub struct ColdStart {
    /// From the empty registry to the first answer.
    pub clock: Sample,
    /// Milliseconds `ModelRegistry::load` took.
    pub load_ms: f64,
    /// The registry.
    pub registry: Arc<ModelRegistry>,
    /// The live server.
    pub server: BatchServer,
    /// The version it serves.
    pub version: u64,
}

impl ColdStart {
    /// Runs one cold set-up.
    pub fn run(dir: &Path, probe: &str) -> Result<Self, String> {
        let clock = Stopwatch::start();
        let registry = Arc::new(ModelRegistry::new());
        let loaded = registry
            .load(MODEL, dir)
            .map_err(|e| format!("load {}: {e}", dir.display()))?;
        let load_ms = clock.stop().wall * 1e3;
        let server = BatchServer::start(Arc::clone(&registry), MODEL, ServeConfig::default())
            .map_err(|e| e.to_string())?;
        server.classify(probe, None).map_err(|e| e.to_string())?;
        Ok(Self {
            clock: clock.stop(),
            load_ms,
            registry,
            server,
            version: loaded.version(),
        })
    }
}

/// `inproc-zipf`: one in-process batch server, Zipf keys over 4096
/// recipes, hot swaps between two checkpoints in the high-rate blocks.
pub fn inproc_zipf(run: &Run) -> Result<Outcome, String> {
    let ckpts = serving::train_checkpoints(run.seed, &run.dir)?;
    let keys = RecipeSource::new(ckpts.tokens.clone(), run.seed ^ 0x21bf).take(0..ZIPF_KEYS as u64);
    let eval = RecipeSource::new(ckpts.tokens.clone(), run.seed ^ 0xe7a1).take(0..EVAL_RECIPES);
    let labels: Vec<usize> = eval.iter().map(|(_, c)| *c).collect();
    let text_of = |recipe: u64| {
        if recipe & EVAL_TAG != 0 {
            eval[(recipe & !EVAL_TAG) as usize].0.clone()
        } else {
            keys[recipe as usize].0.clone()
        }
    };

    let live = ColdStart::run(&ckpts.dirs[0], &keys[0].0)?;
    let mut setups = Samples::default();
    setups.push(live.clock);
    let mut loads = vec![live.load_ms];
    let versions = Mutex::new(HashMap::from([(live.version, 0usize)]));
    let current = Mutex::new(0usize);
    let deploy = || -> Result<Sample, String> {
        // swap in the checkpoint that is not live, under a lock, so
        // concurrent deploys still alternate
        let mut current = current.lock().expect("live checkpoint lock");
        let checkpoint = 1 - *current;
        let clock = Stopwatch::start();
        let loaded = live
            .registry
            .load(MODEL, &ckpts.dirs[checkpoint])
            .map_err(|e| format!("hot swap: {e}"))?;
        let sample = clock.stop();
        versions
            .lock()
            .expect("version map lock")
            .insert(loaded.version(), checkpoint);
        *current = checkpoint;
        Ok(sample)
    };

    let mut next = 0u64;
    let mut pass = |outcome: &mut Outcome| -> Result<(Body, InprocTarget<'_>), String> {
        let mut target = InprocTarget::new(&live.server);
        let mut zipf = Zipf::new(ZIPF_KEYS, ZIPF_S, run.seed);
        let mut load = |_req: u64| {
            let k = zipf.sample();
            (k as u64, keys[k].0.clone())
        };
        let mut i = 0u64;
        let mut eval_src = |_req: u64| {
            let k = i % EVAL_RECIPES;
            i += 1;
            (EVAL_TAG | k, eval[k as usize].0.clone())
        };
        let mut cold = || -> Result<(), String> {
            let c = ColdStart::run(&ckpts.dirs[0], &keys[0].0)?;
            setups.push(c.clock);
            loads.push(c.load_ms);
            Ok(())
        };
        let body = serving::run_body(
            &mut target,
            &mut next,
            Plan {
                load: &mut load,
                eval: &mut eval_src,
                window: WINDOW,
                seconds: run.seconds,
                high_rps: serving::SERVING_HIGH_RPS,
                deploy: &deploy,
                cold: &mut cold,
            },
        )?;
        let answers: Vec<&Answer> = body.answers().collect();
        let map = versions.lock().expect("version map lock").clone();
        outcome.check(serving::verify(
            &answers,
            &text_of,
            &ckpts.vocab,
            &ckpts.models,
            &|r| map.get(&r.version).copied(),
        ));
        outcome.count(body.counts());
        Ok((body, target))
    };

    let mut outcome = Outcome::default();
    if !run.trace {
        let (body, _) = pass(&mut outcome)?;
        let m = &mut outcome.metrics;
        serving::end_to_end(m, &body);
        let (accuracy, f1) = serving::quality(&body, &labels)?;
        m.set("accuracy", accuracy);
        m.set("macro_f1", f1);
        m.set("train_s", ckpts.fits.total());
        m.set("peak_rss_mb", crate::report::self_peak_mb());
    } else {
        let (base, _) = pass(&mut outcome)?;
        let rss = crate::report::self_rss_mb();
        trace::reset();
        trace::enable();
        let traced = pass(&mut outcome);
        trace::disable();
        let (body, target) = traced?;
        let snap = trace::snapshot();
        let m = &mut outcome.metrics;
        m.set("trace.rss_growth_mb", crate::report::self_rss_mb() - rss);
        m.set(
            "trace.overhead_frac",
            median(&base.capacity_rates()) / median(&body.capacity_rates()) - 1.0,
        );
        let answers: Vec<&Answer> = body.answers().collect();
        crate::layers::client_layers(m, &target.times);
        crate::layers::service_layers(m, &snap, &target.sent, &answers, body.wall());
        crate::layers::kernel_layers(m, &snap);
        serving::answer_layers(m, &body);
        serving::tails(m, &body);
    }
    outcome.metrics.set("setup_s", setups.min());
    outcome.metrics.set("registry.load_ms", median(&loads));
    Ok(outcome)
}
