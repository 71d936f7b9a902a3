//! The fleet target: one client thread speaking the `serve::transport`
//! wire protocol to every `replica_worker`, pipelining requests on one
//! non-blocking connection per worker and waiting on all of them with
//! `poll(2)`.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serve::netpoll::{self, PollFd, POLLIN, POLLOUT};
use serve::transport::{self, Request, Response};
use serve::{ModelRegistry, RemoteReplica, Supervisor, SupervisorConfig};

use crate::inproc::{ClientTimes, MODEL};
use crate::inputs::RecipeSource;
use crate::loadgen::{Answer, Done, Reply, Target};
use crate::report::{proc_status_mb, self_peak_mb, self_rss_mb};
use crate::serving::{self, Body, Plan, EVAL_RECIPES, EVAL_TAG};
use crate::stats::{mean, median, percentile, Sample, Samples, Stopwatch};
use crate::{Outcome, Run};

/// How often a traced run samples each worker's queue depth.
const DEPTH_EVERY: Duration = Duration::from_millis(50);

struct Conn {
    stream: UnixStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Request number → recipe id, for requests awaiting an answer.
    pending: HashMap<u64, u64>,
}

impl Conn {
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One complete response frame from the input buffer, if any.
    fn frame(&mut self) -> std::io::Result<Option<Response>> {
        if self.inbuf.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.inbuf[..4].try_into().expect("4 bytes")) as usize;
        if self.inbuf.len() < 8 + len {
            return Ok(None);
        }
        let payload = transport::read_frame(&mut &self.inbuf[..8 + len])?;
        self.inbuf.drain(..8 + len);
        transport::decode_response(&payload).map(Some)
    }
}

/// Pipelined wire-protocol client over every worker of a fleet.
pub struct FleetTarget {
    conns: Vec<Conn>,
    ready: VecDeque<Done>,
    /// Client-side canonicalization time (traced runs).
    pub times: ClientTimes,
    /// Encoded request frames sent and their total bytes (traced runs).
    pub frames: (u64, u64),
}

impl FleetTarget {
    /// Connects to each socket.
    pub fn connect(sockets: &[impl AsRef<Path>]) -> std::io::Result<Self> {
        let conns = sockets
            .iter()
            .map(|s| {
                let stream = UnixStream::connect(s)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    inbuf: Vec::new(),
                    outbuf: Vec::new(),
                    pending: HashMap::new(),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            conns,
            ready: VecDeque::new(),
            times: ClientTimes::default(),
            frames: (0, 0),
        })
    }

    /// Fails every request still pending on a broken connection.
    fn fail(&mut self, slot: usize, error: &std::io::Error) {
        let at = Instant::now();
        for (req, recipe) in self.conns[slot].pending.drain() {
            self.ready.push_back(Done {
                req,
                recipe,
                at,
                result: Err(format!("worker {slot}: {error}")),
            });
        }
    }

    /// Moves every complete frame into the ready queue.
    fn parse(&mut self) {
        for slot in 0..self.conns.len() {
            loop {
                let response = match self.conns[slot].frame() {
                    Ok(Some(r)) => r,
                    Ok(None) => break,
                    Err(e) => {
                        self.fail(slot, &e);
                        break;
                    }
                };
                let at = Instant::now();
                let (id, result) = match response {
                    Response::Prediction { id, prediction: p } => (
                        id,
                        Ok(Reply {
                            probs: p.probs,
                            top_class: p.top_class,
                            version: p.model_version,
                            batch_size: p.batch_size,
                            cache_hit: p.cache_hit,
                            slot,
                        }),
                    ),
                    Response::Error { id, error } => (id, Err(error.to_string())),
                    other => panic!("unexpected response on a classify connection: {other:?}"),
                };
                let recipe = self.conns[slot]
                    .pending
                    .remove(&id)
                    .expect("every response answers a pending request");
                self.ready.push_back(Done {
                    req: id,
                    recipe,
                    at,
                    result,
                });
            }
        }
    }
}

/// Pings every worker each [`DEPTH_EVERY`] until `stop` is set and
/// returns the queue depths (`Pong.depth`) they reported. It runs on a
/// thread of its own, so a ping that waits on a worker busy reloading
/// never holds up the load generator.
fn sample_depths(handles: &[Arc<RemoteReplica>], stop: &AtomicBool) -> Vec<f64> {
    let mut depths = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        for h in handles {
            if let Ok(pong) = h.ping(Duration::from_millis(500)) {
                depths.push(pong.depth as f64);
            }
        }
        std::thread::sleep(DEPTH_EVERY);
    }
    depths
}

impl Target for FleetTarget {
    fn send(&mut self, req: u64, recipe: u64, text: &str) -> Result<(), String> {
        let t0 = Instant::now();
        let key = cuisine::featurize::entity_tokens(text).join("\x1f");
        if trace::enabled() {
            self.times.canonicalize_ns += t0.elapsed().as_nanos();
            self.times.requests += 1;
        }
        // join the shortest queue; rotate the tie-break so equal queues
        // share the load
        let n = self.conns.len();
        let slot = (0..n)
            .map(|k| (req as usize + k) % n)
            .min_by_key(|&s| self.conns[s].pending.len())
            .expect("at least one worker");
        let payload = transport::encode_request(&Request::Classify {
            id: req,
            deadline_us: 0,
            key,
        });
        let conn = &mut self.conns[slot];
        let before = conn.outbuf.len();
        transport::write_frame(&mut conn.outbuf, &payload).map_err(|e| e.to_string())?;
        if trace::enabled() {
            self.frames.0 += 1;
            self.frames.1 += (conn.outbuf.len() - before) as u64;
        }
        conn.pending.insert(req, recipe);
        conn.flush().map_err(|e| format!("worker {slot}: {e}"))
    }

    fn next(&mut self, timeout: Duration) -> Option<Done> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(done) = self.ready.pop_front() {
                return Some(done);
            }
            let now = Instant::now();
            if self.outstanding() == 0 {
                std::thread::sleep(deadline.saturating_duration_since(now));
                return None;
            }
            if now >= deadline {
                return None;
            }
            let left = deadline - now;
            let mut fds: Vec<PollFd> = self
                .conns
                .iter()
                .map(|c| {
                    let events = if c.outbuf.is_empty() {
                        POLLIN
                    } else {
                        POLLIN | POLLOUT
                    };
                    PollFd::new(c.stream.as_raw_fd(), events)
                })
                .collect();
            // poll(2) sleeps whole milliseconds: below one, check without
            // blocking and sleep the remainder in short slices instead
            let wait = Duration::from_millis(left.as_millis() as u64);
            let ready = netpoll::poll(&mut fds, Some(wait)).expect("poll(2) on worker sockets");
            if ready == 0 && left < Duration::from_millis(1) {
                std::thread::sleep(left.min(Duration::from_micros(100)));
                continue;
            }
            let mut broken = Vec::new();
            for (slot, fd) in fds.iter().enumerate() {
                let conn = &mut self.conns[slot];
                let io = if fd.writable() { conn.flush() } else { Ok(()) }.and_then(|()| {
                    if fd.readable() {
                        conn.fill()
                    } else {
                        Ok(())
                    }
                });
                if let Err(e) = io {
                    broken.push((slot, e));
                }
            }
            // answers that arrived before a connection broke still count
            self.parse();
            for (slot, e) in broken {
                self.fail(slot, &e);
            }
        }
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum::<usize>() + self.ready.len()
    }
}

/// Outstanding requests per worker in the fleet's closed loops.
const WINDOW_PER_WORKER: usize = 32;
/// How long a cold fleet may take to answer its first pings.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Cold fleets shutting down in the background; dropping this waits for
/// every one of them, on every exit path.
#[derive(Default)]
struct Stopping(Vec<std::thread::JoinHandle<()>>);

impl Drop for Stopping {
    fn drop(&mut self) {
        for fleet in self.0.drain(..) {
            let _ = fleet.join();
        }
    }
}

/// Spawns a fleet and polls every worker with `RemoteReplica::ping`
/// every millisecond until all have answered once. Times
/// `Supervisor::start` to the last first answer.
fn cold_start(config: SupervisorConfig) -> Result<(Sample, Supervisor), String> {
    let clock = Stopwatch::start();
    let started = Instant::now();
    let supervisor = Supervisor::start(config).map_err(|e| e.to_string())?;
    let handles = supervisor.handles();
    let mut up = vec![false; handles.len()];
    while !up.iter().all(|&u| u) {
        if started.elapsed() > READY_TIMEOUT {
            return Err(format!("fleet not up after {READY_TIMEOUT:?}"));
        }
        for (h, u) in handles.iter().zip(up.iter_mut()) {
            *u = *u || h.ping(Duration::from_millis(200)).is_ok();
        }
        if !up.iter().all(|&u| u) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok((clock.stop(), supervisor))
}

/// `fleet-unique`: one `replica_worker` per core under a `Supervisor`,
/// every request a never-seen recipe, rolling deploys in the high-rate
/// blocks.
pub fn fleet_unique(run: &Run) -> Result<Outcome, String> {
    let ckpts = serving::train_checkpoints(run.seed, &run.dir)?;
    let unique = RecipeSource::new(ckpts.tokens.clone(), run.seed ^ 0x0417e);
    let eval = RecipeSource::new(ckpts.tokens.clone(), run.seed ^ 0xe7a1).take(0..EVAL_RECIPES);
    let labels: Vec<usize> = eval.iter().map(|(_, c)| *c).collect();
    let text_of = |recipe: u64| {
        if recipe & EVAL_TAG != 0 {
            eval[(recipe & !EVAL_TAG) as usize].0.clone()
        } else {
            unique.recipe(recipe).0
        }
    };

    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(serve::MAX_WORKERS);
    let worker_bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("replica_worker");
    // every fleet gets its own socket directory: shutting one down
    // signals whatever listens at its socket paths
    let mut fleets = 0usize;
    let mut config = || {
        fleets += 1;
        SupervisorConfig {
            workers,
            model_name: MODEL.into(),
            worker_env: vec![("TENSOR_THREADS".into(), "1".into())],
            ..SupervisorConfig::new(
                &worker_bin,
                &ckpts.dirs[0],
                run.dir.join(format!("fleet{fleets}")),
            )
        }
    };

    // the layer a deploy is gated on: a registry load in this process
    let mut loads = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        ModelRegistry::new()
            .load("gate", &ckpts.dirs[0])
            .map_err(|e| format!("load: {e}"))?;
        loads.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let (first, supervisor) = cold_start(config())?;
    let mut setups = Samples::default();
    setups.push(first);
    let handles = supervisor.handles();
    let mut rtt = Vec::new();
    for h in &handles {
        for _ in 0..200 {
            let started = Instant::now();
            h.ping(Duration::from_millis(500))
                .map_err(|e| e.to_string())?;
            rtt.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    rtt.sort_by(f64::total_cmp);

    // each worker's registry published its first load as version 1
    let versions = Mutex::new(
        (0..workers)
            .map(|slot| ((slot, 1u64), 0usize))
            .collect::<HashMap<_, _>>(),
    );
    let current = Mutex::new(0usize);
    let deploy = || -> Result<Sample, String> {
        // swap in the checkpoint that is not live, under a lock, so
        // concurrent deploys still alternate
        let mut current = current.lock().expect("live checkpoint lock");
        let checkpoint = 1 - *current;
        let clock = Stopwatch::start();
        let published = supervisor
            .deploy(&ckpts.dirs[checkpoint])
            .map_err(|e| format!("deploy: {e}"))?;
        let sample = clock.stop();
        let mut map = versions.lock().expect("version map lock");
        for (slot, version) in published {
            map.insert((slot, version), checkpoint);
        }
        *current = checkpoint;
        Ok(sample)
    };

    let mut next = 0u64;
    let mut stopping = Stopping::default();
    let mut pass = |outcome: &mut Outcome| -> Result<(Body, FleetTarget, Vec<f64>), String> {
        let mut target = FleetTarget::connect(&supervisor.socket_paths())
            .map_err(|e| format!("connect: {e}"))?;
        let mut load = |req: u64| (req, unique.recipe(req).0);
        let mut i = 0u64;
        let mut eval_src = |_req: u64| {
            let k = i % EVAL_RECIPES;
            i += 1;
            (EVAL_TAG | k, eval[k as usize].0.clone())
        };
        let mut cold = || -> Result<(), String> {
            let (sample, fleet) = cold_start(config())?;
            setups.push(sample);
            // a worker may take up to a second to go; the next phase
            // need not wait for that
            stopping.0.push(std::thread::spawn(move || drop(fleet)));
            Ok(())
        };
        let stop = AtomicBool::new(false);
        let (body, depths) = std::thread::scope(|s| {
            let sampler = trace::enabled().then(|| s.spawn(|| sample_depths(&handles, &stop)));
            let body = serving::run_body(
                &mut target,
                &mut next,
                Plan {
                    load: &mut load,
                    eval: &mut eval_src,
                    window: WINDOW_PER_WORKER * workers,
                    seconds: run.seconds,
                    high_rps: serving::SERVING_HIGH_RPS,
                    deploy: &deploy,
                    cold: &mut cold,
                },
            );
            stop.store(true, Ordering::SeqCst);
            let depths = match sampler {
                Some(h) => h.join().map_err(|_| "depth sampler panicked".to_string())?,
                None => Vec::new(),
            };
            Ok::<_, String>((body?, depths))
        })?;
        let answers: Vec<&Answer> = body.answers().collect();
        let map = versions.lock().expect("version map lock").clone();
        outcome.check(serving::verify(
            &answers,
            &text_of,
            &ckpts.vocab,
            &ckpts.models,
            &|r| map.get(&(r.slot, r.version)).copied(),
        ));
        outcome.count(body.counts());
        Ok((body, target, depths))
    };

    let mut outcome = Outcome::default();
    if !run.trace {
        let (body, ..) = pass(&mut outcome)?;
        let workers_mb: f64 = (0..workers)
            .filter_map(|i| supervisor.worker_pid(i))
            .filter_map(|pid| proc_status_mb(&pid.to_string(), "VmHWM"))
            .sum();
        let m = &mut outcome.metrics;
        serving::end_to_end(m, &body);
        let (accuracy, f1) = serving::quality(&body, &labels)?;
        m.set("accuracy", accuracy);
        m.set("macro_f1", f1);
        m.set("train_s", ckpts.fits.total());
        m.set("peak_rss_mb", self_peak_mb() + workers_mb);
    } else {
        let (base, ..) = pass(&mut outcome)?;
        let rss = self_rss_mb();
        trace::reset();
        trace::enable();
        let traced = pass(&mut outcome);
        trace::disable();
        let (body, target, depths) = traced?;
        let m = &mut outcome.metrics;
        m.set("trace.rss_growth_mb", self_rss_mb() - rss);
        m.set(
            "trace.overhead_frac",
            median(&base.capacity_rates()) / median(&body.capacity_rates()) - 1.0,
        );
        crate::layers::client_layers(m, &target.times);
        m.set(
            "transport.request_bytes",
            target.frames.1 as f64 / target.frames.0.max(1) as f64,
        );
        m.set(
            "transport.ping_rtt_us",
            percentile(&rtt, 0.5).unwrap_or(0.0),
        );
        m.set("fleet.depth_mean", mean(&depths));
        let served: Vec<f64> = supervisor
            .pong_stats()
            .iter()
            .map(|p| p.map_or(0.0, |p| p.served as f64))
            .collect();
        m.set(
            "fleet.served_balance",
            served.iter().copied().fold(0.0, f64::max) / mean(&served),
        );
        m.set(
            "completion.peak_outstanding",
            body.phases().map(|p| p.peak_outstanding).max().unwrap_or(0) as f64,
        );
        m.set(
            "supervisor.deploy_ms_per_worker",
            body.deploys.median() * 1e3 / workers as f64,
        );
        crate::layers::kernel_layers(m, &trace::snapshot());
        serving::answer_layers(m, &body);
        serving::tails(m, &body);
    }
    outcome.metrics.set("setup_s", setups.min());
    outcome
        .metrics
        .set("supervisor.spawn_ready_ms", setups.median() * 1e3);
    outcome.metrics.set("registry.load_ms", median(&loads));
    Ok(outcome)
}
