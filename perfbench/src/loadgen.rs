//! The load generator: one thread that submits and collects in the same
//! loop, as a closed loop (fixed outstanding window) or an open loop
//! (fixed arrival rate, every request timed from its due time).

use std::time::{Duration, Instant};

use crate::inputs::Schedule;

/// How long a phase may take to drain its last answers before the
/// missing ones count as failed.
const DRAIN: Duration = Duration::from_secs(20);

/// One served answer, as the benchmark checks it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Class probabilities.
    pub probs: Vec<f64>,
    /// The served argmax.
    pub top_class: usize,
    /// Registry version of the model that answered.
    pub version: u64,
    /// Requests in the fused pass that carried this one.
    pub batch_size: usize,
    /// Whether the features came from the server's cache.
    pub cache_hit: bool,
    /// Which replica answered (0 in-process).
    pub slot: usize,
}

/// A finished request.
#[derive(Debug)]
pub struct Done {
    /// Request number.
    pub req: u64,
    /// Which input recipe the request carried.
    pub recipe: u64,
    /// When the load generator collected it.
    pub at: Instant,
    /// The answer, or the error text.
    pub result: Result<Reply, String>,
}

/// A system under load: submission never blocks on an answer.
pub trait Target {
    /// Submits request `req` carrying `text`; an error is a refusal.
    fn send(&mut self, req: u64, recipe: u64, text: &str) -> Result<(), String>;
    /// Waits up to `timeout` for one finished request. With nothing in
    /// flight it idles for the whole `timeout` and returns `None`.
    fn next(&mut self, timeout: Duration) -> Option<Done>;
    /// Requests submitted and not yet collected.
    fn outstanding(&self) -> usize;
}

/// Produces request `req`'s input: `(recipe id, text)`.
pub type Source<'a> = dyn FnMut(u64) -> (u64, String) + 'a;

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests submitted (refused ones included).
    pub attempted: u64,
    /// Refused, failed, or never answered.
    pub failed: u64,
    /// Open loop: due time → collection, µs.
    pub latency_us: Vec<f64>,
    /// Open loop: due time → actual submission, µs.
    pub late_us: Vec<f64>,
    /// Closed loop: collection instants inside the timed interval.
    pub completions: Vec<Instant>,
    /// Largest number of requests in flight.
    pub peak_outstanding: usize,
    /// Wall time of the timed interval.
    pub wall: Duration,
    /// Every successful answer, for the correctness check.
    pub answers: Vec<Answer>,
}

/// A successful answer and when it was collected.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Request number.
    pub req: u64,
    /// Input recipe id.
    pub recipe: u64,
    /// Collection instant.
    pub at: Instant,
    /// The served answer.
    pub reply: Reply,
}

impl Phase {
    fn collect(&mut self, done: Done) -> bool {
        match done.result {
            Ok(reply) => {
                self.answers.push(Answer {
                    req: done.req,
                    recipe: done.recipe,
                    at: done.at,
                    reply,
                });
                true
            }
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("perfbench: request {} failed: {e}", done.req);
                }
                self.failed += 1;
                false
            }
        }
    }

    fn send(&mut self, target: &mut dyn Target, source: &mut Source<'_>, req: u64) -> bool {
        self.attempted += 1;
        let (recipe, text) = source(req);
        match target.send(req, recipe, &text) {
            Ok(()) => {
                self.peak_outstanding = self.peak_outstanding.max(target.outstanding());
                true
            }
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("perfbench: request {req} refused: {e}");
                }
                self.failed += 1;
                false
            }
        }
    }

    fn drain(&mut self, target: &mut dyn Target) {
        let deadline = Instant::now() + DRAIN;
        while target.outstanding() > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match target.next(left) {
                Some(done) => {
                    self.collect(done);
                }
                None if left.is_zero() => {
                    eprintln!(
                        "perfbench: {} requests never answered",
                        target.outstanding()
                    );
                    self.failed += target.outstanding() as u64;
                    return;
                }
                None => {}
            }
        }
    }
}

/// Closed loop for `length`: keeps `window` requests in flight, sending
/// the next as soon as one finishes. Request numbers start at `*next`.
pub fn closed_loop(
    target: &mut dyn Target,
    source: &mut Source<'_>,
    next: &mut u64,
    window: usize,
    length: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let end = start + length;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        while target.outstanding() < window {
            *next += 1;
            if !phase.send(target, source, *next - 1) {
                break;
            }
        }
        if let Some(done) = target.next(end - now) {
            let at = done.at;
            if phase.collect(done) && at < end {
                phase.completions.push(at);
            }
        }
    }
    phase.wall = start.elapsed();
    phase.drain(target);
    phase
}

/// Closed loop over exactly `count` requests (no time limit): the
/// fixed evaluation set.
pub fn fixed_count(
    target: &mut dyn Target,
    source: &mut Source<'_>,
    next: &mut u64,
    window: usize,
    count: u64,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let end = *next + count;
    while *next < end {
        while *next < end && target.outstanding() < window {
            *next += 1;
            if !phase.send(target, source, *next - 1) {
                break;
            }
        }
        match target.next(DRAIN) {
            Some(done) => {
                phase.collect(done);
            }
            None => break,
        }
    }
    phase.drain(target);
    phase.wall = start.elapsed();
    phase
}

/// Open loop at `rate` per second for `length`: request `i` of the phase
/// is due at `start + i / rate` and is timed from that instant, so a
/// stall also charges the requests queued behind it. Between arrivals
/// the loop collects answers until the next due time. `at_fraction`
/// runs once per listed fraction of the schedule, as the first request
/// past it is sent.
pub fn open_loop(
    target: &mut dyn Target,
    source: &mut Source<'_>,
    next: &mut u64,
    rate: f64,
    length: Duration,
    events: &[f64],
    at_fraction: &mut dyn FnMut(usize),
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let schedule = Schedule::new(start, rate, length);
    let first = *next;
    let marks: Vec<u64> = events
        .iter()
        .map(|f| (f * schedule.len() as f64) as u64)
        .collect();
    let mut i = 0u64;
    let mut fired = 0usize;
    let record = |phase: &mut Phase, done: Done| {
        let due = schedule.due(done.req - first);
        let at = done.at;
        if phase.collect(done) {
            phase
                .latency_us
                .push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
        }
    };
    while i < schedule.len() {
        let now = Instant::now();
        let due = schedule.due(i);
        if now >= due {
            while fired < marks.len() && marks[fired] <= i {
                at_fraction(fired);
                fired += 1;
            }
            phase
                .late_us
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            phase.send(target, source, first + i);
            i += 1;
            continue;
        }
        if let Some(done) = target.next(due - now) {
            record(&mut phase, done);
        }
    }
    *next = first + i;
    phase.wall = start.elapsed();
    let deadline = Instant::now() + DRAIN;
    while target.outstanding() > 0 && Instant::now() < deadline {
        if let Some(done) = target.next(deadline.saturating_duration_since(Instant::now())) {
            record(&mut phase, done);
        }
    }
    phase.drain(target);
    phase
}
