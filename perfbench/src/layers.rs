//! Per-layer metrics read from `trace::snapshot()`: the counters and
//! spans the program already records.

use std::collections::HashMap;
use std::time::Instant;

use trace::{SpanRecord, TraceSnapshot};

use crate::inproc::ClientTimes;
use crate::loadgen::Answer;
use crate::report::Metrics;
use crate::stats::mean;

fn counter(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Spans named `name`, in start order.
pub fn spans<'a>(snap: &'a TraceSnapshot, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
    snap.spans.iter().filter(move |s| s.name == name)
}

/// Total seconds of spans named `name` opened (at any depth) inside the
/// span named `ancestor`.
pub fn span_secs_under(snap: &TraceSnapshot, name: &str, ancestor: &str) -> f64 {
    let by_id: HashMap<u64, &SpanRecord> = snap.spans.iter().map(|s| (s.id, s)).collect();
    let under = |s: &SpanRecord| {
        let mut parent = s.parent;
        while let Some(id) = parent {
            let Some(p) = by_id.get(&id) else {
                return false;
            };
            if p.name == ancestor {
                return true;
            }
            parent = p.parent;
        }
        false
    };
    spans(snap, name)
        .filter(|s| under(s))
        .map(|s| s.dur_ns as f64 / 1e9)
        .sum()
}

/// Client-side time in `cuisine::featurize` and `BatchServer::submit`,
/// mean per request.
pub fn client_layers(m: &mut Metrics, times: &ClientTimes) {
    let n = times.requests.max(1) as f64;
    m.set(
        "featurize.canonicalize_us",
        times.canonicalize_ns as f64 / n / 1e3,
    );
    if times.submit_ns > 0 {
        m.set("service.submit_us", times.submit_ns as f64 / n / 1e3);
    }
}

/// The kernel and memory layers: tensor pool, backend algorithms,
/// autograd arena.
pub fn kernel_layers(m: &mut Metrics, snap: &TraceSnapshot) {
    let inline = counter(snap, "tensor.pool.inline_fallbacks");
    let jobs =
        inline + counter(snap, "tensor.pool.jobs") + counter(snap, "tensor.pool.scoped_jobs");
    m.set(
        "tensor.pool.inline_frac",
        if jobs > 0.0 { inline / jobs } else { 0.0 },
    );
    m.set(
        "tensor.pool.submit_wait_ms",
        counter(snap, "tensor.pool.submit_wait_ns") / 1e6,
    );
    m.set(
        "tensor.pool.worker_idle_ms",
        counter(snap, "tensor.pool.worker_idle_ns") / 1e6,
    );
    for name in [
        "tensor.backend.algo.scalar_reg_tile",
        "tensor.backend.algo.scalar_stream",
        "tensor.backend.algo.scalar_row_dot",
        "tensor.backend.algo.simd_broadcast256",
        "tensor.backend.algo.simd_broadcast512",
        "tensor.backend.algo.simd_row_dot256",
        "tensor.backend.algo.quant_portable",
        "tensor.backend.algo.quant_vnni",
    ] {
        m.set(name, counter(snap, name));
    }
    let recycled = counter(snap, "autograd.arena.recycled");
    let allocated = counter(snap, "autograd.arena.allocated");
    m.set(
        "autograd.arena.reuse_frac",
        if recycled + allocated > 0.0 {
            recycled / (recycled + allocated)
        } else {
            0.0
        },
    );
}

/// The in-process batch server's layers, from its `serve.batch` spans
/// and `serve.cq.peak` gauge. `sent` lists every request the traced pass
/// submitted, in the server's FIFO order; `wall` is the pass's serving
/// wall time.
///
/// Batches leave the queue in order, so walking `sent` and cutting it
/// into runs of each answer's `batch_size` pairs the k-th run with the
/// k-th `serve.batch` span. A request's wait is its sojourn (submit to
/// collection) minus that span.
pub fn service_layers(
    m: &mut Metrics,
    snap: &TraceSnapshot,
    sent: &[(u64, Instant)],
    answers: &[&Answer],
    wall: f64,
) {
    // the served model's worker is the thread with the most batches; the
    // cold set-ups' one-request servers run on threads of their own
    let mut per_thread: HashMap<&str, usize> = HashMap::new();
    for s in spans(snap, "serve.batch") {
        *per_thread.entry(s.thread.as_str()).or_default() += 1;
    }
    let worker = per_thread
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(t, _)| t);
    let batches: Vec<f64> = spans(snap, "serve.batch")
        .filter(|s| Some(s.thread.as_str()) == worker)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    let busy_us: f64 = batches.iter().sum();
    m.set("service.batch_busy_frac", busy_us / 1e6 / wall);
    m.set("model.batch_us_per_req", busy_us / sent.len().max(1) as f64);
    m.set(
        "completion.peak_outstanding",
        snap.gauge("serve.cq.peak").unwrap_or(0) as f64,
    );
    let by_req: HashMap<u64, &Answer> = answers.iter().map(|a| (a.req, *a)).collect();
    let mut waits = Vec::with_capacity(sent.len());
    let mut pos = 0;
    for &dur in &batches {
        let Some(first) = sent.get(pos).and_then(|(req, _)| by_req.get(req)) else {
            break;
        };
        let size = first.reply.batch_size;
        for &(req, at) in sent.iter().skip(pos).take(size) {
            match by_req.get(&req) {
                Some(a) if a.reply.batch_size == size => {
                    waits.push(a.at.duration_since(at).as_secs_f64() * 1e6 - dur);
                }
                _ => break,
            }
        }
        pos += size;
    }
    if pos == sent.len() && waits.len() == sent.len() {
        m.set("service.wait_us", mean(&waits));
    } else {
        eprintln!(
            "perfbench: {} batches did not pair with {} requests; service.wait_us left at 0",
            batches.len(),
            sent.len()
        );
    }
}
