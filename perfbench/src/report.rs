//! Metric names and units, memory readings, and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "frac"),
    ("capacity_rps", "1/s"),
    ("low.p50_us", "us"),
    ("high.p50_us", "us"),
    ("deploy_s", "s"),
    ("train_s", "s"),
    ("accuracy", "frac"),
    ("macro_f1", "frac"),
];

/// Per-layer metrics: every traced run prints all of them; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("featurize.canonicalize_us", "us"),
    ("service.submit_us", "us"),
    ("service.batch_size_mean", "count"),
    ("service.wait_us", "us"),
    ("service.batch_busy_frac", "frac"),
    ("model.batch_us_per_req", "us"),
    ("cache.hit_rate", "frac"),
    ("registry.load_ms", "ms"),
    ("completion.peak_outstanding", "count"),
    ("transport.ping_rtt_us", "us"),
    ("transport.request_bytes", "B"),
    ("fleet.served_balance", "ratio"),
    ("fleet.depth_mean", "count"),
    ("supervisor.spawn_ready_ms", "ms"),
    ("supervisor.deploy_ms_per_worker", "ms"),
    ("recipedb.generate_ms", "ms"),
    ("textproc.preprocess_ms", "ms"),
    ("textproc.encode_ms", "ms"),
    ("ml.logreg.fit_s", "s"),
    ("ml.logreg.accuracy", "frac"),
    ("ml.logreg.macro_f1", "frac"),
    ("ml.naive_bayes.fit_s", "s"),
    ("ml.naive_bayes.accuracy", "frac"),
    ("ml.naive_bayes.macro_f1", "frac"),
    ("nn.lstm.fit_s", "s"),
    ("nn.lstm.accuracy", "frac"),
    ("nn.lstm.macro_f1", "frac"),
    ("nn.roberta.pretrain_s", "s"),
    ("nn.roberta.finetune_s", "s"),
    ("nn.roberta.accuracy", "frac"),
    ("nn.roberta.macro_f1", "frac"),
    ("nn.train.tokens_per_sec", "1/s"),
    ("quality.majority_accuracy", "frac"),
    ("autograd.arena.reuse_frac", "frac"),
    ("tensor.pool.inline_frac", "frac"),
    ("tensor.pool.submit_wait_ms", "ms"),
    ("tensor.pool.worker_idle_ms", "ms"),
    ("tensor.backend.algo.scalar_reg_tile", "count"),
    ("tensor.backend.algo.scalar_stream", "count"),
    ("tensor.backend.algo.scalar_row_dot", "count"),
    ("tensor.backend.algo.simd_broadcast256", "count"),
    ("tensor.backend.algo.simd_broadcast512", "count"),
    ("tensor.backend.algo.simd_row_dot256", "count"),
    ("tensor.backend.algo.quant_portable", "count"),
    ("tensor.backend.algo.quant_vnni", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.rss_growth_mb", "MB"),
    ("tail.low.p99_us", "us"),
    ("tail.low.samples", "count"),
    ("tail.high.p99_us", "us"),
    ("tail.high.samples", "count"),
    ("loadgen.late_p99_us", "us"),
    ("host.steal_frac", "frac"),
];

/// Metric values by name, filled in as a run goes.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`; it must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for `table`. End-to-end metrics must all be
    /// present, finite and nonzero; a per-layer metric left unset reads 0.
    pub fn render(&self, table: &[(&str, &str)], end_to_end: bool) -> Result<String, String> {
        let mut parts = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.get(name) {
                Some(v) if v.is_finite() && (v != 0.0 || !end_to_end) => v,
                None if !end_to_end => 0.0,
                other => return Err(format!("metric {name} is {other:?}")),
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A finite number in JSON, with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cumulative `(steal, total)` jiffies over all CPUs, from `/proc/stat`:
/// time the host ran something else while this VM wanted a CPU.
pub fn host_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// This process's memory high-water mark, MB.
pub fn self_peak_mb() -> f64 {
    proc_status_mb("self", "VmHWM").unwrap_or(0.0)
}

/// This process's resident set now, MB.
pub fn self_rss_mb() -> f64 {
    proc_status_mb("self", "VmRSS").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` must name the same metrics
    /// with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (key, table) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let section = &json[json.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let declared = section.matches("\"name\"").count();
            assert_eq!(declared, table.len(), "{key} count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn render_checks_end_to_end_values() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let out = m.render(END_TO_END, true).unwrap();
        assert!(out.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        m.set("deploy_s", 0.0);
        assert!(m.render(END_TO_END, true).is_err());
        // unset per-layer metrics read 0
        let layers = Metrics::default().render(PER_LAYER, false).unwrap();
        assert!(layers.contains("\"cache.hit_rate\": {\"value\": 0.0, \"unit\": \"frac\"}"));
    }

    #[test]
    fn proc_status_reads_this_process() {
        assert!(self_peak_mb() > 0.0);
        assert!(self_rss_mb() <= self_peak_mb());
    }
}
