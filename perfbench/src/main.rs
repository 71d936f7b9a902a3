//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <inproc-zipf|fleet-unique|table4-lite>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it runs the measured pass twice, the
//! second with tracing on, and prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` beside this crate for the workloads and estimators.

mod fleet;
mod inproc;
mod inputs;
mod layers;
mod loadgen;
mod report;
mod serving;
mod stats;
mod table4;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metrics, END_TO_END, PER_LAYER};

/// One run's settings.
pub struct Run {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds the load phases take together.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// This run's own scratch directory (checkpoints, sockets).
    pub dir: PathBuf,
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    /// Recorded metrics.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused, errored, or unanswered).
    pub failed: u64,
    /// The first correctness failure, if any.
    pub wrong: Option<String>,
}

impl Outcome {
    /// Adds `(attempted, failed)`.
    pub fn count(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Keeps the first correctness failure.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("perfbench: INCORRECT: {e}");
            self.wrong.get_or_insert(e);
        }
    }
}

/// Logs a progress line with the seconds since the process started.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(std::time::Instant::now);
    eprintln!("perfbench: [{:7.2}s] {what}", start.elapsed().as_secs_f64());
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("{flag} <value> is required"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.clone();
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    // relative and short: unix socket paths live under it
    let dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
    Ok((
        workload,
        Run {
            seed: number("--seed")?,
            seconds,
            trace,
            dir,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = RunDir(run.dir.clone());
    progress(&format!(
        "{workload} seed {} for {} s",
        run.seed, run.seconds
    ));
    let clock = stats::Stopwatch::start();
    // a panic unwinds through every Supervisor, whose drop shuts its
    // workers down, before it lands here
    let result = std::panic::catch_unwind(|| match workload.as_str() {
        "inproc-zipf" => inproc::inproc_zipf(&run),
        "fleet-unique" => fleet::fleet_unique(&run),
        "table4-lite" => table4::table4_lite(&run),
        other => Err(format!("unknown workload {other}")),
    });
    let mut outcome = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("perfbench: {workload} panicked");
            return ExitCode::FAILURE;
        }
    };
    let stolen = 1.0 - clock.stop().kept();
    progress(&format!(
        "the host stole {:.1}% of this VM's CPU time during the run",
        stolen * 100.0
    ));
    let rendered = if run.trace {
        outcome.metrics.set("host.steal_frac", stolen);
        outcome.metrics.render(PER_LAYER, false)
    } else {
        let failed = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.set("success_rate", 1.0 - failed);
        outcome.metrics.render(END_TO_END, true)
    };
    let rendered = match rendered {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    progress("done");
    let correct = outcome.wrong.is_none();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {rendered}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
