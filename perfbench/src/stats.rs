//! Estimators: nearest-rank percentiles, medians, the median of
//! per-window completion rates, and durations that leave out the CPU
//! time the host gave to other tenants.

use std::time::Instant;

use crate::report::host_jiffies;

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of an ascending-sorted
/// sample, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    // 1-based rank ceil(p·n); the small epsilon keeps 0.99·1000 at 990
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Completion rates (per second) over consecutive windows of `window`
/// completions: window `k` spans completions `k·window ..= (k+1)·window`
/// and its rate is `window` over the time between those two. A trailing
/// partial window is dropped; with fewer than `window + 1` completions
/// the whole sample is one window.
pub fn window_rates(completions: &[Instant], window: usize) -> Vec<f64> {
    let n = completions.len();
    if n < 2 || window == 0 {
        return Vec::new();
    }
    let rate = |a: usize, b: usize| {
        let secs = completions[b].duration_since(completions[a]).as_secs_f64();
        (b - a) as f64 / secs.max(1e-9)
    };
    if n <= window {
        return vec![rate(0, n - 1)];
    }
    (0..(n - 1) / window)
        .map(|k| rate(k * window, (k + 1) * window))
        .collect()
}

/// Starts a timed interval: wall clock plus the host's steal counter.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
    jiffies: (u64, u64),
}

impl Stopwatch {
    /// Starts now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
            jiffies: host_jiffies(),
        }
    }

    /// The interval so far.
    pub fn stop(&self) -> Sample {
        let (steal, total) = host_jiffies();
        Sample {
            wall: self.started.elapsed().as_secs_f64(),
            steal: steal.saturating_sub(self.jiffies.0),
            total: total.saturating_sub(self.jiffies.1),
        }
    }
}

/// One timed interval: wall seconds, and the CPU time (jiffies, over all
/// CPUs) that passed in it and that the host stole.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Wall seconds.
    pub wall: f64,
    /// Jiffies the host ran another tenant while this VM wanted a CPU.
    pub steal: u64,
    /// All jiffies that passed.
    pub total: u64,
}

impl Sample {
    /// Share of the interval's CPU time the host did not steal.
    pub fn kept(&self) -> f64 {
        kept(self.steal, self.total)
    }
}

fn kept(steal: u64, total: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        1.0 - steal as f64 / total as f64
    }
}

/// Timed intervals of one kind. On a shared host a CPU-bound interval
/// takes longer by the share of CPU time the host stole, so durations
/// are reported as wall time times the share kept, pooled over all the
/// intervals (one interval alone is often shorter than a few jiffies).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<Sample>);

impl Samples {
    /// Adds one interval.
    pub fn push(&mut self, sample: Sample) {
        self.0.push(sample);
    }

    fn kept(&self) -> f64 {
        kept(
            self.0.iter().map(|s| s.steal).sum(),
            self.0.iter().map(|s| s.total).sum(),
        )
    }

    /// Median wall seconds, less the stolen share.
    pub fn median(&self) -> f64 {
        let walls: Vec<f64> = self.0.iter().map(|s| s.wall).collect();
        median(&walls) * self.kept()
    }

    /// Fastest wall seconds, less the stolen share. A host whose vCPUs
    /// slow down in phases stretches some of a run's short single-threaded
    /// steps and not others, by up to 1.8x; which share it stretches
    /// changes from minute to minute and moves the median with it, while
    /// the fastest step of a run keeps the cost of the work itself.
    pub fn min(&self) -> f64 {
        let fastest = self.0.iter().map(|s| s.wall).fold(f64::INFINITY, f64::min);
        fastest * self.kept()
    }

    /// Interquartile mean of the wall seconds (the mean of the middle
    /// half), less the stolen share. A short single-threaded step is
    /// bimodal when the host's CPUs run at different speeds: the median
    /// of such a sample jumps from one mode to the other as the mix
    /// shifts, while the interquartile mean follows the mix smoothly
    /// and still ignores outliers.
    pub fn interquartile_mean(&self) -> f64 {
        let mut walls: Vec<f64> = self.0.iter().map(|s| s.wall).collect();
        walls.sort_by(f64::total_cmp);
        let quarter = walls.len() / 4;
        mean(&walls[quarter..walls.len() - quarter]) * self.kept()
    }

    /// Total wall seconds, less the stolen share.
    pub fn total(&self) -> f64 {
        self.0.iter().map(|s| s.wall).sum::<f64>() * self.kept()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.001), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990 leaves exactly 10 beyond; rank 991 leaves 9
        assert!(percentile(&v, 0.99).is_some());
        assert_eq!(percentile(&v, 0.991), None);
        let small: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), None);
        assert_eq!(percentile(&small, 0.5), Some(500.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 5], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn window_median_ignores_one_stall() {
        let t0 = Instant::now();
        // 10 completions per ms, with a 50 ms stall before completion 500
        let mut at = Vec::new();
        let mut t = t0;
        for i in 0..3001 {
            if i == 500 {
                t += Duration::from_millis(50);
            }
            t += Duration::from_micros(100);
            at.push(t);
        }
        let rates = window_rates(&at, 1000);
        assert_eq!(rates.len(), 3);
        let m = median(&rates);
        assert!((m - 10_000.0).abs() < 1.0, "median {m}");
        // the plain mean over the whole span sees the stall
        let mean = 3000.0 / at[3000].duration_since(at[0]).as_secs_f64();
        assert!(mean < 9_000.0, "mean {mean}");
    }

    #[test]
    fn samples_leave_out_stolen_time() {
        let mut s = Samples::default();
        s.push(Sample {
            wall: 1.0,
            steal: 0,
            total: 100,
        });
        s.push(Sample {
            wall: 3.0,
            steal: 50,
            total: 100,
        });
        s.push(Sample {
            wall: 2.0,
            steal: 25,
            total: 100,
        });
        // 75 of 300 jiffies stolen: a quarter
        assert!((s.median() - 1.5).abs() < 1e-12);
        assert!((s.min() - 0.75).abs() < 1e-12);
        assert!((s.interquartile_mean() - 1.5).abs() < 1e-12);
        assert!((s.total() - 4.5).abs() < 1e-12);
        assert_eq!(Samples::default().total(), 0.0);
        assert_eq!(Sample::default().kept(), 1.0);
        assert!(Stopwatch::start().stop().wall >= 0.0);
    }

    #[test]
    fn interquartile_mean_follows_a_bimodal_mix() {
        let of = |walls: &[f64]| {
            let mut s = Samples::default();
            for &wall in walls {
                s.push(Sample {
                    wall,
                    ..Sample::default()
                });
            }
            s
        };
        // five fast and three slow steps, then four and four: the
        // median jumps to the slow mode, the interquartile mean moves
        // by a step
        let five = of(&[1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let four = of(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
        assert_eq!(five.median(), 1.0);
        assert_eq!(four.median(), 1.5);
        assert_eq!(five.interquartile_mean(), 1.25);
        assert_eq!(four.interquartile_mean(), 1.5);
        // one wild outlier is trimmed
        let wild = of(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0]);
        assert_eq!(wild.interquartile_mean(), 1.0);
    }

    #[test]
    fn window_rates_short_sample_is_one_window() {
        let t0 = Instant::now();
        let at: Vec<Instant> = (0..11).map(|i| t0 + Duration::from_millis(i)).collect();
        let rates = window_rates(&at, 1000);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 1000.0).abs() < 1e-6);
        assert!(window_rates(&at[..1], 10).is_empty());
    }
}
