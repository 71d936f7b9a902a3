//! Seeded inputs: labelled synthetic recipes, the Zipf key sampler, and
//! the fixed-rate arrival schedule. The same seed always gives the same
//! inputs; the program under test only ever sees the generated text.

use std::time::{Duration, Instant};

use bench::serving::{CLASSES, CLASS_BLOCK, CLASS_TOKEN_P, RECIPE_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of the splitmix64 sequence; decorrelates derived seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Class-structured recipes (the `bench::serving` shape: each recipe
/// draws most ingredients from its cuisine's block of the vocabulary),
/// addressable by index so a stream of any length needs no storage.
#[derive(Debug, Clone)]
pub struct RecipeSource {
    tokens: Vec<String>,
    seed: u64,
}

impl RecipeSource {
    /// A source over `tokens` (the serving vocabulary's content tokens).
    pub fn new(tokens: Vec<String>, seed: u64) -> Self {
        Self {
            tokens,
            seed: mix(seed),
        }
    }

    /// Recipe `i`: its text (entities joined by `", "`) and its label.
    pub fn recipe(&self, i: u64) -> (String, usize) {
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ mix(i)));
        let class = rng.gen_range(0..CLASSES);
        let len = rng.gen_range(RECIPE_LEN);
        let mut text = String::with_capacity(len * 8);
        for k in 0..len {
            let t = if rng.gen_bool(CLASS_TOKEN_P) {
                class * CLASS_BLOCK + rng.gen_range(0..CLASS_BLOCK)
            } else {
                rng.gen_range(0..self.tokens.len())
            };
            if k > 0 {
                text.push_str(", ");
            }
            text.push_str(&self.tokens[t]);
        }
        (text, class)
    }

    /// Recipes `range`, materialized.
    pub fn take(&self, range: std::ops::Range<u64>) -> Vec<(String, usize)> {
        range.map(|i| self.recipe(i)).collect()
    }
}

/// Zipf(s) over `0..n` by inverse CDF on precomputed cumulative weights
/// (rank 0 is the most popular key).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    /// A sampler over `n` keys with exponent `s`, seeded.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|i| {
                total += (i as f64).powf(-s);
                total
            })
            .collect();
        Self {
            cdf,
            rng: StdRng::seed_from_u64(mix(seed ^ 0x21bf)),
        }
    }

    /// The next key.
    pub fn sample(&mut self) -> usize {
        let total = *self.cdf.last().expect("at least one key");
        let u = self.rng.gen_range(0.0..total);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Arrivals at a fixed rate: request `i` is due at `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval_ns: f64,
    count: u64,
}

impl Schedule {
    /// `rate` arrivals per second for `length`, starting at `start`.
    pub fn new(start: Instant, rate: f64, length: Duration) -> Self {
        Self {
            start,
            interval_ns: 1e9 / rate,
            count: (rate * length.as_secs_f64()).round() as u64,
        }
    }

    /// Number of arrivals in the schedule.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// When arrival `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.interval_ns).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::serving::content_tokens;
    use std::collections::HashSet;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let draw = |seed| {
            let mut z = Zipf::new(4096, 1.07, seed);
            (0..20_000).map(|_| z.sample()).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&k| k < 4096));
        let top = a.iter().filter(|&&k| k == 0).count();
        let tail = a.iter().filter(|&&k| k == 1000).count();
        assert!(top > 10 * tail.max(1), "rank 0 {top} vs rank 1000 {tail}");
    }

    #[test]
    fn recipes_are_seeded_and_unique() {
        let source = RecipeSource::new(content_tokens(), 7);
        let again = RecipeSource::new(content_tokens(), 7);
        let other = RecipeSource::new(content_tokens(), 8);
        assert_eq!(source.take(0..50), again.take(0..50));
        assert_ne!(source.take(0..50), other.take(0..50));
        let keys: HashSet<String> = (0..20_000)
            .map(|i| cuisine::featurize::canonical_key(&source.recipe(i).0))
            .collect();
        assert_eq!(keys.len(), 20_000, "every generated recipe is never-seen");
    }

    #[test]
    fn recipes_survive_canonicalization() {
        let source = RecipeSource::new(content_tokens(), 3);
        for i in 0..100 {
            let (text, class) = source.recipe(i);
            assert!(class < CLASSES);
            let tokens = cuisine::featurize::entity_tokens(&text);
            assert!(RECIPE_LEN.contains(&tokens.len()));
            assert_eq!(tokens.join(", "), text);
        }
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 250.0, Duration::from_secs(4));
        assert_eq!(s.len(), 1000);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(1) - s.due(0), Duration::from_millis(4));
        assert_eq!(s.due(999) - t0, Duration::from_millis(3996));
        let odd = Schedule::new(t0, 3.0, Duration::from_secs(1));
        assert_eq!(odd.len(), 3);
        assert_eq!(odd.due(1) - t0, Duration::from_nanos(333_333_333));
    }
}
