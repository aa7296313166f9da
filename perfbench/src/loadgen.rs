//! Load generation: seeded draws, the Zipf archetype mix, open-loop
//! pacing with lateness accounting, and the rate-ladder verdict.

use crate::metrics::median;
use blinkml_prob::split_seed;
use std::time::{Duration, Instant};

/// The `i`-th uniform draw in `[0, 1)` of stream `seed`.
pub fn unit(seed: u64, i: u64) -> f64 {
    (split_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// A Zipf distribution over `items` archetypes: archetype `r` (0 =
/// hottest) has weight `1 / (r + 1)^exponent`. The popularity order is
/// fixed by the caller's archetype order, so every seed sees the same
/// mix of contracts; the seed only picks the draw sequence.
#[derive(Debug, Clone)]
pub struct ZipfMix {
    /// Cumulative probability by rank.
    cdf: Vec<f64>,
}

impl ZipfMix {
    pub fn new(items: usize, exponent: f64) -> Self {
        assert!(items > 0, "a mix needs at least one archetype");
        let weights: Vec<f64> = (0..items)
            .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfMix { cdf }
    }

    /// The archetype a uniform draw `u ∈ [0, 1)` selects.
    pub fn pick(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` archetypes drawn from stream `seed`: a golden-ratio
    /// (Weyl) sequence from a seeded start, so any run of draws holds
    /// each archetype close to its exact share while the seed still
    /// decides the order.
    pub fn draws(&self, count: usize, seed: u64) -> Vec<usize> {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let start = unit(seed, 0);
        (0..count)
            .map(|i| self.pick((start + i as f64 * GOLDEN).fract()))
            .collect()
    }
}

/// Due offsets of an open-loop schedule at a fixed `rate` (requests per
/// second) over `window`: evenly spaced, starting at zero.
pub fn schedule(rate: f64, window: Duration) -> Vec<Duration> {
    let count = (rate * window.as_secs_f64()).floor() as usize;
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Send request `i` at `start + due[i]` (never early), returning how
/// late each send went out. A send that blocks delays every later one;
/// that delay is the generator's lateness, and it is charged to the
/// requests through [`latency_from_due`].
pub fn pace(start: Instant, due: &[Duration], mut send: impl FnMut(usize)) -> Vec<Duration> {
    due.iter()
        .enumerate()
        .map(|(i, &offset)| {
            let at = start + offset;
            let now = Instant::now();
            if now < at {
                std::thread::sleep(at - now);
            }
            let lateness = Instant::now().saturating_duration_since(at);
            send(i);
            lateness
        })
        .collect()
}

/// A request's latency measured from when it was due: the generator's
/// lateness plus the submit-to-completion time the server measured.
pub fn latency_from_due(lateness: Duration, served: Duration) -> Duration {
    lateness + served
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// How far the rung went toward its limits: the larger of its tail
    /// latency over the latency limit and its backlog growth over the
    /// growth limit. The rung meets both at 1 or below. A failed
    /// request makes it infinite.
    pub load: f64,
}

impl Rung {
    pub fn meets(&self) -> bool {
        self.load <= 1.0
    }
}

/// How much the backlog grew over a rung: the median latency of its
/// last third of requests minus that of its first third. It stays near
/// 0 while the server keeps up. Under overload the queue grows for as
/// long as the rung lasts, and so does this difference, even while a
/// short rung's tail is still under the latency limit.
pub fn backlog_growth_ms(latencies: &[f64]) -> f64 {
    let third = latencies.len() / 3;
    median(&latencies[latencies.len() - third..]) - median(&latencies[..third])
}

/// The highest rate that meets the limits: the top rung that meets
/// them, refined toward the next rung by where `load` crosses 1 on the
/// straight line between the two rungs. 0 when no rung meets them.
pub fn max_rate(rungs: &[Rung]) -> f64 {
    let Some(top) = rungs.iter().rposition(Rung::meets) else {
        return 0.0;
    };
    let lo = rungs[top];
    let Some(hi) = rungs.get(top + 1) else {
        return lo.rate;
    };
    let rise = hi.load - lo.load;
    let frac = if rise > 0.0 && hi.load.is_finite() {
        ((1.0 - lo.load) / rise).clamp(0.0, 1.0)
    } else {
        0.0
    };
    lo.rate + frac * (hi.rate - lo.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mix_is_deterministic_per_seed() {
        let mix = ZipfMix::new(24, 1.1);
        assert_eq!(mix.draws(500, 3), ZipfMix::new(24, 1.1).draws(500, 3));
        assert_ne!(mix.draws(500, 3), mix.draws(500, 4), "the seed must matter");
    }

    #[test]
    fn zipf_draws_hold_exact_shares() {
        let mix = ZipfMix::new(6, 1.0);
        let draws = mix.draws(4_900, 9);
        // Weights 1, 1/2, …, 1/6 sum to 2.45: archetype 0 is 1/2.45.
        let hot = draws.iter().filter(|&&d| d == 0).count();
        assert!((hot as f64 - 2_000.0).abs() <= 2.0, "hot count {hot}");
    }

    #[test]
    fn zipf_mix_favours_hot_ranks() {
        let mix = ZipfMix::new(24, 1.1);
        let draws = mix.draws(20_000, 1);
        let count = |item: usize| draws.iter().filter(|&&d| d == item).count();
        assert!(count(0) > count(1) && count(1) > count(5));
        assert!(count(0) > 5 * count(23), "{} vs {}", count(0), count(23));
        let mut seen = draws.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 24, "the cold tail stays in the mix");
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let due = schedule(4.0, Duration::from_millis(1_000));
        assert_eq!(due.len(), 4);
        assert_eq!(due[3], Duration::from_millis(750));
    }

    #[test]
    fn pacing_charges_a_stall_to_later_requests() {
        // Requests are due every 2 ms but each send blocks for 6 ms, so
        // request i goes out about 4·i ms late.
        let due: Vec<Duration> = (0..6).map(|i| Duration::from_millis(2 * i)).collect();
        let lateness = pace(Instant::now(), &due, |_| {
            std::thread::sleep(Duration::from_millis(6))
        });
        for (i, l) in lateness.iter().enumerate().skip(1) {
            assert!(
                *l >= Duration::from_millis(4 * i as u64),
                "request {i}: {l:?}"
            );
            assert!(*l >= lateness[i - 1]);
        }
        let served = Duration::from_millis(10);
        assert_eq!(latency_from_due(lateness[5], served), lateness[5] + served);
    }

    #[test]
    fn pacing_never_sends_early() {
        let start = Instant::now();
        let due = vec![Duration::from_millis(5), Duration::from_millis(9)];
        let mut sent = Vec::new();
        pace(start, &due, |i| sent.push((i, start.elapsed())));
        assert!(sent[0].1 >= due[0] && sent[1].1 >= due[1]);
    }

    #[test]
    fn max_rate_interpolates_to_the_limit() {
        let rung = |rate, load| Rung { rate, load };
        let rungs = [rung(10.0, 0.25), rung(20.0, 0.5), rung(30.0, 1.5)];
        assert_eq!(max_rate(&rungs), 25.0);
        assert_eq!(max_rate(&rungs[..2]), 20.0);
        assert_eq!(max_rate(&[rung(10.0, 1.5)]), 0.0);
        let mut failing = rungs;
        failing[2].load = f64::INFINITY;
        assert_eq!(max_rate(&failing), 20.0);
        // A miss below a rung that meets the limits does not count.
        let dip = [
            rung(10.0, 0.25),
            rung(20.0, 1.2),
            rung(30.0, 0.5),
            rung(40.0, 2.5),
        ];
        assert_eq!(max_rate(&dip), 32.5);
    }

    #[test]
    fn backlog_growth_compares_the_last_third_with_the_first() {
        let steady = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0];
        assert_eq!(backlog_growth_ms(&steady), 0.0);
        let growing: Vec<f64> = (0..9).map(|i| f64::from(10 * i)).collect();
        assert_eq!(backlog_growth_ms(&growing), 60.0);
    }
}
