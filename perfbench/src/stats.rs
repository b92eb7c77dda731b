//! Order statistics, the seeded load generators and the ladder rule.
//!
//! Everything here is pure and deterministic so the unit tests below can pin
//! it exactly.

use rand::rngs::StdRng;
use rand::Rng;

/// Seed of item `index` of the stream seeded by `seed` (distinct for every
/// pair with `seed` and `index` below 2^32). The consumers seed the shim's
/// `StdRng` with it, which expands any seed through SplitMix64, so
/// consecutive child seeds give unrelated streams.
pub fn child_seed(seed: u64, index: u64) -> u64 {
    (seed << 32) ^ index
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p`% of the samples at or below it. `p` in `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank_index(sorted.len(), p)]
}

fn nearest_rank_index(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The tail percentile of `n` samples: the highest whole percentile (at most
/// the 99th, at least the 50th) that still has at least `beyond` samples
/// strictly above its nearest rank. `None` when even the median has fewer.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    (50..=99u32)
        .rev()
        .find(|&p| n - (nearest_rank_index(n, f64::from(p)) + 1) >= beyond)
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Send offsets (seconds from the phase start) of a Poisson process of the
/// given rate, truncated at `duration_s`.
pub fn poisson_schedule(rate: f64, duration_s: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 - U is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// A Zipf(`s`) distribution over ranks `0..n` (rank 0 most likely), sampled
/// by inverting a precomputed cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Latency of one open-loop request, in milliseconds, measured from when it
/// was **due** (phase start + scheduled offset), not from when the writer got
/// round to sending it: a late send is queueing the client must not hide.
pub fn latency_from_due_ms(due_offset_s: f64, received_offset_s: f64) -> f64 {
    (received_offset_s - due_offset_s) * 1e3
}

/// Outcome of one step of the goodput ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// 99th-percentile latency from the due time, milliseconds.
    pub p99_ms: f64,
    /// Time from the step's last due time to its last response, milliseconds.
    pub drain_ms: f64,
    /// Failed, refused or timed-out requests in the step.
    pub failures: usize,
    /// Requests the step actually completed per second, from its start to
    /// its last response.
    pub achieved_rps: f64,
}

impl LadderStep {
    /// A step passes when its p99 stays within the limit, the backlog drains
    /// within the limit after the last send (it did not grow without bound)
    /// and no request failed.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failures == 0 && self.p99_ms <= limit_ms && self.drain_ms <= limit_ms
    }
}

/// The passing step with the highest offered rate (`None` when none passed).
pub fn highest_passing(steps: &[LadderStep], limit_ms: f64) -> Option<&LadderStep> {
    steps
        .iter()
        .filter(|s| s.passes(limit_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

/// The next ladder index to probe, given the steps probed so far as
/// `(index, passed)`, or `None` when the search is done.
///
/// The search enters at `entry` and gallops away from it (up by 1, 1, 2,
/// 2, 4, … steps; down by 1, 2, 4, … steps, so a slow service soon meets a
/// rate it can serve) until it has seen both a pass and a fail. Then it
/// bisects between the highest passing step and the lowest failing step
/// above it. When those two are adjacent, the failing step is probed once
/// more, so one stall of a shared host does not end the search: it ends
/// when that step has failed twice, when the top step passes or when the
/// bottom step fails. It can reach every index in `0..len`.
pub fn next_ladder_index(probed: &[(usize, bool)], entry: usize, len: usize) -> Option<usize> {
    if probed.is_empty() {
        return Some(entry.min(len - 1));
    }
    let up = 1usize << ((probed.len() - 1) / 2).min(16);
    let down = 1usize << (probed.len() - 1).min(16);
    let pass = probed.iter().filter(|p| p.1).map(|p| p.0).max();
    let fail = probed
        .iter()
        .filter(|&&(k, ok)| !ok && pass.is_none_or(|lo| k > lo))
        .map(|p| p.0)
        .min();
    match (pass, fail) {
        (Some(lo), Some(hi)) if hi - lo > 1 => Some(lo + (hi - lo) / 2),
        (Some(_), Some(hi)) => {
            let fails = probed.iter().filter(|&&(k, ok)| k == hi && !ok).count();
            (fails < 2).then_some(hi)
        }
        (Some(lo), None) => (lo + 1 < len).then(|| (lo + up).min(len - 1)),
        (None, Some(hi)) => (hi > 0).then(|| hi.saturating_sub(down)),
        (None, None) => unreachable!("every probe either passed or failed"),
    }
}

/// The ladder index to enter at: the highest rate at or below `capacity`
/// (the lowest rate when all are above it).
pub fn ladder_entry(rates: &[f64], capacity: f64) -> usize {
    rates.partition_point(|&r| r <= capacity).saturating_sub(1)
}

/// A geometric ladder from `start` by `ratio` per step, `steps` long.
pub fn ladder_rates(start: f64, ratio: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|i| start * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 50 samples: p80 has rank 40 and exactly 10 beyond; p81 has 9.
        assert_eq!(tail_percentile(50, 10), Some(80));
        // 1000 samples: p99 has rank 990 and 10 beyond.
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(200, 10), Some(95));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(0, 10), None);
        for n in 20..500 {
            let p = tail_percentile(n, 10).unwrap();
            let beyond = n - (nearest_rank_index(n, f64::from(p)) + 1);
            assert!(beyond >= 10, "n={n} p={p}");
            if p < 99 {
                let next = n - (nearest_rank_index(n, f64::from(p + 1)) + 1);
                assert!(next < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_right_rate() {
        let a = poisson_schedule(200.0, 5.0, &mut StdRng::seed_from_u64(7));
        let b = poisson_schedule(200.0, 5.0, &mut StdRng::seed_from_u64(7));
        let c = poisson_schedule(200.0, 5.0, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 1000 expected arrivals; a Poisson count is within ±5σ (~160).
        assert!((840..1160).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < 1000));
        let top = a.iter().filter(|&&r| r == 0).count();
        let tenth = a.iter().filter(|&&r| r == 9).count();
        assert!(top > 5 * tenth.max(1), "rank 0: {top}, rank 9: {tenth}");
        // The tail is reached: a large seed space keeps hit rates partial.
        assert!(a.iter().filter(|&&r| r >= 100).count() > 1000);
    }

    /// Run the ladder search against a service whose capacity is index
    /// `capacity` (steps at or below it pass) and return the probes.
    fn search(entry: usize, len: usize, capacity: Option<usize>) -> Vec<usize> {
        let mut probed = Vec::new();
        while let Some(k) = next_ladder_index(&probed, entry, len) {
            let before = probed.iter().filter(|&&(p, _)| p == k).count();
            assert!(before < 2, "{k} probed three times");
            probed.push((k, capacity.is_some_and(|c| k <= c)));
            assert!(probed.len() <= 2 * len, "search does not end");
        }
        probed.into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn ladder_search_reaches_every_rate() {
        let len = 64;
        for entry in [0, 5, 31, 63] {
            for capacity in (0..len).map(Some).chain([None]) {
                let probes = search(entry, len, capacity);
                let highest = probes
                    .iter()
                    .copied()
                    .filter(|&k| capacity.is_some_and(|c| k <= c))
                    .max();
                assert_eq!(highest, capacity, "entry {entry}, probes {probes:?}");
            }
        }
        // Near the entry the search is short: pass, pass, fail, fail again.
        assert_eq!(search(20, 64, Some(21)), vec![20, 21, 22, 22]);
        assert_eq!(search(20, 64, Some(24)), vec![20, 21, 22, 24, 26, 25, 25]);
        // A single transient fail at the boundary is retried and overruled.
        let mut probed = vec![(20, false), (19, true)];
        assert_eq!(next_ladder_index(&probed, 20, 64), Some(20));
        probed.push((20, true));
        assert_eq!(next_ladder_index(&probed, 20, 64), Some(22));
        assert_eq!(search(20, 64, Some(19)), vec![20, 19, 20]);
        assert_eq!(
            search(40, 64, Some(30)),
            vec![40, 39, 37, 33, 25, 29, 31, 30, 31]
        );
        let rates = ladder_rates(20.0, 1.08, 64);
        assert_eq!(ladder_entry(&rates, 10.0), 0);
        assert_eq!(ladder_entry(&rates, 20.0), 0);
        assert_eq!(ladder_entry(&rates, 21.7), 1);
        assert_eq!(ladder_entry(&rates, 1e9), 63);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1.000 s, sent late at 1.050 s, answered at 1.060 s: the
        // client's own lateness is part of the latency.
        assert!((latency_from_due_ms(1.0, 1.06) - 60.0).abs() < 1e-9);
        assert!((latency_from_due_ms(0.5, 0.5) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ladder_picks_the_highest_passing_rate() {
        let step = |rate: f64, p99_ms, drain_ms, failures| LadderStep {
            rate,
            p99_ms,
            drain_ms,
            failures,
            achieved_rps: rate * 0.99,
        };
        let steps = vec![
            step(100.0, 10.0, 5.0, 0),
            step(108.0, 20.0, 8.0, 0),
            step(116.6, 30.0, 9.0, 0),
            step(126.0, 90.0, 70.0, 0),  // p99 over the limit
            step(136.0, 40.0, 20.0, 1),  // a failure
            step(146.9, 45.0, 300.0, 0), // growing backlog
        ];
        assert_eq!(highest_passing(&steps, 50.0).map(|s| s.rate), Some(116.6));
        assert_eq!(highest_passing(&steps[3..], 50.0), None);
        // Order does not matter: a descent that passes low finds the same.
        let mut reversed = steps.clone();
        reversed.reverse();
        assert_eq!(
            highest_passing(&reversed, 50.0).map(|s| s.rate),
            Some(116.6)
        );
        let rates = ladder_rates(100.0, 1.08, 4);
        assert_eq!(rates.len(), 4);
        assert!(rates.windows(2).all(|w| w[1] / w[0] < 1.1));
    }
}
