//! Order statistics and the open-loop verdicts built on them.

/// Percentiles the benchmark reports, highest first.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of ascending `sorted` samples (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// per-mille arithmetic so that e.g. p99.9 of 10 000 is rank 9 990 exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of [`PERCENTILES`] with at least ten samples beyond it, or
/// `None` when even the median has fewer (under 20 samples).
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.into_iter().find(|&p| beyond(n, p) >= 10)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Most chunks a run is split into.
const MAX_CHUNKS: usize = 5;
/// Fewest samples per chunk: enough for ten beyond the 90th percentile.
const MIN_CHUNK: usize = 100;

/// Split `n` samples into up to five consecutive chunks of at least 100
/// samples each: the chunk size.
fn chunk_size(n: usize) -> usize {
    n.div_ceil((n / MIN_CHUNK).clamp(1, MAX_CHUNKS)).max(1)
}

/// Each consecutive chunk's `p`-th percentile of `values` (in arrival
/// order). Reporting their median means one disturbed stretch of a run
/// moves the result less than it moves a percentile over the whole run.
pub fn chunk_percentiles(values: &[f64], p: f64) -> Vec<f64> {
    values
        .chunks(chunk_size(values.len()))
        .map(|c| percentile(&sorted(c), p))
        .collect()
}

/// Each consecutive chunk's rate: the sum of its events' `weights` per
/// second. `times` are the events' ascending times in seconds; the first
/// chunk starts at `origin`, each later one where the previous chunk's
/// last event was. Chunked like [`chunk_percentiles`].
pub fn chunk_rates(times: &[f64], weights: &[f64], origin: f64) -> Vec<f64> {
    let size = chunk_size(times.len());
    let mut start = origin;
    times
        .chunks(size)
        .zip(weights.chunks(size))
        .map(|(t, w)| {
            let end = t[t.len() - 1];
            let rate = w.iter().sum::<f64>() / (end - start);
            start = end;
            rate
        })
        .collect()
}

/// Whether a queue grew over an open-loop step: `latencies` in due-time
/// order. The backlog grows when the median latency of the last quarter of
/// arrivals is more than twice that of the first quarter; a stable queue
/// keeps both quarters alike however busy it is.
pub fn backlog_grows(latencies: &[f64]) -> bool {
    let q = latencies.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&latencies[..q]);
    let last = median(&latencies[latencies.len() - q..]);
    last > 2.0 * first
}

/// One rung of the open-loop rate ladder, as judged for the SLO.
#[derive(Clone, Debug)]
pub struct StepVerdict {
    pub rate: f64,
    pub tail_ms: f64,
    pub failed: u64,
    pub backlog: bool,
}

/// The highest ladder rate at which the tail stays within `limit_ms`, no
/// request fails and the backlog does not grow — and so does every lower
/// rate. `0.0` when even the lowest rate misses.
pub fn slo_rate(steps: &[StepVerdict], limit_ms: f64) -> f64 {
    let mut by_rate: Vec<&StepVerdict> = steps.iter().collect();
    by_rate.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    by_rate
        .into_iter()
        .take_while(|s| s.tail_ms <= limit_ms && s.failed == 0 && !s.backlog)
        .last()
        .map_or(0.0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn chosen_percentile_has_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 250, 1000, 4321, 10_000] {
            let p = supported_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            // …and it is the highest such percentile.
            if let Some(&higher) = PERCENTILES.iter().rev().find(|&&q| q > p) {
                assert!(beyond(n, higher) < 10, "n={n} p={p} higher={higher}");
            }
        }
    }

    #[test]
    fn backlog_detects_a_growing_queue_only() {
        let flat: Vec<f64> = (0..200).map(|i| 18.0 + (i % 7) as f64).collect();
        assert!(!backlog_grows(&flat));
        // A busy but stable queue: long latencies throughout.
        let busy: Vec<f64> = (0..200).map(|i| 45.0 + (i % 13) as f64 * 3.0).collect();
        assert!(!backlog_grows(&busy));
        // Arrivals outpace service: each request waits for all before it.
        let growing: Vec<f64> = (0..200).map(|i| 16.0 + 4.0 * i as f64).collect();
        assert!(backlog_grows(&growing));
        assert!(!backlog_grows(&[1.0, 100.0, 1000.0]));
    }

    #[test]
    fn runs_split_into_up_to_five_chunks_of_at_least_100() {
        // Too few samples for two chunks: the plain percentile.
        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(chunk_percentiles(&few, 90.0), vec![percentile(&few, 90.0)]);
        // Five chunks of 100; one disturbed chunk does not move the median.
        let mut v: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[200..300] {
            *x += 1000.0;
        }
        assert_eq!(
            chunk_percentiles(&v, 90.0),
            vec![89.0, 89.0, 1089.0, 89.0, 89.0]
        );
        // More samples still make at most five chunks.
        let many: Vec<f64> = (0..5000).map(|i| f64::from(i % 10)).collect();
        assert_eq!(chunk_percentiles(&many, 50.0), vec![4.0; 5]);
    }

    #[test]
    fn chunk_rates_sum_weights_per_second() {
        // 500 events every 10 ms from t = 0: 100 per second.
        let t: Vec<f64> = (1..=500).map(|i| f64::from(i) * 0.01).collect();
        let ones = vec![1.0; t.len()];
        for r in chunk_rates(&t, &ones, 0.0) {
            assert!((r - 100.0).abs() < 1e-9);
        }
        // Weights are summed: 3 s of audio per event is 300 audio s/s.
        let three = vec![3.0; t.len()];
        assert!((median(&chunk_rates(&t, &three, 0.0)) - 300.0).abs() < 1e-9);
        // A stall inside one chunk slows that chunk only.
        let stalled: Vec<f64> = t
            .iter()
            .map(|&x| if x > 2.5 { x + 4.0 } else { x })
            .collect();
        let rates = chunk_rates(&stalled, &ones, 0.0);
        assert!((rates[2] - 20.0).abs() < 1e-9);
        assert!((median(&rates) - 100.0).abs() < 1e-9);
        // Too few events for two chunks: one rate over the whole span.
        assert_eq!(chunk_rates(&[1.0, 2.0], &[1.0, 1.0], 0.0), vec![1.0]);
    }

    fn step(rate: f64, tail_ms: f64, failed: u64, backlog: bool) -> StepVerdict {
        StepVerdict {
            rate,
            tail_ms,
            failed,
            backlog,
        }
    }

    #[test]
    fn slo_rate_is_highest_rate_of_the_passing_prefix() {
        let ladder = [
            step(50.0, 25.0, 0, false),
            step(90.0, 41.0, 0, false),
            step(130.0, 70.0, 0, false),
            step(170.0, 900.0, 0, true),
        ];
        assert_eq!(slo_rate(&ladder, 60.0), 90.0);
        assert_eq!(slo_rate(&ladder, 80.0), 130.0);
        assert_eq!(slo_rate(&ladder, 20.0), 0.0);
        // Order of the steps does not matter.
        let mut reversed = ladder.to_vec();
        reversed.reverse();
        assert_eq!(slo_rate(&reversed, 60.0), 90.0);
    }

    #[test]
    fn slo_rate_rejects_failures_and_backlog() {
        let failing = [step(50.0, 20.0, 0, false), step(90.0, 30.0, 1, false)];
        assert_eq!(slo_rate(&failing, 60.0), 50.0);
        // A growing backlog fails the rung even with a tail under the limit.
        let backlogged = [step(50.0, 20.0, 0, false), step(90.0, 30.0, 0, true)];
        assert_eq!(slo_rate(&backlogged, 60.0), 50.0);
        // A pass above a miss does not count: the prefix ends at the miss.
        let gap = [
            step(50.0, 20.0, 0, false),
            step(90.0, 30.0, 0, true),
            step(130.0, 40.0, 0, false),
        ];
        assert_eq!(slo_rate(&gap, 60.0), 50.0);
    }
}
