//! Run metrics: completed operations, latencies, message counts, and the
//! replication-pipeline shape (batch-size and in-flight-depth histograms).

use std::collections::BTreeMap;

/// Metrics accumulated during a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// `(completion time, latency)` per completed client operation.
    pub completions: Vec<(u64, u64)>,
    /// Total node-to-node messages delivered.
    pub messages_delivered: u64,
    /// Total node-to-node payload bytes delivered.
    pub bytes_delivered: u64,
    /// Messages dropped by the fault model.
    pub messages_dropped: u64,
    /// Messages between co-hosted seats stepped in the round that produced
    /// them (see [`crate::Sim::co_host`]), not counted as delivered.
    pub local_deliveries: u64,
    /// Histogram of entries per non-empty AppendEntries batch: how well the
    /// leader coalesces its backlog. Keyed by exact batch size.
    pub append_batch_sizes: BTreeMap<usize, u64>,
    /// Histogram of the deepest per-peer in-flight replication window,
    /// sampled whenever a leader emits append traffic: how much pipelining
    /// actually happens. Keyed by exact depth.
    pub inflight_depths: BTreeMap<usize, u64>,
    /// `Redirect` answers clients received — each one is a request routed on
    /// a stale directory (or to a stale leader) and bounced.
    pub redirects: u64,
}

impl Metrics {
    /// Records one outbound AppendEntries batch of `entries` entries.
    pub(crate) fn record_batch(&mut self, entries: usize) {
        *self.append_batch_sizes.entry(entries).or_insert(0) += 1;
    }

    /// Records one sample of a leader's deepest in-flight window.
    pub(crate) fn record_inflight(&mut self, depth: usize) {
        *self.inflight_depths.entry(depth).or_insert(0) += 1;
    }

    /// Mean entries per non-empty AppendEntries batch.
    #[must_use]
    pub fn mean_batch_size(&self) -> Option<f64> {
        let count: u64 = self.append_batch_sizes.values().sum();
        if count == 0 {
            return None;
        }
        let total: u64 = self
            .append_batch_sizes
            .iter()
            .map(|(size, n)| *size as u64 * n)
            .sum();
        Some(total as f64 / count as f64)
    }

    /// The largest batch and window depth observed.
    #[must_use]
    pub fn pipeline_maxima(&self) -> (usize, usize) {
        let batch = self
            .append_batch_sizes
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0);
        let depth = self
            .inflight_depths
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0);
        (batch, depth)
    }
    /// Completed operations per window, from time 0 through the last
    /// completion.
    #[must_use]
    pub fn throughput_series(&self, window: u64) -> Vec<(u64, u64)> {
        let Some(&(last, _)) = self.completions.iter().max_by_key(|(t, _)| *t) else {
            return Vec::new();
        };
        let buckets = (last / window + 1) as usize;
        let mut series = vec![0u64; buckets];
        for (t, _) in &self.completions {
            series[(t / window) as usize] += 1;
        }
        series
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as u64 * window, c))
            .collect()
    }

    /// Completed operations within `[from, to)`.
    #[must_use]
    pub fn completed_between(&self, from: u64, to: u64) -> u64 {
        self.completions
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .count() as u64
    }

    /// The `p`-th latency percentile (0.0–1.0) over `[from, to)`, in µs.
    #[must_use]
    pub fn latency_percentile(&self, from: u64, to: u64, p: f64) -> Option<u64> {
        let mut lats: Vec<u64> = self
            .completions
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, l)| *l)
            .collect();
        if lats.is_empty() {
            return None;
        }
        lats.sort_unstable();
        let idx = ((lats.len() - 1) as f64 * p).round() as usize;
        Some(lats[idx])
    }

    /// Mean latency over `[from, to)`, in µs.
    #[must_use]
    pub fn mean_latency(&self, from: u64, to: u64) -> Option<f64> {
        let lats: Vec<u64> = self
            .completions
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, l)| *l)
            .collect();
        if lats.is_empty() {
            return None;
        }
        Some(lats.iter().sum::<u64>() as f64 / lats.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_buckets() {
        let m = Metrics {
            completions: vec![(100, 5), (900, 5), (1_100, 5), (2_500, 5)],
            ..Metrics::default()
        };
        let series = m.throughput_series(1_000);
        assert_eq!(series, vec![(0, 2), (1_000, 1), (2_000, 1)]);
        assert_eq!(m.completed_between(0, 1_000), 2);
    }

    #[test]
    fn pipeline_histograms() {
        let mut m = Metrics::default();
        m.record_batch(1);
        m.record_batch(4);
        m.record_batch(4);
        m.record_inflight(2);
        m.record_inflight(5);
        assert_eq!(m.mean_batch_size(), Some(3.0));
        assert_eq!(m.pipeline_maxima(), (4, 5));
        assert!(Metrics::default().mean_batch_size().is_none());
    }

    #[test]
    fn percentiles() {
        let m = Metrics {
            completions: (1..=100u64).map(|i| (i, i * 10)).collect(),
            ..Metrics::default()
        };
        assert_eq!(m.latency_percentile(0, 200, 0.5), Some(510));
        assert_eq!(m.latency_percentile(0, 200, 1.0), Some(1000));
        assert!(m.latency_percentile(500, 600, 0.5).is_none());
        let mean = m.mean_latency(0, 200).unwrap();
        assert!((mean - 505.0).abs() < 1e-9);
    }
}
