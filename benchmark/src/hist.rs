//! A fixed-bucket log-scale latency histogram.
//!
//! Recording is O(1) and allocation-free, so the generator's own cost per
//! operation does not depend on how many samples a phase takes. Values are
//! nanoseconds; each power-of-two octave is cut into [`SUB`] linear
//! sub-buckets, which bounds the relative error of any reported quantile by
//! `1 / SUB` (under 1.6 %). Quantiles interpolate linearly inside the bucket
//! that holds the rank, so two runs report different digits even when their
//! medians fall into the same bucket.

/// Linear sub-buckets per octave.
const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Octaves above the linear range `[0, SUB)`: covers up to `2^40` ns
/// (about 18 minutes), far beyond the 5 s operation deadline.
const OCTAVES: usize = 40 - SUB_BITS as usize;
const BUCKETS: usize = SUB as usize * (OCTAVES + 1);

/// The histogram. Values above the top bucket saturate into it.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

/// The bucket holding `v`.
fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() - SUB_BITS; // >= 0 since v >= SUB
    let sub = (v >> octave) - SUB; // top SUB_BITS+1 bits, minus the leading one
    let idx = (octave as usize + 1) * SUB as usize + sub as usize;
    idx.min(BUCKETS - 1)
}

/// The half-open value range `[lo, hi)` of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    let sub = (idx as u64) % SUB;
    let group = (idx as u64) / SUB;
    if group == 0 {
        return (sub, sub + 1);
    }
    let octave = group - 1;
    let lo = (SUB + sub) << octave;
    (lo, lo + (1 << octave))
}

impl Hist {
    /// Records one value (nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, interpolated inside
    /// the bucket that holds rank `ceil(q * n)`. `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, hi) = bounds_of(idx);
                let hi = hi.min(self.max + 1);
                let into = (rank - seen as f64) / c as f64;
                return lo as f64 + into * (hi.max(lo) - lo) as f64;
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Rng;

    fn reference(sorted: &[u64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expect_lo = 0;
        for idx in 0..BUCKETS {
            let (lo, hi) = bounds_of(idx);
            assert_eq!(lo, expect_lo, "bucket {idx} starts where the last ended");
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of(hi - 1), idx);
            expect_lo = hi;
        }
    }

    #[test]
    fn quantiles_track_a_sorted_reference() {
        // A latency-shaped sample: a tight body around 1 ms and a long tail.
        let mut rng = Rng::new(7);
        let mut values: Vec<u64> = (0..50_000)
            .map(|i| {
                let body = 800_000 + rng.next_u64() % 600_000;
                if i % 50 == 0 {
                    body * (2 + rng.next_u64() % 200)
                } else {
                    body
                }
            })
            .collect();
        let mut h = Hist::default();
        for v in &values {
            h.record(*v);
        }
        values.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = reference(&values, q);
            let got = h.quantile(q);
            let err = (got - want).abs() / want;
            assert!(err <= 1.0 / SUB as f64, "q={q}: got {got}, want {want}");
        }
        assert_eq!(h.count(), 50_000);
    }

    #[test]
    fn small_values_are_exact_and_empty_is_zero() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [3, 3, 3, 9] {
            h.record(v);
        }
        assert!((3.0..4.0).contains(&h.quantile(0.5)));
        assert!((9.0..=10.0).contains(&h.quantile(1.0)));
    }
}
