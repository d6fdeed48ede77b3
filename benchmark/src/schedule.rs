//! Seeded workload inputs: the arrival schedule, the operation mix, and the
//! key-ownership partition.
//!
//! Everything the cluster receives is derived here from `--seed`; the
//! generator is this file's only consumer, so equal seeds give equal inputs.

use std::time::Duration;

/// Keys in the keyspace (`k00000000` .. `k00009999`).
pub const KEYS: u64 = 10_000;
/// Logical client sessions multiplexed over the generator's connections.
pub const SESSIONS: u64 = 64;
/// Value payload size in bytes (the paper's largest configuration).
pub const VALUE_BYTES: usize = 512;

/// splitmix64: small, seedable, and frozen here so the inputs cannot drift
/// with a change to the repo's vendored `rand`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — safe to take the logarithm of.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled operation: when it is due, what it is, and the draw that
/// picks its key among the keys of whichever session ends up carrying it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the phase start at which the operation is due.
    pub due: Duration,
    /// A linearizable `Get` instead of a `Put`.
    pub read: bool,
    /// Key draw, reduced modulo the carrying session's key count.
    pub draw: u64,
}

/// An endless seeded arrival stream: Poisson arrivals at `rate` per second
/// (exponential gaps), each a read with probability `read_pct` percent.
pub struct Schedule {
    rng: Rng,
    rate: f64,
    read_pct: u64,
    at: f64,
}

impl Schedule {
    pub fn new(seed: u64, rate: f64, read_pct: u64) -> Schedule {
        Schedule {
            rng: Rng::new(seed),
            rate,
            read_pct,
            at: 0.0,
        }
    }

    /// An operation for "now" with the stream's mix (the closed-loop phases
    /// draw their operations here too, so kind and key stay seeded).
    pub fn draw_op(&mut self) -> (bool, u64) {
        let read = self.rng.next_u64() % 100 < self.read_pct;
        (read, self.rng.next_u64())
    }
}

impl Iterator for Schedule {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.at += -self.rng.next_unit().ln() / self.rate;
        let (read, draw) = self.draw_op();
        Some(Arrival {
            due: Duration::from_secs_f64(self.at),
            read,
            draw,
        })
    }
}

/// How many keys session `s` owns: the keys `i` with `i % SESSIONS == s`.
pub fn keys_owned(session: u64) -> u64 {
    KEYS / SESSIONS + u64::from(session < KEYS % SESSIONS)
}

/// The `n`-th key (`n < keys_owned(session)`) of `session`.
pub fn key_index(session: u64, n: u64) -> u64 {
    session + n * SESSIONS
}

/// The session owning key index `i`.
pub fn owner_of(key: u64) -> u64 {
    key % SESSIONS
}

/// The wire form of key index `i`.
pub fn key_bytes(key: u64) -> Vec<u8> {
    format!("k{key:08}").into_bytes()
}

/// The unique value write `seq` of `session` stores: a tag that names the
/// write, padded to [`VALUE_BYTES`]. Every read's expected value is exact
/// because only the owner session ever writes a key.
pub fn value_bytes(session: u64, seq: u64) -> Vec<u8> {
    let mut v = format!("s{session:02}-q{seq:012}-").into_bytes();
    v.resize(VALUE_BYTES, b'x');
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_schedules_and_different_seeds_differ() {
        let a: Vec<Arrival> = Schedule::new(11, 2000.0, 90).take(5000).collect();
        let b: Vec<Arrival> = Schedule::new(11, 2000.0, 90).take(5000).collect();
        let c: Vec<Arrival> = Schedule::new(12, 2000.0, 90).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(
            a.windows(2).all(|w| w[0].due <= w[1].due),
            "due times ascend"
        );
    }

    #[test]
    fn poisson_rate_and_mix_match_their_parameters() {
        let n = 200_000;
        let arrivals: Vec<Arrival> = Schedule::new(3, 8000.0, 90).take(n).collect();
        let span = arrivals.last().unwrap().due.as_secs_f64();
        let rate = n as f64 / span;
        assert!((rate - 8000.0).abs() < 8000.0 * 0.02, "rate {rate}");
        let reads = arrivals.iter().filter(|a| a.read).count() as f64 / n as f64;
        assert!((reads - 0.9).abs() < 0.01, "read share {reads}");
        // Exponential gaps: the standard deviation equals the mean.
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn ownership_partition_covers_the_keyspace_exactly_once() {
        let mut seen = vec![0u32; KEYS as usize];
        for s in 0..SESSIONS {
            for n in 0..keys_owned(s) {
                let k = key_index(s, n);
                assert!(k < KEYS, "session {s} key {n} -> {k} out of range");
                assert_eq!(owner_of(k), s);
                seen[k as usize] += 1;
            }
        }
        assert!(seen.iter().all(|c| *c == 1));
        assert_eq!((0..SESSIONS).map(keys_owned).sum::<u64>(), KEYS);
    }

    #[test]
    fn values_are_unique_per_write_and_sized() {
        assert_eq!(value_bytes(3, 9).len(), VALUE_BYTES);
        assert_ne!(value_bytes(3, 9), value_bytes(3, 10));
        assert_ne!(value_bytes(3, 9), value_bytes(4, 9));
    }
}
