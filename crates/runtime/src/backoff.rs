//! The backoff schedule of the kernel's resync pacer: how long a rank
//! waits before re-asking a peer for a full sparse-codec frame.
//!
//! [`RetryBackoff`] is capped exponential backoff with **full jitter**
//! for *retrying a request* that competing ranks may all be making:
//! attempt `k` waits a uniformly random duration in
//! `[0, min(cap, initial·2^k)]`, which de-synchronizes competing
//! retriers far better than equal or half jitter.
//!
//! It is **clock-free**: it never reads wall time or global entropy —
//! the jitter is a pure function of its seed and attempt counter. A
//! schedule therefore replays identically under `SimClock`-driven
//! deterministic runs and exploration (`crates/explore`), where
//! sampling a real clock would fork the schedule space.

use std::time::Duration;

/// Capped exponential retry backoff with seeded full jitter.
///
/// The ceiling doubles per attempt from `initial` up to `cap`; each
/// wait is drawn uniformly from `[0, ceiling]` by hashing
/// `(seed, attempt)` — no RNG state, no clock reads, so two instances
/// with the same seed produce the *same* schedule and deterministic
/// harnesses stay deterministic.
#[derive(Debug, Clone)]
pub struct RetryBackoff {
    initial: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl RetryBackoff {
    /// A schedule from `initial` up to `cap` (clamped to `initial`),
    /// jittered by `seed`.
    pub fn new(initial: Duration, cap: Duration, seed: u64) -> Self {
        RetryBackoff {
            initial,
            cap: cap.max(initial),
            seed,
            attempt: 0,
        }
    }

    /// Attempts drawn since construction or the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The exponential ceiling the next draw is bounded by.
    pub fn ceiling(&self) -> Duration {
        let doubled = self
            .initial
            .saturating_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX));
        doubled.min(self.cap)
    }

    /// Draw the next wait: uniform in `[0, ceiling]`, then advance
    /// the attempt counter.
    pub fn next_wait(&mut self) -> Duration {
        let ceiling = self.ceiling();
        let unit = splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.attempt as u64),
        ) >> 11;
        let frac = unit as f64 / (1u64 << 53) as f64;
        self.attempt = self.attempt.saturating_add(1);
        ceiling.mul_f64(frac)
    }

    /// The operation succeeded: start the schedule over.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jittered_draws_stay_within_exponential_ceiling_and_cap() {
        let initial = Duration::from_millis(2);
        let cap = Duration::from_millis(40);
        let mut b = RetryBackoff::new(initial, cap, 0xFEED);
        for k in 0..24u32 {
            let ceiling = b.ceiling();
            let expect = initial
                .saturating_mul(1u32.checked_shl(k).unwrap_or(u32::MAX))
                .min(cap);
            assert_eq!(ceiling, expect, "attempt {k}");
            let wait = b.next_wait();
            assert!(wait <= ceiling, "attempt {k}: {wait:?} > {ceiling:?}");
            assert!(wait <= cap);
        }
        // Deep into the schedule the ceiling saturates at the cap.
        assert_eq!(b.ceiling(), cap);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let mk = |seed| {
            let mut b = RetryBackoff::new(
                Duration::from_millis(1),
                Duration::from_millis(64),
                seed,
            );
            (0..10).map(|_| b.next_wait()).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7), "same seed replays the same schedule");
        assert_ne!(mk(7), mk(8), "different seed, different schedule");
    }

    #[test]
    fn jitter_actually_spreads_draws() {
        // Full jitter must not collapse onto the ceiling: across many
        // capped draws both the low and high half of [0, cap] appear.
        let cap = Duration::from_millis(10);
        let mut b = RetryBackoff::new(cap, cap, 42);
        let draws: Vec<Duration> = (0..200).map(|_| b.next_wait()).collect();
        assert!(draws.iter().any(|d| *d < cap / 2));
        assert!(draws.iter().any(|d| *d > cap / 2));
    }

    #[test]
    fn retry_reset_restarts_the_ceiling() {
        let mut b = RetryBackoff::new(Duration::from_millis(1), Duration::from_millis(64), 5);
        for _ in 0..5 {
            b.next_wait();
        }
        assert_eq!(b.attempt(), 5);
        assert!(b.ceiling() > Duration::from_millis(1));
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert_eq!(b.ceiling(), Duration::from_millis(1));
    }
}
