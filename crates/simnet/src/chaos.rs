//! Seeded fault models: link stalls, storage faults, and the one
//! per-envelope hash.
//!
//! The network is reliable and FIFO, as the paper assumes: an
//! envelope is never dropped, duplicated or corrupted between live
//! endpoints. What such a channel may still do is be slow, so the one
//! network fault left is a **stall** ([`ChaosConfig`]): a seeded,
//! heavy-tailed extra delay that holds an envelope — and, since the
//! fabric keeps per-pair FIFO, everything behind it on its link. The
//! other seeded faults are a remote object store's ([`StorageChaos`]),
//! because disks and object stores really do fail in ways a protocol
//! must survive. Every decision is a pure function of the seed and a
//! sequence number (the fabric's per-link `seq`, or the store's global
//! operation number), so a schedule replays identically.
//! [`link_hash`] is also the `Delayed` latency model's source of
//! jitter.

use crate::Rank;
use std::time::Duration;

/// Seeded link stalls on a reliable FIFO fabric. With probability
/// `delay_p` an envelope accepted by [`crate::SimNet::send`] is held
/// for an extra heavy-tailed delay; it still arrives, intact and in
/// order. A default `ChaosConfig` stalls nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for all stall decisions.
    pub seed: u64,
    /// Probability an envelope draws an extra heavy-tailed delay.
    pub delay_p: f64,
    /// Median of the lognormal heavy-tail delay distribution.
    pub delay_median: Duration,
    /// Shape (σ of the underlying normal) of the heavy tail. Around
    /// 1.0 the 99th percentile sits near `10 × median`.
    pub delay_sigma: f64,
    /// Hard cap on a single heavy-tail draw, so a pathological sample
    /// cannot outlast a whole experiment.
    pub delay_cap: Duration,
}

impl ChaosConfig {
    /// A stall model with the given seed that stalls nothing.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            delay_p: 0.0,
            delay_median: Duration::from_millis(2),
            delay_sigma: 1.0,
            delay_cap: Duration::from_millis(20),
        }
    }

    /// Enables a seeded heavy-tailed (lognormal) per-envelope delay:
    /// with probability `p` an envelope is held for
    /// `median · exp(sigma · z)` (z standard normal), capped at `cap`.
    /// Because the fabric preserves per-pair FIFO, one tail draw
    /// silences its whole link for the draw's duration. A fixed stall
    /// of `d` is `with_heavy_tail(p, d, 0.0, d)`.
    pub fn with_heavy_tail(mut self, p: f64, median: Duration, sigma: f64, cap: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay probability out of range");
        assert!(sigma >= 0.0, "delay sigma must be non-negative");
        self.delay_p = p;
        self.delay_median = median;
        self.delay_sigma = sigma;
        self.delay_cap = cap;
        self
    }

    /// The extra delay of the `src → dst` envelope with per-link
    /// sequence number `seq`; zero means deliver on schedule. Pure in
    /// `(seed, src, dst, seq)`.
    pub(crate) fn stall(&self, src: Rank, dst: Rank, seq: u64) -> Duration {
        if self.delay_p == 0.0 || self.roll(src, dst, seq, SALT_DELAY) >= self.delay_p {
            return Duration::ZERO;
        }
        // One lognormal draw via Box–Muller over two salted uniforms;
        // u1 is nudged into (0, 1] so ln(u1) is finite.
        let u1 = ((self.hash(src, dst, seq, SALT_TAIL_A) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let u2 = self.roll(src, dst, seq, SALT_TAIL_B);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let scaled = self.delay_median.as_secs_f64() * (self.delay_sigma * z).exp();
        Duration::from_secs_f64(scaled.min(self.delay_cap.as_secs_f64()))
    }

    fn hash(&self, src: Rank, dst: Rank, seq: u64, salt: u64) -> u64 {
        link_hash(self.seed, src, dst, seq, salt)
    }

    fn roll(&self, src: Rank, dst: Rank, seq: u64, salt: u64) -> f64 {
        (self.hash(src, dst, seq, salt) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A remote-storage outage: while the store's global operation
/// sequence number lies in `[from_op, to_op)`, every operation fails
/// with an *unavailable* error.
///
/// The window lives in sequence space rather than wall time so a
/// storage chaos schedule replays identically under the same seed.
#[derive(Debug, Clone)]
pub struct OutageWindow {
    /// First operation sequence number affected (inclusive).
    pub from_op: u64,
    /// First operation sequence number no longer affected (exclusive).
    pub to_op: u64,
}

impl OutageWindow {
    /// True when operation `op` falls inside the outage.
    pub fn covers(&self, op: u64) -> bool {
        op >= self.from_op && op < self.to_op
    }
}

/// Seeded fault model for a simulated remote object store. Every
/// decision is a pure function of `(seed, op, salt)`, where `op` is the
/// store's global operation sequence number. All probabilities are per
/// operation and default to zero.
#[derive(Debug, Clone)]
pub struct StorageChaos {
    /// Seed for all storage-fault decisions.
    pub seed: u64,
    /// Probability an operation fails with a retryable transient
    /// error (the backend stays untouched).
    pub transient_p: f64,
    /// Probability a put stores a *truncated* object yet reports
    /// success — a torn upload only a checksum can catch.
    pub torn_p: f64,
    /// Probability a put stores the object with one bit flipped yet
    /// reports success — silent media corruption.
    pub flip_p: f64,
    /// Unavailability windows in operation-sequence space.
    pub outages: Vec<OutageWindow>,
}

impl StorageChaos {
    /// A storage fault model with the given seed and no faults.
    pub fn seeded(seed: u64) -> Self {
        StorageChaos {
            seed,
            transient_p: 0.0,
            torn_p: 0.0,
            flip_p: 0.0,
            outages: Vec::new(),
        }
    }

    /// Sets the per-operation transient-error probability.
    pub fn with_transient(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "transient probability out of range");
        self.transient_p = p;
        self
    }

    /// Sets the per-put torn-object probability.
    pub fn with_torn_put(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "torn probability out of range");
        self.torn_p = p;
        self
    }

    /// Sets the per-put bit-flip probability.
    pub fn with_corrupt_put(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt probability out of range");
        self.flip_p = p;
        self
    }

    /// Adds an unavailability window in operation-sequence space.
    pub fn with_outage(mut self, from_op: u64, to_op: u64) -> Self {
        self.outages.push(OutageWindow { from_op, to_op });
        self
    }

    /// Decides the fate of one storage operation. Pure in
    /// `(seed, op)`; two calls with identical arguments always agree.
    pub fn fate(&self, op: u64) -> StorageFate {
        StorageFate {
            unavailable: self.outages.iter().any(|w| w.covers(op)),
            transient: self.transient_p > 0.0
                && self.roll(op, SALT_S_TRANSIENT) < self.transient_p,
            torn: self.torn_p > 0.0 && self.roll(op, SALT_S_TORN) < self.torn_p,
            flip_bit: (self.flip_p > 0.0 && self.roll(op, SALT_S_FLIP) < self.flip_p)
                .then(|| self.hash(op, SALT_S_BIT)),
        }
    }

    fn hash(&self, op: u64, salt: u64) -> u64 {
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(op.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(salt);
        splitmix(key)
    }

    fn roll(&self, op: u64, salt: u64) -> f64 {
        (self.hash(op, salt) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The outcome of the storage-chaos rolls for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageFate {
    /// The operation lands in an outage window: fail unavailable.
    pub unavailable: bool,
    /// The operation fails with a retryable transient error.
    pub transient: bool,
    /// A put stores only a truncated prefix, yet reports success.
    pub torn: bool,
    /// When `Some(h)`, a put stores the object with bit `h % (len*8)`
    /// flipped, yet reports success.
    pub flip_bit: Option<u64>,
}

const SALT_DELAY: u64 = 0xDE;
const SALT_TAIL_A: u64 = 0x7A;
const SALT_TAIL_B: u64 = 0x7B;
const SALT_S_TRANSIENT: u64 = 0x5A;
const SALT_S_TORN: u64 = 0x5B;
const SALT_S_FLIP: u64 = 0x5C;
const SALT_S_BIT: u64 = 0x5D;

/// A pure 64-bit hash of `(seed, src, dst, seq, salt)`: the one source
/// of randomness of every per-envelope decision (stalls and the
/// `Delayed` model's jitter).
pub(crate) fn link_hash(seed: u64, src: Rank, dst: Rank, seq: u64, salt: u64) -> u64 {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((src as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((dst as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(seq.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(salt);
    splitmix(key)
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
    fn decisions_are_pure_and_seed_sensitive() {
        let c = ChaosConfig::seeded(7).with_heavy_tail(
            0.3,
            Duration::from_millis(2),
            1.0,
            Duration::from_millis(20),
        );
        for seq in 1..200u64 {
            assert_eq!(c.stall(0, 1, seq), c.stall(0, 1, seq), "seq {seq} must replay");
        }
        // A different seed must produce a different schedule somewhere.
        let d = ChaosConfig { seed: 8, ..c.clone() };
        assert!((1..200u64).any(|seq| c.stall(0, 1, seq) != d.stall(0, 1, seq)));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let ms = Duration::from_millis;
        let c = ChaosConfig::seeded(42).with_heavy_tail(0.1, ms(2), 1.0, ms(20));
        let stalled = (1..=10_000u64).filter(|&s| c.stall(2, 3, s) > Duration::ZERO).count();
        assert!((700..1300).contains(&stalled), "stalled={stalled}");
        // A fault-free model stalls nothing.
        let quiet = ChaosConfig::seeded(42);
        assert!((1..=1000u64).all(|s| quiet.stall(2, 3, s) == Duration::ZERO));
    }

    #[test]
    fn heavy_tail_is_pure_capped_and_actually_heavy() {
        let median = Duration::from_millis(2);
        let cap = Duration::from_millis(20);
        let c = ChaosConfig::seeded(11).with_heavy_tail(1.0, median, 1.0, cap);
        let draws: Vec<Duration> = (1..=10_000u64).map(|s| c.stall(0, 1, s)).collect();
        for (i, d) in draws.iter().enumerate() {
            assert_eq!(*d, c.stall(0, 1, (i + 1) as u64), "draws must replay");
            assert!(*d <= cap, "draw {d:?} exceeds cap");
        }
        // Median of a lognormal is its scale parameter: roughly half
        // the draws land on each side.
        let above = draws.iter().filter(|d| **d > median).count();
        assert!((4000..6000).contains(&above), "above-median count {above}");
        // Heavy tail: a visible fraction of draws exceed 5× median.
        let tail = draws.iter().filter(|d| **d > 5 * median).count();
        assert!(tail > 100, "tail draws {tail}");
        // Probability gate honours delay_p.
        let rare = ChaosConfig::seeded(11).with_heavy_tail(0.05, median, 1.0, cap);
        let delayed = (1..=10_000u64)
            .filter(|&s| rare.stall(0, 1, s) > Duration::ZERO)
            .count();
        assert!((300..800).contains(&delayed), "delayed={delayed}");
    }

    #[test]
    fn a_fixed_stall_is_a_zero_sigma_heavy_tail() {
        // sigma = 0 makes every draw exactly the median: each envelope
        // is held for the same 4 ms.
        let stall = Duration::from_millis(4);
        let c = ChaosConfig::seeded(3).with_heavy_tail(1.0, stall, 0.0, stall);
        assert!((1..100u64).all(|seq| c.stall(0, 1, seq) == stall));
    }

    #[test]
    fn storage_fates_are_pure_and_seed_sensitive() {
        let c = StorageChaos::seeded(9)
            .with_transient(0.2)
            .with_torn_put(0.2)
            .with_corrupt_put(0.2);
        for op in 0..200u64 {
            assert_eq!(c.fate(op), c.fate(op), "op {op} must replay");
        }
        let d = StorageChaos::seeded(10)
            .with_transient(0.2)
            .with_torn_put(0.2)
            .with_corrupt_put(0.2);
        assert!((0..200u64).any(|op| c.fate(op) != d.fate(op)));
    }

    #[test]
    fn storage_rates_are_roughly_honored() {
        let c = StorageChaos::seeded(21).with_transient(0.1);
        let failed = (0..10_000u64).filter(|&op| c.fate(op).transient).count();
        assert!((700..1300).contains(&failed), "transient={failed}");
        // A fault-free model injects nothing.
        let quiet = StorageChaos::seeded(21);
        assert!((0..1000u64).all(|op| {
            let f = quiet.fate(op);
            !f.unavailable && !f.transient && !f.torn && f.flip_bit.is_none()
        }));
    }

    #[test]
    fn outage_windows_cover_only_their_ops() {
        let c = StorageChaos::seeded(1).with_outage(10, 20).with_outage(40, 41);
        assert!(!c.fate(9).unavailable);
        assert!(c.fate(10).unavailable);
        assert!(c.fate(19).unavailable);
        assert!(!c.fate(20).unavailable);
        assert!(c.fate(40).unavailable);
        assert!(!c.fate(41).unavailable);
    }
}
