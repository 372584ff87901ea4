//! Seeded chaos fault model: per-link drop / duplicate / bit-flip
//! corruption, transient partitions, and heavy-tailed delays.
//!
//! Every decision is a pure function of `(seed, src, dst, seq, salt)`,
//! where `seq` is the fabric's per-`(src, dst)` sequence number. Given
//! the same seed and the same per-link send sequence, a chaos schedule
//! therefore replays *identically* — independent of thread timing,
//! wall-clock, or traffic on other links. Partitions are likewise
//! expressed as windows in per-link sequence space rather than wall
//! time, for the same reason.

use crate::Rank;
use std::time::Duration;

/// A transient partition: while a link's per-pair sequence number lies
/// in `[from_seq, to_seq)` and the link crosses the group boundary
/// (exactly one endpoint inside `group`), the message is severed.
///
/// Expressing the window in sequence space instead of wall time keeps
/// chaos schedules replayable: the k-th message on a link is severed
/// or not regardless of when it is sent.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Ranks on one side of the cut.
    pub group: Vec<Rank>,
    /// First per-link sequence number affected (inclusive).
    pub from_seq: u64,
    /// First per-link sequence number no longer affected (exclusive).
    pub to_seq: u64,
}

impl Partition {
    /// True when this partition severs the `src → dst` message with
    /// per-link sequence number `seq`.
    pub fn severs(&self, src: Rank, dst: Rank, seq: u64) -> bool {
        seq >= self.from_seq
            && seq < self.to_seq
            && (self.group.contains(&src) != self.group.contains(&dst))
    }
}

/// Knobs of the seeded chaos fault model. All probabilities are per
/// envelope accepted by [`crate::SimNet::send`] and default to zero;
/// a default `ChaosConfig` injects no faults.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for all chaos decisions.
    pub seed: u64,
    /// Probability an envelope silently vanishes.
    pub drop_p: f64,
    /// Probability an envelope is delivered twice (same fabric `seq`,
    /// so reliability layers can discard the copy below the app).
    pub duplicate_p: f64,
    /// Probability one payload bit is flipped in transit.
    pub corrupt_p: f64,
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
    /// Transient partitions in per-link sequence space.
    pub partitions: Vec<Partition>,
}

impl ChaosConfig {
    /// A chaos model with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_p: 0.0,
            duplicate_p: 0.0,
            corrupt_p: 0.0,
            delay_p: 0.0,
            delay_median: Duration::from_millis(2),
            delay_sigma: 1.0,
            delay_cap: Duration::from_millis(20),
            partitions: Vec::new(),
        }
    }

    /// Sets the per-envelope drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_p = p;
        self
    }

    /// Sets the per-envelope duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate probability out of range");
        self.duplicate_p = p;
        self
    }

    /// Sets the per-envelope single-bit corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt probability out of range");
        self.corrupt_p = p;
        self
    }

    /// Enables a seeded heavy-tailed (lognormal) per-envelope delay:
    /// with probability `p` an envelope is held for
    /// `median · exp(sigma · z)` (z standard normal), capped at `cap`.
    /// Because the fabric preserves per-pair FIFO, one tail draw
    /// silences its whole link for the draw's duration, and the
    /// retransmission timers above it must ride that out. A fixed stall
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

    /// Adds a transient partition window.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Decides the fate of one envelope. Pure in `(seed, src, dst,
    /// seq)`; two calls with identical arguments always agree.
    pub(crate) fn fate(&self, src: Rank, dst: Rank, seq: u64) -> Fate {
        let severed = self.partitions.iter().any(|p| p.severs(src, dst, seq));
        let delayed = self.delay_p > 0.0 && self.roll(src, dst, seq, SALT_DELAY) < self.delay_p;
        Fate {
            severed,
            dropped: !severed && self.roll(src, dst, seq, SALT_DROP) < self.drop_p,
            duplicated: self.roll(src, dst, seq, SALT_DUP) < self.duplicate_p,
            corrupt_bit: (self.roll(src, dst, seq, SALT_CORRUPT) < self.corrupt_p)
                .then(|| self.hash(src, dst, seq, SALT_BIT)),
            delay: if delayed {
                self.heavy_tail_sample(src, dst, seq)
            } else {
                Duration::ZERO
            },
        }
    }

    /// One lognormal draw via Box–Muller over two salted uniforms.
    /// Pure in `(seed, src, dst, seq)` like every other chaos roll.
    fn heavy_tail_sample(&self, src: Rank, dst: Rank, seq: u64) -> Duration {
        // Nudge u1 into (0, 1] so ln(u1) is finite.
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
/// Like [`Partition`], the window lives in sequence space rather than
/// wall time so a storage chaos schedule replays identically under
/// the same seed, independent of thread timing.
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

/// Seeded fault model for a simulated remote object store (the
/// storage-side sibling of [`ChaosConfig`]). Every decision is a pure
/// function of `(seed, op, salt)`, where `op` is the store's global
/// operation sequence number — the same replayability discipline as
/// the network chaos model. All probabilities are per operation and
/// default to zero.
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

const SALT_DROP: u64 = 0xD0;
const SALT_DUP: u64 = 0xD1;
const SALT_CORRUPT: u64 = 0xC0;
const SALT_BIT: u64 = 0xB1;
const SALT_DELAY: u64 = 0xDE;
const SALT_TAIL_A: u64 = 0x7A;
const SALT_TAIL_B: u64 = 0x7B;
const SALT_S_TRANSIENT: u64 = 0x5A;
const SALT_S_TORN: u64 = 0x5B;
const SALT_S_FLIP: u64 = 0x5C;
const SALT_S_BIT: u64 = 0x5D;

/// A pure 64-bit hash of `(seed, src, dst, seq, salt)`: the one source
/// of randomness of every per-envelope decision (chaos fates and the
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

/// The outcome of the chaos rolls for one envelope.
pub(crate) struct Fate {
    /// Severed by a partition window (dropped, counted separately).
    pub severed: bool,
    /// Randomly dropped.
    pub dropped: bool,
    /// Delivered twice.
    pub duplicated: bool,
    /// When `Some(h)`, flip payload bit `h % (len * 8)`.
    pub corrupt_bit: Option<u64>,
    /// Heavy-tail delay added to this envelope's release time. Zero
    /// means deliver on schedule.
    pub delay: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let c = ChaosConfig::seeded(7)
            .with_drop(0.3)
            .with_duplicate(0.3)
            .with_corrupt(0.3);
        for seq in 1..200u64 {
            let a = c.fate(0, 1, seq);
            let b = c.fate(0, 1, seq);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.duplicated, b.duplicated);
            assert_eq!(a.corrupt_bit, b.corrupt_bit);
        }
        // A different seed must produce a different schedule somewhere.
        let d = ChaosConfig::seeded(8)
            .with_drop(0.3)
            .with_duplicate(0.3)
            .with_corrupt(0.3);
        assert!((1..200u64).any(|seq| c.fate(0, 1, seq).dropped != d.fate(0, 1, seq).dropped));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let c = ChaosConfig::seeded(42).with_drop(0.1);
        let dropped = (1..=10_000u64).filter(|&s| c.fate(2, 3, s).dropped).count();
        assert!((700..1300).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn heavy_tail_is_pure_capped_and_actually_heavy() {
        let median = Duration::from_millis(2);
        let cap = Duration::from_millis(20);
        let c = ChaosConfig::seeded(11).with_heavy_tail(1.0, median, 1.0, cap);
        let draws: Vec<Duration> = (1..=10_000u64).map(|s| c.fate(0, 1, s).delay).collect();
        for (i, d) in draws.iter().enumerate() {
            assert_eq!(*d, c.fate(0, 1, (i + 1) as u64).delay, "draws must replay");
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
            .filter(|&s| rare.fate(0, 1, s).delay > Duration::ZERO)
            .count();
        assert!((300..800).contains(&delayed), "delayed={delayed}");
    }

    #[test]
    fn a_fixed_stall_is_a_zero_sigma_heavy_tail() {
        // sigma = 0 makes every draw exactly the median: each envelope
        // is held for the same 4 ms.
        let stall = Duration::from_millis(4);
        let c = ChaosConfig::seeded(3).with_heavy_tail(1.0, stall, 0.0, stall);
        assert!((1..100u64).all(|seq| c.fate(0, 1, seq).delay == stall));
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

    #[test]
    fn partitions_sever_only_crossing_links_in_window() {
        let p = Partition { group: vec![0, 1], from_seq: 10, to_seq: 20 };
        assert!(p.severs(0, 2, 10));
        assert!(p.severs(2, 1, 19));
        assert!(!p.severs(0, 1, 15)); // same side
        assert!(!p.severs(2, 3, 15)); // same side
        assert!(!p.severs(0, 2, 9)); // before window
        assert!(!p.severs(0, 2, 20)); // after window
        let c = ChaosConfig::seeded(1).with_partition(p);
        assert!(c.fate(0, 2, 12).severed);
        assert!(!c.fate(0, 2, 12).dropped, "severed is not double-counted");
    }
}
