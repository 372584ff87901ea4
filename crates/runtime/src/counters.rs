//! An atomic per-rank counter vector ([`AtomicCounters`]) for the one
//! kernel vector that has a lock-free reader: the rendezvous `acked`
//! counters, polled by the blocking engine's spin while the comm
//! thread raises them. Every other counter vector lives under the
//! layer lock that already serializes its writers.

use lclog_core::CounterVector;
use std::sync::atomic::{AtomicU64, Ordering};

/// A vector of per-rank `u64` counters with lock-free readers and
/// writers.
pub(crate) struct AtomicCounters {
    slots: Vec<AtomicU64>,
}

impl AtomicCounters {
    pub(crate) fn zeroed(n: usize) -> Self {
        AtomicCounters {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn get(&self, k: usize) -> u64 {
        self.slots[k].load(Ordering::Acquire)
    }

    pub(crate) fn set(&self, k: usize, v: u64) {
        self.slots[k].store(v, Ordering::Release);
    }

    /// Monotone raise: never lowers the stored value.
    pub(crate) fn max_up(&self, k: usize, v: u64) {
        self.slots[k].fetch_max(v, Ordering::AcqRel);
    }

    /// Point-in-time copy as a [`CounterVector`].
    pub(crate) fn snapshot(&self) -> CounterVector {
        CounterVector::from_vec(self.slots.iter().map(|s| s.load(Ordering::Acquire)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_counters_roundtrip() {
        let c = AtomicCounters::zeroed(3);
        c.max_up(1, 2);
        c.set(2, 9);
        c.max_up(2, 5); // no-op: monotone
        assert_eq!(c.get(2), 9);
        c.max_up(2, 11);
        assert_eq!(c.snapshot().as_slice(), &[0, 2, 11]);
        c.set(2, 4); // rollback clamps below the high-water mark
        assert_eq!(c.get(2), 4);
    }
}
