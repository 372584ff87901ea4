use std::sync::atomic::{AtomicU64, Ordering};

/// Fabric-level traffic counters.
///
/// All counters are monotonic and updated with relaxed atomics; they
/// are read once at the end of an experiment, so no ordering beyond
/// eventual visibility is required.
#[derive(Debug, Default)]
pub struct NetStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_delivered: AtomicU64,
    msgs_dropped_dead: AtomicU64,
    chaos_dropped: AtomicU64,
    chaos_duplicated: AtomicU64,
    chaos_corrupted: AtomicU64,
    chaos_stalled: AtomicU64,
    partition_dropped: AtomicU64,
    retransmits: AtomicU64,
}

impl NetStats {
    pub(crate) fn record_send(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_delivered(&self) {
        self.msgs_delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dropped_dead(&self, envelopes: usize) {
        self.msgs_dropped_dead
            .fetch_add(envelopes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_dropped(&self) {
        self.chaos_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_duplicated(&self) {
        self.chaos_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_corrupted(&self) {
        self.chaos_corrupted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_chaos_stalled(&self) {
        self.chaos_stalled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_partition_dropped(&self) {
        self.partition_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transport-level retransmission. Public because the
    /// reliability layer above the fabric drives retransmissions.
    pub fn record_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Envelopes accepted by `send`.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes accepted by `send`.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Envelopes placed into a live destination inbox.
    pub fn msgs_delivered(&self) -> u64 {
        self.msgs_delivered.load(Ordering::Relaxed)
    }

    /// Envelopes dropped because the destination was dead at delivery
    /// time or died while they were in flight (the crash-loss model).
    pub fn msgs_dropped_dead(&self) -> u64 {
        self.msgs_dropped_dead.load(Ordering::Relaxed)
    }

    /// Envelopes the chaos model silently dropped.
    pub fn chaos_dropped(&self) -> u64 {
        self.chaos_dropped.load(Ordering::Relaxed)
    }

    /// Envelopes the chaos model delivered twice.
    pub fn chaos_duplicated(&self) -> u64 {
        self.chaos_duplicated.load(Ordering::Relaxed)
    }

    /// Envelopes the chaos model bit-flipped in transit.
    pub fn chaos_corrupted(&self) -> u64 {
        self.chaos_corrupted.load(Ordering::Relaxed)
    }

    /// Envelopes the chaos model delayed in flight.
    pub fn chaos_stalled(&self) -> u64 {
        self.chaos_stalled.load(Ordering::Relaxed)
    }

    /// Envelopes severed by a transient partition window.
    pub fn partition_dropped(&self) -> u64 {
        self.partition_dropped.load(Ordering::Relaxed)
    }

    /// Transport-level retransmissions recorded by the layer above.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }
}
