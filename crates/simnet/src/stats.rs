/// Fabric-level traffic counters.
///
/// All counters are monotonic. The fabric keeps one copy with its
/// other state; [`crate::SimNet::stats`] returns a snapshot of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_delivered: u64,
    msgs_dropped_dead: u64,
    chaos_stalled: u64,
}

impl NetStats {
    pub(crate) fn record_send(&mut self, bytes: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    pub(crate) fn record_delivered(&mut self) {
        self.msgs_delivered += 1;
    }

    pub(crate) fn record_dropped_dead(&mut self, envelopes: usize) {
        self.msgs_dropped_dead += envelopes as u64;
    }

    pub(crate) fn record_chaos_stalled(&mut self) {
        self.chaos_stalled += 1;
    }

    /// Envelopes accepted by `send`.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Total payload bytes accepted by `send`.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Envelopes placed into a live destination inbox.
    pub fn msgs_delivered(&self) -> u64 {
        self.msgs_delivered
    }

    /// Envelopes dropped because the destination was dead at delivery
    /// time or died while they were in flight (the crash-loss model).
    pub fn msgs_dropped_dead(&self) -> u64 {
        self.msgs_dropped_dead
    }

    /// Envelopes a [`crate::ChaosConfig`] stalled in flight.
    pub fn chaos_stalled(&self) -> u64 {
        self.chaos_stalled
    }
}
