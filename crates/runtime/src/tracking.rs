//! The tracking layer: the pluggable [`LoggingProtocol`] box and the
//! `last_send_index` vector it is stepped with — the piggyback
//! construction/merge the paper's whole argument is about (TDI makes
//! *this* layer cheap; Algorithm 1 lines 8–11 on send, 15–31 on
//! deliver).
//!
//! The wrapper exists to time the protocol calls: the per-message
//! tracking cost — `on_send` piggyback construction, `on_deliver`
//! merge — is measured here, next to the call, on the host's clock
//! (Fig. 7), and [`TrackingStats`] lives here because every counter it
//! holds is incremented next to a protocol call. Part of the kernel's
//! `State` (see [`crate::kernel`]).

use lclog_core::{
    CounterVector, LoggingProtocol, ProtocolError, Rank, SendArtifacts, TrackingStats,
};
use std::time::{Duration, Instant};

/// Protocol box + the statistics measured around its calls.
pub(crate) struct Tracking {
    pub protocol: Box<dyn LoggingProtocol>,
    /// `last_send_index` vector (Algorithm 1 line 8). Bumped in the
    /// same call as the protocol's `on_send`, so per-destination
    /// protocol state and index order agree.
    pub last_send_index: CounterVector,
    pub stats: TrackingStats,
    /// Host time spent inside the protocol's `on_send` and
    /// `on_deliver`. It varies from run to run, so it stays out of
    /// `stats`, whose counters replay exactly.
    pub time: Duration,
}

impl Tracking {
    pub fn new(protocol: Box<dyn LoggingProtocol>, n: usize) -> Self {
        Tracking {
            protocol,
            last_send_index: CounterVector::zeroed(n),
            stats: TrackingStats::default(),
            time: Duration::ZERO,
        }
    }

    /// Timed `on_send` (Algorithm 1 lines 8–11): bumps `dst`'s send
    /// index, builds the piggyback and accounts the tracking cost.
    pub fn on_send(&mut self, dst: Rank) -> (u64, SendArtifacts) {
        let send_index = self.last_send_index.bump(dst);
        let t0 = Instant::now();
        let artifacts = self.protocol.on_send(dst, send_index);
        self.time += t0.elapsed();
        self.stats.sends += 1;
        self.stats.piggyback_ids += artifacts.id_count;
        self.stats.piggyback_bytes += artifacts.piggyback.len() as u64;
        (send_index, artifacts)
    }

    /// Timed `on_deliver` (lines 15–31): merges the piggyback and
    /// accounts the tracking cost. The delivery gate must already have
    /// approved this message — but gate and merge can still disagree
    /// (a poisoned piggyback a gate that does not decode it waved
    /// through, or stale state admitted across an incarnation
    /// boundary). That is a recoverable single-rank fault, not a
    /// process abort: the error is returned so the kernel can fault
    /// this rank and let it rebuild through the rollback path.
    pub fn on_deliver(
        &mut self,
        src: Rank,
        send_index: u64,
        piggyback: &[u8],
    ) -> Result<(), ProtocolError> {
        let t0 = Instant::now();
        self.protocol.on_deliver(src, send_index, piggyback)?;
        self.time += t0.elapsed();
        self.stats.delivers += 1;
        Ok(())
    }

    /// The stats snapshot reported outward: the runtime-side counters
    /// with the protocol's frame-level codec counters overlaid (both
    /// are cumulative over this incarnation, so assignment — not
    /// addition — is the correct overlay).
    pub fn snapshot_stats(&self) -> TrackingStats {
        let mut stats = self.stats.clone();
        if let Some(fs) = self.protocol.frame_stats() {
            stats.delta_frames = fs.delta_frames;
            stats.full_frames = fs.full_frames;
            stats.resync_requests = fs.resync_requests;
        }
        stats
    }
}
