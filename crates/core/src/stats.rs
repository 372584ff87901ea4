/// Per-process dependency-tracking cost counters — the raw material of
/// the paper's Fig. 6 (piggyback data amount). Every field is a count a
/// run replays exactly; Fig. 7's tracking time is host time and is
/// reported by the runtime beside these.
///
/// Owned by the runtime (one per incarnation, no sharing) and summed
/// across ranks when an experiment ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackingStats {
    /// Application messages sent.
    pub sends: u64,
    /// Application messages delivered.
    pub delivers: u64,
    /// Identifiers piggybacked across all sends (TDI: n per message;
    /// TAG/TEL: 4 per determinant).
    pub piggyback_ids: u64,
    /// Encoded piggyback bytes across all sends.
    pub piggyback_bytes: u64,
    /// Peak bytes retained in the sender-based message log (payloads +
    /// piggybacks) — the memory cost checkpoint-interval choices trade
    /// against (ablation ABL3).
    pub log_bytes_peak: u64,
    /// Nanoseconds an incarnation spent collecting recovery
    /// information (ROLLBACK broadcast → last RESPONSE / logger
    /// answer). PWD protocols cannot deliver anything during this
    /// window; TDI can — the paper's rolling-forward advantage,
    /// measured directly (ablation ABL2).
    pub recovery_sync_ns: u64,
    /// Sparse-codec DELTA frames encoded (0 for dense protocols).
    pub delta_frames: u64,
    /// Sparse-codec FULL frames encoded (0 for dense protocols).
    pub full_frames: u64,
    /// Resync requests this process issued for undecodable frames.
    pub resync_requests: u64,
}

/// Frame-level counters of the sparse piggyback codec, reported by
/// [`LoggingProtocol::frame_stats`](crate::LoggingProtocol::frame_stats)
/// and folded into [`TrackingStats`] by the runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// DELTA frames encoded on sends.
    pub delta_frames: u64,
    /// FULL frames encoded on sends (first-on-channel, periodic
    /// resync, or delta-not-smaller).
    pub full_frames: u64,
    /// Resync requests issued for frames that could not be decoded.
    pub resync_requests: u64,
}

impl TrackingStats {
    /// Fold another process's counters into this one.
    pub fn merge(&mut self, other: &TrackingStats) {
        self.sends += other.sends;
        self.delivers += other.delivers;
        self.piggyback_ids += other.piggyback_ids;
        self.piggyback_bytes += other.piggyback_bytes;
        // Peaks aggregate by max, not sum: the cluster-wide peak is
        // the worst single process (incarnations of one rank reuse
        // the same memory).
        self.log_bytes_peak = self.log_bytes_peak.max(other.log_bytes_peak);
        self.recovery_sync_ns += other.recovery_sync_ns;
        self.delta_frames += other.delta_frames;
        self.full_frames += other.full_frames;
        self.resync_requests += other.resync_requests;
    }

    /// Fig. 6's metric: average identifiers piggybacked per sent
    /// message.
    pub fn avg_ids_per_msg(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.piggyback_ids as f64 / self.sends as f64
        }
    }

    /// Average piggyback bytes per sent message.
    pub fn avg_bytes_per_msg(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.piggyback_bytes as f64 / self.sends as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero_sends() {
        let s = TrackingStats::default();
        assert_eq!(s.avg_ids_per_msg(), 0.0);
        assert_eq!(s.avg_bytes_per_msg(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = TrackingStats {
            sends: 1,
            delivers: 2,
            piggyback_ids: 3,
            piggyback_bytes: 4,
            log_bytes_peak: 7,
            recovery_sync_ns: 100,
            delta_frames: 8,
            full_frames: 9,
            resync_requests: 10,
        };
        let mut b = a.clone();
        b.log_bytes_peak = 3;
        a.merge(&b);
        assert_eq!(a.sends, 2);
        assert_eq!(a.delivers, 4);
        assert_eq!(a.piggyback_ids, 6);
        assert_eq!(a.piggyback_bytes, 8);
        assert_eq!(a.log_bytes_peak, 7, "peaks merge by max");
        assert_eq!(a.recovery_sync_ns, 200);
        assert_eq!(a.delta_frames, 16);
        assert_eq!(a.full_frames, 18);
        assert_eq!(a.resync_requests, 20);
        assert_eq!(a.avg_ids_per_msg(), 3.0);
    }
}
