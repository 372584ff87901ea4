use crate::stats::FrameStats;
use crate::{Determinant, Pessim, ProtocolError, ProtocolKind, Rank, SparseTdi, Tag, TagF, Tdi, Tel};

/// What `on_send` produces: the bytes to piggyback on the outgoing
/// message plus their size in *identifiers* (the unit the paper's
/// Fig. 6 reports).
#[derive(Debug, Clone)]
pub struct SendArtifacts {
    /// Opaque piggyback bytes; the receiver's protocol instance (and
    /// only it) decodes them. They are also stored in the sender's
    /// message log and re-attached verbatim on recovery resends.
    pub piggyback: Vec<u8>,
    /// Identifier count: `n` for TDI's vector, `4 × determinants`
    /// (+1 stability counter) for TAG/TEL.
    pub id_count: u64,
}

/// Verdict of the protocol's delivery gate for a queued message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// All dependency constraints are satisfied; deliver now.
    Deliver,
    /// Some message this one depends on has not been delivered yet;
    /// leave it in the receiving queue.
    Wait,
}

/// One process's dependency-tracking half of a causal message-logging
/// protocol.
///
/// One thread drives every rank of a job and calls these hooks, so
/// implementations need no interior synchronization and no `Send`.
///
/// Division of labour (see crate docs): the runtime owns payload
/// logging, `last_send/deliver_index` counters, the per-sender FIFO
/// gate, duplicate suppression and checkpoint orchestration — this
/// trait owns *dependency* tracking only.
pub trait LoggingProtocol {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;

    /// System size `n`.
    fn n(&self) -> usize;

    /// This process's rank.
    fn me(&self) -> Rank;

    /// Total messages this process has delivered (its current process
    /// state interval index).
    fn delivered_total(&self) -> u64;

    // ----- normal operation ------------------------------------------------

    /// The application is sending message number `send_index` (per
    /// destination) to `dst`: produce the piggyback.
    fn on_send(&mut self, dst: Rank, send_index: u64) -> SendArtifacts;

    /// May the queued message `(src, send_index, piggyback)` be
    /// delivered now? The runtime has already verified the per-sender
    /// FIFO condition (`send_index == last_deliver_index[src] + 1`).
    fn deliverable(&self, src: Rank, send_index: u64, piggyback: &[u8]) -> DeliveryVerdict;

    /// The runtime is delivering `(src, send_index)`: absorb the
    /// piggyback and advance the local interval index. Returns
    /// [`ProtocolError::NotDeliverable`] if the gate would have said
    /// [`DeliveryVerdict::Wait`] (defence against caller bugs).
    fn on_deliver(
        &mut self,
        src: Rank,
        send_index: u64,
        piggyback: &[u8],
    ) -> Result<(), ProtocolError>;

    // ----- checkpointing ---------------------------------------------------

    /// Serialize protocol state into the checkpoint image.
    fn checkpoint_bytes(&self) -> Vec<u8>;

    /// Restore protocol state from a checkpoint image.
    fn restore_from_checkpoint(&mut self, bytes: &[u8]) -> Result<(), ProtocolError>;

    /// This process just checkpointed: determinants describing its own
    /// deliveries up to now can never be needed again (it will never
    /// roll back past the checkpoint).
    fn on_local_checkpoint(&mut self) {}

    /// Peer `peer` checkpointed after delivering `peer_delivered_total`
    /// messages: prune tracking state about its earlier deliveries.
    fn on_peer_checkpoint(&mut self, _peer: Rank, _peer_delivered_total: u64) {}

    /// Whether [`LoggingProtocol::on_peer_checkpoint`] prunes state
    /// held about the peer's deliveries from *any* sender, so every
    /// rank must hear each checkpoint — not only the senders whose
    /// messages it newly covers (Algorithm 1 lines 32–39). True for
    /// TAG-f and TEL. Constant over the instance's lifetime.
    fn prunes_on_peer_checkpoint(&self) -> bool {
        false
    }

    // ----- recovery: survivor side -----------------------------------------

    /// Determinants this process holds about `failed`'s pre-failure
    /// deliveries, shipped to the incarnation inside the `RESPONSE`.
    /// Empty for TDI — the dependent-interval vectors logged alongside
    /// payloads already carry everything recovery needs.
    fn determinants_for(&self, _failed: Rank) -> Vec<Determinant> {
        Vec::new()
    }

    // ----- recovery: incarnation side --------------------------------------

    /// Install delivery-order information recovered from survivors or
    /// the event logger (PWD protocols build their replay script from
    /// this; TDI ignores it).
    fn install_recovery_info(&mut self, _dets: Vec<Determinant>) {}

    /// Whether a recovering incarnation must hold *all* deliveries
    /// until every survivor (and the event logger) has contributed its
    /// recovery information. True for the PWD protocols — delivering
    /// against an incomplete replay script could fill a pinned slot
    /// with the wrong message. False for TDI: every message carries
    /// its own complete delivery constraint, the paper's "proactive
    /// perception of delivery order" (§V), which is also why TDI rolls
    /// forward faster (ablation ABL2).
    ///
    /// **Contract: the answer must be constant over the instance's
    /// lifetime** (a fixed property of the protocol, not of its
    /// state). The runtime caches it at kernel construction so the
    /// delivery hot path can consult it without locking the protocol.
    fn needs_full_recovery_info(&self) -> bool {
        false
    }

    // ----- event-logger integration (TEL only) ------------------------------

    /// Whether this protocol uses the stable event-logger service.
    fn wants_event_logger(&self) -> bool {
        false
    }

    /// Determinants created since the last drain, to be shipped
    /// asynchronously to the event logger.
    fn drain_determinants_for_logger(&mut self) -> Vec<Determinant> {
        Vec::new()
    }

    /// The event logger has stably stored this process's determinants
    /// up to delivery position `upto` — stop piggybacking them.
    fn on_logger_ack(&mut self, _upto: u64) {}

    /// May the application send right now? Pessimistic logging
    /// returns `false` while delivery determinants are still in
    /// flight to the logger; the runtime engine waits (servicing its
    /// inbox meanwhile). Always `true` for the causal protocols —
    /// their whole point is asynchronous logging.
    fn send_ready(&self) -> bool {
        true
    }

    /// The protocol's dependency-interval vector, when it tracks one
    /// (`depend_interval[n]` for TDI; `None` for protocols without a
    /// per-process interval vector). §III.E's order-insensitivity
    /// claim says every legal delivery schedule converges to the same
    /// vector — the schedule explorer extracts this to check it.
    fn interval_vector(&self) -> Option<Vec<u64>> {
        None
    }

    // ----- sparse-codec resync (TDI-S only) ---------------------------------

    /// Sources whose piggyback frames this process could not decode
    /// since the last drain (stale epoch or sequence gap). The runtime
    /// sends each one a `RESYNC_REQ` on its next tick. Empty for
    /// protocols with self-contained piggybacks.
    fn take_resync_requests(&mut self) -> Vec<Rank> {
        Vec::new()
    }

    /// Produce a full-vector resync snapshot for `dst` in answer to
    /// its `RESYNC_REQ`, re-anchoring the channel's delta chain.
    /// `None` for protocols that never need resyncing.
    fn resync_snapshot(&mut self, _dst: Rank) -> Option<Vec<u8>> {
        None
    }

    /// Install a resync snapshot received from `src`. No-op default
    /// for protocols that never request one.
    fn install_resync(&mut self, _src: Rank, _bytes: &[u8]) -> Result<(), ProtocolError> {
        Ok(())
    }

    /// Frame-level codec counters (delta vs. full frames, resync
    /// requests), when the protocol's wire form distinguishes them.
    fn frame_stats(&self) -> Option<FrameStats> {
        None
    }
}

/// Construct a protocol instance for process `me` of `n`.
pub fn make_protocol(kind: ProtocolKind, me: Rank, n: usize) -> Box<dyn LoggingProtocol> {
    match kind {
        ProtocolKind::Tdi => Box::new(Tdi::new(me, n)),
        ProtocolKind::Tag => Box::new(Tag::new(me, n)),
        ProtocolKind::Tel => Box::new(Tel::new(me, n)),
        ProtocolKind::TagF(f) => Box::new(TagF::new(me, n, f)),
        ProtocolKind::Pessim => Box::new(Pessim::new(me, n)),
        ProtocolKind::TdiSparse(k) => Box::new(SparseTdi::new(me, n, k)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_produces_requested_kind() {
        for kind in ProtocolKind::EXTENDED {
            let p = make_protocol(kind, 2, 4);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.me(), 2);
            assert_eq!(p.n(), 4);
            assert_eq!(p.delivered_total(), 0);
        }
    }

    #[test]
    fn event_logger_and_send_gating_assignments() {
        assert!(!make_protocol(ProtocolKind::Tdi, 0, 2).wants_event_logger());
        assert!(!make_protocol(ProtocolKind::Tag, 0, 2).wants_event_logger());
        assert!(!make_protocol(ProtocolKind::TagF(1), 0, 2).wants_event_logger());
        assert!(make_protocol(ProtocolKind::Tel, 0, 2).wants_event_logger());
        assert!(make_protocol(ProtocolKind::Pessim, 0, 2).wants_event_logger());
        for kind in ProtocolKind::EXTENDED {
            let p = make_protocol(kind, 0, 2);
            assert!(p.send_ready(), "{kind}: fresh instances can always send");
            let prunes = matches!(kind, ProtocolKind::TagF(_) | ProtocolKind::Tel);
            assert_eq!(p.prunes_on_peer_checkpoint(), prunes, "{kind}");
        }
    }
}
