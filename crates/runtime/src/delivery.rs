//! The delivery layer: the receiving queue (queue "B" of Fig. 4b)
//! plus the per-sender FIFO delivery counter — everything between "a
//! message was ingested" and "the application got it" except the
//! protocol's own dependency gate, which lives in the tracking layer.
//!
//! Owns [`RecvQueue`] and `last_deliver_index` together because
//! admission is defined by both: a frame is repetitive when the
//! counter covers it and a duplicate when the queue holds it. Part of
//! the kernel's `State` (see [`crate::kernel`]).

use crate::message::AppWire;
use crate::recvq::{Pending, RecvQueue};
use lclog_core::{CounterVector, Rank};

/// What [`Delivery::admit`] decided about an ingested application
/// message.
pub(crate) enum Admit {
    /// Queued for delivery.
    Queued,
    /// Repetitive (§III.C.3): already consumed before — discarded, and
    /// the sender must be re-acked if it asked for one.
    Repetitive { needs_ack: bool, send_index: u64 },
    /// A copy with the same identity is already queued; drop silently.
    Duplicate,
}

/// Receiving queue + per-sender FIFO delivery counters.
pub(crate) struct Delivery {
    pub queue: RecvQueue,
    /// `last_deliver_index` vector (Algorithm 1 line 17).
    pub last_deliver_index: CounterVector,
}

impl Delivery {
    pub fn new(n: usize) -> Self {
        Delivery {
            queue: RecvQueue::with_ranks(n),
            last_deliver_index: CounterVector::zeroed(n),
        }
    }

    /// Admission control for an ingested application message
    /// (repetitive-message identification + in-queue dedup).
    pub fn admit(&mut self, src: Rank, wire: AppWire) -> Admit {
        // Repetitive-message identification (§III.C.3): the original
        // was already consumed, so discard — and acknowledge, because
        // the sender may be blocked on this retransmission.
        if wire.send_index <= self.last_deliver_index.get(src) {
            return Admit::Repetitive {
                needs_ack: wire.needs_ack,
                send_index: wire.send_index,
            };
        }
        // A copy is already queued (recovery resend/retransmission
        // crossing): drop silently; the queued copy's delivery will
        // acknowledge.
        if self.queue.contains(src, wire.send_index) {
            return Admit::Duplicate;
        }
        // Rendezvous sends are acknowledged at *delivery*, not
        // ingestion: §IV.B's observation that the communication
        // subsystem cannot buffer a whole large message, so the sender
        // stays blocked until the receiver transits from computing (or
        // recovering) to receiving.
        self.queue.push(Pending { src, wire });
        Admit::Queued
    }

    /// Bump the delivery counter for `src` and prune queued copies the
    /// counter now covers. Returns the new counter value.
    pub fn note_delivered(&mut self, src: Rank) -> u64 {
        let upto = self.last_deliver_index.bump(src);
        // Stale duplicates of already-delivered messages (recovery
        // resend crossings) would otherwise linger in the queue
        // forever.
        self.queue.drop_repetitive(src, upto);
        upto
    }
}
