//! Wire formats exchanged between rank runtimes (inside
//! [`lclog_simnet::Envelope`] payloads) and the application-facing
//! message/matching types.

use bytes::Bytes;
use lclog_core::Determinant;
use lclog_wire::{impl_wire_enum, impl_wire_struct};

/// Wildcard for [`RecvSpec::source`]: accept a message from any rank —
/// the paper's `MPI_ANY_SOURCE`, the hook on which TDI's relaxation
/// rests.
pub const ANY_SOURCE: Option<usize> = None;

/// Wildcard for [`RecvSpec::tag`].
pub const ANY_TAG: Option<u32> = None;

/// Matching specification for a receive, mirroring `MPI_Recv`'s
/// `source`/`tag` arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSpec {
    /// Accept only this sender (`Some(rank)`) or any sender (`None`).
    /// A specific source expresses *deterministic* delivery in the
    /// paper's sense; `None` is non-deterministic delivery.
    pub source: Option<usize>,
    /// Accept only this tag, or any.
    pub tag: Option<u32>,
}

impl RecvSpec {
    /// Match a specific sender and tag.
    pub fn from(source: usize, tag: u32) -> Self {
        RecvSpec {
            source: Some(source),
            tag: Some(tag),
        }
    }

    /// Match any sender with the given tag.
    pub fn any_source(tag: u32) -> Self {
        RecvSpec {
            source: None,
            tag: Some(tag),
        }
    }

    /// Match anything.
    pub fn any() -> Self {
        RecvSpec {
            source: None,
            tag: None,
        }
    }

    /// Does a queued message from `src` with `tag` match?
    pub fn matches(&self, src: usize, tag: u32) -> bool {
        self.source.is_none_or(|s| s == src) && self.tag.is_none_or(|t| t == tag)
    }
}

/// A delivered application message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppMsg {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: u32,
    /// Payload bytes.
    pub data: Bytes,
}

/// An application message on the wire, with its rollback-recovery
/// header (Algorithm 1's `(MESSAGE, depend_interval, send_index, m)`
/// generalized to any protocol's piggyback).
#[derive(Debug, Clone, PartialEq)]
pub struct AppWire {
    /// Application tag.
    pub tag: u32,
    /// Per-(sender → receiver) send order number, starting at 1.
    pub send_index: u64,
    /// Protocol piggyback (TDI vector / TAG increment / TEL window).
    /// Held as a refcounted handle: on receive it is a zero-copy
    /// window into the ingested frame; on send it wraps the vector the
    /// protocol built (no copy either way).
    pub piggyback: Bytes,
    /// Whether the receiver's runtime must acknowledge ingestion
    /// (rendezvous sends in blocking mode).
    pub needs_ack: bool,
    /// Application payload.
    pub data: Bytes,
}

impl_wire_struct!(AppWire {
    tag,
    send_index,
    piggyback,
    needs_ack,
    data
});

/// `ROLLBACK` broadcast by a recovering incarnation (Algorithm 1
/// line 46). Each peer gets its own frame carrying only the element
/// of the restored `last_deliver_index` vector that it reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackWire {
    /// `last_deliver_index[you]` of the failed process's restored
    /// state: how many of your messages survive the rollback.
    pub delivered_from_you: u64,
    /// Distinguishes rebroadcasts so peers can skip duplicate resend
    /// work within one recovery epoch if they choose (we resend
    /// idempotently anyway).
    pub epoch: u64,
}

impl_wire_struct!(RollbackWire {
    delivered_from_you,
    epoch
});

/// `RESPONSE` to a rollback (Algorithm 1 line 48), extended with the
/// determinants PWD protocols need for replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseWire {
    /// How many of the failed process's messages this responder had
    /// delivered — the duplicate-send suppression bound
    /// (`rollback_last_send_index`).
    pub delivered_from_you: u64,
    /// Delivery-order determinants about the failed process known to
    /// this responder (empty under TDI).
    pub dets: Vec<Determinant>,
    /// Echo of the rollback epoch being answered.
    pub epoch: u64,
}

impl_wire_struct!(ResponseWire {
    delivered_from_you,
    dets,
    epoch
});

/// `CHECKPOINT_ADVANCE` (Algorithm 1 line 36) extended with the
/// checkpointer's total delivery count so TAG/TEL peers can prune
/// determinant state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptAdvanceWire {
    /// `last_deliver_index[you]` at the checkpoint: release log items
    /// destined to me with `send_index <=` this.
    pub delivered_from_you: u64,
    /// My total delivered count at the checkpoint (determinant GC
    /// horizon).
    pub total_delivered: u64,
}

impl_wire_struct!(CkptAdvanceWire {
    delivered_from_you,
    total_delivered
});

/// Everything that can travel between runtimes. Tags 9 and 10 are
/// retired: a message carrying one is undecodable.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Application message with recovery header.
    App(AppWire),
    /// Delivery acknowledgement for a rendezvous send (`send_index`
    /// of the acknowledged message) — the only acknowledgement on the
    /// wire.
    Ack(u64),
    /// Recovery broadcast from an incarnation.
    Rollback(RollbackWire),
    /// Reply to a `Rollback`.
    Response(ResponseWire),
    /// Checkpoint notification for log GC and determinant pruning.
    CkptAdvance(CkptAdvanceWire),
    /// TEL: determinants shipped to the event-logger service.
    LogDets(Vec<Determinant>),
    /// TEL: logger acknowledges stable storage of the sender's
    /// determinants up to this deliver index.
    LogAck(u64),
    /// TEL: incarnation asks the logger for the failed rank's stored
    /// determinants.
    LogQuery(u32),
    /// TEL: logger's reply to a query.
    LogQueryResp(Vec<Determinant>),
    /// TDI-S: receiver could not decode a piggyback frame from the
    /// carrier rank and asks it for a resync snapshot.
    ResyncReq(u32),
    /// TDI-S: sender's answer to a `ResyncReq` — an epoch/seq-stamped
    /// full-vector snapshot re-anchoring the channel's delta chain.
    ResyncSnap(Bytes),
}

impl_wire_enum!(WireMsg {
    0 => App(w),
    1 => Ack(idx),
    2 => Rollback(w),
    3 => Response(w),
    4 => CkptAdvance(w),
    5 => LogDets(d),
    6 => LogAck(upto),
    7 => LogQuery(rank),
    8 => LogQueryResp(d),
    11 => ResyncReq(rank),
    12 => ResyncSnap(b),
});

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn spec_matching() {
        let s = RecvSpec::from(2, 9);
        assert!(s.matches(2, 9));
        assert!(!s.matches(1, 9));
        assert!(!s.matches(2, 8));
        let any_src = RecvSpec::any_source(9);
        assert!(any_src.matches(0, 9));
        assert!(any_src.matches(7, 9));
        assert!(!any_src.matches(7, 1));
        assert!(RecvSpec::any().matches(3, 3));
        assert_eq!(RecvSpec::any().source, ANY_SOURCE);
        assert_eq!(RecvSpec::any().tag, ANY_TAG);
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let det = Determinant {
            sender: 1,
            send_index: 2,
            receiver: 3,
            deliver_index: 4,
        };
        let msgs = vec![
            WireMsg::App(AppWire {
                tag: 5,
                send_index: 6,
                piggyback: Bytes::from(vec![1, 2, 3]),
                needs_ack: true,
                data: Bytes::from_static(b"xyz"),
            }),
            WireMsg::Ack(42),
            WireMsg::Rollback(RollbackWire {
                delivered_from_you: 9,
                epoch: 2,
            }),
            WireMsg::Response(ResponseWire {
                delivered_from_you: 7,
                dets: vec![det],
                epoch: 2,
            }),
            WireMsg::CkptAdvance(CkptAdvanceWire {
                delivered_from_you: 1,
                total_delivered: 11,
            }),
            WireMsg::LogDets(vec![det, det]),
            WireMsg::LogAck(13),
            WireMsg::LogQuery(3),
            WireMsg::LogQueryResp(vec![det]),
            WireMsg::ResyncReq(5),
            WireMsg::ResyncSnap(Bytes::from(vec![7, 8, 9])),
        ];
        for m in msgs {
            let bytes = encode_to_vec(&m);
            let back: WireMsg = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }
}
