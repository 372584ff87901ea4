//! The sender-based message log (Algorithm 1 line 12).
//!
//! Every sent application message is retained — payload, tag, and the
//! protocol piggyback it originally carried — keyed by destination and
//! per-destination send index. Entries are:
//!
//! * **resent** when the destination's incarnation broadcasts
//!   `ROLLBACK` (lines 49–51), re-attaching the *logged* piggyback so
//!   the recovering process learns each message's dependency exactly
//!   as in normal operation;
//! * **released** when a `CHECKPOINT_ADVANCE` proves the destination's
//!   checkpoint covers them (line 39);
//! * **checkpointed** with the rest of the sender's state, because the
//!   sender itself may fail and its incarnation must still serve
//!   peers' recoveries from the restored log.
//!
//! ## Zero-copy ownership
//!
//! A [`LogEntry`] holds the message's **already-encoded wire form** in
//! the two segments it was framed in ([`WireMsg::to_frame`]): the
//! `head`, every byte of the `WireMsg::App` before the payload, and
//! `data`, the payload itself. On the steady-state send path the head
//! is the very buffer the transport built and `data` the very buffer
//! the application handed to `app_send` — the log entry, the in-flight
//! envelope and the application share both — while `piggyback` moves
//! in from the send call itself (no decode pass). On checkpoint
//! restore the head, piggyback and data are instead zero-copy windows
//! into the one image buffer. Resends hand [`LogEntry::to_wire`]
//! straight back to the transport with **zero payload copies**; the
//! resent message carries its original `needs_ack` flag, which is
//! safe because rendezvous acknowledgements are idempotent (the
//! receiver's ack counter is a monotonic max).

use crate::message::{AppWire, WireMsg};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_wire::{decode_from_bytes, varint, Decode, Encode, Reader, WireError};

/// One logged send: decoded header fields plus the encoded frame head
/// they were written into.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Destination rank.
    pub dst: u32,
    /// Per-destination send order number, starting at 1.
    pub send_index: u64,
    /// Application tag.
    pub tag: u32,
    /// Whether the original send requested a rendezvous ack.
    pub needs_ack: bool,
    /// The piggyback the message originally carried (window into the
    /// head, or a handle on the protocol's vector).
    pub piggyback: Bytes,
    /// Application payload: the frame's second segment.
    pub data: Bytes,
    /// The encoded `WireMsg::App` up to and including `data`'s length
    /// prefix, exactly as framed; private so every entry is guaranteed
    /// consistent with its decoded fields.
    head: Bytes,
}

impl LogEntry {
    /// Build an entry by encoding the message's head once (the only
    /// allocation; used for suppressed sends that are logged without
    /// being transmitted). `piggyback` and `data` handles are
    /// refcount-shared with the caller.
    pub fn new(
        dst: u32,
        send_index: u64,
        tag: u32,
        piggyback: Bytes,
        needs_ack: bool,
        data: Bytes,
    ) -> Self {
        let w = AppWire { tag, send_index, piggyback, needs_ack, data };
        let (head, _) = WireMsg::App(w.clone()).to_frame();
        LogEntry::from_parts(dst, w, head)
    }

    /// Build an entry on the send hot path from the [`AppWire`] that
    /// was just framed and the head the transport returned — no decode
    /// pass, no refcount churn: the header fields and the
    /// `piggyback`/`data` handles move straight in. The caller
    /// guarantees `head ++ w.data` is the encoding of `w` (debug
    /// builds verify).
    pub(crate) fn from_parts(dst: u32, w: AppWire, head: Bytes) -> Self {
        debug_assert_eq!(
            WireMsg::from_frame(&head, w.data.clone()).ok().as_ref(),
            Some(&WireMsg::App(w.clone())),
            "from_parts head must frame exactly the given AppWire"
        );
        LogEntry {
            dst,
            send_index: w.send_index,
            tag: w.tag,
            needs_ack: w.needs_ack,
            piggyback: w.piggyback,
            data: w.data,
            head,
        }
    }

    /// Build an entry from the contiguous encoding of a `WireMsg::App`.
    /// Decoding is zero-copy: the head, `piggyback` and `data` become
    /// windows into `wire`. Errors if `wire` is not a well-formed `App`
    /// message.
    pub fn from_wire(dst: u32, wire: Bytes) -> Result<Self, WireError> {
        match decode_from_bytes::<WireMsg>(&wire)? {
            WireMsg::App(w) => {
                let head = wire.slice(..wire.len() - w.data.len());
                Ok(LogEntry::from_parts(dst, w, head))
            }
            other => Err(WireError::InvalidTag {
                type_name: "LogEntry (expected WireMsg::App)",
                tag: match other {
                    WireMsg::Ack(_) => 1,
                    WireMsg::Rollback(_) => 2,
                    WireMsg::Response(_) => 3,
                    WireMsg::CkptAdvance(_) => 4,
                    WireMsg::LogDets(_) => 5,
                    WireMsg::LogAck(_) => 6,
                    WireMsg::LogQuery(_) => 7,
                    WireMsg::LogQueryResp(_) => 8,
                    WireMsg::ResyncReq(_) => 11,
                    WireMsg::ResyncSnap(_) => 12,
                    WireMsg::App(_) => unreachable!("matched above"),
                },
            }),
        }
    }

    /// The frame for resending, `(head, data)` — refcount bumps, no
    /// re-encoding. This is the single construction point for every
    /// resend path (rollback replay, response-driven regeneration,
    /// rendezvous retry).
    pub fn to_wire(&self) -> (Bytes, Bytes) {
        (self.head.clone(), self.data.clone())
    }
}

/// Checkpoints persist only `dst` and the whole encoded message, as
/// one length-prefixed byte string; the decoded fields are rebuilt
/// zero-copy on restore, so the image stores each message once.
impl Encode for LogEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.dst.encode(buf);
        varint::write_u64(buf, (self.head.len() + self.data.len()) as u64);
        buf.extend_from_slice(&self.head);
        buf.extend_from_slice(&self.data);
    }
    fn encoded_len(&self) -> usize {
        let len = self.head.len() + self.data.len();
        self.dst.encoded_len() + varint::len_u64(len as u64) + len
    }
}

impl Decode for LogEntry {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let dst = u32::decode(reader)?;
        let wire = Bytes::decode(reader)?;
        LogEntry::from_wire(dst, wire)
    }
}

/// Per-sender volatile message log.
#[derive(Debug, Clone, Default)]
pub struct SenderLog {
    /// `by_dst[d]` maps send_index → entry, ordered so resends walk in
    /// index order.
    by_dst: Vec<std::collections::BTreeMap<u64, LogEntry>>,
    /// Running payload + piggyback byte total, so the send hot path's
    /// peak-pressure bookkeeping doesn't walk the whole log.
    bytes: usize,
}

impl SenderLog {
    /// Empty log for an `n`-process system.
    pub fn new(n: usize) -> Self {
        SenderLog {
            by_dst: vec![Default::default(); n],
            bytes: 0,
        }
    }

    fn entry_bytes(entry: &LogEntry) -> usize {
        entry.data.len() + entry.piggyback.len()
    }

    /// Record a send.
    pub fn insert(&mut self, entry: LogEntry) {
        self.bytes += Self::entry_bytes(&entry);
        if let Some(old) = self.by_dst[entry.dst as Rank].insert(entry.send_index, entry) {
            self.bytes -= Self::entry_bytes(&old);
        }
    }

    /// Release entries for `dst` with `send_index <= upto`
    /// (`CHECKPOINT_ADVANCE` GC).
    pub fn release(&mut self, dst: Rank, upto: u64) {
        let kept = self.by_dst[dst].split_off(&(upto + 1));
        let removed = std::mem::replace(&mut self.by_dst[dst], kept);
        for e in removed.values() {
            self.bytes -= Self::entry_bytes(e);
        }
    }

    /// Entries destined to `dst` with `send_index > after`, in index
    /// order (the rollback resend set).
    pub fn entries_after(&self, dst: Rank, after: u64) -> impl Iterator<Item = &LogEntry> {
        self.by_dst[dst].range(after + 1..).map(|(_, e)| e)
    }

    /// Total retained entries.
    pub fn len(&self) -> usize {
        self.by_dst.iter().map(|m| m.len()).sum()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total retained payload + piggyback bytes (log memory pressure,
    /// reported by benchmarks). O(1): maintained incrementally by
    /// `insert`/`release` — this sits on the send hot path.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Every retained entry, by destination then send index: what a
    /// checkpoint image writes, in place.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> + Clone {
        self.by_dst
            .iter()
            .filter(|m| !m.is_empty())
            .flat_map(|m| m.values())
    }

    /// Rebuild from checkpointed entries.
    pub fn from_entries(n: usize, entries: Vec<LogEntry>) -> Self {
        let mut log = SenderLog::new(n);
        for e in entries {
            log.insert(e);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{decode_from_slice, encode_to_bytes, encode_to_vec};

    fn entry(dst: u32, idx: u64) -> LogEntry {
        LogEntry::new(
            dst,
            idx,
            0,
            Bytes::from(vec![1, 2]),
            false,
            Bytes::from(vec![0u8; 8]),
        )
    }

    #[test]
    fn insert_then_resend_in_order() {
        let mut log = SenderLog::new(3);
        log.insert(entry(1, 2));
        log.insert(entry(1, 1));
        log.insert(entry(2, 1));
        let resend: Vec<u64> = log.entries_after(1, 0).map(|e| e.send_index).collect();
        assert_eq!(resend, vec![1, 2]);
        let resend: Vec<u64> = log.entries_after(1, 1).map(|e| e.send_index).collect();
        assert_eq!(resend, vec![2]);
    }

    #[test]
    fn release_garbage_collects() {
        let mut log = SenderLog::new(2);
        for i in 1..=5 {
            log.insert(entry(1, i));
        }
        assert_eq!(log.len(), 5);
        log.release(1, 3);
        assert_eq!(log.len(), 2);
        let left: Vec<u64> = log.entries_after(1, 0).map(|e| e.send_index).collect();
        assert_eq!(left, vec![4, 5]);
        // Releasing again with a smaller bound is a no-op.
        log.release(1, 2);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn bytes_accounts_payload_and_piggyback() {
        let mut log = SenderLog::new(2);
        log.insert(entry(0, 1));
        assert_eq!(log.bytes(), 10);
        assert!(!log.is_empty());
        // Replacing the same identity must not double-count…
        log.insert(entry(0, 1));
        assert_eq!(log.bytes(), 10);
        // …and the running counter tracks release exactly.
        log.insert(entry(0, 2));
        log.insert(entry(1, 1));
        assert_eq!(log.bytes(), 30);
        log.release(0, 1);
        assert_eq!(log.bytes(), 20);
        log.release(0, 5);
        log.release(1, 5);
        assert_eq!(log.bytes(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut log = SenderLog::new(3);
        log.insert(entry(1, 1));
        log.insert(entry(2, 4));
        let entries = log.entries().cloned().collect();
        let rebuilt = SenderLog::from_entries(3, entries);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(
            rebuilt.entries_after(2, 0).map(|e| e.send_index).collect::<Vec<_>>(),
            vec![4]
        );
    }

    #[test]
    fn entry_wire_roundtrip_and_consistency() {
        let e = LogEntry::new(
            3,
            7,
            9,
            Bytes::from(vec![4, 5, 6]),
            true,
            Bytes::from(b"payload".to_vec()),
        );
        // Encode/decode (the checkpoint path) rebuilds identical
        // decoded fields from the stored wire form.
        let bytes = encode_to_vec(&e);
        assert_eq!(bytes.len(), e.encoded_len());
        let back: LogEntry = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, e);
        assert!(back.needs_ack);
        assert_eq!(back.tag, 9);
        // to_wire is the entry's frame: the payload handle it was built
        // with (refcount, not copy) behind the head. Joined, the two
        // are the contiguous encoding, and from_wire of that is the
        // identity on decoded fields, its segments windows into it.
        let (head, body) = e.to_wire();
        assert!(body.shares_allocation(&e.data));
        let wire = Bytes::from([&head[..], &body[..]].concat());
        assert_eq!(wire, encode_to_bytes(&WireMsg::App(AppWire {
            tag: 9,
            send_index: 7,
            piggyback: e.piggyback.clone(),
            needs_ack: true,
            data: e.data.clone(),
        })));
        let again = LogEntry::from_wire(3, wire.clone()).unwrap();
        assert_eq!(again, e);
        let (head, body) = again.to_wire();
        assert!(head.shares_allocation(&wire) && body.shares_allocation(&wire));
        assert!(again.data.shares_allocation(&wire), "payload is a window into wire");
    }

    #[test]
    fn from_wire_rejects_non_app_messages() {
        let wire = lclog_wire::encode_to_bytes(&WireMsg::Ack(9));
        assert!(LogEntry::from_wire(0, wire).is_err());
    }
}
