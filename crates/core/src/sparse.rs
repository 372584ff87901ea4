//! TDI-S: sparse (delta-encoded) dependency tracking.
//!
//! The paper's TDI piggybacks the full n-entry `depend_interval`
//! vector on every send — O(n) bytes and merge time per message, which
//! is ruinous at n = 1024. TDI-S keeps the *protocol* of TDI bit-for-
//! bit (same vector, same delivery gate, same merge) but changes the
//! *wire representation* to per-channel delta frames, the scheme of
//! hybrid-buffering causal delivery and scalable causal broadcast:
//!
//! * **FULL frame** (`kind 0`): `[kind u8][epoch varint][n × value
//!   varint]` — the whole vector, self-describing given `n`. Sent as
//!   the first frame on a channel, every `resync_interval` frames
//!   thereafter, and whenever the delta would not actually be smaller.
//! * **DELTA frame** (`kind 1`): `[kind u8][epoch varint][count
//!   varint][count × (index varint, value varint)]` — only the entries
//!   that changed since the previous frame *on that channel*. Values
//!   are **absolute** interval indices, not diffs: the vector is
//!   monotone, so applying a delta on top of any dominated base
//!   reconstructs the sender's exact vector, and on top of a *newer*
//!   base yields a safe over-approximation (see resync below).
//!
//! Frames are sequenced by the channel's `send_index` (the kernel
//! already delivers app messages in per-sender FIFO order, so the
//! receiver decodes a channel's frames strictly sequentially) and
//! tagged with the sender's **epoch**, bumped on every checkpoint
//! restore so a recovered sender's fresh delta chain can never be
//! misapplied to a pre-crash base.
//!
//! ## Receiver bases and recovery
//!
//! The receiver keeps, per source, the last decoded sender vector
//! (`epoch`, `seq`, values) — the *base* the next delta applies to.
//! Bases are part of the checkpoint image: `do_checkpoint` snapshots
//! tracking and delivery state together, so a restored base's `seq`
//! equals the restored `last_deliver_index` and survivors' logged
//! resends (which re-attach their **original** sparse framing) decode
//! directly against it. Without checkpointed bases a restored receiver
//! could only bootstrap from resync snapshots, whose own-entry may
//! exceed the rolled-back gate on *every* channel at once — a
//! deadlock. Sender-side encode state is deliberately *not*
//! checkpointed: it resets on restore, forcing the next transmitted
//! frame on each channel to be FULL (self-healing).
//!
//! ## Resync protocol
//!
//! A frame the receiver cannot decode (epoch mismatch or sequence gap,
//! both impossible in steady state but reachable around recovery)
//! parks as `Wait` and queues a **resync request** for that source.
//! The kernel drains the queue on its tick, sends `RESYNC_REQ`, and
//! the source answers with a snapshot `[epoch][seq = last frame
//! sent][full vector]`, resetting its delta chain to the snapshot.
//! Frames at or below the installed base's seq then resolve to the
//! base vector itself — a dominating over-approximation of the frame's
//! true vector, which is safe on both sides of the protocol: the
//! delivery gate only becomes *stricter* (condition C is never
//! violated) and the merge result is dominated by what the next frame
//! would install anyway. The dense vector is retained as the real
//! protocol state and doubles as a debug-assert oracle: debug builds
//! run a shadow receiver per channel and verify every encoded frame
//! decodes back to the dense vector exactly.
//!
//! ## Dirty journal (O(changed) encoding)
//!
//! The sender does **not** scan the n-entry change-stamp array per
//! send. Every `touch` appends its entry index to a global dirty
//! journal (deduped per stamp), and each channel keeps a cursor into
//! it; a delta is assembled from the journal suffix past the cursor —
//! O(entries changed since that channel's last frame). The FULL-frame
//! byte total is maintained incrementally, so the FULL-vs-DELTA size
//! choice is O(1). The journal is compacted once it exceeds
//! `journal_cap()`: channels pinning the prefix too far back are
//! demoted to a FULL frame on their next send, bounding journal
//! memory regardless of traffic skew. Debug builds re-run the old
//! stamp scan and assert the journal suffix matches it exactly.

use crate::protocol::{DeliveryVerdict, LoggingProtocol, SendArtifacts};
use crate::stats::FrameStats;
use crate::types::{ProtocolError, ProtocolKind, Rank};
use lclog_wire::{varint, Reader, WireError};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Frame kind byte: full vector.
const KIND_FULL: u8 = 0;
/// Frame kind byte: delta against the previous frame on the channel.
const KIND_DELTA: u8 = 1;

/// Per-destination sender-side encode state (volatile; reset on
/// restore so the first post-recovery frame per channel is FULL).
#[derive(Debug, Clone)]
struct SendChannel {
    /// A frame has been encoded for this destination this epoch.
    primed: bool,
    /// Global change-stamp as of the last frame to this destination;
    /// entries stamped later than this go into the next delta. Kept
    /// as the debug oracle for the journal cursor below.
    last_stamp: u64,
    /// Absolute cursor into the dirty journal: journal entries at or
    /// beyond this position changed since the last frame on this
    /// channel, so the next delta is assembled in O(changed) instead
    /// of an O(n) change-stamp scan.
    log_pos: usize,
    /// `send_index` of the last frame encoded for this destination.
    last_seq: u64,
    /// Frames since the last FULL (periodic resync counter).
    since_full: u32,
}

impl SendChannel {
    fn fresh() -> Self {
        SendChannel {
            primed: false,
            last_stamp: 0,
            log_pos: 0,
            last_seq: 0,
            since_full: 0,
        }
    }
}

/// Receiver-side decode base for one source channel.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Base {
    /// Sender epoch the base belongs to.
    epoch: u64,
    /// `send_index` of the frame (or resync snapshot) that produced it.
    seq: u64,
    /// The sender's full vector as of `seq`.
    vec: Vec<u64>,
}

/// A parsed piggyback frame.
enum Frame {
    Full { epoch: u64, values: Vec<u64> },
    Delta { epoch: u64, entries: Vec<(usize, u64)> },
}

/// How a frame resolved against the receiver's base.
enum Resolved {
    /// The sender's exact vector at this frame.
    Exact { epoch: u64, vec: Vec<u64> },
    /// Frame at or below the base's seq: the base vector stands in as
    /// a dominating over-approximation (resync-snapshot corner).
    Stale,
    /// Epoch mismatch or sequence gap — a resync is needed.
    NeedResync,
}

/// The TDI protocol over sparse per-channel delta frames.
pub struct SparseTdi {
    me: Rank,
    n: usize,
    /// A FULL frame is forced after this many consecutive deltas.
    resync_interval: u32,
    /// The dense `depend_interval` vector — the real protocol state
    /// (and the oracle every encoded frame is checked against in debug
    /// builds).
    depend: Vec<u64>,
    /// Sender framing epoch; bumped on checkpoint restore.
    epoch: u64,
    /// Global modification counter for `depend`.
    stamp: u64,
    /// `stamped[i]` = value of `stamp` when `depend[i]` last changed.
    stamped: Vec<u64>,
    /// Dirty journal: every entry index, in touch order, appended at
    /// most once per stamp. Channels hold absolute cursors into it
    /// (`SendChannel::log_pos`), so assembling a delta costs
    /// O(entries changed since that channel's last frame) instead of
    /// an O(n) scan of `stamped`.
    dirty_log: Vec<Rank>,
    /// Journal entries dropped by compaction; `dirty_log[0]` is
    /// absolute position `compacted`.
    compacted: usize,
    /// Incrementally-maintained Σ `varint::len_u64(depend[i])` — the
    /// body size of a FULL frame — so the frame-size choice in
    /// `on_send` is O(1) instead of O(n).
    full_body: usize,
    /// Per-destination encode state.
    chans: Vec<SendChannel>,
    /// Per-source decode bases (checkpointed).
    bases: Vec<Option<Base>>,
    /// Sources needing a resync snapshot; filled by the (`&self`)
    /// delivery gate, drained by the kernel tick.
    pending_resync: RefCell<BTreeSet<Rank>>,
    stats: FrameStats,
    /// Debug oracle: a shadow receiver per destination replaying our
    /// own frames; must always reconstruct `depend` exactly.
    #[cfg(debug_assertions)]
    shadow: Vec<Option<Vec<u64>>>,
}

impl SparseTdi {
    /// A fresh TDI-S endpoint for rank `me` of `n`, forcing a FULL
    /// frame after `resync_interval` consecutive deltas per channel.
    pub fn new(me: Rank, n: usize, resync_interval: u32) -> Self {
        assert!(me < n, "rank {me} out of range for n={n}");
        SparseTdi {
            me,
            n,
            resync_interval: resync_interval.max(1),
            depend: vec![0; n],
            epoch: 0,
            stamp: 0,
            stamped: vec![0; n],
            dirty_log: Vec::new(),
            compacted: 0,
            full_body: n * varint::len_u64(0),
            chans: vec![SendChannel::fresh(); n],
            bases: vec![None; n],
            pending_resync: RefCell::new(BTreeSet::new()),
            stats: FrameStats::default(),
            #[cfg(debug_assertions)]
            shadow: vec![None; n],
        }
    }

    /// Record a change to `depend[k]` under the current stamp: journal
    /// the index (once per stamp) and keep the FULL-frame byte total
    /// current.
    fn touch(&mut self, k: Rank, value: u64) {
        if self.stamped[k] != self.stamp {
            self.dirty_log.push(k);
            self.stamped[k] = self.stamp;
        }
        self.full_body += varint::len_u64(value);
        self.full_body -= varint::len_u64(self.depend[k]);
        self.depend[k] = value;
    }

    /// Journal length that triggers compaction. Generous enough that
    /// steady traffic rarely compacts; small enough to bound memory.
    fn journal_cap(&self) -> usize {
        (2 * self.n).max(128)
    }

    /// Drop the journal prefix every primed channel has already
    /// framed. A channel pinning the prefix more than half a cap back
    /// is demoted (next frame FULL) rather than allowed to hold the
    /// journal hostage, so journal memory is bounded by the cap
    /// regardless of traffic skew. Amortized O(1) per touch: each
    /// compaction drops at least half a cap of entries.
    fn compact_journal(&mut self) {
        let cap = self.journal_cap();
        if self.dirty_log.len() <= cap {
            return;
        }
        let abs_end = self.compacted + self.dirty_log.len();
        let floor = abs_end - cap / 2;
        let mut min = abs_end;
        for chan in &mut self.chans {
            if !chan.primed {
                continue;
            }
            if chan.log_pos < floor {
                chan.primed = false; // too stale: forget its delta chain
            } else {
                min = min.min(chan.log_pos);
            }
        }
        self.dirty_log.drain(..min - self.compacted);
        self.compacted = min;
    }

    fn parse_frame(&self, piggyback: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = Reader::new(piggyback);
        let frame = Self::parse_frame_inner(&mut r, self.n)?;
        r.finish()
            .map_err(|_| ProtocolError::Corrupt("trailing bytes after TDI-S frame"))?;
        Ok(frame)
    }

    fn parse_frame_inner(r: &mut Reader<'_>, n: usize) -> Result<Frame, ProtocolError> {
        let corrupt = |_: WireError| ProtocolError::Corrupt("truncated TDI-S frame");
        let kind = r.take_byte().map_err(corrupt)?;
        let epoch = varint::read_u64(r).map_err(corrupt)?;
        match kind {
            KIND_FULL => {
                let values = read_vec(r, n).map_err(corrupt)?;
                Ok(Frame::Full { epoch, values })
            }
            KIND_DELTA => {
                let count = varint::read_u64(r).map_err(corrupt)? as usize;
                if count > n {
                    return Err(ProtocolError::Corrupt("TDI-S delta count exceeds n"));
                }
                let mut entries = Vec::with_capacity(count);
                let mut prev: Option<usize> = None;
                for _ in 0..count {
                    let idx = varint::read_u64(r).map_err(corrupt)? as usize;
                    if idx >= n {
                        return Err(ProtocolError::Corrupt("TDI-S delta index out of range"));
                    }
                    // Entries are emitted in strictly increasing index
                    // order; enforcing it rejects forged duplicates.
                    if prev.is_some_and(|p| idx <= p) {
                        return Err(ProtocolError::Corrupt("TDI-S delta indices not increasing"));
                    }
                    prev = Some(idx);
                    let value = varint::read_u64(r).map_err(corrupt)?;
                    entries.push((idx, value));
                }
                Ok(Frame::Delta { epoch, entries })
            }
            _ => Err(ProtocolError::Corrupt("unknown TDI-S frame kind")),
        }
    }

    /// Resolve a parsed frame against the base for `src`, without
    /// mutating anything.
    fn resolve(&self, src: Rank, send_index: u64, frame: &Frame) -> Resolved {
        match frame {
            Frame::Full { epoch, values } => Resolved::Exact {
                epoch: *epoch,
                vec: values.clone(),
            },
            Frame::Delta { epoch, entries } => match &self.bases[src] {
                Some(base) if base.epoch == *epoch && send_index == base.seq + 1 => {
                    let mut vec = base.vec.clone();
                    for (idx, value) in entries {
                        vec[*idx] = *value;
                    }
                    Resolved::Exact { epoch: *epoch, vec }
                }
                Some(base) if base.epoch == *epoch && send_index <= base.seq => Resolved::Stale,
                _ => Resolved::NeedResync,
            },
        }
    }

    /// The piggyback's entry for `self.me` — all the delivery gate
    /// needs — without materializing the whole vector. `None` means
    /// the frame cannot be decoded yet (resync needed).
    fn gate_entry(&self, src: Rank, send_index: u64, frame: &Frame) -> Option<u64> {
        match frame {
            Frame::Full { values, .. } => Some(values[self.me]),
            Frame::Delta { epoch, entries } => match &self.bases[src] {
                Some(base) if base.epoch == *epoch && send_index == base.seq + 1 => Some(
                    entries
                        .iter()
                        .find(|(idx, _)| *idx == self.me)
                        .map(|(_, v)| *v)
                        .unwrap_or(base.vec[self.me]),
                ),
                Some(base) if base.epoch == *epoch && send_index <= base.seq => {
                    Some(base.vec[self.me])
                }
                _ => None,
            },
        }
    }

    /// Queue a resync request toward `src` (deduplicated; drained by
    /// the kernel tick via `take_resync_requests`).
    fn request_resync(&self, src: Rank) {
        self.pending_resync.borrow_mut().insert(src);
    }

    /// Replay one of our own frames through the shadow receiver for
    /// `dst` and assert it reconstructs the dense vector exactly — the
    /// debug-assert oracle of the encoding.
    #[cfg(debug_assertions)]
    fn check_oracle(&mut self, dst: Rank, piggyback: &[u8]) {
        let frame = self
            .parse_frame(piggyback)
            .expect("own frame must parse cleanly");
        let decoded = match frame {
            Frame::Full { values, .. } => values,
            Frame::Delta { entries, .. } => {
                let mut vec = self.shadow[dst]
                    .clone()
                    .expect("delta frame cannot precede the channel's first FULL");
                for (idx, value) in entries {
                    vec[idx] = value;
                }
                vec
            }
        };
        debug_assert_eq!(
            decoded, self.depend,
            "TDI-S frame to {dst} does not decode to the dense vector"
        );
        self.shadow[dst] = Some(decoded);
    }
}

/// A full vector: `n` back-to-back varints.
fn read_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<u64>, WireError> {
    let mut values = Vec::with_capacity(n);
    varint::read_run(r, n, |_, v| values.push(v))?;
    Ok(values)
}

impl LoggingProtocol for SparseTdi {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::TdiSparse(self.resync_interval)
    }

    fn n(&self) -> usize {
        self.n
    }

    fn me(&self) -> Rank {
        self.me
    }

    fn delivered_total(&self) -> u64 {
        self.depend[self.me]
    }

    fn interval_vector(&self) -> Option<Vec<u64>> {
        Some(self.depend.clone())
    }

    fn on_send(&mut self, dst: Rank, send_index: u64) -> SendArtifacts {
        debug_assert!(dst < self.n);
        let chan = &self.chans[dst];
        debug_assert!(
            !chan.primed || send_index > chan.last_seq,
            "send_index must advance per destination"
        );
        // Entries changed since the last frame on this channel: the
        // dirty-journal suffix past the channel's cursor, sorted and
        // deduped (an entry re-touched at several stamps appears once
        // per stamp). O(changed), not O(n). A channel whose cursor
        // predates the compacted prefix — never primed, or demoted by
        // `compact_journal` — has no usable suffix and sends FULL.
        let lagging = !chan.primed || chan.log_pos < self.compacted;
        let mut changed: Vec<usize> = if lagging {
            Vec::new()
        } else {
            self.dirty_log[chan.log_pos - self.compacted..].to_vec()
        };
        changed.sort_unstable();
        changed.dedup();
        #[cfg(debug_assertions)]
        if !lagging {
            let oracle: Vec<usize> = (0..self.n)
                .filter(|&i| self.stamped[i] > chan.last_stamp)
                .collect();
            debug_assert_eq!(changed, oracle, "dirty journal must match the stamp scan");
        }
        let delta_body: usize = changed
            .iter()
            .map(|&i| varint::len_u64(i as u64) + varint::len_u64(self.depend[i]))
            .sum::<usize>()
            + varint::len_u64(changed.len() as u64);
        let full_body = self.full_body;
        debug_assert_eq!(
            full_body,
            self.depend.iter().map(|&v| varint::len_u64(v)).sum::<usize>(),
            "incremental FULL-body total out of sync"
        );
        let full = lagging || chan.since_full >= self.resync_interval || delta_body >= full_body;

        let mut buf =
            Vec::with_capacity(1 + varint::len_u64(self.epoch) + delta_body.min(full_body));
        let id_count;
        if full {
            buf.push(KIND_FULL);
            varint::write_u64(&mut buf, self.epoch);
            varint::write_run(&mut buf, &self.depend);
            id_count = self.n as u64;
            self.stats.full_frames += 1;
        } else {
            buf.push(KIND_DELTA);
            varint::write_u64(&mut buf, self.epoch);
            varint::write_u64(&mut buf, changed.len() as u64);
            for &i in &changed {
                varint::write_u64(&mut buf, i as u64);
                varint::write_u64(&mut buf, self.depend[i]);
            }
            id_count = changed.len() as u64;
            self.stats.delta_frames += 1;
        }

        let abs_end = self.compacted + self.dirty_log.len();
        let chan = &mut self.chans[dst];
        chan.primed = true;
        chan.last_stamp = self.stamp;
        chan.log_pos = abs_end;
        chan.last_seq = send_index;
        chan.since_full = if full { 0 } else { chan.since_full + 1 };

        #[cfg(debug_assertions)]
        self.check_oracle(dst, &buf);

        SendArtifacts {
            piggyback: buf,
            id_count,
        }
    }

    fn deliverable(&self, src: Rank, send_index: u64, piggyback: &[u8]) -> DeliveryVerdict {
        let Ok(frame) = self.parse_frame(piggyback) else {
            return DeliveryVerdict::Wait;
        };
        match self.gate_entry(src, send_index, &frame) {
            Some(needs_me) if needs_me <= self.depend[self.me] => DeliveryVerdict::Deliver,
            Some(_) => DeliveryVerdict::Wait,
            None => {
                // Undecodable (post-recovery epoch change or gap):
                // park the message and ask the sender for a snapshot.
                self.request_resync(src);
                DeliveryVerdict::Wait
            }
        }
    }

    fn on_deliver(
        &mut self,
        src: Rank,
        send_index: u64,
        piggyback: &[u8],
    ) -> Result<(), ProtocolError> {
        let frame = self.parse_frame(piggyback)?;
        let (frame_epoch, sender_vec) = match self.resolve(src, send_index, &frame) {
            Resolved::Exact { epoch, vec } => (Some(epoch), vec),
            Resolved::Stale => {
                let base = self.bases[src].as_ref().expect("stale implies a base");
                (None, base.vec.clone())
            }
            Resolved::NeedResync => {
                self.request_resync(src);
                return Err(ProtocolError::NotDeliverable { src, send_index });
            }
        };
        if sender_vec[self.me] > self.depend[self.me] {
            return Err(ProtocolError::NotDeliverable { src, send_index });
        }
        let own = self.depend[self.me]
            .checked_add(1)
            .ok_or(ProtocolError::Corrupt("own delivery count overflows"))?;
        self.stamp += 1;
        self.touch(self.me, own);
        for (k, &v) in sender_vec.iter().enumerate() {
            if k != self.me && v > self.depend[k] {
                self.touch(k, v);
            }
        }
        self.compact_journal();
        // Commit the decoded vector as the channel's new base (Stale
        // resolutions keep the existing, newer base).
        if let Some(epoch) = frame_epoch {
            let regresses = self.bases[src]
                .as_ref()
                .is_some_and(|b| b.epoch == epoch && b.seq >= send_index);
            if !regresses {
                self.bases[src] = Some(Base {
                    epoch,
                    seq: send_index,
                    vec: sender_vec,
                });
            }
        }
        Ok(())
    }

    fn checkpoint_bytes(&self) -> Vec<u8> {
        // [epoch][n × depend][per-src: presence byte, then epoch, seq,
        // n × value] — hand-rolled so restore can validate exactly.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, self.epoch);
        varint::write_run(&mut buf, &self.depend);
        for base in &self.bases {
            match base {
                None => buf.push(0),
                Some(b) => {
                    buf.push(1);
                    varint::write_u64(&mut buf, b.epoch);
                    varint::write_u64(&mut buf, b.seq);
                    varint::write_run(&mut buf, &b.vec);
                }
            }
        }
        buf
    }

    fn restore_from_checkpoint(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        let corrupt = |_: WireError| ProtocolError::Corrupt("truncated TDI-S checkpoint");
        let mut r = Reader::new(bytes);
        let epoch = varint::read_u64(&mut r).map_err(corrupt)?;
        let depend = read_vec(&mut r, self.n).map_err(corrupt)?;
        let mut bases = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            match r.take_byte().map_err(corrupt)? {
                0 => bases.push(None),
                1 => {
                    let b_epoch = varint::read_u64(&mut r).map_err(corrupt)?;
                    let seq = varint::read_u64(&mut r).map_err(corrupt)?;
                    let vec = read_vec(&mut r, self.n).map_err(corrupt)?;
                    bases.push(Some(Base {
                        epoch: b_epoch,
                        seq,
                        vec,
                    }));
                }
                _ => return Err(ProtocolError::Corrupt("bad TDI-S base presence byte")),
            }
        }
        r.finish()
            .map_err(|_| ProtocolError::Corrupt("trailing bytes in TDI-S checkpoint"))?;

        self.depend = depend;
        self.bases = bases;
        // New framing epoch: a recovered sender's delta chain must
        // never be applied to a pre-crash base. Encode state resets so
        // the first post-recovery frame per channel is FULL.
        self.epoch = epoch + 1;
        self.stamp = 1;
        self.stamped = vec![1; self.n];
        self.dirty_log.clear();
        self.compacted = 0;
        self.full_body = self.depend.iter().map(|&v| varint::len_u64(v)).sum();
        self.chans = vec![SendChannel::fresh(); self.n];
        self.pending_resync.get_mut().clear();
        #[cfg(debug_assertions)]
        {
            self.shadow = vec![None; self.n];
        }
        Ok(())
    }

    fn take_resync_requests(&mut self) -> Vec<Rank> {
        let drained: Vec<Rank> = std::mem::take(self.pending_resync.get_mut())
            .into_iter()
            .collect();
        self.stats.resync_requests += drained.len() as u64;
        drained
    }

    fn resync_snapshot(&mut self, dst: Rank) -> Option<Vec<u8>> {
        if dst >= self.n || dst == self.me {
            return None;
        }
        // [epoch][seq of last frame sent][n × value]. Resetting the
        // channel's stamp is safe: `dst` is the channel's only
        // consumer and will decode future deltas against this
        // snapshot.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, self.epoch);
        varint::write_u64(&mut buf, self.chans[dst].last_seq);
        varint::write_run(&mut buf, &self.depend);
        let abs_end = self.compacted + self.dirty_log.len();
        let chan = &mut self.chans[dst];
        chan.primed = true;
        chan.last_stamp = self.stamp;
        chan.log_pos = abs_end;
        chan.since_full = 0;
        #[cfg(debug_assertions)]
        {
            self.shadow[dst] = Some(self.depend.clone());
        }
        Some(buf)
    }

    fn install_resync(&mut self, src: Rank, bytes: &[u8]) -> Result<(), ProtocolError> {
        let corrupt = |_: WireError| ProtocolError::Corrupt("truncated TDI-S resync snapshot");
        let mut r = Reader::new(bytes);
        let epoch = varint::read_u64(&mut r).map_err(corrupt)?;
        let seq = varint::read_u64(&mut r).map_err(corrupt)?;
        let vec = read_vec(&mut r, self.n).map_err(corrupt)?;
        r.finish()
            .map_err(|_| ProtocolError::Corrupt("trailing bytes in TDI-S resync snapshot"))?;
        // Keep the newer of snapshot and existing base (a stale
        // snapshot answering an earlier request must not regress the
        // decode chain).
        let newer = match &self.bases[src] {
            None => true,
            Some(b) => epoch > b.epoch || (epoch == b.epoch && seq >= b.seq),
        };
        if newer {
            self.bases[src] = Some(Base { epoch, seq, vec });
        }
        Ok(())
    }

    fn frame_stats(&self) -> Option<FrameStats> {
        Some(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::make_protocol;
    use crate::tdi::Tdi;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A dense-vs-sparse lockstep harness: every op is applied to both
    /// a `SparseTdi` fleet and a dense `Tdi` fleet, asserting the
    /// interval vectors never diverge.
    struct Lockstep {
        n: usize,
        sparse: Vec<SparseTdi>,
        dense: Vec<Tdi>,
        next_idx: Vec<Vec<u64>>,
    }

    impl Lockstep {
        fn new(n: usize, interval: u32) -> Self {
            Lockstep {
                n,
                sparse: (0..n).map(|r| SparseTdi::new(r, n, interval)).collect(),
                dense: (0..n).map(|r| Tdi::new(r, n)).collect(),
                next_idx: vec![vec![0; n]; n],
            }
        }

        /// Send src → dst through both stacks; returns true when the
        /// message was deliverable (and was delivered on both).
        fn send_and_deliver(&mut self, src: usize, dst: usize) -> bool {
            self.next_idx[src][dst] += 1;
            let idx = self.next_idx[src][dst];
            let sp_art = self.sparse[src].on_send(dst, idx);
            let de_art = self.dense[src].on_send(dst, idx);
            let sp = self.sparse[dst].deliverable(src, idx, &sp_art.piggyback);
            let de = self.dense[dst].deliverable(src, idx, &de_art.piggyback);
            assert_eq!(sp, de, "gates diverged for {src}->{dst} #{idx}");
            if sp == DeliveryVerdict::Deliver {
                self.sparse[dst]
                    .on_deliver(src, idx, &sp_art.piggyback)
                    .unwrap();
                self.dense[dst]
                    .on_deliver(src, idx, &de_art.piggyback)
                    .unwrap();
            }
            self.assert_vectors_equal();
            sp == DeliveryVerdict::Deliver
        }

        fn assert_vectors_equal(&self) {
            for r in 0..self.n {
                assert_eq!(
                    self.sparse[r].interval_vector(),
                    self.dense[r].interval_vector(),
                    "rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn first_frame_on_a_channel_is_full_then_deltas() {
        let mut p = SparseTdi::new(0, 4, 64);
        let art = p.on_send(1, 1);
        assert_eq!(art.piggyback[0], KIND_FULL);
        assert_eq!(art.id_count, 4);
        // Nothing changed: the delta is empty (and much smaller).
        let art2 = p.on_send(1, 2);
        assert_eq!(art2.piggyback[0], KIND_DELTA);
        assert_eq!(art2.id_count, 0);
        assert!(art2.piggyback.len() < art.piggyback.len());
        let stats = p.frame_stats().unwrap();
        assert_eq!(stats.full_frames, 1);
        assert_eq!(stats.delta_frames, 1);
    }

    #[test]
    fn periodic_full_frame_after_resync_interval() {
        let mut p = SparseTdi::new(0, 4, 3);
        assert_eq!(p.on_send(1, 1).piggyback[0], KIND_FULL);
        assert_eq!(p.on_send(1, 2).piggyback[0], KIND_DELTA);
        assert_eq!(p.on_send(1, 3).piggyback[0], KIND_DELTA);
        assert_eq!(p.on_send(1, 4).piggyback[0], KIND_DELTA);
        // since_full reached the interval: frame 5 resyncs.
        assert_eq!(p.on_send(1, 5).piggyback[0], KIND_FULL);
    }

    #[test]
    fn sparse_and_dense_agree_on_fig1_style_exchange() {
        let mut l = Lockstep::new(4, 2);
        assert!(l.send_and_deliver(1, 2));
        assert!(l.send_and_deliver(2, 3));
        assert!(l.send_and_deliver(3, 1));
        assert!(l.send_and_deliver(1, 0));
        assert!(l.send_and_deliver(0, 3));
    }

    #[test]
    fn dirty_journal_stays_bounded_and_demotes_laggards_to_full() {
        let n = 4;
        let mut l = Lockstep::new(n, 1_000_000);
        // Prime channel 0→3 so it holds a journal cursor, then leave
        // it idle while rank 0 churns: deliveries from 1 keep touching
        // its vector, sends to 1 keep that channel's cursor near the
        // journal tail.
        assert!(l.send_and_deliver(0, 3));
        for _ in 0..600 {
            l.send_and_deliver(1, 0);
            l.send_and_deliver(0, 1);
        }
        let cap = l.sparse[0].journal_cap();
        assert!(
            l.sparse[0].dirty_log.len() <= cap,
            "journal grew past its cap: {} > {cap}",
            l.sparse[0].dirty_log.len()
        );
        assert!(l.sparse[0].compacted > 0, "compaction never ran");
        // The idle channel was demoted rather than pinning the
        // journal; its next frame is a FULL that still decodes
        // exactly (the lockstep asserts the vectors agree).
        assert!(!l.sparse[0].chans[3].primed, "laggard should be demoted");
        l.next_idx[0][3] += 1;
        let idx = l.next_idx[0][3];
        let sp = l.sparse[0].on_send(3, idx);
        let de = l.dense[0].on_send(3, idx);
        assert_eq!(sp.piggyback[0], KIND_FULL);
        assert_eq!(
            l.sparse[3].deliverable(0, idx, &sp.piggyback),
            l.dense[3].deliverable(0, idx, &de.piggyback)
        );
        if l.sparse[3].deliverable(0, idx, &sp.piggyback) == DeliveryVerdict::Deliver {
            l.sparse[3].on_deliver(0, idx, &sp.piggyback).unwrap();
            l.dense[3].on_deliver(0, idx, &de.piggyback).unwrap();
        }
        l.assert_vectors_equal();
    }

    #[test]
    fn delta_without_base_waits_and_requests_resync() {
        let mut sender = SparseTdi::new(0, 3, 64);
        let _full = sender.on_send(1, 1);
        let delta = sender.on_send(1, 2);
        assert_eq!(delta.piggyback[0], KIND_DELTA);
        // A receiver that never saw the FULL cannot decode the delta.
        let mut rx = SparseTdi::new(1, 3, 64);
        assert_eq!(
            rx.deliverable(0, 2, &delta.piggyback),
            DeliveryVerdict::Wait
        );
        assert_eq!(rx.take_resync_requests(), vec![0]);
        // Snapshot + install heals the channel.
        let snap = sender.resync_snapshot(1).unwrap();
        rx.install_resync(0, &snap).unwrap();
        assert_eq!(
            rx.deliverable(0, 2, &delta.piggyback),
            DeliveryVerdict::Deliver
        );
        rx.on_deliver(0, 2, &delta.piggyback).unwrap();
        assert_eq!(rx.frame_stats().unwrap().resync_requests, 1);
    }

    #[test]
    fn restore_bumps_epoch_and_forces_full_frames() {
        let mut p = SparseTdi::new(0, 3, 64);
        let _ = p.on_send(1, 1);
        let _ = p.on_send(1, 2);
        let blob = p.checkpoint_bytes();
        let mut q = SparseTdi::new(0, 3, 64);
        q.restore_from_checkpoint(&blob).unwrap();
        assert_eq!(q.epoch, p.epoch + 1);
        // First post-restore frame on every channel is FULL.
        let art = q.on_send(1, 3);
        assert_eq!(art.piggyback[0], KIND_FULL);
    }

    #[test]
    fn checkpoint_preserves_receiver_bases() {
        let mut l = Lockstep::new(3, 64);
        assert!(l.send_and_deliver(0, 1));
        assert!(l.send_and_deliver(0, 1));
        // Checkpoint rank 1 and restore into a fresh instance: the
        // 0→1 base must survive so the next delta decodes directly.
        let blob = l.sparse[1].checkpoint_bytes();
        let mut restored = SparseTdi::new(1, 3, 64);
        restored.restore_from_checkpoint(&blob).unwrap();
        let art = l.sparse[0].on_send(1, 3);
        assert_eq!(art.piggyback[0], KIND_DELTA);
        assert_eq!(
            restored.deliverable(0, 3, &art.piggyback),
            DeliveryVerdict::Deliver
        );
        restored.on_deliver(0, 3, &art.piggyback).unwrap();
        assert!(restored.take_resync_requests().is_empty());
    }

    #[test]
    fn garbage_checkpoint_and_frames_are_rejected() {
        let mut p = SparseTdi::new(0, 3, 64);
        assert!(p.restore_from_checkpoint(&[0xFF, 0x13, 0x37]).is_err());
        // Corrupt piggybacks wait (gate) and error (on_deliver), as in
        // dense TDI.
        assert_eq!(p.deliverable(1, 1, &[9, 9, 9]), DeliveryVerdict::Wait);
        assert!(matches!(
            p.on_deliver(1, 1, &[9, 9, 9]),
            Err(ProtocolError::Corrupt(_))
        ));
        // A forged delta with out-of-range index is rejected too.
        let mut forged = vec![KIND_DELTA];
        varint::write_u64(&mut forged, 0); // epoch
        varint::write_u64(&mut forged, 1); // count
        varint::write_u64(&mut forged, 7); // index >= n
        varint::write_u64(&mut forged, 1);
        assert_eq!(p.deliverable(1, 1, &forged), DeliveryVerdict::Wait);
        assert!(matches!(
            p.on_deliver(1, 1, &forged),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn an_own_count_that_cannot_grow_is_corrupt_and_changes_nothing() {
        // A checkpoint image may carry any own count; at `u64::MAX`
        // the next delivery cannot be counted.
        let mut image = Vec::new();
        varint::write_u64(&mut image, 0);
        varint::write_run(&mut image, &[0, u64::MAX, 0]);
        image.extend([0; 3]);
        let mut rx = SparseTdi::new(1, 3, 4);
        rx.restore_from_checkpoint(&image).unwrap();
        let before = rx.checkpoint_bytes();
        let full = SparseTdi::new(0, 3, 4).on_send(1, 1).piggyback;
        assert_eq!(rx.deliverable(0, 1, &full), DeliveryVerdict::Deliver);
        assert!(matches!(
            rx.on_deliver(0, 1, &full),
            Err(ProtocolError::Corrupt(_))
        ));
        assert_eq!(rx.checkpoint_bytes(), before);
        assert_eq!(rx.interval_vector(), Some(vec![0, u64::MAX, 0]));
    }

    #[test]
    fn factory_builds_sparse_with_interval() {
        let p = make_protocol(ProtocolKind::TdiSparse(16), 2, 8);
        assert_eq!(p.kind(), ProtocolKind::TdiSparse(16));
        assert_eq!(p.me(), 2);
        assert_eq!(p.n(), 8);
    }

    /// The satellite property test: under seeded random interleavings
    /// of sends, deliveries, drops-forcing-resyncs, and incarnation
    /// bumps, the sparse codec always reconstructs exactly the dense
    /// vector (splitmix64-seeded, like the wire proptests).
    #[test]
    fn prop_sparse_round_trips_to_dense_under_random_interleavings() {
        for seed in 0u64..24 {
            let mut rng = seed.wrapping_mul(0x0123_4567_89AB_CDEF) ^ 0xD1B5_4A32_D192_ED03;
            let n = 3 + (splitmix64(&mut rng) % 3) as usize; // 3..=5
            let interval = 2 + (splitmix64(&mut rng) % 4) as u32;
            let mut l = Lockstep::new(n, interval);
            for _ in 0..200 {
                let op = splitmix64(&mut rng) % 10;
                let src = (splitmix64(&mut rng) as usize) % n;
                let dst = (splitmix64(&mut rng) as usize) % n;
                match op {
                    // Mostly: send + deliver through both stacks.
                    0..=6 => {
                        if src != dst {
                            l.send_and_deliver(src, dst);
                        }
                    }
                    // Drop-forcing-resync: the receiver forgets the
                    // channel base, parks the next delta, and heals
                    // via snapshot — immediately, so the snapshot
                    // vector equals the frame's vector and the
                    // lockstep gates stay aligned.
                    7 => {
                        if src != dst {
                            l.sparse[dst].bases[src] = None;
                            l.next_idx[src][dst] += 1;
                            let idx = l.next_idx[src][dst];
                            let sp_art = l.sparse[src].on_send(dst, idx);
                            let de_art = l.dense[src].on_send(dst, idx);
                            if sp_art.piggyback[0] == KIND_DELTA {
                                assert_eq!(
                                    l.sparse[dst].deliverable(src, idx, &sp_art.piggyback),
                                    DeliveryVerdict::Wait
                                );
                                let reqs = l.sparse[dst].take_resync_requests();
                                assert_eq!(reqs, vec![src]);
                                let snap = l.sparse[src].resync_snapshot(dst).unwrap();
                                l.sparse[dst].install_resync(src, &snap).unwrap();
                            }
                            let sp = l.sparse[dst].deliverable(src, idx, &sp_art.piggyback);
                            let de = l.dense[dst].deliverable(src, idx, &de_art.piggyback);
                            assert_eq!(sp, de);
                            if sp == DeliveryVerdict::Deliver {
                                l.sparse[dst]
                                    .on_deliver(src, idx, &sp_art.piggyback)
                                    .unwrap();
                                l.dense[dst]
                                    .on_deliver(src, idx, &de_art.piggyback)
                                    .unwrap();
                            }
                            l.assert_vectors_equal();
                        }
                    }
                    // Incarnation bump: checkpoint + restore both
                    // stacks; the sparse side bumps its epoch and
                    // forces FULL frames, the dense side is unchanged
                    // — vectors must still match.
                    _ => {
                        let sp_blob = l.sparse[src].checkpoint_bytes();
                        l.sparse[src].restore_from_checkpoint(&sp_blob).unwrap();
                        let de_blob = l.dense[src].checkpoint_bytes();
                        l.dense[src].restore_from_checkpoint(&de_blob).unwrap();
                        l.assert_vectors_equal();
                    }
                }
            }
            // Close out with a ring pass so every fleet member both
            // sent and received at least once under this seed.
            for r in 0..n {
                let _ = l.send_and_deliver(r, (r + 1) % n);
            }
            l.assert_vectors_equal();
        }
    }
}
