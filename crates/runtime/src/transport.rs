//! The reliability layer between the kernel and the fabric.
//!
//! The simulated fabric is allowed to turn adversarial (see
//! `lclog_simnet::ChaosConfig`): it may drop, duplicate, bit-flip, or
//! stall envelopes. This module restores the abstraction the
//! rollback-recovery layer was written against — reliable, FIFO,
//! exactly-once channels between live incarnations — the same way a
//! real MPI stack rides on TCP or a reliable RDMA verb layer:
//!
//! * every outbound wire message is framed with a **CRC-32 trailer**
//!   and a per-destination **transport sequence number**;
//! * receivers discard duplicates below the application layer, detect
//!   corruption, and answer with cumulative ACKs (or a NACK on a CRC
//!   mismatch, short-circuiting the retransmission timeout);
//! * senders buffer unacknowledged frames and retransmit on a capped
//!   exponential backoff; a retransmit budget turns a permanently
//!   silent peer into [`crate::Fault::Unreachable`] instead of an
//!   infinite hang;
//! * time a sender spends transmitting a resend burst is not charged
//!   to the peer: [`Transport::defer_retry`] moves the channel's retry
//!   deadline back by the burst's duration, so a recovery resend
//!   longer than the timeout does not expire on its own first frame
//!   (under a virtual clock a burst takes no time and nothing moves).
//!
//! [`Transport`] is plain data behind `&mut self`, owned by a kernel's
//! state or by the event logger, and driven by the one thread that
//! drives the job. The one part of receiving that needs no endpoint
//! state, the CRC check and frame decode, is the free function
//! [`decode_envelope`].
//!
//! ## Batched acknowledgements
//!
//! Receiving a data frame does not transmit an ack inline. It marks
//! the channel ack-pending and pushes the peer on a dirty list;
//! [`Transport::flush_acks`] — called once per ingest batch by the
//! kernel, and by the tick — sends one **cumulative** ack per dirty
//! peer. A batch of k frames from one peer costs one ack frame instead
//! of k. NACKs (corruption reports) still go out immediately: they
//! short-circuit a retransmission timeout, so latency matters.
//!
//! Incarnations are disambiguated by an **epoch** (the rank's
//! incarnation number) carried in every data frame: a receiver that
//! sees a higher epoch resets its channel state, and stale frames or
//! acknowledgements from an earlier incarnation are ignored. The
//! `hint` field (the sender's lowest outstanding sequence number)
//! lets a freshly respawned receiver skip the prefix of the sequence
//! space that was acknowledged to — and therefore delivered by — the
//! previous incarnation; the rollback protocol above regenerates
//! whatever of that prefix still matters.
//!
//! The epoch is the only incarnation check. Failures are announced, so
//! nothing carries liveness: there are no heartbeats, and a receiver
//! needs no view of who is alive — a newer epoch supersedes an older
//! one the moment its first frame arrives.
//!
//! ## Zero-copy data plane
//!
//! A data frame is built **once**, in a single pass, into one
//! allocation:
//!
//! ```text
//! [ crc32 (4, LE) | tag=Data (1) | epoch (8) | seq (8) | hint (8)
//!   | varint inner_len | encoded WireMsg ... ]
//! ```
//!
//! [`Transport::send_msg`] encodes header and payload into a
//! `BytesMut`, freezes it, stores the whole frame in the unacked map,
//! hands it to the fabric, and returns the *inner* region as a
//! zero-copy window for the sender log. Retransmission resends the
//! stored frame verbatim — no re-encode, no re-CRC. (The stored `hint`
//! may be stale, which is safe: a hint only tells the receiver that
//! everything below it was acknowledged, and acknowledgements never
//! regress.)
//!
//! [`Transport::send_encoded`] covers recovery resends: the inner
//! encoding already lives in the sender log, so only a ~30-byte header
//! segment is built fresh and the logged bytes travel as the second
//! segment of a two-segment [`Envelope`] — zero payload copies. The
//! concatenation of the two segments is byte-identical to a contiguous
//! frame ([`lclog_wire::crc32_concat`] checksums them as one buffer).
//!
//! [`DataPlaneStats`] counts frame allocations, framed bytes, and
//! payload copies; under `debug_assertions` every send path asserts a
//! copy *budget* against the thread-local [`bytes::audit`] counters,
//! so an accidental deep copy panics in CI instead of silently
//! regressing the hot path.

use lclog_simnet::Clock;
use crate::events::{EventKind, EventSink};
use bytes::{Bytes, BytesMut};
use lclog_core::Rank;
use lclog_simnet::{Envelope, SimNet};
use lclog_wire::{
    crc32, crc32_concat, decode_from_bytes, impl_wire_enum, impl_wire_struct, varint, Decode,
    Encode, Reader, WireError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Assert that the wrapped expression performs at most `$budget`
/// copying `Bytes` constructions on this thread (debug builds only).
macro_rules! with_copy_budget {
    ($budget:expr, $what:expr, $body:expr) => {{
        #[cfg(debug_assertions)]
        let __copies_before = bytes::audit::copies();
        let out = $body;
        #[cfg(debug_assertions)]
        {
            let used = bytes::audit::copies() - __copies_before;
            assert!(
                used <= $budget,
                "data-plane copy budget exceeded in {}: {} Bytes copies (budget {})",
                $what,
                used,
                $budget,
            );
        }
        out
    }};
}

/// A sequenced, CRC-protected data frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DataFrame {
    /// Sender incarnation number.
    pub epoch: u64,
    /// Per-(sender, destination) transport sequence number (1-based).
    pub seq: u64,
    /// The sender's lowest unacknowledged sequence number at transmit
    /// time: everything below it was acknowledged, so a state-less
    /// (respawned) receiver may treat it as its cumulative floor.
    pub hint: u64,
    /// The encoded [`crate::message::WireMsg`].
    pub inner: Bytes,
}

impl_wire_struct!(DataFrame { epoch, seq, hint, inner });

/// Cumulative acknowledgement state echoed back to a data sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AckFrame {
    /// The data sender's epoch this acknowledgement refers to.
    pub epoch: u64,
    /// Highest contiguously received sequence number.
    pub floor: u64,
}

impl_wire_struct!(AckFrame { epoch, floor });

/// Transport frame: what actually rides inside a fabric envelope,
/// prefixed by a 4-byte little-endian CRC-32 of the encoded frame.
/// Tags 3 and 4 are retired: a frame carrying one is undecodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Frame {
    /// Sequenced payload.
    Data(DataFrame),
    /// Cumulative acknowledgement (fire-and-forget, unsequenced).
    Ack(AckFrame),
    /// Corruption report: "resend everything above `floor`".
    Nack(AckFrame),
}

impl_wire_enum!(Frame {
    0 => Data(f),
    1 => Ack(f),
    2 => Nack(f)
});

/// Wire tag of [`Frame::Data`]; the single-pass header writer must
/// stay byte-identical to the `impl_wire_enum!` encoding above.
const DATA_TAG: u8 = 0;
/// Length of the CRC-32 prefix.
const CRC_LEN: usize = 4;

/// Whether a raw fabric payload is a sequenced *data* frame (it
/// carries an encoded [`WireMsg`](crate::message::WireMsg)) rather
/// than pure transport control traffic (ack / nack).
///
/// The deterministic schedule explorer uses this to branch only on
/// releases that can change application-visible behavior: control
/// frames are flushed eagerly, data frames become choice points.
pub fn payload_is_data_frame(payload: &[u8]) -> bool {
    payload.len() > CRC_LEN && payload[CRC_LEN] == DATA_TAG
}

/// Whether a raw fabric payload is a sequenced data frame whose inner
/// message is an **application send** (`WireMsg::App`), as opposed to
/// kernel-to-kernel protocol traffic that merely rides the sequenced
/// stream (acks, checkpoint advances, rollback/response recovery
/// frames, resync traffic).
///
/// The deterministic schedule explorer branches only on these:
/// application frames are the payloads whose arrival order the
/// order-insensitivity claim quantifies over, while protocol frames
/// are flushed eagerly — with virtual time frozen their relative
/// order is already forced, and branching on them would pad the
/// schedule tree without changing application-visible behavior.
pub fn payload_is_app_frame(payload: &[u8]) -> bool {
    if !payload_is_data_frame(payload) {
        return false;
    }
    // Skip CRC, DATA tag, epoch, seq, hint, then the varint length
    // prefix; the next byte is the inner WireMsg discriminant
    // (`0` = App — see `impl_wire_enum!` in message.rs).
    let mut idx = CRC_LEN + 1 + 24;
    loop {
        match payload.get(idx) {
            Some(b) => {
                idx += 1;
                if b & 0x80 == 0 {
                    break;
                }
            }
            None => return false,
        }
    }
    payload.get(idx) == Some(&0)
}

/// Bytes the data-frame header occupies after the CRC prefix for an
/// inner payload of `inner_len` bytes.
fn data_header_len(inner_len: usize) -> usize {
    1 + 8 + 8 + 8 + varint::len_u64(inner_len as u64)
}

/// Append the data-frame header (tag, epoch, seq, hint, inner length
/// prefix) — the single-pass mirror of `Frame::Data` encoding.
fn write_data_header(buf: &mut Vec<u8>, epoch: u64, seq: u64, hint: u64, inner_len: usize) {
    buf.push(DATA_TAG);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&hint.to_le_bytes());
    varint::write_u64(buf, inner_len as u64);
}

/// Why [`decode_envelope`] refused an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reject {
    /// Too short or CRC mismatch: line noise, worth a NACK.
    Corrupt,
    /// CRC-valid bytes that are not a frame. Noise cannot produce
    /// these but any fabric peer can forge them, and a retransmission
    /// would carry the same bytes: counted and dropped, never NACK'ed.
    Undecodable,
}

/// Check an inbound envelope's CRC (across both segments, without
/// joining them) and decode its transport frame. A pure function of
/// the envelope: callers run it *before* taking the lock that guards
/// their [`Transport`] and hand the outcome to [`Transport::ingest`].
pub(crate) fn decode_envelope(env: &Envelope) -> Result<Frame, Reject> {
    if env.payload.len() < CRC_LEN {
        return Err(Reject::Corrupt);
    }
    let want = u32::from_le_bytes(env.payload[..CRC_LEN].try_into().expect("4 bytes"));
    if crc32_concat(&env.payload[CRC_LEN..], &env.body) != want {
        return Err(Reject::Corrupt);
    }
    let decoded = if env.body.is_empty() {
        decode_from_bytes::<Frame>(&env.payload.slice(CRC_LEN..))
    } else {
        decode_segmented(env)
    };
    decoded.map_err(|_| Reject::Undecodable)
}

/// Decode a two-segment frame: the head carries CRC + data header,
/// the body *is* the inner payload. Only data frames are ever
/// segmented.
fn decode_segmented(env: &Envelope) -> Result<Frame, WireError> {
    let head = &env.payload[CRC_LEN..];
    let mut r = Reader::new(head);
    let tag = r.take_byte()?;
    if tag != DATA_TAG {
        return Err(WireError::InvalidTag {
            type_name: "Frame",
            tag: tag as u64,
        });
    }
    let epoch = u64::decode(&mut r)?;
    let seq = u64::decode(&mut r)?;
    let hint = u64::decode(&mut r)?;
    let inner_len = varint::read_u64(&mut r)?;
    r.finish()?;
    if inner_len != env.body.len() as u64 {
        return Err(WireError::LengthOverflow {
            declared: inner_len,
        });
    }
    Ok(Frame::Data(DataFrame {
        epoch,
        seq,
        hint,
        inner: env.body.clone(),
    }))
}

/// An already-built frame as it rides the fabric: `head` is the
/// CRC + header (plus, for contiguous frames, the payload); `body` is
/// the optional zero-copy payload segment. Cloning bumps refcounts.
#[derive(Debug, Clone)]
struct FrameBuf {
    head: Bytes,
    body: Bytes,
}

/// Hand a built frame to the fabric (refcount bumps only). Sends to
/// dead ranks are dropped by the fabric — exactly the paper's model;
/// retransmission (and, above it, recovery resends) cover the loss.
fn transmit_frame(net: &SimNet, me: Rank, dst: Rank, fb: &FrameBuf) {
    let _ = net.send_parts(me, dst, fb.head.clone(), fb.body.clone());
}

/// Byte-accounting for the zero-copy data plane, kept per transport
/// endpoint (i.e. per rank) and surfaced through
/// [`crate::KernelSnapshot`] and the bench tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Frame buffers allocated (one per `send_msg`/`send_encoded`/
    /// control frame; retransmissions allocate none).
    pub frames_built: u64,
    /// Total bytes written into freshly built frame buffers.
    pub bytes_framed: u64,
    /// Payload encoding passes (payload bytes written into a frame).
    /// Exactly one per `send_msg`; zero for resends.
    pub payload_copies: u64,
    /// Payload bytes written by those passes.
    pub payload_bytes_copied: u64,
    /// Sends that reused an already-encoded payload from the sender
    /// log (recovery / rendezvous resends) — zero payload copies.
    pub zero_copy_resends: u64,
    /// Frames resent verbatim from the unacked map (timeout or NACK) —
    /// zero allocations, zero copies.
    pub retransmit_frames: u64,
    /// Data frames whose acknowledgement rode a coalesced cumulative
    /// ack instead of a dedicated frame.
    pub acks_coalesced: u64,
    /// Cumulative ack frames actually sent by `flush_acks`; the
    /// coalescing win is `acks_coalesced / (acks_coalesced +
    /// ack_frames)` fewer control frames than ack-per-data-frame.
    pub ack_frames: u64,
}

impl DataPlaneStats {
    /// Accumulate another endpoint's counters (for cluster-wide
    /// totals).
    pub fn merge(&mut self, other: &DataPlaneStats) {
        self.frames_built += other.frames_built;
        self.bytes_framed += other.bytes_framed;
        self.payload_copies += other.payload_copies;
        self.payload_bytes_copied += other.payload_bytes_copied;
        self.zero_copy_resends += other.zero_copy_resends;
        self.retransmit_frames += other.retransmit_frames;
        self.acks_coalesced += other.acks_coalesced;
        self.ack_frames += other.ack_frames;
    }
}

/// Initial retransmission timeout of every kernel and of the stable
/// service.
pub(crate) const RETRANSMIT_TIMEOUT: Duration = Duration::from_millis(2);
/// Ceiling of the exponential retransmission backoff.
pub(crate) const RETRANSMIT_CAP: Duration = Duration::from_millis(50);
/// Consecutive no-progress retransmission rounds before a peer is
/// declared [`crate::Fault::Unreachable`].
pub(crate) const RETRANSMIT_BUDGET: u32 = 40;

/// Retransmission tuning; a struct so the unit tests can shorten it.
#[derive(Debug, Clone)]
pub(crate) struct TransportConfig {
    /// Initial retransmission timeout.
    pub timeout: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Consecutive no-progress retransmission rounds before the peer
    /// is declared unreachable.
    pub budget: u32,
    /// Time source for retry deadlines (virtual under deterministic
    /// simulation — backoff then advances only when the scheduler
    /// advances the clock).
    pub clock: Clock,
}

impl TransportConfig {
    /// What everything outside the unit tests runs with.
    pub(crate) fn standard(clock: Clock) -> Self {
        TransportConfig {
            timeout: RETRANSMIT_TIMEOUT,
            cap: RETRANSMIT_CAP,
            budget: RETRANSMIT_BUDGET,
            clock,
        }
    }
}

/// Sender side of one channel.
struct TxChannel {
    next_seq: u64,
    /// Unacknowledged **built frames** by sequence number: the exact
    /// bytes that went out, resent verbatim on timeout or NACK.
    unacked: BTreeMap<u64, FrameBuf>,
    /// Consecutive retransmission rounds without an ack advancing.
    attempts: u32,
    backoff: Duration,
    next_retry: Instant,
}

impl TxChannel {
    /// Allocate the next sequence number, restarting the retry clock
    /// when the outstanding window was empty. Returns `(seq, hint)`
    /// where `hint` is the lowest outstanding seq *including* the new
    /// frame.
    fn begin_send(&mut self, timeout: Duration, now: Instant) -> (u64, u64) {
        self.next_seq += 1;
        let seq = self.next_seq;
        if self.unacked.is_empty() {
            // Fresh outstanding window: restart the retry clock (and
            // give a previously written-off peer another budget).
            self.attempts = 0;
            self.backoff = timeout;
            self.next_retry = now + self.backoff;
        }
        let hint = self.unacked.keys().next().copied().unwrap_or(seq);
        (seq, hint)
    }
}

/// Receiver side of one channel.
struct RxChannel {
    /// Highest sender epoch seen.
    epoch: u64,
    /// Highest contiguously received sequence number.
    floor: u64,
    /// Received sequence numbers above the floor (out-of-order or
    /// post-gap arrivals, kept only for duplicate detection — frames
    /// are handed up immediately; FIFO ordering is the app layer's
    /// concern and the fabric is per-pair FIFO anyway).
    above: BTreeSet<u64>,
}

/// Everything this endpoint keeps about one peer.
struct Peer {
    tx: TxChannel,
    rx: RxChannel,
    /// Set when a data frame arrived and its cumulative ack has not
    /// been flushed yet (the peer sits on the dirty list).
    ack_pending: bool,
    /// Set when the retransmit budget was exhausted; cleared the
    /// moment any valid frame arrives from the peer.
    unreachable: bool,
}

/// Per-incarnation reliability endpoint. One per kernel (inside its
/// state) and one for the event-logger service, channels sized to
/// the whole fabric (`n + 1` slots, so the logger participates).
pub(crate) struct Transport {
    me: Rank,
    /// This incarnation's epoch (= incarnation number).
    epoch: u64,
    net: SimNet,
    cfg: TransportConfig,
    peers: Vec<Peer>,
    /// Peers with an unflushed cumulative ack (the `ack_pending` flag
    /// dedups entries).
    ack_dirty: Vec<Rank>,
    /// Duplicates discarded below the app layer (observability).
    pub(crate) dup_discarded: u64,
    /// Corrupt or undecodable envelopes detected (observability).
    pub(crate) corrupt_detected: u64,
    /// Zero-copy byte accounting for this endpoint.
    pub(crate) dp: DataPlaneStats,
    /// Timeline collector (disabled by default; a peer write-off is a
    /// timeline event).
    pub(crate) events: EventSink,
}

impl Transport {
    pub(crate) fn new(me: Rank, slots: usize, net: SimNet, cfg: TransportConfig) -> Self {
        let now = cfg.clock.now();
        let backoff = cfg.timeout;
        Transport {
            me,
            epoch: 1,
            net,
            cfg,
            peers: (0..slots)
                .map(|_| Peer {
                    tx: TxChannel {
                        next_seq: 0,
                        unacked: BTreeMap::new(),
                        attempts: 0,
                        backoff,
                        next_retry: now,
                    },
                    rx: RxChannel {
                        epoch: 0,
                        floor: 0,
                        above: BTreeSet::new(),
                    },
                    ack_pending: false,
                    unreachable: false,
                })
                .collect(),
            ack_dirty: Vec::new(),
            dup_discarded: 0,
            corrupt_detected: 0,
            dp: DataPlaneStats::default(),
            events: EventSink::disabled(),
        }
    }

    /// Set this endpoint's epoch (the rank's incarnation number).
    /// Must be called before any traffic when the incarnation is not
    /// the first; receivers use it to reset stale channel state.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch >= 1, "epochs are 1-based");
        self.epoch = epoch;
    }

    /// True when `dst` exhausted its retransmit budget and has not
    /// been heard from since.
    pub(crate) fn peer_unreachable(&self, dst: Rank) -> bool {
        self.peers[dst].unreachable
    }

    /// One line per peer with traffic: `dst tx(next/unacked/attempts)
    /// rx(epoch/floor/above)` — for the stall dump.
    pub(crate) fn channel_summary(&self) -> Vec<String> {
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.tx.next_seq != 0 || p.rx.epoch != 0)
            .map(|(dst, p)| {
                format!(
                    "{}: tx seq {} unacked {:?} attempts {}{} | rx e{} floor {} above {:?}{}",
                    dst,
                    p.tx.next_seq,
                    p.tx.unacked.keys().collect::<Vec<_>>(),
                    p.tx.attempts,
                    if p.unreachable { " UNREACHABLE" } else { "" },
                    p.rx.epoch,
                    p.rx.floor,
                    p.rx.above,
                    if p.ack_pending { " ack-pending" } else { "" },
                )
            })
            .collect()
    }

    /// Build and send an unsequenced control frame (ack/nack) in one
    /// pass, one allocation.
    fn transmit_control(&mut self, dst: Rank, frame: &Frame) {
        let body_len = frame.encoded_len();
        let mut buf = BytesMut::with_capacity(CRC_LEN + body_len);
        let v = buf.as_mut_vec();
        v.extend_from_slice(&[0u8; CRC_LEN]);
        frame.encode(v);
        let crc = crc32(&v[CRC_LEN..]).to_le_bytes();
        v[..CRC_LEN].copy_from_slice(&crc);
        let head = buf.freeze();
        self.dp.frames_built += 1;
        self.dp.bytes_framed += head.len() as u64;
        let _ = self.net.send(self.me, dst, head);
    }

    /// Send one wire message reliably to `dst`, building the frame
    /// (CRC + header + encoded payload) in a **single pass into a
    /// single allocation**. Returns the inner (encoded-message) region
    /// of that frame as a zero-copy window — the caller logs it; the
    /// unacked map holds the whole frame; the fabric carries another
    /// window. Copy budget: one encoding pass, zero `Bytes` copies.
    pub(crate) fn send_msg<M: Encode>(&mut self, dst: Rank, msg: &M) -> Bytes {
        with_copy_budget!(0, "Transport::send_msg", {
            let now = self.cfg.clock.now();
            let (seq, hint) = self.peers[dst].tx.begin_send(self.cfg.timeout, now);
            let inner_len = msg.encoded_len();
            let header_len = CRC_LEN + data_header_len(inner_len);
            let mut buf = BytesMut::with_capacity(header_len + inner_len);
            let v = buf.as_mut_vec();
            v.extend_from_slice(&[0u8; CRC_LEN]);
            write_data_header(v, self.epoch, seq, hint, inner_len);
            msg.encode(v);
            debug_assert_eq!(v.len(), header_len + inner_len, "encoded_len mismatch");
            let crc = crc32(&v[CRC_LEN..]).to_le_bytes();
            v[..CRC_LEN].copy_from_slice(&crc);
            let frame = buf.freeze();
            let inner = frame.slice(header_len..);
            self.dp.frames_built += 1;
            self.dp.bytes_framed += frame.len() as u64;
            self.dp.payload_copies += 1;
            self.dp.payload_bytes_copied += inner_len as u64;
            let fb = FrameBuf {
                head: frame,
                body: Bytes::new(),
            };
            transmit_frame(&self.net, self.me, dst, &fb);
            self.peers[dst].tx.unacked.insert(seq, fb);
            inner
        })
    }

    /// Send an **already-encoded** wire message (a window into the
    /// sender log) reliably to `dst` with zero payload copies: only a
    /// small header segment is built fresh; the logged bytes ride as
    /// the second segment of a two-segment envelope whose
    /// concatenation is byte-identical to a contiguous frame.
    pub(crate) fn send_encoded(&mut self, dst: Rank, inner: Bytes) {
        with_copy_budget!(0, "Transport::send_encoded", {
            let now = self.cfg.clock.now();
            let (seq, hint) = self.peers[dst].tx.begin_send(self.cfg.timeout, now);
            let header_len = CRC_LEN + data_header_len(inner.len());
            let mut buf = BytesMut::with_capacity(header_len);
            let v = buf.as_mut_vec();
            v.extend_from_slice(&[0u8; CRC_LEN]);
            write_data_header(v, self.epoch, seq, hint, inner.len());
            let crc = crc32_concat(&v[CRC_LEN..], &inner).to_le_bytes();
            v[..CRC_LEN].copy_from_slice(&crc);
            let head = buf.freeze();
            self.dp.frames_built += 1;
            self.dp.bytes_framed += head.len() as u64;
            self.dp.zero_copy_resends += 1;
            let fb = FrameBuf { head, body: inner };
            transmit_frame(&self.net, self.me, dst, &fb);
            self.peers[dst].tx.unacked.insert(seq, fb);
        })
    }

    /// Push `dst`'s retry deadline back by `burst`, the time this
    /// endpoint just spent transmitting a resend burst to it, so the
    /// burst's first frames are not overdue the moment it ends. A
    /// no-op when nothing is outstanding; a frame outstanding before
    /// the burst is retransmitted at most `burst` after its old
    /// deadline.
    pub(crate) fn defer_retry(&mut self, dst: Rank, burst: Duration) {
        let tx = &mut self.peers[dst].tx;
        if !tx.unacked.is_empty() {
            tx.next_retry += burst;
        }
    }

    /// Apply one inbound envelope from `src`, as [`decode_envelope`]
    /// read it, and return the fresh sequenced payload it carried, if
    /// any: a zero-copy window into the received frame. Acks, nacks,
    /// duplicates, stale-epoch data and rejected envelopes are consumed
    /// here. Data frames mark their channel ack-pending instead of
    /// transmitting an ack inline; callers finish the batch with
    /// [`Transport::flush_acks`].
    pub(crate) fn ingest(&mut self, src: Rank, frame: Result<Frame, Reject>) -> Option<Bytes> {
        let frame = match frame {
            Ok(frame) => frame,
            Err(why) => {
                self.corrupt_detected += 1;
                if why == Reject::Corrupt {
                    self.send_nack(src);
                }
                return None;
            }
        };
        // An intact frame proves the peer is reachable again.
        self.peers[src].unreachable = false;
        match frame {
            Frame::Data(d) => self.ingest_data(src, d),
            Frame::Ack(a) => {
                if a.epoch == self.epoch {
                    self.on_ack(src, a.floor);
                }
                None
            }
            Frame::Nack(a) => {
                if a.epoch == self.epoch {
                    self.retransmit_above(src, a.floor);
                }
                None
            }
        }
    }

    fn ingest_data(&mut self, src: Rank, d: DataFrame) -> Option<Bytes> {
        let rx = &mut self.peers[src].rx;
        if d.epoch < rx.epoch {
            // Leftover from a dead incarnation; its in-flight traffic
            // is rolled back state, not data.
            return None;
        }
        if d.epoch > rx.epoch {
            rx.epoch = d.epoch;
            rx.floor = 0;
            rx.above.clear();
        }
        // Everything below `hint` was acknowledged to the sender — by
        // us or by our previous incarnation — so it can never be
        // outstanding again.
        if d.hint > 0 && d.hint - 1 > rx.floor {
            rx.floor = d.hint - 1;
            let kept: BTreeSet<u64> = rx.above.split_off(&(rx.floor + 1));
            rx.above = kept;
        }
        if d.seq <= rx.floor || rx.above.contains(&d.seq) {
            self.dup_discarded += 1;
            // Re-ack (batched): the duplicate usually means our ack
            // was lost.
            self.note_ack_pending(src);
            return None;
        }
        rx.above.insert(d.seq);
        while rx.above.remove(&(rx.floor + 1)) {
            rx.floor += 1;
        }
        self.note_ack_pending(src);
        Some(d.inner)
    }

    /// Mark `src`'s channel ack-pending and push it on the dirty list
    /// (the flag dedups).
    fn note_ack_pending(&mut self, src: Rank) {
        if self.peers[src].ack_pending {
            // This frame's ack rides the already-pending cumulative one.
            self.dp.acks_coalesced += 1;
            return;
        }
        self.peers[src].ack_pending = true;
        self.ack_dirty.push(src);
    }

    /// Flush the coalesced cumulative acks: one ack frame per peer
    /// that received data since the last flush. Called by the kernel
    /// at the end of each ingest batch and from the tick.
    pub(crate) fn flush_acks(&mut self) {
        for i in 0..self.ack_dirty.len() {
            let src = self.ack_dirty[i];
            let peer = &mut self.peers[src];
            peer.ack_pending = false;
            let ack = AckFrame {
                epoch: peer.rx.epoch,
                floor: peer.rx.floor,
            };
            self.dp.ack_frames += 1;
            self.transmit_control(src, &Frame::Ack(ack));
        }
        // `clear` keeps the buffer: steady-state batches allocate nothing.
        self.ack_dirty.clear();
    }

    fn send_nack(&mut self, src: Rank) {
        let rx = &self.peers[src].rx;
        let nack = AckFrame {
            epoch: rx.epoch,
            floor: rx.floor,
        };
        self.transmit_control(src, &Frame::Nack(nack));
    }

    fn on_ack(&mut self, src: Rank, floor: u64) {
        let now = self.cfg.clock.now();
        let tx = &mut self.peers[src].tx;
        let pending = tx.unacked.split_off(&(floor + 1));
        let advanced = tx.unacked.len();
        tx.unacked = pending;
        if advanced > 0 {
            // Progress: reset the give-up countdown.
            tx.attempts = 0;
            tx.backoff = self.cfg.timeout;
            tx.next_retry = now + tx.backoff;
        }
    }

    /// NACK response: the peer saw a corrupt frame, so skip the
    /// timeout and resend everything it has not contiguously received.
    /// Stored frames go out verbatim — refcount bumps, no re-encoding.
    /// (Their `hint` may be stale, which is safe: hints only report
    /// what was already acknowledged, and acks never regress.)
    fn retransmit_above(&mut self, dst: Rank, floor: u64) {
        with_copy_budget!(0, "Transport::retransmit_above", {
            let mut sent = 0u64;
            for fb in self.peers[dst].tx.unacked.range(floor + 1..).map(|(_, fb)| fb) {
                transmit_frame(&self.net, self.me, dst, fb);
                self.net.record_retransmit();
                sent += 1;
            }
            self.dp.retransmit_frames += sent;
        })
    }

    /// Drive timeouts: retransmit overdue frames with exponential
    /// backoff, and write off peers whose budget is exhausted.
    ///
    /// Channels are filtered by deadline *before* any buffer is
    /// touched: a poll where nothing is due is one scan of the peer
    /// table, and an overdue channel resends refcount bumps of its
    /// stored frames rather than rebuilding (or deep-copying) them.
    pub(crate) fn tick(&mut self) {
        let now = self.cfg.clock.now();
        let me = self.me;
        for (dst, peer) in self.peers.iter_mut().enumerate() {
            let tx = &mut peer.tx;
            if tx.unacked.is_empty() || now < tx.next_retry {
                continue;
            }
            tx.attempts += 1;
            if tx.attempts > self.cfg.budget {
                self.events.emit(
                    me,
                    EventKind::PeerWrittenOff {
                        peer: dst,
                        attempts: tx.attempts,
                    },
                );
                // The peer has been silent across the whole budget:
                // stop retrying so callers can surface
                // `Fault::Unreachable` instead of hanging. Recovery
                // regenerates anything that still matters if the peer
                // ever comes back.
                peer.unreachable = true;
                tx.unacked.clear();
                continue;
            }
            tx.backoff = (tx.backoff * 2).min(self.cfg.cap);
            tx.next_retry = now + tx.backoff;
            with_copy_budget!(0, "Transport::tick retransmit", {
                for fb in tx.unacked.values() {
                    transmit_frame(&self.net, me, dst, fb);
                    self.net.record_retransmit();
                }
                self.dp.retransmit_frames += tx.unacked.len() as u64;
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_simnet::{ChaosConfig, NetConfig, SimClock};
    use lclog_wire::encode_to_vec;

    fn cfg() -> TransportConfig {
        TransportConfig {
            timeout: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            budget: 5,
            clock: Clock::Real,
        }
    }

    fn pair(
        net_cfg: NetConfig,
    ) -> (
        SimNet,
        Transport,
        Transport,
        lclog_simnet::Endpoint,
        lclog_simnet::Endpoint,
    ) {
        let net = SimNet::new(2, net_cfg);
        let ep0 = net.attach(0);
        let ep1 = net.attach(1);
        let t0 = Transport::new(0, 2, net.clone(), cfg());
        let t1 = Transport::new(1, 2, net.clone(), cfg());
        (net, t0, t1, ep0, ep1)
    }

    /// Drain `ep` into `t`, returning what each envelope amounted to.
    /// Mirrors the kernel's batch shape: ingest everything, then flush
    /// the coalesced acks once.
    fn drain_all(t: &mut Transport, ep: &lclog_simnet::Endpoint) -> Vec<Option<Bytes>> {
        let mut out = Vec::new();
        while let Ok(env) = ep.try_recv() {
            out.push(t.ingest(env.src, decode_envelope(&env)));
        }
        t.flush_acks();
        out
    }

    /// [`drain_all`], keeping only the delivered payloads.
    fn drain(t: &mut Transport, ep: &lclog_simnet::Endpoint) -> Vec<Bytes> {
        drain_all(t, ep).into_iter().flatten().collect()
    }

    /// Opaque payloads go through `send_msg` as raw `Bytes`; the
    /// receiver sees the same bytes re-encoded, so tests compare
    /// against the encoded form via this helper.
    fn send_blob(t: &mut Transport, dst: Rank, blob: &[u8]) {
        t.send_encoded(dst, Bytes::copy_from_slice(blob));
    }

    fn unacked_len(t: &Transport, dst: Rank) -> usize {
        t.peers[dst].tx.unacked.len()
    }

    #[test]
    fn roundtrip_and_ack_clears_window() {
        let (_net, mut t0, mut t1, ep0, ep1) = pair(NetConfig::direct());
        send_blob(&mut t0, 1, b"ping");
        let got = drain(&mut t1, &ep1);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0][..], b"ping");
        // t0 ingests the ack; window empties.
        assert!(drain(&mut t0, &ep0).is_empty());
        assert_eq!(unacked_len(&t0, 1), 0);
    }

    #[test]
    fn acks_coalesce_across_a_batch() {
        // Three data frames drained in one batch produce one
        // cumulative ack frame, and it still clears the whole window.
        let (_net, mut t0, mut t1, ep0, ep1) = pair(NetConfig::direct());
        send_blob(&mut t0, 1, b"a");
        send_blob(&mut t0, 1, b"b");
        send_blob(&mut t0, 1, b"c");
        assert_eq!(drain(&mut t1, &ep1).len(), 3);
        // Exactly one ack envelope on the return path.
        let acks = drain_all(&mut t0, &ep0).len();
        assert_eq!(acks, 1, "batched ingest coalesces to one cumulative ack");
        assert_eq!(unacked_len(&t0, 1), 0, "the single ack covered all three");
        // The receiver's accounting agrees: two of the three data
        // frames rode the pending cumulative ack, one frame went out.
        let dp = t1.dp;
        assert_eq!(dp.acks_coalesced, 2);
        assert_eq!(dp.ack_frames, 1);
    }

    #[test]
    fn single_pass_frame_shares_one_allocation() {
        let (_net, mut t0, mut t1, _ep0, ep1) = pair(NetConfig::direct());
        let msg = Bytes::from(vec![0xAB; 64]);
        let inner = t0.send_msg(1, &msg);
        // The returned window and the stored unacked frame are views
        // of the same allocation (frame built once).
        let stored = &t0.peers[1].tx.unacked[&1];
        assert!(inner.shares_allocation(&stored.head));
        assert!(stored.body.is_empty());
        assert_eq!(t0.dp.frames_built, 1);
        assert_eq!(t0.dp.payload_copies, 1);
        // The receiver decodes the same logical bytes.
        let got = drain(&mut t1, &ep1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], Bytes::from(encode_to_vec(&msg)));
    }

    #[test]
    fn segmented_and_contiguous_frames_are_wire_identical() {
        // A send_encoded frame, joined into one buffer, must decode
        // exactly like a contiguous frame — the segmented path is a
        // transport optimization, not a second wire format.
        let (net, mut t0, _t1, _ep0, ep1) = pair(NetConfig::direct());
        let payload = b"identical on the wire".to_vec();
        send_blob(&mut t0, 1, &payload);
        let seg = ep1.try_recv().unwrap();
        assert!(!seg.body.is_empty(), "send_encoded frames are segmented");
        // The delivered payload is a zero-copy handle on the sender's
        // buffer (the fabric moves handles, not bytes).
        let mut t1b = Transport::new(1, 2, net.clone(), cfg());
        let joined = seg.contiguous();
        let Some(got) = t1b.ingest(0, decode_envelope(&seg)) else {
            panic!("segmented data frame delivers");
        };
        assert_eq!(&got[..], &payload[..]);
        // And the contiguous join decodes identically through a fresh
        // receiver's single-buffer path.
        let mut t1c = Transport::new(1, 2, net.clone(), cfg());
        let env = Envelope {
            src: 0,
            dst: 1,
            seq: 1,
            payload: joined,
            body: Bytes::new(),
        };
        assert_eq!(
            t1c.ingest(0, decode_envelope(&env)),
            Some(got),
            "joined frame decodes contiguously"
        );
    }

    #[test]
    fn retransmit_resends_stored_frame_without_rebuilding() {
        let chaos = ChaosConfig::seeded(11).with_drop(1.0);
        let (_net, mut t0, _t1, _ep0, _ep1) = pair(NetConfig::direct().with_chaos(chaos));
        send_blob(&mut t0, 1, b"lost");
        let built = t0.dp.frames_built;
        std::thread::sleep(Duration::from_millis(2));
        t0.tick();
        assert!(t0.dp.retransmit_frames >= 1);
        assert_eq!(
            t0.dp.frames_built,
            built,
            "retransmit allocates nothing"
        );
    }

    #[test]
    fn duplicate_frames_discarded_below_app_layer() {
        let chaos = ChaosConfig::seeded(7).with_duplicate(1.0);
        let (_net, mut t0, mut t1, _ep0, ep1) = pair(NetConfig::direct().with_chaos(chaos));
        send_blob(&mut t0, 1, b"once");
        let got = drain(&mut t1, &ep1);
        assert_eq!(got.len(), 1, "exactly one delivery despite duplication");
        assert_eq!(t1.dup_discarded, 1);
    }

    #[test]
    fn corruption_detected_and_recovered_via_nack() {
        // Corrupt every frame: nothing corrupt may reach the app
        // layer, and every mangled frame must be detected.
        let chaos = ChaosConfig::seeded(3).with_corrupt(1.0);
        let (_net, mut t0, mut t1, _ep0, ep1) = pair(NetConfig::direct().with_chaos(chaos));
        send_blob(&mut t0, 1, b"garbled");
        let got = drain(&mut t1, &ep1);
        assert!(got.is_empty());
        assert!(t1.corrupt_detected >= 1);
    }

    #[test]
    fn crc_valid_garbage_is_counted_and_dropped_not_panicked() {
        // Any fabric peer can put a valid CRC in front of bytes that
        // are not a frame; that must never abort the receiver.
        let (_net, _t0, mut t1, ep0, _ep1) = pair(NetConfig::direct());
        let forged = |head: &[u8], body: &'static [u8]| Envelope {
            src: 0,
            dst: 1,
            seq: 1,
            payload: Bytes::from([&crc32_concat(head, body).to_le_bytes()[..], head].concat()),
            body: Bytes::from_static(body),
        };
        // Contiguous, then two-segment.
        for env in [forged(&[0xFF], b""), forged(&[0xFF], b"\x00")] {
            assert_eq!(decode_envelope(&env), Err(Reject::Undecodable));
            assert_eq!(t1.ingest(0, decode_envelope(&env)), None);
        }
        assert_eq!(t1.corrupt_detected, 2);
        // A retransmission would carry the same bytes: no NACK.
        assert!(ep0.try_recv().is_err());
    }

    /// Tags 3 and 4 of `Frame` once carried heartbeats and fencing
    /// notices. A CRC-valid frame that still carries one, in either
    /// of its old shapes, is undecodable: counted and dropped, not
    /// NACK'ed, never a panic.
    #[test]
    fn frames_on_retired_tags_are_counted_and_dropped() {
        let (_net, _t0, mut t1, ep0, _ep1) = pair(NetConfig::direct());
        let incarnation = 1u64.to_le_bytes();
        let heartbeat = [&[3u8][..], &incarnation].concat();
        let fenced = [&[4u8][..], &incarnation, &2u64.to_le_bytes()].concat();
        for frame in [heartbeat, fenced] {
            let env = Envelope {
                src: 0,
                dst: 1,
                seq: 1,
                payload: Bytes::from([&crc32(&frame).to_le_bytes()[..], &frame].concat()),
                body: Bytes::new(),
            };
            assert_eq!(decode_envelope(&env), Err(Reject::Undecodable));
            assert_eq!(t1.ingest(0, decode_envelope(&env)), None);
        }
        assert_eq!(t1.corrupt_detected, 2);
        assert!(ep0.try_recv().is_err(), "no NACK for a forged frame");
        assert_eq!(t1.dup_discarded, 0);
    }

    #[test]
    fn segmented_frame_corruption_detected_in_either_segment() {
        // With 100% corruption, chaos flips a bit somewhere in the
        // two-segment frame; the concat CRC must catch it wherever it
        // lands. Large body makes body-segment hits overwhelmingly
        // likely; several sends cover both segments across seeds.
        for seed in 0..8 {
            let chaos = ChaosConfig::seeded(seed).with_corrupt(1.0);
            let (_net, mut t0, mut t1, _ep0, ep1) = pair(NetConfig::direct().with_chaos(chaos));
            send_blob(&mut t0, 1, &vec![0x5A; 256]);
            assert!(
                drain(&mut t1, &ep1).is_empty(),
                "corrupt segmented frame must not deliver (seed {seed})"
            );
            assert!(t1.corrupt_detected >= 1);
        }
    }

    #[test]
    fn timeout_retransmits_until_acked() {
        let chaos = ChaosConfig::seeded(11).with_drop(1.0);
        let (net, mut t0, mut t1, ep0, ep1) = pair(NetConfig::direct().with_chaos(chaos));
        send_blob(&mut t0, 1, b"lost");
        assert!(drain(&mut t1, &ep1).is_empty(), "chaos drops everything");
        std::thread::sleep(Duration::from_millis(2));
        t0.tick();
        assert!(net.stats().retransmits() >= 1);
        // Retransmissions are dropped too; after the budget the peer
        // is written off instead of hanging forever.
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(5));
            t0.tick();
        }
        assert!(t0.peer_unreachable(1));
        drop((net, t1, ep0, ep1));
    }

    #[test]
    fn contact_from_peer_clears_unreachable_verdict() {
        let (_net, mut t0, mut t1, ep0, _ep1) = pair(NetConfig::direct());
        t0.peers[1].unreachable = true;
        send_blob(&mut t1, 0, b"hello");
        let got = drain(&mut t0, &ep0);
        assert_eq!(got.len(), 1);
        assert!(!t0.peer_unreachable(1));
    }

    /// Rank 0's endpoint on the virtual `clock`. Rank 1 is attached but
    /// never drained, so everything sent stays unacked.
    fn sim_sender(clock: &SimClock) -> (Transport, lclog_simnet::Endpoint) {
        let net = SimNet::new(2, NetConfig::direct());
        let ep1 = net.attach(1);
        let cfg = TransportConfig {
            clock: Clock::Sim(clock.clone()),
            ..cfg()
        };
        (Transport::new(0, 2, net, cfg), ep1)
    }

    #[test]
    fn a_deferred_burst_still_retries_the_frame_before_it() {
        // Timeout 1 ms. A frame goes out at 0 (due at 1 ms); a resend
        // burst starts at 0.5 ms and takes 3 ms. Deferring by the burst
        // moves the deadline to 4 ms: one burst-duration after the old
        // one, and not a moment later.
        let us = Duration::from_micros;
        let clock = SimClock::new();
        let (mut t0, _ep1) = sim_sender(&clock);
        send_blob(&mut t0, 1, b"before");
        clock.advance(us(500));
        send_blob(&mut t0, 1, b"burst first");
        clock.advance(us(3000));
        send_blob(&mut t0, 1, b"burst last");
        t0.defer_retry(1, us(3000));
        t0.tick();
        clock.advance(us(499));
        t0.tick();
        assert_eq!(t0.dp.retransmit_frames, 0, "the burst's time is not the peer's");
        clock.advance(us(1));
        t0.tick();
        assert_eq!(t0.dp.retransmit_frames, 3, "due at old deadline + burst");
    }

    #[test]
    fn a_zero_deferral_leaves_the_retry_schedule_alone() {
        // Twin senders on one clock; one defers by zero after every
        // call. Backoff, retransmits and the write-off stay in step.
        let clock = SimClock::new();
        let (mut plain, _ep_a) = sim_sender(&clock);
        let (mut deferred, _ep_b) = sim_sender(&clock);
        for t in [&mut plain, &mut deferred] {
            send_blob(t, 1, b"lost");
            send_blob(t, 1, b"also lost");
        }
        deferred.defer_retry(1, Duration::ZERO);
        for _ in 0..120 {
            clock.advance(Duration::from_micros(250));
            plain.tick();
            deferred.tick();
            deferred.defer_retry(1, Duration::ZERO);
            assert_eq!(plain.peers[1].tx.next_retry, deferred.peers[1].tx.next_retry);
            assert_eq!(plain.dp.retransmit_frames, deferred.dp.retransmit_frames);
            assert_eq!(plain.peer_unreachable(1), deferred.peer_unreachable(1));
        }
        assert_eq!(plain.dp.retransmit_frames, 10, "five rounds of two frames");
        assert!(plain.peer_unreachable(1));
    }

    #[test]
    fn respawned_receiver_skips_acknowledged_prefix() {
        let (net, mut t0, _t1, _ep0, ep1) = pair(NetConfig::direct());
        // Three frames delivered and acked to the original receiver.
        let mut t1 = Transport::new(1, 2, net.clone(), cfg());
        send_blob(&mut t0, 1, b"a");
        send_blob(&mut t0, 1, b"b");
        let _ = drain(&mut t1, &ep1);
        // t0 hasn't ingested the acks: simulate receiver death first.
        net.kill(1);
        let ep1b = net.respawn(1);
        let mut t1b = Transport::new(1, 2, net.clone(), cfg());
        // New data: seq 3 with hint 1 (nothing acked at t0 yet) — the
        // fresh receiver must accept it even though seqs 1–2 predate
        // it, then the retransmitted 1–2 are also accepted and
        // re-delivered (the app layer discards them as repetitive).
        send_blob(&mut t0, 1, b"c");
        std::thread::sleep(Duration::from_millis(2));
        t0.tick();
        let got = drain(&mut t1b, &ep1b);
        assert!(!got.is_empty());
    }

    #[test]
    fn respawned_sender_epoch_resets_receiver_state() {
        let (net, mut t0, mut t1, _ep0, ep1) = pair(NetConfig::direct());
        send_blob(&mut t0, 1, b"old-1");
        send_blob(&mut t0, 1, b"old-2");
        assert_eq!(drain(&mut t1, &ep1).len(), 2);
        // Sender dies and respawns: a fresh transport with epoch 2.
        let mut t0b = Transport::new(0, 2, net.clone(), cfg());
        t0b.set_epoch(2);
        send_blob(&mut t0b, 1, b"new-1");
        let got = drain(&mut t1, &ep1);
        assert_eq!(
            got.len(),
            1,
            "seq 1 of epoch 2 must not look like a duplicate"
        );
        assert_eq!(&got[0][..], b"new-1");
        // And stale frames from epoch 1 are now ignored.
        send_blob(&mut t0, 1, b"stale");
        assert!(drain(&mut t1, &ep1).is_empty());
    }

    #[test]
    fn app_frame_classifier_peeks_inner_discriminant() {
        use crate::message::{AppWire, CkptAdvanceWire, WireMsg};
        let (_net, mut t0, _t1, _ep0, ep1) = pair(NetConfig::direct());
        // A >127-byte piggyback forces a multi-byte inner length
        // varint, exercising the classifier's varint skip.
        let app = WireMsg::App(AppWire {
            tag: 7,
            send_index: 1,
            piggyback: Bytes::from(vec![0xAA; 200]),
            needs_ack: false,
            data: Bytes::from_static(b"x"),
        });
        let adv = WireMsg::CkptAdvance(CkptAdvanceWire {
            delivered_from_you: 3,
            total_delivered: 9,
        });
        for msg in [&app, &adv] {
            send_blob(&mut t0, 1, &encode_to_vec(msg));
        }
        t0.transmit_control(1, &Frame::Ack(AckFrame { epoch: 1, floor: 0 }));
        // Classify whole frames, the way the explorer sees them via
        // `SimNet::held_head` — `send_encoded` splits header and inner
        // message across the envelope's two segments.
        let mut frames = Vec::new();
        while let Ok(env) = ep1.try_recv() {
            frames.push([&env.payload[..], &env.body[..]].concat());
        }
        assert_eq!(frames.len(), 3);
        // App send: data frame and app frame.
        assert!(payload_is_data_frame(&frames[0]));
        assert!(payload_is_app_frame(&frames[0]));
        // Checkpoint advance: rides the sequenced stream but is
        // protocol traffic, not an application send.
        assert!(payload_is_data_frame(&frames[1]));
        assert!(!payload_is_app_frame(&frames[1]));
        // Ack: pure transport control, neither.
        assert!(!payload_is_data_frame(&frames[2]));
        assert!(!payload_is_app_frame(&frames[2]));
    }

    // Incarnation monotonicity at a receiver. Incarnation 1 of rank 0
    // talks for a while; then, for any interleaving of its leftover
    // frames with incarnation 2's, once the receiver has accepted a
    // frame of the successor it never accepts the predecessor again:
    // two incarnations' sends never mix after the switch.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn prop_a_newer_incarnation_is_never_followed_by_an_older_one(
            pre in 0usize..10,
            post_ops in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..16),
        ) {
            use proptest::prelude::prop_assert;
            let (net, mut t0, mut t1, _ep0, ep1) = pair(NetConfig::direct());
            let mut t0b = Transport::new(0, 2, net.clone(), cfg());
            t0b.set_epoch(2);
            // The incarnation that sent each accepted frame.
            let mut accepted: Vec<u8> = Vec::new();
            // Phase 1: only incarnation 1 exists.
            for _ in 0..pre {
                send_blob(&mut t0, 1, b"\x01payload");
            }
            accepted.extend(drain(&mut t1, &ep1).iter().map(|inner| inner[0]));
            // Phase 2: the successor's frames race the predecessor's
            // leftovers to the receiver.
            for &second_inc in &post_ops {
                if second_inc {
                    send_blob(&mut t0b, 1, b"\x02payload");
                } else {
                    send_blob(&mut t0, 1, b"\x01payload");
                }
                accepted.extend(drain(&mut t1, &ep1).iter().map(|inner| inner[0]));
            }
            for w in accepted.windows(2) {
                prop_assert!(w[0] <= w[1], "incarnation regressed: {accepted:?}");
            }
            // Every successor frame was accepted: the switch loses none.
            let sent_by_2 = post_ops.iter().filter(|&&b| b).count();
            prop_assert!(accepted.iter().filter(|&&inc| inc == 2).count() == sent_by_2,
                "successor frames lost: {accepted:?}");
        }
    }
}
