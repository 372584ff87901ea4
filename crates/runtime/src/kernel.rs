//! The rollback-recovery kernel: the paper's Algorithm 1 for one rank
//! incarnation, behind one lock.
//!
//! The round driver feeds it raw envelopes ([`Kernel::ingest_batch`])
//! and the rank's application pulls deliverable messages
//! ([`Kernel::try_deliver`]) through a handle it may own, so every
//! mutable field lives in one `state: Mutex<State>` and every `&self`
//! method is a critical section on it:
//!
//! | part of `State`                   | owns                                                      | Algorithm 1    |
//! |-----------------------------------|-----------------------------------------------------------|----------------|
//! | `rec` ([`crate::recovery`])       | state machine, sender log, suppression bound, checkpoints | 8–9, 12, 32–53 |
//! | `trk` ([`crate::tracking`])       | `LoggingProtocol` box, `last_send_index`, stats           | 10–11, 15–31   |
//! | `del` ([`crate::delivery`])       | receiving queue, `last_deliver_index`                     | 13–17          |
//! | `transport` ([`crate::transport`]) | CRC framing, sequencing, dedup, ack/retransmit, fencing  | —              |
//! | `acked`, `rendezvous`, `detector`, `resync_pacer` | rendezvous acks and resend timer, φ-accrual detector, `RESYNC_REQ` pacing | — |
//!
//! Every public call is one critical section, and whatever it sends
//! goes out inside it — the fabric send never blocks — so send order,
//! wire order and log order agree by construction. Two things are kept
//! off the lock:
//!
//! * the CRC check and frame decode of an inbound envelope, pure
//!   functions of the envelope, run before it
//!   ([`Kernel::ingest_batch`] re-locks per envelope);
//! * a log resend burst answering `ROLLBACK` or `RESPONSE` is as long
//!   as the sender log, so it goes out [`RESEND_CHUNK`] frames at a
//!   time with the lock dropped between chunks.
//!
//! A checkpoint sends `CHECKPOINT_ADVANCE` only to the senders whose
//! messages it newly covers, so on a ring it is one frame, not n − 1.
//! Sections proportional to n are still accepted: that fan-out under
//! TAG-f and TEL (their peers prune on any rank's checkpoint), a
//! `ROLLBACK` (re)broadcast, heartbeats, the tick's scan of the peer
//! table.
//!
//! `fenced` and `desynced` are atomics beside the lock: engines poll
//! them between kernel calls. Cumulative transport acks are batched:
//! the transport marks channels dirty and [`Kernel::ingest_batch`]
//! flushes one ack per peer per batch instead of one frame per frame.

use crate::backoff::RetryBackoff;
use crate::config::RunConfig;
use crate::delivery::{Admit, Delivery};
use crate::detector::Detector;
use crate::events::{EventKind, EventSink};
use crate::fault::Fault;
use crate::log::{LogEntry, SenderLog};
use crate::message::{
    AppMsg, AppWire, CkptAdvanceWire, RecvSpec, ResponseWire, RollbackWire, SuspectWire, WireMsg,
};
use crate::recovery::{RecoveryLayer, RecoveryPhase, Transition};
use crate::recvq::Pending;
use crate::replicator::Replicator;
use crate::tracking::Tracking;
use crate::transport::{
    decode_envelope, DataPlaneStats, Ingest, Transport, TransportConfig, RETRANSMIT_CAP,
    RETRANSMIT_TIMEOUT,
};
use bytes::Bytes;
use lclog_core::{make_protocol, CounterVector, DeliveryVerdict, MembershipView, Rank, TrackingStats};
use lclog_simnet::{Envelope, SimNet};
use lclog_stable::{CheckpointStore, StableStorage};
use lclog_wire::{encode_to_vec, impl_wire_struct};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything a checkpoint durably captures (Algorithm 1 line 33:
/// image, log, and the counter vectors).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    /// Application step the image was taken after.
    pub step: u64,
    /// Serialized application state.
    pub app_state: Vec<u8>,
    /// Serialized protocol state (`depend_interval` for TDI, graph for
    /// TAG, determinant window for TEL).
    pub protocol: Vec<u8>,
    /// `last_send_index` vector.
    pub last_send: CounterVector,
    /// `last_deliver_index` vector.
    pub last_deliver: CounterVector,
    /// The sender-based message log.
    pub log: Vec<LogEntry>,
}

impl_wire_struct!(CheckpointImage {
    step,
    app_state,
    protocol,
    last_send,
    last_deliver,
    log
});

/// One-lock-round-trip view of everything the harnesses report about
/// a kernel: tracking statistics, log pressure, rendezvous acks,
/// transport counters, and the recovery phase.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// Tracking statistics (piggyback cost, send/deliver counts…).
    pub stats: TrackingStats,
    /// Host time the protocol's `on_send` / `on_deliver` took (Fig. 7).
    pub tracking_time: Duration,
    /// Retained sender-log payload + piggyback bytes.
    pub log_bytes: usize,
    /// Retained sender-log entries.
    pub log_entries: usize,
    /// Highest acknowledged rendezvous send per destination.
    pub acked: CounterVector,
    /// Where the recovery state machine stands.
    pub recovery_phase: RecoveryPhase,
    /// Messages queued but not yet delivered.
    pub queued: usize,
    /// Duplicate frames the transport discarded.
    pub dup_discarded: u64,
    /// Corrupt frames the transport detected.
    pub corrupt_detected: u64,
    /// Frames rejected (and answered with `FENCED`) because they came
    /// from a below-floor incarnation.
    pub fenced_rejected: u64,
    /// Data-plane byte accounting: frames built, bytes framed, payload
    /// copies, zero-copy resends.
    pub data_plane: DataPlaneStats,
}

/// Per-rank rollback-recovery kernel: one state lock behind `&self`
/// methods (see the module docs for who holds it across what).
pub struct Kernel {
    me: Rank,
    n: usize,
    cfg: RunConfig,
    /// TEL event-logger service rank (slot `n`), when the protocol
    /// uses one. Constant per protocol kind.
    logger: Option<Rank>,
    /// A membership view (or a peer's `Fenced` notice) declared this
    /// incarnation dead; stored in the critical section in which the
    /// transport reached that verdict. Engines poll it in `check_live`
    /// and surface [`crate::Fault::Fenced`].
    fenced: AtomicBool,
    /// Set when the tracking merge rejected a gate-approved message:
    /// the protocol state can no longer be trusted. Engines poll it in
    /// `check_live` and surface [`crate::Fault::Desync`] so the rank
    /// rebuilds through the rollback path instead of aborting the
    /// process.
    desynced: AtomicBool,
    state: Mutex<State>,
    /// Structured timeline collector (disabled by default).
    events: EventSink,
}

/// Everything mutable about one rank incarnation.
struct State {
    rec: RecoveryLayer,
    trk: Tracking,
    del: Delivery,
    /// CRC framing, sequencing, dedup, ack/retransmit, fencing — every
    /// wire message crosses it. Sends to dead ranks are retransmitted
    /// until the peer's next incarnation answers (or the budget writes
    /// it off); recovery resends cover anything lost with the old one.
    transport: Transport,
    /// Highest acknowledged rendezvous send per destination.
    acked: CounterVector,
    /// The rendezvous send the application waits on, `(dst,
    /// send_index, last transmission)`: `tick` resends it every
    /// [`RETRY_INTERVAL`] until it is acknowledged.
    rendezvous: Option<(Rank, u64, Instant)>,
    /// φ-accrual failure detector (detected-failures mode only).
    detector: Option<Detector>,
    /// Full-jitter pacing of outgoing `RESYNC_REQ` frames (TDI-S): the
    /// protocol re-queues a request on *every* gate check while a
    /// channel is parked behind an undecodable frame, so without
    /// pacing each kernel tick re-sends the request and a slow or lost
    /// `RESYNC_SNAP` turns into a request storm.
    resync_pacer: ResyncPacer,
}

impl State {
    /// PWD protocols must not deliver against an incomplete replay
    /// script; they hold everything until every survivor (and the
    /// event logger) has answered our ROLLBACK. TDI has no such wait —
    /// each message carries its own complete delivery constraint.
    fn holds_delivery(&self) -> bool {
        self.rec.machine.is_recovering() && self.trk.protocol.needs_full_recovery_info()
    }

    /// Retransmit a logged message whose rendezvous ack has not
    /// arrived (receiver may have failed and respawned meanwhile).
    /// The logged wire form is resent verbatim ([`LogEntry::to_wire`],
    /// zero payload copies); it carries `needs_ack`, because only
    /// rendezvous sends are ever waited on.
    fn resend_unacked(&mut self, dst: Rank, send_index: u64) {
        let State { rec, transport, acked, .. } = self;
        match rec.log.entries_after(dst, send_index - 1).next() {
            Some(e) if e.send_index == send_index => transport.send_encoded(dst, e.to_wire()),
            // The entry was released by a CHECKPOINT_ADVANCE: the
            // receiver durably consumed it — an implicit ack.
            _ => raise(acked, dst, send_index),
        };
    }

    /// The body of [`Kernel::app_send`], under the state lock (inlined
    /// into both callers, so the plain send path compiles as one body).
    #[inline(always)]
    fn app_send(&mut self, dst: Rank, tag: u32, data: Bytes, needs_ack: bool) -> (u64, bool) {
        let (send_index, artifacts) = self.trk.on_send(dst);
        let piggyback = Bytes::from(artifacts.piggyback);
        let transmit = send_index > self.rec.rollback_last_send_index.get(dst);
        let entry = if transmit {
            let msg = WireMsg::App(AppWire {
                tag,
                send_index,
                piggyback,
                needs_ack,
                data,
            });
            let inner = self.transport.send_msg(dst, &msg);
            let WireMsg::App(w) = msg else { unreachable!() };
            LogEntry::from_parts(dst as u32, w, inner)
        } else {
            LogEntry::new(dst as u32, send_index, tag, piggyback, needs_ack, data)
        };
        self.rec.log_insert(entry);
        (send_index, transmit)
    }
}

/// Resend cadence for unacknowledged rendezvous sends and for
/// `ROLLBACK` rebroadcasts to peers that have not answered.
pub const RETRY_INTERVAL: Duration = Duration::from_millis(25);

/// Frames of a log resend burst sent per acquisition of the state
/// lock: long enough to amortise the lock, short enough that no other
/// caller waits for more than microseconds, not for the log.
const RESEND_CHUNK: usize = 256;

/// Monotone raise: never lowers the stored value.
fn raise(v: &mut CounterVector, k: Rank, to: u64) {
    if to > v.get(k) {
        v.set(k, to);
    }
}

impl Kernel {
    /// Fresh kernel for `me` of `n` (initial incarnation state).
    pub fn new(me: Rank, n: usize, cfg: RunConfig, net: SimNet, ckpt_store: CheckpointStore) -> Self {
        let protocol = make_protocol(cfg.protocol, me, n);
        let logger = protocol.wants_event_logger().then(|| crate::logger_rank(n));
        let mut transport =
            Transport::new(me, net.n(), net, TransportConfig::standard(cfg.clock.clone()));
        let now = cfg.clock.now();
        let detector = cfg.detector.map(|dcfg| Detector::new(me, n, dcfg, now));
        // With a detector, retransmit-budget exhaustion is a suspicion
        // input, not a unilateral `unreachable` verdict.
        transport.suspicion_mode = detector.is_some();
        let state = State {
            rec: RecoveryLayer::new(n, ckpt_store, now),
            trk: Tracking::new(protocol, n),
            del: Delivery::new(n),
            transport,
            acked: CounterVector::zeroed(n),
            rendezvous: None,
            detector,
            resync_pacer: ResyncPacer::new(me, n),
        };
        Kernel {
            me,
            n,
            cfg,
            logger,
            fenced: AtomicBool::new(false),
            desynced: AtomicBool::new(false),
            state: Mutex::new(state),
            events: EventSink::disabled(),
        }
    }

    /// Tell the transport which incarnation this kernel is:
    /// receivers use the epoch to distinguish a respawned sender's
    /// fresh sequence space from stale duplicates. Must be called
    /// before any traffic when the incarnation is not the first.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.state.get_mut().transport.set_epoch(incarnation);
    }

    /// The blocking engine's rendezvous state for `dst`:
    /// `(highest acked send_index, peer written off)`.
    pub fn rendezvous_progress(&self, dst: Rank) -> (u64, bool) {
        let st = self.state.lock();
        (st.acked.get(dst), st.transport.peer_unreachable(dst))
    }

    /// Attach a timeline collector (see [`crate::events`]). Call
    /// before the kernel is shared with the engine.
    pub fn set_event_sink(&mut self, sink: EventSink) {
        self.state.get_mut().transport.events = sink.clone();
        self.events = sink;
    }

    /// This rank.
    pub fn me(&self) -> Rank {
        self.me
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Runtime configuration.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// Consistent snapshot for reporting, one lock round-trip.
    pub fn snapshot(&self) -> KernelSnapshot {
        let st = self.state.lock();
        let mut stats = st.trk.snapshot_stats();
        stats.log_bytes_peak = st.rec.log_bytes_peak;
        KernelSnapshot {
            stats,
            tracking_time: st.trk.time,
            log_bytes: st.rec.log.bytes(),
            log_entries: st.rec.log.len(),
            acked: st.acked.clone(),
            recovery_phase: st.rec.machine.phase().clone(),
            queued: st.del.queue.len(),
            dup_discarded: st.transport.dup_discarded,
            corrupt_detected: st.transport.corrupt_detected,
            fenced_rejected: st.transport.fenced_rejected,
            data_plane: st.transport.dp.clone(),
        }
    }

    /// Where the recovery state machine stands.
    pub fn recovery_phase(&self) -> RecoveryPhase {
        self.state.lock().rec.machine.phase().clone()
    }

    /// True while this incarnation is still collecting recovery
    /// information.
    pub fn is_recovering(&self) -> bool {
        self.state.lock().rec.machine.is_recovering()
    }

    /// True once a membership view (or a peer's `FENCED` notice)
    /// declared this very incarnation dead (lock-free). Engines must
    /// stop the application with [`crate::Fault::Fenced`]: volatile
    /// state is forfeit, the successor rejoins via `ROLLBACK`.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// True once the tracking merge rejected a gate-approved message
    /// (lock-free). Engines must stop the application with
    /// [`crate::Fault::Desync`]: the protocol state is untrusted, the
    /// successor rebuilds via `ROLLBACK`.
    pub fn is_desynced(&self) -> bool {
        self.desynced.load(Ordering::Acquire)
    }

    /// The protocol's dependency-interval vector (`depend_interval[n]`
    /// for TDI), when the protocol tracks one. This is the invariant
    /// half of the schedule explorer's order-insensitivity check
    /// (§III.E): every legal delivery schedule must converge to the
    /// same vector.
    pub fn interval_vector(&self) -> Option<Vec<u64>> {
        self.state.lock().trk.protocol.interval_vector()
    }

    /// The first send to `dst` with a `send_index` in
    /// `(after, last_send_index[dst]]` that the sender log no longer
    /// holds, if any. A rollback of `dst` to a checkpoint that
    /// delivered `after` messages from us needs every one of them:
    /// the schedule explorer's log-GC invariant.
    pub fn log_gap(&self, dst: Rank, after: u64) -> Option<u64> {
        let st = self.state.lock();
        let mut want = after + 1;
        for e in st.rec.log.entries_after(dst, after) {
            if e.send_index != want {
                break;
            }
            want += 1;
        }
        (want <= st.trk.last_send_index.get(dst)).then_some(want)
    }

    /// Protocol send gate (pessimistic logging holds sends while
    /// determinants are unstable).
    pub fn send_ready(&self) -> bool {
        self.state.lock().trk.protocol.send_ready()
    }

    fn emit_transition(&self, tr: Option<Transition>) {
        if let Some((from, to)) = tr {
            self.events
                .emit(self.me, EventKind::RecoveryTransition { from, to });
        }
    }

    /// Book the `→ Synced` edge: account the sync time and emit the
    /// timeline events.
    fn finish_sync(&self, trk: &mut Tracking, done: (u64, Transition)) {
        let (sync_ns, tr) = done;
        trk.stats.recovery_sync_ns += sync_ns;
        self.emit_transition(Some(tr));
        self.events.emit(
            self.me,
            EventKind::RecoverySynced {
                sync_us: sync_ns / 1_000,
            },
        );
    }

    // ---------------------------------------------------------------
    // Sending (Algorithm 1 lines 8–12)
    // ---------------------------------------------------------------

    /// Application-level send. Logs the message, piggybacks protocol
    /// state, and transmits unless suppressed as already-delivered
    /// (roll-forward duplicate suppression, line 10).
    ///
    /// Returns `(send_index, transmitted)`; when `transmitted` and
    /// `needs_ack`, the blocking engine waits for [`WireMsg::Ack`].
    ///
    /// One critical section: index bump, piggyback, suppression check,
    /// transmit, log insert. The fabric send is non-blocking, so
    /// holding the lock across it is cheap, and it makes the send
    /// atomic against `ROLLBACK`: the survivor side either sees the
    /// entry in the log (and resends it) or has already clamped the
    /// bound this send is checked against.
    ///
    /// ## Zero-copy budget
    ///
    /// A transmitted send performs **exactly one frame allocation**:
    /// the transport encodes `[crc | header | WireMsg::App]` in a
    /// single pass and hands back the encoded-message region as a
    /// zero-copy window, which the sender-log entry stores for
    /// verbatim resends — the log entry, the transport's unacked
    /// slot, and the in-flight envelope are all refcounted handles on
    /// that one buffer, and the entry's `piggyback`/`data` handles
    /// move in from the send without a decode pass. A suppressed send
    /// encodes once into the log and transmits nothing.
    pub fn app_send(&self, dst: Rank, tag: u32, data: Bytes, needs_ack: bool) -> (u64, bool) {
        let mut st = self.state.lock();
        let (send_index, transmitted) = st.app_send(dst, tag, data, needs_ack);
        if needs_ack && transmitted {
            st.rendezvous = Some((dst, send_index, self.cfg.clock.now()));
        }
        (send_index, transmitted)
    }

    /// [`Kernel::app_send`] behind the protocol's send gate, in one
    /// critical section: `false`, sending nothing, while PES holds sends.
    pub(crate) fn try_app_send(&self, dst: Rank, tag: u32, data: Bytes) -> bool {
        let mut st = self.state.lock();
        if !st.trk.protocol.send_ready() {
            return false;
        }
        st.app_send(dst, tag, data, false);
        true
    }

    // ---------------------------------------------------------------
    // Ingestion and delivery (lines 13–31)
    // ---------------------------------------------------------------

    /// Process one raw envelope from the fabric, then flush the
    /// coalesced acks. Engines that hold several envelopes should
    /// prefer [`Kernel::ingest_batch`], which pays the flush once.
    pub fn ingest(&self, env: Envelope) {
        self.ingest_batch([env]);
    }

    /// Process a batch of raw envelopes in arrival order, then flush
    /// one cumulative ack per dirty peer instead of per-frame acks.
    pub fn ingest_batch(&self, envs: impl IntoIterator<Item = Envelope>) {
        for env in envs {
            self.ingest_env(env);
        }
        self.state.lock().transport.flush_acks();
    }

    /// Process one raw envelope without flushing acks. CRC check and
    /// frame decode run before the lock; under it the transport
    /// strips the frame — corrupt envelopes are NACK'ed, duplicates
    /// discarded, and control frames consumed without ever reaching
    /// the dispatch below — and the inner message is applied.
    fn ingest_env(&self, env: Envelope) {
        let src = env.src;
        let frame = decode_envelope(&env);
        let mut st = self.state.lock();
        let inner = match st.transport.ingest(src, frame) {
            Ingest::Dropped => {
                // What was dropped may have been a `FENCED` notice.
                if st.transport.is_self_fenced() {
                    self.fenced.store(true, Ordering::Release);
                }
                return;
            }
            Ingest::Heard => None,
            Ingest::Data(inner) => Some(inner),
        };
        // Intact frames double as liveness evidence for the detector.
        if let Some(det) = &mut st.detector {
            det.heard(src, self.cfg.clock.now());
        }
        // Zero-copy decode: `App` payload and piggyback come out as
        // windows into the ingested frame, not fresh allocations. Any
        // fabric peer can frame bytes that are not a message; they are
        // dropped (the transport has already acknowledged the frame).
        let Some(Ok(msg)) = inner.map(|b| lclog_wire::decode_from_bytes::<WireMsg>(&b)) else {
            return;
        };
        match msg {
            // Frames no correct peer sends — from the service slot, any
            // but the logger's and the arbiter's (other arms index by
            // `src`); an answer to a `ROLLBACK` or `LOG_QUERY` this
            // incarnation never sent, a resync request naming someone
            // else, a service-bound message at an application rank —
            // are counted and dropped like undecodable ones.
            _ if src >= self.n
                && !matches!(
                    msg,
                    WireMsg::LogAck(_) | WireMsg::LogQueryResp(_) | WireMsg::Membership(_)
                ) =>
            {
                st.transport.corrupt_detected += 1;
            }
            WireMsg::Response(_) | WireMsg::LogQueryResp(_)
                if *st.rec.machine.phase() == RecoveryPhase::Running =>
            {
                st.transport.corrupt_detected += 1;
            }
            WireMsg::ResyncReq(who) if who as Rank != src => st.transport.corrupt_detected += 1,
            WireMsg::LogDets(_) | WireMsg::LogQuery(_) | WireMsg::Suspect(_) => {
                st.transport.corrupt_detected += 1;
            }
            WireMsg::App(wire) => {
                // The re-ack a repetitive rendezvous duplicate is owed.
                if let Admit::Repetitive {
                    needs_ack: true,
                    send_index,
                } = st.del.admit(src, wire)
                {
                    st.transport.send_msg(src, &WireMsg::Ack(send_index));
                }
            }
            WireMsg::Ack(idx) => raise(&mut st.acked, src, idx),
            WireMsg::Rollback(w) => self.handle_rollback(st, src, w),
            WireMsg::Response(w) => self.handle_response(st, src, w),
            WireMsg::CkptAdvance(w) => {
                let State { rec, trk, acked, .. } = &mut *st;
                let horizon = if self.cfg.log_gc_lag {
                    // Release only what the *previous* advance
                    // covered: one extra generation of entries
                    // stays resendable, so a node-loss restore
                    // that falls back a generation can still be
                    // rolled forward. `min` guards against
                    // reordered advances shrinking the horizon.
                    rec.peer_ckpt_advance.get(src).min(w.delivered_from_you)
                } else {
                    w.delivered_from_you
                };
                raise(&mut rec.peer_ckpt_advance, src, w.delivered_from_you);
                rec.log.release(src, horizon);
                trk.protocol.on_peer_checkpoint(src, w.total_delivered);
                // Checkpointed delivery counts double as acks.
                raise(acked, src, w.delivered_from_you);
            }
            WireMsg::LogAck(upto) => st.trk.protocol.on_logger_ack(upto),
            WireMsg::LogQueryResp(dets) => {
                // The event logger answered our `LOG_QUERY` with the
                // failed incarnation's stable determinants.
                let State { rec, trk, .. } = &mut *st;
                let (_, tr) = rec.machine.note_logger_synced();
                self.emit_transition(tr);
                trk.protocol.install_recovery_info(dets);
                if let Some(done) = rec.machine.try_complete(self.cfg.clock.now()) {
                    self.finish_sync(trk, done);
                }
            }
            WireMsg::Membership(view) => self.handle_membership(&mut st, view),
            WireMsg::ResyncReq(_) => {
                if let Some(bytes) = st.trk.protocol.resync_snapshot(src) {
                    st.transport.send_msg(src, &WireMsg::ResyncSnap(bytes.into()));
                }
            }
            WireMsg::ResyncSnap(bytes) => {
                // A corrupt snapshot is no worse than a lost one: the
                // next undecodable frame re-requests, so the error is
                // dropped rather than faulting the rank. Either way the
                // round-trip completed, so the request pacer restarts
                // its schedule for this source.
                let _ = st.trk.protocol.install_resync(src, &bytes);
                st.resync_pacer.settle(src);
            }
        }
    }

    /// Deliver the first queued message (in arrival order) matching
    /// `spec` whose per-sender FIFO predecessor has been delivered and
    /// whose protocol dependency gate opens (lines 15–31). App thread.
    ///
    /// One critical section: gate, extraction, piggyback merge,
    /// counter bump, rendezvous ack and TEL determinants see one
    /// protocol state and one queue.
    pub fn try_deliver(&self, spec: RecvSpec) -> Option<AppMsg> {
        let mut st = self.state.lock();
        if st.holds_delivery() {
            return None;
        }
        let State { trk, del, transport, .. } = &mut *st;
        let protocol = &trk.protocol;
        let last_deliver_index = &del.last_deliver_index;
        let Pending { src, wire } = del.queue.take_first_matching(spec, |src, idx, piggyback| {
            idx == last_deliver_index.get(src) + 1
                && matches!(
                    protocol.deliverable(src, idx, piggyback),
                    DeliveryVerdict::Deliver
                )
        })?;
        if trk.on_deliver(src, wire.send_index, &wire.piggyback).is_err() {
            // Gate and merge disagreed (poisoned/stale piggyback): the
            // message is discarded *without* bumping the delivery
            // counter, and the rank is marked desynchronized so its
            // engine faults it (single-rank recovery, not a process
            // abort). No ack either — as far as the sender can tell,
            // the message was never consumed.
            drop(st);
            self.events.emit(
                self.me,
                EventKind::TrackingDesync {
                    src,
                    send_index: wire.send_index,
                },
            );
            self.desynced.store(true, Ordering::Release);
            return None;
        }
        del.note_delivered(src);
        // Rendezvous ack at delivery time (§IV.B), then freshly created
        // determinants to the TEL event logger.
        if wire.needs_ack {
            transport.send_msg(src, &WireMsg::Ack(wire.send_index));
        }
        if let Some(logger) = self.logger {
            let dets = trk.protocol.drain_determinants_for_logger();
            if !dets.is_empty() {
                transport.send_msg(logger, &WireMsg::LogDets(dets));
            }
        }
        Some(AppMsg {
            src,
            tag: wire.tag,
            data: wire.data,
        })
    }

    /// Senders with a queued message that `spec` + the FIFO counter +
    /// the protocol gate would allow delivering *right now*, ordered
    /// by arrival (index 0 is what [`Kernel::try_deliver`] would
    /// take). Each element is a legal alternative next delivery — the
    /// schedule explorer's choice-point set (§III.E: any such order is
    /// supposed to converge). Read-only.
    pub fn deliverable_sources(&self, spec: RecvSpec) -> Vec<Rank> {
        let st = self.state.lock();
        if st.holds_delivery() {
            return Vec::new();
        }
        let protocol = &st.trk.protocol;
        let last_deliver_index = &st.del.last_deliver_index;
        st.del.queue.eligible_sources(spec, |src, idx, piggyback| {
            idx == last_deliver_index.get(src) + 1
                && matches!(
                    protocol.deliverable(src, idx, piggyback),
                    DeliveryVerdict::Deliver
                )
        })
    }

    // ---------------------------------------------------------------
    // Checkpointing (lines 32–39)
    // ---------------------------------------------------------------

    /// Should a checkpoint be taken now (between steps)?
    pub fn checkpoint_due(&self, step: u64) -> bool {
        self.state
            .lock()
            .rec
            .checkpoint_due(self.cfg.checkpoint, step)
    }

    /// Take a checkpoint of `app_state` after `step`.
    ///
    /// The image is assembled and written to stable storage under the
    /// state lock — it has to be one consistent cut of log, counters
    /// and protocol state — and the `CHECKPOINT_ADVANCE` notices
    /// follow in the same section.
    pub fn do_checkpoint(&self, app_state: Vec<u8>, step: u64) {
        let mut st = self.state.lock();
        let State { rec, trk, del, transport, .. } = &mut *st;
        let image = CheckpointImage {
            step,
            app_state,
            protocol: trk.protocol.checkpoint_bytes(),
            last_send: trk.last_send_index.clone(),
            last_deliver: del.last_deliver_index.clone(),
            log: rec.log.to_entries(),
        };
        rec.ckpt_version += 1;
        let encoded = encode_to_vec(&image);
        self.events.emit(
            self.me,
            EventKind::Checkpoint {
                step,
                bytes: encoded.len(),
            },
        );
        rec.ckpt_store.save(self.me, rec.ckpt_version, &encoded);
        trk.protocol.on_local_checkpoint();
        let total = trk.protocol.delivered_total();
        // Notify only the senders whose messages this checkpoint newly
        // covers (lines 32–39): those whose delivered count grew past
        // what they were last told. TAG-f and TEL peers also prune
        // other ranks' determinants on `total_delivered`, so under
        // them every rank hears every checkpoint.
        let everyone = trk.protocol.prunes_on_peer_checkpoint();
        for k in 0..self.n {
            let delivered = del.last_deliver_index.get(k);
            if k == self.me || (!everyone && delivered <= rec.last_ckpt_deliver_index.get(k)) {
                continue;
            }
            rec.last_ckpt_deliver_index.set(k, delivered);
            let advance = CkptAdvanceWire {
                delivered_from_you: delivered,
                total_delivered: total,
            };
            transport.send_msg(k, &WireMsg::CkptAdvance(advance));
        }
        rec.steps_at_ckpt = step;
    }

    // ---------------------------------------------------------------
    // Recovery (lines 40–53)
    // ---------------------------------------------------------------

    /// Restore state from a checkpoint image (incarnation side,
    /// lines 41–45). Returns `(step, app_state)` for the application
    /// loop, or [`Fault::Desync`] when the image's protocol snapshot
    /// does not decode — a CRC-intact blob whose contents are not a
    /// protocol state (format drift, a hostile store). On error
    /// nothing was mutated (every protocol decodes before
    /// installing), so the caller may fall back to the initial state
    /// and roll forward through normal recovery instead of aborting
    /// the process. (Algorithm 1's lines 43–44 restore every vector
    /// from `checkpoint.depend_interval` — an obvious typo we
    /// correct.)
    pub fn restore(&self, image: CheckpointImage) -> Result<(u64, Vec<u8>), Fault> {
        let mut st = self.state.lock();
        let State { rec, trk, del, .. } = &mut *st;
        trk.protocol
            .restore_from_checkpoint(&image.protocol)
            .map_err(|_| Fault::Desync)?;
        trk.last_send_index = image.last_send.clone();
        rec.restored_send_index = image.last_send;
        del.last_deliver_index = image.last_deliver;
        // The dead incarnation's notices may have died with it: the
        // first checkpoint tells every sender again.
        rec.last_ckpt_deliver_index = CounterVector::zeroed(self.n);
        rec.log = SenderLog::from_entries(self.n, image.log);
        rec.log_bytes_peak = rec.log_bytes_peak.max(rec.log.bytes() as u64);
        rec.ckpt_version = rec
            .ckpt_store
            .latest_version(self.me)
            .unwrap_or(rec.ckpt_version);
        rec.steps_at_ckpt = image.step;
        Ok((image.step, image.app_state))
    }

    /// Load this rank's latest checkpoint image, if any. A stored blob
    /// that passes its CRC seal but does not decode as an image
    /// (format drift, wrong contents under the key) is as unusable as
    /// a torn one and reads as "no checkpoint" — the incarnation then
    /// restarts from the initial state and rolls forward through
    /// recovery instead of aborting the process.
    pub fn load_checkpoint(&self) -> Option<CheckpointImage> {
        let (_, bytes) = self.state.lock().rec.ckpt_store.load_latest(self.me)?;
        lclog_wire::decode_from_slice(&bytes).ok()
    }

    /// Begin incarnation recovery: drive the state machine
    /// `Running → Logging`, broadcast `ROLLBACK` (line 46) and, under
    /// TEL, query the event logger for stable determinants.
    ///
    /// # Panics
    ///
    /// If called twice on one incarnation (the state machine rejects
    /// `begin` outside `Running`).
    pub fn begin_recovery(&self) {
        let mut st = self.state.lock();
        let tr = st
            .rec
            .machine
            .begin(self.me, self.logger.is_some(), self.cfg.clock.now());
        self.emit_transition(Some(tr));
        self.broadcast_rollback(&mut st);
        // Degenerate single-rank system: nothing to collect.
        if let Some(done) = st.rec.machine.try_complete(self.cfg.clock.now()) {
            self.finish_sync(&mut st.trk, done);
        }
    }

    /// Bring up the successor of a dead incarnation — the one respawn
    /// path under every engine: new kernel → [`Kernel::set_incarnation`]
    /// → [`Kernel::set_event_sink`] → [`Kernel::load_checkpoint`] →
    /// [`Kernel::restore`] → [`Kernel::begin_recovery`].
    ///
    /// An empty local store after a death is the node-loss signature:
    /// with `remote` set, the newest fully-certified generation is
    /// pulled into the given raw store first (manifests speak global
    /// rank) and read back as usual.
    ///
    /// `decode` turns the image's application bytes into the caller's
    /// state and runs **before** the kernel is touched: an image whose
    /// application or protocol state does not decode is treated like
    /// no image at all. The second return is then `None` with the
    /// kernel still at its initial counters, so the caller restarts
    /// the application from its initial state and both roll forward
    /// through recovery together.
    #[allow(clippy::too_many_arguments)]
    pub fn respawn<S>(
        rank: Rank,
        n: usize,
        cfg: RunConfig,
        net: SimNet,
        ckpts: CheckpointStore,
        incarnation: u64,
        sink: EventSink,
        remote: Option<(&Replicator, &dyn StableStorage)>,
        decode: impl FnOnce(&[u8]) -> Option<S>,
    ) -> (Kernel, Option<(u64, S)>) {
        let global_rank = ckpts.rank_base() + rank;
        let mut kernel = Kernel::new(rank, n, cfg, net, ckpts);
        kernel.set_incarnation(incarnation);
        kernel.set_event_sink(sink);
        let mut image = kernel.load_checkpoint();
        if image.is_none() {
            if let Some((repl, raw_storage)) = remote {
                if repl.restore_rank(global_rank, raw_storage).is_some() {
                    image = kernel.load_checkpoint();
                }
            }
        }
        let restored = image.and_then(|image| {
            let state = decode(&image.app_state)?;
            let (step, _) = kernel.restore(image).ok()?;
            Some((step, state))
        });
        kernel.begin_recovery();
        (kernel, restored)
    }

    /// `ROLLBACK` to every rank that has not answered yet (and the
    /// `LOG_QUERY` to the event logger while its answer is owed).
    fn broadcast_rollback(&self, st: &mut State) {
        let rec = &mut st.rec;
        rec.rollback_epoch += 1;
        let wire = RollbackWire {
            last_deliver_index: st.del.last_deliver_index.as_slice().to_vec(),
            epoch: rec.rollback_epoch,
        };
        let targets = rec.machine.pending_targets();
        self.events.emit(
            self.me,
            EventKind::RollbackBroadcast {
                epoch: rec.rollback_epoch,
            },
        );
        let rollback = WireMsg::Rollback(wire);
        for k in targets {
            st.transport.send_msg(k, &rollback);
        }
        if let Some(logger) = self.logger {
            if rec.machine.needs_logger_sync() {
                st.transport.send_msg(logger, &WireMsg::LogQuery(self.me as u32));
            }
        }
        rec.machine.note_broadcast(self.cfg.clock.now());
    }

    /// Survivor side of `ROLLBACK` (lines 47–51): answer with our
    /// delivery count and determinant knowledge, then resend logged
    /// messages the failed process lost.
    fn handle_rollback(&self, mut st: MutexGuard<'_, State>, src: Rank, w: RollbackWire) {
        // The rollback vector is the *authoritative* post-restore
        // delivery state of src's new incarnation. Anything we
        // believed beyond it — an ack, or a RESPONSE-based duplicate
        // suppression bound obtained from the pre-crash incarnation
        // moments before it died (the crossing-recoveries race of
        // Fig. 2) — describes deliveries that have been rolled back
        // and must be forgotten, or we would suppress regenerated
        // messages the incarnation still needs.
        let upto = w.last_deliver_index.get(self.me).copied();
        let State { rec, acked, .. } = &mut *st;
        if let Some(upto) = upto {
            rec.rollback_last_send_index.set(src, upto);
            acked.set(src, upto);
            // Under `log_gc_lag`, src's next advance releases up to the
            // previous one, which must not reach past the generation
            // src restored: that is its next checkpoint's fallback.
            if rec.peer_ckpt_advance.get(src) > upto {
                rec.peer_ckpt_advance.set(src, upto);
            }
        }
        // src's restored log holds what our earlier checkpoints
        // released: the next one tells it again.
        rec.last_ckpt_deliver_index.set(src, 0);
        let response = WireMsg::Response(ResponseWire {
            delivered_from_you: st.del.last_deliver_index.get(src),
            dets: st.trk.protocol.determinants_for(src),
            epoch: w.epoch,
        });
        st.transport.send_msg(src, &response);
        // Everything logged so far; a send racing the burst transmits
        // itself.
        let last = st.trk.last_send_index.get(src);
        drop(st);
        self.resend_logged(src, upto.unwrap_or(0), last);
        // Anything we had queued from the pre-failure incarnation will
        // be resent/regenerated with identical identities; keeping the
        // queued copies is both correct (dedup by send_index) and
        // faster.
    }

    /// Resend the logged sends to `dst` with `send_index` in
    /// `(after, upto]`, oldest first. Logged wire bytes go out
    /// verbatim — refcount bumps, zero payload copies; the original
    /// piggyback (and `needs_ack`, which is safe: rendezvous acks are
    /// idempotent) ride along exactly as first framed. The lock is
    /// taken anew every [`RESEND_CHUNK`] frames.
    fn resend_logged(&self, dst: Rank, mut after: u64, upto: u64) {
        let mut count = 0;
        loop {
            let mut st = self.state.lock();
            let State { rec, transport, .. } = &mut *st;
            let chunk = rec
                .log
                .entries_after(dst, after)
                .take_while(|e| e.send_index <= upto)
                .take(RESEND_CHUNK);
            let mut sent = 0;
            for e in chunk {
                transport.send_encoded(dst, e.to_wire());
                after = e.send_index;
                sent += 1;
            }
            count += sent;
            if sent < RESEND_CHUNK {
                break;
            }
        }
        if count > 0 {
            self.events
                .emit(self.me, EventKind::LogResent { to: dst, count });
        }
    }

    /// Incarnation side of `RESPONSE` (lines 52–53): install the
    /// recovery info, possibly lift the barrier, then resupply.
    fn handle_response(&self, mut st: MutexGuard<'_, State>, src: Rank, w: ResponseWire) {
        let State {
            rec, trk, acked, ..
        } = &mut *st;
        raise(&mut rec.rollback_last_send_index, src, w.delivered_from_you);
        raise(acked, src, w.delivered_from_you);
        // The dead incarnation's transport may have been holding sent-
        // but-undelivered messages for retransmission when it crashed;
        // on a lossy fabric those copies are gone for good. Any such
        // message predates the checkpoint (its index is within the
        // restored `last_send`), so re-execution will not regenerate
        // it either — the checkpointed sender log is its only
        // surviving copy. Resend that window; the receiver's dedup
        // absorbs whatever did arrive.
        let restored = rec.restored_send_index.get(src);
        let (newly, tr) = rec.machine.note_response(src);
        self.emit_transition(tr);
        if newly {
            self.events
                .emit(self.me, EventKind::ResponseReceived { from: src });
        }
        if !w.dets.is_empty() {
            trk.protocol.install_recovery_info(w.dets);
        }
        if let Some(done) = rec.machine.try_complete(self.cfg.clock.now()) {
            self.finish_sync(trk, done);
        }
        drop(st);
        self.resend_logged(src, w.delivered_from_you, restored);
    }

    /// A certified membership view from the arbiter. Three duties:
    ///
    /// 1. Raise the transport's fence floors, so below-floor
    ///    incarnations are rejected (and notified) from here on — and
    ///    publish the verdict if the view fences *us*.
    /// 2. Reset the detector's book on every newly-declared rank: the
    ///    successor incarnation starts with a clean silence clock and
    ///    an unlatched suspicion.
    /// 3. **Supervised recovery**: if we are mid-recovery and a rank
    ///    we are still owed a `RESPONSE` by was just declared dead,
    ///    re-drive the `ROLLBACK` broadcast immediately — its
    ///    successor needs our rollback vector, and waiting for the
    ///    retry clock would leave `Replaying{progress}` wedged on a
    ///    corpse for a whole retry interval per cascade link.
    fn handle_membership(&self, st: &mut State, view: MembershipView) {
        let Some(advanced) = st.transport.apply_fence_floors(view.epoch, &view.floor) else {
            return; // stale or already-applied view
        };
        if st.transport.is_self_fenced() {
            self.fenced.store(true, Ordering::Release);
        }
        if let Some(det) = &mut st.detector {
            let now = self.cfg.clock.now();
            for &r in &advanced {
                det.reset_peer(r, now);
            }
        }
        if !st.rec.machine.is_recovering() {
            return;
        }
        let pending = st.rec.machine.pending_targets();
        if advanced.iter().any(|r| pending.contains(r)) {
            self.broadcast_rollback(st);
        }
    }

    /// Forced-verdict entry point for deterministic harnesses: apply a
    /// certified membership view exactly as if the arbiter had
    /// delivered it over the wire. The schedule explorer uses this to
    /// make detector outcomes *choice points* — it synthesizes the
    /// `(epoch, floor[])` view a real arbiter would certify for a
    /// chosen verdict and applies it synchronously to each survivor,
    /// instead of waiting on φ-accrual timing that virtual time never
    /// advances past. Semantically identical to receiving
    /// `WireMsg::Membership(view)`; idempotent and safe on stale
    /// views (they are ignored, like any non-advancing view).
    pub fn apply_membership(&self, view: MembershipView) {
        self.handle_membership(&mut self.state.lock(), view);
    }

    /// Periodic maintenance, one critical section: drive the
    /// transport's retransmission timers, pace the sparse codec's
    /// resync requests, run the failure detector (forced suspicions,
    /// threshold crossings, idle heartbeats, reports to the arbiter),
    /// rebroadcast `ROLLBACK` to peers that have not responded (they
    /// may have been dead when the first broadcast went out — the
    /// multi-failure case of Fig. 2), resend an unacknowledged
    /// rendezvous send, and flush coalesced acks.
    pub fn tick(&self) {
        let now = self.cfg.clock.now();
        let mut st = self.state.lock();
        let State { trk, transport, detector, resync_pacer, .. } = &mut *st;
        let overdue = transport.tick();
        // Frames queued behind an undecodable one stay parked until
        // the snapshot round-trip completes, so the *first* request
        // goes out on the first tick. Re-requests are paced by a
        // per-source full-jitter backoff: the protocol re-queues the
        // request on every gate check while the snapshot is in flight,
        // and re-sending each tick would be a request storm that the
        // snapshot sender answers in kind.
        let resyncs = trk.protocol.take_resync_requests();
        if !resyncs.is_empty() {
            for src in resync_pacer.admit(&resyncs, now) {
                transport.send_msg(src, &WireMsg::ResyncReq(self.me as u32));
            }
        }
        if let Some(det) = detector {
            // Budget exhaustion = forced threshold crossing.
            let mut crossed: Vec<(Rank, u64)> = Vec::new();
            for r in overdue {
                if det.force_suspect(r) {
                    crossed.push((r, (det.phi(r, now) * 100.0) as u64));
                }
            }
            crossed.extend(det.poll(now));
            if det.heartbeat_due(now) {
                for k in 0..self.n {
                    if k != self.me {
                        transport.send_heartbeat(k);
                    }
                }
            }
            for (r, phi_x100) in crossed {
                let incarnation = transport.believed_incarnation(r);
                self.events.emit(
                    self.me,
                    EventKind::PeerSuspected {
                        peer: r,
                        incarnation,
                        phi_x100,
                    },
                );
                let suspect = WireMsg::Suspect(SuspectWire {
                    rank: r as u32,
                    incarnation,
                });
                transport.send_msg(crate::logger_rank(self.n), &suspect);
            }
        }
        if st.rec.machine.rebroadcast_due(RETRY_INTERVAL, now) {
            self.broadcast_rollback(&mut st);
        }
        // The receiver may have died and respawned; its incarnation
        // will ack (or discard-and-ack) the retransmission.
        if let Some((dst, send_index, sent)) = st.rendezvous {
            if st.acked.get(dst) < send_index && now.duration_since(sent) >= RETRY_INTERVAL {
                st.resend_unacked(dst, send_index);
                st.rendezvous = Some((dst, send_index, now));
            }
        }
        st.transport.flush_acks();
    }

    /// The backing store checkpoints were written to (tests re-create
    /// kernels around the same storage).
    #[cfg(test)]
    pub(crate) fn ckpt_storage(&self) -> std::sync::Arc<dyn lclog_stable::StableStorage> {
        std::sync::Arc::clone(self.state.lock().rec.ckpt_store.storage())
    }
}

/// Per-source pacing of outgoing `RESYNC_REQ` frames.
///
/// The sparse protocol queues a resync request every time a gate check
/// hits an undecodable frame, which is every delivery attempt while
/// the snapshot round-trip is in flight. The pacer collapses that
/// stream into: one immediate request, then re-requests only after a
/// full-jitter backoff deadline passes (covering the lost-`SNAP` /
/// lost-`REQ` cases), with the schedule reset once a snapshot arrives.
/// The backoff is clock-free (seeded jitter), so paced schedules stay
/// deterministic under the explorer's virtual clock.
struct ResyncPacer {
    /// Per-source schedule; allocated lazily (resyncs are rare).
    slots: Vec<Option<ResyncSlot>>,
    initial: Duration,
    cap: Duration,
    seed: u64,
}

struct ResyncSlot {
    backoff: RetryBackoff,
    /// Next instant a re-request may go out.
    deadline: std::time::Instant,
}

impl ResyncPacer {
    fn new(me: Rank, n: usize) -> Self {
        ResyncPacer {
            slots: (0..n).map(|_| None).collect(),
            // A resync is one wire round-trip, same scale as a
            // retransmission; reuse the transport's envelope.
            initial: RETRANSMIT_TIMEOUT,
            cap: RETRANSMIT_CAP,
            seed: 0x5EED_5EED ^ ((me as u64) << 32),
        }
    }

    /// Filter the protocol's drained requests down to the ones whose
    /// schedule allows a send now. First request per source goes out
    /// immediately; later ones wait out the jittered deadline.
    fn admit(&mut self, requests: &[Rank], now: std::time::Instant) -> Vec<Rank> {
        let mut due = Vec::new();
        for &src in requests {
            if src >= self.slots.len() {
                continue;
            }
            match &mut self.slots[src] {
                slot @ None => {
                    let mut backoff =
                        RetryBackoff::new(self.initial, self.cap, self.seed ^ src as u64);
                    let wait = self.initial / 2 + backoff.next_wait();
                    *slot = Some(ResyncSlot {
                        backoff,
                        deadline: now + wait,
                    });
                    due.push(src);
                }
                Some(slot) => {
                    if now >= slot.deadline {
                        let wait = self.initial / 2 + slot.backoff.next_wait();
                        slot.deadline = now + wait;
                        due.push(src);
                    }
                }
            }
        }
        due
    }

    /// A snapshot from `src` arrived: restart that source's schedule
    /// so the *next* desync gets a fresh fast first request.
    fn settle(&mut self, src: Rank) {
        if let Some(slot) = self.slots.get_mut(src) {
            *slot = None;
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        let State { rec, trk, del, transport, .. } = &*st;
        f.debug_struct("Kernel")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("protocol", &self.cfg.protocol)
            .field("queued_len", &del.queue.len())
            .field("queued", &del.queue.summary())
            .field("log_bytes", &rec.log.bytes())
            .field("log_entries", &rec.log.len())
            .field("last_send", &trk.last_send_index.as_slice())
            .field("last_deliver", &del.last_deliver_index.as_slice())
            .field("delivered_total", &trk.protocol.delivered_total())
            .field("recovery_phase", rec.machine.phase())
            .field("dup_discarded", &transport.dup_discarded)
            .field("corrupt_detected", &transport.corrupt_detected)
            .field("fence_epoch", &transport.fence_epoch)
            .field("fenced_rejected", &transport.fenced_rejected)
            .field("channels", &transport.channel_summary())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use lclog_core::ProtocolKind;
    use lclog_simnet::NetConfig;
    use lclog_stable::MemStore;
    use std::sync::Arc;
    use std::time::Duration;

    fn harness(n: usize, kind: ProtocolKind) -> (Vec<Kernel>, SimNet, Vec<lclog_simnet::Endpoint>) {
        let net = SimNet::new(n + 1, NetConfig::direct());
        let store = CheckpointStore::new(Arc::new(MemStore::new()));
        let endpoints: Vec<_> = (0..n).map(|r| net.attach(r)).collect();
        let kernels = (0..n)
            .map(|r| {
                Kernel::new(
                    r,
                    n,
                    RunConfig::new(kind),
                    net.clone(),
                    store.clone(),
                )
            })
            .collect();
        (kernels, net, endpoints)
    }

    /// Drain one endpoint fully into its kernel.
    fn pump(kernel: &Kernel, ep: &lclog_simnet::Endpoint) {
        while let Ok(env) = ep.try_recv() {
            kernel.ingest(env);
        }
    }

    /// A bare endpoint at slot `me`: frames whatever the test says.
    fn raw_peer(me: Rank, net: &SimNet) -> Transport {
        let cfg = TransportConfig::standard(crate::Clock::Real);
        Transport::new(me, net.n(), net.clone(), cfg)
    }

    #[test]
    fn send_deliver_roundtrip_updates_counters() {
        let (mut ks, _net, eps) = harness(2, ProtocolKind::Tdi);
        let (k0, k1) = {
            let mut it = ks.drain(..);
            (it.next().unwrap(), it.next().unwrap())
        };
        let (idx, sent) = k0.app_send(1, 7, Bytes::from_static(b"hello"), false);
        assert_eq!(idx, 1);
        assert!(sent);
        let snap = k0.snapshot();
        assert_eq!(snap.stats.sends, 1);
        assert_eq!(snap.stats.piggyback_ids, 2); // TDI: n identifiers
        pump(&k1, &eps[1]);
        let msg = k1.try_deliver(RecvSpec::any()).expect("deliverable");
        assert_eq!(msg.src, 0);
        assert_eq!(msg.tag, 7);
        assert_eq!(&msg.data[..], b"hello");
        assert_eq!(k1.snapshot().stats.delivers, 1);
        assert!(k1.try_deliver(RecvSpec::any()).is_none());
    }

    #[test]
    fn batch_admission_keeps_arrival_order_across_sources() {
        let (ks, _net, eps) = harness(3, ProtocolKind::Tdi);
        // Rank 2 sends first, then rank 1: rank 0's inbox is [2, 1].
        ks[2].app_send(0, 0, Bytes::from_static(b"from 2"), false);
        ks[1].app_send(0, 0, Bytes::from_static(b"from 1"), false);
        let batch: Vec<_> = std::iter::from_fn(|| eps[0].try_recv().ok()).collect();
        assert_eq!(batch.iter().map(|e| e.src).collect::<Vec<_>>(), [2, 1]);
        ks[0].ingest_batch(batch);
        assert_eq!(ks[0].deliverable_sources(RecvSpec::any()), [2, 1]);
        assert_eq!(ks[0].try_deliver(RecvSpec::any()).unwrap().src, 2);
    }

    #[test]
    fn fifo_gap_blocks_delivery_until_predecessor_arrives() {
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        // Send two messages, but ingest only the second first.
        k0.app_send(1, 0, Bytes::from_static(b"first"), false);
        k0.app_send(1, 0, Bytes::from_static(b"second"), false);
        let first = eps[1].try_recv().unwrap();
        let second = eps[1].try_recv().unwrap();
        k1.ingest(second);
        assert!(k1.try_deliver(RecvSpec::any()).is_none(), "gap must block");
        k1.ingest(first);
        assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], b"first");
        assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], b"second");
        drop(net);
    }

    #[test]
    fn repetitive_message_discarded_and_acked() {
        let (mut ks, _net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        k0.app_send(1, 0, Bytes::from_static(b"m"), true);
        pump(&k1, &eps[1]);
        k1.try_deliver(RecvSpec::any()).unwrap();
        // Ack for the first transmission.
        pump(&k0, &eps[0]);
        assert_eq!(k0.rendezvous_progress(1), (1, false));
        // Re-transmit the same message (as a recovering sender would).
        k0.state.lock().resend_unacked(1, 1);
        pump(&k1, &eps[1]);
        // Discarded as repetitive — not deliverable again…
        assert!(k1.try_deliver(RecvSpec::any()).is_none());
        // …but still acknowledged (Fig. 3's duplicate handling).
        pump(&k0, &eps[0]);
        assert_eq!(k0.rendezvous_progress(1).0, 1);
    }

    #[test]
    fn checkpoint_advance_releases_peer_log() {
        let (mut ks, _net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        k0.app_send(1, 0, Bytes::from_static(b"a"), false);
        k0.app_send(1, 0, Bytes::from_static(b"b"), false);
        assert!(k0.snapshot().log_bytes > 0);
        pump(&k1, &eps[1]);
        k1.try_deliver(RecvSpec::any()).unwrap();
        k1.try_deliver(RecvSpec::any()).unwrap();
        // Rank 1 checkpoints: its CkptAdvance lets rank 0 GC both
        // entries.
        k1.do_checkpoint(vec![], 1);
        pump(&k0, &eps[0]);
        let snap = k0.snapshot();
        assert_eq!(snap.log_bytes, 0);
        assert_eq!(snap.log_entries, 0);
    }

    /// Frames one checkpoint of `k` builds: its `CHECKPOINT_ADVANCE`s.
    fn checkpoint_frames(k: &Kernel) -> u64 {
        let before = k.snapshot().data_plane.frames_built;
        k.do_checkpoint(vec![], 1);
        k.snapshot().data_plane.frames_built - before
    }

    #[test]
    fn checkpoint_notifies_only_the_senders_it_newly_covers() {
        // Rank 0 of eight delivered from rank 3 alone: one notice, not
        // seven. A second checkpoint covers nothing new and sends none.
        let (ks, _net, eps) = harness(8, ProtocolKind::Tdi);
        ks[3].app_send(0, 0, Bytes::from_static(b"m"), false);
        pump(&ks[0], &eps[0]);
        ks[0].try_deliver(RecvSpec::any()).unwrap();
        assert_eq!(checkpoint_frames(&ks[0]), 1);
        assert_eq!(checkpoint_frames(&ks[0]), 0);
        pump(&ks[3], &eps[3]);
        assert_eq!(ks[3].snapshot().log_entries, 0);
    }

    #[test]
    fn rollback_makes_the_next_checkpoint_release_the_restored_log() {
        // Rank 0's checkpoint logs two sends that rank 1 then delivers
        // and checkpoints past; rank 0's successor restores them.
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        k0.app_send(1, 0, Bytes::from_static(b"a"), false);
        k0.app_send(1, 0, Bytes::from_static(b"b"), false);
        k0.do_checkpoint(vec![], 1);
        pump(&k1, &eps[1]);
        while k1.try_deliver(RecvSpec::any()).is_some() {}
        k1.do_checkpoint(vec![], 1);
        pump(&k0, &eps[0]);
        assert_eq!(k0.snapshot().log_entries, 0);
        net.kill(0);
        let ep0b = net.respawn(0);
        let store = CheckpointStore::new(k0.ckpt_storage());
        let mut k0b = Kernel::new(0, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k0b.set_incarnation(2);
        k0b.restore(k0b.load_checkpoint().unwrap()).unwrap();
        k0b.begin_recovery();
        pump(&k1, &eps[1]); // ROLLBACK in, RESPONSE out
        pump(&k0b, &ep0b);
        assert_eq!(k0b.recovery_phase(), RecoveryPhase::Synced);
        assert_eq!(k0b.snapshot().log_entries, 2);
        // Nothing new delivered, yet rank 1's next checkpoint tells
        // rank 0 again.
        assert_eq!(checkpoint_frames(&k1), 1);
        pump(&k0b, &ep0b);
        assert_eq!(k0b.snapshot().log_entries, 0);
    }

    #[test]
    fn rollback_to_an_older_generation_clamps_the_gc_lag_horizon() {
        // Under `log_gc_lag` rank 1's two checkpoints (after one and
        // two deliveries) free rank 0's first send. Rank 1 then comes
        // back from its older generation, so its next checkpoint's
        // fallback is that generation: rank 0 must keep send 2 however
        // far the previous advance reached.
        let net = SimNet::new(3, NetConfig::direct());
        let store = CheckpointStore::new(Arc::new(MemStore::new()));
        let eps: Vec<_> = (0..2).map(|r| net.attach(r)).collect();
        let cfg = RunConfig::new(ProtocolKind::Tdi).with_log_gc_lag(true);
        let k0 = Kernel::new(0, 2, cfg.clone(), net.clone(), store.clone());
        let k1 = Kernel::new(1, 2, cfg.clone(), net.clone(), store.clone());
        for (step, payload) in [(1, &b"a"[..]), (2, b"b")] {
            k0.app_send(1, 0, Bytes::copy_from_slice(payload), false);
            pump(&k1, &eps[1]);
            k1.try_deliver(RecvSpec::any()).unwrap();
            k1.do_checkpoint(vec![], step);
            pump(&k0, &eps[0]);
        }
        assert_eq!(k0.log_gap(1, 0), Some(1));
        assert_eq!(k0.log_gap(1, 1), None);
        net.kill(1);
        let ep1b = net.respawn(1);
        store.storage().delete(&CheckpointStore::key(1, 2));
        let mut k1b = Kernel::new(1, 2, cfg, net.clone(), store);
        k1b.set_incarnation(2);
        k1b.restore(k1b.load_checkpoint().unwrap()).unwrap();
        k1b.begin_recovery();
        pump(&k0, &eps[0]); // ROLLBACK (delivered 1) in, send 2 resent
        pump(&k1b, &ep1b);
        assert_eq!(&k1b.try_deliver(RecvSpec::any()).unwrap().data[..], b"b");
        k1b.do_checkpoint(vec![], 2);
        pump(&k0, &eps[0]);
        assert_eq!(k0.log_gap(1, 1), None, "the fallback generation needs send 2");
    }

    #[test]
    fn first_checkpoint_after_restore_notifies_every_sender_it_covers() {
        // The dead incarnation's notices may have died with it. Rank 0
        // of four delivered from ranks 1 and 2, never from 3.
        let (ks, net, eps) = harness(4, ProtocolKind::Tdi);
        for k in &ks[1..3] {
            k.app_send(0, 0, Bytes::from_static(b"m"), false);
        }
        pump(&ks[0], &eps[0]);
        while ks[0].try_deliver(RecvSpec::any()).is_some() {}
        assert_eq!(checkpoint_frames(&ks[0]), 2);
        net.kill(0);
        let _ep0b = net.respawn(0);
        let store = CheckpointStore::new(ks[0].ckpt_storage());
        let mut k0b = Kernel::new(0, 4, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k0b.set_incarnation(2);
        k0b.restore(k0b.load_checkpoint().unwrap()).unwrap();
        assert_eq!(checkpoint_frames(&k0b), 2);
        assert_eq!(checkpoint_frames(&k0b), 0);
    }

    #[test]
    fn tagf_and_tel_checkpoints_reach_ranks_that_never_sent() {
        // Rank 2 learns a determinant of rank 1's delivery of a rank-0
        // message; rank 1's checkpoint covers no send of rank 2's, yet
        // must still let it prune that determinant.
        for kind in [ProtocolKind::TagF(2), ProtocolKind::Tel] {
            let (ks, _net, eps) = harness(3, kind);
            ks[0].app_send(1, 0, Bytes::from_static(b"m"), false);
            pump(&ks[1], &eps[1]);
            ks[1].try_deliver(RecvSpec::any()).unwrap();
            ks[1].app_send(2, 0, Bytes::from_static(b"m"), false);
            pump(&ks[2], &eps[2]);
            ks[2].try_deliver(RecvSpec::any()).unwrap();
            let about_1 = || ks[2].state.lock().trk.protocol.determinants_for(1).len();
            assert_eq!(about_1(), 1, "{kind}");
            ks[1].do_checkpoint(vec![], 1);
            pump(&ks[2], &eps[2]);
            assert_eq!(about_1(), 0, "{kind}");
        }
    }

    #[test]
    fn rollback_resends_lost_messages_with_logged_piggyback() {
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        // Rank 0 sends 3 messages; rank 1 delivers only the first,
        // checkpoints, then fails.
        for b in [&b"a"[..], b"b", b"c"] {
            k0.app_send(1, 0, Bytes::copy_from_slice(b), false);
        }
        pump(&k1, &eps[1]);
        k1.try_deliver(RecvSpec::any()).unwrap();
        k1.do_checkpoint(vec![], 1);
        pump(&k0, &eps[0]); // absorb CkptAdvance (releases "a")
        // Crash rank 1, respawn.
        net.kill(1);
        let ep1b = net.respawn(1);
        let store = CheckpointStore::new(k1.ckpt_storage());
        let mut k1b = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k1b.set_incarnation(2);
        let image = k1b.load_checkpoint().expect("checkpoint exists");
        let (step, _app) = k1b.restore(image).expect("image restores");
        assert_eq!(step, 1);
        assert_eq!(k1b.recovery_phase(), RecoveryPhase::Running);
        k1b.begin_recovery();
        assert!(k1b.is_recovering());
        assert_eq!(k1b.recovery_phase(), RecoveryPhase::Logging);
        // Rank 0 handles the rollback: responds + resends b, c.
        pump(&k0, &eps[0]);
        // Incarnation ingests the response and resends.
        while let Ok(env) = ep1b.try_recv() {
            k1b.ingest(env);
        }
        assert!(!k1b.is_recovering(), "response received");
        assert_eq!(k1b.recovery_phase(), RecoveryPhase::Synced);
        let m = k1b.try_deliver(RecvSpec::any()).unwrap();
        assert_eq!(&m.data[..], b"b");
        let m = k1b.try_deliver(RecvSpec::any()).unwrap();
        assert_eq!(&m.data[..], b"c");
    }

    /// Regression: a stored generation that passes its CRC seal but is
    /// not a checkpoint image (format drift, wrong contents under the
    /// key) used to abort the process with an `expect`; it must read
    /// as "no checkpoint" so the incarnation restarts from the initial
    /// state and rolls forward through recovery.
    #[test]
    fn crc_valid_garbage_generation_reads_as_no_checkpoint() {
        let (mut ks, _net, _eps) = harness(1, ProtocolKind::Tdi);
        let k0 = ks.pop().unwrap();
        // CheckpointStore::save seals whatever bytes it is given, so
        // this plants a CRC-intact blob that is not an image.
        CheckpointStore::new(k0.ckpt_storage()).save(0, 1, b"not a checkpoint image");
        assert!(k0.load_checkpoint().is_none());
    }

    /// Regression: an image whose protocol snapshot does not decode
    /// used to abort the process inside `restore`; it must surface as
    /// a typed fault, leaving the kernel untouched so the caller can
    /// fall back to the initial state and recover normally.
    #[test]
    fn restore_with_undecodable_protocol_state_is_a_typed_fault() {
        let (mut ks, _net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        k1.do_checkpoint(b"app".to_vec(), 1);
        let mut image = k1.load_checkpoint().expect("checkpoint exists");
        image.protocol = vec![0xFF; 3]; // not a TDI depend vector
        assert_eq!(k1.restore(image), Err(Fault::Desync));
        // The kernel is still functional after the failed restore.
        k0.app_send(1, 7, Bytes::from_static(b"still alive"), false);
        pump(&k1, &eps[1]);
        let m = k1.try_deliver(RecvSpec::any()).expect("deliverable");
        assert_eq!(&m.data[..], b"still alive");
    }

    /// Regression: every respawn copy used to `restore` before decoding
    /// the application state, so a CRC-intact image whose app bytes do
    /// not decode left a kernel at the checkpoint's counters under an
    /// application restarted at step 0. `respawn` decodes first.
    #[test]
    fn respawn_with_undecodable_app_state_leaves_kernel_at_initial_counters() {
        let (mut ks, net, _eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        // The image carries last_send[0] == 1 and valid protocol bytes.
        k1.app_send(0, 0, Bytes::from_static(b"before"), false);
        k1.do_checkpoint(b"not an app state".to_vec(), 5);
        net.kill(1);
        let _ep1b = net.respawn(1);
        let (k1b, restored) = Kernel::respawn(
            1,
            2,
            RunConfig::new(ProtocolKind::Tdi),
            net.clone(),
            CheckpointStore::new(k1.ckpt_storage()),
            2,
            EventSink::disabled(),
            None,
            |bytes| lclog_wire::decode_from_slice::<u64>(bytes).ok(),
        );
        assert!(restored.is_none(), "garbage app bytes must read as no image");
        assert!(k1b.is_recovering());
        let (send_index, _) = k1b.app_send(0, 0, Bytes::from_static(b"again"), false);
        assert_eq!(send_index, 1, "kernel must restart with the application");
    }

    #[test]
    fn recovering_sender_suppresses_already_delivered_sends() {
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        // Rank 0 sends two messages; rank 1 delivers both. Rank 0 then
        // fails before checkpointing.
        k0.app_send(1, 0, Bytes::from_static(b"x"), false);
        k0.app_send(1, 0, Bytes::from_static(b"y"), false);
        pump(&k1, &eps[1]);
        k1.try_deliver(RecvSpec::any()).unwrap();
        k1.try_deliver(RecvSpec::any()).unwrap();
        net.kill(0);
        let ep0b = net.respawn(0);
        let store = CheckpointStore::new(k0.ckpt_storage());
        let mut k0b = Kernel::new(0, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k0b.set_incarnation(2);
        // No checkpoint: fresh state, recover from scratch.
        assert!(k0b.load_checkpoint().is_none());
        k0b.begin_recovery();
        pump(&k1, &eps[1]); // rank 1 responds: delivered 2 from you
        while let Ok(env) = ep0b.try_recv() {
            k0b.ingest(env);
        }
        // Roll-forward: rank 0 re-executes both sends; both must be
        // suppressed (logged but not transmitted).
        let (_, sent) = k0b.app_send(1, 0, Bytes::from_static(b"x"), false);
        assert!(!sent, "send 1 suppressed by RESPONSE");
        let (_, sent) = k0b.app_send(1, 0, Bytes::from_static(b"y"), false);
        assert!(!sent, "send 2 suppressed by RESPONSE");
        let (_, sent) = k0b.app_send(1, 0, Bytes::from_static(b"z"), false);
        assert!(sent, "new send transmitted");
        // Log was rebuilt for all three.
        assert_eq!(k0b.snapshot().log_entries, 3);
    }

    #[test]
    fn recovering_sender_resupplies_in_flight_sends_from_checkpointed_log() {
        // The dual of the suppression test: rank 0 sends two messages
        // whose frames are lost on the wire, checkpoints (recording
        // them in last_send and in the sender log), then dies. Its old
        // transport's retransmission window dies with it, and the new
        // incarnation re-executes from *after* the sends — so the only
        // surviving copies are in the checkpointed log, and the
        // RESPONSE (delivered 0 from you) must trigger their resend.
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        k0.app_send(1, 0, Bytes::from_static(b"a"), false);
        k0.app_send(1, 0, Bytes::from_static(b"b"), false);
        // The fabric eats both frames (chaos drop) — and the
        // checkpoint's CkptAdvance with them.
        k0.do_checkpoint(vec![], 1);
        while eps[1].try_recv().is_ok() {}
        net.kill(0);
        let ep0b = net.respawn(0);
        let store = CheckpointStore::new(k0.ckpt_storage());
        let mut k0b = Kernel::new(0, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k0b.set_incarnation(2);
        let image = k0b.load_checkpoint().expect("checkpoint exists");
        k0b.restore(image).expect("image restores");
        k0b.begin_recovery();
        pump(&k1, &eps[1]); // ROLLBACK in, RESPONSE (delivered 0) out
        while let Ok(env) = ep0b.try_recv() {
            k0b.ingest(env);
        }
        assert!(!k0b.is_recovering());
        // The RESPONSE resupplied both logged sends.
        pump(&k1, &eps[1]);
        assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], b"a");
        assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], b"b");
    }

    #[test]
    fn rollback_rebroadcast_reaches_late_incarnations() {
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        drop(k1);
        // Both ranks die "simultaneously"; rank 0 recovers first and
        // broadcasts while rank 1 is still dead.
        net.kill(0);
        net.kill(1);
        let ep0b = net.respawn(0);
        let store = CheckpointStore::new(k0.ckpt_storage());
        let sim = lclog_simnet::SimClock::new();
        let cfg = RunConfig::new(ProtocolKind::Tdi).with_clock(crate::Clock::Sim(sim.clone()));
        let mut k0b = Kernel::new(0, 2, cfg.clone(), net.clone(), store.clone());
        k0b.set_incarnation(2);
        k0b.begin_recovery();
        // The first broadcast is dropped (rank 1 dead).
        sim.advance(RETRY_INTERVAL);
        let ep1b = net.respawn(1);
        let mut k1b = Kernel::new(1, 2, cfg, net.clone(), store);
        k1b.set_incarnation(2);
        k1b.begin_recovery();
        // k0's tick rebroadcasts; k1 (now alive) answers.
        k0b.tick();
        while let Ok(env) = ep1b.try_recv() {
            k1b.ingest(env);
        }
        while let Ok(env) = ep0b.try_recv() {
            k0b.ingest(env);
        }
        // One more round so k1's own rollback (sent before k0's
        // rebroadcast reached it) also completes.
        k1b.tick();
        while let Ok(env) = ep0b.try_recv() {
            k0b.ingest(env);
        }
        while let Ok(env) = ep1b.try_recv() {
            k1b.ingest(env);
        }
        assert!(!k0b.is_recovering());
        assert!(!k1b.is_recovering());
        assert_eq!(k0b.recovery_phase(), RecoveryPhase::Synced);
        assert_eq!(k1b.recovery_phase(), RecoveryPhase::Synced);
        drop(eps);
    }

    // Regression: `on_deliver` rejecting a message the delivery gate
    // approved used to hit `expect("delivery gate approved this
    // message")` and abort the whole process. TAG's gate never decodes
    // the piggyback (PWD records order, it does not constrain it), so
    // a poisoned piggyback sails through the gate and fails only in
    // the merge — which must now fault this one rank, not abort.
    #[test]
    fn poisoned_piggyback_faults_rank_instead_of_aborting() {
        let (mut ks, _net, _eps) = harness(2, ProtocolKind::Tag);
        let mut k1 = ks.pop().unwrap();
        let sink = EventSink::recording(crate::Clock::Real);
        k1.set_event_sink(sink.clone());
        assert!(!k1.is_desynced());
        k1.state.lock().del.admit(
            0,
            AppWire {
                tag: 3,
                send_index: 1,
                piggyback: Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
                needs_ack: false,
                data: Bytes::from_static(b"poison"),
            },
        );
        // The gate approves (FIFO next + PWD records any order), the
        // merge rejects: the message is discarded, not delivered.
        assert!(k1.try_deliver(RecvSpec::any()).is_none());
        assert!(k1.is_desynced(), "rank must be marked desynchronized");
        let snap = k1.snapshot();
        assert_eq!(snap.stats.delivers, 0, "merge failure must not count");
        assert!(
            sink.take().iter().any(|e| matches!(
                e.kind,
                EventKind::TrackingDesync { src: 0, send_index: 1 }
            )),
            "timeline must record the desync"
        );
    }

    #[test]
    fn crc_valid_frame_around_garbage_is_dropped_not_panicked() {
        // Any fabric peer can frame bytes that are not a wire message.
        let (ks, net, eps) = harness(2, ProtocolKind::Tdi);
        raw_peer(crate::logger_rank(2), &net).send_encoded(1, Bytes::from_static(&[0xFF]));
        ks[0].app_send(1, 0, Bytes::from_static(b"real"), false);
        pump(&ks[1], &eps[1]);
        assert_eq!(ks[1].snapshot().queued, 1);
        assert_eq!(&ks[1].try_deliver(RecvSpec::any()).unwrap().data[..], b"real");
    }

    /// What rank 1 of a three-rank world — recovering, if asked —
    /// counts as corrupt after slot `from` sent it `forged`.
    /// Regressions: each frame below used to trip a `debug_assert!` or
    /// index out of bounds, and any fabric peer can send it.
    fn corrupt_count_after(from: Rank, recovering: bool, forged: &[WireMsg]) -> u64 {
        // TDI-S: the one protocol that installs resync snapshots.
        let (ks, net, eps) = harness(3, ProtocolKind::TdiSparse(8));
        if recovering {
            ks[1].begin_recovery();
        }
        let mut peer = raw_peer(from, &net);
        for msg in forged {
            peer.send_msg(1, msg);
        }
        pump(&ks[1], &eps[1]);
        // Still serving: a real message from rank 2, which forges
        // nothing, gets through afterwards.
        raw_peer(2, &net).send_msg(1, &WireMsg::Ack(1));
        pump(&ks[1], &eps[1]);
        assert_eq!(ks[1].rendezvous_progress(2).0, 1);
        ks[1].snapshot().corrupt_detected
    }

    #[test]
    fn resync_request_naming_another_rank_is_a_counted_drop() {
        assert_eq!(corrupt_count_after(0, false, &[WireMsg::ResyncReq(1)]), 1);
    }

    #[test]
    fn service_bound_messages_at_an_app_rank_are_counted_drops() {
        let suspect = SuspectWire { rank: 0, incarnation: 1 };
        let forged = [WireMsg::LogDets(vec![]), WireMsg::LogQuery(0), WireMsg::Suspect(suspect)];
        assert_eq!(corrupt_count_after(0, false, &forged), 3);
    }

    #[test]
    fn recovery_answers_to_a_running_incarnation_are_counted_drops() {
        // Rank 1 never broadcast `ROLLBACK` nor queried the logger.
        let response = ResponseWire { delivered_from_you: 9, dets: vec![], epoch: 1 };
        let forged = [WireMsg::Response(response), WireMsg::LogQueryResp(vec![])];
        assert_eq!(corrupt_count_after(0, false, &forged), 2);
    }

    /// The service slot (`n`) hosts only the event logger and the
    /// membership arbiter; a rank-to-rank message from there used to
    /// index an `n`-long per-peer vector at `n` and panic.
    #[test]
    fn rank_messages_from_the_service_slot_are_counted_drops() {
        let service = 3;
        let app = AppWire {
            tag: 0,
            send_index: 1,
            piggyback: Bytes::new(),
            needs_ack: false,
            data: Bytes::from_static(b"forged"),
        };
        let rollback = RollbackWire { last_deliver_index: vec![0; 3], epoch: 2 };
        let advance = CkptAdvanceWire { delivered_from_you: 1, total_delivered: 1 };
        for forged in [
            WireMsg::App(app),
            WireMsg::Ack(1),
            WireMsg::Rollback(rollback),
            WireMsg::CkptAdvance(advance),
            // A well-formed three-rank snapshot: epoch 1, seq 1, zeros.
            WireMsg::ResyncSnap(Bytes::from_static(&[1, 1, 0, 0, 0])),
        ] {
            assert_eq!(corrupt_count_after(service, false, &[forged]), 1);
        }
        // `RESPONSE` reaches its handler only while rank 1 recovers.
        let response = ResponseWire { delivered_from_you: 9, dets: vec![], epoch: 1 };
        assert_eq!(corrupt_count_after(service, true, &[WireMsg::Response(response)]), 1);
    }

    // Both ways an incarnation learns it was declared dead must reach
    // the flag engines poll before the carrying `ingest_batch` returns.
    #[test]
    fn fencing_verdicts_reach_the_polled_flag_within_the_ingest_call() {
        let view = |epoch, floor: [u64; 2]| MembershipView { epoch, floor: floor.to_vec() };
        // A `FENCED` notice: rank 1 holds a view that fences rank 0's
        // incarnation 1, so rank 0's next frame draws the notice.
        let (ks, _net, eps) = harness(2, ProtocolKind::Tdi);
        ks[1].apply_membership(view(1, [2, 1]));
        for rejected in 1..=2 {
            ks[0].app_send(1, 0, Bytes::from_static(b"zombie"), false);
            pump(&ks[1], &eps[1]);
            assert_eq!(ks[1].snapshot().fenced_rejected, rejected);
            assert!(ks[1].try_deliver(RecvSpec::any()).is_none());
        }
        assert!(!ks[0].is_fenced() && !ks[1].is_fenced());
        pump(&ks[0], &eps[0]);
        assert!(ks[0].is_fenced());

        // A membership view over the wire, from the arbiter's slot.
        let (ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let mut arbiter = raw_peer(crate::logger_rank(2), &net);
        arbiter.send_msg(0, &WireMsg::Membership(view(1, [1, 1])));
        // Stale (epoch not above the applied one): changes nothing.
        arbiter.send_msg(0, &WireMsg::Membership(view(1, [2, 1])));
        pump(&ks[0], &eps[0]);
        assert!(!ks[0].is_fenced());
        // Newer, with a floor above our incarnation: fenced.
        arbiter.send_msg(0, &WireMsg::Membership(view(2, [2, 1])));
        pump(&ks[0], &eps[0]);
        assert!(ks[0].is_fenced());
    }

    // Duplicate-suppression audit: a respawned incarnation re-executes
    // its sends with *reused* send_indexes. If the receiver still holds
    // the pre-crash copy in its queue, the resend must be recognized as
    // the same message — delivered exactly once, neither wrongly
    // dropped (it was never delivered) nor double-delivered.
    #[test]
    fn reused_send_index_across_incarnations_delivers_exactly_once() {
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        // Incarnation 1 of rank 0 sends; rank 1 queues but does NOT
        // deliver before rank 0 dies without a checkpoint.
        k0.app_send(1, 0, Bytes::from_static(b"once"), false);
        pump(&k1, &eps[1]);
        net.kill(0);
        let ep0b = net.respawn(0);
        let store = CheckpointStore::new(k0.ckpt_storage());
        let mut k0b = Kernel::new(0, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k0b.set_incarnation(2);
        k0b.begin_recovery();
        pump(&k1, &eps[1]); // ROLLBACK in → RESPONSE (delivered 0 from you) out
        while let Ok(env) = ep0b.try_recv() {
            k0b.ingest(env);
        }
        assert!(!k0b.is_recovering());
        // Roll-forward regenerates send_index 1. Rank 1 never delivered
        // it, so suppression must NOT swallow it.
        let (idx, sent) = k0b.app_send(1, 0, Bytes::from_static(b"once"), false);
        assert_eq!(idx, 1, "re-execution reuses the send_index");
        assert!(sent, "undelivered send must be retransmitted");
        // Rank 1 now holds two copies of (src 0, send_index 1): the
        // queued pre-crash one and the incarnation-2 resend.
        pump(&k1, &eps[1]);
        let m = k1.try_deliver(RecvSpec::any()).expect("delivered exactly once");
        assert_eq!(m.src, 0);
        assert_eq!(&m.data[..], b"once");
        assert!(
            k1.try_deliver(RecvSpec::any()).is_none(),
            "the duplicate copy must not deliver a second time"
        );
        assert_eq!(k1.snapshot().stats.delivers, 1);
    }

    #[test]
    fn concurrent_send_and_ingest_keep_counters_exact() {
        // Rank 0's app thread hammers app_send while another thread
        // concurrently ingests rank 0's inbound traffic — the kernel
        // is `Sync` and must stay exact even so: first rendezvous
        // acks, then a ROLLBACK answered from the whole log. Every
        // send must be counted once and every message delivered once.
        use std::time::Instant;

        let (mut ks, net, mut eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let mut k0 = ks.pop().unwrap();
        let sink = EventSink::recording(crate::Clock::Real);
        k0.set_event_sink(sink.clone());
        let k0 = Arc::new(k0);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let ingester = {
            let (k0, stop) = (Arc::clone(&k0), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match ep0.try_recv() {
                        Ok(env) => k0.ingest(env),
                        Err(_) => std::hint::spin_loop(),
                    }
                }
            })
        };
        // Each payload is its own send_index.
        let mut next = 0u64;
        let mut send = |needs_ack| {
            next += 1;
            k0.app_send(1, 0, Bytes::copy_from_slice(&next.to_le_bytes()), needs_ack);
        };
        let logged = 10_000u64;
        for _ in 0..logged {
            send(true);
            // Keep rank 1 consuming so acks flow back.
            pump(&k1, &ep1);
            while k1.try_deliver(RecvSpec::any()).is_some() {}
        }
        assert_eq!(k0.snapshot().stats.sends, logged);
        assert_eq!(k1.snapshot().stats.delivers, logged);

        // Rank 1 dies with nothing checkpointed; its successor's
        // ROLLBACK makes the ingester resend the whole log. This
        // thread keeps the app side of rank 0 going from before the
        // burst starts until the timeline says it is over.
        net.kill(1);
        let ep1b = net.respawn(1);
        let store = CheckpointStore::new(k1.ckpt_storage());
        let mut k1b = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k1b.set_incarnation(2);
        k1b.begin_recovery();
        let deadline = Instant::now() + Duration::from_secs(60);
        let resent = loop {
            send(false);
            assert!(k0.try_deliver(RecvSpec::any()).is_none());
            let burst = sink.take().into_iter().find_map(|e| match e.kind {
                EventKind::LogResent { to: 1, count } => Some(count as u64),
                _ => None,
            });
            if let Some(count) = burst {
                break count;
            }
            assert!(Instant::now() < deadline, "resend burst stalled");
        };
        let snap = k0.snapshot();
        let sends = snap.stats.sends;
        assert!(resent >= logged && resent <= sends);
        assert_eq!(snap.data_plane.zero_copy_resends, resent);
        assert_eq!(snap.log_entries as u64, sends);

        // The successor admits every send_index — resent or fresh,
        // however the two interleaved on the wire — exactly once.
        let mut expected = 1u64;
        while expected <= sends {
            pump(&k1b, &ep1b);
            while let Some(msg) = k1b.try_deliver(RecvSpec::any()) {
                assert_eq!(msg.data[..], expected.to_le_bytes());
                expected += 1;
            }
            assert!(Instant::now() < deadline, "replay stalled at {expected}");
        }
        stop.store(true, Ordering::Release);
        ingester.join().unwrap();
        let snap = k1b.snapshot();
        assert_eq!((snap.stats.delivers, snap.queued), (sends, 0));
        assert_eq!(snap.recovery_phase, RecoveryPhase::Synced);
    }

    #[test]
    fn concurrent_ingest_and_deliver_is_fifo_and_exactly_once() {
        // Fig. 4b on the receiver: a comm-style thread admits frames
        // from two senders (`ingest_batch` + `tick`) while an app-style
        // thread delivers and checkpoints. Each payload is its
        // per-sender sequence number, so a lost, duplicated or
        // reordered delivery shows as a gap.
        use std::time::Instant;

        const PER_SENDER: u64 = 2_000;
        let (mut ks, _net, mut eps) = harness(3, ProtocolKind::Tdi);
        let k2 = Arc::new(ks.pop().unwrap());
        let ep2 = eps.pop().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let comm = {
            let (k2, stop) = (Arc::clone(&k2), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let batch: Vec<_> = std::iter::from_fn(|| ep2.try_recv().ok()).collect();
                    k2.ingest_batch(batch);
                    k2.tick();
                }
            })
        };
        let app = {
            let k2 = Arc::clone(&k2);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                let mut next = [1u64; 2];
                let mut delivered = 0u64;
                while delivered < 2 * PER_SENDER {
                    let Some(msg) = k2.try_deliver(RecvSpec::any()) else {
                        assert!(Instant::now() < deadline, "stalled at {delivered}");
                        std::thread::yield_now();
                        continue;
                    };
                    let seq = u64::from_le_bytes(msg.data[..].try_into().unwrap());
                    assert_eq!(seq, next[msg.src], "sender {} out of sequence", msg.src);
                    next[msg.src] += 1;
                    delivered += 1;
                    if delivered.is_multiple_of(256) {
                        k2.do_checkpoint(vec![], delivered);
                    }
                }
            })
        };
        for seq in 1..=PER_SENDER {
            for k in &ks {
                k.app_send(2, 0, Bytes::copy_from_slice(&seq.to_le_bytes()), false);
            }
        }
        // Keep absorbing rank 2's checkpoint notices until it is done.
        while !app.is_finished() {
            for (k, ep) in ks.iter().zip(&eps) {
                pump(k, ep);
            }
            std::thread::yield_now();
        }
        app.join().unwrap();
        stop.store(true, Ordering::Release);
        comm.join().unwrap();
        let snap = k2.snapshot();
        assert_eq!(snap.stats.delivers, 2 * PER_SENDER);
        assert_eq!(snap.queued, 0);
    }

    #[test]
    fn resync_pacer_admits_boundedly_and_resets_on_settle() {
        let mut pacer = ResyncPacer::new(1, 2);
        let t0 = std::time::Instant::now();
        // The protocol re-queues the request on every gate check, so
        // the pacer sees the same source once per tick. One simulated
        // tick per millisecond for 400 ms.
        let mut admitted = 0usize;
        let mut first_admitted = false;
        for ms in 0..400u64 {
            let now = t0 + Duration::from_millis(ms);
            let due = pacer.admit(&[0], now);
            if ms == 0 {
                first_admitted = !due.is_empty();
            }
            admitted += due.len();
        }
        assert!(first_admitted, "first request must go out immediately");
        assert!(admitted >= 2, "deadline passing must re-request: {admitted}");
        assert!(
            admitted <= 20,
            "request storm: {admitted} sends in 400 ticks"
        );
        // Snapshot arrived: the schedule restarts, so the next desync
        // gets a fresh immediate first request.
        pacer.settle(0);
        let due = pacer.admit(&[0], t0 + Duration::from_millis(400));
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn lost_resync_snap_converges_without_request_storm() {
        use crate::Clock;
        use lclog_simnet::SimClock;

        // Two kernels under TDI-S on a virtual clock. Rank 1's sparse
        // receiver is put into the needs-resync state the same way the
        // codec's own unit test does it — a delta frame whose FULL
        // predecessor it never saw — then the *kernel* machinery runs
        // for real: tick() drains the protocol's re-requests, the
        // pacer gates them, and the RESYNC_REQ/RESYNC_SNAP round-trip
        // crosses the wire.
        let n = 2;
        let sim = SimClock::new();
        let net = SimNet::new(n + 1, NetConfig::direct());
        let store = CheckpointStore::new(Arc::new(MemStore::new()));
        let endpoints: Vec<_> = (0..n).map(|r| net.attach(r)).collect();
        let kernels: Vec<Kernel> = (0..n)
            .map(|r| {
                let cfg = RunConfig::new(ProtocolKind::TdiSparse(64))
                    .with_clock(Clock::Sim(sim.clone()));
                Kernel::new(r, n, cfg, net.clone(), store.clone())
            })
            .collect();

        // A throwaway sender protocol manufactures a mid-chain delta
        // frame (its first frame per channel is FULL, later ones are
        // deltas).
        let mut side_sender = make_protocol(ProtocolKind::TdiSparse(64), 0, n);
        let _full = side_sender.on_send(1, 1);
        let delta = side_sender.on_send(1, 2).piggyback;
        assert_eq!(
            kernels[1]
                .state
                .lock()
                .trk
                .protocol
                .deliverable(0, 2, &delta),
            DeliveryVerdict::Wait,
            "delta without base must wait and queue a resync request"
        );
        // Rank 0's kernel must answer snapshot requests with the state
        // that actually produced the delta, so install the side sender
        // as its live protocol.
        kernels[0].state.lock().trk.protocol = side_sender;

        // Simulate the stall: rank 1's app keeps polling (each gate
        // check re-queues the request) and the kernel ticks once per
        // simulated millisecond. Rank 0 receives the REQ and answers
        // with a SNAP, but rank 1 never ingests it — the lost-snapshot
        // window.
        for _ in 0..400 {
            sim.advance(Duration::from_millis(1));
            let _ = kernels[1]
                .state
                .lock()
                .trk
                .protocol
                .deliverable(0, 2, &delta);
            kernels[1].tick();
            while let Ok(env) = endpoints[0].try_recv() {
                kernels[0].ingest(env);
            }
            kernels[0].tick();
            // The SNAP replies (and rank 0's acks) park unread at
            // rank 1's endpoint — the lost-snapshot window.
        }
        // The pacer's backoff attempt counter is exactly the number of
        // `RESYNC_REQ` frames the kernel *originated* (transport-level
        // retransmission of unacked frames is bounded separately by
        // the retransmit budget, so it is excluded here on purpose).
        let originated = {
            let st = kernels[1].state.lock();
            let slot = st.resync_pacer.slots[0].as_ref();
            slot.expect("slot live while desynced").backoff.attempt()
        };
        assert!(
            originated >= 2,
            "a lost snapshot must be re-requested: {originated}"
        );
        assert!(
            originated <= 25,
            "request storm: {originated} REQ frames originated in 400 ticks"
        );

        // The "lost" snapshot finally arrives (any retransmitted copy
        // will do): the channel heals and the pacer schedule resets.
        while let Ok(env) = endpoints[1].try_recv() {
            kernels[1].ingest(env);
        }
        assert_eq!(
            kernels[1]
                .state
                .lock()
                .trk
                .protocol
                .deliverable(0, 2, &delta),
            DeliveryVerdict::Deliver,
            "installed snapshot must unblock the parked delta"
        );
        assert!(kernels[1].state.lock().resync_pacer.slots[0].is_none());
    }
}
