//! The rollback-recovery kernel: the paper's Algorithm 1 for one rank
//! incarnation, as plain single-threaded state.
//!
//! The round driver feeds it raw envelopes ([`Kernel::ingest_batch`])
//! and the rank's application pulls deliverable messages
//! ([`Kernel::try_deliver`]) through a handle it may own, so every
//! mutable field lives in one `state: RefCell<State>` and every `&self`
//! method borrows it once:
//!
//! | part of `State`                   | owns                                                      | Algorithm 1    |
//! |-----------------------------------|-----------------------------------------------------------|----------------|
//! | `rec` ([`crate::recovery`])       | state machine, sender log, suppression bound, checkpoints | 8–9, 12, 32–53 |
//! | `trk` ([`crate::tracking`])       | `LoggingProtocol` box, `last_send_index`, stats           | 10–11, 15–31   |
//! | `del` ([`crate::delivery`])       | receiving queue, `last_deliver_index`                     | 13–17          |
//! | `transport` ([`crate::transport`]) | one `WireMsg` per envelope in two segments, byte counts   | —              |
//! | `acked`, `rendezvous`, `resync_pacer` | rendezvous acks and resend timer, `RESYNC_REQ` pacing | —              |
//! | `desynced`                        | the verdict the driver polls between calls                | —              |
//!
//! Failures are announced and channels are reliable and FIFO, as the
//! paper assumes: the driver kills an incarnation and brings up its
//! successor, which broadcasts `ROLLBACK`. Nothing here watches for
//! silence, and nothing is retransmitted below the protocol: what died
//! with an inbox is resent from the sender log on `ROLLBACK`, and a
//! receiver discards a copy it already holds or consumed by its
//! `send_index`.
//!
//! One thread drives every rank of a job, so there is no lock and no
//! lock order: a `Kernel` is neither `Send` nor `Sync`, and the
//! compiler keeps it on the thread that built it. Every public call is
//! one borrow, and whatever it sends goes out inside it — the fabric
//! send never blocks — so send order, wire order and log order agree
//! by construction. [`Kernel::ingest_batch`] borrows once per batch.
//! A log resend burst answering `ROLLBACK` or `RESPONSE` goes out in
//! one pass.
//!
//! A checkpoint sends `CHECKPOINT_ADVANCE` only to the senders whose
//! messages it newly covers, so on a ring it is one frame, not n − 1.
//! Sections proportional to n are still accepted: that fan-out under
//! TEL (its peers prune on any rank's checkpoint), a `ROLLBACK`
//! (re)broadcast.

use crate::backoff::RetryBackoff;
use crate::config::RunConfig;
use crate::delivery::{Admit, Delivery};
use crate::events::{EventKind, EventSink};
use crate::fault::Fault;
use crate::log::{LogEntry, SenderLog};
use crate::message::{
    AppMsg, AppWire, CkptAdvanceWire, RecvSpec, ResponseWire, RollbackWire, WireMsg,
};
use crate::recovery::{RecoveryLayer, RecoveryPhase, Transition};
use crate::recvq::Pending;
use crate::replicator::Replicator;
use crate::tracking::Tracking;
use crate::transport::{DataPlaneStats, Transport};
use bytes::Bytes;
use lclog_core::{make_protocol, CounterVector, DeliveryVerdict, Rank, TrackingStats};
use lclog_simnet::{Envelope, SimNet};
use lclog_stable::{CheckpointStore, StableStorage};
use lclog_wire::{encode_to_vec, impl_wire_struct};
use std::cell::RefCell;
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

/// One-borrow view of everything the harnesses report about
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
    /// Application frames discarded by `send_index` (Algorithm 1's
    /// duplicate discard): already consumed, or already queued.
    pub dup_discarded: u64,
    /// Envelopes that were not a message a correct peer sends: counted
    /// and dropped.
    pub corrupt_detected: u64,
    /// Data-plane byte accounting: frames built, bytes framed, payload
    /// copies, zero-copy resends.
    pub data_plane: DataPlaneStats,
}

/// Per-rank rollback-recovery kernel: one state borrow per `&self`
/// method (see the module docs). Neither `Send` nor `Sync`: the thread
/// that builds a kernel is the only one that drives it.
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<lclog_runtime::Kernel>();
/// ```
pub struct Kernel {
    me: Rank,
    n: usize,
    cfg: RunConfig,
    /// Which incarnation of `me` this kernel is (1-based; the `Debug`
    /// dump names it).
    incarnation: u64,
    /// TEL event-logger service rank (slot `n`), when the protocol
    /// uses one. Constant per protocol kind.
    logger: Option<Rank>,
    state: RefCell<State>,
    /// Structured timeline collector (disabled by default).
    events: EventSink,
}

/// Everything mutable about one rank incarnation.
struct State {
    rec: RecoveryLayer,
    trk: Tracking,
    del: Delivery,
    /// Every wire message crosses it, one encoded `WireMsg` per
    /// envelope (an `App` payload shared as its second segment). Sends
    /// to dead ranks are lost with the inbox; recovery resends cover
    /// them.
    transport: Transport,
    /// Application frames discarded by `send_index`.
    dup_discarded: u64,
    /// Highest acknowledged rendezvous send per destination.
    acked: CounterVector,
    /// The rendezvous send the application waits on, `(dst,
    /// send_index, last transmission)`: `tick` resends it every
    /// [`RETRY_INTERVAL`] until it is acknowledged.
    rendezvous: Option<(Rank, u64, Instant)>,
    /// Full-jitter pacing of outgoing `RESYNC_REQ` frames (TDI-S): the
    /// protocol re-queues a request on *every* gate check while a
    /// channel is parked behind an undecodable frame, so without
    /// pacing each kernel tick re-sends the request and a slow or lost
    /// `RESYNC_SNAP` turns into a request storm.
    resync_pacer: ResyncPacer,
    /// Set when the tracking merge rejected a gate-approved message:
    /// the protocol state can no longer be trusted. The driver polls it
    /// and surfaces [`crate::Fault::Desync`] so the rank rebuilds
    /// through the rollback path instead of aborting the process.
    desynced: bool,
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

    /// The body of [`Kernel::app_send`], on the borrowed state (inlined
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
            let head = self.transport.send_msg(dst, &msg);
            let WireMsg::App(w) = msg else { unreachable!() };
            LogEntry::from_parts(dst as u32, w, head)
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
        let logger = cfg.protocol.uses_event_logger().then(|| crate::logger_rank(n));
        let transport = Transport::new(me, net);
        let now = cfg.clock.now();
        let state = State {
            rec: RecoveryLayer::new(n, ckpt_store, now),
            trk: Tracking::new(protocol, n),
            del: Delivery::new(n),
            transport,
            dup_discarded: 0,
            acked: CounterVector::zeroed(n),
            rendezvous: None,
            resync_pacer: ResyncPacer::new(me, n),
            desynced: false,
        };
        Kernel {
            me,
            n,
            cfg,
            incarnation: 1,
            logger,
            state: RefCell::new(state),
            events: EventSink::disabled(),
        }
    }

    /// Name the incarnation this kernel is (1 when never called). The
    /// wire carries no incarnation: per-pair FIFO already delivers a
    /// dead incarnation's frames before its successor's.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
    }

    /// The blocking engine's rendezvous state for `dst`: the highest
    /// acknowledged `send_index`.
    pub fn rendezvous_progress(&self, dst: Rank) -> u64 {
        self.state.borrow().acked.get(dst)
    }

    /// Attach a timeline collector (see [`crate::events`]). Call
    /// before the kernel is handed to the driver.
    pub fn set_event_sink(&mut self, sink: EventSink) {
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

    /// Consistent snapshot for reporting, one borrow.
    pub fn snapshot(&self) -> KernelSnapshot {
        let st = self.state.borrow();
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
            dup_discarded: st.dup_discarded,
            corrupt_detected: st.transport.corrupt_detected,
            data_plane: st.transport.dp.clone(),
        }
    }

    /// Where the recovery state machine stands.
    pub fn recovery_phase(&self) -> RecoveryPhase {
        self.state.borrow().rec.machine.phase().clone()
    }

    /// True while this incarnation is still collecting recovery
    /// information.
    pub fn is_recovering(&self) -> bool {
        self.state.borrow().rec.machine.is_recovering()
    }

    /// True once the tracking merge rejected a gate-approved message.
    /// The driver must stop the application with
    /// [`crate::Fault::Desync`]: the protocol state is untrusted, the
    /// successor rebuilds via `ROLLBACK`.
    pub fn is_desynced(&self) -> bool {
        self.state.borrow().desynced
    }

    /// The protocol's dependency-interval vector (`depend_interval[n]`
    /// for TDI), when the protocol tracks one. This is the invariant
    /// half of the schedule explorer's order-insensitivity check
    /// (§III.E): every legal delivery schedule must converge to the
    /// same vector.
    pub fn interval_vector(&self) -> Option<Vec<u64>> {
        self.state.borrow().trk.protocol.interval_vector()
    }

    /// The first send to `dst` with a `send_index` in
    /// `(after, last_send_index[dst]]` that the sender log no longer
    /// holds, if any. A rollback of `dst` to a checkpoint that
    /// delivered `after` messages from us needs every one of them:
    /// the schedule explorer's log-GC invariant.
    pub fn log_gap(&self, dst: Rank, after: u64) -> Option<u64> {
        let st = self.state.borrow();
        let mut want = after + 1;
        for e in st.rec.log.entries_after(dst, after) {
            if e.send_index != want {
                break;
            }
            want += 1;
        }
        (want <= st.trk.last_send_index.get(dst)).then_some(want)
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
    /// One borrow: index bump, piggyback, suppression check, transmit,
    /// log insert. The fabric send is non-blocking, so the send is
    /// atomic against `ROLLBACK`: the survivor side either sees the
    /// entry in the log (and resends it) or has already clamped the
    /// bound this send is checked against.
    ///
    /// ## Zero-copy budget
    ///
    /// A transmitted send performs **exactly one allocation**, of the
    /// frame's head: the transport encodes everything of the
    /// `WireMsg::App` before the payload in a single pass and hands
    /// back that buffer, and `data` itself travels as the frame's
    /// second segment, never copied. The sender-log entry stores both
    /// for verbatim resends — the log entry, the in-flight envelope and
    /// the caller hold refcounted handles on the same buffers, and the
    /// entry's `piggyback`/`data` handles move in from the send without
    /// a decode pass. A suppressed send encodes its head once into the
    /// log and transmits nothing.
    pub fn app_send(&self, dst: Rank, tag: u32, data: Bytes, needs_ack: bool) -> (u64, bool) {
        let mut st = self.state.borrow_mut();
        let (send_index, transmitted) = st.app_send(dst, tag, data, needs_ack);
        if needs_ack && transmitted {
            st.rendezvous = Some((dst, send_index, self.cfg.clock.now()));
        }
        (send_index, transmitted)
    }

    // ---------------------------------------------------------------
    // Ingestion and delivery (lines 13–31)
    // ---------------------------------------------------------------

    /// Process one raw envelope from the fabric.
    pub fn ingest(&self, env: Envelope) {
        self.ingest_batch([env]);
    }

    /// Process a batch of raw envelopes in arrival order. One borrow
    /// covers the whole batch.
    pub fn ingest_batch(&self, envs: impl IntoIterator<Item = Envelope>) {
        let st = &mut *self.state.borrow_mut();
        for env in envs {
            self.ingest_env(st, env);
        }
    }

    /// Decode one raw envelope as a [`WireMsg`] and apply it.
    fn ingest_env(&self, st: &mut State, env: Envelope) {
        let src = env.src;
        // Zero-copy decode: an `App` payload is the envelope's body and
        // its piggyback a window into the head, not fresh allocations.
        // Any fabric peer can send bytes that are not a message (a
        // retired tag among them); they are counted and dropped, and
        // change nothing else.
        let Ok(msg) = WireMsg::from_frame(&env.head, env.body) else {
            st.transport.corrupt_detected += 1;
            return;
        };
        match msg {
            // Frames no correct peer sends — from the service slot, any
            // but the logger's (other arms index by `src`); an answer to
            // a `ROLLBACK` or `LOG_QUERY` this incarnation never sent, a
            // resync request naming someone else, a service-bound
            // message at an application rank — are counted and dropped
            // like undecodable ones.
            _ if src >= self.n && !matches!(msg, WireMsg::LogAck(_) | WireMsg::LogQueryResp(_)) => {
                st.transport.corrupt_detected += 1;
            }
            WireMsg::Response(_) | WireMsg::LogQueryResp(_)
                if *st.rec.machine.phase() == RecoveryPhase::Running =>
            {
                st.transport.corrupt_detected += 1;
            }
            WireMsg::ResyncReq(who) if who as Rank != src => st.transport.corrupt_detected += 1,
            WireMsg::LogDets(_) | WireMsg::LogQuery(_) => st.transport.corrupt_detected += 1,
            WireMsg::App(wire) => match st.del.admit(src, wire) {
                Admit::Queued => {}
                Admit::Repetitive {
                    needs_ack,
                    send_index,
                } => {
                    st.dup_discarded += 1;
                    // The re-ack a repetitive rendezvous duplicate is owed.
                    if needs_ack {
                        st.transport.send_msg(src, &WireMsg::Ack(send_index));
                    }
                }
                Admit::Duplicate => st.dup_discarded += 1,
            },
            WireMsg::Ack(idx) => raise(&mut st.acked, src, idx),
            WireMsg::Rollback(w) => self.handle_rollback(st, src, w),
            WireMsg::Response(w) => self.handle_response(st, src, w),
            WireMsg::CkptAdvance(w) => {
                let State { rec, trk, acked, .. } = st;
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
                let State { rec, trk, .. } = st;
                let (_, tr) = rec.machine.note_logger_synced();
                self.emit_transition(tr);
                trk.protocol.install_recovery_info(dets);
                if let Some(done) = rec.machine.try_complete(self.cfg.clock.now()) {
                    self.finish_sync(trk, done);
                }
            }
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
    /// whose protocol dependency gate opens (lines 15–31).
    ///
    /// One borrow: gate, extraction, piggyback merge, counter bump,
    /// rendezvous ack and TEL determinants see one protocol state and
    /// one queue.
    pub fn try_deliver(&self, spec: RecvSpec) -> Option<AppMsg> {
        let mut st = self.state.borrow_mut();
        if st.holds_delivery() {
            return None;
        }
        let State { trk, del, transport, desynced, .. } = &mut *st;
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
            *desynced = true;
            self.events.emit(
                self.me,
                EventKind::TrackingDesync {
                    src,
                    send_index: wire.send_index,
                },
            );
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
        let st = self.state.borrow();
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
            .borrow()
            .rec
            .checkpoint_due(self.cfg.checkpoint, step)
    }

    /// Take a checkpoint of `app_state` after `step`.
    ///
    /// The image is assembled and written to stable storage in one
    /// borrow — it has to be one consistent cut of log, counters and
    /// protocol state — and the `CHECKPOINT_ADVANCE` notices follow in
    /// the same call.
    pub fn do_checkpoint(&self, app_state: Vec<u8>, step: u64) {
        let mut st = self.state.borrow_mut();
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
        rec.loaded_version = None;
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
        // what they were last told. TEL peers also prune other ranks'
        // determinants on `total_delivered`, so under TEL every rank
        // hears every checkpoint.
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
    /// loop, or [`Fault::Desync`] when the image does not fit this
    /// kernel — a CRC-intact blob whose contents are not this rank's
    /// state (format drift, a hostile store): a counter vector that is
    /// not `n` long, a logged send addressed to itself or outside the
    /// system, or one past the image's own send count, or a protocol
    /// snapshot that does not decode. On error nothing was mutated
    /// (the image is checked, and every protocol decodes, before
    /// anything is installed), so the caller may fall back to the
    /// initial state and roll forward through normal recovery instead
    /// of aborting the process. (Algorithm 1's lines 43–44 restore
    /// every vector from `checkpoint.depend_interval` — an obvious
    /// typo we correct.)
    pub fn restore(&self, image: CheckpointImage) -> Result<(u64, Vec<u8>), Fault> {
        if !self.fits(&image) {
            return Err(Fault::Desync);
        }
        let mut st = self.state.borrow_mut();
        let State { rec, trk, del, .. } = &mut *st;
        let loaded = rec.loaded_version.take();
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
        rec.ckpt_version = loaded
            .or_else(|| rec.ckpt_store.latest_version(self.me))
            .unwrap_or(rec.ckpt_version);
        rec.steps_at_ckpt = image.step;
        Ok((image.step, image.app_state))
    }

    /// Can `image` be installed without indexing out of range: both
    /// counter vectors `n` long, and every logged send addressed to
    /// another rank with `1 ≤ send_index ≤ last_send[dst]`.
    fn fits(&self, image: &CheckpointImage) -> bool {
        let sent = &image.last_send;
        let logged = |e: &LogEntry| {
            let dst = e.dst as Rank;
            dst < self.n && dst != self.me && (1..=sent.get(dst)).contains(&e.send_index)
        };
        sent.len() == self.n && image.last_deliver.len() == self.n && image.log.iter().all(logged)
    }

    /// Load this rank's latest checkpoint image, if any. A stored blob
    /// that passes its CRC seal but does not decode as an image
    /// (format drift, wrong contents under the key) is as unusable as
    /// a torn one and reads as "no checkpoint" — the incarnation then
    /// restarts from the initial state and rolls forward through
    /// recovery instead of aborting the process. The image is decoded
    /// from one buffer, and every logged message in it stays a window
    /// into that buffer; [`Kernel::restore`] takes its generation from
    /// here rather than reading the image again.
    pub fn load_checkpoint(&self) -> Option<CheckpointImage> {
        let rec = &mut self.state.borrow_mut().rec;
        let (version, bytes) = rec.ckpt_store.load_latest(self.me)?;
        let image = lclog_wire::decode_from_bytes(&Bytes::from(bytes)).ok()?;
        rec.loaded_version = Some(version);
        Some(image)
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
        let mut st = self.state.borrow_mut();
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
        let mut kernel = Kernel::new(rank, n, cfg, net, ckpts);
        kernel.set_incarnation(incarnation);
        kernel.set_event_sink(sink);
        let mut image = kernel.load_checkpoint();
        if image.is_none() {
            if let Some((repl, raw_storage)) = remote {
                let restored = repl.restore_rank(rank, raw_storage, &kernel.events);
                if restored.is_some() {
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
    /// Peer `k`'s frame carries only `last_deliver_index[k]`, the one
    /// element it reads, so a broadcast costs O(n) bytes, not O(n²).
    fn broadcast_rollback(&self, st: &mut State) {
        let rec = &mut st.rec;
        rec.rollback_epoch += 1;
        let epoch = rec.rollback_epoch;
        let targets = rec.machine.pending_targets();
        self.events.emit(self.me, EventKind::RollbackBroadcast { epoch });
        for k in targets {
            let wire = RollbackWire {
                delivered_from_you: st.del.last_deliver_index.get(k),
                epoch,
            };
            st.transport.send_msg(k, &WireMsg::Rollback(wire));
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
    fn handle_rollback(&self, st: &mut State, src: Rank, w: RollbackWire) {
        // The rollback counter is the *authoritative* post-restore
        // count of our messages src's new incarnation delivered.
        // Anything we believed beyond it — an ack, or a RESPONSE-based
        // duplicate suppression bound obtained from the pre-crash
        // incarnation moments before it died (the crossing-recoveries
        // race of Fig. 2) — describes deliveries that have been rolled
        // back and must be forgotten, or we would suppress regenerated
        // messages the incarnation still needs.
        let upto = w.delivered_from_you;
        let State { rec, acked, .. } = st;
        rec.rollback_last_send_index.set(src, upto);
        acked.set(src, upto);
        // Under `log_gc_lag`, src's next advance releases up to the
        // previous one, which must not reach past the generation src
        // restored: that is its next checkpoint's fallback.
        if rec.peer_ckpt_advance.get(src) > upto {
            rec.peer_ckpt_advance.set(src, upto);
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
        let last = st.trk.last_send_index.get(src);
        self.resend_logged(st, src, upto, last);
        // Anything we had queued from the pre-failure incarnation will
        // be resent/regenerated with identical identities; keeping the
        // queued copies is both correct (dedup by send_index) and
        // faster.
        //
        // This `ROLLBACK` announces that src died. If we are recovering
        // too and src still owes us a `RESPONSE`, our own `ROLLBACK`
        // died with its predecessor's inbox: send it again now rather
        // than at the next timed rebroadcast.
        if st.rec.machine.is_recovering() && st.rec.machine.pending_targets().contains(&src) {
            self.broadcast_rollback(st);
        }
    }

    /// Resend the logged sends to `dst` with `send_index` in
    /// `(after, upto]`, oldest first, in one pass. Logged heads and
    /// payloads go out verbatim — refcount bumps, zero payload copies;
    /// the original piggyback (and `needs_ack`, which is safe:
    /// rendezvous acks are idempotent) ride along exactly as first
    /// framed.
    fn resend_logged(&self, st: &mut State, dst: Rank, after: u64, upto: u64) {
        let State { rec, transport, .. } = st;
        let burst = rec.log.entries_after(dst, after);
        let mut count = 0;
        for e in burst.take_while(|e| e.send_index <= upto) {
            transport.send_encoded(dst, e.to_wire());
            count += 1;
        }
        if count > 0 {
            self.events
                .emit(self.me, EventKind::LogResent { to: dst, count });
        }
    }

    /// Incarnation side of `RESPONSE` (lines 52–53): install the
    /// recovery info, possibly lift the barrier, then resupply.
    fn handle_response(&self, st: &mut State, src: Rank, w: ResponseWire) {
        let State {
            rec, trk, acked, ..
        } = st;
        raise(&mut rec.rollback_last_send_index, src, w.delivered_from_you);
        raise(acked, src, w.delivered_from_you);
        // A message the dead incarnation sent after its checkpoint but
        // that its peer had not consumed when it crashed may have been
        // lost in flight with a dying inbox. If it predates the
        // checkpoint (its index is within the restored `last_send`),
        // re-execution will not regenerate it — the checkpointed
        // sender log is its only surviving copy. Resend that window;
        // the receiver's dedup absorbs whatever did arrive.
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
        self.resend_logged(st, src, w.delivered_from_you, restored);
    }

    /// Periodic maintenance, one borrow: pace the sparse codec's
    /// resync requests, rebroadcast `ROLLBACK` to peers that have not
    /// responded (they may have been dead when the first broadcast
    /// went out — the multi-failure case of Fig. 2), and resend an
    /// unacknowledged rendezvous send.
    pub fn tick(&self) {
        let now = self.cfg.clock.now();
        let mut st = self.state.borrow_mut();
        let State { trk, transport, resync_pacer, .. } = &mut *st;
        // Frames queued behind an undecodable one stay parked until
        // the snapshot round-trip completes, so the *first* request
        // goes out on the first tick. The protocol re-queues the
        // request on every gate check while the snapshot is in flight;
        // the pacer lets a re-request out only on its backoff schedule.
        let resyncs = trk.protocol.take_resync_requests();
        if !resyncs.is_empty() {
            for src in resync_pacer.admit(&resyncs, now) {
                transport.send_msg(src, &WireMsg::ResyncReq(self.me as u32));
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
    }

    /// The backing store checkpoints were written to (tests re-create
    /// kernels around the same storage).
    #[cfg(test)]
    pub(crate) fn ckpt_storage(&self) -> std::sync::Arc<dyn lclog_stable::StableStorage> {
        std::sync::Arc::clone(self.state.borrow().rec.ckpt_store.storage())
    }
}

/// Per-source pacing of outgoing `RESYNC_REQ` frames.
///
/// The sparse protocol queues a resync request every time a gate check
/// hits an undecodable frame, which is every delivery attempt while
/// the snapshot round-trip is in flight. The pacer collapses that
/// stream into: one immediate request, then re-requests only after a
/// full-jitter backoff deadline passes (a request or its answer is
/// lost only with a dying inbox), with the schedule reset once a
/// snapshot arrives. The backoff is clock-free (seeded jitter), so
/// paced schedules stay deterministic under the explorer's virtual
/// clock.
struct ResyncPacer {
    /// Per-source schedule; allocated lazily (resyncs are rare).
    slots: Vec<Option<ResyncSlot>>,
    seed: u64,
}

struct ResyncSlot {
    backoff: RetryBackoff,
    /// Next instant a re-request may go out.
    deadline: Instant,
}

/// First re-request ceiling: about one wire round-trip.
const RESYNC_BACKOFF_INITIAL: Duration = Duration::from_millis(2);
/// Ceiling the re-request backoff saturates at.
const RESYNC_BACKOFF_CAP: Duration = Duration::from_millis(50);

impl ResyncPacer {
    fn new(me: Rank, n: usize) -> Self {
        ResyncPacer {
            slots: (0..n).map(|_| None).collect(),
            seed: 0x5EED_5EED ^ ((me as u64) << 32),
        }
    }

    /// Filter the protocol's drained requests down to the ones whose
    /// schedule allows a send now. First request per source goes out
    /// immediately; later ones wait out the jittered deadline.
    fn admit(&mut self, requests: &[Rank], now: Instant) -> Vec<Rank> {
        let mut due = Vec::new();
        for &src in requests {
            let Some(slot) = self.slots.get_mut(src) else {
                continue;
            };
            let slot = slot.get_or_insert_with(|| ResyncSlot {
                backoff: RetryBackoff::new(
                    RESYNC_BACKOFF_INITIAL,
                    RESYNC_BACKOFF_CAP,
                    self.seed ^ src as u64,
                ),
                deadline: now,
            });
            if now >= slot.deadline {
                slot.deadline = now + RESYNC_BACKOFF_INITIAL / 2 + slot.backoff.next_wait();
                due.push(src);
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
        let st = self.state.borrow();
        let State { rec, trk, del, .. } = &*st;
        f.debug_struct("Kernel")
            .field("me", &self.me)
            .field("incarnation", &self.incarnation)
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
            .field("dup_discarded", &st.dup_discarded)
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

    /// A bare endpoint at slot `me`: sends whatever the test says.
    fn raw_peer(me: Rank, net: &SimNet) -> Transport {
        Transport::new(me, net.clone())
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
        assert_eq!(k0.rendezvous_progress(1), 1);
        // Re-transmit the same message (as a recovering sender would).
        k0.state.borrow_mut().resend_unacked(1, 1);
        pump(&k1, &eps[1]);
        // Discarded as repetitive — not deliverable again…
        assert!(k1.try_deliver(RecvSpec::any()).is_none());
        // …but still acknowledged (Fig. 3's duplicate handling).
        pump(&k0, &eps[0]);
        assert_eq!(k0.rendezvous_progress(1), 1);
        assert_eq!(k1.snapshot().dup_discarded, 1);
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

    /// One rig turn for `k`: drain its endpoint, ingest the batch, tick.
    fn turn(k: &Kernel, ep: &lclog_simnet::Endpoint) {
        k.ingest_batch(std::iter::from_fn(|| ep.try_recv().ok()).collect::<Vec<_>>());
        k.tick();
    }

    #[test]
    fn a_resend_burst_longer_than_the_timeout_goes_out_once() {
        // Recovery resends 20 000 logged sends in one burst on the wall
        // clock. Nothing below the protocol times it or sends it again:
        // every message crosses once and replays in order, and the
        // incarnation discards no duplicate.
        const SENDS: u64 = 20_000;
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        for window in 0..SENDS / 250 {
            for i in window * 250..(window + 1) * 250 {
                k0.app_send(1, 0, Bytes::copy_from_slice(&i.to_le_bytes()), false);
            }
            turn(&k1, &eps[1]);
            while k1.try_deliver(RecvSpec::any()).is_some() {}
            turn(&k0, &eps[0]);
        }
        assert_eq!(k0.snapshot().log_entries, SENDS as usize);
        // Rank 1 dies having checkpointed nothing: every delivery is lost.
        net.kill(1);
        let ep1b = net.respawn(1);
        let store = CheckpointStore::new(k1.ckpt_storage());
        let mut k1b = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k1b.set_incarnation(2);
        assert!(k1b.load_checkpoint().is_none());
        k1b.begin_recovery();
        // The pair rig's order: survivor, incarnation, survivor.
        turn(&k0, &eps[0]);
        turn(&k1b, &ep1b);
        let replayed: Vec<u64> = std::iter::from_fn(|| k1b.try_deliver(RecvSpec::any()))
            .map(|m| u64::from_le_bytes(m.data[..].try_into().unwrap()))
            .collect();
        turn(&k0, &eps[0]);
        turn(&k1b, &ep1b);
        assert!(replayed.iter().copied().eq(0..SENDS), "each lost delivery replays once, in order");
        assert!(k1b.try_deliver(RecvSpec::any()).is_none());
        assert_eq!(k1b.recovery_phase(), RecoveryPhase::Synced);
        for k in [&k0, &k1b] {
            assert_eq!(k.snapshot().dup_discarded, 0, "rank {}", k.me());
        }
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
    fn tel_checkpoints_reach_ranks_that_never_sent() {
        // Rank 2 learns a determinant of rank 1's delivery of a rank-0
        // message; rank 1's checkpoint covers no send of rank 2's, yet
        // must still let it prune that determinant.
        let (ks, _net, eps) = harness(3, ProtocolKind::Tel);
        ks[0].app_send(1, 0, Bytes::from_static(b"m"), false);
        pump(&ks[1], &eps[1]);
        ks[1].try_deliver(RecvSpec::any()).unwrap();
        ks[1].app_send(2, 0, Bytes::from_static(b"m"), false);
        pump(&ks[2], &eps[2]);
        ks[2].try_deliver(RecvSpec::any()).unwrap();
        let about_1 = || ks[2].state.borrow().trk.protocol.determinants_for(1).len();
        assert_eq!(about_1(), 1);
        ks[1].do_checkpoint(vec![], 1);
        pump(&ks[2], &eps[2]);
        assert_eq!(about_1(), 0);
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

    /// A real image of the last rank of `n`, whose log holds sends to
    /// every other rank and whose counters are non-zero for each of
    /// them.
    fn busy_image(n: usize) -> CheckpointImage {
        let (ks, _net, eps) = harness(n, ProtocolKind::Tdi);
        let me = n - 1;
        for k in 0..me {
            for _ in 0..=k {
                ks[me].app_send(k, 0, Bytes::from_static(b"logged"), false);
            }
            ks[k].app_send(me, 0, Bytes::from_static(b"seen"), false);
        }
        pump(&ks[me], &eps[me]);
        while ks[me].try_deliver(RecvSpec::any()).is_some() {}
        ks[me].do_checkpoint(b"app".to_vec(), 1);
        ks[me].load_checkpoint().expect("checkpoint exists")
    }

    /// Restore decodes the image from the one buffer it was loaded
    /// into: every logged message comes back as windows into that
    /// buffer, not as an allocation of its own.
    #[test]
    fn restored_log_entries_share_the_image_buffer() {
        let image = busy_image(3);
        let (a, b) = (&image.log[0], &image.log[1]);
        assert!(a.data.shares_allocation(&b.data), "payloads");
        assert!(a.to_wire().0.shares_allocation(&b.to_wire().0), "heads");
        assert!(a.data.shares_allocation(&a.to_wire().0), "one buffer");
    }

    /// `restore` numbers the next checkpoint after the generation
    /// `load_checkpoint` read; it does not read the store a second
    /// time (here the store loses every generation in between).
    #[test]
    fn restore_continues_the_loaded_generation_without_reading_it_again() {
        let (mut ks, net, _eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        for step in 1..=3 {
            k1.do_checkpoint(vec![], step);
        }
        let store = CheckpointStore::new(k1.ckpt_storage());
        let k1b = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net, store.clone());
        let image = k1b.load_checkpoint().expect("generation 3");
        assert!(store.clear_rank(1) > 0);
        k1b.restore(image).expect("the image restores");
        k1b.do_checkpoint(vec![], 4);
        assert_eq!(store.latest_version(1), Some(4));
    }

    /// An image keeps its layout byte for byte: each logged send is its
    /// `dst`, then the whole `WireMsg::App` — its tag byte, then the
    /// `AppWire` fields in order — as one length-prefixed byte string,
    /// whatever segments the log holds it in.
    #[test]
    fn an_image_logs_each_send_as_dst_then_its_encoded_message() {
        use lclog_wire::Encode;
        let (ks, _net, _eps) = harness(3, ProtocolKind::Tdi);
        for (dst, k) in [(1, 0usize), (2, 200), (1, 64 * 1024)] {
            ks[0].app_send(dst, 7, Bytes::from(vec![0x5A; k]), k == 200);
        }
        let log = ks[0].state.borrow().rec.log.to_entries();
        assert_eq!(log.len(), 3);
        let image = CheckpointImage {
            step: 3,
            app_state: b"app".to_vec(),
            protocol: vec![1, 2],
            last_send: CounterVector::from_vec(vec![0, 2, 1]),
            last_deliver: CounterVector::zeroed(3),
            log,
        };
        let mut expect = Vec::new();
        image.step.encode(&mut expect);
        image.app_state.encode(&mut expect);
        image.protocol.encode(&mut expect);
        image.last_send.encode(&mut expect);
        image.last_deliver.encode(&mut expect);
        lclog_wire::varint::write_u64(&mut expect, image.log.len() as u64);
        for e in &image.log {
            e.dst.encode(&mut expect);
            let mut app = vec![0u8];
            e.tag.encode(&mut app);
            e.send_index.encode(&mut app);
            e.piggyback.encode(&mut app);
            e.needs_ack.encode(&mut app);
            e.data.encode(&mut app);
            Bytes::from(app).encode(&mut expect);
        }
        assert_eq!(encode_to_vec(&image), expect);
        assert_eq!(image.encoded_len(), expect.len());
        let back: CheckpointImage = lclog_wire::decode_from_slice(&expect).unwrap();
        assert_eq!(back, image);
    }

    /// Damage `image` in the way `kind` names; `pick` and `by` choose
    /// which entry and how far.
    fn malform(image: &mut CheckpointImage, n: usize, kind: u8, pick: usize, by: u64) {
        let resized = |v: &CounterVector, len: usize| {
            let mut raw = v.as_slice().to_vec();
            raw.resize(len, by);
            CounterVector::from_vec(raw)
        };
        let shorter = pick % n;
        let longer = n + 1 + pick % 4;
        let i = pick % image.log.len();
        let e = image.log[i].clone();
        let relogged = |dst: u32, send_index: u64| {
            LogEntry::new(dst, send_index, e.tag, e.piggyback.clone(), e.needs_ack, e.data.clone())
        };
        match kind {
            0 => image.last_send = resized(&image.last_send, shorter),
            1 => image.last_send = resized(&image.last_send, longer),
            2 => image.last_deliver = resized(&image.last_deliver, shorter),
            3 => image.last_deliver = resized(&image.last_deliver, longer),
            4 => image.log[i] = relogged(n as u32 + (by % 3) as u32, e.send_index),
            5 => image.log[i] = relogged(u32::MAX, e.send_index),
            6 => image.log[i] = relogged(n as u32 - 1, e.send_index),
            7 => {
                let past = image.last_send.get(e.dst as Rank).saturating_add(1 + by % 3);
                image.log[i] = relogged(e.dst, past);
            }
            _ => image.log[i] = relogged(e.dst, 0),
        }
    }

    // The undamaged image restores; every way `malform` damages it, at
    // n = 2 and n = 5 — truncated or extended counter vectors, a logged
    // send to an out-of-range rank or to the rank itself, a send index
    // past `last_send` or of 0 — is refused with `Fault::Desync` before
    // anything is installed, and the kernel still serves afterwards.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn prop_a_malformed_image_is_a_typed_fault_and_changes_nothing(
            pick in 0usize..64,
            by in 0u64..1_000,
        ) {
            use proptest::prelude::prop_assert_eq;
            for n in [2, 5] {
                let real = busy_image(n);
                let (ks, _net, _eps) = harness(n, ProtocolKind::Tdi);
                prop_assert_eq!(ks[n - 1].restore(real.clone()), Ok((1, b"app".to_vec())));
                prop_assert_eq!(ks[n - 1].snapshot().log_entries, n * (n - 1) / 2);
                for kind in 0..9 {
                    let mut image = real.clone();
                    malform(&mut image, n, kind, pick, by);
                    // What a store would hand back: the image survives
                    // its own encoding.
                    let image: CheckpointImage =
                        lclog_wire::decode_from_slice(&encode_to_vec(&image)).unwrap();
                    let (ks, _net, eps) = harness(n, ProtocolKind::Tdi);
                    let victim = &ks[n - 1];
                    victim.app_send(0, 0, Bytes::from_static(b"before"), false);
                    let before = format!("{victim:?}");
                    prop_assert_eq!(victim.restore(image), Err(Fault::Desync));
                    prop_assert_eq!(format!("{victim:?}"), before);
                    ks[0].app_send(n - 1, 7, Bytes::from_static(b"still alive"), false);
                    pump(victim, &eps[n - 1]);
                    let m = victim.try_deliver(RecvSpec::any()).map(|m| m.data);
                    prop_assert_eq!(m, Some(Bytes::from_static(b"still alive")));
                }
            }
        }
    }

    /// Recovery at n = 64: `begin_recovery` frames exactly one
    /// `ROLLBACK` per peer, each a few dozen bytes whatever n is, and
    /// each peer's frame carries that peer's own element of the
    /// restored `last_deliver_index`.
    #[test]
    fn rollback_frames_carry_one_counter_per_peer() {
        let n = 64;
        let (ks, net, eps) = harness(n, ProtocolKind::Tdi);
        let delivered: Vec<u64> = (0..n as u64).map(|k| 1_000 + 7 * k).collect();
        let image = CheckpointImage {
            step: 3,
            app_state: Vec::new(),
            protocol: ks[0].state.borrow().trk.protocol.checkpoint_bytes(),
            last_send: CounterVector::zeroed(n),
            last_deliver: CounterVector::from_vec(delivered.clone()),
            log: Vec::new(),
        };
        net.kill(0);
        let _ep0b = net.respawn(0);
        let store = CheckpointStore::new(ks[0].ckpt_storage());
        let mut k0b = Kernel::new(0, n, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k0b.set_incarnation(2);
        k0b.restore(image).expect("image restores");
        let before = k0b.snapshot().data_plane;
        k0b.begin_recovery();
        let after = k0b.snapshot().data_plane;
        let frames = after.frames_built - before.frames_built;
        let bytes = after.bytes_framed - before.bytes_framed;
        assert_eq!(frames, n as u64 - 1);
        assert!(bytes <= 64 * (n as u64 - 1), "{bytes} bytes in {frames} ROLLBACK frames");
        for k in 1..n {
            pump(&ks[k], &eps[k]);
            let upto = ks[k].state.borrow().rec.rollback_last_send_index.get(0);
            assert_eq!(upto, delivered[k], "rank {k}");
        }
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
        // whose frames are lost with a dying inbox, checkpoints
        // (recording them in last_send and in the sender log), then
        // dies. The new incarnation re-executes from *after* the sends
        // — so the only surviving copies are in the checkpointed log,
        // and the RESPONSE (delivered 0 from you) must trigger their
        // resend.
        let (mut ks, net, eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let k0 = ks.pop().unwrap();
        k0.app_send(1, 0, Bytes::from_static(b"a"), false);
        k0.app_send(1, 0, Bytes::from_static(b"b"), false);
        // Rank 1's inbox loses both frames unread, as it does when the
        // incarnation holding it dies — and the checkpoint's
        // CkptAdvance with them.
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
        k1.state.borrow_mut().del.admit(
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
        let garbage = (Bytes::from_static(&[0xFF]), Bytes::new());
        raw_peer(crate::logger_rank(2), &net).send_encoded(1, garbage);
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
        assert_eq!(ks[1].rendezvous_progress(2), 1);
        ks[1].snapshot().corrupt_detected
    }

    #[test]
    fn resync_request_naming_another_rank_is_a_counted_drop() {
        assert_eq!(corrupt_count_after(0, false, &[WireMsg::ResyncReq(1)]), 1);
    }

    #[test]
    fn service_bound_messages_at_an_app_rank_are_counted_drops() {
        let forged = [WireMsg::LogDets(vec![]), WireMsg::LogQuery(0)];
        assert_eq!(corrupt_count_after(0, false, &forged), 2);
    }

    /// Tags 9 and 10 of `WireMsg` once carried suspicion reports and
    /// membership views. An envelope whose message still carries one,
    /// in either old shape and from a rank or the service slot, is
    /// counted and dropped, and the rank keeps serving.
    #[test]
    fn messages_on_retired_tags_are_counted_drops() {
        let suspect = [&[9u8][..], &0u32.to_le_bytes(), &1u64.to_le_bytes()].concat();
        // Epoch 1, floor [2, 1] (a varint length, then the entries).
        let floor = [&[2u8][..], &2u64.to_le_bytes(), &1u64.to_le_bytes()].concat();
        let view = [&[10u8][..], &1u64.to_le_bytes(), &floor].concat();
        for from in [0, crate::logger_rank(3)] {
            let (ks, net, eps) = harness(3, ProtocolKind::Tdi);
            let mut peer = raw_peer(from, &net);
            for inner in [&suspect, &view] {
                peer.send_encoded(1, (Bytes::copy_from_slice(inner), Bytes::new()));
            }
            pump(&ks[1], &eps[1]);
            assert_eq!(ks[1].snapshot().corrupt_detected, 2, "from slot {from}");
            ks[2].app_send(1, 0, Bytes::from_static(b"real"), false);
            pump(&ks[1], &eps[1]);
            assert_eq!(&ks[1].try_deliver(RecvSpec::any()).unwrap().data[..], b"real");
        }
    }

    /// A `ROLLBACK` once carried the whole `last_deliver_index`
    /// vector. An envelope whose message still has that shape — too
    /// short for the per-peer counter, or with bytes left over — is
    /// counted and dropped, and the rank keeps serving.
    #[test]
    fn rollbacks_in_the_retired_vector_shape_are_counted_drops() {
        for len in [0u8, 1, 3] {
            let (ks, net, eps) = harness(3, ProtocolKind::Tdi);
            let entries: Vec<u8> = (0..len as u64).flat_map(|v| (v + 5).to_le_bytes()).collect();
            let old = [&[2u8, len][..], &entries, &1u64.to_le_bytes()].concat();
            raw_peer(0, &net).send_encoded(1, (Bytes::from(old), Bytes::new()));
            pump(&ks[1], &eps[1]);
            let snap = ks[1].snapshot();
            assert_eq!(snap.corrupt_detected, 1, "{len} entries");
            assert_eq!(ks[1].state.borrow().rec.rollback_last_send_index.get(0), 0);
            ks[2].app_send(1, 0, Bytes::from_static(b"real"), false);
            pump(&ks[1], &eps[1]);
            assert_eq!(&ks[1].try_deliver(RecvSpec::any()).unwrap().data[..], b"real");
        }
    }

    #[test]
    fn recovery_answers_to_a_running_incarnation_are_counted_drops() {
        // Rank 1 never broadcast `ROLLBACK` nor queried the logger.
        let response = ResponseWire { delivered_from_you: 9, dets: vec![], epoch: 1 };
        let forged = [WireMsg::Response(response), WireMsg::LogQueryResp(vec![])];
        assert_eq!(corrupt_count_after(0, false, &forged), 2);
    }

    /// The service slot (`n`) hosts only the event logger; a
    /// rank-to-rank message from there used to
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
        let rollback = RollbackWire { delivered_from_you: 0, epoch: 2 };
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

    /// A seeded schedule: each call picks one of `ops` choices.
    fn schedule(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |ops| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % ops
        }
    }

    /// `k` sends `seq`, as its payload too, to `dst`.
    fn send_seq(k: &Kernel, dst: Rank, seq: u64, needs_ack: bool) {
        let data = Bytes::copy_from_slice(&seq.to_le_bytes());
        k.app_send(dst, 0, data, needs_ack);
    }

    #[test]
    fn interleaved_send_and_ingest_keep_counters_exact() {
        // Rank 0's sends interleave, in a seeded order, with its
        // ingestion of inbound frames one at a time and its ticks:
        // first rendezvous acks, then a ROLLBACK answered from the
        // whole log. Every send must be counted once and every message
        // delivered once.
        let mut next_op = schedule(0x5EED);
        let (mut ks, net, mut eps) = harness(2, ProtocolKind::Tdi);
        let k1 = ks.pop().unwrap();
        let mut k0 = ks.pop().unwrap();
        let sink = EventSink::recording(crate::Clock::Real);
        k0.set_event_sink(sink.clone());
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ingest_one = |k: &Kernel| {
            if let Ok(env) = ep0.try_recv() {
                k.ingest(env);
            }
        };
        let logged = 10_000u64;
        let (mut sends, mut delivered) = (0u64, 0u64);
        while sends < logged || delivered < logged {
            match next_op(4) {
                0 if sends < logged => {
                    sends += 1;
                    send_seq(&k0, 1, sends, true);
                }
                1 => {
                    pump(&k1, &ep1);
                    while k1.try_deliver(RecvSpec::any()).is_some() {
                        delivered += 1;
                    }
                }
                2 => ingest_one(&k0),
                _ => k0.tick(),
            }
        }
        assert_eq!(k0.snapshot().stats.sends, logged);
        assert_eq!(k1.snapshot().stats.delivers, logged);
        // Absorb the acks still queued; ticks may have resent an
        // unacknowledged rendezvous send.
        turn(&k0, &ep0);
        let resent_before = k0.snapshot().data_plane.zero_copy_resends;

        // Rank 1 dies with nothing checkpointed; its successor's
        // ROLLBACK, ingested between two of rank 0's sends, resends the
        // whole log.
        net.kill(1);
        let ep1b = net.respawn(1);
        let store = CheckpointStore::new(k1.ckpt_storage());
        let mut k1b = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        k1b.set_incarnation(2);
        k1b.begin_recovery();
        let resent = loop {
            match next_op(3) {
                0 => {
                    sends += 1;
                    send_seq(&k0, 1, sends, false);
                }
                1 => ingest_one(&k0),
                _ => assert!(k0.try_deliver(RecvSpec::any()).is_none()),
            }
            let burst = sink.take().into_iter().find_map(|e| match e.kind {
                EventKind::LogResent { to: 1, count } => Some(count as u64),
                _ => None,
            });
            if let Some(count) = burst {
                break count;
            }
        };
        let snap = k0.snapshot();
        assert_eq!(snap.stats.sends, sends);
        assert!(resent >= logged && resent <= sends);
        assert_eq!(snap.data_plane.zero_copy_resends - resent_before, resent);
        assert_eq!(snap.log_entries as u64, sends);

        // The successor admits every send_index — resent or fresh,
        // however the two interleaved on the wire — exactly once.
        let mut expected = 1u64;
        for _ in 0..100_000 {
            if expected > sends {
                break;
            }
            match next_op(2) {
                0 => {
                    pump(&k1b, &ep1b);
                    while let Some(msg) = k1b.try_deliver(RecvSpec::any()) {
                        assert_eq!(msg.data[..], expected.to_le_bytes());
                        expected += 1;
                    }
                }
                _ => turn(&k0, &ep0),
            }
        }
        let snap = k1b.snapshot();
        assert_eq!((snap.stats.delivers, snap.queued), (sends, 0));
        assert_eq!(snap.recovery_phase, RecoveryPhase::Synced);
    }

    #[test]
    fn interleaved_ingest_and_deliver_is_fifo_and_exactly_once() {
        // Fig. 4b on the receiver as one seeded schedule: rank 2 admits
        // frames from two senders (`ingest_batch` + `tick`), delivers
        // and checkpoints, while the senders send and absorb its
        // checkpoint notices. Each payload is its per-sender sequence
        // number, so a lost, duplicated or reordered delivery shows as
        // a gap.
        const PER_SENDER: u64 = 2_000;
        let mut next_op = schedule(0xF1F0);
        let (mut ks, _net, mut eps) = harness(3, ProtocolKind::Tdi);
        let k2 = ks.pop().unwrap();
        let ep2 = eps.pop().unwrap();
        let (mut sent, mut next) = ([0u64; 2], [1u64; 2]);
        let mut delivered = 0u64;
        while delivered < 2 * PER_SENDER {
            match next_op(4) {
                0 => {
                    let src = next_op(2) as usize;
                    if sent[src] < PER_SENDER {
                        sent[src] += 1;
                        send_seq(&ks[src], 2, sent[src], false);
                    }
                }
                1 => turn(&k2, &ep2),
                2 => {
                    let Some(msg) = k2.try_deliver(RecvSpec::any()) else {
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
                _ => {
                    for (k, ep) in ks.iter().zip(&eps) {
                        pump(k, ep);
                    }
                }
            }
        }
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
                .borrow_mut()
                .trk
                .protocol
                .deliverable(0, 2, &delta),
            DeliveryVerdict::Wait,
            "delta without base must wait and queue a resync request"
        );
        // Rank 0's kernel must answer snapshot requests with the state
        // that actually produced the delta, so install the side sender
        // as its live protocol.
        kernels[0].state.borrow_mut().trk.protocol = side_sender;

        // Simulate the stall: rank 1's app keeps polling (each gate
        // check re-queues the request) and the kernel ticks once per
        // simulated millisecond. Rank 0 receives the REQ and answers
        // with a SNAP, but rank 1 never ingests it — the lost-snapshot
        // window. Rank 1 sends rank 0 nothing but requests.
        let mut originated = 0;
        for _ in 0..400 {
            sim.advance(Duration::from_millis(1));
            let _ = kernels[1]
                .state
                .borrow_mut()
                .trk
                .protocol
                .deliverable(0, 2, &delta);
            kernels[1].tick();
            while let Ok(env) = endpoints[0].try_recv() {
                originated += 1;
                kernels[0].ingest(env);
            }
            kernels[0].tick();
            // The SNAP replies park unread at rank 1's endpoint — the
            // lost-snapshot window.
        }
        assert!(
            originated >= 2,
            "a lost snapshot must be re-requested: {originated}"
        );
        assert!(
            originated <= 25,
            "request storm: {originated} REQ frames originated in 400 ticks"
        );

        // The "lost" snapshot finally arrives (any of the answers will
        // do): the channel heals and the pacer schedule resets.
        while let Ok(env) = endpoints[1].try_recv() {
            kernels[1].ingest(env);
        }
        assert_eq!(
            kernels[1]
                .state
                .borrow_mut()
                .trk
                .protocol
                .deliverable(0, 2, &delta),
            DeliveryVerdict::Deliver,
            "installed snapshot must unblock the parked delta"
        );
        assert!(kernels[1].state.borrow().resync_pacer.slots[0].is_none());
    }

    /// Frame guard: on a direct fabric an application send of k bytes
    /// puts exactly one envelope on the fabric, and its two segments
    /// joined are the message's encoding — no checksum or header around
    /// it, and no acknowledgement frame after it. The body is the
    /// payload; the head, everything before it.
    #[test]
    fn frame_guard_an_app_send_is_one_encoded_wire_msg() {
        for k in [0usize, 1, 200, 64 * 1024] {
            let (ks, _net, eps) = harness(2, ProtocolKind::Tdi);
            let data = Bytes::from(vec![0x5A; k]);
            ks[0].app_send(1, 7, data.clone(), false);
            let env = eps[1].try_recv().expect("the send's envelope");
            assert!(eps[1].try_recv().is_err(), "{k} bytes: one envelope");
            let joined = Bytes::from([&env.head[..], &env.body[..]].concat());
            let msg = lclog_wire::decode_from_bytes::<WireMsg>(&joined).expect("a WireMsg");
            let WireMsg::App(wire) = &msg else {
                panic!("{k} bytes: not an App message: {msg:?}");
            };
            use lclog_wire::Encode;
            assert_eq!((wire.tag, wire.send_index, &wire.data), (7, 1, &data));
            assert_eq!(env.len(), msg.encoded_len(), "{k} bytes: nothing but the message");
            assert_eq!(env.body, data, "{k} bytes: the body is the payload");
            assert_eq!(WireMsg::from_frame(&env.head, env.body.clone()), Ok(msg));
            ks[1].ingest(env);
            ks[1].tick();
            assert!(eps[0].try_recv().is_err(), "{k} bytes: nothing comes back");
            for k in &ks {
                assert_eq!(k.snapshot().data_plane.ack_frames, 0);
            }
        }
    }

    /// Frame guard: the send path never copies an application payload.
    /// The envelope's body, the sender log's entry and a `ROLLBACK`
    /// resend all hold the caller's own buffer; the head is the `App`
    /// header alone (tag, tag field, send index, piggyback, `needs_ack`,
    /// payload length), and it is all the send writes.
    #[test]
    fn frame_guard_an_app_payload_is_never_copied() {
        let varint = |v: usize| lclog_wire::varint::len_u64(v as u64);
        for k in [1usize, 200, 64 * 1024] {
            let (ks, net, eps) = harness(2, ProtocolKind::Tdi);
            let data = Bytes::from(vec![0x5A; k]);
            let framed = ks[0].snapshot().data_plane.bytes_framed;
            ks[0].app_send(1, 7, data.clone(), false);
            let env = eps[1].try_recv().expect("the send's envelope");
            assert!(env.body.shares_allocation(&data), "{k} bytes: envelope body");
            let logged = ks[0].state.borrow().rec.log.to_entries();
            assert!(logged[0].data.shares_allocation(&data), "{k} bytes: log entry");
            let pb = logged[0].piggyback.len();
            let bound = 1 + 4 + 8 + varint(pb) + pb + 1 + varint(k);
            assert!(env.head.len() <= bound, "{k} bytes: head {} > {bound}", env.head.len());
            let framed = ks[0].snapshot().data_plane.bytes_framed - framed;
            assert_eq!(framed, env.head.len() as u64, "{k} bytes: only the head is written");
            // Rank 1 dies with the send undelivered; its successor's
            // `ROLLBACK` makes rank 0 resend it from the log.
            net.kill(1);
            let ep1b = net.respawn(1);
            let store = CheckpointStore::new(Arc::new(MemStore::new()));
            let k1b = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
            k1b.begin_recovery();
            pump(&ks[0], &eps[0]);
            let resent: Vec<_> = std::iter::from_fn(|| ep1b.try_recv().ok())
                .filter(|env| !env.body.is_empty())
                .collect();
            assert_eq!(resent.len(), 1, "{k} bytes: one resend");
            assert!(resent[0].body.shares_allocation(&data), "{k} bytes: resend body");
            assert!(resent[0].head.shares_allocation(&env.head), "{k} bytes: logged head");
        }
    }

    /// One valid message of every `WireMsg` variant, `App` first.
    fn every_variant() -> Vec<WireMsg> {
        let det = lclog_core::Determinant {
            sender: 0,
            send_index: 1,
            receiver: 1,
            deliver_index: 1,
        };
        let app = AppWire {
            tag: 3,
            send_index: 1,
            piggyback: Bytes::from_static(&[1, 0, 0, 0]),
            needs_ack: true,
            data: Bytes::from_static(b"payload"),
        };
        let response = ResponseWire { delivered_from_you: 1, dets: vec![det], epoch: 1 };
        let advance = CkptAdvanceWire { delivered_from_you: 1, total_delivered: 2 };
        vec![
            WireMsg::App(app),
            WireMsg::Ack(1),
            WireMsg::Rollback(RollbackWire { delivered_from_you: 0, epoch: 1 }),
            WireMsg::Response(response),
            WireMsg::CkptAdvance(advance),
            WireMsg::LogDets(vec![det]),
            WireMsg::LogAck(1),
            WireMsg::LogQuery(0),
            WireMsg::LogQueryResp(vec![det]),
            WireMsg::ResyncReq(0),
            WireMsg::ResyncSnap(Bytes::from_static(&[1, 1, 0, 0, 0])),
        ]
    }

    // Decoding is total, on both frame layouts. Contiguous: arbitrary
    // bytes, and truncations and bit flips of a valid frame of every
    // `WireMsg` variant. Two segments: an arbitrary `(head, body)`
    // pair; the whole encoding of every variant as a head, with a
    // body after it; an `App` head declaring fewer or more payload
    // bytes than its body holds; a truncated `App` head. From a rank
    // or the service slot, at a running or a recovering rank. Frames
    // that do not decode are counted in `corrupt_detected` and change
    // nothing else (the kernel's `Debug` dump is the same before and
    // after); frames that do are handled as the message they are.
    // Nothing panics, debug assertions included.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn prop_hostile_bytes_are_counted_or_handled_never_a_panic(
            from in 0usize..4,
            recovering in proptest::prelude::any::<bool>(),
            variant in 0usize..11,
            mode in 0u8..7,
            pick in proptest::prelude::any::<u64>(),
            garbage in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..48),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            // Rank 1 receives; slot 3 is the service slot.
            let from = if from == 1 { 0 } else { from };
            let msgs = every_variant();
            let frame = Bytes::from(encode_to_vec(&msgs[variant]));
            let (app_head, app_body) = msgs[0].to_frame();
            let pick = pick as usize;
            let (head, body) = match mode {
                0 => (Bytes::from(garbage), Bytes::new()),
                1 => (frame.slice(..pick % frame.len()), Bytes::new()),
                2 => {
                    let mut flipped = frame.to_vec();
                    let bit = pick % (flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    (Bytes::from(flipped), Bytes::new())
                }
                3 => (Bytes::from(garbage), Bytes::from(tail)),
                4 => (frame, Bytes::from(tail)),
                5 => {
                    // Any length from 1 to 23 but the declared one.
                    let len = 1 + pick % 22;
                    let len = if len >= app_body.len() { len + 1 } else { len };
                    (app_head, Bytes::from(vec![0xA5; len]))
                }
                _ => (app_head.slice(..pick % app_head.len()), app_body),
            };
            // TDI-S: the one protocol that installs resync snapshots.
            let (ks, net, eps) = harness(3, ProtocolKind::TdiSparse(8));
            ks[0].app_send(1, 0, Bytes::from_static(b"real"), false);
            pump(&ks[1], &eps[1]);
            if recovering {
                ks[1].begin_recovery();
            }
            let dump = format!("{:?}", ks[1]);
            let corrupt = ks[1].snapshot().corrupt_detected;
            let undecodable = WireMsg::from_frame(&head, body.clone()).is_err();
            prop_assert!(undecodable || mode < 4, "mode {} decoded", mode);
            raw_peer(from, &net).send_encoded(1, (head, body));
            ks[1].ingest_batch(std::iter::from_fn(|| eps[1].try_recv().ok()).collect::<Vec<_>>());
            if undecodable {
                prop_assert_eq!(ks[1].snapshot().corrupt_detected, corrupt + 1);
                prop_assert_eq!(format!("{:?}", ks[1]), dump);
            }
            ks[1].tick();
            while ks[1].try_deliver(RecvSpec::any()).is_some() {}
        }
    }

    // Per-pair FIFO across incarnations, the property the wire's shape
    // rests on (it carries no incarnation number): rank 0 dies with
    // application frames still in flight to ranks 1 and 2, and its
    // successor broadcasts `ROLLBACK`. On the direct, held and timed
    // fabrics, for any release schedule, each peer ingests every one
    // of the predecessor's frames before the successor's `ROLLBACK`,
    // and delivers them exactly once, in send order.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn prop_a_dead_incarnations_frames_precede_its_successors_rollback(
            model in 0u8..3,
            pre in 1u64..8,
            before_kill in 0usize..8,
            choices in proptest::collection::vec(0usize..64, 0..48),
        ) {
            use crate::Clock;
            use lclog_simnet::SimClock;
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let n = 3;
            let clock = SimClock::new();
            let net_cfg = match model {
                0 => NetConfig::direct(),
                1 => NetConfig::held(),
                _ => NetConfig::lan_like(pre ^ before_kill as u64),
            };
            let net = SimNet::with_clock(n + 1, net_cfg, Clock::Sim(clock.clone()));
            let store = CheckpointStore::new(Arc::new(MemStore::new()));
            let cfg = RunConfig::new(ProtocolKind::Tdi).with_clock(Clock::Sim(clock.clone()));
            let eps: Vec<_> = (0..n).map(|r| net.attach(r)).collect();
            let ks: Vec<Kernel> = (0..n)
                .map(|r| Kernel::new(r, n, cfg.clone(), net.clone(), store.clone()))
                .collect();
            let mut choices = choices.into_iter();
            // One scheduling step: release a held frame or let time pass.
            let step = |choice: usize| match model {
                1 => {
                    let held = net.held_channels();
                    if !held.is_empty() {
                        let (src, dst, _) = held[choice % held.len()];
                        net.held_deliver(src, dst);
                    }
                }
                2 => clock.advance(Duration::from_micros(choice as u64 * 5)),
                _ => {}
            };
            // What each peer ingested, in order: `Some(i)` the
            // predecessor's i-th application frame, `None` the ROLLBACK.
            let mut seen: Vec<Vec<Option<u64>>> = vec![Vec::new(); n];
            let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut drain = |peer: usize, ks: &[Kernel]| {
                let batch: Vec<_> = std::iter::from_fn(|| eps[peer].try_recv().ok()).collect();
                for env in &batch {
                    match WireMsg::from_frame(&env.head, env.body.clone()) {
                        Ok(WireMsg::App(w)) => seen[peer].push(Some(w.send_index)),
                        Ok(WireMsg::Rollback(_)) => seen[peer].push(None),
                        other => panic!("unexpected frame at rank {peer}: {other:?}"),
                    }
                }
                ks[peer].ingest_batch(batch);
                while let Some(m) = ks[peer].try_deliver(RecvSpec::any()) {
                    delivered[peer].push(u64::from_le_bytes(m.data[..].try_into().unwrap()));
                }
            };
            for i in 1..=pre {
                for peer in [1, 2] {
                    ks[0].app_send(peer, 0, Bytes::copy_from_slice(&i.to_le_bytes()), false);
                }
            }
            for _ in 0..before_kill {
                step(choices.next().unwrap_or(0));
                drain(1, &ks);
                drain(2, &ks);
            }
            net.kill(0);
            let _ep0 = net.respawn(0);
            let mut k0 = Kernel::new(0, n, cfg.clone(), net.clone(), store.clone());
            k0.set_incarnation(2);
            k0.begin_recovery();
            for choice in choices {
                step(choice);
                drain(1 + choice % 2, &ks);
            }
            // Release whatever is left.
            net.held_deliver_all();
            clock.advance(Duration::from_millis(10));
            drain(1, &ks);
            drain(2, &ks);
            for peer in [1, 2] {
                let old: Vec<Option<u64>> = (1..=pre).map(Some).collect();
                prop_assert_eq!(&seen[peer][..pre as usize], &old[..], "rank {}", peer);
                prop_assert_eq!(&seen[peer][pre as usize..], &[None][..], "rank {}", peer);
                prop_assert!(delivered[peer].iter().copied().eq(1..=pre), "rank {}", peer);
            }
        }
    }
}
