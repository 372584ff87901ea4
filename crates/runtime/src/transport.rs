//! The wire between the kernel and the fabric.
//!
//! The paper's channels are MPICH over TCP: reliable and FIFO, with
//! the checksum done below the protocol. The simulated fabric gives
//! exactly that (see `lclog_simnet`): between live endpoints every
//! envelope arrives once, intact and in per-pair send order, and a
//! dead incarnation's frames still in flight reach each peer before
//! anything its successor sends on the same channel. So the transport
//! adds nothing to a message:
//!
//! ```text
//! envelope head ++ envelope body = encoded WireMsg
//! ```
//!
//! No checksum, sequence number, epoch, ack or retransmission. What a
//! crash loses — everything addressed to the dead incarnation — is
//! Algorithm 1's business: the successor's `ROLLBACK` makes every
//! survivor resend from its sender log, and receivers discard
//! duplicates by `send_index`.
//!
//! [`Transport`] is plain data behind `&mut self`, owned by a kernel's
//! state or by the event logger, and driven by the one thread that
//! drives the job.
//!
//! ## Zero-copy data plane
//!
//! An envelope is one encoded `WireMsg` in two refcounted segments
//! ([`WireMsg::to_frame`]). [`Transport::send_msg`] writes the
//! **head** — every byte before an `App` payload, the whole message
//! otherwise — into one allocation of exactly its length; the
//! **body** is the application's own payload buffer, shared, never
//! copied. The head comes back to the caller: the sender log keeps it
//! beside the payload, so the log entry and the in-flight envelope
//! share both buffers. [`Transport::send_encoded`] covers recovery
//! resends: the logged segments go to the fabric as they are — no
//! allocation, no copy. Ingest decodes the `WireMsg` straight from the
//! two segments ([`WireMsg::from_frame`]), so an `App` payload and
//! piggyback come out as windows into them.
//!
//! Decoding is total: segments that are not a `WireMsg` are counted
//! in `corrupt_detected` and dropped by the receiver, never a panic.
//!
//! [`DataPlaneStats`] counts frame allocations, the bytes written into
//! them, and messages encoded; under `debug_assertions` every send
//! path asserts a copy *budget* of zero against the thread-local
//! [`bytes::audit`] counters, so an accidental deep copy panics in CI
//! instead of silently regressing the hot path.
//!
//! [`WireMsg::to_frame`]: crate::WireMsg::to_frame
//! [`WireMsg::from_frame`]: crate::WireMsg::from_frame

use crate::message::{WireMsg, APP_TAG};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_simnet::SimNet;

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

/// Whether a frame's head carries an **application send**
/// (`WireMsg::App`), as opposed to kernel-to-kernel protocol traffic
/// (rendezvous acks, checkpoint advances, rollback/response recovery
/// frames, resync traffic, event-logger traffic).
///
/// The deterministic schedule explorer branches only on these:
/// application frames are the payloads whose arrival order the
/// order-insensitivity claim quantifies over, while protocol frames
/// are flushed eagerly — with virtual time frozen their relative
/// order is already forced, and branching on them would pad the
/// schedule tree without changing application-visible behavior.
pub fn payload_is_app_frame(payload: &[u8]) -> bool {
    payload.first() == Some(&APP_TAG)
}

/// Byte-accounting for the zero-copy data plane, kept per transport
/// endpoint (i.e. per rank) and surfaced through
/// [`crate::KernelSnapshot`] and the bench tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Frame buffers allocated: one head per `send_msg`; a resend of
    /// logged bytes allocates none.
    pub frames_built: u64,
    /// Total bytes written into freshly built frame buffers: heads
    /// only, since an `App` payload is shared, not written.
    pub bytes_framed: u64,
    /// Messages encoded for a first transmission: exactly one per
    /// `send_msg`, zero for resends. (The name predates shared
    /// payloads; nothing is copied.)
    pub payload_copies: u64,
    /// Encoded length of those messages, head and shared payload
    /// together: the bytes their envelopes carry.
    pub payload_bytes_copied: u64,
    /// Sends that handed an already-encoded message from the sender
    /// log to the fabric (recovery / rendezvous resends) — zero
    /// allocations, zero payload copies.
    pub zero_copy_resends: u64,
    /// Always 0: the channels are reliable, so nothing is
    /// retransmitted. Kept for the benchmark's report.
    pub retransmit_frames: u64,
    /// Always 0: nothing is acknowledged below the protocol. Kept for
    /// the benchmark's report.
    pub acks_coalesced: u64,
    /// Always 0: nothing is acknowledged below the protocol. Kept for
    /// the benchmark's report.
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

/// One rank's (or the event logger's) sending side, plus the counters
/// its receiving side keeps.
pub(crate) struct Transport {
    me: Rank,
    net: SimNet,
    /// Envelopes that did not decode as a message, or decoded as one
    /// no correct peer sends (observability).
    pub(crate) corrupt_detected: u64,
    /// Zero-copy byte accounting for this endpoint.
    pub(crate) dp: DataPlaneStats,
}

impl Transport {
    pub(crate) fn new(me: Rank, net: SimNet) -> Self {
        Transport {
            me,
            net,
            corrupt_detected: 0,
            dp: DataPlaneStats::default(),
        }
    }

    /// Send one wire message to `dst` as a frame of two segments: the
    /// head, written in one pass into one allocation of exactly its
    /// length, and an `App` payload as it is. Returns the head — the
    /// caller logs it; the fabric carries another handle on it. Sends
    /// to dead ranks are dropped by the fabric, exactly the paper's
    /// model. Copy budget: zero `Bytes` copies.
    pub(crate) fn send_msg(&mut self, dst: Rank, msg: &WireMsg) -> Bytes {
        with_copy_budget!(0, "Transport::send_msg", {
            let (head, body) = msg.to_frame();
            self.dp.frames_built += 1;
            self.dp.bytes_framed += head.len() as u64;
            self.dp.payload_copies += 1;
            self.dp.payload_bytes_copied += (head.len() + body.len()) as u64;
            let _ = self.net.send_split(self.me, dst, head.clone(), body);
            head
        })
    }

    /// Send an **already-encoded** frame (the sender log's head and
    /// payload) to `dst` as it is: refcount bumps, zero payload copies.
    pub(crate) fn send_encoded(&mut self, dst: Rank, (head, body): (Bytes, Bytes)) {
        with_copy_budget!(0, "Transport::send_encoded", {
            self.dp.zero_copy_resends += 1;
            let _ = self.net.send_split(self.me, dst, head, body);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{AppWire, CkptAdvanceWire, RecvSpec, WireMsg};
    use crate::RETRY_INTERVAL;
    use lclog_simnet::{ChaosConfig, Clock, NetConfig, SimClock};
    use lclog_stable::{CheckpointStore, MemStore};
    use lclog_wire::encode_to_vec;
    use std::time::Duration;

    fn pair() -> (SimNet, Transport, lclog_simnet::Endpoint) {
        let net = SimNet::new(2, NetConfig::direct());
        let _ep0 = net.attach(0);
        let ep1 = net.attach(1);
        let t0 = Transport::new(0, net.clone());
        (net, t0, ep1)
    }

    #[test]
    fn single_pass_frame_shares_one_allocation() {
        let (_net, mut t0, ep1) = pair();
        let msg = WireMsg::ResyncSnap(Bytes::from(vec![0xAB; 64]));
        let logged = t0.send_msg(1, &msg);
        // The returned bytes and the envelope in flight are views of
        // the same allocation (frame built once), and they are the
        // message's encoding, nothing more: a message that is not
        // `App` is all head.
        let env = ep1.try_recv().expect("delivered");
        assert!(logged.shares_allocation(&env.head));
        assert!(env.body.is_empty());
        assert_eq!(env.head, Bytes::from(encode_to_vec(&msg)));
        assert_eq!(t0.dp.frames_built, 1);
        assert_eq!(t0.dp.payload_copies, 1);
        assert_eq!(t0.dp.bytes_framed, env.len() as u64);
        // A resend hands the fabric the logged bytes as they are.
        t0.send_encoded(1, (logged.clone(), Bytes::new()));
        let again = ep1.try_recv().expect("delivered");
        assert!(again.head.shares_allocation(&logged));
        assert_eq!(t0.dp.frames_built, 1, "a resend allocates nothing");
        assert_eq!(t0.dp.zero_copy_resends, 1);
    }

    #[test]
    fn app_frame_classifier_peeks_inner_discriminant() {
        let (_net, mut t0, ep1) = pair();
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
        t0.send_msg(1, &app);
        t0.send_msg(1, &adv);
        t0.send_encoded(1, (Bytes::from(encode_to_vec(&WireMsg::Ack(1))), Bytes::new()));
        let frames: Vec<Bytes> = std::iter::from_fn(|| ep1.try_recv().ok())
            .map(|env| env.head)
            .collect();
        assert_eq!(frames.len(), 3);
        // App send: an application frame.
        assert!(payload_is_app_frame(&frames[0]));
        // Checkpoint advance and rendezvous ack: protocol traffic.
        assert!(!payload_is_app_frame(&frames[1]));
        assert!(!payload_is_app_frame(&frames[2]));
        assert!(!payload_is_app_frame(&[]));
    }

    /// A two-rank TDI world: both kernels, the fabric and both
    /// endpoints.
    fn world() -> ([crate::Kernel; 2], SimNet, [lclog_simnet::Endpoint; 2]) {
        world_with(crate::RunConfig::new(lclog_core::ProtocolKind::Tdi))
    }

    /// [`world`] with the kernels' clock on `clock`.
    fn world_on(clock: &SimClock) -> ([crate::Kernel; 2], SimNet, [lclog_simnet::Endpoint; 2]) {
        world_with(
            crate::RunConfig::new(lclog_core::ProtocolKind::Tdi)
                .with_clock(crate::Clock::Sim(clock.clone())),
        )
    }

    fn world_with(cfg: crate::RunConfig) -> ([crate::Kernel; 2], SimNet, [lclog_simnet::Endpoint; 2]) {
        let net = SimNet::new(2, NetConfig::direct());
        let eps = [net.attach(0), net.attach(1)];
        let store = CheckpointStore::new(std::sync::Arc::new(MemStore::new()));
        let ks = [0, 1].map(|r| crate::Kernel::new(r, 2, cfg.clone(), net.clone(), store.clone()));
        (ks, net, eps)
    }

    /// Everything waiting at `ep`.
    fn drain(ep: &lclog_simnet::Endpoint) -> Vec<lclog_simnet::Envelope> {
        std::iter::from_fn(|| ep.try_recv().ok()).collect()
    }

    /// Nothing is acknowledged below the protocol, but a rendezvous
    /// send is: its round trip — data out, delivery, `Ack` back —
    /// clears the sender's one-deep window, and nothing is resent.
    #[test]
    fn roundtrip_and_ack_clears_window() {
        let clock = SimClock::new();
        let ([k0, k1], _net, eps) = world_on(&clock);
        k0.app_send(1, 0, Bytes::from_static(b"ping"), true);
        k1.ingest_batch(drain(&eps[1]));
        assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], b"ping");
        assert_eq!(k0.rendezvous_progress(1), 0, "not acknowledged yet");
        k0.ingest_batch(drain(&eps[0]));
        assert_eq!(k0.rendezvous_progress(1), 1, "the ack cleared the window");
        clock.advance(4 * RETRY_INTERVAL);
        k0.tick();
        assert!(eps[1].try_recv().is_err(), "an acknowledged send is not resent");
        assert_eq!(k0.snapshot().data_plane.zero_copy_resends, 0);
    }

    /// An unacknowledged rendezvous send goes out again every
    /// [`RETRY_INTERVAL`] on the run's clock — its receiver may have
    /// lost it with a dying inbox — and only until the ack arrives.
    #[test]
    fn timeout_retransmits_until_acked() {
        let us = Duration::from_micros;
        let clock = SimClock::new();
        let ([k0, k1], _net, eps) = world_on(&clock);
        k0.app_send(1, 0, Bytes::from_static(b"lost"), true);
        assert_eq!(drain(&eps[1]).len(), 1, "the first copy is lost");
        clock.advance(RETRY_INTERVAL - us(1));
        k0.tick();
        assert!(eps[1].try_recv().is_err(), "not due yet");
        clock.advance(us(1));
        k0.tick();
        assert_eq!(drain(&eps[1]).len(), 1, "due: one copy");
        clock.advance(RETRY_INTERVAL);
        k0.tick();
        let again = drain(&eps[1]);
        assert_eq!(again.len(), 1, "still unacked: one more copy");
        k1.ingest_batch(again);
        assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], b"lost");
        k0.ingest_batch(drain(&eps[0]));
        for _ in 0..4 {
            clock.advance(RETRY_INTERVAL);
            k0.tick();
        }
        assert!(eps[1].try_recv().is_err(), "acked: no more copies");
        assert_eq!(k0.snapshot().data_plane.zero_copy_resends, 2);
    }

    /// A retransmission is the logged frame itself: the fabric gets the
    /// bytes the first send built — no new frame, no payload copy.
    #[test]
    fn retransmit_resends_stored_frame_without_rebuilding() {
        let clock = SimClock::new();
        let ([k0, _k1], _net, eps) = world_on(&clock);
        k0.app_send(1, 0, Bytes::from(vec![0x5A; 256]), true);
        let first = eps[1].try_recv().expect("the send");
        let built = k0.snapshot().data_plane;
        clock.advance(RETRY_INTERVAL);
        k0.tick();
        let again = eps[1].try_recv().expect("the retransmission");
        assert!(again.head.shares_allocation(&first.head));
        assert!(again.body.shares_allocation(&first.body));
        assert_eq!((&again.head, &again.body), (&first.head, &first.body));
        let dp = k0.snapshot().data_plane;
        assert_eq!(dp.frames_built, built.frames_built, "retransmit allocates nothing");
        assert_eq!(dp.payload_copies, built.payload_copies);
        assert_eq!(dp.zero_copy_resends, 1);
    }

    /// A respawned receiver's `ROLLBACK` says how much of each sender's
    /// stream its checkpoint had delivered; the sender resends from
    /// its log only what lies past that prefix.
    #[test]
    fn respawned_receiver_skips_acknowledged_prefix() {
        let ([k0, k1], net, eps) = world();
        for m in [&b"a"[..], b"b", b"c"] {
            k0.app_send(1, 0, Bytes::copy_from_slice(m), false);
        }
        k1.ingest_batch(drain(&eps[1]));
        for m in [&b"a"[..], b"b"] {
            assert_eq!(&k1.try_deliver(RecvSpec::any()).unwrap().data[..], m);
        }
        k1.do_checkpoint(vec![], 1);
        k0.ingest_batch(drain(&eps[0]));
        // Rank 1 dies with "c" undelivered and comes back from its
        // checkpoint, which had delivered "a" and "b".
        net.kill(1);
        let ep1b = net.respawn(1);
        let store = CheckpointStore::new(k1.ckpt_storage());
        let cfg = crate::RunConfig::new(lclog_core::ProtocolKind::Tdi);
        let mut k1b = crate::Kernel::new(1, 2, cfg, net.clone(), store);
        k1b.set_incarnation(2);
        k1b.restore(k1b.load_checkpoint().unwrap()).unwrap();
        k1b.begin_recovery();
        k0.ingest_batch(drain(&eps[0]));
        let back = drain(&ep1b);
        let resent: Vec<u64> = back
            .iter()
            .filter_map(|env| match WireMsg::from_frame(&env.head, env.body.clone()) {
                Ok(WireMsg::App(w)) => Some(w.send_index),
                _ => None,
            })
            .collect();
        assert_eq!(resent, [3], "only the send past the acknowledged prefix");
        assert_eq!(k0.snapshot().data_plane.zero_copy_resends, 1);
        k1b.ingest_batch(back);
        assert_eq!(&k1b.try_deliver(RecvSpec::any()).unwrap().data[..], b"c");
        assert!(k1b.try_deliver(RecvSpec::any()).is_none());
    }

    /// Feed `forged` to rank 1 from rank 0, one envelope each: every one
    /// is counted and dropped, nothing goes back, the kernel's state is
    /// untouched, and a real message still gets through afterwards.
    fn assert_counted_drops(forged: &[Vec<u8>]) {
        let ([k0, k1], net, eps) = world();
        let dump = format!("{k1:?}");
        let mut peer = Transport::new(0, net.clone());
        for bytes in forged {
            peer.send_encoded(1, (Bytes::copy_from_slice(bytes), Bytes::new()));
        }
        k1.ingest_batch(std::iter::from_fn(|| eps[1].try_recv().ok()).collect::<Vec<_>>());
        k1.tick();
        let snap = k1.snapshot();
        assert_eq!(snap.corrupt_detected, forged.len() as u64);
        assert_eq!(snap.dup_discarded, 0);
        assert_eq!(format!("{k1:?}"), dump);
        assert!(eps[0].try_recv().is_err(), "nothing answers a forged frame");
        k0.app_send(1, 0, Bytes::from_static(b"real"), false);
        k1.ingest_batch(std::iter::from_fn(|| eps[1].try_recv().ok()).collect::<Vec<_>>());
        let got = k1.try_deliver(crate::RecvSpec::any()).expect("the real message");
        assert_eq!(&got.data[..], b"real");
    }

    /// The fabric never duplicates, but recovery does: a log resend can
    /// cross the original. The same frame twice delivers once; the
    /// copy is discarded by `send_index` below the application.
    #[test]
    fn duplicate_frames_discarded_below_app_layer() {
        let ([k0, k1], _net, eps) = world();
        k0.app_send(1, 0, Bytes::from_static(b"once"), false);
        let env = eps[1].try_recv().expect("the send");
        k1.ingest_batch([env.clone(), env]);
        assert_eq!(&k1.try_deliver(crate::RecvSpec::any()).unwrap().data[..], b"once");
        assert!(k1.try_deliver(crate::RecvSpec::any()).is_none());
        assert_eq!(k1.snapshot().dup_discarded, 1);
    }

    /// Any fabric peer can send bytes that are not a message — once,
    /// bytes behind a valid CRC-32 prefix. They never abort the
    /// receiver: counted, dropped, unanswered.
    #[test]
    fn crc_valid_garbage_is_counted_and_dropped_not_panicked() {
        let garbage: &[u8] = &[0xFF];
        let with_crc = [&lclog_wire::crc32(garbage).to_le_bytes()[..], garbage].concat();
        assert_counted_drops(&[vec![], garbage.to_vec(), vec![0xFF, 0x00], with_crc]);
    }

    /// The retired frame layer's shapes — a CRC-32 prefix, then a tag
    /// (0 sequenced data, 1 ack, 2 nack, 3 heartbeat, 4 fencing
    /// notice) and its fields — are not messages: counted and dropped,
    /// never a panic, never answered.
    #[test]
    fn frames_on_retired_tags_are_counted_and_dropped() {
        let (epoch, floor) = (1u64.to_le_bytes(), 2u64.to_le_bytes());
        let ack = encode_to_vec(&WireMsg::Ack(1));
        let data = [&[0u8][..], &epoch, &floor, &floor, &[ack.len() as u8], &ack].concat();
        let frames = [
            data,
            [&[1u8][..], &epoch, &floor].concat(),
            [&[2u8][..], &epoch, &floor].concat(),
            [&[3u8][..], &epoch].concat(),
            [&[4u8][..], &epoch, &floor].concat(),
        ];
        let framed: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| [&lclog_wire::crc32(f).to_le_bytes()[..], f].concat())
            .collect();
        assert_counted_drops(&framed);
    }

    // Incarnation order on one channel, below the kernel. Rank 0's
    // first incarnation sends `pre` frames and dies; its successor
    // sends `post`. On a direct, a held, a timed and a stalling fabric,
    // for any release schedule, rank 1 receives every frame of both,
    // each incarnation's in send order, and once it has seen a frame
    // of the successor it never sees the predecessor again — which is
    // why the wire carries no incarnation number.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn prop_a_newer_incarnation_is_never_followed_by_an_older_one(
            model in 0u8..4,
            pre in 0u8..10,
            post in 1u8..10,
            before_kill in 0usize..6,
            choices in proptest::collection::vec(0usize..64, 0..32),
        ) {
            use proptest::prelude::prop_assert_eq;
            let clock = SimClock::new();
            let seed = u64::from(pre) << 8 | u64::from(post);
            let net_cfg = match model {
                0 => NetConfig::direct(),
                1 => NetConfig::held(),
                2 => NetConfig::lan_like(seed),
                _ => NetConfig::direct().with_chaos(ChaosConfig::seeded(seed).with_heavy_tail(
                    0.3,
                    Duration::from_micros(200),
                    1.0,
                    Duration::from_millis(2),
                )),
            };
            let net = SimNet::with_clock(2, net_cfg, Clock::Sim(clock.clone()));
            let _ep0 = net.attach(0);
            let ep1 = net.attach(1);
            let mut choices = choices.into_iter();
            // One scheduling step: release a held frame or let time pass.
            let step = |choice: usize| match model {
                1 => {
                    if let Some(&(src, dst, _)) = net.held_channels().first() {
                        if choice.is_multiple_of(2) {
                            net.held_deliver(src, dst);
                        }
                    }
                }
                0 => {}
                _ => clock.advance(Duration::from_micros(choice as u64 * 5)),
            };
            // The (incarnation, index) of every frame rank 1 received.
            let mut seen: Vec<(u8, u8)> = Vec::new();
            let recv = |seen: &mut Vec<(u8, u8)>| {
                seen.extend(drain(&ep1).iter().map(|env| (env.head[0], env.head[1])));
            };
            let mut first = Transport::new(0, net.clone());
            for i in 0..pre {
                first.send_encoded(1, (Bytes::copy_from_slice(&[1, i]), Bytes::new()));
            }
            for _ in 0..before_kill {
                step(choices.next().unwrap_or(0));
                recv(&mut seen);
            }
            net.kill(0);
            let _ep0b = net.respawn(0);
            let mut second = Transport::new(0, net.clone());
            for i in 0..post {
                second.send_encoded(1, (Bytes::copy_from_slice(&[2, i]), Bytes::new()));
                step(choices.next().unwrap_or(0));
                recv(&mut seen);
            }
            net.held_deliver_all();
            clock.advance(Duration::from_secs(1));
            recv(&mut seen);
            let expect: Vec<(u8, u8)> =
                (0..pre).map(|i| (1, i)).chain((0..post).map(|i| (2, i))).collect();
            prop_assert_eq!(seen, expect);
        }
    }
}
