//! The pair rig: two live kernels (ranks 0 and 1) of an `n`-rank world
//! on a direct fabric, driven by the one driver thread the way an
//! engine's comm loop drives a kernel — drain the endpoint, hand the
//! batch to `ingest_batch`, `tick`, then `try_deliver` until empty.
//!
//! Every `pair_*` workload is a loop over the three cycles here
//! (stream window, ping-pong round trip, kill-and-recover), and every
//! other workload borrows the ping-pong and recovery cycles as probes
//! in its own world (its `n`, protocol and payload size).

use crate::stats::SplitMix64;
use crate::trace::{SpanId, Tracer};
use bytes::Bytes;
use lclog_core::ProtocolKind;
use lclog_runtime::{Clock, Kernel, RecoveryPhase, RecvSpec, RunConfig};
use lclog_simnet::{Endpoint, Envelope, NetConfig, SimClock, SimNet};
use lclog_stable::{CheckpointStore, MemStore};
use std::sync::Arc;
use std::time::Instant;

/// Distinct payloads a rig cycles through (message `i` of a sender
/// carries payload `i % POOL`, which is what the receiver checks).
const POOL: u64 = 64;
const TAG: u32 = 7;

/// The message shape and system size a rig (or an engine run) works in.
#[derive(Debug, Clone, Copy)]
pub struct World {
    pub n: usize,
    pub kind: ProtocolKind,
    pub payload: usize,
    /// Messages sent before the receiver is serviced.
    pub window: u64,
    /// Deliveries (round trips, for ping-pong) between checkpoints.
    pub ckpt_every: u64,
}

/// What a rig has done since it was built: the benchmark's own count
/// of operations and of everything that went wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Application messages delivered (replays included).
    pub delivered: u64,
    /// Payload bytes of those messages.
    pub payload_bytes: u64,
    /// Bytes of every envelope drained from either endpoint — data,
    /// acks and control alike.
    pub wire_bytes: u64,
    /// Wrong source, tag, payload or order; a missing or surplus
    /// delivery; a recovery that did not finish.
    pub failed: u64,
    /// Order-sensitive fold of every delivered message.
    pub digest: u64,
}

fn fold(digest: u64, seq: u64, data: &[u8]) -> u64 {
    let head = data
        .get(..8)
        .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
    (digest ^ seq ^ head)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// Per-rank application state: what the rig checkpoints and restores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct AppState {
    /// Messages from the peer delivered so far (= next expected − 1).
    delivered: u64,
    digest: u64,
}

impl AppState {
    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&self.delivered.to_le_bytes());
        v.extend_from_slice(&self.digest.to_le_bytes());
        v
    }

    fn decode(bytes: &[u8]) -> Option<AppState> {
        Some(AppState {
            delivered: u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?),
            digest: u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?),
        })
    }
}

pub struct PairRig {
    pub world: World,
    net: SimNet,
    store: CheckpointStore,
    cfg: RunConfig,
    k: [Kernel; 2],
    ep: [Endpoint; 2],
    /// Incarnation of rank 1, the only rank the rig ever kills.
    incarnation: u64,
    pool: Vec<Bytes>,
    sent: [u64; 2],
    app: [AppState; 2],
    ckpt_step: [u64; 2],
    /// Rank 1's deliveries since its last checkpoint: what a kill loses.
    unsaved: u64,
    scratch: Vec<Envelope>,
    pub tally: Tally,
}

impl PairRig {
    pub fn new(world: World, seed: u64) -> PairRig {
        assert!(world.n >= 2 && world.payload >= 8 && world.window >= 1);
        let net = SimNet::new(world.n, NetConfig::direct());
        let store = CheckpointStore::new(Arc::new(MemStore::new()));
        let mut cfg = RunConfig::new(world.kind);
        if world.n > 2 {
            // Ranks 2.. never attach. On the wall clock the two live
            // kernels would spend their ticks retransmitting
            // checkpoint notices to those absent peers and then write
            // them off; a real n-rank run has no absent peers, so time
            // stands still here, as it does between the task engine's
            // sweeps.
            cfg = cfg.with_clock(Clock::Sim(SimClock::new()));
        }
        let ep = [net.attach(0), net.attach(1)];
        let k = [0, 1].map(|r| Kernel::new(r, world.n, cfg.clone(), net.clone(), store.clone()));
        let mut rng = SplitMix64::new(seed);
        let pool = (0..POOL)
            .map(|_| {
                let mut buf = vec![0u8; world.payload];
                rng.fill(&mut buf);
                Bytes::from(buf)
            })
            .collect();
        PairRig {
            world,
            net,
            store,
            cfg,
            k,
            ep,
            incarnation: 1,
            pool,
            sent: [0; 2],
            app: [AppState::default(); 2],
            ckpt_step: [0; 2],
            unsaved: 0,
            scratch: Vec::with_capacity(256),
            tally: Tally::default(),
        }
    }

    pub fn kernel(&self, rank: usize) -> &Kernel {
        &self.k[rank]
    }

    /// Latest stored checkpoint image of `rank`, as the store holds it.
    pub fn latest_image(&self, rank: usize) -> Option<Vec<u8>> {
        self.store.load_latest(rank).map(|(_, bytes)| bytes)
    }

    fn send<T: Tracer>(&mut self, from: usize, t: &mut T) {
        let data = self.pool[(self.sent[from] % POOL) as usize].clone();
        self.sent[from] += 1;
        let k = &self.k[from];
        t.span(SpanId::AppSend, || k.app_send(1 - from, TAG, data, false));
    }

    /// One comm-loop turn for `rank`: drain, ingest, tick. `ingest`
    /// names the span — data arriving at a receiver, or acks and
    /// checkpoint notices coming back to a sender.
    fn pump<T: Tracer>(&mut self, rank: usize, ingest: SpanId, t: &mut T) {
        let (ep, k, batch) = (&self.ep[rank], &self.k[rank], &mut self.scratch);
        t.span_units(SpanId::TryRecv, || {
            while let Ok(env) = ep.try_recv() {
                batch.push(env);
            }
            // The empty poll that ends the drain is a call too.
            ((), batch.len() as u32 + 1)
        });
        let drained = batch.len();
        self.tally.wire_bytes += batch.iter().map(|e| e.len() as u64).sum::<u64>();
        if drained > 0 {
            t.span_units(ingest, || (k.ingest_batch(batch.drain(..)), drained as u32));
        }
        t.span(SpanId::Tick, || k.tick());
    }

    /// `try_deliver` once at `rank`; check and count what comes out.
    fn deliver<T: Tracer>(&mut self, rank: usize, t: &mut T) -> bool {
        let k = &self.k[rank];
        let Some(msg) = t.span(SpanId::TryDeliver, || k.try_deliver(RecvSpec::any())) else {
            return false;
        };
        let app = &mut self.app[rank];
        let want = &self.pool[(app.delivered % POOL) as usize];
        if msg.src != 1 - rank || msg.tag != TAG || msg.data[..] != want[..] {
            self.tally.failed += 1;
        }
        app.delivered += 1;
        app.digest = fold(app.digest, app.delivered, &msg.data);
        self.tally.delivered += 1;
        self.tally.payload_bytes += msg.data.len() as u64;
        self.tally.digest = fold(self.tally.digest, rank as u64, &app.digest.to_le_bytes());
        if rank == 1 {
            self.unsaved += 1;
        }
        true
    }

    fn checkpoint<T: Tracer>(&mut self, rank: usize, t: &mut T) {
        self.ckpt_step[rank] += 1;
        let (k, state, step) = (&self.k[rank], self.app[rank].encode(), self.ckpt_step[rank]);
        t.span(SpanId::DoCheckpoint, || k.do_checkpoint(state, step));
        if rank == 1 {
            self.unsaved = 0;
        }
    }

    /// Stream `msgs` messages `from` → its peer in windows: send a
    /// window, service the receiver (which checkpoints every
    /// `ckpt_every` deliveries when `ckpt`), service the sender's acks.
    pub fn stream<T: Tracer>(&mut self, from: usize, msgs: u64, ckpt: bool, t: &mut T) {
        let to = 1 - from;
        let before = self.app[to].delivered;
        let mut left = msgs;
        while left > 0 {
            t.next_op();
            let burst = left.min(self.world.window);
            for _ in 0..burst {
                self.send(from, t);
            }
            left -= burst;
            self.pump(to, SpanId::IngestData, t);
            while self.deliver(to, t) {
                if ckpt && self.app[to].delivered.is_multiple_of(self.world.ckpt_every) {
                    self.checkpoint(to, t);
                }
            }
            self.pump(from, SpanId::IngestAck, t);
        }
        let got = self.app[to].delivered - before;
        self.tally.failed += got.abs_diff(msgs);
    }

    /// `rounds` round trips with exactly one message in flight, each
    /// timed on its own (ns) into `samples`; both ranks checkpoint
    /// every `ckpt_every` round trips.
    pub fn pingpong<T: Tracer>(&mut self, rounds: u64, samples: &mut Vec<u32>, t: &mut T) {
        for i in 1..=rounds {
            t.next_op();
            let start = Instant::now();
            let mut ok = true;
            for from in [0, 1] {
                self.send(from, t);
                self.pump(1 - from, SpanId::IngestData, t);
                ok &= self.deliver(1 - from, t);
            }
            samples.push(u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX));
            self.tally.failed += u64::from(!ok);
            if i.is_multiple_of(self.world.ckpt_every) {
                self.checkpoint(1, t);
                self.checkpoint(0, t);
            }
        }
    }

    /// Kill rank 1 and bring up its next incarnation through the
    /// program's own recovery path: respawn the endpoint, fresh
    /// kernel, `load_checkpoint` → `restore` → `begin_recovery`, then
    /// pump both kernels until every delivery the kill lost has been
    /// replayed. With both ranks of the world alive (n = 2) the
    /// recovery must also reach `Synced`; in a wider world the absent
    /// peers never answer the `ROLLBACK`, and replay alone ends it —
    /// TDI delivers during recovery, so it can.
    ///
    /// Returns milliseconds from the kill to the last replayed delivery.
    pub fn kill_and_recover<T: Tracer>(&mut self, t: &mut T) -> f64 {
        let lost = self.unsaved;
        let start = Instant::now();
        self.net.kill(1);
        let ep = self.net.respawn(1);
        self.incarnation += 1;
        let mut k = Kernel::new(
            1,
            self.world.n,
            self.cfg.clone(),
            self.net.clone(),
            self.store.clone(),
        );
        k.set_incarnation(self.incarnation);
        let image = t.span(SpanId::LoadCheckpoint, || k.load_checkpoint());
        let restored = image
            .and_then(|image| t.span(SpanId::Restore, || k.restore(image)).ok())
            .and_then(|(step, bytes)| Some((step, AppState::decode(&bytes)?)));
        let Some((step, state)) = restored else {
            self.tally.failed += 1;
            return start.elapsed().as_secs_f64() * 1e3;
        };
        self.app[1] = state;
        self.ckpt_step[1] = step;
        self.unsaved = 0;
        t.enter(SpanId::RecoverRollback);
        t.span(SpanId::BeginRecovery, || k.begin_recovery());
        // The dead incarnation is dropped after the clock stops.
        let dead = (
            std::mem::replace(&mut self.k[1], k),
            std::mem::replace(&mut self.ep[1], ep),
        );
        // The survivor takes the ROLLBACK and resends from its log.
        self.pump(0, SpanId::IngestAck, t);
        t.exit();
        t.enter(SpanId::RecoverReplay);
        let mut replayed = 0;
        let mut done = false;
        for _ in 0..10_000 {
            self.pump(1, SpanId::IngestData, t);
            while self.deliver(1, t) {
                replayed += 1;
            }
            done = replayed >= lost
                && (self.world.n > 2
                    || !matches!(
                        self.k[1].recovery_phase(),
                        RecoveryPhase::Logging | RecoveryPhase::Replaying { .. }
                    ));
            if done {
                break;
            }
            self.pump(0, SpanId::IngestAck, t);
        }
        t.exit();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(dead);
        self.tally.failed += u64::from(!done) + replayed.abs_diff(lost);
        ms
    }

    /// Rank 1's half of the recovery workload's state: it sends
    /// `prefill` messages that rank 0 delivers without checkpointing
    /// (so they stay in rank 1's sender log), then checkpoints — its
    /// image now carries that log.
    pub fn prefill_and_checkpoint<T: Tracer>(&mut self, prefill: u64, t: &mut T) {
        self.stream(1, prefill, false, t);
        self.checkpoint(1, t);
    }
}
