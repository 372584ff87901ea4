//! End-to-end durable log shipping: node-loss (process + wiped local
//! store) recovery through the remote replica, torn-upload fallback,
//! and catch-up after a backend outage.
//!
//! The invariant is the same as in `cluster_recovery`: **digests of a
//! run with failures equal the digests of the fault-free run** — here
//! even when the failure takes the local stable store with it, which
//! the baseline protocol cannot survive at all.

use lclog_core::ProtocolKind;
use lclog_runtime::events::EventKind;
use lclog_runtime::{
    CheckpointPolicy, Cluster, ClusterConfig, FailurePlan, Fault, RankApp, RankCtx, RecvSpec,
    RunConfig, StepStatus,
};
use lclog_simnet::StorageChaos;
use lclog_stable::{FaultyRemote, Manifest, MemRemote, RemoteStore, MANIFEST_KEY};
use lclog_wire::impl_wire_struct;
use std::sync::Arc;

fn mix(x: u64, salt: u64) -> u64 {
    (x ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_add(0x1656_67B1_9E37_79F9)
}

#[derive(Clone)]
struct RingApp {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct RingState {
    round: u64,
    token: u64,
}
impl_wire_struct!(RingState { round, token });

const RING_TAG: u32 = 21;

impl RankApp for RingApp {
    type State = RingState;

    fn init(&self, rank: usize, _n: usize) -> RingState {
        RingState {
            round: 0,
            token: mix(rank as u64, 0x5EA5),
        }
    }

    async fn step(
        &self,
        ctx: &mut RankCtx<'_>,
        state: &mut RingState,
    ) -> Result<StepStatus, Fault> {
        if state.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        let r = ctx.rank();
        let right = (r + 1) % n;
        if r == 0 {
            let out = mix(state.token, state.round);
            ctx.send_value(right, RING_TAG, &out).await?;
            let (_, t): (_, u64) = ctx.recv_value(RecvSpec::from(n - 1, RING_TAG)).await?;
            state.token = t;
        } else {
            let (_, t): (_, u64) = ctx.recv_value(RecvSpec::from(r - 1, RING_TAG)).await?;
            let out = mix(t, state.round ^ (r as u64) << 32);
            ctx.send_value(right, RING_TAG, &out).await?;
            state.token = out;
        }
        state.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &RingState) -> u64 {
        mix(state.token, state.round)
    }
}

fn cfg(n: usize, kind: ProtocolKind) -> ClusterConfig {
    ClusterConfig::new(
        n,
        RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(3)),
    )
}

fn baseline(n: usize, kind: ProtocolKind, rounds: u64) -> Vec<u64> {
    Cluster::run(&cfg(n, kind), RingApp { rounds })
        .expect("fault-free ring run")
        .digests
}

// ---------------------------------------------------------------------------
// Node loss: kill a rank AND wipe its local store. The respawn must
// restore the newest certified generation from the remote and rejoin
// via the ordinary ROLLBACK handshake.
// ---------------------------------------------------------------------------

fn wipe_restore(kind: ProtocolKind) {
    let rounds = 20;
    let clean = baseline(4, kind, rounds);
    let config = cfg(4, kind)
        .with_failures(FailurePlan::kill_wipe_at(1, 7))
        .with_remote(Arc::new(MemRemote::new()))
        .with_trace(true);
    let report = Cluster::run(&config, RingApp { rounds }).expect("node-loss run recovers");
    assert_eq!(report.kills, 1);
    assert_eq!(report.digests, clean, "{kind}: node loss changed the result");
    let stats = report.replicator.as_ref().expect("replicator ran");
    assert!(stats.restores >= 1, "restore path must have run: {stats:?}");
    assert_eq!(stats.unsynced_at_exit, 0, "remote must hold everything");
    let wiped = report
        .timeline
        .iter()
        .any(|e| matches!(e.kind, EventKind::StoreWiped { generations } if generations > 0));
    assert!(wiped, "timeline must record the store wipe");
    let restored = report
        .timeline
        .iter()
        .any(|e| e.rank == 1 && matches!(e.kind, EventKind::RemoteRestored { .. }));
    assert!(restored, "timeline must record the remote restore");
}

#[test]
fn wiped_rank_restores_from_remote_tdi() {
    wipe_restore(ProtocolKind::Tdi);
}

#[test]
fn wiped_rank_restores_from_remote_tel() {
    wipe_restore(ProtocolKind::Tel);
}

// ---------------------------------------------------------------------------
// Torn upload: the newest remote generation is damaged in flight with
// the node's death. Restore must fall back one generation — and the
// survivors' lagged log GC must still be able to replay the longer
// roll-forward interval.
// ---------------------------------------------------------------------------

#[test]
fn corrupted_newest_generation_falls_back_one() {
    let rounds = 20;
    let clean = baseline(4, ProtocolKind::Tdi, rounds);
    // Kill at step 8: checkpoints at steps 3 and 6 exist, so after the
    // newest (v2) is torn there is still a v1 to fall back to.
    let config = cfg(4, ProtocolKind::Tdi)
        .with_failures(FailurePlan::none().and_kill_wipe_corrupt(1, 8))
        .with_remote(Arc::new(MemRemote::new()))
        .with_trace(true);
    let report = Cluster::run(&config, RingApp { rounds }).expect("torn-upload run recovers");
    assert_eq!(report.kills, 1);
    assert_eq!(report.digests, clean, "fallback restore changed the result");
    let stats = report.replicator.as_ref().expect("replicator ran");
    assert!(
        stats.generations_skipped >= 1,
        "the damaged newest generation must have been skipped: {stats:?}"
    );
    let fell_back = report.timeline.iter().any(
        |e| matches!(e.kind, EventKind::RemoteRestored { skipped, .. } if skipped >= 1),
    );
    assert!(fell_back, "timeline must record the skipped generation");
}

// ---------------------------------------------------------------------------
// Backend outage: shipping never blocks the application, failed puts
// wait in the queue, and when the backend returns the replicator
// catches up completely.
// ---------------------------------------------------------------------------

#[test]
fn outage_degrades_then_catches_up() {
    let rounds = 24;
    let clean = baseline(4, ProtocolKind::Tdi, rounds);
    let remote = Arc::new(FaultyRemote::new(
        MemRemote::new(),
        StorageChaos::seeded(0xA11E).with_outage(4, 60),
    ));
    let config = cfg(4, ProtocolKind::Tdi).with_remote(remote.clone());
    let report = Cluster::run(&config, RingApp { rounds }).expect("outage run completes");
    assert_eq!(report.digests, clean, "an outage must never affect the app");
    let stats = report.replicator.as_ref().expect("replicator ran");
    assert_eq!(
        stats.retries, 56,
        "the operations of the outage window fail, and only they: {stats:?}"
    );
    assert_eq!(
        stats.unsynced_at_exit, 0,
        "replication must catch up after the outage: {stats:?}"
    );
    // Every object the final manifest promises is certified.
    let store = remote.inner();
    let manifest = Manifest::decode(&store.get(MANIFEST_KEY).unwrap().expect("manifest present"))
        .expect("manifest intact");
    assert!(!manifest.entries.is_empty());
    for entry in &manifest.entries {
        let blob = store.get(&entry.key).unwrap().expect("object present");
        assert!(
            Manifest::certifies(entry, &blob),
            "{} not certified",
            entry.key
        );
    }
}
