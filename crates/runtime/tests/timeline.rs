//! The structured timeline must tell a complete, ordered recovery
//! story.

use lclog_core::ProtocolKind;
use lclog_runtime::{
    CheckpointPolicy, Cluster, ClusterConfig, EventKind, FailurePlan, Fault, RankApp, RankCtx,
    RecvSpec, RunConfig, StepStatus,
};
use lclog_wire::impl_wire_struct;

#[derive(Clone)]
struct Ring {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct St {
    round: u64,
    value: u64,
}
impl_wire_struct!(St { round, value });

impl RankApp for Ring {
    type State = St;
    fn init(&self, rank: usize, _n: usize) -> St {
        St {
            round: 0,
            value: rank as u64,
        }
    }
    async fn step(&self, ctx: &mut RankCtx<'_>, st: &mut St) -> Result<StepStatus, Fault> {
        if st.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        ctx.send_value((ctx.rank() + 1) % n, 1, &st.value).await?;
        let (_, v): (_, u64) = ctx
            .recv_value(RecvSpec::from((ctx.rank() + n - 1) % n, 1))
            .await?;
        st.value = st.value.wrapping_add(v ^ st.round);
        st.round += 1;
        Ok(StepStatus::Continue)
    }
    fn digest(&self, st: &St) -> u64 {
        st.value
    }
}

#[test]
fn untraced_runs_have_empty_timelines() {
    let cfg = ClusterConfig::new(3, RunConfig::new(ProtocolKind::Tdi));
    let report = Cluster::run(&cfg, Ring { rounds: 6 }).unwrap();
    assert!(report.timeline.is_empty());
}

#[test]
fn traced_failure_run_tells_the_whole_story() {
    let n = 4;
    let victim = 1usize;
    let cfg = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    )
    .with_failures(FailurePlan::kill_at(victim, 9))
    .with_trace(true);
    let report = Cluster::run(&cfg, Ring { rounds: 16 }).unwrap();
    let tl = &report.timeline;

    // n + 1 spawns (one respawn), 1 crash, 1 rollback broadcast run,
    // n − 1 responses, 1 sync, n dones.
    let count = |pred: &dyn Fn(&EventKind) -> bool| tl.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(&|k| matches!(k, EventKind::Spawned { .. })), n + 1);
    assert_eq!(count(&|k| matches!(k, EventKind::Crashed { .. })), 1);
    assert!(count(&|k| matches!(k, EventKind::RollbackBroadcast { .. })) >= 1);
    assert_eq!(count(&|k| matches!(k, EventKind::ResponseReceived { .. })), n - 1);
    assert_eq!(count(&|k| matches!(k, EventKind::RecoverySynced { .. })), 1);
    assert_eq!(count(&|k| matches!(k, EventKind::Done { .. })), n);
    assert!(count(&|k| matches!(k, EventKind::Checkpoint { .. })) >= n);

    // Ordering: crash < incarnation spawn < rollback < sync, all on
    // the victim; timeline is globally time-sorted.
    assert!(tl.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    let pos = |pred: &dyn Fn(&EventKind) -> bool, rank: usize| {
        tl.iter()
            .position(|e| e.rank == rank && pred(&e.kind))
            .expect("event present")
    };
    let crash = pos(&|k| matches!(k, EventKind::Crashed { .. }), victim);
    let respawn = tl
        .iter()
        .position(|e| {
            e.rank == victim && matches!(e.kind, EventKind::Spawned { incarnation: 2 })
        })
        .expect("incarnation 2 spawned");
    let rollback = pos(&|k| matches!(k, EventKind::RollbackBroadcast { .. }), victim);
    let synced = pos(&|k| matches!(k, EventKind::RecoverySynced { .. }), victim);
    assert!(crash < respawn && respawn < rollback && rollback < synced);

    // Crash happened at the planned step.
    let crashed_step = tl
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Crashed { step } if e.rank == victim => Some(step),
            _ => None,
        })
        .unwrap();
    assert_eq!(crashed_step, 9);
}

#[test]
fn multi_failure_timeline_has_one_sync_per_incarnation() {
    let cfg = ClusterConfig::new(
        4,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    )
    .with_failures(FailurePlan::kill_at(0, 8).and_kill(2, 8))
    .with_trace(true);
    let report = Cluster::run(&cfg, Ring { rounds: 14 }).unwrap();
    let syncs = report
        .timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RecoverySynced { .. }))
        .count();
    // Under TDI an incarnation may legitimately finish the whole
    // application before the *other* dead rank's RESPONSE arrives —
    // relaxed-order roll-forward needs no sync barrier. So between 1
    // and 2 syncs complete, never more.
    assert!((1..=2).contains(&syncs), "saw {syncs} recovery syncs");
    let crashes = report
        .timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crashed { .. }))
        .count();
    assert_eq!(crashes, 2);
}
