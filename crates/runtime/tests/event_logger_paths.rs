//! The event-logger service paths exercised deliberately: determinant
//! shipping, acks, queries during recovery, and pessimistic send
//! gating — at cluster level with TEL and PES.

use lclog_core::ProtocolKind;
use lclog_runtime::{
    CheckpointPolicy, Cluster, ClusterConfig, CommMode, FailurePlan, Fault, RankApp, RankCtx,
    RecvSpec, RunConfig, StepStatus,
};
use lclog_wire::impl_wire_struct;

/// Ping-pong between two ranks: maximal determinant churn per message.
#[derive(Clone)]
struct PingPong {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct PpState {
    round: u64,
    value: u64,
}
impl_wire_struct!(PpState { round, value });

impl RankApp for PingPong {
    type State = PpState;

    fn init(&self, rank: usize, _n: usize) -> PpState {
        PpState {
            round: 0,
            value: 17 + rank as u64,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, st: &mut PpState) -> Result<StepStatus, Fault> {
        if st.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let peer = 1 - ctx.rank();
        if ctx.rank() == 0 {
            ctx.send_value(peer, 0, &st.value).await?;
            let (_, v): (_, u64) = ctx.recv_value(RecvSpec::from(peer, 0)).await?;
            st.value = st.value.wrapping_mul(3).wrapping_add(v);
        } else {
            let (_, v): (_, u64) = ctx.recv_value(RecvSpec::from(peer, 0)).await?;
            st.value = st.value.wrapping_mul(5).wrapping_add(v);
            ctx.send_value(peer, 0, &st.value).await?;
        }
        st.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, st: &PpState) -> u64 {
        st.value ^ st.round
    }
}

fn cfg(kind: ProtocolKind) -> ClusterConfig {
    ClusterConfig::new(
        2,
        RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(6)),
    )
}

#[test]
fn tel_stabilization_bounds_piggyback_on_pingpong() {
    // With the logger acking continuously, TEL's unstable window on a
    // 2-rank ping-pong stays far below full history.
    let rounds = 50;
    let report = Cluster::run(&cfg(ProtocolKind::Tel), PingPong { rounds }).unwrap();
    let tag = Cluster::run(&cfg(ProtocolKind::Tag), PingPong { rounds }).unwrap();
    assert!(
        report.stats.avg_ids_per_msg() < tag.stats.avg_ids_per_msg() / 2.0,
        "TEL ({:.1}) should stay far below TAG ({:.1}) on a long run",
        report.stats.avg_ids_per_msg(),
        tag.stats.avg_ids_per_msg()
    );
}

#[test]
fn tel_recovery_pulls_stable_determinants_from_logger() {
    // Kill *both* app ranks simultaneously: no survivor holds any
    // determinant, so the replay script can only come from the logger.
    let rounds = 20;
    let clean = Cluster::run(&cfg(ProtocolKind::Tel), PingPong { rounds })
        .unwrap()
        .digests;
    let config = cfg(ProtocolKind::Tel)
        .with_failures(FailurePlan::kill_at(0, 10).and_kill(1, 10));
    let report = Cluster::run(&config, PingPong { rounds }).expect("recovered run");
    assert_eq!(report.kills, 2);
    assert_eq!(report.digests, clean);
}

#[test]
fn pessim_recovery_with_no_surviving_app_rank() {
    let rounds = 16;
    let clean = Cluster::run(&cfg(ProtocolKind::Pessim), PingPong { rounds })
        .unwrap()
        .digests;
    let config = cfg(ProtocolKind::Pessim)
        .with_failures(FailurePlan::kill_at(0, 8).and_kill(1, 8));
    let report = Cluster::run(&config, PingPong { rounds }).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn pessim_blocking_engine_gates_sends() {
    // In blocking mode the send gate is serviced by inline pumping;
    // the run must complete and recover.
    let rounds = 12;
    let run = RunConfig::new(ProtocolKind::Pessim)
        .with_comm(CommMode::blocking_default())
        .with_checkpoint(CheckpointPolicy::EverySteps(4));
    let base = ClusterConfig::new(2, run);
    let clean = Cluster::run(&base, PingPong { rounds }).unwrap().digests;
    let report = Cluster::run(
        &base.with_failures(FailurePlan::kill_at(1, 6)),
        PingPong { rounds },
    )
    .expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn pessim_piggybacks_zero_always() {
    let report = Cluster::run(&cfg(ProtocolKind::Pessim), PingPong { rounds: 30 }).unwrap();
    assert_eq!(report.stats.piggyback_ids, 0);
    assert_eq!(report.stats.piggyback_bytes, 0);
    assert!(report.stats.sends > 0);
}
