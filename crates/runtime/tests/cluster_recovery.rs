//! End-to-end recovery tests: real applications on the full cluster
//! harness, with injected failures, across all three protocols.
//!
//! The central invariant everywhere: **the digests of a run with
//! failures equal the digests of the fault-free run** — rollback
//! recovery restored exactly the computation the paper's Algorithm 1
//! promises.

use lclog_core::ProtocolKind;
use lclog_runtime::collectives::allreduce_sum_f64;
use lclog_runtime::{
    CheckpointPolicy, Cluster, ClusterConfig, CommMode, FailurePlan, Fault, RankApp, RankCtx,
    RecvSpec, RunConfig, StepStatus,
};
use lclog_simnet::NetConfig;
use lclog_wire::impl_wire_struct;

fn mix(x: u64, salt: u64) -> u64 {
    (x ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_add(0x1656_67B1_9E37_79F9)
}

// ---------------------------------------------------------------------------
// Ring app: deterministic source-specific receives, one message per
// rank per round (LU-like frequency at miniature scale).
// ---------------------------------------------------------------------------

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

const RING_TAG: u32 = 10;

impl RankApp for RingApp {
    type State = RingState;

    fn init(&self, rank: usize, _n: usize) -> RingState {
        RingState {
            round: 0,
            token: mix(rank as u64, 0xABCD),
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

// ---------------------------------------------------------------------------
// All-reduce app: genuinely non-deterministic ANY_SOURCE gathers, the
// paper's §II.C scenario.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct AllReduceApp {
    iters: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct ArState {
    iter: u64,
    acc: f64,
}
impl_wire_struct!(ArState { iter, acc });

impl RankApp for AllReduceApp {
    type State = ArState;

    fn init(&self, rank: usize, _n: usize) -> ArState {
        ArState {
            iter: 0,
            acc: 1.0 + rank as f64 * 0.125,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, state: &mut ArState) -> Result<StepStatus, Fault> {
        if state.iter >= self.iters {
            return Ok(StepStatus::Done);
        }
        let local = state.acc * (1.0 + ctx.rank() as f64) / (1.0 + state.iter as f64);
        let total = allreduce_sum_f64(ctx, (state.iter as u32) * 2 + 100, local).await?;
        state.acc = state.acc * 0.5 + total * 0.25;
        state.iter += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &ArState) -> u64 {
        state.acc.to_bits() ^ state.iter
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn cfg(n: usize, kind: ProtocolKind) -> ClusterConfig {
    ClusterConfig::new(
        n,
        RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(3)),
    )
}

fn baseline_ring(n: usize, kind: ProtocolKind, rounds: u64) -> Vec<u64> {
    Cluster::run(&cfg(n, kind), RingApp { rounds })
        .expect("fault-free ring run")
        .digests
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn ring_fault_free_digests_agree_across_protocols() {
    let rounds = 20;
    let tdi = baseline_ring(4, ProtocolKind::Tdi, rounds);
    let tag = baseline_ring(4, ProtocolKind::Tag, rounds);
    let tel = baseline_ring(4, ProtocolKind::Tel, rounds);
    assert_eq!(tdi, tag, "protocol must not affect application results");
    assert_eq!(tdi, tel);
}

#[test]
fn ring_single_failure_recovers_identically_tdi() {
    single_failure_ring(ProtocolKind::Tdi);
}

#[test]
fn ring_single_failure_recovers_identically_tag() {
    single_failure_ring(ProtocolKind::Tag);
}

#[test]
fn ring_single_failure_recovers_identically_tel() {
    single_failure_ring(ProtocolKind::Tel);
}

fn single_failure_ring(kind: ProtocolKind) {
    let rounds = 20;
    let clean = baseline_ring(4, kind, rounds);
    let config = cfg(4, kind).with_failures(FailurePlan::kill_at(1, 7));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.kills, 1);
    assert_eq!(report.digests, clean, "{kind}: recovery changed the result");
}

#[test]
fn ring_failure_before_first_checkpoint_restarts_from_scratch() {
    let rounds = 12;
    let base = ClusterConfig::new(
        4,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::Never),
    );
    let clean = Cluster::run(&base, RingApp { rounds }).unwrap().digests;
    let config = base.with_failures(FailurePlan::kill_at(2, 5));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.kills, 1);
    assert_eq!(report.digests, clean);
}

#[test]
fn ring_rank0_failure_recovers() {
    // The ring driver itself dies.
    let rounds = 16;
    let clean = baseline_ring(4, ProtocolKind::Tdi, rounds);
    let config = cfg(4, ProtocolKind::Tdi).with_failures(FailurePlan::kill_at(0, 9));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn allreduce_anysource_single_failure_tdi() {
    anysource_failure(ProtocolKind::Tdi);
}

#[test]
fn allreduce_anysource_single_failure_tag() {
    anysource_failure(ProtocolKind::Tag);
}

#[test]
fn allreduce_anysource_single_failure_tel() {
    anysource_failure(ProtocolKind::Tel);
}

fn anysource_failure(kind: ProtocolKind) {
    let iters = 10;
    let clean = Cluster::run(&cfg(4, kind), AllReduceApp { iters })
        .unwrap()
        .digests;
    let config = cfg(4, kind).with_failures(FailurePlan::kill_at(2, 4));
    let report = Cluster::run(&config, AllReduceApp { iters }).expect("recovered run");
    assert_eq!(report.kills, 1);
    assert_eq!(
        report.digests, clean,
        "{kind}: ANY_SOURCE recovery changed the result"
    );
}

#[test]
fn multi_simultaneous_failures_recover_tdi() {
    // Fig. 2's scenario: several processes fail at once; their logs
    // are lost and must be regenerated during mutual roll-forward.
    let rounds = 18;
    let clean = baseline_ring(5, ProtocolKind::Tdi, rounds);
    let config = cfg(5, ProtocolKind::Tdi)
        .with_failures(FailurePlan::kill_at(1, 7).and_kill(2, 7).and_kill(3, 7));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.kills, 3);
    assert_eq!(report.digests, clean);
}

#[test]
fn multi_simultaneous_failures_recover_tag() {
    let rounds = 14;
    let clean = baseline_ring(4, ProtocolKind::Tag, rounds);
    let config = cfg(4, ProtocolKind::Tag).with_failures(FailurePlan::kill_at(1, 6).and_kill(2, 6));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.kills, 2);
    assert_eq!(report.digests, clean);
}

#[test]
fn repeated_failures_of_same_rank_recover() {
    let rounds = 20;
    let clean = baseline_ring(4, ProtocolKind::Tdi, rounds);
    let config = cfg(4, ProtocolKind::Tdi).with_failures(
        FailurePlan::kill_at(1, 6).and_kill_incarnation(1, 13, 2),
    );
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.kills, 2);
    assert_eq!(report.digests, clean);
}

#[test]
fn blocking_mode_failure_recovers() {
    // Fig. 4a architecture: peers stall while rank 1 is down, but the
    // run must still complete correctly.
    let rounds = 16;
    let run = RunConfig::new(ProtocolKind::Tdi)
        .with_comm(CommMode::blocking_default())
        .with_checkpoint(CheckpointPolicy::EverySteps(3));
    let base = ClusterConfig::new(4, run);
    let clean = Cluster::run(&base, RingApp { rounds }).unwrap().digests;
    let config = base.with_failures(FailurePlan::kill_at(1, 7));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn blocking_mode_rendezvous_sends_recover() {
    // Payloads above the eager threshold force acknowledgement waits.
    let rounds = 10;
    let run = RunConfig::new(ProtocolKind::Tdi)
        .with_comm(CommMode::Blocking { eager_threshold: 0 })
        .with_checkpoint(CheckpointPolicy::EverySteps(2));
    let base = ClusterConfig::new(3, run);
    let clean = Cluster::run(&base, RingApp { rounds }).unwrap().digests;
    let config = base.with_failures(FailurePlan::kill_at(2, 5));
    let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn delayed_reordering_fabric_failure_recovers() {
    // Seeded jitter actively reorders cross-pair traffic; recovery
    // messages arrive out of order and sit in the receiving queue
    // until deliverable (§III.E).
    let rounds = 12;
    for kind in [ProtocolKind::Tdi, ProtocolKind::Tag] {
        let base = cfg(4, kind).with_net(NetConfig::lan_like(0x5EED));
        let clean = Cluster::run(&base, RingApp { rounds }).unwrap().digests;
        let config = base.with_failures(FailurePlan::kill_at(1, 5));
        let report = Cluster::run(&config, RingApp { rounds }).expect("recovered run");
        assert_eq!(report.digests, clean, "{kind} under reordering fabric");
    }
}

#[test]
fn piggyback_ordering_matches_fig6() {
    // The paper's headline ordering: TDI piggybacks far less than TEL,
    // which piggybacks less than TAG. Measured on a collective-heavy
    // workload (hub pattern, like the NPB codes' reductions): the
    // antecedence graph's increments to each peer carry long
    // transitive histories, while the event logger caps TEL's window
    // at the logger round-trip.
    let iters = 25;
    let n = 8;
    let ids = |kind| {
        Cluster::run(&cfg(n, kind), AllReduceApp { iters })
            .unwrap()
            .stats
            .avg_ids_per_msg()
    };
    let tdi = ids(ProtocolKind::Tdi);
    let tel = ids(ProtocolKind::Tel);
    let tag = ids(ProtocolKind::Tag);
    assert_eq!(tdi, n as f64, "TDI piggybacks exactly n identifiers");
    assert!(tel > tdi, "TEL ({tel}) should exceed TDI ({tdi})");
    assert!(tag > tel, "TAG ({tag}) should exceed TEL ({tel})");
}

#[test]
fn checkpoints_garbage_collect_sender_logs() {
    // With frequent checkpoints the cluster completes and the run's
    // internal logs stay bounded — indirectly visible via success and
    // by the stats counters being sane.
    let report = Cluster::run(
        &cfg(4, ProtocolKind::Tdi),
        RingApp { rounds: 40 },
    )
    .unwrap();
    assert_eq!(report.kills, 0);
    assert_eq!(report.stats.sends, report.stats.delivers);
    // 4 ranks × 40 rounds, one send per rank per round.
    assert_eq!(report.stats.sends, 160);
}

#[test]
fn single_rank_cluster_trivially_completes() {
    let report = Cluster::run(&cfg(1, ProtocolKind::Tdi), RingApp { rounds: 5 }).unwrap();
    assert_eq!(report.digests.len(), 1);
    assert_eq!(report.kills, 0);
}

#[test]
fn chaos_many_sequential_failures_recover() {
    // Five kills across three ranks, including back-to-back
    // incarnation deaths, on a longer run.
    let rounds = 40;
    let clean = baseline_ring(4, ProtocolKind::Tdi, rounds);
    let plan = FailurePlan::kill_at(1, 5)
        .and_kill_incarnation(1, 11, 2)
        .and_kill_incarnation(1, 18, 3)
        .and_kill(2, 14)
        .and_kill(3, 25);
    let config = cfg(4, ProtocolKind::Tdi).with_failures(plan);
    let report = Cluster::run(&config, RingApp { rounds }).expect("chaos run");
    assert_eq!(report.kills, 5);
    assert_eq!(report.digests, clean);
}

#[test]
fn kill_during_recovery_rollforward() {
    // The second kill lands while incarnation 2 is still rolling
    // forward (its restored step is well before the kill step of the
    // first incarnation).
    let rounds = 24;
    let clean = baseline_ring(4, ProtocolKind::Tdi, rounds);
    let plan = FailurePlan::kill_at(2, 12)
        // Incarnation 2 restores around step 9 (ckpt every 3) and
        // must replay steps 9..12; kill it again at step 10 — mid
        // roll-forward.
        .and_kill_incarnation(2, 10, 2);
    let config = cfg(4, ProtocolKind::Tdi).with_failures(plan);
    let report = Cluster::run(&config, RingApp { rounds }).expect("mid-recovery kill run");
    assert_eq!(report.kills, 2);
    assert_eq!(report.digests, clean);
}
