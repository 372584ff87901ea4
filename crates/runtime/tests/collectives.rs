//! Direct tests of the collective operations, including under the
//! reordering fabric and with failure injection.

use lclog_core::ProtocolKind;
use lclog_runtime::collectives::{allreduce_sum_f64, barrier, broadcast, gather, reduce};
use lclog_runtime::{
    CheckpointPolicy, Cluster, ClusterConfig, FailurePlan, Fault, RankApp, RankCtx, RunConfig,
    StepStatus,
};
use lclog_simnet::NetConfig;
use lclog_wire::impl_wire_struct;

/// One step per collective kind, so every collective is exercised and
/// checkpoint/failure boundaries fall between them.
#[derive(Clone)]
struct CollectiveTour;

#[derive(Debug, Clone, PartialEq)]
struct TourState {
    stage: u64,
    checks: u64,
    acc: f64,
}
impl_wire_struct!(TourState { stage, checks, acc });

const ROUNDS: u64 = 4;

impl RankApp for CollectiveTour {
    type State = TourState;

    fn init(&self, rank: usize, _n: usize) -> TourState {
        TourState {
            stage: 0,
            checks: 0,
            acc: rank as f64 + 1.0,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, st: &mut TourState) -> Result<StepStatus, Fault> {
        if st.stage >= 4 * ROUNDS {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        let r = ctx.rank();
        let tag = 50 + (st.stage as u32) * 4;
        match st.stage % 4 {
            0 => {
                barrier(ctx, tag).await?;
                st.checks += 1;
            }
            1 => {
                let v = broadcast(ctx, 1 % n, tag, (r == 1 % n).then_some(st.acc)).await?;
                // Every rank folds the same broadcast value.
                st.acc = 0.5 * st.acc + 0.25 * v;
                st.checks += 1;
            }
            2 => {
                let sum = reduce(ctx, 0, tag, st.acc, |a, b| a + b).await?;
                if r == 0 {
                    let sum = sum.expect("root sees the reduction");
                    st.acc += sum * 0.125;
                } else {
                    assert!(sum.is_none(), "non-roots get None");
                }
                // Re-sync everyone's view.
                st.acc = broadcast(ctx, 0, tag + 1, (r == 0).then_some(st.acc)).await?;
                st.checks += 1;
            }
            _ => {
                let all = gather(ctx, 2 % n, tag, st.acc.to_bits()).await?;
                if r == 2 % n {
                    let all = all.expect("root gathers");
                    assert_eq!(all.len(), n);
                    // Fold gathered values order-insensitively.
                    let mut sorted = all;
                    sorted.sort_unstable();
                    st.acc += sorted.iter().map(|b| f64::from_bits(*b)).sum::<f64>() * 0.01;
                }
                st.acc = broadcast(ctx, 2 % n, tag + 1, (r == 2 % n).then_some(st.acc)).await?;
                st.checks += 1;
            }
        }
        st.stage += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, st: &TourState) -> u64 {
        st.acc.to_bits() ^ (st.checks << 48)
    }
}

fn cfg(n: usize) -> ClusterConfig {
    ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(3)),
    )
}

#[test]
fn tour_completes_on_direct_fabric() {
    for n in [1usize, 2, 4, 7] {
        let report = Cluster::run(&cfg(n), CollectiveTour).expect("tour run");
        assert_eq!(report.digests.len(), n, "n={n}");
    }
}

#[test]
fn tour_is_deterministic_under_reordering() {
    let direct = Cluster::run(&cfg(5), CollectiveTour).unwrap().digests;
    for seed in [1u64, 2, 3] {
        let delayed = Cluster::run(
            &cfg(5).with_net(NetConfig::lan_like(seed)),
            CollectiveTour,
        )
        .unwrap()
        .digests;
        assert_eq!(
            delayed, direct,
            "ANY_SOURCE arrival order must not leak into results (seed {seed})"
        );
    }
}

#[test]
fn tour_recovers_from_failures_at_each_stage_kind() {
    let clean = Cluster::run(&cfg(4), CollectiveTour).unwrap().digests;
    for at_step in [1u64, 2, 3, 4] {
        let report = Cluster::run(
            &cfg(4).with_failures(FailurePlan::kill_at(1, at_step)),
            CollectiveTour,
        )
        .expect("recovered tour");
        assert_eq!(report.digests, clean, "failure before step {at_step}");
    }
}

/// Multi-round allreduce used by the mid-collective kill tests.
#[derive(Clone)]
struct IterativeAllReduce {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct ArSt {
    round: u64,
    acc: f64,
}
impl_wire_struct!(ArSt { round, acc });

impl RankApp for IterativeAllReduce {
    type State = ArSt;
    fn init(&self, rank: usize, _n: usize) -> ArSt {
        ArSt {
            round: 0,
            acc: 1.0 + rank as f64 * 0.5,
        }
    }
    async fn step(&self, ctx: &mut RankCtx<'_>, st: &mut ArSt) -> Result<StepStatus, Fault> {
        if st.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let total = allreduce_sum_f64(ctx, 200 + st.round as u32 * 2, st.acc).await?;
        st.acc = st.acc * 0.5 + total * 0.125;
        st.round += 1;
        Ok(StepStatus::Continue)
    }
    fn digest(&self, st: &ArSt) -> u64 {
        st.acc.to_bits() ^ st.round
    }
}

// Regression for the collect-then-combine panic sweep: when a rank
// dies *inside* an allreduce, the survivors — the root blocked in the
// ANY_SOURCE gather, the others waiting on the broadcast — must see a
// `Fault` from the runtime and take the recovery path. The pre-fix
// code could instead abort the process on an `expect` once the
// contribution count and the slot occupancy disagreed.
#[test]
fn allreduce_recovers_when_contributor_dies_mid_collective() {
    let app = IterativeAllReduce { rounds: 8 };
    let clean = Cluster::run(&cfg(4), app.clone()).unwrap().digests;
    for at_step in [2u64, 5] {
        let report = Cluster::run(
            &cfg(4).with_failures(FailurePlan::kill_at(3, at_step)),
            app.clone(),
        )
        .expect("recovered allreduce run");
        assert_eq!(report.kills, 1);
        assert_eq!(report.digests, clean, "kill at step {at_step}");
    }
}

#[test]
fn allreduce_recovers_when_root_dies_mid_collective() {
    // Rank 0 is both the reduce root and the broadcast source: killing
    // it strands every survivor inside the collective until recovery
    // resupplies the lost messages.
    let app = IterativeAllReduce { rounds: 8 };
    let clean = Cluster::run(&cfg(4), app.clone()).unwrap().digests;
    let report = Cluster::run(
        &cfg(4).with_failures(FailurePlan::kill_at(0, 3)),
        app,
    )
    .expect("recovered allreduce run with dead root");
    assert_eq!(report.kills, 1);
    assert_eq!(report.digests, clean);
}

#[test]
fn allreduce_matches_sequential_sum() {
    #[derive(Clone)]
    struct OneShot;
    #[derive(Debug, Clone, PartialEq)]
    struct S {
        done: u64,
        out: f64,
    }
    impl_wire_struct!(S { done, out });
    impl RankApp for OneShot {
        type State = S;
        fn init(&self, rank: usize, _n: usize) -> S {
            S {
                done: 0,
                out: (rank + 1) as f64,
            }
        }
        async fn step(&self, ctx: &mut RankCtx<'_>, st: &mut S) -> Result<StepStatus, Fault> {
            if st.done == 1 {
                return Ok(StepStatus::Done);
            }
            st.out = allreduce_sum_f64(ctx, 9, st.out).await?;
            st.done = 1;
            Ok(StepStatus::Continue)
        }
        fn digest(&self, st: &S) -> u64 {
            st.out.to_bits()
        }
    }
    let n = 6;
    let report = Cluster::run(&cfg(n), OneShot).unwrap();
    let expected = (1..=n).map(|v| v as f64).sum::<f64>().to_bits();
    assert!(report.digests.iter().all(|&d| d == expected));
}
