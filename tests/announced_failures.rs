//! Announced failures end to end, as the paper assumes them: a rank is
//! killed by the failure plan and its successor comes up in the same
//! sweep. Cascading and repeated deaths mid-recovery, and a seeded
//! soak of random kills on a stalling fabric over the NPB kernels under
//! TDI, TAG and TEL, must all recover exactly once. Every run goes
//! through `Cluster::run` on a virtual clock.

use std::time::Duration;

use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;

fn lu_config(failures: FailurePlan) -> ClusterConfig {
    ClusterConfig::new(
        4,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    )
    .with_failures(failures)
}

// Cascading failure: rank 2 dies while rank 1's recovery is in flight,
// i.e. while rank 1 is still owed a RESPONSE from rank 2, and rank 1's
// ROLLBACK dies with rank 2's inbox. The ROLLBACK of rank 2's successor
// announces the death; rank 1 must answer it with its own again, or
// its `Replaying` would wait on the dead responder. Every recovering
// incarnation must reach `synced` before the run ends, and the digests
// must match the failure-free run.
#[test]
fn cascading_failure_survivor_killed_mid_recovery() {
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &lu_config(FailurePlan::none()))
        .expect("clean run");
    let cascading = lu_config(FailurePlan::kill_at(1, 8).and_kill(2, 8)).with_trace(true);
    let faulty = run_benchmark(Benchmark::Lu, Class::Test, &cascading).expect("cascading run");
    assert_eq!(clean.digests, faulty.digests);
    assert_eq!(faulty.kills, 2);
    assert_recovering_incarnations_synced(&faulty);
}

// Repeated failure of the same rank: its second incarnation is killed
// mid-recovery too, so one rank goes through two successors and the
// third incarnation must finish the job.
#[test]
fn repeated_incarnation_failure_recovers() {
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &lu_config(FailurePlan::none()))
        .expect("clean run");
    let repeated =
        lu_config(FailurePlan::kill_at(1, 8).and_kill_incarnation(1, 4, 2)).with_trace(true);
    let faulty = run_benchmark(Benchmark::Lu, Class::Test, &repeated).expect("repeated run");
    assert_eq!(clean.digests, faulty.digests);
    assert_eq!(faulty.kills, 2);
    assert_recovering_incarnations_synced(&faulty);
}

/// The fixed CI seed set. Deliberately spread across protocols and
/// benchmarks (seed % 3 picks each) so one soak pass covers TDI, TAG,
/// and TEL.
const SEEDS: [u64; 8] = [
    0x0001, 0x00a5, 0x0b1e, 0xc0de, 0xd00d, 0x1234, 0x9e37, 0xf00d,
];

fn protocol_for(seed: u64) -> ProtocolKind {
    match seed % 3 {
        0 => ProtocolKind::Tdi,
        1 => ProtocolKind::Tag,
        _ => ProtocolKind::Tel,
    }
}

fn bench_for(seed: u64) -> Benchmark {
    match (seed / 3) % 3 {
        0 => Benchmark::Lu,
        1 => Benchmark::Bt,
        _ => Benchmark::Sp,
    }
}

// Seeded chaos soak: fixed seeds, random kills and a fabric that
// stalls links for heavy-tailed delays (reliable and FIFO still, as
// the paper's channels are). Every run must land on the failure-free
// digests.
#[test]
fn soak_random_failures_under_chaos_across_seeds() {
    let n = 4;
    for seed in SEEDS {
        let kind = protocol_for(seed);
        let bench = bench_for(seed);
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        );
        let clean = run_benchmark(bench, Class::Test, &base).expect("clean run");
        let chaotic = base
            .with_net(NetConfig::direct().with_chaos(ChaosConfig::seeded(seed).with_heavy_tail(
                0.02,
                Duration::from_millis(2),
                1.0,
                Duration::from_millis(20),
            )))
            .with_failures(FailurePlan::seeded_random(seed, n, 2, 14));
        let faulty = run_benchmark(bench, Class::Test, &chaotic)
            .unwrap_or_else(|e| panic!("soak run failed: {kind}/{bench:?} seed {seed:#x}: {e}"));
        assert_eq!(
            clean.digests, faulty.digests,
            "{kind}/{bench:?} seed {seed:#x}"
        );
    }
}

// Every incarnation the timeline shows recovering (spawned with
// incarnation > 1 and not itself killed later) must log a transition
// into `synced` before its successor spawns or the run ends.
fn assert_recovering_incarnations_synced(report: &RunReport) {
    let n = report.digests.len();
    for rank in 0..n {
        let mut recovering: Option<u64> = None;
        let mut last_done: Option<u64> = None;
        for ev in report.timeline.iter().filter(|e| e.rank == rank) {
            match &ev.kind {
                EventKind::Spawned { incarnation } => {
                    if let Some(inc) = recovering {
                        panic!("rank {rank} incarnation {inc} never synced before respawn");
                    }
                    if *incarnation > 1 {
                        recovering = Some(*incarnation);
                    }
                }
                EventKind::Crashed { .. } => {
                    // A recovering incarnation killed mid-recovery is
                    // excused — its successor takes over the claim.
                    recovering = None;
                }
                EventKind::RecoveryTransition { to, .. } if *to == "synced" => {
                    recovering = None;
                }
                EventKind::Done { step } => last_done = Some(*step),
                _ => {}
            }
        }
        assert!(
            recovering.is_none(),
            "rank {rank} still recovering (incarnation {recovering:?}) at end of run"
        );
        assert!(last_done.is_some(), "rank {rank} never finished");
    }
}
