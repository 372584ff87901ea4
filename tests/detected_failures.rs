//! Detected failures end to end: the detector + membership + fencing
//! stack replaces announced failures, and recovery must still be
//! exactly-once. The NPB runs go through `Cluster::run`, the chaos run
//! through the tasks driver; both run on a virtual clock.

use std::time::Duration;

use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;
use lclog::runtime::{run_tasks, TaskApp, TaskCtx, TaskPoll};

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Neighbour-exchange ring as a task: each round every rank sends one
/// value right and folds one from the left.
struct Ring {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct RingState {
    round: u64,
    sent: bool,
    acc: u64,
}
impl_wire_struct!(RingState { round, sent, acc });

impl TaskApp for Ring {
    type State = RingState;

    fn init(&self, rank: Rank, _n: usize) -> RingState {
        RingState {
            round: 0,
            sent: false,
            acc: mix(rank as u64),
        }
    }

    fn poll(&self, ctx: &mut TaskCtx<'_>, st: &mut RingState) -> Result<TaskPoll, Fault> {
        if st.round >= self.rounds {
            return Ok(TaskPoll::Done);
        }
        let (me, n) = (ctx.rank(), ctx.n());
        if !st.sent {
            ctx.send_value((me + 1) % n, 0, &mix(st.acc ^ st.round))?;
            st.sent = true;
        }
        match ctx.try_recv_value::<u64>(RecvSpec::from((me + n - 1) % n, 0))? {
            Some((_, v)) => {
                st.acc = mix(st.acc.wrapping_add(v));
                st.sent = false;
                st.round += 1;
                Ok(TaskPoll::Step)
            }
            None => Ok(TaskPoll::Pending),
        }
    }

    fn digest(&self, st: &RingState) -> u64 {
        mix(st.acc ^ st.round)
    }
}

#[test]
fn smoke_detected_single_failure() {
    let n = 4;
    let base = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    );
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean run");
    let detected = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi)
            .with_checkpoint(CheckpointPolicy::EverySteps(4))
            .with_detector(DetectorConfig::default()),
    )
    .with_failures(FailurePlan::kill_at(1, 9));
    let faulty = run_benchmark(Benchmark::Lu, Class::Test, &detected).expect("detected run");
    assert_eq!(clean.digests, faulty.digests);
    let det = faulty.detector.expect("detector report");
    eprintln!("detector report: {det:?}");
    assert!(det.declarations >= 1);
    assert_eq!(det.false_kills, 0);
}

// Detected failures under a hostile fabric: seeded random kills plus a
// chaos schedule with loss, duplication, corruption, and a seeded
// heavy-tailed (lognormal) delay distribution. The delay cap (20 ms)
// sits below the default threshold's detection silence (~37 ms), so
// the detector must ride out every stall without a false kill while
// still certifying the real deaths — and recovery must stay
// exactly-once. It runs under the tasks engine, where detector, fabric
// delays and respawn gate all read the job's virtual clock: a run is a
// pure function of its config, detection latencies included.
#[test]
fn detected_seeded_chaos_with_heavy_tail() {
    let n = 4;
    let cfg = |run: RunConfig| {
        ClusterConfig::new(n, run.with_checkpoint(CheckpointPolicy::EverySteps(4)))
    };
    let app = || Ring { rounds: 24 };
    let clean = run_tasks(&cfg(RunConfig::new(ProtocolKind::Tdi)), app()).expect("clean run");
    for seed in [0xfeed_u64, 0xbeef, 0x5eed] {
        let chaotic =
            cfg(RunConfig::new(ProtocolKind::Tdi).with_detector(DetectorConfig::default()))
                .with_net(
                    NetConfig::direct().with_chaos(
                        ChaosConfig::seeded(seed)
                            .with_drop(0.05)
                            .with_duplicate(0.05)
                            .with_corrupt(0.05)
                            .with_heavy_tail(
                                0.02,
                                Duration::from_millis(2),
                                1.0,
                                Duration::from_millis(20),
                            ),
                    ),
                )
                .with_failures(FailurePlan::seeded_random(seed, n, 2, 14));
        let faulty = run_tasks(&chaotic, app()).expect("detected chaotic run");
        assert_eq!(clean.digests, faulty.digests, "seed {seed:#x}");
        assert!(
            faulty.kills >= 1,
            "seed {seed:#x}: the planned kills must fire"
        );
        let det = faulty.detector.as_ref().expect("detector report");
        eprintln!("seed {seed:#x}: {det:?}");
        assert_eq!(det.false_kills, 0, "seed {seed:#x}: {det:?}");
        assert_eq!(det.gate_timeouts, 0, "seed {seed:#x}: {det:?}");
        let again = run_tasks(&chaotic, app()).expect("detected chaotic rerun");
        let det_again = again.detector.as_ref().expect("detector report");
        assert_eq!(
            (det_again.declarations, &det_again.detection_latency),
            (det.declarations, &det.detection_latency),
            "seed {seed:#x}"
        );
        let counters = |r: &RunReport| {
            [
                r.net_msgs,
                r.net_bytes,
                r.retransmits,
                r.chaos_dropped,
                r.chaos_duplicated,
                r.chaos_corrupted,
            ]
        };
        assert_eq!(counters(&again), counters(&faulty), "seed {seed:#x}");
    }
}

// Cascading failure: rank 2 dies while rank 1's recovery is in flight,
// i.e. while rank 1 may still be owed a RESPONSE from rank 2. The
// detector must certify the second death, and the supervised-recovery
// re-drive must rebroadcast ROLLBACK so rank 1's `Replaying` cannot
// wedge on the dead responder. Every recovering incarnation must reach
// `synced`, and the digests must match the failure-free run.
#[test]
fn cascading_failure_survivor_dies_mid_recovery() {
    let n = 4;
    let base = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    );
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean run");
    let cascading = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi)
            .with_checkpoint(CheckpointPolicy::EverySteps(4))
            .with_detector(DetectorConfig::default()),
    )
    .with_failures(FailurePlan::kill_at(1, 8).and_kill(2, 8))
    .with_trace(true);
    let faulty = run_benchmark(Benchmark::Lu, Class::Test, &cascading).expect("cascading run");
    assert_eq!(clean.digests, faulty.digests);
    let det = faulty.detector.as_ref().expect("detector report");
    eprintln!("cascading report: {det:?}");
    assert!(det.declarations >= 2, "{det:?}");
    assert_eq!(det.false_kills, 0, "{det:?}");
    assert_recovering_incarnations_synced(&faulty);
}

// Repeated failure of the same rank: its second incarnation is killed
// mid-recovery too, so detection and the membership floor must advance
// twice for one rank and the third incarnation must finish the job.
#[test]
fn repeated_incarnation_failure_detected() {
    let n = 4;
    let base = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    );
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean run");
    let repeated = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi)
            .with_checkpoint(CheckpointPolicy::EverySteps(4))
            .with_detector(DetectorConfig::default()),
    )
    .with_failures(FailurePlan::kill_at(1, 8).and_kill_incarnation(1, 4, 2))
    .with_trace(true);
    let faulty = run_benchmark(Benchmark::Lu, Class::Test, &repeated).expect("repeated run");
    assert_eq!(clean.digests, faulty.digests);
    let det = faulty.detector.as_ref().expect("detector report");
    eprintln!("repeated report: {det:?}");
    assert!(det.declarations >= 2, "{det:?}");
    assert_eq!(det.false_kills, 0, "{det:?}");
    assert_recovering_incarnations_synced(&faulty);
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
