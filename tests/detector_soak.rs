//! Seeded chaos soak for the failure-detection stack: fixed seeds,
//! random kills, a hostile fabric with heavy-tailed delays, and *no*
//! scripted kill notifications — every death must be detected,
//! certified, fenced, and recovered from with exactly-once digests and
//! zero false kills at the default threshold.

use std::time::Duration;

use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;

/// The fixed CI seed set. Deliberately spread across protocols and
/// benchmarks (seed % 3 picks each) so one soak pass covers TDI, TAG,
/// and TEL under detected failures.
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

#[test]
fn soak_detected_random_failures_across_seeds() {
    let n = 4;
    for seed in SEEDS {
        let kind = protocol_for(seed);
        let bench = bench_for(seed);
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        );
        let clean = run_benchmark(bench, Class::Test, &base).expect("clean run");
        let chaotic = ClusterConfig::new(
            n,
            RunConfig::new(kind)
                .with_checkpoint(CheckpointPolicy::EverySteps(4))
                .with_detector(DetectorConfig::default()),
        )
        .with_net(NetConfig::direct().with_chaos(
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
        ))
        .with_failures(FailurePlan::seeded_random(seed, n, 2, 14));
        let faulty = run_benchmark(bench, Class::Test, &chaotic)
            .unwrap_or_else(|e| panic!("soak run failed: {kind}/{bench:?} seed {seed:#x}: {e}"));
        assert_eq!(
            clean.digests, faulty.digests,
            "{kind}/{bench:?} seed {seed:#x}"
        );
        let det = faulty.detector.expect("detector report");
        eprintln!("{kind}/{bench:?} seed {seed:#x}: {det:?}");
        assert_eq!(det.false_kills, 0, "{kind}/{bench:?} seed {seed:#x}: {det:?}");
        assert_eq!(
            det.gate_timeouts, 0,
            "{kind}/{bench:?} seed {seed:#x}: {det:?}"
        );
    }
}

/// The fencing property end to end: under pure false-suspicion stress
/// (an aggressively low threshold plus heavy-tailed delays that *will*
/// cross it), fenced incarnations must drop volatile state and rejoin
/// — digests still exactly match the failure-free run even though the
/// kills are all false.
#[test]
fn soak_false_suspicion_fencing_is_safe() {
    let n = 4;
    for seed in [0x0aceu64, 0x0bed, 0x0cab, 0x0dad] {
        let base = ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        );
        let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean run");
        // Threshold 2.0 detects after ~9 ms of silence; a 40 ms delay
        // cap guarantees some stalls read as deaths.
        let twitchy = ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi)
                .with_checkpoint(CheckpointPolicy::EverySteps(4))
                .with_detector(DetectorConfig::default().with_threshold(2.0)),
        )
        .with_net(NetConfig::direct().with_chaos(
            ChaosConfig::seeded(seed).with_heavy_tail(
                0.05,
                Duration::from_millis(4),
                1.2,
                Duration::from_millis(40),
            ),
        ));
        let faulty = run_benchmark(Benchmark::Lu, Class::Test, &twitchy)
            .unwrap_or_else(|e| panic!("false-suspicion run failed: seed {seed:#x}: {e}"));
        assert_eq!(clean.digests, faulty.digests, "seed {seed:#x}");
        if let Some(det) = &faulty.detector {
            eprintln!("seed {seed:#x}: {det:?}");
        }
    }
}
