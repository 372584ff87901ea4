//! Recovery correctness for the CG extension workload — its
//! collective-dominated pattern (two `ANY_SOURCE` all-reduces per
//! iteration) is the hardest case for relaxed-order recovery.

use lclog_core::ProtocolKind;
use lclog_npb::{run_benchmark, Benchmark, Class};
use lclog_runtime::{CheckpointPolicy, ClusterConfig, FailurePlan, RunConfig};
use lclog_simnet::NetConfig;

fn cfg(n: usize, kind: ProtocolKind) -> ClusterConfig {
    ClusterConfig::new(
        n,
        RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(3)),
    )
}

#[test]
fn cg_digests_protocol_independent() {
    let reference = run_benchmark(Benchmark::Cg, Class::Test, &cfg(4, ProtocolKind::Tdi))
        .unwrap()
        .digests;
    for kind in [ProtocolKind::Tag, ProtocolKind::Tel] {
        let got = run_benchmark(Benchmark::Cg, Class::Test, &cfg(4, kind))
            .unwrap()
            .digests;
        assert_eq!(got, reference, "{kind} deviates on CG");
    }
}

#[test]
fn cg_recovers_under_every_protocol() {
    for kind in ProtocolKind::EXTENDED {
        let clean = run_benchmark(Benchmark::Cg, Class::Test, &cfg(4, kind))
            .unwrap()
            .digests;
        let report = run_benchmark(
            Benchmark::Cg,
            Class::Test,
            &cfg(4, kind).with_failures(FailurePlan::kill_at(1, 5)),
        )
        .expect("recovered run");
        assert_eq!(report.kills, 1, "{kind}");
        assert_eq!(report.digests, clean, "{kind}: CG recovery diverged");
    }
}

#[test]
fn cg_root_failure_mid_allreduce_window() {
    // Rank 0 is the reduce root: killing it stresses the ANY_SOURCE
    // gather recovery specifically.
    let clean = run_benchmark(Benchmark::Cg, Class::Test, &cfg(5, ProtocolKind::Tdi))
        .unwrap()
        .digests;
    let report = run_benchmark(
        Benchmark::Cg,
        Class::Test,
        &cfg(5, ProtocolKind::Tdi).with_failures(FailurePlan::kill_at(0, 6)),
    )
    .expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn cg_reordering_fabric_multi_failure() {
    let base = cfg(4, ProtocolKind::Tdi).with_net(NetConfig::lan_like(0xC6));
    let clean = run_benchmark(Benchmark::Cg, Class::Test, &base).unwrap().digests;
    let plan = FailurePlan::kill_at(1, 4).and_kill(2, 6);
    let report = run_benchmark(Benchmark::Cg, Class::Test, &base.with_failures(plan))
        .expect("recovered run");
    assert_eq!(report.kills, 2);
    assert_eq!(report.digests, clean);
}

#[test]
fn cg_is_collective_dominated() {
    // Character check: CG's allreduce traffic means rank 0 (the
    // reduce root) touches every message round; per-iteration message
    // count scales with n rather than with the subdomain surface.
    let r4 = run_benchmark(Benchmark::Cg, Class::Test, &cfg(4, ProtocolKind::Tdi)).unwrap();
    let r8 = run_benchmark(Benchmark::Cg, Class::Test, &cfg(8, ProtocolKind::Tdi)).unwrap();
    assert!(
        r8.stats.sends as f64 > 1.7 * r4.stats.sends as f64,
        "collective fan-in must scale with n: {} vs {}",
        r8.stats.sends,
        r4.stats.sends
    );
}
