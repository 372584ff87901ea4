//! Recovery correctness on the paper's actual workloads: every
//! benchmark × protocol combination must produce bit-identical
//! digests with and without injected failures.

use lclog_core::ProtocolKind;
use lclog_npb::{run_benchmark, Benchmark, Class};
use lclog_runtime::{CheckpointPolicy, ClusterConfig, CommMode, FailurePlan, RunConfig};
use lclog_simnet::{ChaosConfig, NetConfig};
use lclog_stable::MemRemote;
use std::sync::Arc;

fn cfg(n: usize, kind: ProtocolKind) -> ClusterConfig {
    ClusterConfig::new(
        n,
        RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(5)),
    )
}

fn clean_digests(bench: Benchmark, n: usize, kind: ProtocolKind) -> Vec<u64> {
    run_benchmark(bench, Class::Test, &cfg(n, kind))
        .expect("fault-free run")
        .digests
}

#[test]
fn digests_are_protocol_independent() {
    for bench in Benchmark::ALL {
        let tdi = clean_digests(bench, 4, ProtocolKind::Tdi);
        let tag = clean_digests(bench, 4, ProtocolKind::Tag);
        let tel = clean_digests(bench, 4, ProtocolKind::Tel);
        assert_eq!(tdi, tag, "{bench}: TAG deviates");
        assert_eq!(tdi, tel, "{bench}: TEL deviates");
    }
}

#[test]
fn digests_scale_with_decomposition_determinism() {
    // Same benchmark, different rank counts → different digests per
    // rank, but every run at the same count is identical.
    for bench in Benchmark::ALL {
        let a = clean_digests(bench, 4, ProtocolKind::Tdi);
        let b = clean_digests(bench, 4, ProtocolKind::Tdi);
        assert_eq!(a, b, "{bench}: nondeterministic digest");
    }
}

fn assert_recovers(bench: Benchmark, kind: ProtocolKind, victim: usize, at_step: u64) {
    let n = 4;
    let clean = clean_digests(bench, n, kind);
    let config = cfg(n, kind).with_failures(FailurePlan::kill_at(victim, at_step));
    let report = run_benchmark(bench, Class::Test, &config).expect("recovered run");
    assert_eq!(report.kills, 1, "{bench}/{kind}: kill did not fire");
    assert_eq!(
        report.digests, clean,
        "{bench}/{kind}: recovery changed the result"
    );
}

#[test]
fn lu_recovers_under_every_protocol() {
    for kind in ProtocolKind::ALL {
        assert_recovers(Benchmark::Lu, kind, 1, 9);
    }
}

#[test]
fn bt_recovers_under_every_protocol() {
    for kind in ProtocolKind::ALL {
        assert_recovers(Benchmark::Bt, kind, 2, 6);
    }
}

#[test]
fn sp_recovers_under_every_protocol() {
    for kind in ProtocolKind::ALL {
        assert_recovers(Benchmark::Sp, kind, 3, 8);
    }
}

#[test]
fn lu_multi_failure_recovers() {
    let n = 4;
    let clean = clean_digests(Benchmark::Lu, n, ProtocolKind::Tdi);
    let config = cfg(n, ProtocolKind::Tdi)
        .with_failures(FailurePlan::kill_at(1, 8).and_kill(2, 8));
    let report = run_benchmark(Benchmark::Lu, Class::Test, &config).expect("recovered run");
    assert_eq!(report.kills, 2);
    assert_eq!(report.digests, clean);
}

#[test]
fn bt_blocking_mode_recovers() {
    // BT's faces exceed the eager threshold → rendezvous waits under
    // Fig. 4a, plus a failure.
    let n = 4;
    let run = RunConfig::new(ProtocolKind::Tdi)
        .with_comm(CommMode::Blocking {
            eager_threshold: 1024,
        })
        .with_checkpoint(CheckpointPolicy::EverySteps(5));
    let base = ClusterConfig::new(n, run);
    let clean = run_benchmark(Benchmark::Bt, Class::Test, &base)
        .unwrap()
        .digests;
    let config = base.with_failures(FailurePlan::kill_at(1, 6));
    let report = run_benchmark(Benchmark::Bt, Class::Test, &config).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn lu_reordering_fabric_recovers() {
    let n = 4;
    let base = cfg(n, ProtocolKind::Tdi).with_net(NetConfig::lan_like(0xBEEF));
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &base)
        .unwrap()
        .digests;
    let config = base.with_failures(FailurePlan::kill_at(2, 10));
    let report = run_benchmark(Benchmark::Lu, Class::Test, &config).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn workload_characters_match_the_paper() {
    // §IV: LU has the highest message frequency; BT the largest
    // messages. Verified from the cluster's traffic accounting.
    let n = 4;
    let lu = run_benchmark(Benchmark::Lu, Class::Test, &cfg(n, ProtocolKind::Tdi)).unwrap();
    let bt = run_benchmark(Benchmark::Bt, Class::Test, &cfg(n, ProtocolKind::Tdi)).unwrap();
    let sp = run_benchmark(Benchmark::Sp, Class::Test, &cfg(n, ProtocolKind::Tdi)).unwrap();
    assert!(
        lu.stats.sends > sp.stats.sends && sp.stats.sends > bt.stats.sends,
        "message frequency must order LU ({}) > SP ({}) > BT ({})",
        lu.stats.sends,
        sp.stats.sends,
        bt.stats.sends
    );
    let avg_bytes = |r: &lclog_runtime::RunReport| r.net_bytes as f64 / r.net_msgs as f64;
    assert!(
        avg_bytes(&bt) > avg_bytes(&sp) && avg_bytes(&sp) > avg_bytes(&lu),
        "message size must order BT ({:.0}) > SP ({:.0}) > LU ({:.0})",
        avg_bytes(&bt),
        avg_bytes(&sp),
        avg_bytes(&lu)
    );
}

#[test]
fn eight_rank_lu_recovers() {
    let n = 8;
    let clean = clean_digests(Benchmark::Lu, n, ProtocolKind::Tdi);
    let config = cfg(n, ProtocolKind::Tdi).with_failures(FailurePlan::kill_at(5, 12));
    let report = run_benchmark(Benchmark::Lu, Class::Test, &config).expect("recovered run");
    assert_eq!(report.digests, clean);
}

#[test]
fn bt_shared_bus_contention_recovers() {
    // The paper's 100 Mb shared-Ethernet effect: BT's big faces
    // serialize on the bus; recovery must still be exact.
    let base = cfg(4, ProtocolKind::Tdi).with_net(NetConfig::shared_bus());
    let clean = run_benchmark(Benchmark::Bt, Class::Test, &base)
        .unwrap()
        .digests;
    let report = run_benchmark(
        Benchmark::Bt,
        Class::Test,
        &base.with_failures(FailurePlan::kill_at(2, 6)),
    )
    .expect("recovered run");
    assert_eq!(report.digests, clean);
}

/// One of the three configurations of
/// `an_npb_run_is_a_pure_function_of_its_config`, built afresh (a
/// remote store must not outlive its run).
fn replay_config(which: usize) -> ClusterConfig {
    let ckpt = |kind| {
        ClusterConfig::new(
            8,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(5)),
        )
        .with_trace(true)
    };
    match which {
        0 => ckpt(ProtocolKind::Tdi)
            .with_remote(Arc::new(MemRemote::new()))
            .with_failures(FailurePlan::kill_at(1, 9).and_kill_wipe_corrupt(5, 17)),
        1 => {
            let mut c = ckpt(ProtocolKind::Tel).with_failures(FailurePlan::kill_at(2, 13));
            c.run = c.run.with_comm(CommMode::blocking_default());
            c
        }
        _ => ckpt(ProtocolKind::Tdi)
            .with_net(
                NetConfig::direct().with_chaos(
                    ChaosConfig::seeded(0xC4A05 ^ 8)
                        .with_drop(0.02)
                        .with_duplicate(0.02)
                        .with_corrupt(0.01),
                ),
            )
            .with_failures(FailurePlan::kill_at(1, 19)),
    }
}

/// The round driver gives every rank a stack of its own, yet frames,
/// deaths and service steps move only at round boundaries on the run's
/// clock: an NPB run is a pure function of its config. Three
/// configurations of LU on eight ranks — non-blocking TDI through a
/// kill and a node loss with a torn upload, shipping to a remote;
/// blocking TEL (rendezvous sends, the event logger) through a kill;
/// ABL6's lossy, duplicating, corrupting fabric through a kill — each
/// run three times, agree on every counter and the whole timeline.
#[test]
fn an_npb_run_is_a_pure_function_of_its_config() {
    let clean = clean_digests(Benchmark::Lu, 8, ProtocolKind::Tdi);
    for which in 0..3 {
        let run = || {
            run_benchmark(Benchmark::Lu, Class::Test, &replay_config(which)).expect("recovered run")
        };
        let first = run();
        assert_eq!(first.digests, clean, "config {which}");
        assert!(
            first.kills >= 1 && !first.timeline.is_empty(),
            "config {which}"
        );
        if which == 0 {
            let repl = first.replicator.as_ref().expect("a remote run");
            assert_eq!(repl.generations_skipped, 1, "the torn upload is skipped");
        }
        for _ in 0..2 {
            let again = run();
            assert_eq!(again.digests, first.digests, "config {which}");
            assert_eq!(again.kills, first.kills, "config {which}");
            assert_eq!(
                [again.net_msgs, again.net_bytes, again.retransmits],
                [first.net_msgs, first.net_bytes, first.retransmits],
                "config {which}"
            );
            assert_eq!(
                [
                    again.chaos_dropped,
                    again.chaos_duplicated,
                    again.chaos_corrupted
                ],
                [
                    first.chaos_dropped,
                    first.chaos_duplicated,
                    first.chaos_corrupted
                ],
                "config {which}"
            );
            assert_eq!(again.stats, first.stats, "config {which}");
            assert_eq!(again.data_plane, first.data_plane, "config {which}");
            assert_eq!(again.replicator, first.replicator, "config {which}");
            assert_eq!(again.timeline, first.timeline, "config {which}");
        }
    }
}
