//! Property-based failure injection: for randomized victims, crash
//! steps, checkpoint cadences, and protocols, recovery must always
//! reproduce the fault-free digests.

use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Tdi),
        Just(ProtocolKind::Tag),
        Just(ProtocolKind::Tel),
    ]
}

fn bench_strategy() -> impl Strategy<Value = Benchmark> {
    prop_oneof![
        Just(Benchmark::Lu),
        Just(Benchmark::Bt),
        Just(Benchmark::Sp),
    ]
}

proptest! {
    // Cluster runs take ~100 ms each (two per case), so keep the case
    // count modest. Cases are drawn from a seed fixed by the test's
    // name, so every run draws the same ones; set `PROPTEST_SEED` to
    // explore other parts of the space.
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_single_failure_recovery_is_exact(
        kind in kind_strategy(),
        bench in bench_strategy(),
        victim in 0usize..4,
        at_step in 1u64..18,
        ckpt in 2u64..8,
    ) {
        let n = 4;
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(ckpt)),
        );
        let clean = run_benchmark(bench, Class::Test, &base).expect("clean run");
        let faulty = run_benchmark(
            bench,
            Class::Test,
            &base.with_failures(FailurePlan::kill_at(victim, at_step)),
        )
        .expect("recovered run");
        prop_assert_eq!(&clean.digests, &faulty.digests,
            "{}/{} victim {} step {} ckpt {}", kind, bench, victim, at_step, ckpt);
    }

    // Chaos fabric: seeded heavy-tailed link stalls (up to 10% of
    // envelopes) plus one random kill. A stall delays a whole link but
    // loses and reorders nothing, so recovery must still be exact: the
    // digests of every rank equal the fault-free run's.
    #[test]
    fn prop_chaos_schedule_recovery_is_exact(
        kind in kind_strategy(),
        bench in bench_strategy(),
        chaos_seed in any::<u64>(),
        stall_p in 0.0f64..0.10,
        victim in 0usize..4,
        at_step in 1u64..18,
    ) {
        let n = 4;
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        );
        let clean = run_benchmark(bench, Class::Test, &base).expect("clean run");
        let chaotic = base
            .with_net(NetConfig::direct().with_chaos(
                ChaosConfig::seeded(chaos_seed).with_heavy_tail(
                    stall_p,
                    std::time::Duration::from_millis(2),
                    1.0,
                    std::time::Duration::from_millis(20),
                ),
            ))
            .with_failures(FailurePlan::kill_at(victim, at_step));
        let faulty = run_benchmark(bench, Class::Test, &chaotic).expect("chaotic run");
        prop_assert_eq!(&clean.digests, &faulty.digests,
            "{}/{} seed {:#x} stall {:.3} victim {} step {}",
            kind, bench, chaos_seed, stall_p, victim, at_step);
        prop_assert_eq!(faulty.kills, 1);
    }

    // The recovery state machine must be one-way within an
    // incarnation: once a rank's timeline shows a transition into
    // `synced`, no further recovery transition — in particular no
    // re-entry into `replaying` — may appear for that rank until its
    // next respawn (a `Spawned` event starts a fresh machine).
    #[test]
    fn prop_recovery_never_reenters_replaying_after_sync(
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let n = 4;
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        );
        let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean run");
        let traced = base
            .with_failures(FailurePlan::seeded_random(seed, n, 2, 14))
            .with_trace(true);
        let faulty =
            run_benchmark(Benchmark::Lu, Class::Test, &traced).expect("recovered run");
        prop_assert_eq!(&clean.digests, &faulty.digests, "{} seed {:#x}", kind, seed);
        for rank in 0..n {
            let mut synced = false;
            for ev in faulty.timeline.iter().filter(|e| e.rank == rank) {
                match &ev.kind {
                    EventKind::Spawned { .. } => synced = false,
                    EventKind::RecoveryTransition { from, to } => {
                        prop_assert!(
                            !synced,
                            "rank {} took {} -> {} after syncing (seed {:#x})",
                            rank, from, to, seed
                        );
                        if *to == "synced" {
                            synced = true;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn prop_double_failure_recovery_is_exact_tdi(
        victims in proptest::sample::subsequence(vec![0usize, 1, 2, 3], 2),
        at_step in 2u64..16,
        stagger in 0u64..4,
    ) {
        let (clean, faulty) = double_failure_digests(&victims, at_step, stagger);
        prop_assert_eq!(&clean, &faulty,
            "victims {:?} step {} stagger {}", victims, at_step, stagger);
    }
}

/// LU at n = 4 under TDI, clean and with `victims[0]` killed at
/// `at_step` and `victims[1]` `stagger` steps later: both runs' digests.
fn double_failure_digests(victims: &[usize], at_step: u64, stagger: u64) -> (Vec<u64>, Vec<u64>) {
    let base = ClusterConfig::new(
        4,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    );
    let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean run");
    let plan = FailurePlan::kill_at(victims[0], at_step).and_kill(victims[1], at_step + stagger);
    let faulty = run_benchmark(Benchmark::Lu, Class::Test, &base.with_failures(plan))
        .expect("recovered run");
    (clean.digests, faulty.digests)
}

/// A case once recorded as failing `prop_double_failure_recovery_is_exact_tdi`:
/// ranks 0 and 3 killed together at step 14.
#[test]
fn double_failure_of_ranks_0_and_3_at_step_14_is_exact() {
    let (clean, faulty) = double_failure_digests(&[0, 3], 14, 0);
    assert_eq!(clean, faulty);
}
