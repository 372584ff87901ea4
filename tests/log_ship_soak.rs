//! Seeded soak for durable log shipping: fixed seeds, rank kills
//! (including node-loss wipes), storage outages and transient remote
//! errors — all at once. Every
//! run must finish with exactly-once digests, a restore from the
//! remote and a fully caught-up remote whose manifest certifies every
//! object it names.

use std::sync::Arc;
use std::time::Duration;

use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;

const SEEDS: [u64; 8] = [
    0x0007, 0x00b5, 0x0dad, 0xbeef, 0xcafe, 0x2468, 0x8d31, 0xfade,
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
fn soak_log_shipping_across_seeds() {
    let n = 4;
    for seed in SEEDS {
        let kind = protocol_for(seed);
        let bench = bench_for(seed);
        let run_cfg = || RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(4));
        let clean = run_benchmark(bench, Class::Test, &ClusterConfig::new(n, run_cfg()))
            .expect("clean run");

        // One ordinary kill a third of the way in, one node-loss wipe
        // two thirds in (several checkpoints deep), on different
        // ranks.
        let total = match bench {
            Benchmark::Lu => {
                let (_, _, gnz, iters) = Class::Test.lu_dims();
                iters * (2 * gnz as u64 + 1)
            }
            Benchmark::Bt => Class::Test.adi_dims().1 * 4,
            Benchmark::Sp => Class::Test.adi_dims().1 * 6,
            // bench_for never selects the remaining benchmarks.
            _ => Class::Test.adi_dims().1 * 4,
        };
        let kill_rank = (seed % n as u64) as usize;
        let wipe_rank = ((seed + 1) % n as u64) as usize;
        let failures = FailurePlan::kill_at(kill_rank, (total / 3).max(2) + seed % 2)
            .and_kill_wipe(wipe_rank, (2 * total / 3).max(5) + seed % 2);

        // A mid-run backend outage riding on transient errors.
        let storage_chaos = StorageChaos::seeded(seed ^ 0x57A6)
            .with_transient(0.05)
            .with_outage(20, 90);
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), storage_chaos));

        let mut cfg = ClusterConfig::new(n, run_cfg())
            .with_failures(failures)
            .with_remote(remote.clone());
        cfg.max_wall = Duration::from_secs(300);

        let report = run_benchmark(bench, Class::Test, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed:#06x} ({kind}, {bench:?}): {e}"));
        assert_eq!(
            report.digests, clean.digests,
            "seed {seed:#06x} ({kind}, {bench:?}): digests diverged"
        );
        assert_eq!(report.kills, 2, "seed {seed:#06x}: both kills must fire");

        let stats = report.replicator.as_ref().expect("replicator ran");
        assert!(
            stats.restores >= 1,
            "seed {seed:#06x}: the wiped rank must restore from remote: {stats:?}"
        );
        assert_eq!(
            stats.unsynced_at_exit, 0,
            "seed {seed:#06x}: replication must catch up: {stats:?}"
        );

        // The final manifest certifies every object it promises.
        let store = remote.inner();
        let manifest = Manifest::decode(
            &store
                .get(MANIFEST_KEY)
                .unwrap()
                .expect("manifest present after catch-up"),
        )
        .expect("manifest intact");
        for entry in &manifest.entries {
            let blob = store.get(&entry.key).unwrap().expect("object present");
            assert!(
                Manifest::certifies(entry, &blob),
                "seed {seed:#06x}: {} not certified",
                entry.key
            );
        }
    }
}
