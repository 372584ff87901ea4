//! Seeded soak for durable log shipping: fixed seeds, overlapping
//! transient partitions, rank kills (including node-loss wipes),
//! storage outages, transient remote errors and latency spikes — all
//! at once. Every run must finish with exactly-once digests, a spill
//! buffer that never exceeded its byte bound, and a fully caught-up
//! remote.
//!
//! These runs are `#[ignore]`d for the ordinary `cargo test` pass and
//! executed by the CI log-ship soak step:
//!
//! ```sh
//! cargo test --release --test log_ship_soak -- --ignored
//! ```

use std::time::Duration;

use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;

const SEEDS: [u64; 8] = [
    0x0007, 0x00b5, 0x0dad, 0xbeef, 0xcafe, 0x2468, 0x8d31, 0xfade,
];

// Must sit above the un-sheddable floor: the newest generation per
// rank (what a node-loss restore needs) is never shed, and Test-class
// checkpoint images run tens of KiB each across 4 ranks.
const SPILL_LIMIT: usize = 192 * 1024;

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
#[ignore = "log-ship soak: run via the CI soak step (--ignored)"]
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

        // Overlapping transient partitions plus light envelope chaos.
        let net_chaos = ChaosConfig::seeded(seed ^ 0x5011)
            .with_drop(0.01)
            .with_duplicate(0.01)
            .with_partition(Partition {
                group: vec![0, 1],
                from_seq: 10,
                to_seq: 25,
            })
            .with_partition(Partition {
                group: vec![1, 2],
                from_seq: 18,
                to_seq: 35,
            });

        // A mid-run backend outage riding on transient errors and
        // latency spikes.
        let storage_chaos = StorageChaos::seeded(seed ^ 0x57A6)
            .with_transient(0.05)
            .with_latency_spike(0.05, Duration::from_micros(500))
            .with_outage(20, 90);
        let (remote, handle) = RemoteConfig::faulty(storage_chaos);
        let replicator = ReplicatorConfig {
            retry_initial: Duration::from_micros(200),
            retry_cap: Duration::from_millis(2),
            breaker_cooldown: Duration::from_millis(2),
            spill_limit_bytes: SPILL_LIMIT,
        };

        let mut cfg = ClusterConfig::new(n, run_cfg())
            .with_net(NetConfig::direct().with_chaos(net_chaos))
            .with_failures(failures)
            .with_remote(remote.with_replicator(replicator));
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
            stats.spill_peak_bytes <= SPILL_LIMIT,
            "seed {seed:#06x}: spill peak {} exceeded the {SPILL_LIMIT} byte bound",
            stats.spill_peak_bytes
        );
        assert!(
            stats.restores >= 1,
            "seed {seed:#06x}: the wiped rank must restore from remote: {stats:?}"
        );
        assert_eq!(
            stats.unsynced_at_exit, 0,
            "seed {seed:#06x}: replication must catch up: {stats:?}"
        );

        // The final manifest certifies every object it promises.
        let store = handle.inner();
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
