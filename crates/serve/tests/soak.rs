//! Service soak: 8 seeded rounds of overlapping tenant jobs, each
//! round injecting a mid-job node loss (`kill … wipe`) into one
//! tenant and a node loss with a torn upload into another. Every job — faulted or not — must land on the digests of a
//! standalone fault-free batch run of the same spec, which checks
//! both recovery correctness and the absence of cross-job
//! interference through the shared storage/replication plane.

use lclog_serve::{JobSpec, Service, ServiceConfig};
use lclog_runtime::run_tasks;
use std::collections::HashMap;
use std::time::Duration;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec(args: &str) -> JobSpec {
    JobSpec::parse(args.split_whitespace()).expect("soak spec parses")
}

/// A seed's tenant mix: protocols, kinds, and sizes rotate with the
/// seed; one tenant gets a mid-job node loss; every other seed also
/// runs an event-logger tenant, TEL and PES in turn, beside its
/// logger on the shared pool; every seed ends with a fixed torn-upload
/// tenant.
fn round_specs(seed: u64) -> Vec<JobSpec> {
    let protos = ["tdi", "tdis", "tag"];
    let kinds = ["ring", "pairs"];
    let mut specs = Vec::new();
    for i in 0..3u64 {
        let r = mix(seed ^ (i << 8));
        let n = 4 + (r % 3) as usize; // 4..=6
        let rounds = 8 + r % 4; // 8..=11
        let proto = protos[(r >> 8) as usize % protos.len()];
        let kind = kinds[(r >> 16) as usize % kinds.len()];
        specs.push(spec(&format!(
            "kind={kind} n={n} proto={proto} rounds={rounds}"
        )));
    }
    // The faulted tenant: node loss (wipe) mid-job, torn upload every
    // fourth seed.
    let r = mix(seed ^ 0xFA);
    let n = 4 + (r % 3) as usize;
    let rounds = 9 + r % 3;
    let victim = (r >> 8) as usize % n;
    let at_step = 2 + (r >> 16) % (rounds / 2);
    let corrupt = if seed % 4 == 3 { " corrupt=on" } else { "" };
    specs.push(spec(&format!(
        "kind=ring n={n} proto=tdi rounds={rounds} kill={victim}@{at_step} wipe=on{corrupt}"
    )));
    if seed.is_multiple_of(2) {
        let proto = if seed.is_multiple_of(4) { "tel" } else { "pes" };
        specs.push(spec(&format!("kind=pairs n=4 proto={proto} rounds=8")));
    }
    // A TDI-S node loss with a torn upload: its restore falls back one
    // generation while other tenants keep offering to the shared
    // replicator, which must not have shed that generation.
    specs.push(spec("kind=ring n=5 proto=tdis rounds=16 kill=1@8 corrupt=on"));
    specs
}

/// Cache key: everything that determines a spec's digests.
fn digest_key(s: &JobSpec) -> String {
    format!("{}/{}/{}/{}", s.kind.name(), s.n, s.protocol, s.rounds)
}

#[test]
fn soak_overlapping_tenants_with_node_loss_across_8_seeds() {
    let mut expected: HashMap<String, Vec<u64>> = HashMap::new();
    for seed in 0..8u64 {
        let service = Service::start(ServiceConfig::default());
        let specs = round_specs(seed);
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| service.submit(s.clone()).expect("soak submit"))
            .collect();
        for (s, id) in specs.iter().zip(&ids) {
            let report = service
                .wait(*id, Duration::from_secs(120))
                .unwrap_or_else(|e| panic!("seed {seed} job {id} ({}): {e}", s.describe()));
            let want = expected.entry(digest_key(s)).or_insert_with(|| {
                let mut clean = s.clone();
                clean.fault = None;
                run_tasks(&clean.cluster_config(0), clean.workload())
                    .expect("standalone fault-free run")
                    .digests
            });
            assert_eq!(
                &report.digests,
                want,
                "seed {seed} job {id} ({}) diverged from its fault-free digests",
                s.describe()
            );
            if s.fault.is_some() {
                assert!(
                    report.kills >= 1,
                    "seed {seed}: the planned node loss must fire"
                );
            } else {
                assert_eq!(
                    report.kills, 0,
                    "seed {seed} job {id}: a clean co-resident tenant was killed"
                );
            }
        }
        let (_, synced) = service.drain(Duration::from_secs(30));
        assert!(synced, "seed {seed}: drain must leave the remote caught up");
        service.shutdown();
    }
}
