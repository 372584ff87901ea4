//! `lcbench check`: every workload about twenty times smaller, run
//! for correctness rather than for numbers — delivery counts, payload
//! and digest checks, replay counts (all folded into `failed` by the
//! workloads themselves), the dense and sparse rings agreeing, the
//! default seed still generating the pinned load, and the traced pair
//! runs keeping their spans tight around the program's calls.

use crate::workloads::{run, run_traced, SPECS};

/// The seed whose digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Digest each shrunk workload must report for [`DEFAULT_SEED`]. They
/// change only if the generated inputs or the delivery order change —
/// which is exactly what must not happen silently.
const PINNED: [(&str, u64); 7] = [
    ("pair_stream", 0xf3c4_da4d_b48a_a6b1),
    ("pair_pingpong", 0x9a7e_d05d_1b6c_96ef),
    ("pair_bulk", 0x3ce7_b268_f1ac_2adc),
    ("ring_wide_tdi", 0x9102_fc5d_8f7f_2d6f),
    ("ring_wide_tdis", 0x9102_fc5d_8f7f_2d6f),
    ("lu_threads", 0x0ccc_33be_41ec_fb4f),
    ("pair_recover", 0xc5ad_5357_c7ad_6494),
];

/// Largest share of a traced pair pass that may lie outside every
/// layer span. A full-size traced run reports 4–9 % and the shrunk
/// passes here 7–11 % on a quiet machine; every preemption that lands
/// between two spans adds to it, so the limit only has to catch a call
/// that lost its span, not police the timer reads.
const MAX_UNCOVERED_PCT: f64 = 25.0;

pub fn check(seed: u64) -> bool {
    let mut ok = true;
    let mut fail = |what: String| {
        println!("FAIL {what}");
        ok = false;
    };
    let mut ring_digests = Vec::new();
    for spec in &SPECS {
        let small = spec.shrunk();
        let r = run(&small, seed, 0.0);
        println!(
            "{:<15} attempted {:>8} failed {} digest {:016x}",
            spec.name, r.attempted, r.failed, r.digest
        );
        if r.failed > 0 {
            fail(format!("{}: {} failed operations", spec.name, r.failed));
        }
        let pinned = PINNED
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|p| p.1);
        if seed == DEFAULT_SEED && pinned != Some(r.digest) {
            fail(format!(
                "{}: digest {:016x} is not the pinned one",
                spec.name, r.digest
            ));
        }
        if spec.name.starts_with("ring_wide") {
            ring_digests.push(r.digest);
        }
        let t = run_traced(&small, seed);
        if t.failed > 0 {
            fail(format!(
                "{}: {} failed operations in the traced run",
                spec.name, t.failed
            ));
        }
        let uncovered = t.log.uncovered_pct();
        if spec.name.starts_with("pair_") && uncovered > MAX_UNCOVERED_PCT {
            fail(format!(
                "{}: {uncovered:.1} % of the traced pass is under no span",
                spec.name
            ));
        }
    }
    if ring_digests.windows(2).any(|w| w[0] != w[1]) {
        fail("ring_wide_tdi and ring_wide_tdis digests differ".into());
    }
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    ok
}
