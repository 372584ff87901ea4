//! The figure-regeneration experiments (see crate docs).

use crate::apps::TaskRing;
use crate::table::Table;
use lclog_core::ProtocolKind;
use lclog_npb::{run_benchmark, Benchmark, Class};
use lclog_runtime::{run_tasks, CheckpointPolicy, ClusterConfig, CommMode, FailurePlan, RunConfig};
use lclog_simnet::{NetConfig, StorageChaos};
use lclog_stable::{FaultyRemote, MemRemote};
use std::sync::Arc;
use std::time::Duration;

/// Shape of an experiment sweep.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Problem scale for the NPB kernels.
    pub class: Class,
    /// Process counts to sweep (the paper uses 4, 8, 16, 32).
    pub procs: Vec<usize>,
}

impl ExpConfig {
    /// The paper's full sweep.
    pub fn full() -> Self {
        ExpConfig {
            class: Class::Small,
            procs: vec![4, 8, 16, 32],
        }
    }

    /// A fast sweep for smoke tests.
    pub fn quick() -> Self {
        ExpConfig {
            class: Class::Test,
            procs: vec![4, 8],
        }
    }
}

/// One cell of the Fig. 6 / Fig. 7 measurement matrix.
#[derive(Debug, Clone)]
pub struct OverheadCell {
    /// Workload.
    pub bench: Benchmark,
    /// Process count.
    pub n: usize,
    /// Protocol.
    pub kind: ProtocolKind,
    /// Fig. 6 metric: identifiers piggybacked per message.
    pub avg_ids: f64,
    /// Fig. 7 metric: total tracking time across ranks, ms.
    pub tracking_ms: f64,
    /// Supporting data: total application messages.
    pub sends: u64,
}

fn base_cfg(n: usize, kind: ProtocolKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        n,
        RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(8)),
    );
    cfg.max_wall = Duration::from_secs(600);
    cfg
}

/// Run the fault-free overhead matrix shared by Fig. 6 and Fig. 7.
pub fn overhead_matrix(cfg: &ExpConfig) -> Vec<OverheadCell> {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        for &n in &cfg.procs {
            for kind in ProtocolKind::ALL {
                let report = run_benchmark(bench, cfg.class, &base_cfg(n, kind))
                    .expect("fault-free overhead run");
                cells.push(OverheadCell {
                    bench,
                    n,
                    kind,
                    avg_ids: report.stats.avg_ids_per_msg(),
                    tracking_ms: report.tracking_time.as_secs_f64() * 1e3,
                    sends: report.stats.sends,
                });
            }
        }
    }
    cells
}

/// Fig. 6: average piggyback amount per message (identifier count).
pub fn fig6_table(cells: &[OverheadCell]) -> Table {
    let mut t = Table::new(
        "Fig. 6 — Average piggyback per message (identifiers)",
        &["bench", "procs", "TDI", "TAG", "TEL", "msgs"],
    );
    fill_protocol_columns(&mut t, cells, |c| format!("{:.1}", c.avg_ids));
    t
}

/// Fig. 7: dependency-tracking time overhead.
pub fn fig7_table(cells: &[OverheadCell]) -> Table {
    let mut t = Table::new(
        "Fig. 7 — Tracking time overhead (ms, summed over ranks)",
        &["bench", "procs", "TDI", "TAG", "TEL", "msgs"],
    );
    fill_protocol_columns(&mut t, cells, |c| format!("{:.2}", c.tracking_ms));
    t
}

fn fill_protocol_columns(
    t: &mut Table,
    cells: &[OverheadCell],
    value: impl Fn(&OverheadCell) -> String,
) {
    let mut seen: Vec<(Benchmark, usize)> = Vec::new();
    for c in cells {
        if !seen.contains(&(c.bench, c.n)) {
            seen.push((c.bench, c.n));
        }
    }
    for (bench, n) in seen {
        let get = |kind: ProtocolKind| {
            cells
                .iter()
                .find(|c| c.bench == bench && c.n == n && c.kind == kind)
                .expect("matrix cell present")
        };
        t.row(vec![
            bench.to_string(),
            n.to_string(),
            value(get(ProtocolKind::Tdi)),
            value(get(ProtocolKind::Tag)),
            value(get(ProtocolKind::Tel)),
            get(ProtocolKind::Tdi).sends.to_string(),
        ]);
    }
}

/// Approximate runtime-step count of a benchmark run (to place the
/// injected failure mid-computation).
pub fn total_steps(bench: Benchmark, class: Class) -> u64 {
    match bench {
        Benchmark::Lu => {
            let (_, _, gnz, iters) = class.lu_dims();
            iters * (2 * gnz as u64 + 1)
        }
        Benchmark::Bt => class.adi_dims().1 * 4,
        Benchmark::Sp => class.adi_dims().1 * 6,
        // CG: matvec + update per iteration.
        Benchmark::Cg => lclog_npb::CgApp::dims(class).1 * 2,
    }
}

/// Fig. 8: normalized accomplishment time under one mid-run failure,
/// blocking vs non-blocking communication (TDI protocol, LAN-like
/// fabric, the paper's sweep: class S at 4–32 processes). Time is the
/// run's virtual clock when the last rank finished
/// ([`lclog_runtime::RunReport::done_at`]), so the table replays byte
/// for byte. `gain = 1 − t_nonblocking / t_blocking` is the paper's
/// improvement metric.
pub fn fig8_table() -> Table {
    let cfg = ExpConfig::full();
    let mut t = Table::new(
        "Fig. 8 — Accomplishment time with one failure: blocking vs non-blocking (TDI)",
        &["bench", "procs", "blocking_ms", "nonblocking_ms", "normalized_nb", "gain_%"],
    );
    for bench in Benchmark::ALL {
        for &n in &cfg.procs {
            let steps = total_steps(bench, cfg.class);
            let kill_at = steps / 2;
            let ckpt = (steps / 6).max(2);
            let run_mode = |comm: CommMode| -> f64 {
                let mut c = ClusterConfig::new(
                    n,
                    RunConfig::new(ProtocolKind::Tdi)
                        .with_comm(comm)
                        .with_checkpoint(CheckpointPolicy::EverySteps(ckpt)),
                )
                .with_net(NetConfig::lan_like(0xF168 ^ n as u64))
                .with_failures(FailurePlan::kill_at(1 % n, kill_at));
                c.max_wall = Duration::from_secs(600);
                let report = run_benchmark(bench, cfg.class, &c).expect("fig8 run");
                report.done_at.as_secs_f64() * 1e3
            };
            // §III.E: the original architecture blocks on *every*
            // send "until the message has been received by its
            // receiver" — no eager path (threshold 0).
            let blocking = run_mode(CommMode::Blocking { eager_threshold: 0 });
            let nonblocking = run_mode(CommMode::NonBlocking);
            let normalized = nonblocking / blocking;
            t.row(vec![
                bench.to_string(),
                n.to_string(),
                format!("{blocking:.2}"),
                format!("{nonblocking:.2}"),
                format!("{normalized:.3}"),
                format!("{:.1}", (1.0 - normalized) * 100.0),
            ]);
        }
    }
    t
}

/// EXP1: schedule exploration — the TDI order-insensitivity claim
/// checked over every legal delivery interleaving of an
/// `MPI_ANY_SOURCE` gather workload, now with **fault choice points**
/// (crash, crash+wipe) and **DPOR**
/// sleep-set reduction. Brute-force rows enumerate the raw tree; dpor
/// rows cover the same outcomes in a fraction of the executions
/// (`reduction` = brute schedules / dpor executions, only reported
/// when the brute row exhausted). The final row injects an
/// order-sensitive fold to demonstrate the explorer detects order
/// dependence when it exists; its shrunk counterexample is returned
/// beside the table so the caller can save it for `--replay`.
pub fn explore_table() -> (Table, Option<lclog_explore::ReplayCase>) {
    use lclog_explore::{
        explore_dpor, explore_exhaustive, explore_sampled, ExploreConfig, ExploreReport,
        FaultBudget, Fold, ReplayCase, Workload,
    };

    let mut t = Table::new(
        "EXP1 — Schedule exploration: digests & depend_interval across legal interleavings, faults included",
        &[
            "workload", "mode", "protocol", "faults", "schedules", "blocked", "wedged",
            "exhausted", "reduction", "agree", "counterexample",
        ],
    );
    let base = ExploreConfig {
        max_schedules: 500_000,
        samples: 256,
        ..Default::default()
    };
    let fault_label = |f: &FaultBudget| {
        if f.total() == 0 {
            "-".to_string()
        } else {
            let mut parts = Vec::new();
            if f.crashes > 0 {
                parts.push(format!("crash x{}", f.crashes));
            }
            if f.wipes > 0 {
                parts.push(format!("wipe x{}", f.wipes));
            }
            if f.window > 0 {
                parts.push(format!("w<{}", f.window));
            }
            parts.join(" ")
        }
    };
    let mut row = |label: &str,
                   mode: &str,
                   cfg: &ExploreConfig,
                   report: &ExploreReport,
                   brute: Option<&ExploreReport>| {
        let executions = report.schedules + report.sleep_blocked;
        let reduction = match brute {
            Some(b) if b.exhausted && executions > 0 => {
                format!("{:.1}x", b.schedules as f64 / executions as f64)
            }
            _ => "-".into(),
        };
        t.row(vec![
            label.to_string(),
            mode.to_string(),
            cfg.protocol.name().to_string(),
            fault_label(&cfg.faults),
            report.schedules.to_string(),
            report.sleep_blocked.to_string(),
            report.wedged.to_string(),
            report.exhausted.to_string(),
            reduction,
            report.divergence.is_none().to_string(),
            match &report.divergence {
                None => "-".into(),
                Some(d) => format!("trace {} -> shrunk {}", d.trace, d.shrunk),
            },
        ]);
    };

    // Fault-free n=3: brute vs DPOR, dense and sparse codecs. The
    // acceptance bar: reduction > 1 for both protocols, identical
    // digest censuses (a census mismatch surfaces as `agree=false`).
    let w3 = Workload::rotating_gather(3, 3);
    for protocol in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(4)] {
        let cfg = ExploreConfig { protocol, ..base };
        let brute = explore_exhaustive(&w3, &cfg);
        row("gather n=3 r=3", "brute", &cfg, &brute, None);
        let dpor = explore_dpor(&w3, &cfg);
        row("gather n=3 r=3", "dpor", &cfg, &dpor, Some(&brute));
    }

    // Single-crash matrix at n=3: every schedule of the two-round
    // gather with a crash of any live rank injectable before any
    // enabled action. Brute enumerates fault alternatives too, so the
    // reduction factor is like-for-like.
    let crash1 = FaultBudget {
        crashes: 1,
        ..FaultBudget::none()
    };
    let wc = Workload::rotating_gather(3, 2);
    for protocol in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(4)] {
        let cfg = ExploreConfig {
            protocol,
            faults: crash1,
            ..base
        };
        let brute = explore_exhaustive(&wc, &cfg);
        row("gather n=3 r=2", "brute", &cfg, &brute, None);
        let dpor = explore_dpor(&wc, &cfg);
        row("gather n=3 r=2", "dpor", &cfg, &dpor, Some(&brute));
    }

    // DPOR alone, two fault matrices:
    // - crash + storage wipe with checkpointing on: the victim falls
    //   back past its wiped checkpoint and replays under survivor log
    //   resends (log_gc_lag keeps one generation resendable);
    // - the exhaustive n=4 single-crash matrix: one crash, any target,
    //   any position, all downstream interleavings. Only application
    //   frames are choice points (protocol traffic flushes eagerly),
    //   which is what keeps this enumerable; see DESIGN.md §12.
    let wipe1 = FaultBudget {
        wipes: 1,
        ..FaultBudget::none()
    };
    let ckpt2 = Workload::rotating_gather(3, 2).with_checkpoints(2);
    for (label, w, faults) in [
        ("gather n=3 r=2 ckpt2", ckpt2, wipe1),
        ("gather n=4 r=1", Workload::rotating_gather(4, 1), crash1),
    ] {
        let cfg = ExploreConfig { faults, ..base };
        row(label, "dpor", &cfg, &explore_dpor(&w, &cfg), None);
    }

    // Sampled fault-free n=4 — the tree is too large to enumerate.
    {
        let w = Workload::rotating_gather(4, 4);
        let report = explore_sampled(&w, &base);
        row("gather n=4", "sampled", &base, &report, None);
    }

    // The injected mutation: same workload, order-sensitive fold. The
    // explorer must disagree; its shrunk trace becomes a replayable
    // counterexample case.
    let mut w = Workload::rotating_gather(3, 2);
    w.fold = Fold::OrderSensitive;
    let report = explore_exhaustive(&w, &base);
    let case = report.divergence.as_ref().map(|div| ReplayCase {
        fold: Fold::OrderSensitive,
        ..ReplayCase::gather(3, 2, div.shrunk.clone())
    });
    row(
        "gather n=3 ORDER-SENSITIVE (expect disagree)",
        "brute",
        &base,
        &report,
        None,
    );
    (t, case)
}

/// LS1 (durable log shipping): data integrity across a backend-outage
/// duration sweep × restore-path sweep.
///
/// Paths: `kill` keeps the local store (ordinary ROLLBACK recovery,
/// the remote is passive); `wipe` loses the node's store and restores
/// the newest certified generation from the remote; `wipe+corrupt`
/// additionally tears the newest remote upload, forcing the restore to
/// fall back one generation. Outages are windows in storage-operation
/// space ([`StorageChaos::with_outage`]): every failed put is a retry,
/// and a generation that fails waits in the replicator's queue (at most
/// two per rank, the rest `shed`) until a later round ships it, so
/// `short`/`long` span more rounds and more retries. `data_loss` must
/// read `none` in every row: the digests of every faulted run equal the
/// fault-free run's. The runs are tasks runs, the replicator stepped
/// once per round, so every column repeats exactly.
pub fn log_ship_table() -> Table {
    let mut t = Table::new(
        "LS1 — Durable log shipping: outage duration × restore path (ring, 4 ranks)",
        &[
            "outage",
            "path",
            "objects_shipped",
            "retries",
            "spill_peak_B",
            "gens_skipped",
            "shed",
            "data_loss",
        ],
    );
    let n = 4;
    let rounds = 30;
    let kill_step = rounds / 2;
    let app = TaskRing {
        rounds,
        payload: 64,
    };
    let base = |seed: u64, outage: Option<(u64, u64)>| {
        let mut chaos = StorageChaos::seeded(seed);
        if let Some((from, to)) = outage {
            chaos = chaos.with_outage(from, to);
        }
        ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(3)),
        )
        .with_remote(Arc::new(FaultyRemote::new(MemRemote::new(), chaos)))
    };
    let clean = run_tasks(&base(1, None), app).expect("clean run").digests;
    let outages: [(&str, Option<(u64, u64)>); 3] = [
        ("none", None),
        ("short", Some((6, 40))),
        ("long", Some((6, 160))),
    ];
    type PathPlan = fn(u64) -> FailurePlan;
    let paths: [(&str, PathPlan); 3] = [
        ("kill", |at| FailurePlan::kill_at(1, at)),
        ("wipe", |at| FailurePlan::kill_wipe_at(1, at)),
        ("wipe+corrupt", |at| {
            FailurePlan::none().and_kill_wipe_corrupt(1, at)
        }),
    ];
    for (outage_label, outage) in outages {
        for (path_label, plan) in paths {
            let seed = 0x0015_AB1E ^ (outage_label.len() as u64) << 8 ^ path_label.len() as u64;
            let cfg = base(seed, outage).with_failures(plan(kill_step));
            let r = run_tasks(&cfg, app).expect("log-ship run recovers");
            let stats = r.replicator.clone().unwrap_or_default();
            t.row(vec![
                outage_label.to_string(),
                path_label.to_string(),
                stats.objects_shipped.to_string(),
                stats.retries.to_string(),
                stats.spill_peak_bytes.to_string(),
                stats.generations_skipped.to_string(),
                stats.spill_shed.to_string(),
                if r.digests == clean { "none" } else { "LOST" }.to_string(),
            ]);
        }
    }
    t
}

/// SC1: piggyback-bytes scaling, extending Fig. 6 beyond the paper's
/// n = 32 ceiling. Every run uses the task engine
/// (ranks as scheduler tasks driven by one thread, held fabric, virtual
/// clock) on the neighbor-exchange ring, sweeping n with dense TDI
/// against sparse delta tracking (TDI-S). Each (n, protocol) cell runs
/// fault-free and again with rank 1 killed mid-run; `digest_ok` is the
/// recovery cross-check (faulty digests == clean digests). Dense TDI's
/// per-send piggyback grows linearly in n; TDI-S stays near-constant —
/// that gap is the point of the sparse codec. What the ring costs in
/// time at n = 512 is `lcbench`'s `ring_wide_*` to say.
pub fn scaling_table() -> Table {
    let mut t = Table::new(
        "SC1 — Scaling: piggyback bytes, dense TDI vs TDI-S (task engine)",
        &[
            "n",
            "protocol",
            "bytes/send",
            "ids/send",
            "delta",
            "full",
            "resyncs",
            "kills",
            "digest_ok",
        ],
    );
    let rounds: u64 = 16;
    let kill_step = rounds / 2;
    let app = TaskRing {
        rounds,
        payload: 64,
    };
    for n in [32, 128, 512] {
        for kind in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(32)] {
            let cfg = |failures: FailurePlan| {
                ClusterConfig::new(
                    n,
                    RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(8)),
                )
                .with_failures(failures)
                .with_max_wall(Duration::from_secs(600))
            };
            let clean = run_tasks(&cfg(FailurePlan::none()), app).expect("clean scaling run");
            let faulty = run_tasks(&cfg(FailurePlan::kill_at(1, kill_step)), app)
                .expect("faulty scaling run");
            let digest_ok = faulty.kills >= 1 && faulty.digests == clean.digests;
            t.row(vec![
                n.to_string(),
                kind.to_string(),
                format!("{:.1}", clean.stats.avg_bytes_per_msg()),
                format!("{:.1}", clean.stats.avg_ids_per_msg()),
                clean.stats.delta_frames.to_string(),
                clean.stats.full_frames.to_string(),
                faulty.stats.resync_requests.to_string(),
                faulty.kills.to_string(),
                digest_ok.to_string(),
            ]);
        }
    }
    t
}

/// HP1 (kernel hot path): the digest-parity gate that guards the
/// data plane — clean vs. mid-run kill, for both kinds of application
/// (an `async` [`lclog_runtime::RankApp`] and a poll-style
/// [`lclog_runtime::TaskApp`]) and both tracking protocols (TDI,
/// TDI-S). A `false` in `digest_ok` means the data plane broke
/// exactly-once recovery. What the hot path costs is `lcbench`'s to say
/// (`pair_stream`, `pair_pingpong`, `lu_threads`).
pub fn hotpath_table() -> Table {
    let mut t = Table::new(
        "HP1 — Kernel hot path: digest parity through a mid-run kill",
        &["cell", "engine", "protocol", "kills", "digest_ok"],
    );
    // Digest parity: the data plane must reproduce fault-free
    // digests through a mid-run kill on every application × protocol
    // cell.
    let class = Class::Test;
    let steps = total_steps(Benchmark::Lu, class);
    let ckpt = (steps / 6).max(2);
    let rounds: u64 = 16;
    for kind in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(32)] {
        let rank_app = |kill: bool| {
            let mut c = ClusterConfig::new(
                8,
                RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(ckpt)),
            );
            if kill {
                c = c.with_failures(FailurePlan::kill_at(1, steps / 2));
            }
            c.max_wall = Duration::from_secs(600);
            run_benchmark(Benchmark::Lu, class, &c).expect("hotpath parity run")
        };
        let clean = rank_app(false);
        let faulty = rank_app(true);
        t.row(vec![
            "parity_kill".to_string(),
            "rank_app".to_string(),
            kind.to_string(),
            faulty.kills.to_string(),
            (faulty.kills >= 1 && faulty.digests == clean.digests).to_string(),
        ]);
        let task_app = |kill: bool| {
            let failures = if kill {
                FailurePlan::kill_at(1, rounds / 2)
            } else {
                FailurePlan::none()
            };
            let cfg = ClusterConfig::new(
                8,
                RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(8)),
            )
            .with_failures(failures)
            .with_max_wall(Duration::from_secs(600));
            run_tasks(
                &cfg,
                TaskRing {
                    rounds,
                    payload: 64,
                },
            )
            .expect("hotpath tasks parity run")
        };
        let clean = task_app(false);
        let faulty = task_app(true);
        t.row(vec![
            "parity_kill".to_string(),
            "task_app".to_string(),
            kind.to_string(),
            faulty.kills.to_string(),
            (faulty.kills >= 1 && faulty.digests == clean.digests).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn quick_matrix_produces_full_grid() {
        let cfg = ExpConfig {
            class: Class::Test,
            procs: vec![2, 4],
        };
        let cells = overhead_matrix(&cfg);
        assert_eq!(cells.len(), 3 * 2 * 3);
        let fig6 = fig6_table(&cells);
        let fig7 = fig7_table(&cells);
        assert_eq!(fig6.len(), 6);
        assert_eq!(fig7.len(), 6);
        // TDI's Fig. 6 value is exactly n for every workload.
        for c in cells.iter().filter(|c| c.kind == ProtocolKind::Tdi) {
            assert_eq!(c.avg_ids, c.n as f64, "{} n={}", c.bench, c.n);
        }
        // Fig. 7 reads the host's clock, whatever clock the run is on.
        for c in cells.iter().filter(|c| c.kind == ProtocolKind::Tag) {
            assert!(c.tracking_ms > 0.0, "{} n={}", c.bench, c.n);
        }
    }

    /// The committed `results/<name>.csv`, one column → cell map per
    /// row. `registry`'s golden test proves a fresh run prints exactly
    /// these bytes, so a claim checked here holds for the run.
    fn rows(name: &str) -> Vec<BTreeMap<String, String>> {
        let text = crate::registry::committed(&format!("{name}.csv"));
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
        lines
            .map(|line| {
                header
                    .iter()
                    .map(|h| h.to_string())
                    .zip(line.split(',').map(String::from))
                    .collect()
            })
            .collect()
    }

    /// The paper's three Fig. 8 verdicts, on the committed table:
    /// non-blocking communication wins every row, LU gains most at
    /// every scale, and BT's gain grows with scale.
    #[test]
    fn fig8_verdicts_hold() {
        let rows = rows("fig8_blocking");
        assert_eq!(rows.len(), 12, "3 benchmarks x 4 process counts");
        let gain = |bench: &str, procs: &str| -> f64 {
            rows.iter()
                .find(|r| r["bench"] == bench && r["procs"] == procs)
                .expect("Fig. 8 cell present")["gain_%"]
                .parse()
                .unwrap()
        };
        for r in &rows {
            let ms = |col: &str| r[col].parse::<f64>().unwrap();
            assert!(ms("nonblocking_ms") < ms("blocking_ms"), "{r:?}");
        }
        let procs = ["4", "8", "16", "32"];
        for n in procs {
            assert!(
                gain("LU", n) > gain("BT", n) && gain("LU", n) > gain("SP", n),
                "LU gains most at {n} processes"
            );
        }
        assert!(
            procs.windows(2).all(|w| gain("BT", w[0]) < gain("BT", w[1])),
            "BT's gain grows with scale"
        );
    }

    #[test]
    fn log_ship_table_loses_no_data_on_any_path() {
        let rows = rows("log_ship");
        assert_eq!(rows.len(), 9, "3 outages x 3 restore paths");
        for r in &rows {
            assert_eq!(r["data_loss"], "none", "{r:?}");
            // Exactly the torn upload is skipped, by one generation.
            let torn = r["path"] == "wipe+corrupt";
            assert_eq!(r["gens_skipped"], if torn { "1" } else { "0" }, "{r:?}");
            // Every operation of an outage window fails as a retry.
            if r["outage"] != "none" {
                let retries: u64 = r["retries"].parse().unwrap();
                assert!(retries >= 34, "{r:?}");
            }
        }
    }

    #[test]
    fn explore_table_agrees_outside_the_mutation() {
        let (mutation, rest): (Vec<_>, Vec<_>) = rows("explore")
            .into_iter()
            .partition(|r| r["workload"].contains("expect disagree"));
        for r in &rest {
            assert_eq!(
                (r["agree"].as_str(), r["wedged"].as_str()),
                ("true", "0"),
                "{r:?}"
            );
        }
        assert_eq!(mutation.len(), 1);
        assert_eq!(
            mutation[0]["agree"], "false",
            "the order-sensitive fold must disagree"
        );
        let reductions: Vec<f64> = rest
            .iter()
            .filter_map(|r| r["reduction"].strip_suffix('x')?.parse().ok())
            .collect();
        assert!(reductions.iter().any(|&x| x > 1.0), "{reductions:?}");
    }

    #[test]
    fn counterexample_case_still_disagrees() {
        use lclog_explore::{replay_trace, Fold, ReplayCase, Trace, Verdict};
        let case: ReplayCase = crate::registry::committed(crate::registry::COUNTEREXAMPLE)
            .parse()
            .expect("committed case file parses");
        assert_eq!(case.fold, Fold::OrderSensitive);
        // Against the all-defaults schedule of the same case, the
        // shrunk trace completes with other digests; under the
        // commutative fold the same trace agrees.
        let verdict = |case: &ReplayCase| {
            let (out, _) = replay_trace(case);
            let (baseline, _) = replay_trace(&ReplayCase {
                trace: Trace::new(),
                ..case.clone()
            });
            assert_eq!(out.verdict, Verdict::Completed);
            out.agrees_with(&baseline)
        };
        assert!(!verdict(&case));
        assert!(verdict(&ReplayCase {
            fold: Fold::Commutative,
            ..case
        }));
    }

    #[test]
    fn scaling_table_recovers_and_sparse_stays_below_dense() {
        let rows = rows("scaling");
        for r in &rows {
            assert_eq!(
                (r["kills"].as_str(), r["digest_ok"].as_str()),
                ("1", "true"),
                "{r:?}"
            );
        }
        assert_eq!(rows.len(), 6, "three sizes x two protocols");
        for n in ["32", "128", "512"] {
            let bytes = |protocol: &str| -> f64 {
                rows.iter()
                    .find(|r| r["n"] == n && r["protocol"] == protocol)
                    .expect("SC1 cell present")["bytes/send"]
                    .parse()
                    .unwrap()
            };
            assert!(bytes("TDI-S32") < bytes("TDI"), "n = {n}");
        }
    }

    #[test]
    fn hotpath_table_keeps_digest_parity() {
        let rows = rows("hotpath");
        assert_eq!(rows.len(), 4, "2 application kinds x 2 protocols");
        for r in &rows {
            assert_eq!(
                (r["kills"].as_str(), r["digest_ok"].as_str()),
                ("1", "true"),
                "{r:?}"
            );
        }
    }

    #[test]
    fn total_steps_matches_phase_structure() {
        let (_, _, gnz, iters) = Class::Test.lu_dims();
        assert_eq!(
            total_steps(Benchmark::Lu, Class::Test),
            iters * (2 * gnz as u64 + 1)
        );
        assert_eq!(
            total_steps(Benchmark::Bt, Class::Test),
            Class::Test.adi_dims().1 * 4
        );
        assert_eq!(
            total_steps(Benchmark::Sp, Class::Test),
            Class::Test.adi_dims().1 * 6
        );
    }
}
