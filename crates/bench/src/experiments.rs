//! The figure-regeneration experiments (see crate docs).

use crate::apps::{RingApp, TaskRing};
use crate::table::Table;
use lclog_core::ProtocolKind;
use lclog_npb::{run_benchmark, Benchmark, Class};
use lclog_runtime::{
    run_tasks, CheckpointPolicy, Cluster, ClusterConfig, CommMode, DetectorConfig, FailurePlan,
    RemoteConfig, ReplicatorConfig, RunConfig,
};
use lclog_simnet::{ChaosConfig, NetConfig, StorageChaos};
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
    /// Supporting data: piggyback bytes per message.
    pub avg_bytes: f64,
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
                    tracking_ms: report.stats.tracking_ms(),
                    sends: report.stats.sends,
                    avg_bytes: report.stats.avg_bytes_per_msg(),
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
/// fabric). `gain = 1 − t_nonblocking / t_blocking` is the paper's
/// improvement metric.
pub fn fig8_table(cfg: &ExpConfig) -> Table {
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
                report.wall.as_secs_f64() * 1e3
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
                format!("{blocking:.1}"),
                format!("{nonblocking:.1}"),
                format!("{normalized:.3}"),
                format!("{:.1}", (1.0 - normalized) * 100.0),
            ]);
        }
    }
    t
}

/// Ablation ABL1: piggyback growth vs message history on a fixed-size
/// ring. TDI stays at `n`; TAG grows with the retained history; TEL
/// plateaus at the stabilization window.
pub fn ablation_rate(n: usize) -> Table {
    let mut t = Table::new(
        format!("ABL1 — Piggyback (ids/msg) vs message count, ring n={n}"),
        &["rounds", "TDI", "TAG", "TEL"],
    );
    for rounds in [10u64, 20, 40, 80] {
        let per_kind = |kind: ProtocolKind| -> f64 {
            let mut cfg = ClusterConfig::new(
                n,
                RunConfig::new(kind).with_checkpoint(CheckpointPolicy::Never),
            );
            cfg.max_wall = Duration::from_secs(300);
            Cluster::run(
                &cfg,
                RingApp {
                    rounds,
                    payload: 64,
                },
            )
            .expect("ablation run")
            .stats
            .avg_ids_per_msg()
        };
        t.row(vec![
            rounds.to_string(),
            format!("{:.1}", per_kind(ProtocolKind::Tdi)),
            format!("{:.1}", per_kind(ProtocolKind::Tag)),
            format!("{:.1}", per_kind(ProtocolKind::Tel)),
        ]);
    }
    t
}

/// Ablation ABL2: rolling-forward cost under adversarial reordering.
/// Recovery overhead = faulty wall time − fault-free wall time, per
/// protocol. TDI delivers logged messages as they arrive; PWD
/// protocols first gather full recovery info, then replay in exact
/// order.
pub fn ablation_replay() -> Table {
    let mut t = Table::new(
        "ABL2 — Recovery overhead under reordering fabric (LU, 8 ranks, median of 7, ms)",
        &["protocol", "clean_ms", "faulty_ms", "overhead_ms", "sync_barrier_ms"],
    );
    let n = 8;
    let class = Class::Test;
    let steps = total_steps(Benchmark::Lu, class);
    const REPS: usize = 7;
    for kind in ProtocolKind::ALL {
        let run_once = |failures: &FailurePlan, seed: u64| -> f64 {
            let mut c = ClusterConfig::new(
                n,
                RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(steps / 4)),
            )
            .with_net(NetConfig::delayed(
                Duration::from_micros(30),
                Duration::from_micros(10),
                Duration::from_micros(300),
                0xAB1 ^ seed,
            ))
            .with_failures(failures.clone());
            c.max_wall = Duration::from_secs(300);
            run_benchmark(Benchmark::Lu, class, &c)
                .expect("ablation replay run")
                .wall
                .as_secs_f64()
                * 1e3
        };
        let median = |failures: FailurePlan| -> f64 {
            let mut samples: Vec<f64> = (0..REPS)
                .map(|i| run_once(&failures, i as u64))
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[REPS / 2]
        };
        let clean = median(FailurePlan::none());
        let faulty = median(FailurePlan::kill_at(3, steps / 2));
        // The direct mechanism measurement: how long the incarnation
        // was barred from delivering while collecting recovery info.
        let sync_samples: Vec<f64> = (0..REPS)
            .map(|i| {
                let mut c = ClusterConfig::new(
                    n,
                    RunConfig::new(kind)
                        .with_checkpoint(CheckpointPolicy::EverySteps(steps / 4)),
                )
                .with_net(NetConfig::delayed(
                    Duration::from_micros(30),
                    Duration::from_micros(10),
                    Duration::from_micros(300),
                    0xAB1 ^ i as u64,
                ))
                .with_failures(FailurePlan::kill_at(3, steps / 2));
                c.max_wall = Duration::from_secs(300);
                run_benchmark(Benchmark::Lu, class, &c)
                    .expect("ablation replay run")
                    .stats
                    .recovery_sync_ns as f64
                    / 1e6
            })
            .collect();
        let mut sorted = sync_samples;
        sorted.sort_by(f64::total_cmp);
        let sync = sorted[REPS / 2];
        t.row(vec![
            kind.to_string(),
            format!("{clean:.1}"),
            format!("{faulty:.1}"),
            format!("{:.1}", faulty - clean),
            format!("{sync:.2}"),
        ]);
    }
    t
}

/// Ablation ABL3: checkpoint-interval sweep. Frequent checkpoints GC
/// the sender logs aggressively (small memory peak) at the price of
/// more checkpoint work; sparse checkpoints retain long logs — the
/// practical trade rollback-recovery deployments tune (the paper used
/// a fixed 180 s interval).
pub fn ablation_ckpt() -> Table {
    let mut t = Table::new(
        "ABL3 — Checkpoint interval vs log memory and recovery (LU, 4 ranks, TDI)",
        &["ckpt_every_steps", "log_peak_bytes", "clean_ms", "faulty_ms"],
    );
    let class = Class::Small;
    let steps = total_steps(Benchmark::Lu, class);
    for interval in [3u64, 6, 12, 25, steps] {
        let run = |failures: FailurePlan| {
            let mut c = ClusterConfig::new(
                4,
                RunConfig::new(ProtocolKind::Tdi)
                    .with_checkpoint(CheckpointPolicy::EverySteps(interval)),
            )
            .with_failures(failures);
            c.max_wall = Duration::from_secs(300);
            run_benchmark(Benchmark::Lu, class, &c).expect("ablation ckpt run")
        };
        let clean = run(FailurePlan::none());
        let faulty = run(FailurePlan::kill_at(2, steps / 2));
        t.row(vec![
            interval.to_string(),
            clean.stats.log_bytes_peak.to_string(),
            format!("{:.1}", clean.wall.as_secs_f64() * 1e3),
            format!("{:.1}", faulty.wall.as_secs_f64() * 1e3),
        ]);
    }
    t
}

/// Ablation ABL4: the full protocol panorama, including the two
/// extension baselines (f-bounded causal tracking and pessimistic
/// logging), on a moderate workload. Shows the design space the paper
/// positions TDI in: piggyback volume (PES 0 < TDI n < TAG-f < TEL <
/// TAG) against send-path cost (PES pays a logger round-trip per
/// delivery).
pub fn ablation_protocols(n: usize) -> Table {
    let mut t = Table::new(
        format!("ABL4 — Protocol panorama (SP, {n} ranks)"),
        &["protocol", "ids_per_msg", "bytes_per_msg", "tracking_ms", "wall_ms"],
    );
    for kind in ProtocolKind::EXTENDED {
        let mut c = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(8)),
        );
        c.max_wall = Duration::from_secs(300);
        let report = run_benchmark(Benchmark::Sp, Class::Small, &c).expect("panorama run");
        t.row(vec![
            kind.to_string(),
            format!("{:.1}", report.stats.avg_ids_per_msg()),
            format!("{:.1}", report.stats.avg_bytes_per_msg()),
            format!("{:.2}", report.stats.tracking_ms()),
            format!("{:.1}", report.wall.as_secs_f64() * 1e3),
        ]);
    }
    t
}

/// Ablation ABL5: the failure-hypothesis knob. TAG-f's piggyback
/// plateau falls as `f` shrinks (fewer required holders per
/// determinant) and approaches unbounded TAG as `f → n − 1`. TDI's
/// flat `n` is shown for reference.
pub fn ablation_f_bound(n: usize) -> Table {
    let mut t = Table::new(
        format!("ABL5 — TAG-f piggyback vs failure bound f (SP, {n} ranks)"),
        &["protocol", "ids_per_msg", "bytes_per_msg"],
    );
    let mut kinds = vec![ProtocolKind::Tdi];
    for f in [1u32, 2, 3, 5] {
        if (f as usize) < n {
            kinds.push(ProtocolKind::TagF(f));
        }
    }
    kinds.push(ProtocolKind::Tag);
    for kind in kinds {
        let mut c = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(8)),
        );
        c.max_wall = Duration::from_secs(300);
        let report = run_benchmark(Benchmark::Sp, Class::Small, &c).expect("f-sweep run");
        t.row(vec![
            kind.to_string(),
            format!("{:.1}", report.stats.avg_ids_per_msg()),
            format!("{:.1}", report.stats.avg_bytes_per_msg()),
        ]);
    }
    t
}

/// Ablation ABL6 (chaos fabric): end-to-end reliability under seeded
/// message loss, duplication, and corruption plus a mid-run crash.
/// For each protocol a fault-free run provides the reference digests
/// and wall time; every chaotic run must reproduce the digests
/// exactly (exactly-once delivery end to end, despite the transport
/// retransmitting below the app layer). `overhead_x` is
/// accomplishment time normalized to the fault-free run.
pub fn ablation_chaos(n: usize) -> Table {
    let mut t = Table::new(
        format!("ABL6 — Chaos fabric: loss sweep + mid-run kill (LU, {n} ranks, dup 2%, corrupt 1%)"),
        &[
            "protocol",
            "drop_%",
            "wall_ms",
            "overhead_x",
            "retransmits",
            "dropped",
            "dup",
            "corrupt",
            "kills",
            "digests_ok",
        ],
    );
    let class = Class::Test;
    let steps = total_steps(Benchmark::Lu, class);
    let ckpt = (steps / 6).max(2);
    for kind in ProtocolKind::ALL {
        let run = |chaos_drop: Option<f64>| {
            let mut c = ClusterConfig::new(
                n,
                RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(ckpt)),
            );
            if let Some(p) = chaos_drop {
                c = c
                    .with_net(NetConfig::direct().with_chaos(
                        ChaosConfig::seeded(0xC4A05 ^ n as u64)
                            .with_drop(p)
                            .with_duplicate(0.02)
                            .with_corrupt(0.01),
                    ))
                    .with_failures(FailurePlan::kill_at(1 % n, steps / 2));
            }
            c.max_wall = Duration::from_secs(600);
            run_benchmark(Benchmark::Lu, class, &c).expect("chaos run")
        };
        let clean = run(None);
        let clean_ms = clean.wall.as_secs_f64() * 1e3;
        for drop_p in [0.0, 0.02, 0.05] {
            let r = run(Some(drop_p));
            let wall_ms = r.wall.as_secs_f64() * 1e3;
            t.row(vec![
                kind.to_string(),
                format!("{:.0}", drop_p * 100.0),
                format!("{wall_ms:.1}"),
                format!("{:.2}", wall_ms / clean_ms),
                r.retransmits.to_string(),
                r.chaos_dropped.to_string(),
                r.chaos_duplicated.to_string(),
                r.chaos_corrupted.to_string(),
                r.kills.to_string(),
                (r.digests == clean.digests).to_string(),
            ]);
        }
    }
    t
}

/// DP1 (zero-copy data plane): byte accounting from the transport's
/// [`lclog_runtime::DataPlaneStats`], for each protocol on a clean
/// fabric and on a chaotic one (loss + duplication + corruption +
/// mid-run kill). `payload_copies` counts single-pass payload encodes
/// — exactly one per freshly framed send; `zc_resend` counts
/// recovery/rendezvous resends that reused already-encoded sender-log
/// bytes, and `retx` counts frames retransmitted verbatim from the
/// unacked map — both, by construction, copy zero payload bytes.
pub fn data_plane_table(n: usize) -> Table {
    let mut t = Table::new(
        format!("DP1 — Zero-copy data plane accounting (LU, {n} ranks)"),
        &[
            "protocol",
            "fabric",
            "frames",
            "kB_framed",
            "payload_copies",
            "kB_copied",
            "zc_resend",
            "retx",
            "digests_ok",
        ],
    );
    let class = Class::Test;
    let steps = total_steps(Benchmark::Lu, class);
    let ckpt = (steps / 6).max(2);
    for kind in ProtocolKind::ALL {
        let run = |chaotic: bool| {
            let mut c = ClusterConfig::new(
                n,
                RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(ckpt)),
            );
            if chaotic {
                c = c
                    .with_net(NetConfig::direct().with_chaos(
                        ChaosConfig::seeded(0xD47A ^ n as u64)
                            .with_drop(0.02)
                            .with_duplicate(0.02)
                            .with_corrupt(0.01),
                    ))
                    .with_failures(FailurePlan::kill_at(1 % n, steps / 2));
            }
            c.max_wall = Duration::from_secs(600);
            run_benchmark(Benchmark::Lu, class, &c).expect("data-plane run")
        };
        let clean = run(false);
        for (label, r) in [("clean", &clean), ("chaos", &run(true))] {
            let dp = &r.data_plane;
            t.row(vec![
                kind.to_string(),
                label.to_string(),
                dp.frames_built.to_string(),
                format!("{:.1}", dp.bytes_framed as f64 / 1e3),
                dp.payload_copies.to_string(),
                format!("{:.1}", dp.payload_bytes_copied as f64 / 1e3),
                dp.zero_copy_resends.to_string(),
                dp.retransmit_frames.to_string(),
                (r.digests == clean.digests).to_string(),
            ]);
        }
    }
    t
}

/// DET1 (failure detector ablation): sweep the φ-accrual suspicion
/// threshold against fabric delay profiles and report, per cell, how
/// fast real deaths are certified (`detect_ms`, mean crash→declaration
/// latency), how many certifications were *false* (`false_kills` — a
/// live incarnation fenced and forced to rejoin), and whether the run
/// still produced the failure-free digests. Low thresholds detect
/// faster but misfire under heavy-tailed delays; the table makes the
/// trade visible and motivates the φ = 8 default.
pub fn ablation_detector(n: usize) -> Table {
    let mut t = Table::new(
        format!("DET1 — Detector threshold × delay profile (LU/TDI, {n} ranks, 1 real kill)"),
        &[
            "phi",
            "delays",
            "wall_ms",
            "declared",
            "detect_ms",
            "false_kills",
            "gate_to",
            "digests_ok",
        ],
    );
    let class = Class::Test;
    let steps = total_steps(Benchmark::Lu, class);
    let ckpt = (steps / 6).max(2);
    let clean = {
        let mut c = ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(ckpt)),
        );
        c.max_wall = Duration::from_secs(600);
        run_benchmark(Benchmark::Lu, class, &c).expect("clean run")
    };
    // (label, P(extra delay), median, sigma, cap). The mild cap stays
    // under every threshold's detection silence; the heavy cap (40 ms)
    // deliberately crosses the low-φ ones.
    let profiles: [(&str, f64, u64, f64, u64); 3] = [
        ("none", 0.0, 0, 0.0, 0),
        ("mild", 0.02, 2, 1.0, 10),
        ("heavy", 0.05, 4, 1.2, 40),
    ];
    for phi in [2.0f64, 4.0, 8.0, 12.0] {
        for (label, p, median, sigma, cap) in profiles {
            let mut c = ClusterConfig::new(
                n,
                RunConfig::new(ProtocolKind::Tdi)
                    .with_checkpoint(CheckpointPolicy::EverySteps(ckpt))
                    .with_detector(DetectorConfig::default().with_threshold(phi)),
            )
            .with_failures(FailurePlan::kill_at(1 % n, steps / 2));
            if p > 0.0 {
                c = c.with_net(NetConfig::direct().with_chaos(
                    ChaosConfig::seeded(0xDE7 ^ n as u64).with_heavy_tail(
                        p,
                        Duration::from_millis(median),
                        sigma,
                        Duration::from_millis(cap),
                    ),
                ));
            }
            c.max_wall = Duration::from_secs(600);
            // A pathological cell (φ so low that fencing churn starves
            // progress) may trip the watchdog: report it as a failed
            // row instead of aborting the sweep.
            match run_benchmark(Benchmark::Lu, class, &c) {
                Ok(r) => {
                    let det = r.detector.clone().unwrap_or_default();
                    t.row(vec![
                        format!("{phi:.0}"),
                        label.to_string(),
                        format!("{:.1}", r.wall.as_secs_f64() * 1e3),
                        det.declarations.to_string(),
                        det.mean_latency()
                            .map(|d| format!("{:.1}", d.as_secs_f64() * 1e3))
                            .unwrap_or_else(|| "-".into()),
                        det.false_kills.to_string(),
                        det.gate_timeouts.to_string(),
                        (r.digests == clean.digests).to_string(),
                    ]);
                }
                Err(e) => {
                    t.row(vec![
                        format!("{phi:.0}"),
                        label.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("false ({e})"),
                    ]);
                }
            }
        }
    }
    t
}

/// EXP1: schedule exploration — the TDI order-insensitivity claim
/// checked over every legal delivery interleaving of an
/// `MPI_ANY_SOURCE` gather workload, now with **fault choice points**
/// (crash, crash+wipe, forced detector verdicts) and **DPOR**
/// sleep-set reduction. Brute-force rows enumerate the raw tree; dpor
/// rows cover the same outcomes in a fraction of the executions
/// (`reduction` = brute schedules / dpor executions, only reported
/// when the brute row exhausted). The final row injects an
/// order-sensitive fold to demonstrate the explorer detects order
/// dependence when it exists — its shrunk counterexample is written to
/// `results/explore_counterexample.case` for `--replay`.
pub fn explore_table(quick: bool) -> Table {
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
        max_schedules: if quick { 40_000 } else { 500_000 },
        samples: if quick { 32 } else { 256 },
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
            if f.suspects > 0 {
                parts.push(format!("suspect x{}", f.suspects));
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
    // digest censuses (a census mismatch surfaces as `agree=false`
    // downstream in CI via the test suite's census pin).
    let rounds = if quick { 2 } else { 3 };
    let w3 = Workload::rotating_gather(3, rounds);
    for protocol in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(4)] {
        let cfg = ExploreConfig { protocol, ..base };
        let label = format!("gather n=3 r={rounds}");
        let brute = explore_exhaustive(&w3, &cfg);
        row(&label, "brute", &cfg, &brute, None);
        let dpor = explore_dpor(&w3, &cfg);
        row(&label, "dpor", &cfg, &dpor, Some(&brute));
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

    // Crash + storage wipe with checkpointing on: the victim falls
    // back past its wiped checkpoint and replays under survivor log
    // resends (log_gc_lag keeps one generation resendable).
    {
        let cfg = ExploreConfig {
            faults: FaultBudget {
                wipes: 1,
                ..FaultBudget::none()
            },
            ..base
        };
        let ww = Workload::rotating_gather(3, 2).with_checkpoints(2);
        let dpor = explore_dpor(&ww, &cfg);
        row("gather n=3 r=2 ckpt2", "dpor", &cfg, &dpor, None);
    }

    // Crash composed with a detector verdict (true kill or false
    // suspicion of a survivor) — two faults per schedule, so the
    // one-round gather keeps the product of positions enumerable.
    {
        let cfg = ExploreConfig {
            faults: FaultBudget {
                crashes: 1,
                suspects: 1,
                ..FaultBudget::none()
            },
            ..base
        };
        let wp = Workload::rotating_gather(3, 1);
        let dpor = explore_dpor(&wp, &cfg);
        row("gather n=3 r=1", "dpor", &cfg, &dpor, None);
    }

    // Exhaustive n=4 single-crash matrix: one crash, any target, any
    // position, all downstream interleavings. Only application frames
    // are choice points (protocol traffic flushes eagerly), which is
    // what keeps this enumerable; see DESIGN.md §12.
    {
        let cfg = ExploreConfig {
            faults: FaultBudget {
                crashes: 1,
                ..FaultBudget::none()
            },
            ..base
        };
        let w4 = Workload::rotating_gather(4, 1);
        let dpor = explore_dpor(&w4, &cfg);
        row("gather n=4 r=1", "dpor", &cfg, &dpor, None);
    }

    // Sampled fault-free n=4 — the tree is too large to enumerate.
    {
        let w = Workload::rotating_gather(4, if quick { 2 } else { 4 });
        let report = explore_sampled(&w, &base);
        row("gather n=4", "sampled", &base, &report, None);
    }

    // The injected mutation: same workload, order-sensitive fold. The
    // explorer must disagree; its shrunk trace becomes a replayable
    // counterexample case file.
    {
        let mut w = Workload::rotating_gather(3, 2);
        w.fold = Fold::OrderSensitive;
        let report = explore_exhaustive(&w, &base);
        if let Some(div) = &report.divergence {
            let mut case = ReplayCase::gather(3, 2, div.shrunk.clone());
            case.fold = Fold::OrderSensitive;
            let dir = std::path::Path::new("results");
            if std::fs::create_dir_all(dir).is_ok() {
                let path = dir.join("explore_counterexample.case");
                if std::fs::write(&path, case.to_string()).is_ok() {
                    println!(
                        "(saved {} — replay with `reproduce -- explore --replay {}`)",
                        path.display(),
                        path.display()
                    );
                }
            }
        }
        row(
            "gather n=3 ORDER-SENSITIVE (expect disagree)",
            "brute",
            &base,
            &report,
            None,
        );
    }
    t
}

/// LS1 (durable log shipping): recovery latency and data integrity
/// across a backend-outage duration sweep × restore-path sweep.
///
/// Paths: `kill` keeps the local store (ordinary ROLLBACK recovery,
/// the remote is passive); `wipe` loses the node's store and restores
/// the newest certified generation from the remote; `wipe+corrupt`
/// additionally tears the newest remote upload, forcing the restore to
/// fall back one generation. Outages are windows in storage-operation
/// space ([`StorageChaos::with_outage`]); retries burn through them,
/// so `short`/`long` translate to breaker-open windows of growing
/// duration. `data_loss` must read `none` in every row: the digests of
/// every faulted run equal the fault-free run's.
pub fn log_ship_table(quick: bool) -> Table {
    let mut t = Table::new(
        "LS1 — Durable log shipping: outage duration × restore path (ring, 4 ranks)",
        &[
            "outage",
            "path",
            "wall_ms",
            "restore_ms",
            "gens_skipped",
            "shipped",
            "spill_peak_B",
            "shed",
            "degraded_ms",
            "resyncs",
            "data_loss",
        ],
    );
    let n = 4;
    let rounds = if quick { 18 } else { 30 };
    let kill_step = rounds / 2;
    let app = RingApp {
        rounds,
        payload: 64,
    };
    let base = |seed: u64, outage: Option<(u64, u64)>| {
        let mut chaos = StorageChaos::seeded(seed);
        if let Some((from, to)) = outage {
            chaos = chaos.with_outage(from, to);
        }
        let (remote, _) = RemoteConfig::faulty(chaos);
        let repl = ReplicatorConfig {
            retry_initial: Duration::from_micros(200),
            retry_cap: Duration::from_millis(2),
            breaker_cooldown: Duration::from_millis(2),
            spill_limit_bytes: 32 * 1024,
            ..ReplicatorConfig::default()
        };
        let mut c = ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(3)),
        )
        .with_remote(remote.with_replicator(repl));
        c.max_wall = Duration::from_secs(120);
        c
    };
    let clean = Cluster::run(&base(1, None), app).expect("clean run").digests;
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
            let r = Cluster::run(&cfg, app).expect("log-ship run recovers");
            let stats = r.replicator.clone().unwrap_or_default();
            t.row(vec![
                outage_label.to_string(),
                path_label.to_string(),
                format!("{:.1}", r.wall.as_secs_f64() * 1e3),
                format!("{:.2}", stats.restore_latency.as_secs_f64() * 1e3),
                stats.generations_skipped.to_string(),
                stats.objects_shipped.to_string(),
                stats.spill_peak_bytes.to_string(),
                stats.spill_shed.to_string(),
                format!("{:.1}", stats.degraded.as_secs_f64() * 1e3),
                stats.resyncs.to_string(),
                if r.digests == clean { "none" } else { "LOST" }.to_string(),
            ]);
        }
    }
    t
}

/// Real-clock cost of one send + one deliver at the tracking layer —
/// the cluster runs use a virtual clock (whose tracking-time counters
/// are deterministically zero), so Fig. 7's metric is measured here as
/// a standalone protocol-level microbench: a ring neighbor exchanging
/// `iters` messages with its two peers, timed end to end.
fn tracking_us_per_msg(kind: ProtocolKind, n: usize, iters: u64) -> f64 {
    use lclog_core::make_protocol;
    let mut left = make_protocol(kind, n - 1, n);
    let mut me = make_protocol(kind, 0, n);
    let mut right = make_protocol(kind, 1, n);
    let t0 = std::time::Instant::now();
    for i in 1..=iters {
        let out = me.on_send(1, i);
        right
            .on_deliver(0, i, &out.piggyback)
            .expect("ring deliver");
        let inbound = left.on_send(0, i);
        me.on_deliver(n - 1, i, &inbound.piggyback)
            .expect("ring deliver");
    }
    // Each iteration is one send + one deliver on `me` (the peers'
    // halves are the same work, counted once).
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// SC1: piggyback-bytes × tracking-time scaling, extending Fig. 6/7
/// beyond the paper's n = 32 ceiling. Every run uses the task engine
/// (ranks as scheduler tasks driven by one thread, held fabric, virtual
/// clock) on the neighbor-exchange ring, sweeping n with dense TDI
/// against sparse delta tracking (TDI-S). Each (n, protocol) cell runs
/// fault-free and again with rank 1 killed mid-run; `digest_ok` is the
/// recovery cross-check (faulty digests == clean digests). Dense TDI's
/// per-send piggyback grows linearly in n; TDI-S stays near-constant —
/// that gap is the point of the sparse codec. `track_us` comes from a
/// real-clock protocol-level microbench (the cluster's virtual-clock
/// tracking counters read zero by design).
pub fn scaling_table(quick: bool) -> Table {
    let mut t = Table::new(
        "SC1 — Scaling: piggyback bytes × tracking time, dense TDI vs TDI-S (task engine)",
        &[
            "n",
            "protocol",
            "bytes/send",
            "ids/send",
            "track_us",
            "delta",
            "full",
            "resyncs",
            "wall_ms",
            "kills",
            "digest_ok",
        ],
    );
    let ns: &[usize] = if quick {
        &[32, 128]
    } else {
        &[32, 128, 512, 1024]
    };
    let rounds: u64 = if quick { 6 } else { 16 };
    let kill_step = rounds / 2;
    let app = TaskRing {
        rounds,
        payload: 64,
    };
    for &n in ns {
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
            let track_us = tracking_us_per_msg(kind, n, if quick { 2_000 } else { 20_000 });
            t.row(vec![
                n.to_string(),
                kind.to_string(),
                format!("{:.1}", clean.stats.avg_bytes_per_msg()),
                format!("{:.1}", clean.stats.avg_ids_per_msg()),
                format!("{:.3}", track_us),
                clean.stats.delta_frames.to_string(),
                clean.stats.full_frames.to_string(),
                faulty.stats.resync_requests.to_string(),
                format!("{:.1}", clean.wall.as_secs_f64() * 1e3),
                faulty.kills.to_string(),
                digest_ok.to_string(),
            ]);
        }
    }
    t
}

/// HP1 (kernel hot path): the digest-parity gate that guards the
/// data plane — clean vs. mid-run kill, across both engines (threaded
/// ranks, ranks-as-tasks) and both tracking protocols (TDI, TDI-S). A
/// `false` in `digest_ok` means the data plane broke exactly-once
/// recovery. What the hot path costs is `lcbench`'s to say
/// (`pair_stream`, `pair_pingpong`, `lu_threads`).
pub fn hotpath_table(quick: bool) -> Table {
    let mut t = Table::new(
        "HP1 — Kernel hot path: digest parity through a mid-run kill",
        &["cell", "engine", "protocol", "kills", "digest_ok"],
    );
    // Digest parity: the data plane must reproduce fault-free
    // digests through a mid-run kill on every engine × protocol cell.
    let class = Class::Test;
    let steps = total_steps(Benchmark::Lu, class);
    let ckpt = (steps / 6).max(2);
    let rounds: u64 = if quick { 6 } else { 16 };
    for kind in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(32)] {
        let threaded = |kill: bool| {
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
        let clean = threaded(false);
        let faulty = threaded(true);
        t.row(vec![
            "parity_kill".to_string(),
            "threads".to_string(),
            kind.to_string(),
            faulty.kills.to_string(),
            (faulty.kills >= 1 && faulty.digests == clean.digests).to_string(),
        ]);
        let tasks = |kill: bool| {
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
        let clean = tasks(false);
        let faulty = tasks(true);
        t.row(vec![
            "parity_kill".to_string(),
            "tasks".to_string(),
            kind.to_string(),
            faulty.kills.to_string(),
            (faulty.kills >= 1 && faulty.digests == clean.digests).to_string(),
        ]);
    }
    t
}

/// SV1 (persistent service): J concurrent tenant jobs multiplexed
/// onto one warm `lclog-serve` runtime, driven through the real TCP
/// front end. Faults escalate across rows (none → process kill → node
/// loss → node loss with a torn upload); the faulted tenant must land
/// on its fault-free digests through the service's shared
/// storage/replication plane, and every co-resident tenant must be
/// byte-identical to its own fault-free run with zero kills — the
/// zero-interference gate.
pub fn serve_table(quick: bool) -> Table {
    use lclog_serve::{Client, JobSpec, Service, ServiceConfig};
    use std::time::Instant;

    let mut t = Table::new(
        "SV1 — persistent service: concurrent tenants × mid-job fault",
        &[
            "jobs",
            "fault",
            "wall_ms",
            "jobs_per_s",
            "faulted_wall_ms",
            "kills",
            "digests_ok",
            "co_resident_ok",
        ],
    );
    let rounds: u64 = if quick { 8 } else { 16 };
    let job_counts: &[usize] = if quick { &[4] } else { &[4, 8] };
    let protos = ["tdi", "tdis", "tag"];
    let kinds = ["ring", "pairs"];
    let parse = |s: &str| JobSpec::parse(s.split_whitespace()).expect("SV1 spec parses");
    for &jobs in job_counts {
        // The tenant mix is fixed across the fault column so rows are
        // comparable; only the injected fault changes.
        let specs: Vec<String> = (0..jobs)
            .map(|i| {
                format!(
                    "kind={} n={} proto={} rounds={rounds}",
                    kinds[i % kinds.len()],
                    4 + i % 3,
                    protos[i % protos.len()],
                )
            })
            .collect();
        let expected: Vec<String> = specs
            .iter()
            .map(|s| {
                let spec = parse(s);
                run_tasks(&spec.cluster_config(0), spec.workload())
                    .expect("SV1 fault-free baseline")
                    .digests
                    .iter()
                    .map(|d| format!("{d:016x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        for fault in ["none", "kill", "kill_wipe", "kill_wipe_corrupt"] {
            let victim_job = jobs / 2;
            let service = Service::start(ServiceConfig::default());
            let addr = service.listen("127.0.0.1:0").expect("SV1 bind loopback");
            let mut client = Client::connect(addr).expect("SV1 connect");
            let start = Instant::now();
            let ids: Vec<String> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let fault_args = if i == victim_job {
                        match fault {
                            "kill" => format!(" kill=1@{}", rounds / 2),
                            "kill_wipe" => format!(" kill=1@{} wipe=on", rounds / 2),
                            "kill_wipe_corrupt" => {
                                format!(" kill=1@{} corrupt=on", rounds / 2)
                            }
                            _ => String::new(),
                        }
                    } else {
                        String::new()
                    };
                    client
                        .request_field(&format!("SUBMIT {s}{fault_args}"), "id")
                        .expect("SV1 submit")
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(300);
            for id in &ids {
                loop {
                    let status = client
                        .request(&format!("STATUS {id}"))
                        .expect("SV1 status");
                    if status.contains("state=finished") {
                        break;
                    }
                    assert!(
                        !status.contains("state=failed") && Instant::now() < deadline,
                        "SV1 job wedged: {status}"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let wall = start.elapsed();
            let mut digests_ok = true;
            let mut co_resident_ok = true;
            let mut kills = 0u64;
            let mut faulted_wall_ms = "-".to_string();
            for (i, id) in ids.iter().enumerate() {
                let digests = client
                    .request(&format!("DIGESTS {id}"))
                    .expect("SV1 digests");
                let ok = digests.ends_with(&expected[i]);
                let job_kills: u64 = client
                    .request_field(&format!("REPORT {id}"), "kills")
                    .expect("SV1 report")
                    .parse()
                    .unwrap_or(0);
                kills += job_kills;
                if i == victim_job {
                    digests_ok &= ok;
                    faulted_wall_ms = client
                        .request_field(&format!("REPORT {id}"), "wall_ms")
                        .expect("SV1 wall");
                } else {
                    // A co-resident tenant diverging or dying is the
                    // interference the service must never exhibit.
                    co_resident_ok &= ok && job_kills == 0;
                    digests_ok &= ok;
                }
            }
            let (_, synced) = service.drain(Duration::from_secs(30));
            service.shutdown();
            t.row(vec![
                jobs.to_string(),
                fault.to_string(),
                wall.as_millis().to_string(),
                format!("{:.1}", jobs as f64 / wall.as_secs_f64()),
                faulted_wall_ms,
                kills.to_string(),
                (digests_ok && synced).to_string(),
                co_resident_ok.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn chaos_table_keeps_digests_and_counts_faults() {
        let t = ablation_chaos(2);
        assert_eq!(t.len(), 9, "3 protocols x 3 loss rates");
        for row in t.rows() {
            assert_eq!(row.last().map(String::as_str), Some("true"), "{row:?}");
            // The kill fired on every chaotic run.
            assert_eq!(row[8], "1", "{row:?}");
        }
        // The lossy cells actually exercised the retransmit path.
        let lossy: Vec<_> = t.rows().iter().filter(|r| r[1] != "0").collect();
        assert!(lossy.iter().all(|r| r[4].parse::<u64>().unwrap() > 0), "retransmits recorded");
        assert!(lossy.iter().all(|r| r[5].parse::<u64>().unwrap() > 0), "drops recorded");
    }

    #[test]
    fn data_plane_table_shows_zero_copy_resend_paths() {
        let t = data_plane_table(2);
        assert_eq!(t.len(), 6, "3 protocols x clean/chaos");
        for row in t.rows() {
            assert_eq!(row.last().map(String::as_str), Some("true"), "{row:?}");
            let frames: u64 = row[2].parse().unwrap();
            let copies: u64 = row[4].parse().unwrap();
            assert!(copies <= frames, "one payload pass per built frame: {row:?}");
            if row[1] == "clean" {
                // No faults → nothing resent from the sender log.
                // Timeout retransmits (row 7) are NOT asserted zero:
                // on a starved CPU a receiver thread can sit
                // descheduled past the retransmit deadline, so a
                // clean run may legally retransmit a few frames (the
                // receiver dedups them). Asserting 0 here made the
                // test flake under load.
                assert_eq!(row[6], "0", "{row:?}");
            } else {
                // Chaos exercised at least one of the zero-copy
                // resend paths (which one is timing-dependent: fast
                // runs recover via log resends before a retransmit
                // timer fires).
                let zc: u64 = row[6].parse().unwrap();
                let retx: u64 = row[7].parse().unwrap();
                assert!(zc + retx > 0, "{row:?}");
            }
        }
    }

    #[test]
    fn log_ship_table_loses_no_data_on_any_path() {
        let t = log_ship_table(true);
        assert_eq!(t.len(), 9, "3 outages x 3 restore paths");
        for row in t.rows() {
            assert_eq!(row.last().map(String::as_str), Some("none"), "{row:?}");
            match row[1].as_str() {
                // Node-loss paths must actually exercise the restore.
                "wipe" | "wipe+corrupt" => {
                    let restore_ms: f64 = row[3].parse().unwrap();
                    assert!(restore_ms > 0.0, "{row:?}");
                }
                _ => {}
            }
            if row[1] == "wipe+corrupt" {
                let skipped: u32 = row[4].parse().unwrap();
                assert!(skipped >= 1, "torn upload must be skipped: {row:?}");
            }
        }
        // The outage rows saw a degraded window and re-synced after.
        let outage_rows: Vec<_> = t.rows().iter().filter(|r| r[0] != "none").collect();
        assert!(
            outage_rows
                .iter()
                .any(|r| r[9].parse::<u32>().unwrap() >= 1),
            "some outage row must record a resync"
        );
    }

    #[test]
    fn total_steps_matches_phase_structure() {
        let (_, _, gnz, iters) = Class::Test.lu_dims();
        assert_eq!(total_steps(Benchmark::Lu, Class::Test), iters * (2 * gnz as u64 + 1));
        assert_eq!(total_steps(Benchmark::Bt, Class::Test), Class::Test.adi_dims().1 * 4);
        assert_eq!(total_steps(Benchmark::Sp, Class::Test), Class::Test.adi_dims().1 * 6);
    }
}
