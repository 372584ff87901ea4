//! The seven workloads: what each one runs, how big it is, and why it
//! is there. Sizes are fixed per workload, so that every count the
//! benchmark reports repeats; `--seconds` only decides how many timed
//! passes a run makes (never fewer than [`MIN_PASSES`]).

use crate::floors::{self, Floor};
use crate::rig::{PairRig, World};
use crate::ring::Ring;
use crate::stats::{median, percentile, tail_percentile, Summary};
use crate::trace::{Off, Recorder, SpanId, SpanLog, Tracer};
use lclog_core::{ProtocolKind, TrackingStats};
use lclog_npb::{run_benchmark, Benchmark, Class};
use lclog_runtime::{
    run_tasks, CheckpointPolicy, ClusterConfig, DataPlaneStats, EngineMode, RunConfig, RunReport,
    TaskJob,
};
use std::time::{Duration, Instant};

/// Timed passes every run makes at the least.
pub const MIN_PASSES: usize = 5;
/// Set-ups (build + warm-up) every run makes; `setup_s` is their median.
const SETUPS: usize = 5;

/// What a workload's timed pass consists of.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Rank 0 streams `msgs` messages to rank 1 in windows.
    Stream { msgs: u64 },
    /// `rounds` round trips, one message in flight.
    PingPong { rounds: u64 },
    /// Fresh rig, `prefill` messages 1 → 0 into rank 1's log, rank 1
    /// checkpoints, delivers `backlog` more, is killed and recovers.
    Recover { prefill: u64, backlog: u64 },
    /// One job of the neighbour-exchange ring on the tasks engine.
    Ring { rounds: u64 },
    /// `runs` back-to-back NPB-LU runs on the thread engine.
    Lu { runs: u64 },
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub world: World,
    pub kind: Kind,
    /// Round trips of one segment of the latency probe, run after every
    /// pass (0 for the workload whose pass is itself a ping-pong).
    pub probe_rounds: u64,
    /// `(prefill, backlog)` of the recovery probe, run after every pass
    /// (zeros for the workload whose pass is itself a recovery).
    pub probe_recover: (u64, u64),
}

const fn world(
    n: usize,
    kind: ProtocolKind,
    payload: usize,
    window: u64,
    ckpt_every: u64,
) -> World {
    World {
        n,
        kind,
        payload,
        window,
        ckpt_every,
    }
}

const TDI: ProtocolKind = ProtocolKind::Tdi;

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "pair_stream",
        why: "whole send-deliver-ack-log-GC cycle at its per-message fixed cost, batching free to help (256 B, window 64, n=2)",
        world: world(2, TDI, 256, 64, 1024),
        kind: Kind::Stream { msgs: 100_000 },
        probe_rounds: 10_000,
        probe_recover: (1024, 1024),
    },
    Spec {
        name: "pair_pingpong",
        why: "same layers with one message in flight: batching, ack coalescing and deferred drains cannot amortise, so deferral shows as a loss",
        world: world(2, TDI, 256, 1, 1024),
        kind: Kind::PingPong { rounds: 50_000 },
        probe_rounds: 0,
        probe_recover: (1024, 1024),
    },
    Spec {
        name: "pair_bulk",
        why: "same layers, bytes-dominated (CRC, framing, copies, log memory): 64 KiB messages, the p2p-large class; tracking is about 0 here",
        world: world(2, TDI, 64 * 1024, 16, 64),
        kind: Kind::Stream { msgs: 2_000 },
        probe_rounds: 400,
        probe_recover: (16, 16),
    },
    Spec {
        name: "ring_wide_tdi",
        why: "everything O(n) per call (dense piggyback, per-peer scans in tick, checkpoint and deliver, the sweep loop) dominates at n=512 and is absent at n=2",
        world: world(512, TDI, 64, 64, 1024),
        kind: Kind::Ring { rounds: 16 },
        probe_rounds: 4_000,
        probe_recover: (256, 1024),
    },
    Spec {
        name: "ring_wide_tdis",
        why: "identical to ring_wide_tdi but TDI-S(32): isolates the sparse piggyback codec; digests must equal the dense run's",
        world: world(512, ProtocolKind::TdiSparse(32), 64, 64, 1024),
        kind: Kind::Ring { rounds: 16 },
        probe_rounds: 4_000,
        probe_recover: (256, 1024),
    },
    Spec {
        name: "lu_threads",
        why: "the paper's own workload (NPB-LU, n=4) on the thread engine: compute dilutes logging, so hot-path changes should not move it",
        world: world(4, TDI, 160, 16, 1024),
        kind: Kind::Lu { runs: 8 },
        probe_rounds: 10_000,
        probe_recover: (1024, 1024),
    },
    Spec {
        name: "pair_recover",
        why: "rolling forward: stable load, restore, ROLLBACK/RESPONSE, log resend, dedup and the depend_interval gate; almost none of the fault-free path",
        world: world(2, TDI, 256, 64, 1024),
        kind: Kind::Recover {
            prefill: 16_384,
            backlog: 100_000,
        },
        probe_rounds: 10_000,
        probe_recover: (0, 0),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The same workload at a fraction of the size, for `check`.
    pub fn shrunk(&self) -> Spec {
        let mut world = self.world;
        let kind = match self.kind {
            Kind::Stream { msgs } => Kind::Stream { msgs: msgs / 5 },
            Kind::PingPong { rounds } => Kind::PingPong { rounds: rounds / 5 },
            Kind::Recover { prefill, backlog } => Kind::Recover {
                prefill: prefill / 16,
                backlog: backlog / 20,
            },
            Kind::Ring { rounds } => {
                world.n /= 8;
                Kind::Ring { rounds }
            }
            Kind::Lu { .. } => Kind::Lu { runs: 1 },
        };
        Spec {
            name: self.name,
            why: self.why,
            world,
            kind,
            probe_rounds: self.probe_rounds / 4,
            probe_recover: (self.probe_recover.0 / 4, self.probe_recover.1 / 4),
        }
    }
}

/// The end-to-end metrics in reporting order: name, unit, whether
/// higher is better, and the bound as a share of the parent's median.
///
/// The times all carry the largest bound the driver allows: on the
/// shared two-vCPU host this was written on, ten runs of one commit
/// spread (inter-quartile range over median) by up to 17 %, and a
/// bound has to clear its metric's own spread with room to spare. The
/// round trips' p99 is printed but not listed: it sits on the steepest
/// part of the distribution and spread by 9–27 % there, which no
/// admissible bound clears.
pub const END_TO_END: [(&str, &str, bool, f64); 10] = [
    ("setup_s", "s", false, 0.25),
    ("wall_ms", "ms", false, 0.25),
    ("msgs_per_s", "1/s", true, 0.25),
    ("mb_per_s", "MB/s", true, 0.25),
    ("rtt_p50_us", "us", false, 0.25),
    ("recovery_ms", "ms", false, 0.25),
    ("piggyback_bytes_per_msg", "B", false, 0.01),
    ("wire_bytes_per_msg", "B", false, 0.05),
    ("peak_rss_mb", "MiB", false, 0.15),
    ("ok_share", "ratio", true, 0.0),
];

/// One untraced run's result.
pub struct EndToEnd {
    /// One summary per [`END_TO_END`] entry, in that order.
    pub metrics: Vec<Summary>,
    /// Round trips' p99 in µs, median across passes (printed, not gated).
    pub rtt_p99_us: f64,
    /// `(percentile, µs)`: the highest percentile with at least ten
    /// round trips beyond it in a pass (printed, not gated).
    pub rtt_tail_us: (f64, f64),
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Digest of what the first [`MIN_PASSES`] passes delivered: the
    /// value that repeats for a seed however long the run.
    pub digest: u64,
}

/// Per-pass samples of an untraced run.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    msgs_per_s: Vec<f64>,
    mb_per_s: Vec<f64>,
    piggyback: Vec<f64>,
    wire: Vec<f64>,
    rtt_p50_us: Vec<f64>,
    rtt_p99_us: Vec<f64>,
    /// The furthest tail percentile a pass's sample supports (every
    /// pass has the same number of round trips), and its value per pass.
    rtt_tail_pct: f64,
    rtt_tail_us: Vec<f64>,
    recovery_ms: Vec<f64>,
    /// Digest of each pass that repeats the same inputs from scratch.
    digests: Vec<u64>,
    /// Digest of a continuing rig's deliveries so far.
    running_digest: u64,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn throughput(&mut self, msgs: u64, payload_bytes: u64, secs: f64) {
        self.wall_ms.push(secs * 1e3);
        self.msgs_per_s.push(msgs as f64 / secs);
        self.mb_per_s.push(payload_bytes as f64 / 1e6 / secs);
    }

    fn round_trips(&mut self, samples: &mut [u32]) {
        samples.sort_unstable();
        self.rtt_p50_us
            .push(f64::from(percentile(samples, 50.0)) / 1e3);
        self.rtt_p99_us
            .push(f64::from(percentile(samples, 99.0)) / 1e3);
        let (pct, ns) = tail_percentile(samples);
        self.rtt_tail_pct = pct;
        self.rtt_tail_us.push(f64::from(ns) / 1e3);
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Pair-rig passes
// ---------------------------------------------------------------------

/// Piggyback bytes per send and app messages sent, over both kernels.
fn pair_tracking(rig: &PairRig) -> TrackingStats {
    let mut stats = rig.kernel(0).snapshot().stats;
    stats.merge(&rig.kernel(1).snapshot().stats);
    stats
}

/// One timed pass of a pair workload on `rig`. A recovery needs a
/// fresh pair each time, so that workload's rig is rebuilt first
/// (untimed: its `wall_ms` is prefill + deliveries + recovery).
fn pair_pass(spec: &Spec, rig: &mut PairRig, seed: u64, s: &mut Samples) {
    if let Kind::Recover { .. } = spec.kind {
        *rig = PairRig::new(spec.world, seed);
    }
    let (tally, tracking) = (rig.tally, pair_tracking(rig));
    let start = Instant::now();
    match spec.kind {
        Kind::Stream { msgs } => {
            rig.stream(0, msgs, true, &mut Off);
            s.attempted += msgs;
        }
        Kind::PingPong { rounds } => {
            let mut rt = Vec::with_capacity(rounds as usize);
            rig.pingpong(rounds, &mut rt, &mut Off);
            s.round_trips(&mut rt);
            s.attempted += 2 * rounds;
        }
        Kind::Recover { prefill, backlog } => {
            rig.prefill_and_checkpoint(prefill, &mut Off);
            rig.stream(0, backlog, false, &mut Off);
            s.recovery_ms.push(rig.kill_and_recover(&mut Off));
            s.attempted += prefill + 2 * backlog;
            // Every recovery pass starts from the same fresh pair.
            s.digests.push(rig.tally.digest);
        }
        Kind::Ring { .. } | Kind::Lu { .. } => unreachable!("engine workloads have no pair pass"),
    }
    let wall = secs(start);
    let after = pair_tracking(rig);
    let delivered = rig.tally.delivered - tally.delivered;
    s.throughput(
        delivered,
        rig.tally.payload_bytes - tally.payload_bytes,
        wall,
    );
    s.piggyback.push(
        (after.piggyback_bytes - tracking.piggyback_bytes) as f64
            / (after.sends - tracking.sends) as f64,
    );
    s.wire
        .push((rig.tally.wire_bytes - tally.wire_bytes) as f64 / delivered as f64);
    s.failed += rig.tally.failed - tally.failed;
    s.running_digest = rig.tally.digest;
}

/// Build a rig and warm it: one pass (a quarter of the long recovery
/// pass, which is rebuilt from scratch every time anyway).
fn pair_setup(spec: &Spec, seed: u64) -> PairRig {
    let mut rig = PairRig::new(spec.world, seed);
    match spec.kind {
        Kind::Stream { msgs } => rig.stream(0, msgs, true, &mut Off),
        Kind::PingPong { rounds } => rig.pingpong(rounds, &mut Vec::new(), &mut Off),
        Kind::Recover { prefill, backlog } => {
            rig.prefill_and_checkpoint(prefill / 4, &mut Off);
            rig.stream(0, backlog / 4, false, &mut Off);
            rig.kill_and_recover(&mut Off);
        }
        Kind::Ring { .. } | Kind::Lu { .. } => unreachable!("engine workloads have no pair rig"),
    }
    rig
}

// ---------------------------------------------------------------------
// Engine passes
// ---------------------------------------------------------------------

fn ring_cfg(world: &World) -> ClusterConfig {
    ClusterConfig::new(
        world.n,
        RunConfig::new(world.kind)
            .with_checkpoint(CheckpointPolicy::EverySteps(8))
            .with_engine(EngineMode::Tasks { workers: 2 }),
    )
    .with_max_wall(Duration::from_secs(120))
}

fn lu_cfg(world: &World) -> ClusterConfig {
    ClusterConfig::new(
        world.n,
        RunConfig::new(world.kind).with_checkpoint(CheckpointPolicy::EverySteps(8)),
    )
}

/// Digests of NPB-LU class Small on four ranks. LU takes no input from
/// the seed; its residual digests are a constant of the program.
const LU_SMALL_N4_DIGESTS: [u64; 4] = [
    0x223a_3d96_5dc9_be4c,
    0x9358_51db_455d_c58a,
    0xe73b_393e_6dd2_4a96,
    0x37ed_c4e8_102f_53ad,
];

/// Failures visible in an engine run's report: wrong digests, lost or
/// surplus messages, an unplanned crash.
fn report_failures(report: &RunReport, digests: &[u64], msgs: u64) -> u64 {
    u64::from(report.digests != digests)
        + report.stats.delivers.abs_diff(msgs)
        + report.stats.sends.abs_diff(msgs)
        + u64::from(report.kills)
}

fn ring_pass(spec: &Spec, ring: &Ring, s: &mut Samples) {
    let Kind::Ring { rounds } = spec.kind else {
        unreachable!()
    };
    let msgs = spec.world.n as u64 * rounds;
    s.attempted += msgs;
    let start = Instant::now();
    let report = run_tasks(&ring_cfg(&spec.world), ring.clone());
    let wall = secs(start);
    match report {
        Ok(report) => {
            s.failed += report_failures(&report, &ring.reference_digests(spec.world.n), msgs);
            s.throughput(
                report.stats.delivers,
                report.stats.delivers * spec.world.payload as u64,
                wall,
            );
            s.piggyback.push(report.stats.avg_bytes_per_msg());
            s.wire
                .push(report.net_bytes as f64 / report.stats.delivers.max(1) as f64);
            s.digests
                .push(report.digests.iter().fold(0, |d, &x| d.rotate_left(7) ^ x));
        }
        Err(_) => s.failed += msgs,
    }
}

/// Messages one LU run delivers (class Small, four ranks).
const LU_MSGS: u64 = 612;

fn lu_pass(spec: &Spec, s: &mut Samples) {
    let Kind::Lu { runs } = spec.kind else {
        unreachable!()
    };
    let cfg = lu_cfg(&spec.world);
    let mut walls = Vec::with_capacity(runs as usize);
    let (mut delivered, mut inner_bytes, mut net_bytes, mut piggyback) = (0, 0, 0, 0);
    let start = Instant::now();
    for _ in 0..runs {
        let run = Instant::now();
        let report = run_benchmark(Benchmark::Lu, Class::Small, &cfg);
        walls.push(secs(run) * 1e3);
        s.attempted += LU_MSGS;
        match report {
            Ok(report) => {
                s.failed += report_failures(&report, &LU_SMALL_N4_DIGESTS, LU_MSGS);
                delivered += report.stats.delivers;
                inner_bytes += report.data_plane.payload_bytes_copied;
                net_bytes += report.net_bytes;
                piggyback += report.stats.piggyback_bytes;
                s.digests
                    .push(report.digests.iter().fold(0, |d, &x| d.rotate_left(7) ^ x));
            }
            Err(_) => s.failed += LU_MSGS,
        }
    }
    let total = secs(start);
    // The pass's wall is the median single run, its rates are over the
    // whole pass.
    s.wall_ms.push(median(&walls));
    s.msgs_per_s.push(delivered as f64 / total);
    s.mb_per_s.push(inner_bytes as f64 / 1e6 / total);
    s.piggyback.push(piggyback as f64 / delivered.max(1) as f64);
    s.wire.push(net_bytes as f64 / delivered.max(1) as f64);
}

// ---------------------------------------------------------------------
// Probes: the ping-pong and recovery cycles in the workload's world
// ---------------------------------------------------------------------

/// One segment of the latency probe on `rig`: `probe_rounds` round
/// trips, one p50 and one p99.
fn rtt_segment(spec: &Spec, rig: &mut PairRig, s: &mut Samples) {
    let mut rt = Vec::with_capacity(spec.probe_rounds as usize);
    rig.pingpong(spec.probe_rounds, &mut rt, &mut Off);
    s.round_trips(&mut rt);
    s.attempted += 2 * spec.probe_rounds;
}

fn recover_probe<T: Tracer>(spec: &Spec, seed: u64, repeats: usize, s: &mut Samples, t: &mut T) {
    let (prefill, backlog) = spec.probe_recover;
    for _ in 0..repeats {
        let mut rig = PairRig::new(spec.world, seed);
        rig.prefill_and_checkpoint(prefill, t);
        rig.stream(0, backlog, false, t);
        s.recovery_ms.push(rig.kill_and_recover(t));
        s.attempted += prefill + 2 * backlog;
        s.failed += rig.tally.failed;
    }
}

// ---------------------------------------------------------------------
// The untraced run
// ---------------------------------------------------------------------

/// Build the workload and warm it up, once: a rig plus a pass, or a
/// job construction plus a quarter-length job, or a few LU runs.
fn set_up(spec: &Spec, seed: u64, failed: &mut u64) -> Option<PairRig> {
    match spec.kind {
        Kind::Ring { rounds } => {
            // Job construction is the set-up a user of the engine pays.
            let warm = Ring::new(rounds / 4, spec.world.payload, seed);
            let cfg = ring_cfg(&spec.world);
            *failed += u64::from(TaskJob::new(&cfg, warm.clone()).is_err());
            *failed += u64::from(run_tasks(&cfg, warm).is_err());
            None
        }
        Kind::Lu { runs } => {
            for _ in 0..(runs / 2).max(1) {
                let ok = run_benchmark(Benchmark::Lu, Class::Small, &lu_cfg(&spec.world)).is_ok();
                *failed += u64::from(!ok);
            }
            None
        }
        _ => {
            let rig = pair_setup(spec, seed);
            *failed += rig.tally.failed;
            Some(rig)
        }
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> EndToEnd {
    let mut s = Samples::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        rig = set_up(spec, seed, &mut s.failed);
        setups.push(secs(start));
    }
    let ring = match spec.kind {
        Kind::Ring { rounds } => Some(Ring::new(rounds, spec.world.payload, seed)),
        _ => None,
    };

    let mut probe = (spec.probe_rounds > 0).then(|| {
        let mut rig = PairRig::new(spec.world, seed);
        rig.pingpong(spec.probe_rounds, &mut Vec::new(), &mut Off);
        rig
    });

    // Every pass is followed by one segment of each probe, so that the
    // probes' samples spread over the whole run like the passes do: on
    // a shared host, speed shifts for seconds at a time, and a median
    // only shrugs that off when its samples straddle the shifts.
    let measuring = Instant::now();
    let (mut passes, mut digest) = (0, 0);
    while passes < MIN_PASSES || secs(measuring) < seconds {
        match (spec.kind, &mut rig, &ring) {
            (Kind::Ring { .. }, _, Some(ring)) => ring_pass(spec, ring, &mut s),
            (Kind::Lu { .. }, _, _) => lu_pass(spec, &mut s),
            (_, Some(rig), _) => pair_pass(spec, rig, seed, &mut s),
            _ => unreachable!("pair workloads have a rig, ring workloads a ring"),
        }
        if let Some(probe) = &mut probe {
            rtt_segment(spec, probe, &mut s);
        }
        if spec.probe_recover.1 > 0 {
            recover_probe(spec, seed, 1, &mut s, &mut Off);
        }
        passes += 1;
        if passes == MIN_PASSES {
            // Fixed work up to here, whatever `--seconds` says: this
            // is the digest that repeats for a seed.
            digest = s.digests.first().copied().unwrap_or(s.running_digest);
        }
    }
    if let Some(probe) = &probe {
        s.failed += probe.tally.failed;
    }

    // Passes that start from scratch ran the same inputs and must agree.
    if s.digests.windows(2).any(|w| w[0] != w[1]) {
        s.failed += 1;
    }
    // Counts are taken over the first MIN_PASSES passes only: a run
    // that fits more passes must still report the same counts.
    let counts = |v: &[f64]| Summary::of(&v[..MIN_PASSES.min(v.len())]);
    let ok_share = 1.0 - s.failed as f64 / s.attempted.max(1) as f64;
    let metrics = vec![
        Summary::of(&setups),
        Summary::of(&s.wall_ms),
        Summary::of(&s.msgs_per_s),
        Summary::of(&s.mb_per_s),
        Summary::of(&s.rtt_p50_us),
        Summary::of(&s.recovery_ms),
        counts(&s.piggyback),
        counts(&s.wire),
        Summary::single(peak_rss_mb()),
        Summary::single(ok_share),
    ];
    EndToEnd {
        metrics,
        rtt_p99_us: median(&s.rtt_p99_us),
        rtt_tail_us: (s.rtt_tail_pct, median(&s.rtt_tail_us)),
        attempted: s.attempted,
        failed: s.failed,
        passes,
        digest,
    }
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Counts taken from `Kernel::snapshot()` / `RunReport` over the traced
/// main segment.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// App messages delivered in the segment (the per-message divisor).
    pub msgs: u64,
    pub data_plane: DataPlaneStats,
    pub dup_discarded: u64,
    pub tracking: TrackingStats,
    pub sweeps: u64,
    pub idle_sweeps: u64,
    /// Encoded size of the receiver's latest checkpoint image.
    pub ckpt_bytes: u64,
}

impl Counts {
    fn add_rig(&mut self, rig: &PairRig) {
        for rank in [0, 1] {
            let snap = rig.kernel(rank).snapshot();
            self.data_plane.merge(&snap.data_plane);
            self.dup_discarded += snap.dup_discarded;
            self.tracking.merge(&snap.stats);
        }
        self.msgs += rig.tally.delivered;
    }

    fn add_report(&mut self, report: &RunReport) {
        self.data_plane.merge(&report.data_plane);
        self.tracking.merge(&report.stats);
        self.msgs += report.stats.delivers;
    }
}

/// Parts the traced pass is cut into, each paired with an untraced twin.
const OVERHEAD_PARTS: u64 = 3;

/// The spans whose p50 is also reported at n = 2: the per-call table
/// that shows which kernel calls grow with the system size.
pub const N2_SPANS: [SpanId; 4] = [
    SpanId::Tick,
    SpanId::DoCheckpoint,
    SpanId::TryDeliver,
    SpanId::AppSend,
];

/// The spans only a recovery produces.
const RECOVERY_SPANS: [SpanId; 5] = [
    SpanId::LoadCheckpoint,
    SpanId::Restore,
    SpanId::BeginRecovery,
    SpanId::RecoverRollback,
    SpanId::RecoverReplay,
];

pub struct Traced {
    pub log: SpanLog,
    pub floors: [Floor; 12],
    pub counts: Counts,
    /// p50 of [`N2_SPANS`] on a two-rank world with this workload's
    /// payload (the same numbers as the main spans when n = 2).
    pub n2_p50_ns: [f64; 4],
    pub overhead_pct: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// `1/share` of the workload's pass on a pair rig, under tracer `t`;
/// returns seconds per operation.
fn pair_part<T: Tracer>(spec: &Spec, rig: &mut PairRig, share: u64, t: &mut T) -> f64 {
    let mut round_trips = Vec::new();
    if let Kind::PingPong { rounds } = spec.kind {
        round_trips.reserve((rounds / share) as usize);
    }
    let start = Instant::now();
    t.enter(SpanId::Pass);
    let ops = match spec.kind {
        Kind::Stream { msgs } => {
            rig.stream(0, msgs / share, true, t);
            msgs / share
        }
        Kind::PingPong { rounds } => {
            rig.pingpong(rounds / share, &mut round_trips, t);
            rounds / share
        }
        Kind::Recover { prefill, backlog } => {
            rig.prefill_and_checkpoint(prefill / share, t);
            rig.stream(0, backlog / share, false, t);
            rig.kill_and_recover(t);
            backlog / share
        }
        Kind::Ring { .. } | Kind::Lu { .. } => unreachable!("engine workloads have no pair pass"),
    };
    t.exit();
    secs(start) / ops as f64
}

/// Drive one ring job from this thread alone — every shard in turn,
/// then the leader's `advance` — under tracer `t`; returns seconds
/// per app message.
fn ring_single_driver<T: Tracer>(
    spec: &Spec,
    ring: &Ring,
    counts: &mut Counts,
    failed: &mut u64,
    t: &mut T,
) -> f64 {
    let msgs = spec.world.n as u64 * ring.rounds;
    let cfg = ring_cfg(&spec.world);
    let start = Instant::now();
    t.enter(SpanId::Pass);
    let job = t.span(SpanId::TasksBuild, || TaskJob::new(&cfg, ring.clone()));
    if let Ok(job) = &job {
        while !job.is_finished() {
            t.next_op();
            for shard in 0..job.shards() {
                let progressed = t.span(SpanId::TasksSweep, || job.sweep(shard));
                counts.sweeps += 1;
                counts.idle_sweeps += u64::from(!progressed);
            }
            t.span(SpanId::TasksAdvance, || job.advance());
        }
    }
    t.exit();
    let wall = secs(start);
    // Assembling the report and tearing 512 kernels down is the
    // host's business, not the job's: both stay outside the pass.
    match job.and_then(|job| job.report()) {
        Ok(report) => {
            *failed += report_failures(&report, &ring.reference_digests(spec.world.n), msgs);
            counts.add_report(&report);
        }
        Err(_) => *failed += msgs,
    }
    wall / msgs as f64
}

/// `runs` LU runs under tracer `t`; returns seconds per run.
fn lu_runs<T: Tracer>(
    spec: &Spec,
    runs: u64,
    counts: &mut Counts,
    failed: &mut u64,
    t: &mut T,
) -> f64 {
    let cfg = lu_cfg(&spec.world);
    let start = Instant::now();
    t.enter(SpanId::Pass);
    for _ in 0..runs {
        t.next_op();
        match t.span(SpanId::ClusterRun, || {
            run_benchmark(Benchmark::Lu, Class::Small, &cfg)
        }) {
            Ok(report) => {
                *failed += report_failures(&report, &LU_SMALL_N4_DIGESTS, LU_MSGS);
                counts.add_report(&report);
            }
            Err(_) => *failed += LU_MSGS,
        }
    }
    t.exit();
    secs(start) / runs as f64
}

/// Stream four checkpoint intervals through a fresh pair rig in
/// `world` under `rec`: the per-call kernel spans of that world.
fn world_rig_spans(world: World, seed: u64, rec: &mut Recorder) -> PairRig {
    let mut rig = PairRig::new(world, seed);
    rig.stream(0, 4 * world.ckpt_every, true, rec);
    rig
}

pub fn run_traced(spec: &Spec, seed: u64) -> Traced {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut unused = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // The main segment: one pass traced (a fifth or less of what an
    // untraced run measures), in three parts, each after the same
    // part untraced — the ratio of the two median per-operation times
    // is the tracing overhead. (A ring job is one part: it cannot be
    // cut; an LU part is a whole pass, for the sample's sake.) The
    // engines keep their kernels and stores to themselves, so for them
    // a pair rig in the same world supplies the per-call kernel spans
    // and the checkpoint image.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let warm = match spec.kind {
        // The ring warms up below, with a job of full size.
        Kind::Ring { .. } => None,
        _ => set_up(spec, seed, &mut failed),
    };
    let rig = match (spec.kind, warm) {
        (Kind::Ring { rounds }, _) => {
            let ring = Ring::new(rounds, spec.world.payload, seed);
            // The first full-size job pays for the allocator's growth.
            ring_single_driver(spec, &ring, &mut unused, &mut failed, &mut Off);
            plain.push(ring_single_driver(
                spec,
                &ring,
                &mut unused,
                &mut failed,
                &mut Off,
            ));
            traced.push(ring_single_driver(
                spec,
                &ring,
                &mut counts,
                &mut failed,
                &mut rec,
            ));
            attempted += 3 * spec.world.n as u64 * rounds;
            world_rig_spans(spec.world, seed, &mut rec)
        }
        (Kind::Lu { runs }, _) => {
            for _ in 0..OVERHEAD_PARTS {
                plain.push(lu_runs(spec, runs, &mut unused, &mut failed, &mut Off));
                traced.push(lu_runs(spec, runs, &mut counts, &mut failed, &mut rec));
            }
            attempted += 2 * OVERHEAD_PARTS * runs * LU_MSGS;
            world_rig_spans(spec.world, seed, &mut rec)
        }
        (_, None) => unreachable!("pair workloads set up a rig"),
        (_, Some(mut rig)) => {
            // A recovery needs a fresh pair each time; the other pair
            // workloads keep streaming through one rig, whose kernels'
            // counters and tally both span its whole life.
            let recover = matches!(spec.kind, Kind::Recover { .. });
            for _ in 0..OVERHEAD_PARTS {
                for with_spans in [false, true] {
                    if recover {
                        attempted += rig.tally.delivered;
                        failed += rig.tally.failed;
                        rig = PairRig::new(spec.world, seed);
                    }
                    if with_spans {
                        traced.push(pair_part(spec, &mut rig, OVERHEAD_PARTS, &mut rec));
                    } else {
                        plain.push(pair_part(spec, &mut rig, OVERHEAD_PARTS, &mut Off));
                    }
                    if recover && with_spans {
                        counts.add_rig(&rig);
                    }
                }
            }
            if !recover {
                counts.add_rig(&rig);
            }
            rig
        }
    };
    attempted += rig.tally.delivered;
    failed += rig.tally.failed;
    let image = rig.latest_image(1).unwrap_or_default();
    counts.ckpt_bytes = image.len() as u64;
    drop(rig);

    // The recovery probe, traced on the side: only its recovery spans
    // are kept, so that the pumping around it does not blur the main
    // segment's kernel spans.
    if spec.probe_recover.1 > 0 {
        let (mut side, mut probe) = (Recorder::new(), Samples::default());
        recover_probe(spec, seed, 3, &mut probe, &mut side);
        rec.log.adopt(&side.log, &RECOVERY_SPANS);
        attempted += probe.attempted;
        failed += probe.failed;
    }

    let floors = floors::measure(&spec.world, seed, &image, 200);

    let n2_p50_ns = if spec.world.n == 2 {
        N2_SPANS.map(|id| f64::from(rec.log.stats(id).percentiles().0))
    } else {
        let mut small = Recorder::new();
        let two = World { n: 2, ..spec.world };
        failed += world_rig_spans(two, seed, &mut small).tally.failed;
        N2_SPANS.map(|id| f64::from(small.log.stats(id).percentiles().0))
    };

    Traced {
        log: rec.log,
        floors,
        counts,
        n2_p50_ns,
        overhead_pct: (median(&traced) / median(&plain) - 1.0) * 100.0,
        attempted,
        failed,
    }
}
