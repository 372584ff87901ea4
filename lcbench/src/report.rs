//! What a run prints: the named metrics as a table for the reader, the
//! driver's one-line JSON result, the history line, and the content of
//! `BENCHMARK.json` (generated from the same tables, so the file and
//! the program cannot drift apart).

use crate::floors;
use crate::json::{num, string};
use crate::trace::SpanId;
use crate::workloads::{EndToEnd, Spec, Traced, END_TO_END, N2_SPANS, SPECS};
use std::fmt::Write as _;
use std::io::Write as _;

/// Seconds the driver lets one run measure (and `--seconds`' default).
pub const RUN_SECONDS: u32 = 8;

/// Spans recorded inside the driver's loops: count, self time, p50, p99.
const IN_LOOP: [SpanId; 13] = [
    SpanId::AppSend,
    SpanId::TryRecv,
    SpanId::IngestData,
    SpanId::TryDeliver,
    SpanId::IngestAck,
    SpanId::DoCheckpoint,
    SpanId::Tick,
    SpanId::LoadCheckpoint,
    SpanId::Restore,
    SpanId::BeginRecovery,
    SpanId::TasksSweep,
    SpanId::TasksAdvance,
    SpanId::ClusterRun,
];

/// Spans that happen once per pass or per recovery: count and p50.
const PHASES: [SpanId; 3] = [
    SpanId::TasksBuild,
    SpanId::RecoverRollback,
    SpanId::RecoverReplay,
];

/// The floors whose sum `kernel.app_send` is compared against.
const SEND_FLOORS: [&str; 5] = [
    "core.on_send",
    "log.insert",
    "wire.encode",
    "wire.crc32",
    "simnet.send",
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        higher_is_better: false,
        value,
    }
}

/// Every per-layer metric, in reporting order. Without a traced run
/// the values are 0 and only names, units and directions matter.
pub fn layer_metrics(t: Option<&Traced>) -> Vec<Metric> {
    let mut out = Vec::new();
    let stats = |id: SpanId| t.map(|t| t.log.stats(id));
    for id in IN_LOOP {
        let s = stats(id);
        let (p50, p99) = s.map_or((0, 0), |s| s.percentiles());
        out.push(metric(
            format!("{}.n", id.name()),
            "count",
            s.map_or(0.0, |s| s.n as f64),
        ));
        out.push(metric(
            format!("{}.busy_ms", id.name()),
            "ms",
            s.map_or(0.0, |s| s.self_ns as f64 / 1e6),
        ));
        out.push(metric(
            format!("{}.p50_ns", id.name()),
            "ns",
            f64::from(p50),
        ));
        out.push(metric(
            format!("{}.p99_ns", id.name()),
            "ns",
            f64::from(p99),
        ));
    }
    for id in PHASES {
        let s = stats(id);
        out.push(metric(
            format!("{}.n", id.name()),
            "count",
            s.map_or(0.0, |s| s.n as f64),
        ));
        out.push(metric(
            format!("{}.p50_ns", id.name()),
            "ns",
            s.map_or(0.0, |s| f64::from(s.percentiles().0)),
        ));
    }
    for (i, name) in floors::NAMES.iter().enumerate() {
        let f = t.map(|t| t.floors[i]).unwrap_or_default();
        out.push(metric(format!("{name}.n"), "count", f.n as f64));
        out.push(metric(format!("{name}.p50_ns"), "ns", f.p50_ns));
    }

    let c = t.map(|t| t.counts.clone()).unwrap_or_default();
    let per_msg = |x: u64| x as f64 / c.msgs.max(1) as f64;
    out.push(metric(
        "kernel.frames_per_msg",
        "count",
        per_msg(c.data_plane.frames_built),
    ));
    out.push(metric(
        "kernel.bytes_framed_per_msg",
        "B",
        per_msg(c.data_plane.bytes_framed),
    ));
    out.push(metric(
        "kernel.payload_copies_per_msg",
        "count",
        per_msg(c.data_plane.payload_copies),
    ));
    out.push(metric(
        "kernel.ack_frames_per_msg",
        "count",
        per_msg(c.data_plane.ack_frames),
    ));
    out.push(Metric {
        higher_is_better: true,
        ..metric(
            "kernel.acks_coalesced",
            "count",
            c.data_plane.acks_coalesced as f64,
        )
    });
    out.push(metric(
        "kernel.retransmit_frames",
        "count",
        c.data_plane.retransmit_frames as f64,
    ));
    out.push(metric(
        "kernel.dup_discarded",
        "count",
        c.dup_discarded as f64,
    ));
    out.push(metric(
        "log.peak_bytes",
        "B",
        c.tracking.log_bytes_peak as f64,
    ));
    out.push(metric(
        "core.delta_frames",
        "count",
        c.tracking.delta_frames as f64,
    ));
    out.push(metric(
        "core.full_frames",
        "count",
        c.tracking.full_frames as f64,
    ));
    out.push(metric(
        "core.resync_requests",
        "count",
        c.tracking.resync_requests as f64,
    ));
    out.push(metric("tasks.sweeps", "count", c.sweeps as f64));
    out.push(metric(
        "tasks.idle_sweep_share",
        "ratio",
        c.idle_sweeps as f64 / c.sweeps.max(1) as f64,
    ));
    out.push(metric("stable.ckpt_bytes", "B", c.ckpt_bytes as f64));

    let send_floor: f64 = t.map_or(0.0, |t| {
        floors::NAMES
            .iter()
            .zip(&t.floors)
            .filter(|(name, _)| SEND_FLOORS.contains(name))
            .map(|(_, f)| f.p50_ns)
            .sum()
    });
    let send_p50 = stats(SpanId::AppSend).map_or(0.0, |s| f64::from(s.percentiles().0));
    out.push(metric(
        "kernel.app_send.unattributed_ns",
        "ns",
        send_p50 - send_floor,
    ));
    out.push(metric(
        "trace.uncovered_pct",
        "%",
        t.map_or(0.0, |t| t.log.uncovered_pct()),
    ));
    out.push(metric(
        "trace.overhead_pct",
        "%",
        t.map_or(0.0, |t| t.overhead_pct),
    ));
    for (i, id) in N2_SPANS.iter().enumerate() {
        out.push(metric(
            format!("{}.n2_p50_ns", id.name()),
            "ns",
            t.map_or(0.0, |t| t.n2_p50_ns[i]),
        ));
    }
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            line,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            string(name),
            num(*value),
            string(unit)
        )
        .expect("write to string");
    }
    line.push_str("}}");
    line
}

pub fn print_end_to_end(spec: &Spec, seed: u64, r: &EndToEnd) {
    println!(
        "{} seed {} — {} timed passes, digest {:016x}",
        spec.name, seed, r.passes, r.digest
    );
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>14} {:>14}  {:<5} k",
        "metric", "median", "q1", "q3", "min", "max", "unit"
    );
    for ((name, unit, ..), s) in END_TO_END.iter().zip(&r.metrics) {
        println!(
            "{:<26} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4}  {:<5} {}",
            name, s.median, s.q1, s.q3, s.min, s.max, unit, s.k
        );
    }
    println!(
        "not gated: rtt p99 {:.4} us, p{} {:.4} us (the highest percentile with 10 round trips beyond it)",
        r.rtt_p99_us, r.rtt_tail_us.0, r.rtt_tail_us.1
    );
}

pub fn print_layers(spec: &Spec, seed: u64, metrics: &[Metric]) {
    println!("{} seed {} — traced run", spec.name, seed);
    for m in metrics {
        println!("{:<36} {:>16.3} {}", m.name, m.value, m.unit);
    }
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Append one line describing an untraced run to `path` (created with
/// its directory when missing; never truncated).
pub fn append_history(
    path: &std::path::Path,
    spec: &Spec,
    seed: u64,
    r: &EndToEnd,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut line = format!(
        "{{\"commit\":{},\"workload\":{},\"seed\":{},\"nproc\":{},\"k\":{},\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"metrics\":{{",
        string(&commit()),
        string(spec.name),
        seed,
        nproc(),
        r.passes,
        r.digest,
        r.attempted,
        r.failed
    );
    for (i, ((name, ..), s)) in END_TO_END.iter().zip(&r.metrics).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            line,
            "{sep}{}:{{\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"k\":{}}}",
            string(name),
            num(s.median),
            num(s.q1),
            num(s.q3),
            num(s.min),
            num(s.max),
            s.k
        )
        .expect("write to string");
    }
    line.push_str("}}\n");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

/// The content of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"lcbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"lcbench\", \"results/lcbench\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in SPECS.iter().enumerate() {
        let sep = if i + 1 == SPECS.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            string(s.name),
            string(s.why)
        )
        .expect("write to string");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, higher, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            string(name),
            string(unit),
            string(if *higher { "higher" } else { "lower" }),
            num(*bound)
        )
        .expect("write to string");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = layer_metrics(None);
    for (i, m) in layers.iter().enumerate() {
        let sep = if i + 1 == layers.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            string(&m.name),
            string(m.unit),
            string(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            })
        )
        .expect("write to string");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `lcbench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_drivers_keys() {
        let line = result_line(
            0,
            0,
            &[
                ("wall_ms".into(), "ms", 1.5),
                ("ok_share".into(), "ratio", 1.0),
            ],
        );
        let v = crate::json::parse(&line).expect("valid JSON");
        let crate::json::Value::Obj(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<_> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("attempted").and_then(|a| a.as_f64()),
            Some(1.0),
            "attempted is at least 1"
        );
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_ms"))
            .expect("wall_ms");
        assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(1.5));
        assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("ms"));
    }
}
