//! The span recorder. Spans are taken from outside the program, around
//! the driver's calls into its public functions; nothing in the
//! program knows it is traced.
//!
//! A span is `(name, start_ns, end_ns, parent, op)`: `op` numbers the
//! driver's closed-loop cycles, so the spans of one request share it,
//! and `parent` is the enclosing span. A span's self time is its
//! duration minus what its children cover. Every span feeds a per-name
//! sample list (count, self time, per-unit durations for the
//! percentiles); the raw spans of the first [`RAW_OPS`] ops are also
//! kept, in memory, and written once when the run ends.
//!
//! Driver code is generic over [`Tracer`]: with [`Off`] every hook
//! compiles to nothing, which is how the end-to-end numbers are taken.

use crate::stats::percentile;
use std::io::Write;
use std::time::Instant;

/// Raw spans are kept for ops below this number.
pub const RAW_OPS: u64 = 100_000;
/// Upper bound on kept raw spans (a pass records ~10 per op).
const RAW_CAP: usize = 2_000_000;
/// Per-name sample capacity reserved up front so that recording never
/// reallocates inside a timed region at the benchmark's sizes.
const SAMPLE_CAP: usize = 1 << 18;

macro_rules! span_ids {
    ($($variant:ident => $name:literal, $layer:literal;)*) => {
        /// Every span name the benchmark records. Layer spans wrap one
        /// call into the program; the others are the driver's own
        /// structure (a pass, a recovery phase) and count as uncovered
        /// time where no layer span runs inside them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum SpanId { $($variant,)* }

        impl SpanId {
            pub const ALL: &'static [SpanId] = &[$(SpanId::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(SpanId::$variant => $name,)* }
            }

            pub fn is_layer(self) -> bool {
                match self { $(SpanId::$variant => $layer,)* }
            }
        }
    };
}

span_ids! {
    Pass => "driver.pass", false;
    RecoverRollback => "recover.rollback", false;
    RecoverReplay => "recover.replay", false;
    TasksBuild => "tasks.build", true;
    AppSend => "kernel.app_send", true;
    TryRecv => "simnet.try_recv", true;
    IngestData => "kernel.ingest_data", true;
    TryDeliver => "kernel.try_deliver", true;
    IngestAck => "kernel.ingest_ack", true;
    DoCheckpoint => "kernel.do_checkpoint", true;
    Tick => "kernel.tick", true;
    LoadCheckpoint => "kernel.load_checkpoint", true;
    Restore => "kernel.restore", true;
    BeginRecovery => "kernel.begin_recovery", true;
    TasksSweep => "tasks.sweep", true;
    TasksAdvance => "tasks.advance", true;
    ClusterRun => "cluster.run", true;
}

/// What driver code calls at each layer boundary.
pub trait Tracer {
    /// Start the next closed-loop cycle; later spans carry its number.
    fn next_op(&mut self);
    /// Time one call into the program.
    #[inline(always)]
    fn span<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        self.span_units(id, || (f(), 1))
    }
    /// Time one call that handled `units` items (envelopes in a batch);
    /// the percentiles are then per item.
    fn span_units<R>(&mut self, id: SpanId, f: impl FnOnce() -> (R, u32)) -> R;
    /// Open a driver-structure span that encloses later spans.
    fn enter(&mut self, id: SpanId);
    /// Close the innermost open span.
    fn exit(&mut self);
}

/// Tracing off: every hook is a no-op the optimiser removes.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn next_op(&mut self) {}
    #[inline(always)]
    fn span_units<R>(&mut self, _id: SpanId, f: impl FnOnce() -> (R, u32)) -> R {
        f().0
    }
    #[inline(always)]
    fn enter(&mut self, _id: SpanId) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span; `parent` indexes the raw list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    pub id: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
    pub units: u32,
}

struct Open {
    id: SpanId,
    start_ns: u64,
    /// Sum of the durations of the children closed so far.
    child_ns: u64,
    raw: Option<u32>,
}

/// Count, time and per-unit samples of one span name.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub n: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Duration ÷ units of every span, in arrival order.
    pub per_unit_ns: Vec<u32>,
}

impl NameStats {
    /// `(p50, p99)` of the per-unit durations.
    pub fn percentiles(&self) -> (u32, u32) {
        let mut sorted = self.per_unit_ns.clone();
        sorted.sort_unstable();
        (percentile(&sorted, 50.0), percentile(&sorted, 99.0))
    }
}

/// The clock-free recorder: callers pass timestamps, so the self-time
/// arithmetic can be tested with synthetic ones.
pub struct SpanLog {
    op: u64,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    names: Vec<NameStats>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            op: 0,
            stack: Vec::with_capacity(8),
            raw: Vec::with_capacity(RAW_CAP),
            names: SpanId::ALL
                .iter()
                .map(|_| NameStats {
                    per_unit_ns: Vec::with_capacity(SAMPLE_CAP),
                    ..NameStats::default()
                })
                .collect(),
        }
    }

    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, id: SpanId, now_ns: u64) {
        let raw = (self.op < RAW_OPS && self.raw.len() < RAW_CAP).then(|| {
            self.raw.push(RawSpan {
                id,
                start_ns: now_ns,
                end_ns: now_ns,
                parent: self.stack.last().and_then(|o| o.raw),
                op: self.op,
                units: 1,
            });
            (self.raw.len() - 1) as u32
        });
        self.stack.push(Open {
            id,
            start_ns: now_ns,
            child_ns: 0,
            raw,
        });
    }

    pub fn close(&mut self, now_ns: u64, units: u32) {
        let open = self.stack.pop().expect("close without an open span");
        let dur = now_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw {
            let raw = &mut self.raw[i as usize];
            raw.end_ns = now_ns;
            raw.units = units;
        }
        let stats = &mut self.names[open.id as usize];
        stats.n += 1;
        stats.total_ns += dur;
        stats.self_ns += dur.saturating_sub(open.child_ns);
        stats
            .per_unit_ns
            .push(u32::try_from(dur / u64::from(units.max(1))).unwrap_or(u32::MAX));
    }

    pub fn stats(&self, id: SpanId) -> &NameStats {
        &self.names[id as usize]
    }

    /// Take over `other`'s statistics for the span names `ids`.
    pub fn adopt(&mut self, other: &SpanLog, ids: &[SpanId]) {
        for &id in ids {
            self.names[id as usize] = other.names[id as usize].clone();
        }
    }

    /// Share of the passes' wall, in percent, during which no layer
    /// span was open: the driver's own loop, checks and timer reads.
    pub fn uncovered_pct(&self) -> f64 {
        let wall = self.stats(SpanId::Pass).total_ns;
        if wall == 0 {
            return 0.0;
        }
        let driver_self: u64 = SpanId::ALL
            .iter()
            .filter(|id| !id.is_layer())
            .map(|&id| self.stats(id).self_ns)
            .sum();
        driver_self as f64 * 100.0 / wall as f64
    }

    /// Write the raw spans as JSON lines, `parent` being the line
    /// number (from 0) of the enclosing span or -1.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.raw {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"units\":{}}}",
                s.id.name(),
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, i64::from),
                s.op,
                s.units
            )?;
        }
        out.flush()
    }
}

/// [`SpanLog`] on the monotonic clock.
pub struct Recorder {
    epoch: Instant,
    pub log: SpanLog,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            log: SpanLog::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        let d = self.epoch.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }
}

impl Tracer for Recorder {
    fn next_op(&mut self) {
        self.log.next_op();
    }

    #[inline]
    fn span_units<R>(&mut self, id: SpanId, f: impl FnOnce() -> (R, u32)) -> R {
        let start = self.now();
        self.log.open(id, start);
        let (r, units) = f();
        let end = self.now();
        self.log.close(end, units);
        r
    }

    fn enter(&mut self, id: SpanId) {
        let now = self.now();
        self.log.open(id, now);
    }

    fn exit(&mut self) {
        let now = self.now();
        self.log.close(now, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut log = SpanLog::new();
        log.open(SpanId::Pass, 0);
        log.open(SpanId::AppSend, 10);
        log.close(40, 1); // 30 ns, leaf
        log.open(SpanId::RecoverReplay, 50);
        log.open(SpanId::TryDeliver, 55);
        log.close(75, 1); // 20 ns inside replay
        log.close(90, 1); // replay: 40 ns, 20 covered
        log.close(100, 1); // pass: 100 ns, 30 + 40 covered

        assert_eq!(log.stats(SpanId::AppSend).self_ns, 30);
        assert_eq!(log.stats(SpanId::TryDeliver).self_ns, 20);
        assert_eq!(log.stats(SpanId::RecoverReplay).total_ns, 40);
        assert_eq!(log.stats(SpanId::RecoverReplay).self_ns, 20);
        assert_eq!(log.stats(SpanId::Pass).self_ns, 30);
        // Self times partition the root: 30 + 20 + 20 + 30 = 100.
        let total: u64 = SpanId::ALL.iter().map(|&id| log.stats(id).self_ns).sum();
        assert_eq!(total, 100);
        // Uncovered = driver-structure self time (pass 30 + replay 20).
        assert_eq!(log.uncovered_pct(), 50.0);
    }

    #[test]
    fn raw_spans_carry_parent_and_op() {
        let mut log = SpanLog::new();
        log.open(SpanId::Pass, 0);
        log.next_op();
        log.open(SpanId::AppSend, 1);
        log.close(2, 1);
        log.next_op();
        log.open(SpanId::TryRecv, 3);
        log.close(11, 4);
        log.close(12, 1);
        let raw = &log.raw;
        assert_eq!(raw.len(), 3);
        assert_eq!((raw[0].parent, raw[0].op, raw[0].end_ns), (None, 0, 12));
        assert_eq!((raw[1].parent, raw[1].op), (Some(0), 1));
        assert_eq!((raw[2].parent, raw[2].op, raw[2].units), (Some(0), 2, 4));
        // Percentiles are per unit: 8 ns over 4 envelopes.
        assert_eq!(log.stats(SpanId::TryRecv).percentiles(), (2, 2));
    }

    #[test]
    fn raw_spans_stop_after_the_first_ops_but_stats_do_not() {
        let mut log = SpanLog::new();
        for _ in 0..RAW_OPS {
            log.next_op();
        }
        log.open(SpanId::Tick, 5);
        log.close(9, 1);
        assert!(log.raw.is_empty());
        assert_eq!(log.stats(SpanId::Tick).n, 1);
        assert_eq!(log.stats(SpanId::Tick).self_ns, 4);
    }
}
