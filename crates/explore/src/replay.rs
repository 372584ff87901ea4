//! Counterexample files and trace replay.
//!
//! When an exploration diverges, the bench harness writes the
//! offending schedule to a small line-oriented case file; `reproduce
//! -- explore --replay <file>` parses it back into a [`ReplayCase`],
//! re-executes the trace through the deterministic runner, and prints
//! a per-step timeline. Because a run is a pure function of
//! `(workload, trace)`, the file is a complete, portable repro — no
//! logs or snapshots needed.
//!
//! The format is deliberately trivial (one `key = value` per line,
//! `#` comments, unknown keys rejected):
//!
//! ```text
//! # lclog-explore counterexample
//! workload = gather 3 3
//! fold = order-sensitive
//! payload = deterministic
//! checkpoints = every 2
//! protocol = tdi-s 64
//! faults = crashes=1 wipes=0 window=0
//! trace = 1.0.2
//! ```

use std::fmt;
use std::str::FromStr;

use crate::decider::TraceDecider;
use crate::runner::{run_schedule_cfg, Alt, FaultBudget, RunOutcome, RunnerConfig};
use crate::trace::Trace;
use crate::workload::{Fold, Payload, Workload};
use lclog_core::ProtocolKind;

/// A self-contained replayable schedule: workload shape, runner
/// configuration, and the trace to drive through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCase {
    /// Ranks in the rotating-gather workload.
    pub n: usize,
    /// Rounds in the rotating-gather workload.
    pub rounds: usize,
    /// Receiver-side fold.
    pub fold: Fold,
    /// Sender-side payload rule.
    pub payload: Payload,
    /// Checkpoint cadence (`None` = restore from scratch).
    pub checkpoint_every: Option<u64>,
    /// Tracking protocol.
    pub protocol: ProtocolKind,
    /// Fault choice points the schedule may spend.
    pub faults: FaultBudget,
    /// The decision sequence to replay.
    pub trace: Trace,
}

impl ReplayCase {
    /// A fault-free TDI case over `rotating_gather(n, rounds)`.
    pub fn gather(n: usize, rounds: usize, trace: Trace) -> Self {
        ReplayCase {
            n,
            rounds,
            fold: Fold::Commutative,
            payload: Payload::Deterministic,
            checkpoint_every: None,
            protocol: ProtocolKind::Tdi,
            faults: FaultBudget::none(),
            trace,
        }
    }

    /// Materialize the workload this case runs.
    pub fn workload(&self) -> Workload {
        let mut w = Workload::rotating_gather(self.n, self.rounds).with_payload(self.payload);
        w.fold = self.fold;
        if let Some(every) = self.checkpoint_every {
            w = w.with_checkpoints(every);
        }
        w
    }

    /// The runner configuration this case runs under.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig {
            protocol: self.protocol,
            faults: self.faults,
        }
    }
}

impl fmt::Display for ReplayCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# lclog-explore counterexample")?;
        writeln!(f, "workload = gather {} {}", self.n, self.rounds)?;
        let fold = match self.fold {
            Fold::Commutative => "commutative",
            Fold::OrderSensitive => "order-sensitive",
        };
        writeln!(f, "fold = {fold}")?;
        let payload = match self.payload {
            Payload::Deterministic => "deterministic",
            Payload::StateDependent => "state-dependent",
        };
        writeln!(f, "payload = {payload}")?;
        match self.checkpoint_every {
            None => writeln!(f, "checkpoints = none")?,
            Some(every) => writeln!(f, "checkpoints = every {every}")?,
        }
        match self.protocol {
            ProtocolKind::TdiSparse(k) => writeln!(f, "protocol = tdi-s {k}")?,
            ProtocolKind::Tdi => writeln!(f, "protocol = tdi")?,
            other => writeln!(f, "protocol = {}", other.name().to_lowercase())?,
        }
        writeln!(
            f,
            "faults = crashes={} wipes={} window={}",
            self.faults.crashes, self.faults.wipes, self.faults.window
        )?;
        writeln!(f, "trace = {}", self.trace)
    }
}

impl FromStr for ReplayCase {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut case = ReplayCase::gather(2, 1, Trace::new());
        let mut saw_workload = false;
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: bad {what}: {value:?}", lineno + 1);
            match key {
                "workload" => {
                    let mut it = value.split_whitespace();
                    if it.next() != Some("gather") {
                        return Err(bad("workload (expected `gather <n> <rounds>`)"));
                    }
                    case.n = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("workload rank count"))?;
                    case.rounds = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("workload round count"))?;
                    saw_workload = true;
                }
                "fold" => {
                    case.fold = match value {
                        "commutative" => Fold::Commutative,
                        "order-sensitive" => Fold::OrderSensitive,
                        _ => return Err(bad("fold")),
                    }
                }
                "payload" => {
                    case.payload = match value {
                        "deterministic" => Payload::Deterministic,
                        "state-dependent" => Payload::StateDependent,
                        _ => return Err(bad("payload")),
                    }
                }
                "checkpoints" => {
                    case.checkpoint_every = match value {
                        "none" => None,
                        other => Some(
                            other
                                .strip_prefix("every")
                                .and_then(|t| t.trim().parse().ok())
                                .ok_or_else(|| bad("checkpoint cadence"))?,
                        ),
                    }
                }
                "protocol" => {
                    let mut it = value.split_whitespace();
                    case.protocol = match (it.next(), it.next()) {
                        (Some("tdi"), None) => ProtocolKind::Tdi,
                        (Some("tdi-s"), Some(k)) => {
                            ProtocolKind::TdiSparse(k.parse().map_err(|_| bad("resync window"))?)
                        }
                        _ => return Err(bad("protocol (expected `tdi` or `tdi-s <k>`)")),
                    };
                }
                "faults" => {
                    let mut faults = FaultBudget::none();
                    for part in value.split_whitespace() {
                        let (k, v) = part.split_once('=').ok_or_else(|| bad("fault budget"))?;
                        let v: usize = v.parse().map_err(|_| bad("fault budget"))?;
                        match k {
                            "crashes" => faults.crashes = v,
                            "wipes" => faults.wipes = v,
                            "window" => faults.window = v,
                            _ => {
                                let line = lineno + 1;
                                return Err(format!("line {line}: unknown fault budget key {k:?}"));
                            }
                        }
                    }
                    case.faults = faults;
                }
                "trace" => {
                    case.trace = Trace::parse(value).ok_or_else(|| bad("trace"))?;
                }
                _ => return Err(format!("line {}: unknown key {key:?}", lineno + 1)),
            }
        }
        if !saw_workload {
            return Err("missing `workload = gather <n> <rounds>` line".to_string());
        }
        Ok(case)
    }
}

/// One executed step of a replay, for timeline rendering.
#[derive(Debug, Clone)]
pub struct ReplayStep {
    /// The action executed.
    pub action: Alt,
    /// How many alternatives were legal at this step.
    pub arity: usize,
    /// Which alternative the schedule took.
    pub picked: usize,
}

impl ReplayStep {
    /// Whether this step was a real decision (two or more
    /// alternatives) rather than forced.
    pub fn chosen(&self) -> bool {
        self.arity >= 2
    }
}

/// Re-execute `case` and return the outcome plus the per-step
/// timeline.
pub fn replay_trace(case: &ReplayCase) -> (RunOutcome, Vec<ReplayStep>) {
    let workload = case.workload();
    let mut decider = TraceDecider::new(case.trace.clone());
    let out = run_schedule_cfg(&workload, &mut decider, &case.runner());
    let timeline = out
        .steps
        .iter()
        .map(|s| ReplayStep {
            action: s.action(),
            arity: s.alts.len(),
            picked: s.picked,
        })
        .collect();
    (out, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_file_round_trips() {
        let case = ReplayCase {
            n: 3,
            rounds: 2,
            fold: Fold::OrderSensitive,
            payload: Payload::StateDependent,
            checkpoint_every: Some(2),
            protocol: ProtocolKind::TdiSparse(64),
            faults: FaultBudget {
                crashes: 1,
                wipes: 1,
                window: 9,
            },
            trace: vec![1, 0, 2].into(),
        };
        let text = case.to_string();
        let back: ReplayCase = text.parse().expect("round trip parse");
        assert_eq!(back, case);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("workload = gather 3".parse::<ReplayCase>().is_err());
        assert!("".parse::<ReplayCase>().is_err());
        assert!("workload = gather 3 2\nmystery = 1"
            .parse::<ReplayCase>()
            .is_err());
    }

    /// `suspects=` budgeted forced detector verdicts, which no longer
    /// exist: a case file that still carries the key is refused, and
    /// the error names it.
    #[test]
    fn parse_rejects_the_retired_suspects_key() {
        let text = "workload = gather 3 2\nfaults = crashes=0 wipes=0 suspects=0 window=0";
        let err = text.parse::<ReplayCase>().unwrap_err();
        assert_eq!(err, "line 2: unknown fault budget key \"suspects\"");
    }

    #[test]
    fn replay_produces_a_timeline() {
        let case = ReplayCase::gather(3, 2, Trace::new());
        let (out, timeline) = replay_trace(&case);
        assert_eq!(out.verdict, crate::runner::Verdict::Completed);
        assert_eq!(out.steps.len(), timeline.len());
        assert!(timeline.iter().any(|s| s.chosen()));
    }
}
