//! Schedule enumeration — brute-force, sampled, and DPOR-reduced —
//! plus counterexample shrinking.
//!
//! Brute-force exhaustive mode is the classic stateless-model-checking
//! loop: run under a trace prefix (suffix defaults to branch 0),
//! record the choice points actually hit, then backtrack — find the
//! deepest choice with an untaken sibling, increment it, truncate,
//! re-run. Every leaf of the decision tree is visited exactly once, in
//! depth-first order, without ever snapshotting kernel state.
//!
//! [`explore_dpor`] prunes that tree with **sleep sets** over an
//! independence relation on explorer actions (see `DESIGN.md` §12):
//! two actions commute unless they touch the same rank's delivery
//! state, race on the same destination's arrival order, or involve a
//! fault (faults are dependent with everything). After a branch `b` is
//! fully explored at a node, `b` is put to sleep in the subtrees of
//! its siblings — filtered forward across independent steps — and a
//! run whose every enabled action is asleep is abandoned
//! ([`Verdict::Aborted`]): its continuations are all equivalent to
//! schedules already explored. Sleep sets never prune the *last*
//! execution of a Mazurkiewicz trace, so every reachable terminal
//! state (digest vector, wedge, desync) is still visited at least
//! once; the reduction only removes commuting duplicates.
//!
//! Every mode runs on the caller's thread, one schedule at a time, so
//! an exploration's census and counts repeat exactly.

use std::collections::BTreeSet;

use crate::decider::{Decider, SeededDecider, TraceDecider};
use crate::runner::{run_schedule_cfg, Alt, RunOutcome, RunnerConfig, Verdict};
use crate::trace::Trace;
use crate::workload::{splitmix64, Workload};
use lclog_core::ProtocolKind;

pub use crate::runner::FaultBudget;

/// Exploration limits and seeds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Stop after this many schedule executions even if the tree is
    /// larger (DPOR counts sleep-blocked abandonments against this
    /// budget too — they cost a replay each).
    pub max_schedules: usize,
    /// Number of random schedules for [`explore_sampled`].
    pub samples: usize,
    /// Base seed for sampling (each sample derives its own stream).
    pub seed: u64,
    /// Tracking protocol under exploration. Outcomes compare by
    /// canonicalized dense `depend_interval` vectors, so dense TDI and
    /// sparse TDI-S explorations of the same workload cross-check.
    pub protocol: ProtocolKind,
    /// Fault choice points each schedule may spend (all-zero =
    /// fault-free exploration).
    pub faults: FaultBudget,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 10_000,
            samples: 256,
            seed: 0x5EED,
            protocol: ProtocolKind::Tdi,
            faults: FaultBudget::none(),
        }
    }
}

impl ExploreConfig {
    fn runner(&self) -> RunnerConfig {
        RunnerConfig {
            protocol: self.protocol,
            faults: self.faults,
        }
    }
}

/// A schedule whose outcome disagreed with the baseline.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The full trace that first exposed the disagreement.
    pub trace: Trace,
    /// A greedily minimized trace that still reproduces it.
    pub shrunk: Trace,
    /// The divergent run's per-rank digests.
    pub digests: Vec<u64>,
    /// The divergent run wedged or desynced instead of completing.
    pub wedged: bool,
}

/// What an exploration saw.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct schedules executed to a verdict (including the
    /// baseline; excluding sleep-blocked abandonments).
    pub schedules: usize,
    /// Runs abandoned by the DPOR sleep discipline (always 0 for the
    /// brute-force and sampled modes).
    pub sleep_blocked: usize,
    /// Schedules that ended [`Verdict::Wedged`].
    pub wedged: usize,
    /// The whole decision tree was enumerated (exhaustive modes only —
    /// sampling never claims exhaustion).
    pub exhausted: bool,
    /// First disagreement found, if any. `None` means every explored
    /// schedule agreed with the baseline on digests and
    /// `depend_interval` vectors.
    pub divergence: Option<Divergence>,
    /// The baseline (all-defaults, fault-free) per-rank digests.
    pub baseline_digests: Vec<u64>,
    /// Every distinct digest vector observed across completed
    /// schedules — the coverage census. A pruning bug that silently
    /// loses coverage shows up as this set shrinking relative to
    /// brute force.
    pub digests_seen: BTreeSet<Vec<u64>>,
    /// Largest branching factor seen at any choice point.
    pub max_arity: usize,
}

impl ExploreReport {
    fn new(baseline: &RunOutcome) -> Self {
        ExploreReport {
            schedules: 1,
            sleep_blocked: 0,
            wedged: usize::from(matches!(baseline.verdict, Verdict::Wedged { .. })),
            exhausted: false,
            divergence: None,
            baseline_digests: baseline.digests.clone(),
            digests_seen: BTreeSet::from([baseline.digests.clone()]),
            max_arity: baseline.max_arity(),
        }
    }

    fn absorb(&mut self, run: &RunOutcome) {
        self.schedules += 1;
        self.max_arity = self.max_arity.max(run.max_arity());
        if matches!(run.verdict, Verdict::Wedged { .. }) {
            self.wedged += 1;
        }
        self.digests_seen.insert(run.digests.clone());
    }
}

fn run_with(workload: &Workload, trace: Trace, cfg: &RunnerConfig) -> RunOutcome {
    let mut d = TraceDecider::new(trace);
    run_schedule_cfg(workload, &mut d, cfg)
}

/// The lexicographically next DFS prefix after `run`, or `None` when
/// every choice point in `run` already took its last branch.
fn next_prefix(run: &RunOutcome) -> Option<Trace> {
    let choices: Vec<(usize, usize)> = run
        .steps
        .iter()
        .filter(|s| s.alts.len() >= 2)
        .map(|s| (s.picked, s.alts.len()))
        .collect();
    for i in (0..choices.len()).rev() {
        if choices[i].0 + 1 < choices[i].1 {
            let mut t: Vec<usize> = choices[..i].iter().map(|c| c.0).collect();
            t.push(choices[i].0 + 1);
            return Some(t.into());
        }
    }
    None
}

fn make_divergence(
    workload: &Workload,
    cfg: &RunnerConfig,
    run: &RunOutcome,
    baseline: &RunOutcome,
) -> Divergence {
    let trace = run.trace();
    let shrunk = shrink(workload, cfg, &trace, baseline);
    Divergence {
        trace,
        shrunk,
        digests: run.digests.clone(),
        wedged: run.verdict != Verdict::Completed,
    }
}

/// Enumerate the full decision tree of `workload` (up to
/// `cfg.max_schedules` leaves) without partial-order reduction,
/// comparing every schedule's digests and `depend_interval` vectors
/// against the all-defaults baseline. Stops at the first divergence,
/// which is shrunk before reporting.
pub fn explore_exhaustive(workload: &Workload, cfg: &ExploreConfig) -> ExploreReport {
    let rcfg = cfg.runner();
    let baseline = run_with(workload, Trace::new(), &rcfg);
    let mut report = ExploreReport::new(&baseline);
    if baseline.verdict != Verdict::Completed {
        report.divergence = Some(make_divergence(workload, &rcfg, &baseline, &baseline));
        return report;
    }
    let mut last = baseline.clone();
    loop {
        let Some(prefix) = next_prefix(&last) else {
            report.exhausted = true;
            return report;
        };
        if report.schedules >= cfg.max_schedules {
            return report;
        }
        let run = run_with(workload, prefix, &rcfg);
        report.absorb(&run);
        if !run.agrees_with(&baseline) {
            report.divergence = Some(make_divergence(workload, &rcfg, &run, &baseline));
            return report;
        }
        last = run;
    }
}

/// Walk `cfg.samples` seeded random schedules of `workload`, comparing
/// each against the all-defaults baseline. For decision trees too
/// large to enumerate; never sets `exhausted`.
pub fn explore_sampled(workload: &Workload, cfg: &ExploreConfig) -> ExploreReport {
    let rcfg = cfg.runner();
    let baseline = run_with(workload, Trace::new(), &rcfg);
    let mut report = ExploreReport::new(&baseline);
    if baseline.verdict != Verdict::Completed {
        report.divergence = Some(make_divergence(workload, &rcfg, &baseline, &baseline));
        return report;
    }
    for i in 0..cfg.samples {
        if report.schedules >= cfg.max_schedules {
            return report;
        }
        let mut d = SeededDecider::new(splitmix64(cfg.seed ^ (i as u64)));
        let run = run_schedule_cfg(workload, &mut d, &rcfg);
        report.absorb(&run);
        if !run.agrees_with(&baseline) {
            report.divergence = Some(make_divergence(workload, &rcfg, &run, &baseline));
            return report;
        }
    }
    report
}

// -------------------------------------------------------------------
// DPOR: sleep-set depth-first search over the schedule tree
// -------------------------------------------------------------------

/// Two actions are dependent when executing them in either order can
/// yield different states or different enabled sets. Conservative
/// over-approximation; see `DESIGN.md` §12 for the commutation
/// argument behind each arm.
fn dependent(a: &Alt, b: &Alt) -> bool {
    match (a, b) {
        // Extractions at different ranks touch disjoint kernels; new
        // sends they trigger only park frames on disjoint channels.
        (Alt::Deliver { rank: r1, .. }, Alt::Deliver { rank: r2, .. }) => r1 == r2,
        // Releases into different destinations touch disjoint arrival
        // queues (their ack traffic lands on per-peer channels, which
        // commute); into the same destination they race on arrival
        // order, which ANY_SOURCE extraction can observe.
        (Alt::Release { dst: d1, .. }, Alt::Release { dst: d2, .. }) => d1 == d2,
        // A release into rank r races with r's own extraction (it can
        // change which sources are eligible); into any other rank it
        // commutes with the extraction.
        (Alt::Deliver { rank, .. }, Alt::Release { dst, .. })
        | (Alt::Release { dst, .. }, Alt::Deliver { rank, .. }) => rank == dst,
        // Faults are dependent with everything: a crash changes every
        // rank's world (channels drained, recovery traffic), so no
        // commutation is claimed.
        _ => true,
    }
}

/// One node on the DFS stack: the alternatives that were legal there,
/// which one the current path takes, the sleep set the node was first
/// entered with, and the branches already fully explored.
struct Frame {
    alts: Vec<Alt>,
    picked: usize,
    sleep_entry: BTreeSet<Alt>,
    done: BTreeSet<Alt>,
}

impl Frame {
    fn action(&self) -> Alt {
        self.alts[self.picked]
    }

    /// The sleep set for the subtree under the currently picked
    /// branch: everything asleep on entry plus every sibling already
    /// explored, filtered down to what commutes with the pick.
    fn child_sleep(&self) -> BTreeSet<Alt> {
        let b = self.action();
        self.sleep_entry
            .iter()
            .chain(self.done.iter())
            .filter(|x| !dependent(x, &b))
            .cloned()
            .collect()
    }
}

/// Replays a planned pick at every prefix step, then switches to
/// "first non-slept alternative" with the sleep set evolving by the
/// independence rule — abandoning the run if every alternative at
/// some step is asleep.
struct DporDecider {
    plan: Vec<usize>,
    pos: usize,
    sleep: BTreeSet<Alt>,
}

impl Decider for DporDecider {
    fn choose(&mut self, alts: &[Alt]) -> Option<usize> {
        let pick = if self.pos < self.plan.len() {
            self.plan[self.pos]
        } else {
            alts.iter().position(|a| !self.sleep.contains(a))?
        };
        if self.pos >= self.plan.len() {
            let b = alts[pick];
            self.sleep.retain(|x| !dependent(x, &b));
        }
        self.pos += 1;
        Some(pick)
    }
}

/// DPOR exploration: the full schedule tree of `workload` — fault
/// choice points included, per `cfg.faults` — searched depth-first and
/// reduced by sleep sets. Every completed schedule is compared against
/// the all-defaults fault-free baseline; exploration stops at the
/// first divergence (shrunk before reporting). With reduction,
/// `schedules` is typically a small fraction of what
/// [`explore_exhaustive`] visits for the same configuration, while
/// `digests_seen` covers the same set.
pub fn explore_dpor(workload: &Workload, cfg: &ExploreConfig) -> ExploreReport {
    let rcfg = cfg.runner();
    let baseline = run_with(workload, Trace::new(), &rcfg);
    let mut report = ExploreReport::new(&baseline);
    if baseline.verdict != Verdict::Completed {
        report.divergence = Some(make_divergence(workload, &rcfg, &baseline, &baseline));
        return report;
    }
    let Some(first) = baseline.steps.first() else {
        // No steps at all — the baseline is the only schedule.
        report.exhausted = true;
        return report;
    };

    // The baseline above is re-executed as the search's first run
    // (root branch 0, empty sleep), so it is not counted here.
    report.schedules = 0;
    report.wedged = 0;
    let mut frames = vec![Frame {
        alts: first.alts.clone(),
        picked: 0,
        sleep_entry: BTreeSet::new(),
        done: BTreeSet::new(),
    }];

    // Sleep-blocked abandonments count against the budget too.
    for _ in 0..cfg.max_schedules {
        let plan: Vec<usize> = frames.iter().map(|f| f.picked).collect();
        let frontier = frames.last().expect("nonempty stack").child_sleep();
        let mut decider = DporDecider {
            plan,
            pos: 0,
            sleep: frontier.clone(),
        };
        let run = run_schedule_cfg(workload, &mut decider, &rcfg);

        if run.verdict == Verdict::Aborted {
            report.sleep_blocked += 1;
            report.max_arity = report.max_arity.max(run.max_arity());
        } else {
            report.absorb(&run);
            if !run.agrees_with(&baseline) {
                report.divergence = Some(make_divergence(workload, &rcfg, &run, &baseline));
                return report;
            }
        }

        // Extend the stack with the steps the run executed beyond the
        // planned prefix, threading the sleep set forward.
        let prefix = frames.len();
        let mut sleep = frontier;
        for step in &run.steps[prefix.min(run.steps.len())..] {
            let next = {
                let b = step.alts[step.picked];
                sleep
                    .iter()
                    .filter(|x| !dependent(x, &b))
                    .cloned()
                    .collect()
            };
            frames.push(Frame {
                alts: step.alts.clone(),
                picked: step.picked,
                sleep_entry: sleep,
                done: BTreeSet::new(),
            });
            sleep = next;
        }

        // Backtrack: mark the current branch done at the deepest
        // frame, advance to its next unexplored non-slept sibling, or
        // pop. An empty stack means the whole tree was explored.
        loop {
            let Some(top) = frames.last_mut() else {
                report.exhausted = true;
                return report;
            };
            let cur = top.action();
            top.done.insert(cur);
            let next = top
                .alts
                .iter()
                .position(|a| !top.done.contains(a) && !top.sleep_entry.contains(a));
            match next {
                Some(i) => {
                    top.picked = i;
                    break;
                }
                None => {
                    frames.pop();
                }
            }
        }
    }
    report
}

/// Greedily minimize `trace` while it still disagrees with `baseline`:
/// chop decisions off the tail (positions past the end of a trace
/// replay as branch 0), then zero each remaining nonzero decision,
/// then drop trailing zeros (replay-identical). The result replays to
/// the same class of failure with, typically, a fraction of the
/// decisions.
pub fn shrink(
    workload: &Workload,
    cfg: &RunnerConfig,
    trace: &Trace,
    baseline: &RunOutcome,
) -> Trace {
    let fails = |t: Trace| !run_with(workload, t, cfg).agrees_with(baseline);
    let mut cur: Vec<usize> = trace.as_slice().to_vec();

    while !cur.is_empty() {
        let cand: Trace = cur[..cur.len() - 1].to_vec().into();
        if fails(cand) {
            cur.pop();
        } else {
            break;
        }
    }

    for i in 0..cur.len() {
        if cur[i] != 0 {
            let mut cand = cur.clone();
            cand[i] = 0;
            if fails(cand.clone().into()) {
                cur = cand;
            }
        }
    }

    while cur.last() == Some(&0) {
        cur.pop();
    }
    cur.into()
}
