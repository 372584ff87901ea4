//! # lclog-explore
//!
//! Deterministic simulation and schedule exploration for the paper's
//! central §III.E claim: **TDI delivery is order-insensitive** — any
//! delivery order the runtime's gate admits (per-sender FIFO plus the
//! protocol's dependency constraint) converges to the same application
//! results and the same `depend_interval` vectors.
//!
//! The crate turns that claim from "observed under a few seeds" into a
//! checked property:
//!
//! * [`run_schedule`] executes a [`Workload`] over *real* kernels
//!   ([`lclog_runtime::Kernel`]) on a single thread, with the fabric in
//!   [`DeliveryModel::Held`] mode (no release times — envelopes park
//!   until the scheduler releases them) and every kernel-path timestamp
//!   pinned to a [`SimClock`]. The only remaining non-determinism is
//!   the explicit choice sequence, so a run is a pure function of
//!   `(workload, trace)`.
//! * A [`Decider`] supplies those choices: which held **data** envelope
//!   to release next (arrival-order permutation) and which eligible
//!   sender an `ANY_SOURCE` receive extracts (the `RecvQueue` choice
//!   point). Control frames (acks, heartbeats) are flushed eagerly —
//!   they cannot change application-visible behavior while virtual
//!   time is frozen, so branching on them would only pad the tree.
//! * **Faults are choice points too.** With a nonzero [`FaultBudget`]
//!   the scheduler may, at any quiescent step, crash a rank
//!   ([`Alt::Crash`]), crash it *and* wipe its stable storage
//!   ([`Alt::CrashWipe`]), or force the failure detector's hand
//!   ([`Alt::Suspect`] — a verdict `true` kills the suspect, `false`
//!   fences a live rank as a zombie). Recovery, replay, and fencing
//!   then run over the same held fabric, so crash-interleaved
//!   schedules stay pure functions of `(workload, trace)` and their
//!   digests must *still* match the fault-free baseline.
//! * [`explore_exhaustive`] enumerates the full decision tree by
//!   trace-prefix re-execution (the stateless-model-checking loop);
//!   [`explore_sampled`] walks seeded random schedules when the tree
//!   is too large. Both compare every run's per-rank digests and
//!   TDI `depend_interval` vectors against the first run.
//! * [`explore_dpor`] covers the same tree with dynamic partial-order
//!   reduction: an independence relation over [`Alt`]s drives sleep
//!   sets that skip schedules equivalent to ones already executed.
//!   Same digest census, a fraction of the executions; see
//!   `DESIGN.md` §12.
//! * On divergence, [`shrink`] greedily minimizes the offending
//!   [`Trace`] — truncating the tail and zeroing decisions while the
//!   mismatch reproduces — so the report carries a minimal replayable
//!   counterexample instead of a thousand-step schedule. Schedules
//!   that stop making progress are first-class outcomes
//!   ([`Verdict::Wedged`]) rather than watchdog timeouts.
//!
//! [`DeliveryModel::Held`]: lclog_simnet::DeliveryModel::Held
//! [`SimClock`]: lclog_simnet::SimClock

#![warn(missing_docs)]

mod decider;
mod explorer;
mod replay;
mod runner;
mod trace;
mod workload;

pub use decider::{Decider, FirstDecider, SeededDecider, TraceDecider};
pub use explorer::{
    explore_dpor, explore_exhaustive, explore_sampled, shrink, Divergence, ExploreConfig,
    ExploreReport,
};
pub use replay::{replay_trace, ReplayCase, ReplayStep};
pub use runner::{
    run_schedule, run_schedule_cfg, run_schedule_with, Alt, FaultBudget, RunOutcome, RunnerConfig,
    Step, Verdict,
};
pub use trace::Trace;
pub use workload::{Fold, Op, Payload, Workload};
