//! Deterministic single-threaded execution of a [`Workload`] over real
//! [`Kernel`]s — including crash and wipe injection as schedule choice
//! points.
//!
//! The runner owns everything that is normally concurrent: the fabric
//! runs in [held mode](lclog_simnet::DeliveryModel::Held) so sends park
//! in per-`(src, dst)` FIFOs instead of racing each other, every
//! kernel-path timestamp reads a shared [`SimClock`], and there are no
//! engine threads — the runner drives `ingest`/`try_deliver` itself.
//! The fabric is reliable, so each application message crosses it
//! exactly once (a recovery resend is a new send) and the degrees of
//! freedom left are exactly the ones the explorer wants to permute:
//!
//! 1. **arrival order** — which held data frame is released next
//!    (subject to per-channel FIFO, the same guarantee real MPI gives);
//! 2. **extraction order** — which eligible sender an `ANY_SOURCE`
//!    receive takes (the `RecvQueue` choice the paper's
//!    order-insensitivity argument is about);
//! 3. **fault placement** — when a rank crashes ([`Alt::Crash`]), and
//!    when it crashes *and* loses its local store ([`Alt::CrashWipe`]).
//!    Failures are announced, as the paper assumes: the crash and the
//!    successor's start are one step.
//!
//! Everything else is *forced* and executed eagerly to a fixpoint
//! between choice points: endpoint drains, protocol-frame flushes
//! (rendezvous acks, checkpoint notices, `ROLLBACK`/`RESPONSE` — they
//! cannot change application-visible behavior while the clock is
//! frozen), sends, source-specific
//! receives (delivery order already fixed by channel FIFO) and
//! checkpoints at fixed program positions. An injected fault goes
//! through the runtime's own incarnation lifecycle ([`RunEnv::lose`] /
//! [`RunEnv::respawn`], the code every engine runs) and recovery rides the *real* protocol
//! machinery — `begin_recovery`, `ROLLBACK` broadcast, survivor
//! `RESPONSE`s and sender-log resends — with the resent data
//! frames parking in held channels like any other send, so the
//! interleaving of recovery traffic with ordinary traffic is itself
//! explored.
//!
//! After every step the runner checks that log GC never freed an entry
//! a permitted rollback still needs; a run that breaks it ends as
//! [`Verdict::LogFreed`].

use std::time::Duration;

use bytes::Bytes;
use lclog_core::{CounterVector, ProtocolKind, Rank};
use lclog_runtime::{
    payload_is_app_frame, AppMsg, CheckpointImage, CheckpointPolicy, Clock, ClusterConfig, Death,
    Kernel, RecvSpec, RunConfig, RunEnv, RETRY_INTERVAL,
};
use lclog_simnet::{Endpoint, NetConfig, SimClock};

use crate::decider::Decider;
use crate::trace::Trace;
use crate::workload::{Op, Workload};

/// A legal next action at a choice point. The runner enumerates these
/// in a deterministic order (extractions by rank in arrival order,
/// then releases in sorted channel order, then fault alternatives), so
/// branch indices are stable across replays of the same prefix — and
/// index 0 is never a fault while a regular action exists, which keeps
/// the all-defaults baseline schedule fault-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Alt {
    /// Extract the queued deliverable message from `src` for the
    /// `ANY_SOURCE` receive `rank` is blocked on.
    Deliver {
        /// The receiving rank.
        rank: Rank,
        /// The sender whose queued message is extracted.
        src: Rank,
        /// The receive's application tag.
        tag: u32,
    },
    /// Release the held data frame at the head of channel `src → dst`.
    Release {
        /// Channel source.
        src: Rank,
        /// Channel destination.
        dst: Rank,
    },
    /// Kill `rank` and respawn it at once through checkpoint
    /// restore + rollback recovery. In-flight frames *toward* the rank
    /// die with it; frames it already sent stay in flight (a real
    /// crash cannot recall datagrams).
    Crash {
        /// The victim.
        rank: Rank,
    },
    /// [`Alt::Crash`] plus node loss: the victim's local checkpoint
    /// store is wiped, so the respawn restores from scratch and
    /// replays its whole program under survivor log resends.
    CrashWipe {
        /// The victim.
        rank: Rank,
    },
}

impl std::fmt::Display for Alt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Alt::Deliver { rank, src, tag } => write!(f, "deliver {rank}<-{src} tag {tag}"),
            Alt::Release { src, dst } => write!(f, "release {src}->{dst}"),
            Alt::Crash { rank } => write!(f, "crash {rank}"),
            Alt::CrashWipe { rank } => write!(f, "crash+wipe {rank}"),
        }
    }
}

/// How many fault choice points a single schedule may take. Faults are
/// offered as alternatives at every choice point that still has a
/// regular action, each category drawing down its own budget; all-zero
/// (the default) reproduces fault-free exploration exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultBudget {
    /// Crash+respawn injections ([`Alt::Crash`]).
    pub crashes: usize,
    /// Crash+store-wipe injections ([`Alt::CrashWipe`]).
    pub wipes: usize,
    /// Fault alternatives are only offered during the first `window`
    /// executed steps of a schedule (`0` = anywhere). Faults are
    /// dependent with everything, so the fault-position axis is not
    /// DPOR-reducible — the window is the explicit bound that keeps
    /// larger matrices (e.g. the exhaustive n=4 single-crash table)
    /// finite, trading late-schedule injection points (whose recovery
    /// has the least left to replay) for tractability.
    pub window: usize,
}

impl FaultBudget {
    /// No faults — pure schedule exploration.
    pub fn none() -> Self {
        FaultBudget::default()
    }

    /// Total injections this budget still allows.
    pub fn total(&self) -> usize {
        self.crashes + self.wipes
    }
}

/// Everything the runner needs besides the workload and the decider.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Tracking protocol under test.
    pub protocol: ProtocolKind,
    /// Fault choice points a schedule may spend.
    pub faults: FaultBudget,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            protocol: ProtocolKind::Tdi,
            faults: FaultBudget::none(),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every rank finished its program and no recovery is pending.
    Completed,
    /// The schedule stalled: unfinished ranks exist but no legal
    /// action does. Surfaced as a first-class outcome (with the trace
    /// that reached it) instead of tripping a wall-clock watchdog.
    Wedged {
        /// Ranks with program steps left (or stuck mid-recovery).
        unfinished: Vec<Rank>,
    },
    /// Some kernel flagged a tracking desync (always a defect).
    Desynced,
    /// A sender log freed an entry that a rollback the receiver may
    /// still take needs (always a defect; checked after every step).
    LogFreed {
        /// The rank whose sender log lost the entry.
        sender: Rank,
        /// The rank whose rollback would need it.
        receiver: Rank,
        /// The first missing `send_index` on that channel.
        send_index: u64,
    },
    /// The decider abandoned the run (`choose` returned `None`) — the
    /// DPOR engine prunes sleep-blocked continuations this way. Not a
    /// defect and not a distinct schedule.
    Aborted,
}

/// One executed step: the full alternative set that was legal at that
/// point (in canonical order) and the branch taken. Forced steps
/// (arity 1) are recorded too — the DPOR engine needs every executed
/// action to maintain its sleep sets, even where no branching was
/// possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The legal alternatives, canonically ordered.
    pub alts: Vec<Alt>,
    /// Index of the alternative executed.
    pub picked: usize,
}

impl Step {
    /// The action this step executed.
    pub fn action(&self) -> Alt {
        self.alts[self.picked]
    }
}

/// Everything observable about one schedule's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Final fold state per rank — the application-visible result.
    pub digests: Vec<u64>,
    /// Final `depend_interval` vector per rank (`None` for protocols
    /// that do not maintain one). Always the *canonicalized dense*
    /// form — sparse tracking (TDI-S) reports its materialized dense
    /// vector — so outcomes from different codecs of the same protocol
    /// cross-check directly.
    pub interval_vectors: Vec<Option<Vec<u64>>>,
    /// Every executed step with its full alternative set.
    pub steps: Vec<Step>,
    /// Messages delivered to application receives across all ranks
    /// (re-deliveries after a rollback count — a crashed schedule
    /// legitimately delivers more than a fault-free one).
    pub delivered: usize,
    /// Fault alternatives this schedule actually took.
    pub faults_injected: usize,
    /// How the run ended.
    pub verdict: Verdict,
}

impl RunOutcome {
    /// The trace that replays this exact schedule: the branch taken at
    /// each choice point with two or more alternatives (forced steps
    /// replay for free).
    pub fn trace(&self) -> Trace {
        self.steps
            .iter()
            .filter(|s| s.alts.len() >= 2)
            .map(|s| s.picked)
            .collect()
    }

    /// Largest branching factor seen at any step.
    pub fn max_arity(&self) -> usize {
        self.steps.iter().map(|s| s.alts.len()).max().unwrap_or(1)
    }

    /// Whether this outcome matches `baseline` in every property the
    /// order-insensitivity claim covers: it completed, and both the
    /// per-rank digests and the per-rank `depend_interval` vectors are
    /// identical. Faulty schedules are held to the *same* bar — crash
    /// and wipe recovery must converge to the fault-free result.
    pub fn agrees_with(&self, baseline: &RunOutcome) -> bool {
        self.verdict == Verdict::Completed
            && self.digests == baseline.digests
            && self.interval_vectors == baseline.interval_vectors
    }
}

/// Execute `workload` under the schedule `decider` dictates and return
/// the outcome, using dense TDI tracking and no faults. A run is a
/// pure function of `(workload, decisions)`: replaying the returned
/// [`RunOutcome::trace`] through a [`crate::TraceDecider`] reproduces
/// it exactly.
pub fn run_schedule(workload: &Workload, decider: &mut dyn Decider) -> RunOutcome {
    run_schedule_cfg(workload, decider, &RunnerConfig::default())
}

/// [`run_schedule`] with an explicit tracking protocol. Running the
/// same `(workload, trace)` under [`ProtocolKind::Tdi`] and
/// [`ProtocolKind::TdiSparse`] must produce outcomes that agree — the
/// sparse codec is a wire encoding of the same lattice, and
/// [`RunOutcome::interval_vectors`] is canonicalized dense on both
/// sides.
pub fn run_schedule_with(
    workload: &Workload,
    decider: &mut dyn Decider,
    kind: ProtocolKind,
) -> RunOutcome {
    run_schedule_cfg(
        workload,
        decider,
        &RunnerConfig {
            protocol: kind,
            faults: FaultBudget::none(),
        },
    )
}

/// Escape-hatch bound: how many times a stalled run may advance the
/// virtual clock past the retry interval and tick every kernel to let
/// time-driven recovery machinery (rollback rebroadcast to a peer that
/// was dead at first broadcast) fire. Past this, the run is wedged.
const MAX_TICK_ESCAPES: usize = 16;

/// The runner's per-run mutable world: real kernels over a held
/// fabric, plus the bookkeeping fault injection needs.
struct World<'w> {
    workload: &'w Workload,
    n: usize,
    clock: SimClock,
    /// The runtime's own incarnation lifecycle: the crash, wipe and
    /// respawn the explorer injects are the ones that ship.
    env: RunEnv,
    kernels: Vec<Kernel>,
    endpoints: Vec<Endpoint>,
    state: Vec<u64>,
    pc: Vec<usize>,
    incarnation: Vec<u64>,
    /// Per rank, what the oldest generation a restore may fall back to
    /// delivered from each sender (`None`: the initial state). Under
    /// `log_gc_lag` that is the generation before the newest; re-read
    /// whenever the rank's checkpoint store changes.
    fallback: Vec<Option<CounterVector>>,
    delivered: usize,
    faults_injected: usize,
}

impl<'w> World<'w> {
    fn new(workload: &'w Workload, kind: ProtocolKind) -> Self {
        let n = workload.n;
        let clock = SimClock::new();
        // `log_gc_lag` keeps one checkpoint generation of sender logs
        // resendable past the GC horizon — the runtime's contract for
        // node-loss restores, and what makes `Alt::CrashWipe` (restore
        // falls back past the wiped checkpoint) recoverable.
        let run = RunConfig::new(kind)
            .with_checkpoint(CheckpointPolicy::Never)
            .with_log_gc_lag(true)
            .with_clock(Clock::Sim(clock.clone()));
        let cfg = ClusterConfig::new(n, run).with_net(NetConfig::held());
        let env = RunEnv::open(&cfg).expect("in-memory storage opens");
        let endpoints = env.attach();
        World {
            workload,
            n,
            clock,
            kernels: (0..n).map(|r| env.boot(r)).collect(),
            env,
            endpoints,
            state: vec![0u64; n],
            pc: vec![0usize; n],
            incarnation: vec![1u64; n],
            fallback: vec![None; n],
            delivered: 0,
            faults_injected: 0,
        }
    }

    fn done(&self, r: Rank) -> bool {
        self.pc[r] >= self.workload.programs[r].len()
    }

    /// A rank's program may run: it is not mid-recovery.
    fn runnable(&self, r: Rank) -> bool {
        !self.kernels[r].is_recovering()
    }

    fn read_fallback(&mut self, r: Rank) {
        let generations = self.env.checkpoints().intact_generations(r);
        self.fallback[r] = generations.len().checked_sub(2).map(|older| {
            let image: CheckpointImage = lclog_wire::decode_from_slice(&generations[older].1)
                .expect("the kernel wrote this image");
            image.last_deliver
        });
    }

    fn checkpoint_if_due(&mut self, r: Rank) {
        let Some(every) = self.workload.checkpoint_every else {
            return;
        };
        let pc = self.pc[r] as u64;
        if pc > 0 && pc.is_multiple_of(every) {
            let mut bytes = Vec::with_capacity(16);
            bytes.extend_from_slice(&pc.to_le_bytes());
            bytes.extend_from_slice(&self.state[r].to_le_bytes());
            self.kernels[r].do_checkpoint(bytes, pc);
            self.read_fallback(r);
        }
    }

    /// Phase 1: run every forced action to a fixpoint. Returns whether
    /// anything at all happened (the escape hatch uses this).
    fn forced_fixpoint(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut progress = false;

            // Surface released envelopes into the kernels.
            for r in 0..self.n {
                while let Ok(env) = self.endpoints[r].try_recv() {
                    self.kernels[r].ingest(env);
                    progress = true;
                }
            }

            // Flush protocol frames (acks, checkpoint advances,
            // rollback/response traffic) at channel heads. Application frames stay parked —
            // releasing them is a choice.
            for (src, dst, _) in self.env.net().held_channels() {
                if src >= self.n || dst >= self.n {
                    continue;
                }
                while let Some(head) = self.env.net().held_head(src, dst) {
                    if payload_is_app_frame(&head) {
                        break;
                    }
                    self.env.net().held_deliver(src, dst);
                    progress = true;
                }
            }

            // Run forced program steps: sends always, source-specific
            // receives when deliverable. ANY_SOURCE receives stop the
            // rank — they are the extraction choice point.
            for r in 0..self.n {
                if !self.runnable(r) {
                    continue;
                }
                while self.pc[r] < self.workload.programs[r].len() {
                    match self.workload.programs[r][self.pc[r]] {
                        Op::Send { dst, tag } => {
                            let value = self.workload.payload.value(r, self.pc[r], self.state[r]);
                            self.kernels[r].app_send(
                                dst,
                                tag,
                                Bytes::copy_from_slice(&value.to_le_bytes()),
                                false,
                            );
                            self.pc[r] += 1;
                            self.checkpoint_if_due(r);
                            progress = true;
                        }
                        Op::Recv { src: Some(s), tag } => {
                            match self.kernels[r].try_deliver(RecvSpec::from(s, tag)) {
                                Some(msg) => {
                                    self.state[r] =
                                        self.workload.fold.apply(self.state[r], decode(&msg));
                                    self.delivered += 1;
                                    self.pc[r] += 1;
                                    self.checkpoint_if_due(r);
                                    progress = true;
                                }
                                None => break,
                            }
                        }
                        Op::Recv { src: None, .. } => break,
                    }
                }
            }

            if !progress {
                return any;
            }
            any = true;
        }
    }

    /// Kill + respawn `rank` through the real recovery machinery.
    /// In-flight frames toward the victim die with it (the fabric's
    /// crash semantics); frames it already sent stay parked — a crash
    /// cannot recall datagrams, and the survivors' dedup machinery
    /// must absorb whichever copies the schedule later releases.
    fn crash_respawn(&mut self, rank: Rank, death: Death) {
        let pc = self.pc[rank] as u64;
        self.env.lose(rank, pc, &self.kernels[rank], death);
        self.read_fallback(rank);
        self.incarnation[rank] += 1;
        // `checkpoint_if_due` images are `pc | state`, 8 bytes each.
        let (kernel, endpoint, restored) = self.env.respawn(rank, self.incarnation[rank], |app| {
            Some(u64::from_le_bytes(app.get(8..16)?.try_into().ok()?))
        });
        let (pc, state) = restored.unwrap_or((0, 0));
        self.pc[rank] = pc as usize;
        self.state[rank] = state;
        self.kernels[rank] = kernel;
        self.endpoints[rank] = endpoint;
    }

    fn execute(&mut self, alt: Alt) {
        match alt {
            Alt::Deliver { rank, src, tag } => {
                if let Some(msg) = self.kernels[rank].try_deliver(RecvSpec::from(src, tag)) {
                    self.state[rank] = self.workload.fold.apply(self.state[rank], decode(&msg));
                    self.delivered += 1;
                    self.pc[rank] += 1;
                    self.checkpoint_if_due(rank);
                }
            }
            Alt::Release { src, dst } => {
                self.env.net().held_deliver(src, dst);
            }
            Alt::Crash { rank } => {
                self.faults_injected += 1;
                self.crash_respawn(rank, Death::Process);
            }
            Alt::CrashWipe { rank } => {
                self.faults_injected += 1;
                self.crash_respawn(rank, Death::Node { torn_upload: false });
            }
        }
    }

    /// Phase 2: enumerate the legal alternatives in canonical order —
    /// extractions by rank (sources in the queue's arrival order, as
    /// the runtime itself would prefer them), then releases in the
    /// fabric's sorted channel order, then fault alternatives (crashes
    /// by rank, then wipes by rank). The
    /// canonical order keeps branch indices stable across replays and
    /// guarantees index 0 is never a fault while a regular action
    /// exists.
    fn enumerate_alts(&self, budget: &FaultBudget, step_idx: usize) -> Vec<Alt> {
        let mut alts: Vec<Alt> = Vec::new();
        for r in 0..self.n {
            if !self.runnable(r) {
                continue;
            }
            if let Some(Op::Recv { src: None, tag }) =
                self.workload.programs[r].get(self.pc[r]).copied()
            {
                for s in self.kernels[r].deliverable_sources(RecvSpec::any_source(tag)) {
                    alts.push(Alt::Deliver { rank: r, src: s, tag });
                }
            }
        }
        for (src, dst, len) in self.env.net().held_channels() {
            if src >= self.n || dst >= self.n || len == 0 {
                continue;
            }
            if let Some(head) = self.env.net().held_head(src, dst) {
                if payload_is_app_frame(&head) {
                    alts.push(Alt::Release { src, dst });
                }
            }
        }
        // Faults are offered only where a regular action exists
        // ("injectable before any enabled delivery") and only while
        // the system is quiescent fault-wise: no recovery in flight.
        // Targets must be alive and still have program left — crashing
        // a finished rank only re-runs an already-counted result.
        let in_window = budget.window == 0 || step_idx < budget.window;
        if !alts.is_empty() && budget.total() > 0 && in_window {
            let quiescent = (0..self.n).all(|r| !self.kernels[r].is_recovering());
            if quiescent {
                let eligible: Vec<Rank> = (0..self.n)
                    .filter(|&r| self.env.net().is_alive(r) && !self.done(r))
                    .collect();
                if budget.crashes > 0 {
                    alts.extend(eligible.iter().map(|&rank| Alt::Crash { rank }));
                }
                if budget.wipes > 0 {
                    alts.extend(eligible.iter().map(|&rank| Alt::CrashWipe { rank }));
                }
            }
        }
        alts
    }

    fn finished(&self) -> bool {
        (0..self.n).all(|r| self.done(r) && !self.kernels[r].is_recovering())
    }

    fn unfinished(&self) -> Vec<Rank> {
        (0..self.n)
            .filter(|&r| !self.done(r) || self.kernels[r].is_recovering())
            .collect()
    }

    /// Algorithm 1's log-GC rule, checked after every step: for each
    /// sender `k` and receiver `r`, `k`'s log still holds every entry
    /// to `r` above what the oldest generation `r` may restore
    /// delivered from `k`.
    fn log_gc_violation(&self) -> Option<Verdict> {
        for receiver in 0..self.n {
            for sender in (0..self.n).filter(|&k| k != receiver) {
                let after = self.fallback[receiver]
                    .as_ref()
                    .map_or(0, |v| v.get(sender));
                if let Some(send_index) = self.kernels[sender].log_gap(receiver, after) {
                    return Some(Verdict::LogFreed {
                        sender,
                        receiver,
                        send_index,
                    });
                }
            }
        }
        None
    }

    fn outcome(&self, steps: Vec<Step>, verdict: Verdict) -> RunOutcome {
        RunOutcome {
            digests: self.state.clone(),
            interval_vectors: self.kernels.iter().map(|k| k.interval_vector()).collect(),
            steps,
            delivered: self.delivered,
            faults_injected: self.faults_injected,
            verdict,
        }
    }
}

/// The full-control entry point: explicit protocol *and* fault budget.
/// Fault alternatives appear at choice points while their budget
/// lasts; with an all-zero budget this is exactly fault-free
/// exploration.
pub fn run_schedule_cfg(
    workload: &Workload,
    decider: &mut dyn Decider,
    cfg: &RunnerConfig,
) -> RunOutcome {
    let mut world = World::new(workload, cfg.protocol);
    let mut budget = cfg.faults;
    let mut steps: Vec<Step> = Vec::new();
    let mut escapes = 0usize;

    loop {
        world.forced_fixpoint();
        if world.kernels.iter().any(|k| k.is_desynced()) {
            return world.outcome(steps, Verdict::Desynced);
        }
        if let Some(freed) = world.log_gc_violation() {
            return world.outcome(steps, freed);
        }
        if world.finished() {
            return world.outcome(steps, Verdict::Completed);
        }

        let alts = world.enumerate_alts(&budget, steps.len());
        if alts.is_empty() {
            // A recovery can be waiting on a retry-clock rebroadcast
            // (its first ROLLBACK went to a peer that was dead at the
            // time). Let bounded virtual time pass and tick every
            // kernel; if that changes nothing, the schedule is wedged.
            if escapes < MAX_TICK_ESCAPES
                && world.kernels.iter().any(|k| k.is_recovering())
            {
                escapes += 1;
                world.clock.advance(RETRY_INTERVAL + Duration::from_millis(1));
                for r in 0..world.n {
                    if world.env.net().is_alive(r) {
                        world.kernels[r].tick();
                    }
                }
                continue;
            }
            let unfinished = world.unfinished();
            return world.outcome(steps, Verdict::Wedged { unfinished });
        }

        let Some(idx) = decider.choose(&alts) else {
            return world.outcome(steps, Verdict::Aborted);
        };
        let idx = idx.min(alts.len() - 1);
        let alt = alts[idx];
        match alt {
            Alt::Crash { .. } => budget.crashes -= 1,
            Alt::CrashWipe { .. } => budget.wipes -= 1,
            _ => {}
        }
        steps.push(Step {
            alts,
            picked: idx,
        });
        world.execute(alt);

        // Nudge virtual time so successive events carry distinct
        // timestamps; far below any resend interval, and the runner
        // only ticks inside the bounded escape hatch above, so no
        // timed resend can fire spontaneously.
        world.clock.advance(Duration::from_micros(1));
    }
}

fn decode(msg: &AppMsg) -> u64 {
    let mut b = [0u8; 8];
    let len = msg.data.len().min(8);
    b[..len].copy_from_slice(&msg.data[..len]);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Fold;
    use lclog_stable::CheckpointStore;

    /// The log-GC check fires on a state missing one needed entry.
    /// Rank 1 checkpoints after each of two deliveries from rank 0,
    /// which under `log_gc_lag` frees send 1 — legal while the older
    /// generation remains as the fallback. Losing it makes the initial
    /// state the fallback, and that rollback needs send 1.
    #[test]
    fn log_gc_check_fires_on_a_freed_entry_a_rollback_needs() {
        let mut w = Workload::new(2, Fold::Commutative).with_checkpoints(1);
        for _ in 0..2 {
            w.push(0, Op::Send { dst: 1, tag: 0 });
            w.push(1, Op::Recv { src: Some(0), tag: 0 });
        }
        let mut world = World::new(&w, ProtocolKind::Tdi);
        while !world.finished() {
            world.forced_fixpoint();
            if let Some(&alt) = world.enumerate_alts(&FaultBudget::none(), 0).first() {
                world.execute(alt);
            }
        }
        assert_eq!(world.log_gc_violation(), None);
        world.env.checkpoints().storage().delete(&CheckpointStore::key(1, 1));
        world.read_fallback(1);
        assert_eq!(
            world.log_gc_violation(),
            Some(Verdict::LogFreed {
                sender: 0,
                receiver: 1,
                send_index: 1
            })
        );
    }
}
