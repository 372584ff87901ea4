//! Ranks as scheduler tasks: many rank state machines driven in
//! rounds by one thread.
//!
//! The thread engine ([`crate::Cluster`]) is the faithful Fig. 4
//! arrangement — one OS thread per rank — and tops out around n ≈ 64:
//! beyond that, thread stacks and context switches dominate and an
//! n = 1024 run is not even schedulable. This module runs the *same
//! kernels* (same transport, sender log, checkpointing, rollback
//! recovery) cooperatively instead: each rank is a [`TaskApp`] state
//! machine, and kernel time is a scheduler-advanced virtual clock. A
//! direct fabric runs in held mode, so delivery happens in
//! deterministic sweeps; a timed one (a latency model, or chaos
//! delays) keeps its release times, on the same virtual clock. One
//! thread drives a round at a time, so a run is a pure function of its
//! config: the same digests, messages, bytes, retransmissions and
//! chaos counters every time.
//!
//! A round is one sweep over every rank, in rank order:
//!
//! 1. drain the rank's fabric inbox into its kernel;
//! 2. lose and respawn the rank if the failure plan says to kill it,
//!    through the one lifecycle of [`crate::env`];
//! 3. poll a live rank's state machine up to a bounded budget
//!    (checkpointing between steps, exactly like the thread loop);
//! 4. tick the kernel (retransmission timers, resync-request drain,
//!    rollback rebroadcast);
//!
//! then one [`TaskJob::advance`]: release all held fabric channels,
//! advance the virtual clock (a timed fabric releases what then falls
//! due at the next sweep's drains), and arm the watchdog. Completion
//! leaves a rank serving its peers (drain + tick) until every rank is
//! done — the cooperative version of `serve_until_shutdown`.
//!
//! [`run_tasks`] drives a job on the caller's thread. Long-running
//! hosts (the `lclog-serve` service) hold many jobs and let any pool
//! thread claim a whole round of one with [`TaskJob::try_round`]; a
//! [`TasksEnv`] lets co-resident jobs share one stable-storage backend
//! and one replication pipeline.
//!
//! Unsupported in tasks mode (clean config errors from
//! [`TaskJob::new`]; use the thread engine): event-logger protocols
//! (TEL/PES — the stable service is a thread) and detected failures.

use crate::cluster::{ClusterConfig, RunReport};
use crate::engine::Engine;
use crate::env::{Death, RunEnv, TasksEnv};
use crate::fault::{Fault, StepStatus};
use crate::kernel::Kernel;
use crate::message::{AppMsg, RecvSpec};
use crate::process::{RankApp, RankCtx};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_simnet::{Clock, DeliveryModel, Endpoint, SimClock};
use lclog_wire::{Decode, Encode};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// What one poll of a task state machine produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// One application step completed — a checkpoint boundary, exactly
    /// like [`StepStatus::Continue`] in the thread engine.
    Step,
    /// Waiting on a message that has not arrived; poll again after the
    /// next delivery sweep. The task must NOT block its worker.
    Pending,
    /// The computation finished; the state's digest is final.
    Done,
}

/// A parallel application written as a poll-style state machine, the
/// cooperative counterpart of [`RankApp`].
///
/// The execution-model contract is the thread engine's: `poll` must be
/// a deterministic function of `(state, received messages)`, and a
/// recovered incarnation re-polls from its last checkpointed state
/// (re-sends are suppressed as repetitive by the kernel). The one new
/// rule: `poll` must never block — return [`TaskPoll::Pending`] and
/// park the partial progress in `state` instead.
pub trait TaskApp: Send + Sync + 'static {
    /// Serializable per-rank state, checkpointed between steps.
    type State: Encode + Decode + Send;

    /// Deterministic initial state of `rank` in an `n`-rank run.
    fn init(&self, rank: Rank, n: usize) -> Self::State;

    /// Advance the state machine as far as it can go without blocking.
    fn poll(&self, ctx: &mut TaskCtx<'_>, state: &mut Self::State) -> Result<TaskPoll, Fault>;

    /// A verification digest of the final state: identical across
    /// fault-free and recovered runs, and across engine modes.
    fn digest(&self, state: &Self::State) -> u64;
}

/// The runtime a task polls against: a bare kernel under the task
/// scheduler, or a full engine when a [`TaskApp`] runs inside the
/// thread engine via [`BlockingTaskApp`].
enum TaskIo<'a> {
    Kernel(&'a Kernel),
    Engine(&'a Engine),
}

/// The runtime handle passed to [`TaskApp::poll`] — the non-blocking
/// subset of [`RankCtx`].
pub struct TaskCtx<'a> {
    io: TaskIo<'a>,
    step: u64,
}

impl<'a> TaskCtx<'a> {
    fn for_kernel(kernel: &'a Kernel, step: u64) -> Self {
        TaskCtx {
            io: TaskIo::Kernel(kernel),
            step,
        }
    }

    pub(crate) fn for_engine(engine: &'a Engine, step: u64) -> Self {
        TaskCtx {
            io: TaskIo::Engine(engine),
            step,
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        match &self.io {
            TaskIo::Kernel(k) => k.me(),
            TaskIo::Engine(e) => e.me(),
        }
    }

    /// Number of application ranks.
    pub fn n(&self) -> usize {
        match &self.io {
            TaskIo::Kernel(k) => k.n(),
            TaskIo::Engine(e) => e.n(),
        }
    }

    /// The current application step index.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Send `data` to `dst` under `tag` (never blocks — under the task
    /// scheduler sends are buffered into the held fabric).
    pub fn send(&mut self, dst: Rank, tag: u32, data: &[u8]) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(data))
    }

    /// Zero-copy variant of [`TaskCtx::send`].
    pub fn send_bytes(&mut self, dst: Rank, tag: u32, data: Bytes) -> Result<(), Fault> {
        match &self.io {
            TaskIo::Kernel(k) => {
                k.app_send(dst, tag, data, false);
                Ok(())
            }
            TaskIo::Engine(e) => e.send(dst, tag, data),
        }
    }

    /// Send an [`Encode`]-able value.
    pub fn send_value<T: Encode>(&mut self, dst: Rank, tag: u32, value: &T) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::from(lclog_wire::encode_to_vec(value)))
    }

    /// Deliver the first queued message matching `spec` if its
    /// dependency gate opens right now; `Ok(None)` means return
    /// [`TaskPoll::Pending`] and try again after the next sweep.
    pub fn try_recv(&mut self, spec: RecvSpec) -> Result<Option<AppMsg>, Fault> {
        match &self.io {
            TaskIo::Kernel(k) => Ok(k.try_deliver(spec)),
            TaskIo::Engine(e) => e.try_recv(spec),
        }
    }

    /// Receive and decode a value. A payload that does not decode as
    /// `T` is wire input this incarnation cannot trust — it surfaces as
    /// [`Fault::Desync`] (crash-and-rebuild through the rollback path)
    /// rather than a process abort.
    pub fn try_recv_value<T: Decode>(
        &mut self,
        spec: RecvSpec,
    ) -> Result<Option<(Rank, T)>, Fault> {
        match self.try_recv(spec)? {
            None => Ok(None),
            Some(msg) => match lclog_wire::decode_from_slice(&msg.data) {
                Ok(value) => Ok(Some((msg.src, value))),
                Err(_) => Err(Fault::Desync),
            },
        }
    }
}

/// Adapter running a [`TaskApp`] under the thread engine: `step` polls
/// the state machine to its next step boundary, sleeping briefly on
/// [`TaskPoll::Pending`]. This is how one workload runs under both
/// engine modes, which is what makes cross-mode digest checks (and the
/// SC1 scaling table's small-n thread baselines) possible.
pub struct BlockingTaskApp<A>(pub A);

impl<A: TaskApp> RankApp for BlockingTaskApp<A> {
    type State = A::State;

    fn init(&self, rank: Rank, n: usize) -> Self::State {
        self.0.init(rank, n)
    }

    fn step(&self, ctx: &mut RankCtx<'_>, state: &mut Self::State) -> Result<StepStatus, Fault> {
        loop {
            let mut tctx = TaskCtx::for_engine(ctx.engine(), ctx.step());
            match self.0.poll(&mut tctx, state)? {
                TaskPoll::Step => return Ok(StepStatus::Continue),
                TaskPoll::Done => return Ok(StepStatus::Done),
                TaskPoll::Pending => std::thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    fn digest(&self, state: &Self::State) -> u64 {
        self.0.digest(state)
    }
}

/// One rank's slot in a job.
struct Slot<A: TaskApp> {
    rank: Rank,
    incarnation: u64,
    endpoint: Endpoint,
    kernel: Kernel,
    state: A::State,
    step: u64,
    done: bool,
}

/// Steps a slot may take per sweep before the sweep moves on to the
/// next rank.
const POLL_BUDGET: usize = 32;
/// Virtual time per sweep — enough that retransmission and rebroadcast
/// timers make progress over tens of sweeps without ever dominating.
const SWEEP_ADVANCE: Duration = Duration::from_micros(50);

/// Everything a round mutates: every rank's slot and how the job ended.
struct Ranks<A: TaskApp> {
    slots: Vec<Slot<A>>,
    finished: bool,
    failure: Option<String>,
}

/// One tasks-engine run as a drivable object: construction validates
/// the config and builds every kernel; rounds of [`TaskJob::sweep`] +
/// [`TaskJob::advance`] then run until [`TaskJob::is_finished`], and
/// [`TaskJob::report`] assembles the [`RunReport`]. One lock holds the
/// ranks, so one thread drives a round at a time: [`run_tasks`] on the
/// caller's thread, the `lclog-serve` pool through
/// [`TaskJob::try_round`].
pub struct TaskJob<A: TaskApp> {
    app: A,
    env: RunEnv,
    clock: SimClock,
    ranks: Mutex<Ranks<A>>,
    start: Instant,
    max_wall: Duration,
}

impl<A: TaskApp> TaskJob<A> {
    /// Build a standalone job: its own storage backend (from
    /// `cfg.storage`) and, when `cfg.remote` is set, its own
    /// replication pipeline (finished when the job's report is taken).
    pub fn new(cfg: &ClusterConfig, app: A) -> Result<Self, String> {
        Self::build(cfg, app, None)
    }

    /// Build a job against a host-owned environment (see [`TasksEnv`]).
    /// `cfg.remote` is ignored: remote durability is whatever the
    /// shared `env.replicator` provides.
    pub fn with_env(cfg: &ClusterConfig, app: A, env: &TasksEnv) -> Result<Self, String> {
        Self::build(cfg, app, Some(env))
    }

    fn build(cfg: &ClusterConfig, app: A, host: Option<&TasksEnv>) -> Result<Self, String> {
        validate(cfg)?;
        let n = cfg.n;
        let clock = SimClock::new();
        let mut cfg = cfg.clone();
        cfg.run.clock = Clock::Sim(clock.clone());
        // A direct fabric is held and released once per round; a timed
        // one keeps its release times, now on the virtual clock. Either
        // way one thread serves every rank deterministically.
        if !cfg.net.is_timed() {
            cfg.net.delivery = DeliveryModel::Held;
        }
        let env = RunEnv::open(&cfg, host)?;
        let slots = (env.attach().into_iter().enumerate())
            .map(|(rank, endpoint)| Slot {
                rank,
                incarnation: 1,
                endpoint,
                kernel: env.boot(rank),
                state: app.init(rank, n),
                step: 0,
                done: false,
            })
            .collect();
        Ok(TaskJob {
            app,
            env,
            clock,
            ranks: Mutex::new(Ranks {
                slots,
                finished: false,
                failure: None,
            }),
            start: Instant::now(),
            max_wall: cfg.max_wall,
        })
    }

    /// Always 1: one sweep covers every rank. Kept so a driver written
    /// as `for shard in 0..job.shards() { job.sweep(shard) }` still
    /// drives the whole job.
    pub fn shards(&self) -> usize {
        1
    }

    /// Number of application ranks.
    pub fn n(&self) -> usize {
        self.env.n
    }

    /// `(done ranks, total ranks)` — a cheap progress probe.
    pub fn progress(&self) -> (usize, usize) {
        (self.env.done(), self.env.n)
    }

    /// Injected/earned crash count so far.
    pub fn kills_fired(&self) -> u32 {
        self.env.kills()
    }

    /// One sweep over every rank (see the module docs for the four
    /// sweep stages); `_shard` is always 0 (see [`TaskJob::shards`]).
    /// Returns true if anything progressed.
    pub fn sweep(&self, _shard: usize) -> bool {
        self.sweep_slots(&mut self.ranks.lock().slots)
    }

    /// Close the round: release held frames, advance virtual time,
    /// check completion, arm the watchdog. Returns true if held frames
    /// moved.
    pub fn advance(&self) -> bool {
        self.advance_ranks(&mut self.ranks.lock())
    }

    /// One whole round — [`TaskJob::sweep`] then [`TaskJob::advance`]
    /// — unless another thread is driving this job, in which case it
    /// returns `None` at once. This is what lets a shared pool drive
    /// many jobs in parallel without ever waiting on a busy one.
    /// `Some(true)` once the job is finished.
    pub fn try_round(&self) -> Option<bool> {
        let mut ranks = self.ranks.try_lock()?;
        self.sweep_slots(&mut ranks.slots);
        self.advance_ranks(&mut ranks);
        Some(ranks.finished)
    }

    fn sweep_slots(&self, slots: &mut [Slot<A>]) -> bool {
        let mut progressed = false;
        for slot in slots {
            // 1. Drain the fabric inbox as one batch (one coalesced
            // ack flush).
            let mut batch = Vec::new();
            while let Ok(env) = slot.endpoint.try_recv() {
                batch.push(env);
            }
            if !batch.is_empty() {
                slot.kernel.ingest_batch(batch);
                progressed = true;
            }
            if !slot.done {
                // 2. Planned kills fire on step boundaries. No detector
                // runs in tasks mode, but the desync path (tracking
                // merge rejected a gate-approved message) is still
                // reachable; it rebuilds through the rollback path like
                // any fault in the thread engine.
                let death = match self.env.due(slot.rank, slot.incarnation, slot.step) {
                    Some(death) => Some(death),
                    None if slot.kernel.is_fenced() || slot.kernel.is_desynced() => {
                        Some(Death::Process)
                    }
                    None => self.poll(slot, &mut progressed),
                };
                if let Some(death) = death {
                    self.crash_and_respawn(slot, death);
                    progressed = true;
                }
            }
            // 4. Timers, resync-request drain, rollback rebroadcast.
            // Done ranks keep ticking: the cooperative
            // `serve_until_shutdown`.
            slot.kernel.tick();
        }
        progressed
    }

    /// Stage 3: poll `slot`'s state machine up to the budget,
    /// checkpointing between steps; a fault it returns is the
    /// incarnation's death.
    fn poll(&self, slot: &mut Slot<A>, progressed: &mut bool) -> Option<Death> {
        for _ in 0..POLL_BUDGET {
            let mut ctx = TaskCtx::for_kernel(&slot.kernel, slot.step);
            match self.app.poll(&mut ctx, &mut slot.state) {
                Ok(TaskPoll::Pending) | Err(Fault::Shutdown) => break,
                Ok(TaskPoll::Step) => {
                    slot.step += 1;
                    if slot.kernel.checkpoint_due(slot.step) {
                        slot.kernel
                            .do_checkpoint(lclog_wire::encode_to_vec(&slot.state), slot.step);
                    }
                    *progressed = true;
                    // Leave the budget so the next sweep's kill check
                    // sees the new step promptly.
                    if self
                        .env
                        .due(slot.rank, slot.incarnation, slot.step)
                        .is_some()
                    {
                        break;
                    }
                }
                Ok(TaskPoll::Done) => {
                    let image = lclog_wire::encode_to_vec(&slot.state);
                    let digest = self.app.digest(&slot.state);
                    self.env
                        .finish(slot.rank, slot.step, &slot.kernel, image, digest);
                    slot.done = true;
                    *progressed = true;
                    break;
                }
                Err(_) => return Some(Death::Process),
            }
        }
        None
    }

    fn advance_ranks(&self, ranks: &mut Ranks<A>) -> bool {
        let progressed = self.env.net().held_deliver_all() > 0;
        self.clock.advance(SWEEP_ADVANCE);
        if self.env.done() == self.env.n {
            ranks.finished = true;
        } else if self.start.elapsed() > self.max_wall {
            ranks.failure = Some(format!(
                "tasks watchdog fired after {:?} (protocol {}, {} ranks)",
                self.max_wall, self.env.run.protocol, self.env.n
            ));
            ranks.finished = true;
        }
        progressed
    }

    /// True once every rank is done (or the watchdog fired).
    pub fn is_finished(&self) -> bool {
        self.ranks.lock().finished
    }

    /// Assemble the run's [`RunReport`] (or the watchdog failure).
    /// Call after [`TaskJob::is_finished`]; a job-owned replicator is
    /// drained and joined here, a host-owned one is left running and
    /// only snapshotted.
    pub fn report(&self) -> Result<RunReport, String> {
        let failure = self.ranks.lock().failure.clone();
        self.env.report(self.start.elapsed(), failure)
    }

    /// Garbage-collect every checkpoint generation this job wrote,
    /// returning how many were deleted. For hosts retiring a tenant
    /// whose report has been fetched — a job's ranks never restore
    /// after that, and a long-running service must not accumulate dead
    /// tenants' generations.
    pub fn clear_generations(&self) -> usize {
        self.env.clear_generations()
    }

    /// `slot`'s incarnation is dead: the shared lifecycle loses it and
    /// brings up its successor in the same sweep.
    fn crash_and_respawn(&self, slot: &mut Slot<A>, death: Death) {
        self.env
            .lose(slot.rank, slot.incarnation, slot.step, &slot.kernel, death);
        slot.incarnation += 1;
        let (kernel, endpoint, restored) = self.env.respawn(slot.rank, slot.incarnation, |bytes| {
            lclog_wire::decode_from_slice(bytes).ok()
        });
        (slot.step, slot.state) =
            restored.unwrap_or_else(|| (0, self.app.init(slot.rank, self.env.n)));
        slot.kernel = kernel;
        slot.endpoint = endpoint;
    }
}

/// Reject configuration knobs the tasks engine cannot honour, with an
/// error naming the knob and the alternative.
fn validate(cfg: &ClusterConfig) -> Result<(), String> {
    if cfg.run.protocol.uses_event_logger() {
        return Err(format!(
            "protocol {} needs the event-logger service thread; use the thread engine",
            cfg.run.protocol
        ));
    }
    if cfg.run.detector.is_some() {
        return Err(
            "detected failures are not supported in tasks mode; use the thread engine".into(),
        );
    }
    Ok(())
}

/// Run `app` on `cfg.n` ranks as cooperative tasks, driven round by
/// round on the caller's thread (see the module docs for the round and
/// the list of configurations that require the thread engine instead).
pub fn run_tasks<A: TaskApp>(cfg: &ClusterConfig, app: A) -> Result<RunReport, String> {
    let job = TaskJob::new(cfg, app)?;
    while !job.is_finished() {
        job.sweep(0);
        job.advance();
    }
    job.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, FailurePlan, RemoteConfig};
    use crate::config::{CheckpointPolicy, RunConfig};
    use crate::events::EventKind;
    use lclog_core::ProtocolKind;
    use lclog_simnet::{ChaosConfig, NetConfig, SimNet};
    use lclog_stable::{CheckpointStore, MemStore, StableStorage};
    use lclog_wire::impl_wire_struct;
    use std::sync::Arc;

    const TAG: u32 = 7;

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[derive(Debug, Clone, PartialEq)]
    struct RingState {
        round: u64,
        sent: bool,
        acc: u64,
    }

    impl_wire_struct!(RingState { round, sent, acc });

    /// Neighbor-exchange ring: each round every rank sends one value
    /// right and folds one value from the left — all n messages of a
    /// round are in flight concurrently, so a round costs O(1) sweeps
    /// regardless of n.
    struct ExchangeRing {
        rounds: u64,
    }

    impl TaskApp for ExchangeRing {
        type State = RingState;

        fn init(&self, rank: Rank, _n: usize) -> RingState {
            RingState {
                round: 0,
                sent: false,
                acc: mix(rank as u64),
            }
        }

        fn poll(&self, ctx: &mut TaskCtx<'_>, st: &mut RingState) -> Result<TaskPoll, Fault> {
            if st.round >= self.rounds {
                return Ok(TaskPoll::Done);
            }
            let me = ctx.rank();
            let n = ctx.n();
            if !st.sent {
                let payload = mix(st.acc ^ st.round);
                ctx.send_value((me + 1) % n, TAG, &payload)?;
                st.sent = true;
            }
            let left = (me + n - 1) % n;
            match ctx.try_recv_value::<u64>(RecvSpec::from(left, TAG))? {
                Some((_, v)) => {
                    st.acc = mix(st.acc.wrapping_add(v));
                    st.sent = false;
                    st.round += 1;
                    Ok(TaskPoll::Step)
                }
                None => Ok(TaskPoll::Pending),
            }
        }

        fn digest(&self, st: &RingState) -> u64 {
            mix(st.acc ^ st.round)
        }
    }

    fn tasks_cfg(n: usize, kind: ProtocolKind) -> ClusterConfig {
        ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(2)),
        )
        .with_max_wall(Duration::from_secs(30))
    }

    /// One thread drives every round, so nothing about a run depends on
    /// timing: not the digests, nor the traffic a mid-run kill provokes.
    #[test]
    fn a_tasks_run_is_a_pure_function_of_its_config() {
        let run = || {
            let cfg = tasks_cfg(64, ProtocolKind::TdiSparse(8))
                .with_failures(FailurePlan::kill_at(1, 5));
            run_tasks(&cfg, ExchangeRing { rounds: 12 }).unwrap()
        };
        let first = run();
        assert_eq!(first.kills, 1);
        for _ in 0..2 {
            let again = run();
            assert_eq!(again.digests, first.digests);
            assert_eq!(
                (again.net_msgs, again.net_bytes, again.retransmits),
                (first.net_msgs, first.net_bytes, first.retransmits)
            );
            assert_eq!(again.stats, first.stats);
            assert_eq!(again.data_plane, first.data_plane);
        }
    }

    /// Cost tripwire. A tasks run repeats bit for bit, so the frames a
    /// ring builds are exact: 1024 messages, each rank's checkpoints at
    /// steps 8 and 16 notify the one sender they cover (its left
    /// neighbour; the final one covers nothing new), and the acks. An
    /// O(n) notice fan-out coming back shows here: notifying all 63
    /// other ranks at each of the three checkpoints read frames_built
    /// 18112 and ack_frames 4992.
    #[test]
    fn ring_control_traffic_stays_with_the_neighbours() {
        let cfg = ClusterConfig::new(
            64,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(8)),
        );
        let report = run_tasks(&cfg, ExchangeRing { rounds: 16 }).unwrap();
        let dp = &report.data_plane;
        assert_eq!((dp.frames_built, dp.ack_frames), (2240, 1088));
    }

    /// Chaos and fabric latency are release times on the virtual clock,
    /// so a lossy, duplicating, corrupting, heavy-tailed LAN with a
    /// mid-run kill still recovers to the fault-free digests, and runs
    /// as a pure function of its config.
    #[test]
    fn a_chaotic_lan_run_is_a_pure_function_of_its_config() {
        let app = || ExchangeRing { rounds: 8 };
        let mut chaos_fired = 0;
        for kind in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(8)] {
            let clean = run_tasks(&tasks_cfg(16, kind), app()).unwrap();
            for seed in 1..=4 {
                let chaos = ChaosConfig::seeded(seed)
                    .with_drop(0.02)
                    .with_duplicate(0.02)
                    .with_corrupt(0.01)
                    .with_heavy_tail(
                        0.02,
                        Duration::from_micros(500),
                        1.0,
                        Duration::from_millis(5),
                    );
                let cfg = tasks_cfg(16, kind)
                    .with_net(NetConfig::lan_like(seed).with_chaos(chaos))
                    .with_failures(FailurePlan::kill_at(1, 4));
                let counters = |r: &RunReport| {
                    [
                        r.net_msgs,
                        r.net_bytes,
                        r.retransmits,
                        r.chaos_dropped,
                        r.chaos_duplicated,
                        r.chaos_corrupted,
                    ]
                };
                let first = run_tasks(&cfg, app()).unwrap();
                assert_eq!(first.kills, 1, "{kind} seed {seed}");
                assert_eq!(first.digests, clean.digests, "{kind} seed {seed}");
                let again = run_tasks(&cfg, app()).unwrap();
                assert_eq!(counters(&again), counters(&first), "{kind} seed {seed}");
                chaos_fired += counters(&first)[3..].iter().sum::<u64>();
            }
        }
        assert!(chaos_fired > 0, "the chaos must have fired");
    }

    #[test]
    fn tasks_and_threads_agree_on_digests() {
        let app = || ExchangeRing { rounds: 6 };
        for net in [NetConfig::direct(), NetConfig::lan_like(7)] {
            let cfg = tasks_cfg(4, ProtocolKind::Tdi).with_net(net);
            let tasks = run_tasks(&cfg, app()).unwrap();
            let threads = Cluster::run(&cfg, BlockingTaskApp(app())).unwrap();
            assert_eq!(tasks.digests, threads.digests);
            assert_eq!(tasks.stats.delivers, threads.stats.delivers);
        }
    }

    #[test]
    fn tasks_mode_recovers_to_clean_digests() {
        for kind in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(8)] {
            let clean = run_tasks(&tasks_cfg(4, kind), ExchangeRing { rounds: 8 }).unwrap();
            let faulty = run_tasks(
                &tasks_cfg(4, kind).with_failures(FailurePlan::kill_at(1, 3)),
                ExchangeRing { rounds: 8 },
            )
            .unwrap();
            assert!(faulty.kills >= 1, "{kind}: the planned kill must fire");
            assert_eq!(
                faulty.digests, clean.digests,
                "{kind}: recovery must reproduce the fault-free digests"
            );
        }
    }

    /// The incarnation lifecycle is one piece of code under both
    /// engines: a node loss on one rank and a plain kill on another at
    /// the same step recover to the fault-free digests under threads
    /// and under tasks, and each victim's timeline from `Crashed` to
    /// its `ROLLBACK` broadcast reads the same on both. (Not to
    /// `RecoverySynced`: with two ranks down at once the first
    /// broadcast can miss the other victim, and under TDI the
    /// application may finish before the rebroadcast is answered.)
    #[test]
    fn lifecycle_is_the_same_under_both_engines() {
        let app = || ExchangeRing { rounds: 8 };
        let clean = run_tasks(&tasks_cfg(4, ProtocolKind::Tdi), app()).unwrap();
        let faulty = tasks_cfg(4, ProtocolKind::Tdi)
            .with_remote(RemoteConfig::in_memory())
            .with_failures(FailurePlan::kill_wipe_at(2, 4).and_kill(0, 4))
            .with_trace(true);
        let threads = Cluster::run(&faulty, BlockingTaskApp(app())).unwrap();
        let tasks = run_tasks(&faulty, app()).unwrap();
        let lifecycle = |report: &RunReport, victim: Rank| -> Vec<&'static str> {
            let on_victim = report.timeline.iter().filter(|e| e.rank == victim);
            let mut story: Vec<_> = on_victim
                .map(|e| match e.kind {
                    EventKind::Crashed { .. } => "crashed",
                    EventKind::StoreWiped { .. } => "store_wiped",
                    EventKind::RemoteRestored { .. } => "remote_restored",
                    EventKind::Spawned { .. } => "spawned",
                    EventKind::RollbackBroadcast { .. } => "rollback",
                    _ => "",
                })
                .skip_while(|&name| name != "crashed")
                .filter(|name| !name.is_empty())
                .collect();
            let first_rollback = story.iter().position(|&name| name == "rollback");
            story.truncate(first_rollback.map_or(story.len(), |at| at + 1));
            story
        };
        for report in [&threads, &tasks] {
            assert_eq!(report.digests, clean.digests);
            assert_eq!(report.kills, 2);
            assert_eq!(
                lifecycle(report, 2),
                [
                    "crashed",
                    "store_wiped",
                    "spawned",
                    "remote_restored",
                    "rollback"
                ]
            );
            assert_eq!(lifecycle(report, 0), ["crashed", "spawned", "rollback"]);
            let repl = report
                .replicator
                .as_ref()
                .expect("remote run reports replicator stats");
            assert!(
                repl.objects_shipped > 0,
                "checkpoint generations must have shipped"
            );
            assert!(repl.restores >= 1, "the wipe must trigger a remote restore");
        }
    }

    #[test]
    fn tasks_job_under_shared_env_uses_rank_namespace() {
        // Two jobs, one backend: rank namespaces keep their
        // generations apart, and retiring one GCs only its own.
        let backend: Arc<dyn StableStorage> = Arc::new(MemStore::new());
        let env = TasksEnv {
            storage: Arc::clone(&backend),
            replicator: None,
        };
        let run = |base: usize| {
            let cfg = tasks_cfg(3, ProtocolKind::Tdi).with_rank_base(base);
            let job = TaskJob::with_env(&cfg, ExchangeRing { rounds: 4 }, &env).unwrap();
            while !job.is_finished() {
                job.try_round().expect("nobody else drives this job");
            }
            job
        };
        let a = run(0);
        let b = run(100);
        assert_eq!(
            a.report().unwrap().digests,
            b.report().unwrap().digests,
            "rank_base must not change the computation"
        );
        assert!(!backend.keys_with_prefix("ckpt/100/").is_empty());
        assert!(!backend.keys_with_prefix("ckpt/0/").is_empty());
        assert!(b.clear_generations() > 0);
        assert!(backend.keys_with_prefix("ckpt/100/").is_empty());
        assert!(
            !backend.keys_with_prefix("ckpt/0/").is_empty(),
            "retiring one tenant must not GC another's generations"
        );
    }

    /// Regression: a gate-approved message whose payload does not
    /// decode as the requested type used to abort the process with an
    /// `expect`; it is wire input, so it must surface as the typed
    /// [`Fault::Desync`] (crash-and-rebuild through rollback).
    #[test]
    fn undecodable_payload_is_a_typed_desync_not_an_abort() {
        let net = SimNet::new(3, NetConfig::direct());
        let store = CheckpointStore::new(Arc::new(MemStore::new()));
        let _ep0 = net.attach(0);
        let ep1 = net.attach(1);
        let k0 = Kernel::new(0, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store.clone());
        let k1 = Kernel::new(1, 2, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
        // An empty payload can never decode as u64.
        k0.app_send(1, TAG, Bytes::new(), false);
        while let Ok(env) = ep1.try_recv() {
            k1.ingest(env);
        }
        let mut ctx = TaskCtx::for_kernel(&k1, 0);
        assert_eq!(
            ctx.try_recv_value::<u64>(RecvSpec::from(0, TAG)),
            Err(Fault::Desync)
        );
    }

    #[test]
    fn tasks_mode_rejects_service_protocols() {
        for kind in [ProtocolKind::Tel, ProtocolKind::Pessim] {
            let err = run_tasks(&tasks_cfg(3, kind), ExchangeRing { rounds: 2 }).unwrap_err();
            assert!(err.contains("event-logger"), "{kind}: {err}");
            assert!(err.contains("thread engine"), "{kind}: {err}");
        }
    }

    #[test]
    fn tasks_mode_rejects_detector_configs() {
        let mut cfg = tasks_cfg(3, ProtocolKind::Tdi);
        cfg.run = cfg.run.with_detector(crate::detector::DetectorConfig::default());
        let err = run_tasks(&cfg, ExchangeRing { rounds: 2 }).unwrap_err();
        assert!(err.contains("detected failures"), "{err}");
        assert!(err.contains("thread engine"), "{err}");
    }

    #[test]
    fn sparse_tasks_run_reports_frame_stats() {
        // n must be large enough that a dense vector dwarfs a delta
        // frame's fixed overhead (at n = 4 dense wins; sparse exists
        // for large n).
        let n = 32;
        let sparse = run_tasks(
            &tasks_cfg(n, ProtocolKind::TdiSparse(8)),
            ExchangeRing { rounds: 4 },
        )
        .unwrap();
        assert!(sparse.stats.full_frames > 0, "first frames are FULL");
        assert!(sparse.stats.delta_frames > 0, "steady state is deltas");
        let dense =
            run_tasks(&tasks_cfg(n, ProtocolKind::Tdi), ExchangeRing { rounds: 4 }).unwrap();
        assert!(
            sparse.stats.piggyback_bytes < dense.stats.piggyback_bytes,
            "sparse {} >= dense {}",
            sparse.stats.piggyback_bytes,
            dense.stats.piggyback_bytes
        );
    }
}
