//! The one round driver: every rank of a job is a state machine
//! polled in rounds by one thread, on the run's virtual clock.
//!
//! A rank is a [`TaskApp`] — a hand-written state machine, or a
//! [`RankApp`] whose `async` step [`crate::Cluster::run`] wraps — and
//! never blocks: a call that cannot proceed leaves the poll pending
//! until the next sweep. Every rank runs the same kernels (transport,
//! sender log, checkpointing, rollback recovery) over a held (or timed)
//! fabric, and every job runs the same schedule, so a run is a pure
//! function of its config: the same digests, messages, bytes and
//! virtual end time every time.
//!
//! A round is one sweep over every rank, in rank order:
//!
//! 1. drain the rank's fabric inbox into its kernel;
//! 2. lose the rank if the failure plan kills it or it desynchronized,
//!    through the one lifecycle of [`crate::env`], and bring up its
//!    successor at once: failures are announced, so there is nothing
//!    to wait for;
//! 3. poll a live rank's state machine up to a bounded budget
//!    (checkpointing between steps; a step that reaches a planned kill
//!    ends the budget, and the kill fires at the next sweep);
//! 4. tick the kernel (resync-request drain,
//!    rollback rebroadcast);
//!
//! then the round's serial end: one step of the service slot (the
//! event logger, if the run has one), one shipping
//! step of the replicator the job owns (if it has a remote), the
//! release of all held fabric channels, the clock's advance (a timed
//! fabric releases what then falls due at the next sweep's drains) and
//! the watchdog, whose error names where every unfinished rank stopped.
//! Completion leaves a rank serving its peers (drain + tick) until
//! every rank is done.
//!
//! A job is standalone: it owns its storage and, with a remote, its
//! replicator. [`run_tasks`] drives it on the caller's thread; so does
//! a caller looping [`TaskJob::sweep`] + [`TaskJob::advance`] itself.
//! Nothing in a job is shared with another thread, so nothing in it is
//! locked: the ranks sit in one `RefCell`, each kernel behind an `Rc`
//! its rank's step future may hold too, and the fabric, the clock and
//! the result board are `Rc`s and cells. None of them is `Send`, so
//! the compiler keeps a job on the thread that built it, and
//! [`TaskApp`] and [`RankApp`] need no `Send` or `Sync`. Only what the
//! job reaches through [`lclog_stable::StableStorage`] — the storage
//! backends and the replicator — keeps a lock.

use crate::cluster::{ClusterConfig, RunReport};
use crate::env::{Death, RunEnv};
use crate::fault::Fault;
use crate::kernel::Kernel;
use crate::message::{AppMsg, RecvSpec};
use crate::process::Wait;
#[cfg(doc)]
use crate::{fault::StepStatus, process::RankApp};
use crate::service::EventLogger;
use bytes::Bytes;
use lclog_core::Rank;
use lclog_simnet::{Clock, DeliveryModel, Endpoint, SimClock};
use lclog_wire::{Decode, Encode};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Virtual time per round — enough that rebroadcast and resend timers
/// make progress over tens of rounds without ever dominating.
const ROUND_ADVANCE: Duration = Duration::from_micros(50);

/// What one poll of a task state machine produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// One application step completed — a checkpoint boundary, exactly
    /// like [`StepStatus::Continue`] of a [`RankApp`].
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
/// The execution-model contract is [`RankApp`]'s: `poll` must be
/// a deterministic function of `(state, received messages)`, and a
/// recovered incarnation re-polls from its last checkpointed state
/// (re-sends are suppressed as repetitive by the kernel). The one new
/// rule: `poll` must never block — return [`TaskPoll::Pending`] and
/// park the partial progress in `state` instead.
pub trait TaskApp: 'static {
    /// Serializable per-rank state, checkpointed between steps.
    type State: Encode + Decode;

    /// Deterministic initial state of `rank` in an `n`-rank run.
    fn init(&self, rank: Rank, n: usize) -> Self::State;

    /// Advance the state machine as far as it can go without blocking.
    fn poll(&self, ctx: &mut TaskCtx<'_>, state: &mut Self::State) -> Result<TaskPoll, Fault>;

    /// A verification digest of the final state: identical across
    /// fault-free and recovered runs, and across engine modes.
    fn digest(&self, state: &Self::State) -> u64;
}

/// The runtime handle passed to [`TaskApp::poll`] — the non-blocking
/// counterpart of [`crate::RankCtx`], over the rank's kernel.
pub struct TaskCtx<'a> {
    kernel: &'a Rc<Kernel>,
    step: u64,
    /// What a pending [`RankApp`] step waits for (the watchdog names it).
    pub(crate) wait: Option<Wait>,
}

impl<'a> TaskCtx<'a> {
    fn for_kernel(kernel: &'a Rc<Kernel>, step: u64) -> Self {
        TaskCtx {
            kernel,
            step,
            wait: None,
        }
    }

    /// The kernel, for a step future that must own a handle to it.
    pub(crate) fn kernel_rc(&self) -> Rc<Kernel> {
        Rc::clone(self.kernel)
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.kernel.me()
    }

    /// Number of application ranks.
    pub fn n(&self) -> usize {
        self.kernel.n()
    }

    /// The current application step index.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Send `data` to `dst` under `tag`. It never blocks and is never
    /// refused; the `Result` lets a poll propagate faults with `?`.
    pub fn send(&mut self, dst: Rank, tag: u32, data: &[u8]) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(data))
    }

    /// Zero-copy variant of [`TaskCtx::send`].
    pub fn send_bytes(&mut self, dst: Rank, tag: u32, data: Bytes) -> Result<(), Fault> {
        self.kernel.app_send(dst, tag, data, false);
        Ok(())
    }

    /// Send an [`Encode`]-able value.
    pub fn send_value<T: Encode>(&mut self, dst: Rank, tag: u32, value: &T) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::from(lclog_wire::encode_to_vec(value)))
    }

    /// Deliver the first queued message matching `spec` if its
    /// dependency gate opens right now; `Ok(None)` means return
    /// [`TaskPoll::Pending`] and try again after the next sweep.
    pub fn try_recv(&mut self, spec: RecvSpec) -> Result<Option<AppMsg>, Fault> {
        Ok(self.kernel.try_deliver(spec))
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

/// One rank's slot in a job.
struct Slot<A: TaskApp> {
    rank: Rank,
    incarnation: u64,
    endpoint: Endpoint,
    kernel: Rc<Kernel>,
    state: A::State,
    step: u64,
    /// What the last poll left pending, if a [`RankApp`] call.
    wait: Option<Wait>,
    done: bool,
}

/// Where an unfinished rank stopped, as the watchdog names it.
#[derive(Debug)]
#[allow(dead_code)] // read through `Debug` by the watchdog's report
enum Place {
    /// A [`RankApp`] step pending inside a runtime call at `step`.
    Waiting { wait: Wait, step: u64 },
    /// A [`TaskApp`] poll pending at `step`.
    Pending { step: u64 },
}

/// Steps a slot may take per sweep before the sweep moves on to the
/// next rank.
const POLL_BUDGET: usize = 32;

/// Everything a round mutates: every rank's slot, the run's virtual
/// clock and service slot, and how the job ended.
struct Ranks<A: TaskApp> {
    slots: Vec<Slot<A>>,
    clock: SimClock,
    logger: Option<EventLogger>,
    /// When the run opened (the wall time a report states).
    start: Instant,
    max_wall: Duration,
    finished: bool,
    failure: Option<String>,
}

/// One tasks-engine run as a drivable object: construction attaches
/// the service slot and builds every kernel; rounds of [`TaskJob::sweep`] +
/// [`TaskJob::advance`] then run until [`TaskJob::is_finished`], and
/// [`TaskJob::report`] assembles the [`RunReport`]. The ranks sit in
/// a `RefCell` because [`TaskJob::sweep`] and [`TaskJob::advance`]
/// take `&self`; the thread that builds a job is the one that drives
/// it.
pub struct TaskJob<A: TaskApp> {
    app: A,
    env: RunEnv,
    ranks: RefCell<Ranks<A>>,
}

impl<A: TaskApp> TaskJob<A> {
    /// Build a standalone job: its own storage backend (from
    /// `cfg.storage`) and, when `cfg.remote` is set, its own
    /// replication pipeline (stepped each round on the job's virtual
    /// clock, drained when the job's report is taken).
    ///
    /// The run's clock becomes a virtual one, a direct fabric is held
    /// (released once per round) and a timed one keeps its release
    /// times on the virtual clock; the service slot is attached before
    /// any kernel can send to it.
    pub fn new(cfg: &ClusterConfig, app: A) -> Result<Self, String> {
        let clock = SimClock::new();
        let mut cfg = cfg.clone();
        cfg.run.clock = Clock::Sim(clock.clone());
        if !cfg.net.is_timed() {
            cfg.net.delivery = DeliveryModel::Held;
        }
        let env = RunEnv::open(&cfg)?;
        let logger = EventLogger::attach(&env);
        let start = Instant::now();
        let slots = (env.attach().into_iter().enumerate())
            .map(|(rank, endpoint)| Slot {
                rank,
                incarnation: 1,
                endpoint,
                kernel: Rc::new(env.boot(rank)),
                state: app.init(rank, cfg.n),
                step: 0,
                wait: None,
                done: false,
            })
            .collect();
        Ok(TaskJob {
            app,
            env,
            ranks: RefCell::new(Ranks {
                slots,
                clock,
                logger,
                start,
                max_wall: cfg.max_wall,
                finished: false,
                failure: None,
            }),
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

    /// One sweep over every rank (see the module docs for the four
    /// sweep stages); `_shard` is always 0 (see [`TaskJob::shards`]).
    /// Returns true if anything progressed.
    pub fn sweep(&self, _shard: usize) -> bool {
        let mut progressed = false;
        for slot in &mut self.ranks.borrow_mut().slots {
            let ingested = self.ingest(slot, &mut progressed);
            let death = self.compute(slot, ingested, &mut progressed);
            self.boundary(slot, death, &mut progressed);
        }
        progressed
    }

    /// Close the round: event logger, replicator, held frames, virtual
    /// time, completion, watchdog. Returns true if anything arrived at
    /// the service slot or held frames moved.
    pub fn advance(&self) -> bool {
        let mut ranks = self.ranks.borrow_mut();
        let mut progressed = ranks.logger.as_mut().is_some_and(EventLogger::step);
        if let Some(repl) = &self.env.replicator {
            repl.step();
        }
        progressed |= self.env.net().held_deliver_all() > 0;
        ranks.clock.advance(ROUND_ADVANCE);
        if self.env.done() == self.env.n {
            ranks.finished = true;
        } else if ranks.start.elapsed() > ranks.max_wall {
            let error = format!(
                "watchdog fired after {:?} (protocol {}, {} ranks)",
                ranks.max_wall, self.env.run.protocol, self.env.n
            );
            ranks.failure = Some(name_unfinished(error, &ranks.slots));
            ranks.finished = true;
        }
        progressed
    }

    /// Stage 1: drain a slot's fabric inbox as one batch. True if
    /// anything was ingested.
    fn ingest(&self, slot: &mut Slot<A>, progressed: &mut bool) -> bool {
        let batch: Vec<_> = std::iter::from_fn(|| slot.endpoint.try_recv().ok()).collect();
        let ingested = !batch.is_empty();
        if ingested {
            slot.kernel.ingest_batch(batch);
            *progressed = true;
        }
        ingested
    }

    /// Stages 2–3 for an unfinished slot: its death, or its poll.
    fn compute(&self, slot: &mut Slot<A>, ingested: bool, progressed: &mut bool) -> Option<Death> {
        if slot.done {
            return None;
        }
        // Planned kills fire on step boundaries; a desynchronized
        // incarnation dies and rejoins.
        self.env
            .due(slot.rank, slot.incarnation, slot.step)
            .or_else(|| slot.kernel.is_desynced().then_some(Death::Process))
            // A receive can end only once something was ingested.
            .or_else(|| match (slot.wait, ingested) {
                (Some(Wait::Recv(_)), false) => None,
                _ => self.poll(slot, progressed),
            })
    }

    /// The slot's boundary: book its `death` and bring up its
    /// successor, then tick.
    fn boundary(&self, slot: &mut Slot<A>, death: Option<Death>, progressed: &mut bool) {
        if let Some(death) = death {
            self.env.lose(slot.rank, slot.step, &slot.kernel, death);
            slot.incarnation += 1;
            self.respawn(slot);
            *progressed = true;
        }
        // 4. Timers, resync-request drain, rollback rebroadcast. Done ranks keep ticking: they serve their peers
        // until every rank is done.
        slot.kernel.tick();
    }

    /// Stage 3: poll `slot`'s state machine up to the budget,
    /// checkpointing between steps; a fault it returns is the
    /// incarnation's death.
    fn poll(&self, slot: &mut Slot<A>, progressed: &mut bool) -> Option<Death> {
        for _ in 0..POLL_BUDGET {
            let mut ctx = TaskCtx::for_kernel(&slot.kernel, slot.step);
            let polled = self.app.poll(&mut ctx, &mut slot.state);
            slot.wait = ctx.wait;
            match polled {
                Ok(TaskPoll::Pending) => break,
                Ok(TaskPoll::Step) => {
                    slot.step += 1;
                    if slot.kernel.checkpoint_due(slot.step) {
                        slot.kernel
                            .do_checkpoint(lclog_wire::encode_to_vec(&slot.state), slot.step);
                    }
                    *progressed = true;
                    // Leave the budget so the next sweep's kill check
                    // sees the new step promptly.
                    let due = self.env.due(slot.rank, slot.incarnation, slot.step);
                    if due.is_some() {
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
                // Every other fault (`Desync`, `Collective`) unwinds like a crash and rejoins through
                // the normal rollback path, which retries the operation
                // against whatever incarnation of the peer answers.
                Err(_) => return Some(Death::Process),
            }
        }
        None
    }

    /// True once every rank is done (or the watchdog fired).
    pub fn is_finished(&self) -> bool {
        self.ranks.borrow().finished
    }

    /// Assemble the run's [`RunReport`] (or the watchdog failure).
    /// Call after [`TaskJob::is_finished`]; the job's replicator, if
    /// any, is drained here.
    pub fn report(&self) -> Result<RunReport, String> {
        let ranks = self.ranks.borrow();
        self.env
            .report(ranks.start.elapsed(), ranks.failure.clone())
    }

    /// Bring up `slot`'s successor incarnation: restore its last
    /// checkpoint, or start over from the initial state.
    fn respawn(&self, slot: &mut Slot<A>) {
        let (kernel, endpoint, restored) = self.env.respawn(slot.rank, slot.incarnation, |bytes| {
            lclog_wire::decode_from_slice(bytes).ok()
        });
        (slot.step, slot.state) =
            restored.unwrap_or_else(|| (0, self.app.init(slot.rank, self.env.n)));
        slot.kernel = Rc::new(kernel);
        slot.endpoint = endpoint;
        slot.wait = None;
    }
}

/// The watchdog's `error`, naming where every unfinished rank stopped:
/// its incarnation, its [`Place`] and its kernel's `Debug` dump.
fn name_unfinished<A: TaskApp>(mut error: String, slots: &[Slot<A>]) -> String {
    for slot in slots.iter().filter(|slot| !slot.done) {
        let place = match slot.wait {
            Some(wait) => Place::Waiting {
                wait,
                step: slot.step,
            },
            None => Place::Pending { step: slot.step },
        };
        let (rank, incarnation, kernel) = (slot.rank, slot.incarnation, &slot.kernel);
        error += &format!("\n  rank {rank} incarnation {incarnation}: {place:?}; {kernel:?}");
    }
    error
}

/// Run `app` on `cfg.n` ranks as cooperative tasks, driven round by
/// round on the caller's thread (see the module docs for the round).
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
    use crate::cluster::{Cluster, FailurePlan};
    use crate::config::{CheckpointPolicy, RunConfig};
    use crate::events::EventKind;
    use crate::fault::StepStatus;
    use crate::process::{RankApp, RankCtx};
    use lclog_core::ProtocolKind;
    use lclog_simnet::{ChaosConfig, NetConfig, SimNet, StorageChaos};
    use lclog_stable::{
        CheckpointStore, FaultyRemote, MemRemote, MemStore, RemoteStore, MANIFEST_KEY,
    };
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

    /// [`ExchangeRing`] as a [`RankApp`]: the same sends and folds, one
    /// round per step, the same states at every step boundary.
    struct AsyncRing {
        rounds: u64,
    }

    impl RankApp for AsyncRing {
        type State = RingState;

        fn init(&self, rank: Rank, n: usize) -> RingState {
            ExchangeRing {
                rounds: self.rounds,
            }
            .init(rank, n)
        }

        async fn step(
            &self,
            ctx: &mut RankCtx<'_>,
            st: &mut RingState,
        ) -> Result<StepStatus, Fault> {
            if st.round >= self.rounds {
                return Ok(StepStatus::Done);
            }
            let (me, n) = (ctx.rank(), ctx.n());
            let payload = mix(st.acc ^ st.round);
            ctx.send_value((me + 1) % n, TAG, &payload).await?;
            let left = (me + n - 1) % n;
            let (_, v) = ctx.recv_value::<u64>(RecvSpec::from(left, TAG)).await?;
            st.acc = mix(st.acc.wrapping_add(v));
            st.round += 1;
            Ok(StepStatus::Continue)
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
    /// TEL too: its event logger is a slot of the round.
    #[test]
    fn a_tasks_run_is_a_pure_function_of_its_config() {
        for (kind, n) in [(ProtocolKind::TdiSparse(8), 64), (ProtocolKind::Tel, 8)] {
            let clean = run_tasks(&tasks_cfg(n, kind), ExchangeRing { rounds: 12 }).unwrap();
            let run = || {
                let cfg = tasks_cfg(n, kind).with_failures(FailurePlan::kill_at(1, 5));
                run_tasks(&cfg, ExchangeRing { rounds: 12 }).unwrap()
            };
            let first = run();
            assert_eq!(first.kills, 1, "{kind}");
            assert_eq!(first.digests, clean.digests, "{kind}");
            for _ in 0..2 {
                let again = run();
                assert_eq!(again.digests, first.digests, "{kind}");
                assert_eq!(
                    (again.net_msgs, again.net_bytes, again.done_at),
                    (first.net_msgs, first.net_bytes, first.done_at),
                    "{kind}"
                );
                assert_eq!(again.stats, first.stats, "{kind}");
                assert_eq!(again.data_plane, first.data_plane, "{kind}");
            }
        }
    }

    /// Cost tripwire. A tasks run repeats bit for bit, so the frames a
    /// ring builds are exact: 1024 messages, and each rank's checkpoints
    /// at steps 8 and 16 notify the one sender they cover (its left
    /// neighbour; the final one covers nothing new) — nothing else, no
    /// acks. An O(n) notice fan-out coming back shows here: notifying
    /// all 63 other ranks at each of the three checkpoints built 13120
    /// frames.
    #[test]
    fn ring_control_traffic_stays_with_the_neighbours() {
        let cfg = ClusterConfig::new(
            64,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(8)),
        );
        let report = run_tasks(&cfg, ExchangeRing { rounds: 16 }).unwrap();
        let dp = &report.data_plane;
        assert_eq!((dp.frames_built, dp.ack_frames), (1152, 0));
    }

    /// Fabric latency and chaos stalls are release times on the virtual
    /// clock, so a reordering, heavy-tail-stalling LAN with a mid-run
    /// kill recovers to the fault-free digests, and runs as a pure
    /// function of its config.
    #[test]
    fn a_chaotic_lan_run_is_a_pure_function_of_its_config() {
        let app = || ExchangeRing { rounds: 8 };
        let mut stalls = 0;
        for kind in [ProtocolKind::Tdi, ProtocolKind::TdiSparse(8)] {
            let clean = run_tasks(&tasks_cfg(16, kind), app()).unwrap();
            for seed in 1..=4 {
                let chaos = ChaosConfig::seeded(seed).with_heavy_tail(
                    0.02,
                    Duration::from_micros(500),
                    1.0,
                    Duration::from_millis(5),
                );
                let cfg = tasks_cfg(16, kind)
                    .with_net(NetConfig::lan_like(seed).with_chaos(chaos))
                    .with_failures(FailurePlan::kill_at(1, 4));
                let counters =
                    |r: &RunReport| (r.net_msgs, r.net_bytes, r.chaos_stalled, r.done_at);
                let first = run_tasks(&cfg, app()).unwrap();
                assert_eq!(first.kills, 1, "{kind} seed {seed}");
                assert_eq!(first.digests, clean.digests, "{kind} seed {seed}");
                let again = run_tasks(&cfg, app()).unwrap();
                assert_eq!(counters(&again), counters(&first), "{kind} seed {seed}");
                stalls += first.chaos_stalled;
            }
        }
        assert!(stalls > 0, "the stalls must have fired");
    }

    /// The replicator is a step of the round on the virtual clock, so a
    /// run shipping to a flaky backend — transient errors, an outage
    /// counted in operations, a process kill and a node loss with a
    /// torn upload — repeats exactly: every replicator counter, the
    /// backend's fault counts, the manifest it ends up holding.
    #[test]
    fn a_log_shipping_run_is_a_pure_function_of_its_config() {
        let app = || ExchangeRing { rounds: 12 };
        for kind in [ProtocolKind::Tdi, ProtocolKind::Tel] {
            let clean = run_tasks(&tasks_cfg(8, kind), app()).unwrap();
            let run = || {
                let chaos = StorageChaos::seeded(3)
                    .with_transient(0.1)
                    .with_outage(10, 60);
                let handle = Arc::new(FaultyRemote::new(MemRemote::new(), chaos));
                let cfg = tasks_cfg(8, kind)
                    .with_remote(handle.clone())
                    .with_failures(FailurePlan::kill_at(2, 4).and_kill_wipe_corrupt(5, 7));
                let report = run_tasks(&cfg, app()).unwrap();
                let manifest = handle.inner().get(MANIFEST_KEY).unwrap();
                let faults = (handle.faults_injected(), handle.objects_damaged());
                (report, faults, manifest.expect("a manifest was shipped"))
            };
            let (first, faults, manifest) = run();
            assert_eq!(first.kills, 2, "{kind}");
            assert_eq!(first.digests, clean.digests, "{kind}");
            let repl = first.replicator.clone().expect("replicator stats");
            assert!(
                repl.retries > 0 && repl.generations_skipped == 1,
                "{kind}: {repl:?}"
            );
            for _ in 0..2 {
                let (again, again_faults, again_manifest) = run();
                assert_eq!(again.digests, first.digests, "{kind}");
                assert_eq!(again.kills, first.kills, "{kind}");
                assert_eq!(
                    (again.net_msgs, again.net_bytes, again.done_at),
                    (first.net_msgs, first.net_bytes, first.done_at),
                    "{kind}"
                );
                assert_eq!(again.replicator, first.replicator, "{kind}");
                assert_eq!(again_faults, faults, "{kind}");
                assert_eq!(again_manifest, manifest, "{kind}");
            }
        }
    }

    /// `a` and `b` agree in every field a run replays exactly: all but
    /// the host-clock `wall` and `tracking_time`.
    fn assert_same_run(a: &RunReport, b: &RunReport, what: &str) {
        let net = |r: &RunReport| (r.net_msgs, r.net_bytes, r.done_at);
        assert_eq!((&a.digests, a.kills), (&b.digests, b.kills), "{what}");
        assert_eq!(net(a), net(b), "{what}");
        assert_eq!(a.stats, b.stats, "{what}");
        assert_eq!(a.per_rank_stats, b.per_rank_stats, "{what}");
        assert_eq!(a.data_plane, b.data_plane, "{what}");
        assert_eq!(a.per_rank_data_plane, b.per_rank_data_plane, "{what}");
        assert_eq!(a.timeline, b.timeline, "{what}");
        assert_eq!(a.replicator, b.replicator, "{what}");
    }

    #[test]
    fn rank_apps_and_task_apps_agree_on_digests() {
        let app = || ExchangeRing { rounds: 6 };
        for (kind, net) in [
            (ProtocolKind::Tdi, NetConfig::direct()),
            (ProtocolKind::Tdi, NetConfig::lan_like(7)),
            (ProtocolKind::Tel, NetConfig::direct()),
        ] {
            let cfg = tasks_cfg(4, kind).with_net(net);
            let tasks = run_tasks(&cfg, app()).unwrap();
            let steps = Cluster::run(&cfg, AsyncRing { rounds: 6 }).unwrap();
            assert_same_run(&tasks, &steps, &kind.to_string());
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

    /// The incarnation lifecycle is one piece of code for both kinds of
    /// application: a node loss on one rank and a plain kill on another
    /// at the same step recover to the fault-free digests for a
    /// `RankApp` (`Cluster::run`) and a `TaskApp` (`run_tasks`), and
    /// each victim's whole timeline from `Crashed` on reads the same on
    /// both, through `RecoverySynced`. The two die in the same round,
    /// so the killed rank's first `ROLLBACK` is lost with the wiped
    /// rank's inbox; the wiped rank's `ROLLBACK` announces its death
    /// and makes the killed rank send its own again. One schedule runs
    /// both, so the two reports agree in every field but the
    /// host-clock ones.
    #[test]
    fn lifecycle_is_the_same_for_rank_and_task_apps() {
        let app = || ExchangeRing { rounds: 8 };
        let clean = run_tasks(&tasks_cfg(4, ProtocolKind::Tdi), app()).unwrap();
        let faulty = tasks_cfg(4, ProtocolKind::Tdi)
            .with_remote(Arc::new(MemRemote::new()))
            .with_failures(FailurePlan::kill_wipe_at(2, 4).and_kill(0, 4))
            .with_trace(true);
        let steps = Cluster::run(&faulty, AsyncRing { rounds: 8 }).unwrap();
        let tasks = run_tasks(&faulty, app()).unwrap();
        let lifecycle = |report: &RunReport, victim: Rank| -> Vec<&'static str> {
            let on_victim = report.timeline.iter().filter(|e| e.rank == victim);
            let story: Vec<_> = on_victim
                .map(|e| match e.kind {
                    EventKind::Crashed { .. } => "crashed",
                    EventKind::StoreWiped { .. } => "store_wiped",
                    EventKind::RemoteRestored { .. } => "remote_restored",
                    EventKind::Spawned { .. } => "spawned",
                    EventKind::RollbackBroadcast { .. } => "rollback",
                    EventKind::RecoverySynced { .. } => "synced",
                    _ => "",
                })
                .skip_while(|&name| name != "crashed")
                .filter(|name| !name.is_empty())
                .collect();
            story
        };
        for report in [&steps, &tasks] {
            assert_eq!(report.digests, clean.digests);
            assert_eq!(report.kills, 2);
            assert_eq!(
                lifecycle(report, 2),
                [
                    "crashed",
                    "store_wiped",
                    "spawned",
                    "remote_restored",
                    "rollback",
                    "synced"
                ]
            );
            assert_eq!(
                lifecycle(report, 0),
                ["crashed", "spawned", "rollback", "rollback", "synced"]
            );
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
        assert_same_run(&steps, &tasks, "kill + node loss");
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
        let k0 = Kernel::new(
            0,
            2,
            RunConfig::new(ProtocolKind::Tdi),
            net.clone(),
            store.clone(),
        );
        let k1 = Rc::new(Kernel::new(
            1,
            2,
            RunConfig::new(ProtocolKind::Tdi),
            net.clone(),
            store,
        ));
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
