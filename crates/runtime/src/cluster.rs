//! The round driver for blocking applications, and what every driver's
//! callers configure and read: the failure plan, the cluster
//! configuration and the run report.
//!
//! [`Cluster::run`] runs a [`RankApp`] in rounds on the run's virtual
//! clock, like a [`crate::TaskJob`], but each rank keeps a stack of its
//! own (an OS thread) so its calls can block. A round resumes every
//! runnable rank at once; each computes until it parks (see
//! [`crate::engine`]). Then the driver alone does the boundary, in rank
//! order: `Done`s and deaths ([`RunEnv::finish`] / [`RunEnv::lose`]),
//! respawns the gate allows, ticks; the shared [`Tail`] (event logger,
//! replicator, held frames, clock, watchdog); one inbox batch into each
//! live kernel, which decides who runs next. A stack touches only its
//! own kernel, fabric channels and storage keys, so a run repeats
//! exactly however the stacks interleave.

use crate::config::RunConfig;
use crate::engine::{Engine, Park, Resume, Stage, Wait};
use crate::env::{Death, RunEnv};
use crate::events::Event;
use crate::fault::{Fault, StepStatus};
use crate::kernel::Kernel;
use crate::process::{RankApp, RankCtx};
use crate::replicator::{ReplicatorConfig, ReplicatorStats};
use crate::tasks::Tail;
use crate::transport::DataPlaneStats;
use lclog_core::{Rank, TrackingStats};
use lclog_simnet::{Endpoint, NetConfig, StorageChaos};
use lclog_stable::{FaultyRemote, MemRemote, RemoteStore};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One planned failure: the given incarnation of `rank` crashes when
/// its step counter reaches `at_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// Victim rank.
    pub rank: Rank,
    /// Crash before executing this step.
    pub at_step: u64,
    /// Which incarnation to kill (1 = the original process; higher
    /// values test repeated failures).
    pub incarnation: u64,
    /// Node loss: wipe the victim's local stable store along with the
    /// process, forcing the respawn to restore from the remote.
    pub wipe: bool,
    /// Also damage the victim's newest remote generation (an upload
    /// torn by the node's death), forcing the restore to fall back
    /// one generation. Only meaningful together with `wipe`.
    pub corrupt_remote: bool,
}

/// Deterministic failure-injection schedule.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    kills: Vec<Kill>,
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill the original incarnation of `rank` at `at_step`.
    pub fn kill_at(rank: Rank, at_step: u64) -> Self {
        Self::none().and_kill(rank, at_step)
    }

    /// Add another first-incarnation kill (multi-failure scenarios).
    pub fn and_kill(mut self, rank: Rank, at_step: u64) -> Self {
        self.kills.push(Kill {
            rank,
            at_step,
            incarnation: 1,
            wipe: false,
            corrupt_remote: false,
        });
        self
    }

    /// Add a kill of a specific incarnation (repeated-failure tests).
    pub fn and_kill_incarnation(mut self, rank: Rank, at_step: u64, incarnation: u64) -> Self {
        self.kills.push(Kill {
            rank,
            at_step,
            incarnation,
            wipe: false,
            corrupt_remote: false,
        });
        self
    }

    /// Kill the original incarnation of `rank` at `at_step` AND wipe
    /// its local stable store — node loss, not just process loss.
    pub fn kill_wipe_at(rank: Rank, at_step: u64) -> Self {
        Self::none().and_kill_wipe(rank, at_step)
    }

    /// Add a node-loss kill (process + local store).
    pub fn and_kill_wipe(mut self, rank: Rank, at_step: u64) -> Self {
        self.kills.push(Kill {
            rank,
            at_step,
            incarnation: 1,
            wipe: true,
            corrupt_remote: false,
        });
        self
    }

    /// Add a node-loss kill that also tears the victim's newest
    /// remote generation, exercising the restore fallback.
    pub fn and_kill_wipe_corrupt(mut self, rank: Rank, at_step: u64) -> Self {
        self.kills.push(Kill {
            rank,
            at_step,
            incarnation: 1,
            wipe: true,
            corrupt_remote: true,
        });
        self
    }

    /// The planned kill for a given incarnation of `rank`, if any.
    pub fn kill_for(&self, rank: Rank, incarnation: u64) -> Option<&Kill> {
        self.kills
            .iter()
            .find(|k| k.rank == rank && k.incarnation == incarnation)
    }

    /// A seeded pseudo-random schedule of `count` kills over `n` ranks
    /// with crash points up to `max_step`. Roughly every fourth kill
    /// targets the *second* incarnation of an already-killed rank —
    /// i.e. it fires while (or right after) that rank is recovering,
    /// the repeated-failure case of the paper's Fig. 2. Deterministic
    /// in `seed`, and every `(rank, incarnation)` pair is distinct so
    /// each planned kill actually fires exactly once.
    pub fn seeded_random(seed: u64, n: usize, count: usize, max_step: u64) -> Self {
        fn mix(mut z: u64) -> u64 {
            // splitmix64 finalizer.
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        assert!(n > 0, "need at least one rank");
        let mut kills: Vec<Kill> = Vec::with_capacity(count);
        let max_step = max_step.max(1);
        let mut stream = seed;
        for i in 0..count {
            stream = mix(stream ^ i as u64);
            let at_step = 1 + stream % max_step;
            let want_recovery_kill = i % 4 == 3;
            let prior_first_kill = kills
                .iter()
                .find(|k| {
                    k.incarnation == 1
                        && !kills
                            .iter()
                            .any(|other| other.rank == k.rank && other.incarnation == 2)
                })
                .map(|k| k.rank);
            let (rank, incarnation) = match (want_recovery_kill, prior_first_kill) {
                (true, Some(rank)) => (rank, 2),
                _ => {
                    // Probe for a rank whose first incarnation is not
                    // already scheduled to die.
                    let mut rank = (mix(stream) % n as u64) as Rank;
                    let mut probes = 0;
                    while kills.iter().any(|k| k.rank == rank && k.incarnation == 1) {
                        rank = (rank + 1) % n;
                        probes += 1;
                        if probes == n {
                            break;
                        }
                    }
                    if probes == n {
                        // Every rank already dies once; stack a
                        // second-incarnation kill instead.
                        let rank = (mix(stream) % n as u64) as Rank;
                        (rank, 2)
                    } else {
                        (rank, 1)
                    }
                }
            };
            if kills
                .iter()
                .any(|k| k.rank == rank && k.incarnation == incarnation)
            {
                continue; // duplicate pair: drop rather than double-count
            }
            kills.push(Kill {
                rank,
                at_step,
                incarnation,
                wipe: false,
                corrupt_remote: false,
            });
        }
        FailurePlan { kills }
    }

    /// Number of planned kills.
    pub fn len(&self) -> usize {
        self.kills.len()
    }

    /// True when no kills are planned.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    pub(crate) fn should_kill(&self, rank: Rank, incarnation: u64, step: u64) -> bool {
        self.kills
            .iter()
            .any(|k| k.rank == rank && k.incarnation == incarnation && step >= k.at_step)
    }
}

/// Where checkpoints and the TEL/PES event log live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageKind {
    /// In-process store (default): crash survival is modelled by the
    /// runtime never reading volatile state back after a kill.
    #[default]
    Memory,
    /// Real files under the given directory — durable across OS
    /// processes, for demos and paranoia.
    Disk(PathBuf),
}

/// Remote durability for a cluster run: the backend object store and
/// the replication pipeline shipping into it.
#[derive(Clone)]
pub struct RemoteConfig {
    /// The backend object store.
    pub store: Arc<dyn RemoteStore>,
    /// Replication pipeline knobs.
    pub replicator: ReplicatorConfig,
}

impl std::fmt::Debug for RemoteConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteConfig")
            .field("replicator", &self.replicator)
            .finish_non_exhaustive()
    }
}

impl RemoteConfig {
    /// Ship to the given backend with default replicator knobs.
    pub fn new(store: Arc<dyn RemoteStore>) -> Self {
        RemoteConfig {
            store,
            replicator: ReplicatorConfig::default(),
        }
    }

    /// A healthy in-memory backend.
    pub fn in_memory() -> Self {
        Self::new(Arc::new(MemRemote::new()))
    }

    /// A fault-injected in-memory backend driven by the given chaos
    /// schedule. Also returns the `FaultyRemote` handle so tests can
    /// inspect the stored objects and fault counters, or force an
    /// outage with `set_available`.
    pub fn faulty(chaos: StorageChaos) -> (Self, Arc<FaultyRemote<MemRemote>>) {
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), chaos));
        (
            Self::new(Arc::clone(&remote) as Arc<dyn RemoteStore>),
            remote,
        )
    }

    /// Builder-style replicator knob override.
    pub fn with_replicator(mut self, cfg: ReplicatorConfig) -> Self {
        self.replicator = cfg;
        self
    }
}

/// Full configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of application ranks.
    pub n: usize,
    /// Runtime (protocol / engine / checkpoint) configuration.
    pub run: RunConfig,
    /// Fabric configuration.
    pub net: NetConfig,
    /// Failure injection schedule.
    pub failures: FailurePlan,
    /// Stable-storage backend.
    pub storage: StorageKind,
    /// Collect a structured fault-tolerance timeline into
    /// [`RunReport::timeline`].
    pub trace: bool,
    /// Abort the run (with an error naming where every unfinished rank
    /// waits) after this much wall time — a watchdog against protocol
    /// deadlocks.
    pub max_wall: Duration,
    /// Durable log shipping to a remote store (`None` = local-only
    /// stable storage, the paper's baseline).
    pub remote: Option<RemoteConfig>,
    /// Global-rank offset of this job's rank namespace. The runtime
    /// itself always sees local ranks `0..n`; the offset shifts every
    /// durable artefact (checkpoint generations, remote manifest
    /// entries, node-loss restores) into `rank_base..rank_base + n`,
    /// so concurrent tenant jobs can share one storage backend and one
    /// replication pipeline without colliding. Leave 0 for standalone
    /// runs.
    pub rank_base: usize,
}

impl ClusterConfig {
    /// Defaults: direct fabric, no failures, 60 s watchdog.
    pub fn new(n: usize, run: RunConfig) -> Self {
        ClusterConfig {
            n,
            run,
            net: NetConfig::direct(),
            failures: FailurePlan::none(),
            storage: StorageKind::Memory,
            trace: false,
            max_wall: Duration::from_secs(60),
            remote: None,
            rank_base: 0,
        }
    }

    /// Builder-style rank-namespace override (see
    /// [`ClusterConfig::rank_base`]).
    pub fn with_rank_base(mut self, base: usize) -> Self {
        self.rank_base = base;
        self
    }

    /// Builder-style fabric override.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Builder-style failure plan override.
    pub fn with_failures(mut self, failures: FailurePlan) -> Self {
        self.failures = failures;
        self
    }

    /// Builder-style stable-storage override.
    pub fn with_storage(mut self, storage: StorageKind) -> Self {
        self.storage = storage;
        self
    }

    /// Builder-style timeline collection toggle.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style remote durability override.
    pub fn with_remote(mut self, remote: RemoteConfig) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Builder-style watchdog override (long scaling runs need more
    /// than the 60 s default).
    pub fn with_max_wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = max_wall;
        self
    }
}

/// What a completed cluster run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-rank application digests (recovery correctness: equal to a
    /// fault-free run's digests).
    pub digests: Vec<u64>,
    /// Per-rank tracking statistics, merged across incarnations.
    pub per_rank_stats: Vec<TrackingStats>,
    /// Cluster-wide sum of `per_rank_stats`.
    pub stats: TrackingStats,
    /// Wall-clock duration of the run (Fig. 8's accomplishment time).
    /// The one field that reads the host's clock: it varies from run
    /// to run.
    pub wall: Duration,
    /// Number of injected crashes that actually fired.
    pub kills: u32,
    /// Fabric envelope count (app + control + recovery traffic).
    pub net_msgs: u64,
    /// Fabric payload bytes.
    pub net_bytes: u64,
    /// Transport-layer retransmissions (timeout and NACK driven).
    pub retransmits: u64,
    /// Envelopes the chaos fabric silently dropped.
    pub chaos_dropped: u64,
    /// Envelopes the chaos fabric delivered twice.
    pub chaos_duplicated: u64,
    /// Envelopes the chaos fabric flipped a bit in.
    pub chaos_corrupted: u64,
    /// Per-rank data-plane byte accounting (frames built, payload
    /// copies, zero-copy resends, ack coalescing), merged across
    /// incarnations.
    pub per_rank_data_plane: Vec<DataPlaneStats>,
    /// Cluster-wide sum of `per_rank_data_plane`.
    pub data_plane: DataPlaneStats,
    /// Structured fault-tolerance timeline (empty unless
    /// [`ClusterConfig::trace`] was set).
    pub timeline: Vec<Event>,
    /// Failure-detection bookkeeping (`None` unless the run had a
    /// detector configured).
    pub detector: Option<DetectorReport>,
    /// Replication bookkeeping (`None` unless the run had a remote
    /// configured).
    pub replicator: Option<ReplicatorStats>,
}

/// What a detected-failures run learned about its own detector: how
/// fast real deaths were certified and how many live incarnations a
/// false suspicion fenced.
#[derive(Debug, Clone, Default)]
pub struct DetectorReport {
    /// Death declarations certified by the membership arbiter.
    pub declarations: u32,
    /// Live incarnations fenced by a false suspicion; each one cost a
    /// full crash-and-rejoin cycle.
    pub false_kills: u32,
    /// Per injected kill that was certified: time from the crash to
    /// the arbiter's declaration.
    pub detection_latency: Vec<Duration>,
    /// Respawns that started on the gate-timeout fallback instead of a
    /// certified declaration (no survivor managed to detect in time).
    pub gate_timeouts: u32,
}

impl DetectorReport {
    /// Mean declared-dead latency across certified kills.
    pub fn mean_latency(&self) -> Option<Duration> {
        if self.detection_latency.is_empty() {
            return None;
        }
        Some(self.detection_latency.iter().sum::<Duration>() / self.detection_latency.len() as u32)
    }
}

/// Entry point for running applications under rollback recovery.
pub struct Cluster;

/// An incarnation handed to a rank's stack; a successor's restored
/// `(step, state)`, or `None` to start over.
struct Life<S> {
    kernel: Arc<Kernel>,
    incarnation: u64,
    restored: Option<(u64, S)>,
}

/// Where a rank is between rounds, as the driver sees it.
#[derive(Debug)]
#[allow(dead_code)] // `step` is read by the watchdog's report
enum Place {
    /// Parked inside a call at `step`.
    Waiting { wait: Wait, step: u64 },
    /// Parked at `Done`.
    Done,
    /// Dead, until the respawn gate lets its successor up.
    Down,
    /// Resumed next round whatever it waits for (a fresh successor, or
    /// a fenced rank that must notice).
    Ready,
}

/// The driver's record of one rank.
struct Slot {
    incarnation: u64,
    kernel: Arc<Kernel>,
    endpoint: Endpoint,
    place: Place,
}

impl Cluster {
    /// Run `app` on `cfg.n` ranks to completion, injecting the
    /// configured failures. Returns an error naming where every
    /// unfinished rank waits if the watchdog fires.
    pub fn run<A: RankApp>(cfg: &ClusterConfig, app: A) -> Result<RunReport, String> {
        let (env, mut tail) = Tail::open(cfg, None)?;
        let stage = Stage::new(env.n);
        let lives: Vec<_> = (0..env.n).map(|_| Mutex::new(None)).collect();
        let mut slots: Vec<Slot> = (env.attach().into_iter().enumerate())
            .map(|(rank, endpoint)| Slot {
                incarnation: 1,
                kernel: Arc::new(env.boot(rank)),
                endpoint,
                place: Place::Ready,
            })
            .collect();
        let failure = std::thread::scope(|s| {
            // Every stack runs its first round as soon as it starts.
            for (rank, slot) in slots.iter().enumerate() {
                let first = Life {
                    kernel: Arc::clone(&slot.kernel),
                    incarnation: 1,
                    restored: None,
                };
                let (env, app, stage, lives) = (&env, &app, &stage, &lives);
                std::thread::Builder::new()
                    .name(format!("lclog-rank-{rank}"))
                    .spawn_scoped(s, move || {
                        rank_main(env, app, stage, &lives[rank], rank, first)
                    })
                    .expect("spawn rank stack");
            }
            let failure = drive(&env, &mut tail, &stage, &lives, &mut slots);
            // Every stack is parked (or gone, if it panicked): unwind.
            (0..env.n).for_each(|rank| stage.resume(rank, Resume::Shutdown));
            failure
        });
        env.report(tail.start.elapsed(), failure)
    }
}

/// Rounds until every rank is done, or the watchdog's error.
fn drive<S: lclog_wire::Decode>(
    env: &RunEnv,
    tail: &mut Tail,
    stage: &Stage,
    lives: &[Mutex<Option<Life<S>>>],
    slots: &mut [Slot],
) -> Option<String> {
    loop {
        stage.wait_all_parked();
        for (rank, slot) in slots.iter_mut().enumerate() {
            match stage.take_park(rank) {
                None => {}
                Some(Park::Call { wait, step }) => slot.place = Place::Waiting { wait, step },
                Some(Park::Done {
                    step,
                    image,
                    digest,
                }) => {
                    env.finish(rank, step, &slot.kernel, image, digest);
                    slot.place = Place::Done;
                }
                Some(Park::Dead { step, death }) => {
                    env.lose(rank, slot.incarnation, step, &slot.kernel, death);
                    slot.incarnation += 1;
                    slot.place = Place::Down;
                }
                Some(Park::Panicked) => return Some(format!("rank {rank}'s stack panicked")),
            }
            // At once without a detector; else once certified (or the
            // gate's fallback elapsed).
            if matches!(slot.place, Place::Down) {
                if !env.may_respawn(rank, slot.incarnation) {
                    continue;
                }
                let (kernel, endpoint, restored) = env.respawn(rank, slot.incarnation, |bytes| {
                    lclog_wire::decode_from_slice(bytes).ok()
                });
                slot.kernel = Arc::new(kernel);
                slot.endpoint = endpoint;
                slot.place = Place::Ready;
                *lives[rank].lock() = Some(Life {
                    kernel: Arc::clone(&slot.kernel),
                    incarnation: slot.incarnation,
                    restored,
                });
            }
            // Finished ranks keep ticking: they serve their peers until
            // every rank is done.
            slot.kernel.tick();
        }
        match tail.close(env).1 {
            None => {}
            Some(Ok(())) => return None,
            // Name where every unfinished rank waits.
            Some(Err(mut error)) => {
                for (rank, slot) in slots.iter().enumerate() {
                    if !matches!(slot.place, Place::Done) {
                        let (incarnation, place, kernel) =
                            (slot.incarnation, &slot.place, &slot.kernel);
                        error += &format!(
                            "\n  rank {rank} incarnation {incarnation}: {place:?}; {kernel:?}"
                        );
                    }
                }
                return Some(error);
            }
        }
        for (rank, slot) in slots.iter_mut().enumerate() {
            if matches!(slot.place, Place::Down) {
                continue;
            }
            // One batch per boundary: acks coalesce to one cumulative
            // frame per peer.
            let batch: Vec<_> = std::iter::from_fn(|| slot.endpoint.try_recv().ok()).collect();
            let ingested = !batch.is_empty();
            if ingested {
                slot.kernel.ingest_batch(batch);
            }
            let runnable = match &slot.place {
                Place::Waiting { wait, .. } => {
                    slot.kernel.is_fenced()
                        || slot.kernel.is_desynced()
                        || wait.may_end(&slot.kernel, ingested)
                }
                // A false suspicion caught a finished rank: its digest
                // is void, and it rejoins like any fenced incarnation.
                Place::Done => slot.kernel.is_fenced(),
                Place::Down => false,
                Place::Ready => true,
            };
            if runnable {
                slot.place = Place::Ready;
                stage.resume(rank, Resume::Run);
            }
        }
    }
}

/// One rank's whole life on its own stack: run an incarnation to
/// `Done` or to its death, park there for the boundary to book it,
/// come back as the next incarnation.
fn rank_main<A: RankApp>(
    env: &RunEnv,
    app: &A,
    stage: &Stage,
    next_life: &Mutex<Option<Life<A::State>>>,
    rank: Rank,
    first: Life<A::State>,
) {
    // A panicking stack must not leave the driver waiting for its park.
    struct Unwind<'a>(&'a Stage, Rank);
    impl Drop for Unwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.abandon(self.1);
            }
        }
    }
    let _unwind = Unwind(stage, rank);
    let mut life = first;
    loop {
        let (mut step, mut state) = life
            .restored
            .unwrap_or_else(|| (0, app.init(rank, life.kernel.n())));
        let engine = Engine::new(life.kernel, stage);
        let death = loop {
            if let Some(death) = env.due(rank, life.incarnation, step) {
                break death;
            }
            match app.step(&mut RankCtx::new(&engine, step), &mut state) {
                Ok(StepStatus::Continue) => {
                    step += 1;
                    if engine.kernel().checkpoint_due(step) {
                        engine
                            .kernel()
                            .do_checkpoint(lclog_wire::encode_to_vec(&state), step);
                    }
                }
                Ok(StepStatus::Done) => {
                    let image = lclog_wire::encode_to_vec(&state);
                    let digest = app.digest(&state);
                    match stage.park(
                        rank,
                        Park::Done {
                            step,
                            image,
                            digest,
                        },
                    ) {
                        Resume::Shutdown => return,
                        // Resumed while finished: fenced (see `drive`).
                        Resume::Run => break Death::Fenced,
                    }
                }
                Err(_) if engine.is_over() => return,
                // A membership view declared this live incarnation dead:
                // every peer rejects its frames, volatile state is
                // forfeit.
                Err(Fault::Fenced) => break Death::Fenced,
                // Every other fault (`Unreachable`, `Desync`,
                // `Collective`) unwinds like a crash and rejoins
                // through the normal rollback path, which retries the
                // operation against whatever incarnation of the peer
                // answers.
                Err(_) => break Death::Process,
            }
        };
        if let Resume::Shutdown = stage.park(rank, Park::Dead { step, death }) {
            return;
        }
        // The boundary restored the successor (Algorithm 1 lines 40–46).
        life = next_life.lock().take().expect("a successor was brought up");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RecvSpec;
    use lclog_core::ProtocolKind;

    /// A deadlock is named, not just timed out: rank 0 waits for a
    /// message rank 1 never sends, and the watchdog's error says which
    /// rank waits in which call.
    #[test]
    fn the_watchdog_names_where_each_rank_waits() {
        struct Stuck;
        impl RankApp for Stuck {
            type State = u64;
            fn init(&self, _rank: Rank, _n: usize) -> u64 {
                0
            }
            fn step(&self, ctx: &mut RankCtx<'_>, _state: &mut u64) -> Result<StepStatus, Fault> {
                if ctx.rank() == 0 {
                    ctx.recv(RecvSpec::from(1, 42))?;
                }
                Ok(StepStatus::Done)
            }
            fn digest(&self, _state: &u64) -> u64 {
                0
            }
        }
        let cfg = ClusterConfig::new(2, RunConfig::new(ProtocolKind::Tdi))
            .with_max_wall(Duration::from_millis(200));
        let started = std::time::Instant::now();
        let err = Cluster::run(&cfg, Stuck).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(10), "{err}");
        let spec = format!("{:?}", RecvSpec::from(1, 42));
        assert!(
            err.contains(&format!(
                "rank 0 incarnation 1: Waiting {{ wait: Recv({spec}), step: 0 }}"
            )),
            "{err}"
        );
        assert!(err.contains("Kernel {"), "the kernel is dumped: {err}");
        assert!(
            !err.contains("rank 1 "),
            "a finished rank is not named: {err}"
        );
    }

    /// A panicking stack fails the run at the next boundary (the panic
    /// surfaces when the stacks are joined) instead of leaving the
    /// driver waiting for its park, or its peer parked forever.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_rank_does_not_hang_the_run() {
        struct Boom;
        impl RankApp for Boom {
            type State = u64;
            fn init(&self, _rank: Rank, _n: usize) -> u64 {
                0
            }
            fn step(&self, ctx: &mut RankCtx<'_>, _state: &mut u64) -> Result<StepStatus, Fault> {
                assert_eq!(ctx.rank(), 0, "boom");
                ctx.recv(RecvSpec::from(1, 7))?;
                Ok(StepStatus::Done)
            }
            fn digest(&self, _state: &u64) -> u64 {
                0
            }
        }
        let _ = Cluster::run(
            &ClusterConfig::new(2, RunConfig::new(ProtocolKind::Tdi)),
            Boom,
        );
    }

    #[test]
    fn failure_plan_matching() {
        let plan = FailurePlan::kill_at(2, 10).and_kill_incarnation(2, 5, 2);
        assert!(plan.should_kill(2, 1, 10));
        assert!(plan.should_kill(2, 1, 11));
        assert!(!plan.should_kill(2, 1, 9));
        assert!(!plan.should_kill(1, 1, 10));
        assert!(plan.should_kill(2, 2, 5));
        assert!(!plan.should_kill(2, 3, 99));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert!(FailurePlan::none().is_empty());
    }

    #[test]
    fn seeded_random_plan_is_deterministic_and_bounded() {
        let a = FailurePlan::seeded_random(42, 8, 6, 100);
        let b = FailurePlan::seeded_random(42, 8, 6, 100);
        assert_eq!(a.kills, b.kills, "same seed replays the same schedule");
        let c = FailurePlan::seeded_random(43, 8, 6, 100);
        assert_ne!(a.kills, c.kills, "different seed, different schedule");
        assert!(!a.is_empty());
        for k in &a.kills {
            assert!(k.rank < 8);
            assert!(k.at_step >= 1 && k.at_step <= 100);
            assert!(k.incarnation == 1 || k.incarnation == 2);
        }
        // Every (rank, incarnation) pair fires at most once.
        for (i, k) in a.kills.iter().enumerate() {
            for other in &a.kills[i + 1..] {
                assert!(!(k.rank == other.rank && k.incarnation == other.incarnation));
            }
        }
        // With six kills requested, at least one targets a recovering
        // incarnation, and its rank also dies once in incarnation 1.
        let recovery_kill = a
            .kills
            .iter()
            .find(|k| k.incarnation == 2)
            .expect("schedule includes a kill during recovery");
        assert!(a
            .kills
            .iter()
            .any(|k| k.rank == recovery_kill.rank && k.incarnation == 1));
    }
}
