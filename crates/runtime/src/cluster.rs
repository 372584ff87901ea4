//! What every run's callers configure and read — the failure plan, the
//! cluster configuration and the run report — and [`Cluster::run`], the
//! entry point for a [`RankApp`]. It is [`run_tasks`] over an adapter:
//! each rank is its `async` step, a future the one round driver's
//! sweeps poll until it completes (see [`crate::process`]), on the same
//! schedule as any [`crate::TaskApp`].

use crate::config::RunConfig;
use crate::events::Event;
use crate::process::{RankApp, Steps};
use crate::replicator::ReplicatorStats;
use crate::tasks::run_tasks;
use crate::transport::DataPlaneStats;
use lclog_core::{Rank, TrackingStats};
use lclog_simnet::NetConfig;
use lclog_stable::RemoteStore;
use std::path::PathBuf;
use std::rc::Rc;
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
    /// Durable log shipping to this remote store (`None` = local-only
    /// stable storage, the paper's baseline).
    pub remote: Option<Arc<dyn RemoteStore>>,
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
        }
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

    /// Builder-style remote durability override: ship checkpoint
    /// generations to `remote`.
    pub fn with_remote(mut self, remote: Arc<dyn RemoteStore>) -> Self {
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
    /// Wall-clock duration of the run. Read off the host's clock, like
    /// `tracking_time`: the two vary from run to run, every other field
    /// replays exactly.
    pub wall: Duration,
    /// Time on the run's virtual clock when the last rank finished
    /// (Fig. 8's accomplishment time): rounds × the round's advance,
    /// so it replays exactly.
    pub done_at: Duration,
    /// Host time the protocol's piggyback construction and merge took,
    /// summed over ranks and incarnations (Fig. 7's metric).
    pub tracking_time: Duration,
    /// Number of injected crashes that actually fired.
    pub kills: u32,
    /// Fabric envelope count (app + control + recovery traffic).
    pub net_msgs: u64,
    /// Fabric payload bytes.
    pub net_bytes: u64,
    /// Envelopes the fabric's [`lclog_simnet::ChaosConfig`] stalled.
    pub chaos_stalled: u64,
    /// Per-rank data-plane byte accounting (frames built, payload
    /// copies, zero-copy resends), merged across incarnations.
    pub per_rank_data_plane: Vec<DataPlaneStats>,
    /// Cluster-wide sum of `per_rank_data_plane`.
    pub data_plane: DataPlaneStats,
    /// Structured fault-tolerance timeline (empty unless
    /// [`ClusterConfig::trace`] was set).
    pub timeline: Vec<Event>,
    /// Replication bookkeeping (`None` unless the run had a remote
    /// configured).
    pub replicator: Option<ReplicatorStats>,
}

/// Entry point for running applications under rollback recovery.
pub struct Cluster;

impl Cluster {
    /// Run `app` on `cfg.n` ranks to completion, injecting the
    /// configured failures. Each rank is polled by the one driver like
    /// a [`crate::TaskApp`], through an adapter whose poll drives the
    /// rank's one step future. Returns an error naming where every
    /// unfinished rank waits if the watchdog fires.
    pub fn run<A: RankApp>(cfg: &ClusterConfig, app: A) -> Result<RunReport, String> {
        run_tasks(cfg, Steps(Rc::new(app)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, StepStatus};
    use crate::message::RecvSpec;
    use crate::process::RankCtx;
    use crate::tasks::{TaskApp, TaskCtx, TaskPoll};
    use lclog_core::ProtocolKind;

    /// A deadlock is named, not just timed out: rank 0 waits for a
    /// message rank 1 never sends, and the watchdog's error says which
    /// rank waits where — in which call for a `RankApp`, pending for a
    /// `TaskApp`.
    #[test]
    fn the_watchdog_names_where_each_rank_waits() {
        struct Stuck;
        impl RankApp for Stuck {
            type State = u64;
            fn init(&self, _rank: Rank, _n: usize) -> u64 {
                0
            }
            async fn step(
                &self,
                ctx: &mut RankCtx<'_>,
                _state: &mut u64,
            ) -> Result<StepStatus, Fault> {
                if ctx.rank() == 0 {
                    ctx.recv(RecvSpec::from(1, 42)).await?;
                }
                Ok(StepStatus::Done)
            }
            fn digest(&self, _state: &u64) -> u64 {
                0
            }
        }
        struct StuckTask;
        impl TaskApp for StuckTask {
            type State = u64;
            fn init(&self, _rank: Rank, _n: usize) -> u64 {
                0
            }
            fn poll(&self, ctx: &mut TaskCtx<'_>, _state: &mut u64) -> Result<TaskPoll, Fault> {
                if ctx.rank() == 0 && ctx.try_recv(RecvSpec::from(1, 42))?.is_none() {
                    return Ok(TaskPoll::Pending);
                }
                Ok(TaskPoll::Done)
            }
            fn digest(&self, _state: &u64) -> u64 {
                0
            }
        }
        let cfg = ClusterConfig::new(2, RunConfig::new(ProtocolKind::Tdi))
            .with_max_wall(Duration::from_millis(200));
        let spec = format!("{:?}", RecvSpec::from(1, 42));
        let check = |run: &dyn Fn() -> Result<RunReport, String>, place: String| {
            let started = std::time::Instant::now();
            let err = run().unwrap_err();
            assert!(started.elapsed() < Duration::from_secs(10), "{err}");
            assert!(err.starts_with("watchdog fired after"), "{err}");
            assert!(
                err.contains(&format!("rank 0 incarnation 1: {place}")),
                "{err}"
            );
            assert!(err.contains("Kernel {"), "the kernel is dumped: {err}");
            assert!(
                !err.contains("rank 1 "),
                "a finished rank is not named: {err}"
            );
        };
        check(
            &|| Cluster::run(&cfg, Stuck),
            format!("Waiting {{ wait: Recv({spec}), step: 0 }}"),
        );
        check(
            &|| run_tasks(&cfg, StuckTask),
            "Pending { step: 0 }".to_string(),
        );
    }

    /// A panicking step fails the run on the caller's thread instead of
    /// leaving its peer waiting forever.
    #[test]
    #[should_panic(expected = "boom")]
    fn a_panicking_rank_does_not_hang_the_run() {
        struct Boom;
        impl RankApp for Boom {
            type State = u64;
            fn init(&self, _rank: Rank, _n: usize) -> u64 {
                0
            }
            async fn step(
                &self,
                ctx: &mut RankCtx<'_>,
                _state: &mut u64,
            ) -> Result<StepStatus, Fault> {
                assert_eq!(ctx.rank(), 0, "boom");
                ctx.recv(RecvSpec::from(1, 7)).await?;
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
