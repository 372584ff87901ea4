//! One incarnation lifecycle under every engine: Fig. 4's rank loop —
//! run, checkpoint, die, restore, `ROLLBACK`, roll forward — written
//! once.
//!
//! A [`RunEnv`] owns what a run shares (fabric, adjusted [`RunConfig`],
//! checkpoint store, raw store, replicator, timeline sink, failure
//! plan, membership table, result board) and is the only code that
//!
//! * opens storage ([`RunEnv::open`]),
//! * boots incarnation 1 ([`RunEnv::attach`], [`RunEnv::boot`]),
//! * handles a death ([`RunEnv::lose`]: `Crashed` → fabric kill, which
//!   loses every frame in flight toward the victim → tally → on node
//!   loss drain the replicator, tear the newest upload if asked, wipe →
//!   `StoreWiped`),
//! * gates the successor on detection ([`RunEnv::may_respawn`]),
//! * brings up the successor ([`RunEnv::respawn`]: endpoint →
//!   `Spawned` → [`Kernel::respawn`], the restore and the `ROLLBACK`
//!   broadcast),
//! * books a completion ([`RunEnv::finish`]) and assembles the
//!   [`RunReport`] ([`RunEnv::report`]).
//!
//! The drivers only schedule: [`crate::TaskJob`] inside a sweep (for
//! [`crate::Cluster::run`] too), the schedule explorer at
//! decider-chosen points — so the crash path the explorer model-checks
//! is the one that ships.

use crate::cluster::{ClusterConfig, DetectorReport, FailurePlan, RunReport, StorageKind};
use crate::config::RunConfig;
use crate::detector::{MembershipTable, GATE_TIMEOUT};
use crate::events::{EventKind, EventSink};
use crate::kernel::Kernel;
use crate::replicator::Replicator;
use crate::service::event_log_key;
use crate::transport::DataPlaneStats;
use lclog_core::{Rank, TrackingStats};
use lclog_simnet::{Endpoint, SimNet};
use lclog_stable::{CheckpointStore, DiskStore, MemStore, StableStorage};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durable resources a host shares between co-resident runs: jobs of a
/// hosting service write into one backend (namespaced by
/// [`ClusterConfig::rank_base`]) and ship through one replication
/// pipeline, whose lifecycle stays with the host.
pub struct TasksEnv {
    /// Local stable storage shared by the jobs.
    pub storage: Arc<dyn StableStorage>,
    /// Shared replication pipeline (`None` = local-only durability).
    pub replicator: Option<Arc<Replicator>>,
}

/// What died with an incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Death {
    /// The process: volatile state is lost, the local store survives.
    Process,
    /// The node: the local store is wiped too and the successor
    /// restores from the remote. `torn_upload` also damages the newest
    /// remote generation, forcing the restore back one generation.
    Node {
        /// The node died mid-upload.
        torn_upload: bool,
    },
    /// A live incarnation the membership service declared dead (false
    /// suspicion); it rejoins like a crashed one.
    Fenced,
}

/// Stable-storage wrapper that mirrors durable writes into the
/// replicator: checkpoint-generation puts and append-log records are
/// offered (non-blocking) after landing locally. Deletes are local
/// only — remote retention is the manifest's business, and keeping
/// superseded generations remotely deepens the restore fallback.
struct ShippingStorage {
    inner: Arc<dyn StableStorage>,
    repl: Arc<Replicator>,
}

impl StableStorage for ShippingStorage {
    fn put(&self, key: &str, bytes: &[u8]) {
        self.inner.put(key, bytes);
        if key.starts_with("ckpt/") {
            self.repl.offer_generation(key, bytes);
        }
    }

    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn delete(&self, key: &str) {
        self.inner.delete(key);
    }

    fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.inner.keys_with_prefix(prefix)
    }

    fn append(&self, key: &str, record: &[u8]) {
        self.inner.append(key, record);
        self.repl.offer_record(key, record);
    }

    fn read_log(&self, key: &str) -> Vec<Vec<u8>> {
        self.inner.read_log(key)
    }

    fn truncate_log(&self, key: &str) {
        self.inner.truncate_log(key)
    }
}

/// Per-rank results and run-wide bookkeeping, behind one lock.
struct Board {
    /// `Some` once the rank's application finished.
    digests: Vec<Option<u64>>,
    /// Merged across each rank's incarnations: dead ones at their
    /// crash, the finishing one with its digest.
    stats: Vec<TrackingStats>,
    data_plane: Vec<DataPlaneStats>,
    /// Host time in the tracking layer, summed like `stats`.
    tracking_time: Duration,
    done: usize,
    kills: u32,
    false_kills: u32,
    gate_timeouts: u32,
    /// When each unfenced incarnation died (run clock): detection
    /// latency and the respawn gate's fallback.
    killed_at: HashMap<(Rank, u64), Instant>,
}

/// Everything one run shares; see the module docs.
pub struct RunEnv {
    pub(crate) n: usize,
    net: SimNet,
    pub(crate) run: RunConfig,
    pub(crate) ckpts: CheckpointStore,
    /// Restores install here, below the shipping wrapper: what just
    /// came down is not shipped back up.
    raw: Arc<dyn StableStorage>,
    replicator: Option<Arc<Replicator>>,
    owns_replicator: bool,
    pub(crate) sink: EventSink,
    plan: FailurePlan,
    /// The arbiter's table (detected-failures runs only).
    pub(crate) membership: Option<Arc<MembershipTable>>,
    board: Mutex<Board>,
}

impl RunEnv {
    /// Open the run `cfg` describes: fabric (its release times on the
    /// run's clock), storage, and — with `cfg.remote` — the replication
    /// pipeline durable writes ship through, its retries and breaker on
    /// the run's clock too. Under a `host`, storage and pipeline are the
    /// host's (`cfg.storage` and `cfg.remote` are ignored), and the host
    /// steps the pipeline.
    pub fn open(cfg: &ClusterConfig, host: Option<&TasksEnv>) -> Result<Self, String> {
        let n = cfg.n;
        assert!(n > 0, "cluster needs at least one rank");
        let sink = if cfg.trace {
            EventSink::recording(cfg.run.clock.clone())
        } else {
            EventSink::disabled()
        };
        let (raw, replicator) = match host {
            Some(host) => (Arc::clone(&host.storage), host.replicator.clone()),
            None => {
                let raw: Arc<dyn StableStorage> = match &cfg.storage {
                    StorageKind::Memory => Arc::new(MemStore::new()),
                    StorageKind::Disk(dir) => {
                        Arc::new(DiskStore::open(dir).map_err(|e| format!("open disk store: {e}"))?)
                    }
                };
                let replicator = cfg.remote.as_ref().map(|rc| {
                    Arc::new(Replicator::new(
                        Arc::clone(&rc.store),
                        rc.replicator.clone(),
                        cfg.run.clock.clone(),
                        sink.clone(),
                        cfg.rank_base + crate::logger_rank(n),
                    ))
                });
                (raw, replicator)
            }
        };
        let storage: Arc<dyn StableStorage> = match &replicator {
            Some(repl) => Arc::new(ShippingStorage {
                inner: Arc::clone(&raw),
                repl: Arc::clone(repl),
            }),
            None => Arc::clone(&raw),
        };
        let mut run = cfg.run.clone();
        // A node-loss restore may fall back one generation; survivors
        // must then keep one extra generation of sender-log entries
        // resendable.
        run.log_gc_lag |= replicator.is_some();
        Ok(RunEnv {
            n,
            net: SimNet::with_clock(n + 1, cfg.net.clone(), run.clock.clone()),
            membership: run.detector.map(|_| Arc::new(MembershipTable::new(n))),
            run,
            ckpts: CheckpointStore::new(storage).with_rank_base(cfg.rank_base),
            raw,
            replicator,
            owns_replicator: host.is_none(),
            sink,
            plan: cfg.failures.clone(),
            board: Mutex::new(Board {
                digests: vec![None; n],
                stats: vec![TrackingStats::default(); n],
                data_plane: vec![DataPlaneStats::default(); n],
                tracking_time: Duration::ZERO,
                done: 0,
                kills: 0,
                false_kills: 0,
                gate_timeouts: 0,
                killed_at: HashMap::new(),
            }),
        })
    }

    /// The run's fabric.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The run's checkpoint store.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.ckpts
    }

    /// Attach every rank's first endpoint. Call once, before any
    /// kernel sends: a send to a not-yet-attached slot is dropped as
    /// if the destination were dead.
    pub fn attach(&self) -> Vec<Endpoint> {
        (0..self.n).map(|rank| self.net.attach(rank)).collect()
    }

    /// Incarnation 1 of `rank`.
    pub fn boot(&self, rank: Rank) -> Kernel {
        let mut kernel = Kernel::new(
            rank,
            self.n,
            self.run.clone(),
            self.net.clone(),
            self.ckpts.clone(),
        );
        kernel.set_incarnation(1);
        kernel.set_event_sink(self.sink.clone());
        self.sink.emit(rank, EventKind::Spawned { incarnation: 1 });
        kernel
    }

    /// How the failure plan kills this incarnation of `rank`, once its
    /// step counter has reached the planned step.
    pub fn due(&self, rank: Rank, incarnation: u64, step: u64) -> Option<Death> {
        if !self.plan.should_kill(rank, incarnation, step) {
            return None;
        }
        Some(match self.plan.kill_for(rank, incarnation) {
            Some(kill) if kill.wipe => Death::Node {
                torn_upload: kill.corrupt_remote,
            },
            _ => Death::Process,
        })
    }

    /// This incarnation of `rank` is dead. Its engine must already have
    /// stopped touching `kernel`.
    pub fn lose(&self, rank: Rank, incarnation: u64, step: u64, kernel: &Kernel, death: Death) {
        self.sink.emit(rank, EventKind::Crashed { step });
        self.net.kill(rank);
        let snap = kernel.snapshot();
        {
            let mut board = self.board.lock();
            board.kills += 1;
            if death == Death::Fenced {
                board.false_kills += 1;
            } else {
                board
                    .killed_at
                    .insert((rank, incarnation), self.run.clock.now());
            }
            if board.digests[rank].is_none() {
                board.stats[rank].merge(&snap.stats);
                board.data_plane[rank].merge(&snap.data_plane);
                board.tracking_time += snap.tracking_time;
            } else {
                // Fenced after `Done`: the counters were tallied with
                // the digest, the digest is void.
                board.digests[rank] = None;
                board.done -= 1;
            }
        }
        if let Death::Node { torn_upload } = death {
            // Drain the replicator before the replacement comes up: the
            // respawn must not restore against a manifest staler than
            // what survivors can still replay. The drain ships what was
            // offered before it (an outage counted in operations is
            // retried through), never what other tenants offer
            // meanwhile, so the newest remote generation is now the one
            // the victim last checkpointed.
            if let Some(repl) = &self.replicator {
                repl.drain();
                if torn_upload {
                    repl.corrupt_newest_remote_generation(self.ckpts.rank_base() + rank);
                }
            }
            let generations = self.ckpts.clear_rank(rank);
            self.sink.emit(rank, EventKind::StoreWiped { generations });
        }
    }

    /// The respawn gate, never blocking: may `incarnation` (> 1) of
    /// `rank` come up now? With detected failures only once the arbiter
    /// certified its predecessor dead, or — liveness, counted in
    /// [`DetectorReport::gate_timeouts`] — 1 s after the death on the
    /// run's clock. A driver asks every round while the rank is down.
    pub(crate) fn may_respawn(&self, rank: Rank, incarnation: u64) -> bool {
        let Some(table) = &self.membership else {
            return true;
        };
        if table.floor_above(rank, incarnation - 1) {
            return true;
        }
        let mut board = self.board.lock();
        let Some(&died) = board.killed_at.get(&(rank, incarnation - 1)) else {
            return true; // fenced, so declared already
        };
        if self.run.clock.now().saturating_duration_since(died) < GATE_TIMEOUT {
            return false;
        }
        board.gate_timeouts += 1;
        true
    }

    /// Bring up `incarnation` (> 1) of `rank` once the respawn gate
    /// allows it (always, without a detector). `decode` reads the
    /// checkpointed application state; `None` in the third place means
    /// no usable image, so the caller restarts the application from
    /// its initial state and both roll forward.
    pub fn respawn<S>(
        &self,
        rank: Rank,
        incarnation: u64,
        decode: impl FnOnce(&[u8]) -> Option<S>,
    ) -> (Kernel, Endpoint, Option<(u64, S)>) {
        let endpoint = self.net.respawn(rank);
        self.sink.emit(rank, EventKind::Spawned { incarnation });
        let (kernel, restored) = Kernel::respawn(
            rank,
            self.n,
            self.run.clone(),
            self.net.clone(),
            self.ckpts.clone(),
            incarnation,
            self.sink.clone(),
            self.replicator
                .as_deref()
                .map(|repl| (repl, self.raw.as_ref())),
            decode,
        );
        (kernel, endpoint, restored)
    }

    /// The application finished on `rank` after `step` with `digest`.
    /// A final checkpoint of `app_state` lets every peer release the
    /// last log entries referring to it.
    pub fn finish(&self, rank: Rank, step: u64, kernel: &Kernel, app_state: Vec<u8>, digest: u64) {
        self.sink.emit(rank, EventKind::Done { step });
        kernel.do_checkpoint(app_state, step);
        let snap = kernel.snapshot();
        let mut board = self.board.lock();
        board.stats[rank].merge(&snap.stats);
        board.data_plane[rank].merge(&snap.data_plane);
        board.tracking_time += snap.tracking_time;
        board.digests[rank] = Some(digest);
        board.done += 1;
    }

    /// Ranks finished so far.
    pub fn done(&self) -> usize {
        self.board.lock().done
    }

    /// Crashes so far, injected or earned.
    pub fn kills(&self) -> u32 {
        self.board.lock().kills
    }

    /// Delete every checkpoint generation and event log this run
    /// wrote, returning how many generations. For hosts retiring a
    /// tenant whose report has been fetched.
    pub fn clear_generations(&self) -> usize {
        let storage = self.ckpts.storage();
        (0..self.n)
            .map(|rank| {
                storage.truncate_log(&event_log_key(self.ckpts.rank_base() + rank));
                self.ckpts.clear_rank(rank)
            })
            .sum()
    }

    /// The replicator this run owns and steps (`None` without a remote,
    /// or when a host owns and steps it).
    pub(crate) fn own_replicator(&self) -> Option<&Arc<Replicator>> {
        self.replicator.as_ref().filter(|_| self.owns_replicator)
    }

    /// The run's [`RunReport`] — or `failure`, the driver's watchdog
    /// verdict. A replicator the run owns is drained first; a host's is
    /// only read.
    pub fn report(&self, wall: Duration, failure: Option<String>) -> Result<RunReport, String> {
        if let Some(repl) = self.own_replicator() {
            repl.drain();
        }
        if let Some(msg) = failure {
            return Err(msg);
        }
        let board = self.board.lock();
        let mut stats = TrackingStats::default();
        board.stats.iter().for_each(|s| stats.merge(s));
        let mut data_plane = DataPlaneStats::default();
        board.data_plane.iter().for_each(|d| data_plane.merge(d));
        let detector = self.membership.as_ref().map(|table| {
            let declarations = table.declarations();
            DetectorReport {
                declarations: declarations.len() as u32,
                false_kills: board.false_kills,
                gate_timeouts: board.gate_timeouts,
                // A declaration matching no recorded death was a false
                // suspicion and has no latency.
                detection_latency: declarations
                    .iter()
                    .filter_map(|decl| {
                        let died = board.killed_at.get(&(decl.rank, decl.incarnation))?;
                        Some(decl.at.saturating_duration_since(*died))
                    })
                    .collect(),
            }
        });
        let net = self.net.stats();
        Ok(RunReport {
            digests: board
                .digests
                .iter()
                .map(|d| d.expect("report taken with an unfinished rank"))
                .collect(),
            per_rank_stats: board.stats.clone(),
            stats,
            wall,
            tracking_time: board.tracking_time,
            kills: board.kills,
            net_msgs: net.msgs_sent(),
            net_bytes: net.bytes_sent(),
            retransmits: net.retransmits(),
            chaos_dropped: net.chaos_dropped(),
            chaos_duplicated: net.chaos_duplicated(),
            chaos_corrupted: net.chaos_corrupted(),
            per_rank_data_plane: board.data_plane.clone(),
            data_plane,
            timeline: self.sink.take(),
            detector,
            replicator: self.replicator.as_ref().map(|r| r.stats()),
        })
    }
}
