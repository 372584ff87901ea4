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
//! * brings up the successor ([`RunEnv::respawn`]: endpoint →
//!   detector gate → `Spawned` → [`Kernel::respawn`], the restore and
//!   the `ROLLBACK` broadcast),
//! * books a completion ([`RunEnv::finish`]) and assembles the
//!   [`RunReport`] ([`RunEnv::report`]).
//!
//! The engines only schedule: [`crate::Cluster`] runs the loop on one
//! OS thread per rank, [`crate::TaskJob`] inside a sweep, the schedule
//! explorer at decider-chosen points — so the crash path the explorer
//! model-checks is the one that ships.

use crate::cluster::{ClusterConfig, DetectorReport, FailurePlan, RunReport, StorageKind};
use crate::config::RunConfig;
use crate::detector::MembershipTable;
use crate::events::{EventKind, EventSink};
use crate::kernel::Kernel;
use crate::replicator::Replicator;
use crate::transport::DataPlaneStats;
use lclog_core::{Rank, TrackingStats};
use lclog_simnet::{Endpoint, SimNet};
use lclog_stable::{CheckpointStore, DiskStore, MemStore, StableStorage};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
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
    done: usize,
    kills: u32,
    false_kills: u32,
    gate_timeouts: u32,
    /// When each incarnation died, for detection latency.
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
    /// Set once every rank finished, or the watchdog gave up.
    pub(crate) shutdown: Arc<AtomicBool>,
    board: Mutex<Board>,
    finished: Condvar,
}

impl RunEnv {
    /// Open the run `cfg` describes: fabric (its release times on the
    /// run's clock), storage, and — with `cfg.remote` — the replication
    /// pipeline durable writes ship through. Under a `host`, storage and
    /// pipeline are the host's (`cfg.storage` and `cfg.remote` are
    /// ignored) and the pipeline is never finished here.
    pub fn open(cfg: &ClusterConfig, host: Option<&TasksEnv>) -> Result<Self, String> {
        let n = cfg.n;
        assert!(n > 0, "cluster needs at least one rank");
        let sink = if cfg.trace {
            EventSink::recording()
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
                    Replicator::spawn(
                        Arc::clone(&rc.store),
                        rc.replicator.clone(),
                        sink.clone(),
                        cfg.rank_base + crate::logger_rank(n),
                    )
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
            shutdown: Arc::new(AtomicBool::new(false)),
            board: Mutex::new(Board {
                digests: vec![None; n],
                stats: vec![TrackingStats::default(); n],
                data_plane: vec![DataPlaneStats::default(); n],
                done: 0,
                kills: 0,
                false_kills: 0,
                gate_timeouts: 0,
                killed_at: HashMap::new(),
            }),
            finished: Condvar::new(),
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
                board.killed_at.insert((rank, incarnation), Instant::now());
            }
            if board.digests[rank].is_none() {
                board.stats[rank].merge(&snap.stats);
                board.data_plane[rank].merge(&snap.data_plane);
            } else if !self.is_shutdown() {
                // Fenced after `Done`: the counters were tallied with
                // the digest, the digest is void. Once the run is over
                // (decided under this lock) the digest stands.
                board.digests[rank] = None;
                board.done -= 1;
            }
        }
        if let Death::Node { torn_upload } = death {
            // Let the replicator drain before the replacement comes
            // up: the respawn must not restore against a manifest
            // staler than what survivors can still replay (a backend
            // outage in progress is ridden out here, bounded). After
            // the drain the newest remote generation is the one the
            // victim just checkpointed.
            if let Some(repl) = &self.replicator {
                repl.wait_synced(Duration::from_secs(2));
                if torn_upload {
                    repl.corrupt_newest_remote_generation(self.ckpts.rank_base() + rank);
                }
            }
            let generations = self.ckpts.clear_rank(rank);
            self.sink.emit(rank, EventKind::StoreWiped { generations });
        }
    }

    /// Bring up `incarnation` (> 1) of `rank` after [`RunEnv::lose`].
    /// `decode` reads the checkpointed application state; `None` in
    /// the third place means no usable image, so the caller restarts
    /// the application from its initial state and both roll forward.
    pub fn respawn<S>(
        &self,
        rank: Rank,
        incarnation: u64,
        decode: impl FnOnce(&[u8]) -> Option<S>,
    ) -> (Kernel, Endpoint, Option<(u64, S)>) {
        let endpoint = self.net.respawn(rank);
        // Detected failures: the replacement does not start until the
        // arbiter has *certified* its predecessor dead — the respawn
        // is driven by detection, not by the injection script. The
        // gate timeout preserves liveness if no survivor can detect.
        if let (Some(table), Some(dcfg)) = (&self.membership, &self.run.detector) {
            if !table.wait_floor_above(rank, incarnation - 1, dcfg.gate_timeout)
                && !self.is_shutdown()
            {
                self.board.lock().gate_timeouts += 1;
            }
        }
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
        board.digests[rank] = Some(digest);
        board.done += 1;
        self.finished.notify_all();
    }

    /// Ranks finished so far.
    pub fn done(&self) -> usize {
        self.board.lock().done
    }

    /// Crashes so far, injected or earned.
    pub fn kills(&self) -> u32 {
        self.board.lock().kills
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Block until every rank has finished or `deadline` passes, and
    /// flag the run over either way. True when all finished.
    pub(crate) fn wait_all_done(&self, deadline: Instant) -> bool {
        let mut board = self.board.lock();
        while board.done < self.n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.finished.wait_for(&mut board, left);
        }
        self.shutdown.store(true, Ordering::Relaxed);
        board.done == self.n
    }

    /// Delete every checkpoint generation this run wrote, returning
    /// how many. For hosts retiring a tenant whose report has been
    /// fetched.
    pub fn clear_generations(&self) -> usize {
        (0..self.n).map(|rank| self.ckpts.clear_rank(rank)).sum()
    }

    /// The run's [`RunReport`] — or `failure`, the engine's watchdog
    /// verdict. A replicator the run owns is drained and joined first;
    /// a host's is only read.
    pub fn report(&self, wall: Duration, failure: Option<String>) -> Result<RunReport, String> {
        if let (true, Some(repl)) = (self.owns_replicator, &self.replicator) {
            repl.finish();
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
