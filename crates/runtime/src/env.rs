//! One incarnation lifecycle under every engine: Fig. 4's rank loop —
//! run, checkpoint, die, restore, `ROLLBACK`, roll forward — written
//! once.
//!
//! A [`RunEnv`] owns what a run shares (fabric, adjusted [`RunConfig`],
//! checkpoint store, raw store, replicator, timeline sink, failure
//! plan, result board; no other run shares its storage or replicator)
//! and is the only code that
//!
//! * opens storage ([`RunEnv::open`]),
//! * boots incarnation 1 ([`RunEnv::attach`], [`RunEnv::boot`]),
//! * handles a death ([`RunEnv::lose`]: `Crashed` → fabric kill, which
//!   loses every frame in flight toward the victim → tally → on node
//!   loss drain the replicator, tear the newest upload if asked, wipe →
//!   `StoreWiped`),
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
//!
//! Failures are announced, as the paper assumes: a death is a
//! [`FailurePlan`] kill (or a fault the application surfaced), booked
//! by [`RunEnv::lose`], and the driver respawns the successor in the
//! same sweep boundary. Nothing has to detect it.

use crate::cluster::{ClusterConfig, FailurePlan, RunReport, StorageKind};
use crate::config::RunConfig;
use crate::events::{EventKind, EventSink};
use crate::kernel::Kernel;
use crate::replicator::Replicator;
use crate::transport::DataPlaneStats;
use bytes::Bytes;
use lclog_core::{Rank, TrackingStats};
use lclog_simnet::{Endpoint, SimNet};
use lclog_stable::{CheckpointStore, DiskStore, MemStore, StableStorage};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

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
}

/// Stable-storage wrapper that mirrors checkpoint generations into the
/// replicator: each generation put is offered (non-blocking) after
/// landing locally. Deletes are local only — keeping superseded
/// generations remotely deepens the restore fallback — and append
/// logs (TEL determinants) are not shipped: no restore reads them.
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

    fn get(&self, key: &str) -> Option<Bytes> {
        self.inner.get(key)
    }

    fn delete(&self, key: &str) {
        self.inner.delete(key);
    }

    fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.inner.keys_with_prefix(prefix)
    }

    fn append(&self, key: &str, record: &[u8]) {
        self.inner.append(key, record)
    }

    fn read_log(&self, key: &str) -> Vec<Vec<u8>> {
        self.inner.read_log(key)
    }

    fn truncate_log(&self, key: &str) {
        self.inner.truncate_log(key)
    }
}

/// Per-rank results and run-wide bookkeeping.
struct Board {
    /// `Some` once the rank's application finished.
    digests: Vec<Option<u64>>,
    /// Merged across each rank's incarnations: dead ones at their
    /// crash, the finishing one with its digest.
    stats: Vec<TrackingStats>,
    data_plane: Vec<DataPlaneStats>,
    /// Host time in the tracking layer, summed like `stats`.
    tracking_time: Duration,
    /// The run's clock when the last rank finished so far.
    done_at: Duration,
    done: usize,
    kills: u32,
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
    /// Stepped by the run's driver each round (`None` without a remote).
    pub(crate) replicator: Option<Arc<Replicator>>,
    pub(crate) sink: EventSink,
    plan: FailurePlan,
    board: RefCell<Board>,
}

impl RunEnv {
    /// Open the run `cfg` describes: fabric (its release times on the
    /// run's clock), storage, and — with `cfg.remote` — the replicator
    /// checkpoint generations ship through.
    pub fn open(cfg: &ClusterConfig) -> Result<Self, String> {
        let n = cfg.n;
        assert!(n > 0, "cluster needs at least one rank");
        let sink = if cfg.trace {
            EventSink::recording(cfg.run.clock.clone())
        } else {
            EventSink::disabled()
        };
        let raw: Arc<dyn StableStorage> = match &cfg.storage {
            StorageKind::Memory => Arc::new(MemStore::new()),
            StorageKind::Disk(dir) => {
                Arc::new(DiskStore::open(dir).map_err(|e| format!("open disk store: {e}"))?)
            }
        };
        let replicator = cfg
            .remote
            .as_ref()
            .map(|store| Arc::new(Replicator::new(Arc::clone(store))));
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
            run,
            ckpts: CheckpointStore::new(storage),
            raw,
            replicator,
            sink,
            plan: cfg.failures.clone(),
            board: RefCell::new(Board {
                digests: vec![None; n],
                stats: vec![TrackingStats::default(); n],
                data_plane: vec![DataPlaneStats::default(); n],
                tracking_time: Duration::ZERO,
                done_at: Duration::ZERO,
                done: 0,
                kills: 0,
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

    /// This incarnation of `rank`, unfinished, is dead. Its engine must
    /// already have stopped touching `kernel`.
    pub fn lose(&self, rank: Rank, step: u64, kernel: &Kernel, death: Death) {
        self.sink.emit(rank, EventKind::Crashed { step });
        self.net.kill(rank);
        let snap = kernel.snapshot();
        {
            let mut board = self.board.borrow_mut();
            debug_assert!(board.digests[rank].is_none(), "rank {rank} died after Done");
            board.kills += 1;
            board.stats[rank].merge(&snap.stats);
            board.data_plane[rank].merge(&snap.data_plane);
            board.tracking_time += snap.tracking_time;
        }
        if let Death::Node { torn_upload } = death {
            // Drain the replicator before the replacement comes up: the
            // respawn must not restore against a manifest staler than
            // what survivors can still replay. The drain ships what was
            // offered before it (an outage counted in operations is
            // retried through), so the newest remote generation is now
            // the one the victim last checkpointed.
            if let Some(repl) = &self.replicator {
                repl.drain();
                if torn_upload {
                    repl.corrupt_newest_remote_generation(rank);
                }
            }
            let generations = self.ckpts.clear_rank(rank);
            self.sink.emit(rank, EventKind::StoreWiped { generations });
        }
    }

    /// Bring up `incarnation` (> 1) of `rank`. `decode` reads the
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
        let mut board = self.board.borrow_mut();
        board.stats[rank].merge(&snap.stats);
        board.data_plane[rank].merge(&snap.data_plane);
        board.tracking_time += snap.tracking_time;
        board.digests[rank] = Some(digest);
        board.done_at = self.run.clock.elapsed();
        board.done += 1;
    }

    /// Ranks finished so far.
    pub fn done(&self) -> usize {
        self.board.borrow().done
    }

    /// The run's [`RunReport`] — or `failure`, the driver's watchdog
    /// verdict. The run's replicator, if any, is drained first.
    pub fn report(&self, wall: Duration, failure: Option<String>) -> Result<RunReport, String> {
        if let Some(repl) = &self.replicator {
            repl.drain();
        }
        if let Some(msg) = failure {
            return Err(msg);
        }
        let board = self.board.borrow();
        let mut stats = TrackingStats::default();
        board.stats.iter().for_each(|s| stats.merge(s));
        let mut data_plane = DataPlaneStats::default();
        board.data_plane.iter().for_each(|d| data_plane.merge(d));
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
            done_at: board.done_at,
            kills: board.kills,
            net_msgs: net.msgs_sent(),
            net_bytes: net.bytes_sent(),
            chaos_stalled: net.chaos_stalled(),
            per_rank_data_plane: board.data_plane.clone(),
            data_plane,
            timeline: self.sink.take(),
            replicator: self.replicator.as_ref().map(|r| r.stats()),
        })
    }
}
