//! Durable log shipping: an asynchronous replicator streaming sealed
//! checkpoint generations and log segments to a [`RemoteStore`], plus
//! the node-loss restore path that rebuilds a wiped local store from
//! the remote.
//!
//! The paper's recovery story keeps sender logs and checkpoints on
//! *local* stable storage; a failure that takes the disk with the
//! process is therefore unrecoverable — survivors have already
//! garbage-collected the log entries the dead rank's checkpoint
//! covered. The [`Replicator`] closes that gap without touching the
//! send hot path:
//!
//! * checkpoint writes and determinant appends are **offered** to the
//!   replicator via a non-blocking queue; a background thread ships
//!   them with a bounded in-flight window and
//!   [`RetryBackoff`] full-jitter
//!   retries;
//! * every shipped object is recorded in a CRC-checked [`Manifest`];
//!   an object is *fully certified* only when an intact manifest
//!   lists it and its stored bytes match the recorded CRC;
//! * when the backend stays down a **circuit breaker** opens:
//!   replication degrades to a bounded local spill buffer with byte
//!   accounting, shedding oldest already-checkpointed segments first,
//!   and **re-syncs against the manifest** when the backend returns;
//! * a respawned rank that finds its local store wiped calls
//!   [`Replicator::restore_rank`]: the newest fully-certified
//!   generation wins, a checksum failure falls back one generation,
//!   and the rank then rejoins through the normal ROLLBACK protocol.

use crate::backoff::RetryBackoff;
use crate::events::{EventKind, EventSink};
use lclog_core::Rank;
use lclog_stable::{
    CheckpointStore, Manifest, ManifestEntry, ObjectKind, RemoteError, RemoteStore, StableStorage,
    MANIFEST_KEY,
};
use lclog_wire::{crc32, varint};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of the replication pipeline. The defaults are sized for the
/// miniature cluster runs of this reproduction (checkpoint images of
/// a few KiB every few steps).
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// Byte bound on the spill buffer (pending objects plus open
    /// segment buffers). Shedding keeps usage at or below this.
    pub spill_limit_bytes: usize,
    /// Objects shipped per round before the inbox is re-checked —
    /// the bounded in-flight window.
    pub in_flight_window: usize,
    /// First retry backoff ceiling.
    pub retry_initial: Duration,
    /// Retry backoff cap.
    pub retry_cap: Duration,
    /// Put attempts per object per round before the round is declared
    /// failed.
    pub retry_limit: u32,
    /// Consecutive failed rounds before the circuit breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before probing the backend.
    pub breaker_cooldown: Duration,
    /// Seal an open log-segment buffer once it holds this many bytes.
    pub segment_flush_bytes: usize,
    /// Give up draining on shutdown after this long.
    pub drain_deadline: Duration,
    /// Wall-time budget for a node-loss restore.
    pub restore_deadline: Duration,
    /// Seed for retry jitter.
    pub seed: u64,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        ReplicatorConfig {
            spill_limit_bytes: 256 * 1024,
            in_flight_window: 4,
            retry_initial: Duration::from_millis(1),
            retry_cap: Duration::from_millis(16),
            retry_limit: 3,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(10),
            segment_flush_bytes: 4096,
            drain_deadline: Duration::from_secs(5),
            restore_deadline: Duration::from_secs(5),
            seed: 0x10C5_10C5,
        }
    }
}

impl ReplicatorConfig {
    /// Builder-style spill-buffer byte bound.
    pub fn with_spill_limit(mut self, bytes: usize) -> Self {
        self.spill_limit_bytes = bytes;
        self
    }

    /// Builder-style segment flush threshold.
    pub fn with_segment_flush(mut self, bytes: usize) -> Self {
        self.segment_flush_bytes = bytes;
        self
    }
}

/// What the replicator did, threaded into
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Default)]
pub struct ReplicatorStats {
    /// Objects (generations + segments + manifests) stored remotely.
    pub objects_shipped: u64,
    /// Payload bytes stored remotely (manifests excluded).
    pub bytes_shipped: u64,
    /// Failed remote attempts (each either retried or given up on).
    pub retries: u64,
    /// Total time spent sleeping in retry backoff.
    pub backoff: Duration,
    /// Times the circuit breaker opened (degraded-mode windows).
    pub degraded_windows: u32,
    /// Total wall time spent degraded.
    pub degraded: Duration,
    /// Peak bytes held in the spill buffer (after shedding — the
    /// configured bound is never exceeded).
    pub spill_peak_bytes: usize,
    /// Objects shed from the spill buffer under memory pressure.
    pub spill_shed: u64,
    /// Manifest re-syncs after the backend returned.
    pub resyncs: u32,
    /// Node-loss restores attempted.
    pub restores: u32,
    /// Total wall time spent restoring wiped ranks.
    pub restore_latency: Duration,
    /// Generations skipped during restores because their stored bytes
    /// failed certification (restore fell back one generation each).
    pub generations_skipped: u32,
    /// Objects still unshipped when the replicator shut down (0 means
    /// the remote holds everything the manifest promises).
    pub unsynced_at_exit: u64,
}

/// One object waiting to ship.
struct Item {
    kind: ObjectKind,
    key: String,
    bytes: Vec<u8>,
    seq: u64,
}

enum Work {
    Generation { key: String, bytes: Vec<u8> },
    Record { log: String, bytes: Vec<u8> },
}

/// An open per-log segment buffer: records accumulate until the flush
/// threshold seals them into one remote object.
#[derive(Default)]
struct SegBuf {
    records: Vec<Vec<u8>>,
    bytes: usize,
}

struct ShipState {
    /// Spill buffer of objects not yet stored remotely.
    pending: VecDeque<Item>,
    pending_bytes: usize,
    /// Open (unsealed) segment buffers per source log.
    open: BTreeMap<String, SegBuf>,
    open_bytes: usize,
    /// Everything successfully stored, keyed by remote key — the
    /// source of truth the manifest is generated from.
    ledger: BTreeMap<String, ManifestEntry>,
    next_seq: u64,
    /// Per-log segment counter (names the segment objects).
    seg_no: HashMap<String, u64>,
    /// Highest ship seq of any generation offered so far; segments
    /// older than this are "already checkpointed" and shed first.
    newest_gen_seq: Option<u64>,
    manifest_dirty: bool,
    consecutive_failed_rounds: u32,
    /// When the current degraded window opened (stats anchor).
    degraded_since: Option<Instant>,
    /// Open breaker: no shipping attempts before this instant.
    cooldown_until: Option<Instant>,
    drain_deadline: Option<Instant>,
}

struct Inner {
    remote: Arc<dyn RemoteStore>,
    cfg: ReplicatorConfig,
    /// Offers sent but not yet ingested by the shipping thread.
    queued: AtomicU64,
    state: Mutex<ShipState>,
    stats: Mutex<ReplicatorStats>,
    stop: AtomicBool,
    sink: EventSink,
    /// Rank used for replicator-side timeline events (the stable
    /// service slot).
    service_rank: Rank,
}

/// Handle to the background replication thread. The cluster harness
/// owns one per run; rank threads share it behind an `Arc`.
pub struct Replicator {
    inner: Arc<Inner>,
    tx: crossbeam::channel::Sender<Work>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl Replicator {
    /// Spawn the shipping thread against `remote`.
    pub fn spawn(
        remote: Arc<dyn RemoteStore>,
        cfg: ReplicatorConfig,
        sink: EventSink,
        service_rank: Rank,
    ) -> Arc<Self> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let inner = Arc::new(Inner {
            remote,
            cfg,
            queued: AtomicU64::new(0),
            state: Mutex::new(ShipState {
                pending: VecDeque::new(),
                pending_bytes: 0,
                open: BTreeMap::new(),
                open_bytes: 0,
                ledger: BTreeMap::new(),
                next_seq: 0,
                seg_no: HashMap::new(),
                newest_gen_seq: None,
                manifest_dirty: false,
                consecutive_failed_rounds: 0,
                degraded_since: None,
                cooldown_until: None,
                drain_deadline: None,
            }),
            stats: Mutex::new(ReplicatorStats::default()),
            stop: AtomicBool::new(false),
            sink,
            service_rank,
        });
        let worker = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("lclog-replicator".into())
            .spawn(move || worker.run(rx))
            .expect("spawn replicator thread");
        Arc::new(Replicator {
            inner,
            tx,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Offer a sealed checkpoint generation for shipping. Never
    /// blocks: the caller is on the checkpoint (hot) path.
    pub fn offer_generation(&self, key: &str, bytes: &[u8]) {
        self.inner.queued.fetch_add(1, Ordering::SeqCst);
        let _ = self.tx.send(Work::Generation {
            key: key.to_string(),
            bytes: bytes.to_vec(),
        });
    }

    /// Offer one appended log record (e.g. a TEL determinant batch)
    /// for segment shipping. Never blocks.
    pub fn offer_record(&self, log: &str, record: &[u8]) {
        self.inner.queued.fetch_add(1, Ordering::SeqCst);
        let _ = self.tx.send(Work::Record {
            log: log.to_string(),
            bytes: record.to_vec(),
        });
    }

    /// Snapshot the statistics so far.
    pub fn stats(&self) -> ReplicatorStats {
        self.inner.stats.lock().clone()
    }

    /// True when nothing is queued or pending and the manifest
    /// matches the ledger. Open segment buffers don't count: they
    /// seal on flush thresholds or at shutdown.
    pub fn is_synced(&self) -> bool {
        if self.inner.queued.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let st = self.inner.state.lock();
        st.pending.is_empty() && !st.manifest_dirty
    }

    /// Poll until [`Replicator::is_synced`] or `timeout` elapses.
    /// Returns whether sync was reached.
    pub fn wait_synced(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.is_synced() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.is_synced()
    }

    /// Signal shutdown, let the thread drain (bounded by the
    /// configured drain deadline), and join it. Idempotent.
    pub fn finish(&self) {
        {
            let mut st = self.inner.state.lock();
            st.drain_deadline = Some(Instant::now() + self.inner.cfg.drain_deadline);
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }

    /// Node-loss restore: install the newest *fully certified*
    /// checkpoint generation of `rank` from the remote into `local`,
    /// falling back one generation per checksum failure. Returns the
    /// restored version, or `None` when no certified generation could
    /// be fetched (the rank then rejoins from its initial state).
    pub fn restore_rank(&self, rank: Rank, local: &dyn StableStorage) -> Option<u64> {
        let started = Instant::now();
        let deadline = started + self.inner.cfg.restore_deadline;
        let prefix = CheckpointStore::prefix(rank);
        let mut skipped = 0u32;
        let mut restored = None;
        if let Some(manifest) = self.fetch_manifest(deadline) {
            for entry in manifest.generations_with_prefix(&prefix) {
                match self.fetch_object(&entry.key, deadline) {
                    Some(blob) if Manifest::certifies(entry, &blob) => {
                        local.put(&entry.key, &blob);
                        restored = CheckpointStore::parse_version(&entry.key);
                        break;
                    }
                    _ => skipped += 1,
                }
            }
        }
        {
            let mut stats = self.inner.stats.lock();
            stats.restores += 1;
            stats.restore_latency += started.elapsed();
            stats.generations_skipped += skipped;
        }
        if let Some(version) = restored {
            self.inner
                .sink
                .emit(rank, EventKind::RemoteRestored { version, skipped });
        }
        restored
    }

    /// Fault-injection hook: damage the newest remote generation of
    /// `rank` in place (one flipped bit), modeling an upload torn by
    /// the node's death. The manifest CRC no longer certifies the
    /// object, so a subsequent restore must fall back one generation.
    /// Returns true when an object was damaged.
    pub fn corrupt_newest_remote_generation(&self, rank: Rank) -> bool {
        self.corrupt_newest_inner(rank).is_some()
    }

    fn corrupt_newest_inner(&self, rank: Rank) -> Option<()> {
        let deadline = Instant::now() + Duration::from_secs(1);
        let prefix = CheckpointStore::prefix(rank);
        let newest = loop {
            match self.inner.remote.list(&prefix) {
                Ok(keys) => break keys.into_iter().max()?,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => return None,
            }
        };
        let mut blob = self.fetch_object(&newest, deadline)?;
        if blob.is_empty() {
            return None;
        }
        let mid = blob.len() / 2;
        blob[mid] ^= 0x20;
        let mut backoff = RetryBackoff::new(
            self.inner.cfg.retry_initial,
            self.inner.cfg.retry_cap,
            self.inner.cfg.seed,
        );
        loop {
            match self.inner.remote.put(&newest, &blob) {
                Ok(()) => return Some(()),
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(backoff.next_wait());
                }
                Err(_) => return None,
            }
        }
    }

    fn fetch_manifest(&self, deadline: Instant) -> Option<Manifest> {
        let blob = self.fetch_object(MANIFEST_KEY, deadline)?;
        Manifest::decode(&blob)
    }

    /// Get with retry until `deadline`; `None` for absent objects or
    /// an unyielding backend.
    fn fetch_object(&self, key: &str, deadline: Instant) -> Option<Vec<u8>> {
        let mut backoff = RetryBackoff::new(
            self.inner.cfg.retry_initial,
            self.inner.cfg.retry_cap,
            self.inner.cfg.seed ^ crc32(key.as_bytes()) as u64,
        );
        loop {
            match self.inner.remote.get(key) {
                Ok(found) => return found,
                Err(_) if Instant::now() < deadline => {
                    let wait = backoff.next_wait();
                    {
                        let mut stats = self.inner.stats.lock();
                        stats.retries += 1;
                        stats.backoff += wait;
                    }
                    std::thread::sleep(wait);
                }
                Err(_) => return None,
            }
        }
    }
}

impl Inner {
    fn run(self: Arc<Self>, rx: crossbeam::channel::Receiver<Work>) {
        loop {
            // Ingest everything queued, waiting briefly when idle.
            match rx.recv_timeout(Duration::from_micros(500)) {
                Ok(work) => {
                    self.ingest(work);
                    while let Ok(more) = rx.try_recv() {
                        self.ingest(more);
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {}
            }
            let stopping =
                self.stop.load(Ordering::SeqCst) && self.queued.load(Ordering::SeqCst) == 0;
            if stopping {
                self.flush_all_segments();
            }
            self.shed_to_bound();
            self.note_spill_peak();
            self.ship_round();
            if stopping && self.try_exit() {
                return;
            }
        }
    }

    /// Drained or out of time? Record the exit stats and say so.
    fn try_exit(&self) -> bool {
        let (done, leftovers, degraded_since) = {
            let mut st = self.state.lock();
            let drained = st.pending.is_empty() && !st.manifest_dirty;
            let expired = st
                .drain_deadline
                .map(|d| Instant::now() >= d)
                .unwrap_or(false);
            if !(drained || expired) {
                return false;
            }
            (true, st.pending.len() as u64, st.degraded_since.take())
        };
        let mut stats = self.stats.lock();
        stats.unsynced_at_exit = leftovers;
        if let Some(since) = degraded_since {
            stats.degraded += since.elapsed();
        }
        done
    }

    fn ingest(&self, work: Work) {
        let mut st = self.state.lock();
        // Uncount the offer only under the lock that files it, so
        // `is_synced` never sees it in neither place.
        self.queued.fetch_sub(1, Ordering::SeqCst);
        match work {
            Work::Generation { key, bytes } => {
                let seq = st.next_seq;
                st.next_seq += 1;
                st.newest_gen_seq = Some(seq);
                st.pending_bytes += bytes.len();
                st.pending.push_back(Item {
                    kind: ObjectKind::Generation,
                    key,
                    bytes,
                    seq,
                });
            }
            Work::Record { log, bytes } => {
                st.open_bytes += bytes.len();
                let buf = st.open.entry(log.clone()).or_default();
                buf.bytes += bytes.len();
                buf.records.push(bytes);
                if buf.bytes >= self.cfg.segment_flush_bytes {
                    Self::seal_segment(&mut st, &log);
                }
            }
        }
    }

    /// Seal the open buffer of `log` into a pending segment object.
    fn seal_segment(st: &mut ShipState, log: &str) {
        let Some(buf) = st.open.remove(log) else {
            return;
        };
        if buf.records.is_empty() {
            return;
        }
        st.open_bytes -= buf.bytes;
        let mut body = Vec::with_capacity(buf.bytes + 16);
        varint::write_u64(&mut body, buf.records.len() as u64);
        for rec in &buf.records {
            varint::write_u64(&mut body, rec.len() as u64);
            body.extend_from_slice(rec);
        }
        let no = st.seg_no.entry(log.to_string()).or_insert(0);
        let key = format!("seg/{log}/{no:020}");
        *no += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending_bytes += body.len();
        st.pending.push_back(Item {
            kind: ObjectKind::Segment,
            key,
            bytes: body,
            seq,
        });
    }

    fn flush_all_segments(&self) {
        let mut st = self.state.lock();
        let logs: Vec<String> = st.open.keys().cloned().collect();
        for log in logs {
            Self::seal_segment(&mut st, &log);
        }
    }

    /// Enforce the spill byte bound. Shed order: (1) segments already
    /// covered by a newer checkpoint generation, oldest first — the
    /// generation embeds the sender-log state they protect; (2)
    /// generations superseded by a newer pending generation under the
    /// same rank prefix, oldest first; (3) remaining segments, oldest
    /// first. The newest pending generation per rank is never shed:
    /// it is exactly what a node-loss restore needs.
    fn shed_to_bound(&self) {
        let limit = self.cfg.spill_limit_bytes;
        let mut st = self.state.lock();
        if st.pending_bytes + st.open_bytes <= limit {
            return;
        }
        let newest_gen_seq = st.newest_gen_seq;
        let mut newest_per_prefix: HashMap<String, u64> = HashMap::new();
        for item in st.pending.iter() {
            if item.kind == ObjectKind::Generation {
                let e = newest_per_prefix
                    .entry(gen_prefix(&item.key))
                    .or_insert(item.seq);
                *e = (*e).max(item.seq);
            }
        }
        let mut shed = 0u64;
        for pass in 0..3u8 {
            let mut i = 0;
            while i < st.pending.len() && st.pending_bytes + st.open_bytes > limit {
                let item = &st.pending[i];
                let sheddable = match (pass, item.kind) {
                    (0, ObjectKind::Segment) => {
                        newest_gen_seq.map(|g| item.seq < g).unwrap_or(false)
                    }
                    (1, ObjectKind::Generation) => newest_per_prefix
                        .get(&gen_prefix(&item.key))
                        .map(|&newest| item.seq < newest)
                        .unwrap_or(false),
                    (2, ObjectKind::Segment) => true,
                    _ => false,
                };
                if sheddable {
                    let dropped = st.pending.remove(i).expect("index in range");
                    st.pending_bytes -= dropped.bytes.len();
                    shed += 1;
                } else {
                    i += 1;
                }
            }
            if st.pending_bytes + st.open_bytes <= limit {
                break;
            }
        }
        drop(st);
        if shed > 0 {
            self.stats.lock().spill_shed += shed;
        }
    }

    fn note_spill_peak(&self) {
        let used = {
            let st = self.state.lock();
            st.pending_bytes + st.open_bytes
        };
        let mut stats = self.stats.lock();
        stats.spill_peak_bytes = stats.spill_peak_bytes.max(used);
    }

    /// One shipping round: respect the breaker, then store up to
    /// `in_flight_window` objects followed by the manifest.
    fn ship_round(&self) {
        let (breaker_open, in_cooldown, has_work) = {
            let st = self.state.lock();
            let open = st.consecutive_failed_rounds >= self.cfg.breaker_threshold;
            let cooling = open
                && st
                    .cooldown_until
                    .map(|until| Instant::now() < until)
                    .unwrap_or(false);
            (open, cooling, !st.pending.is_empty() || st.manifest_dirty)
        };
        if !has_work || in_cooldown {
            return; // degraded cooldown: spill only, block no one.
        }
        // Closed breaker, or a half-open probe after the cooldown.
        let window = if breaker_open {
            1
        } else {
            self.cfg.in_flight_window
        };
        let mut shipped_any = false;
        for _ in 0..window {
            // An object in flight is in neither `pending` nor the
            // remote manifest: the manifest is dirty from the moment it
            // leaves `pending`, or `is_synced` would report a sync the
            // remote cannot restore from.
            let item = {
                let mut st = self.state.lock();
                let item = st.pending.pop_front();
                st.manifest_dirty |= item.is_some();
                item
            };
            let Some(item) = item else {
                break;
            };
            match self.put_with_retries(&item.key, &item.bytes) {
                Ok(()) => {
                    shipped_any = true;
                    {
                        let mut st = self.state.lock();
                        st.pending_bytes -= item.bytes.len();
                        let entry = ManifestEntry {
                            kind: item.kind,
                            key: item.key.clone(),
                            crc: crc32(&item.bytes),
                            len: item.bytes.len() as u64,
                            seq: item.seq,
                        };
                        st.ledger.insert(item.key, entry);
                    }
                    let mut stats = self.stats.lock();
                    stats.objects_shipped += 1;
                    stats.bytes_shipped += item.bytes.len() as u64;
                }
                Err(_) => {
                    self.state.lock().pending.push_front(item);
                    self.note_round_failed();
                    return;
                }
            }
        }
        if shipped_any && breaker_open {
            // The probe succeeded: close the breaker and re-sync.
            self.close_breaker_and_resync();
        }
        // Ship the manifest reflecting the ledger.
        let dirty = self.state.lock().manifest_dirty;
        if dirty {
            let manifest = {
                let st = self.state.lock();
                Manifest {
                    entries: st.ledger.values().cloned().collect(),
                }
            };
            match self.put_with_retries(MANIFEST_KEY, &manifest.encode()) {
                Ok(()) => {
                    let was_open = {
                        let mut st = self.state.lock();
                        let open = st.consecutive_failed_rounds >= self.cfg.breaker_threshold;
                        st.manifest_dirty = false;
                        st.consecutive_failed_rounds = 0;
                        open
                    };
                    if was_open {
                        self.close_breaker_and_resync();
                    }
                    self.stats.lock().objects_shipped += 1;
                }
                Err(_) => self.note_round_failed(),
            }
        } else if !breaker_open {
            self.state.lock().consecutive_failed_rounds = 0;
        }
    }

    fn put_with_retries(&self, key: &str, bytes: &[u8]) -> Result<(), RemoteError> {
        let mut backoff = RetryBackoff::new(
            self.cfg.retry_initial,
            self.cfg.retry_cap,
            self.cfg.seed ^ crc32(key.as_bytes()) as u64,
        );
        let mut last = RemoteError::Transient;
        for attempt in 0..self.cfg.retry_limit.max(1) {
            match self.remote.put(key, bytes) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = e;
                    self.stats.lock().retries += 1;
                    if attempt + 1 < self.cfg.retry_limit {
                        let wait = backoff.next_wait();
                        self.stats.lock().backoff += wait;
                        std::thread::sleep(wait);
                    }
                }
            }
        }
        Err(last)
    }

    fn note_round_failed(&self) {
        let entered = {
            let mut st = self.state.lock();
            st.consecutive_failed_rounds = st.consecutive_failed_rounds.saturating_add(1);
            let open = st.consecutive_failed_rounds >= self.cfg.breaker_threshold;
            if open {
                // (Re)start the cooldown; a failed half-open probe
                // waits a full cooldown before the next probe. The
                // degraded window anchor is set only once.
                st.cooldown_until = Some(Instant::now() + self.cfg.breaker_cooldown);
            }
            if open && st.degraded_since.is_none() {
                st.degraded_since = Some(Instant::now());
                Some(st.pending_bytes + st.open_bytes)
            } else {
                None
            }
        };
        if let Some(spill_bytes) = entered {
            self.stats.lock().degraded_windows += 1;
            self.sink
                .emit(self.service_rank, EventKind::DegradedEntered { spill_bytes });
        }
    }

    /// The backend answered again: close the breaker, account the
    /// degraded window, and re-sync the manifest against what the
    /// remote actually holds — ledger entries whose objects vanished
    /// during the outage are dropped so the manifest never promises
    /// bytes the remote cannot serve.
    fn close_breaker_and_resync(&self) {
        let since = {
            let mut st = self.state.lock();
            st.consecutive_failed_rounds = 0;
            st.cooldown_until = None;
            st.degraded_since.take()
        };
        let Some(since) = since else { return };
        let window = since.elapsed();
        {
            let mut stats = self.stats.lock();
            stats.degraded += window;
            stats.resyncs += 1;
        }
        if let Ok(listed) = self.remote.list("") {
            let mut st = self.state.lock();
            let vanished: Vec<String> = st
                .ledger
                .keys()
                .filter(|k| !listed.contains(k))
                .cloned()
                .collect();
            for key in vanished {
                st.ledger.remove(&key);
            }
        }
        self.state.lock().manifest_dirty = true;
        self.sink.emit(
            self.service_rank,
            EventKind::DegradedExited {
                ms: window.as_millis() as u64,
            },
        );
    }
}

/// Prefix of a generation key up to and including the version marker
/// (`ckpt/{rank}/v`), grouping generations by rank.
fn gen_prefix(key: &str) -> String {
    match key.rfind('v') {
        Some(i) => key[..=i].to_string(),
        None => key.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_simnet::StorageChaos;
    use lclog_stable::{FaultyRemote, MemRemote, MemStore, RemoteResult};

    fn quick_cfg() -> ReplicatorConfig {
        ReplicatorConfig {
            retry_initial: Duration::from_micros(100),
            retry_cap: Duration::from_micros(800),
            breaker_cooldown: Duration::from_millis(2),
            drain_deadline: Duration::from_secs(2),
            restore_deadline: Duration::from_secs(2),
            ..ReplicatorConfig::default()
        }
    }

    fn gen_blob(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len]
    }

    #[test]
    fn ships_generations_and_manifest_certifies_them() {
        let remote = Arc::new(MemRemote::new());
        let repl = Replicator::spawn(
            Arc::clone(&remote) as Arc<dyn RemoteStore>,
            quick_cfg(),
            EventSink::disabled(),
            4,
        );
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(0, v), &gen_blob(v as u8, 64));
        }
        repl.offer_record("evt", b"determinant batch one");
        repl.offer_record("evt", b"determinant batch two");
        repl.finish();
        let stats = repl.stats();
        assert_eq!(stats.unsynced_at_exit, 0);
        assert!(stats.objects_shipped >= 4, "3 gens + 1 segment + manifests");
        let manifest =
            Manifest::decode(&remote.get(MANIFEST_KEY).unwrap().unwrap()).expect("intact");
        assert_eq!(manifest.entries.len(), 4);
        for entry in &manifest.entries {
            let blob = remote.get(&entry.key).unwrap().expect("object present");
            assert!(Manifest::certifies(entry, &blob), "{}", entry.key);
        }
    }

    #[test]
    fn restore_prefers_newest_and_falls_back_past_corruption() {
        let remote = Arc::new(MemRemote::new());
        let repl = Replicator::spawn(
            Arc::clone(&remote) as Arc<dyn RemoteStore>,
            quick_cfg(),
            EventSink::disabled(),
            4,
        );
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(2, v), &gen_blob(v as u8, 128));
        }
        assert!(repl.wait_synced(Duration::from_secs(2)));

        let local = MemStore::new();
        assert_eq!(repl.restore_rank(2, &local), Some(3));
        assert_eq!(
            local.get(&CheckpointStore::key(2, 3)).as_deref(),
            Some(&gen_blob(3, 128)[..])
        );

        // Damage the newest remote generation: restore must fall back.
        assert!(repl.corrupt_newest_remote_generation(2));
        let wiped = MemStore::new();
        assert_eq!(repl.restore_rank(2, &wiped), Some(2));
        assert!(wiped.get(&CheckpointStore::key(2, 3)).is_none());
        let stats = repl.stats();
        assert!(stats.generations_skipped >= 1);
        repl.finish();
    }

    #[test]
    fn restore_of_unknown_rank_is_none() {
        let remote = Arc::new(MemRemote::new());
        let repl = Replicator::spawn(
            Arc::clone(&remote) as Arc<dyn RemoteStore>,
            quick_cfg(),
            EventSink::disabled(),
            4,
        );
        repl.offer_generation(&CheckpointStore::key(0, 1), &gen_blob(1, 32));
        assert!(repl.wait_synced(Duration::from_secs(2)));
        let local = MemStore::new();
        assert_eq!(repl.restore_rank(7, &local), None);
        repl.finish();
    }

    /// A remote whose object uploads meet the test at a barrier twice,
    /// once started and once released; the manifest goes straight
    /// through.
    struct GatedRemote(MemRemote, std::sync::Barrier);

    impl RemoteStore for GatedRemote {
        fn put(&self, key: &str, bytes: &[u8]) -> RemoteResult<()> {
            if key != MANIFEST_KEY {
                self.1.wait();
                self.1.wait();
            }
            self.0.put(key, bytes)
        }

        fn get(&self, key: &str) -> RemoteResult<Option<Vec<u8>>> {
            self.0.get(key)
        }

        fn list(&self, prefix: &str) -> RemoteResult<Vec<String>> {
            self.0.list(prefix)
        }

        fn delete(&self, key: &str) -> RemoteResult<()> {
            self.0.delete(key)
        }
    }

    /// Regression: a generation taken off the queue but not yet in the
    /// manifest read as synced, so a node-loss restore right after
    /// `wait_synced` could find no generation at all.
    #[test]
    fn a_generation_mid_upload_is_not_synced() {
        let remote = Arc::new(GatedRemote(MemRemote::new(), std::sync::Barrier::new(2)));
        let repl = Replicator::spawn(remote.clone(), quick_cfg(), EventSink::disabled(), 4);
        repl.offer_generation(&CheckpointStore::key(0, 1), &gen_blob(1, 32));
        remote.1.wait();
        assert!(!repl.is_synced(), "the manifest does not list the generation yet");
        remote.1.wait();
        assert!(repl.wait_synced(Duration::from_secs(2)));
        assert_eq!(repl.restore_rank(0, &MemStore::new()), Some(1));
        repl.finish();
    }

    #[test]
    fn outage_opens_breaker_bounds_spill_and_resyncs_after() {
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), StorageChaos::seeded(9)));
        remote.set_available(false);
        let spill_limit = 2048;
        let cfg = quick_cfg().with_spill_limit(spill_limit);
        let sink = EventSink::recording();
        let repl = Replicator::spawn(
            Arc::clone(&remote) as Arc<dyn RemoteStore>,
            cfg,
            sink.clone(),
            4,
        );
        // Far more bytes than the spill bound, across two ranks.
        for v in 1..=8u64 {
            for rank in 0..2usize {
                repl.offer_generation(&CheckpointStore::key(rank, v), &gen_blob(v as u8, 512));
            }
        }
        std::thread::sleep(Duration::from_millis(30));
        let mid = repl.stats();
        assert!(mid.degraded_windows >= 1, "breaker must have opened");
        assert!(
            mid.spill_peak_bytes <= spill_limit,
            "spill peak {} exceeds bound {}",
            mid.spill_peak_bytes,
            spill_limit
        );
        assert!(mid.spill_shed > 0, "old generations must have been shed");

        // Outage ends: the replicator must catch up and re-sync.
        remote.set_available(true);
        assert!(repl.wait_synced(Duration::from_secs(3)));
        repl.finish();
        let stats = repl.stats();
        assert_eq!(stats.unsynced_at_exit, 0);
        assert!(stats.resyncs >= 1);
        assert!(stats.degraded > Duration::ZERO);

        // The newest generation of each rank survived the shedding and
        // is certified on the remote.
        let manifest =
            Manifest::decode(&remote.inner().get(MANIFEST_KEY).unwrap().unwrap()).unwrap();
        for rank in 0..2usize {
            let gens = manifest.generations_with_prefix(&CheckpointStore::prefix(rank));
            assert!(!gens.is_empty(), "rank {rank} has no shipped generations");
            assert_eq!(gens[0].key, CheckpointStore::key(rank, 8));
            let blob = remote.inner().get(&gens[0].key).unwrap().unwrap();
            assert!(Manifest::certifies(gens[0], &blob));
        }
        let events = sink.take();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DegradedEntered { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DegradedExited { .. })));
    }

    #[test]
    fn transient_errors_are_retried_through() {
        let chaos = StorageChaos::seeded(11).with_transient(0.3);
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), chaos));
        let repl = Replicator::spawn(
            Arc::clone(&remote) as Arc<dyn RemoteStore>,
            quick_cfg(),
            EventSink::disabled(),
            4,
        );
        for v in 1..=6u64 {
            repl.offer_generation(&CheckpointStore::key(1, v), &gen_blob(v as u8, 96));
        }
        repl.finish();
        let stats = repl.stats();
        assert_eq!(stats.unsynced_at_exit, 0);
        assert!(stats.retries > 0, "30% transients must cause retries");
        let manifest =
            Manifest::decode(&remote.inner().get(MANIFEST_KEY).unwrap().unwrap()).unwrap();
        let gens = manifest.generations_with_prefix(&CheckpointStore::prefix(1));
        assert_eq!(gens[0].key, CheckpointStore::key(1, 6));
    }

    #[test]
    fn segment_buffers_seal_at_flush_threshold() {
        let remote = Arc::new(MemRemote::new());
        let cfg = quick_cfg().with_segment_flush(64);
        let repl = Replicator::spawn(
            Arc::clone(&remote) as Arc<dyn RemoteStore>,
            cfg,
            EventSink::disabled(),
            4,
        );
        for i in 0..10 {
            repl.offer_record("det/0", format!("record number {i:04}").as_bytes());
        }
        repl.finish();
        assert_eq!(repl.stats().unsynced_at_exit, 0);
        let segs = remote.list("seg/det/0/").unwrap();
        assert!(segs.len() >= 2, "expected multiple sealed segments, got {segs:?}");
        let manifest = Manifest::decode(&remote.get(MANIFEST_KEY).unwrap().unwrap()).unwrap();
        for key in &segs {
            let entry = manifest.entries.iter().find(|e| &e.key == key).unwrap();
            assert_eq!(entry.kind, ObjectKind::Segment);
            let blob = remote.get(key).unwrap().unwrap();
            assert!(Manifest::certifies(entry, &blob));
        }
    }
}
