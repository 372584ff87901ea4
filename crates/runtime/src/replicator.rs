//! Durable log shipping: a replicator streaming sealed checkpoint
//! generations and log segments to a [`RemoteStore`], plus the
//! node-loss restore path that rebuilds a wiped local store from the
//! remote.
//!
//! The paper's recovery story keeps sender logs and checkpoints on
//! *local* stable storage; a failure that takes the disk with the
//! process is therefore unrecoverable — survivors have already
//! garbage-collected the log entries the dead rank's checkpoint
//! covered. The [`Replicator`] closes that gap without touching the
//! send hot path:
//!
//! * checkpoint writes and determinant appends are **offered**: the
//!   object is filed in the spill buffer and the call returns;
//! * what drives the run ships with [`Replicator::step`], one round of a
//!   bounded in-flight window per call. A failed put sets a
//!   [`RetryBackoff`] full-jitter not-before time on the replicator's
//!   [`Clock`], an open breaker a cooldown; no call blocks on time;
//! * [`Replicator::drain`] ships everything offered before the call,
//!   plus a manifest naming it, at once — a node loss and a report call
//!   it. Retries burn through an outage
//!   counted in operations; a constant number of failed operations
//!   bounds it;
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
//!
//! There is no thread: the round driver steps the replicator its run
//! owns at the end of each round, on the run's virtual clock, so a
//! log-shipping run is a pure function of its config. One lock holds
//! the whole state, because the run's kernels offer into it and its
//! driver steps it through a shared `Arc`; a step or a drain holds it
//! for its remote operations.

use crate::backoff::RetryBackoff;
use crate::events::{EventKind, EventSink};
use lclog_core::Rank;
use lclog_simnet::Clock;
use lclog_stable::{
    CheckpointStore, Manifest, ManifestEntry, ObjectKind, RemoteResult, RemoteStore, StableStorage,
    MANIFEST_KEY,
};
use lclog_wire::{crc32, varint};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Knobs of the replication pipeline. The default is sized for the
/// miniature cluster runs of this reproduction (checkpoint images of
/// a few KiB every few steps).
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// Byte bound on the spill buffer (pending objects plus open
    /// segment buffers). Shedding keeps usage at or below this.
    pub spill_limit_bytes: usize,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        ReplicatorConfig {
            spill_limit_bytes: 256 * 1024,
        }
    }
}

impl ReplicatorConfig {
    /// Builder-style spill-buffer byte bound.
    pub fn with_spill_limit(mut self, bytes: usize) -> Self {
        self.spill_limit_bytes = bytes;
        self
    }
}

/// Objects shipped per step — the bounded in-flight window.
const IN_FLIGHT_WINDOW: usize = 4;
/// Put attempts per round before the round is declared failed.
const RETRY_LIMIT: u32 = 3;
/// First retry backoff ceiling.
const RETRY_INITIAL: Duration = Duration::from_micros(200);
/// Retry backoff cap.
const RETRY_CAP: Duration = Duration::from_millis(2);
/// Consecutive failed rounds before the circuit breaker opens.
const BREAKER_THRESHOLD: u32 = 2;
/// How long an open breaker waits before probing the backend.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(2);
/// Seal an open log-segment buffer once it holds this many bytes.
const SEGMENT_FLUSH_BYTES: usize = 4096;
/// Failed remote operations after which a drain gives up.
const DRAIN_FAILURES: u64 = 1024;
/// Attempts per remote operation of a restore or a torn upload.
const RESTORE_ATTEMPTS: u32 = 256;
/// Seed for retry jitter.
const RETRY_SEED: u64 = 0x10C5_10C5;

/// What the replicator did, threaded into
/// [`RunReport`](crate::RunReport). Durations are on the replicator's
/// clock: virtual time in a tasks run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicatorStats {
    /// Objects (generations + segments + manifests) stored remotely.
    pub objects_shipped: u64,
    /// Payload bytes stored remotely (manifests excluded).
    pub bytes_shipped: u64,
    /// Failed remote attempts (each either retried or given up on).
    pub retries: u64,
    /// Total retry backoff: the not-before waits failed puts set.
    pub backoff: Duration,
    /// Times the circuit breaker opened (degraded-mode windows).
    pub degraded_windows: u32,
    /// Total time spent in closed degraded windows.
    pub degraded: Duration,
    /// Peak bytes held in the spill buffer, after shedding: the
    /// configured bound, unless the two newest pending generations of
    /// every rank alone exceed it.
    pub spill_peak_bytes: usize,
    /// Objects shed from the spill buffer under memory pressure.
    pub spill_shed: u64,
    /// Manifest re-syncs after the backend returned.
    pub resyncs: u32,
    /// Node-loss restores attempted.
    pub restores: u32,
    /// Total time spent restoring wiped ranks.
    pub restore_latency: Duration,
    /// Generations skipped during restores because their stored bytes
    /// failed certification (restore fell back one generation each).
    pub generations_skipped: u32,
    /// Objects still unshipped after the last drain (0 means the
    /// remote holds everything the manifest promises).
    pub unsynced_at_exit: u64,
}

/// One object waiting to ship.
struct Item {
    kind: ObjectKind,
    key: String,
    bytes: Vec<u8>,
    seq: u64,
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
    /// Failed put attempts of the current round.
    failed_attempts: u32,
    retry: RetryBackoff,
    /// When the current degraded window opened (clock time).
    degraded_since: Option<Duration>,
    /// No step ships before this clock time: a retry backoff, or an
    /// open breaker's cooldown.
    not_before: Duration,
    stats: ReplicatorStats,
}

impl ShipState {
    /// Nothing pending, and the stored manifest matches the ledger.
    /// Open segment buffers don't count: they seal on flush thresholds
    /// or at a drain.
    fn is_synced(&self) -> bool {
        self.pending.is_empty() && !self.manifest_dirty
    }

    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Seal the open buffer of `log` into a pending segment object.
    fn seal_segment(&mut self, log: &str) {
        let Some(buf) = self.open.remove(log) else {
            return;
        };
        if buf.records.is_empty() {
            return;
        }
        self.open_bytes -= buf.bytes;
        let mut body = Vec::with_capacity(buf.bytes + 16);
        varint::write_u64(&mut body, buf.records.len() as u64);
        for rec in &buf.records {
            varint::write_u64(&mut body, rec.len() as u64);
            body.extend_from_slice(rec);
        }
        let no = self.seg_no.entry(log.to_string()).or_insert(0);
        let key = format!("seg/{log}/{no:020}");
        *no += 1;
        let seq = self.next_seq();
        self.pending_bytes += body.len();
        self.pending.push_back(Item {
            kind: ObjectKind::Segment,
            key,
            bytes: body,
            seq,
        });
    }

    /// Enforce the spill byte bound, then note the spill peak. Shed
    /// order: (1) segments already covered by a newer checkpoint
    /// generation, oldest first — the generation embeds the sender-log
    /// state they protect; (2) generations with two newer pending
    /// generations under the same rank prefix, oldest first; (3)
    /// remaining segments, oldest first. The two newest pending
    /// generations per rank are never shed: the newest is what a
    /// node-loss restore needs, the second-newest what it falls back to
    /// when the newest upload is torn.
    fn shed_to_bound(&mut self, limit: usize) {
        if self.pending_bytes + self.open_bytes > limit {
            let newest_gen_seq = self.newest_gen_seq;
            // Per rank: the two newest pending generations, newest first.
            let mut newest_per_prefix: HashMap<String, [u64; 2]> = HashMap::new();
            for item in self.pending.iter() {
                if item.kind == ObjectKind::Generation {
                    let top = newest_per_prefix
                        .entry(gen_prefix(&item.key))
                        .or_insert([0; 2]);
                    if item.seq >= top[0] {
                        *top = [item.seq, top[0]];
                    } else {
                        top[1] = top[1].max(item.seq);
                    }
                }
            }
            for pass in 0..3u8 {
                let mut i = 0;
                while i < self.pending.len() && self.pending_bytes + self.open_bytes > limit {
                    let item = &self.pending[i];
                    let sheddable = match (pass, item.kind) {
                        (0, ObjectKind::Segment) => {
                            newest_gen_seq.map(|g| item.seq < g).unwrap_or(false)
                        }
                        (1, ObjectKind::Generation) => newest_per_prefix
                            .get(&gen_prefix(&item.key))
                            .is_some_and(|top| item.seq < top[1]),
                        (2, ObjectKind::Segment) => true,
                        _ => false,
                    };
                    if sheddable {
                        let dropped = self.pending.remove(i).expect("index in range");
                        self.pending_bytes -= dropped.bytes.len();
                        self.stats.spill_shed += 1;
                    } else {
                        i += 1;
                    }
                }
                if self.pending_bytes + self.open_bytes <= limit {
                    break;
                }
            }
        }
        let used = self.pending_bytes + self.open_bytes;
        self.stats.spill_peak_bytes = self.stats.spill_peak_bytes.max(used);
    }
}

/// The replication pipeline of a run; the run's kernels and its driver
/// share it behind an `Arc`.
pub struct Replicator {
    remote: Arc<dyn RemoteStore>,
    cfg: ReplicatorConfig,
    clock: Clock,
    sink: EventSink,
    /// Rank used for replicator-side timeline events (the stable
    /// service slot).
    service_rank: Rank,
    state: Mutex<ShipState>,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Replicator {
    /// A replicator shipping into `remote`, timing retries and the
    /// breaker on `clock`.
    pub fn new(
        remote: Arc<dyn RemoteStore>,
        cfg: ReplicatorConfig,
        clock: Clock,
        sink: EventSink,
        service_rank: Rank,
    ) -> Self {
        Replicator {
            remote,
            cfg,
            clock,
            sink,
            service_rank,
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
                failed_attempts: 0,
                retry: RetryBackoff::new(RETRY_INITIAL, RETRY_CAP, RETRY_SEED),
                degraded_since: None,
                not_before: Duration::ZERO,
                stats: ReplicatorStats::default(),
            }),
        }
    }

    /// Offer a sealed checkpoint generation for shipping: file it in
    /// the spill buffer and return.
    pub fn offer_generation(&self, key: &str, bytes: &[u8]) {
        let mut st = self.state.lock();
        let seq = st.next_seq();
        st.newest_gen_seq = Some(seq);
        st.pending_bytes += bytes.len();
        st.pending.push_back(Item {
            kind: ObjectKind::Generation,
            key: key.to_string(),
            bytes: bytes.to_vec(),
            seq,
        });
        st.shed_to_bound(self.cfg.spill_limit_bytes);
    }

    /// Offer one appended log record (e.g. a TEL determinant batch)
    /// for segment shipping: buffer it and return.
    pub fn offer_record(&self, log: &str, record: &[u8]) {
        let mut st = self.state.lock();
        st.open_bytes += record.len();
        let buf = st.open.entry(log.to_string()).or_default();
        buf.bytes += record.len();
        buf.records.push(record.to_vec());
        if buf.bytes >= SEGMENT_FLUSH_BYTES {
            st.seal_segment(log);
        }
        st.shed_to_bound(self.cfg.spill_limit_bytes);
    }

    /// Snapshot the statistics so far.
    pub fn stats(&self) -> ReplicatorStats {
        self.state.lock().stats.clone()
    }

    /// True when nothing is pending and the stored manifest matches
    /// the ledger. Open segment buffers don't count: they seal on flush
    /// thresholds or at a drain.
    pub fn is_synced(&self) -> bool {
        self.state.lock().is_synced()
    }

    /// One shipping round, unless the not-before time has not come or
    /// the state is locked (never waits on it; under the one driver
    /// that steps and drains, it never is). True if anything was
    /// stored.
    pub fn step(&self) -> bool {
        match self.state.try_lock() {
            Some(mut st) => self.round(&mut st, false),
            None => false,
        }
    }

    /// Ship everything offered before the call — open segment buffers
    /// sealed — plus a manifest naming it, at once: backoff and
    /// cooldown are not waited out, and the whole backlog goes before
    /// one manifest while the breaker is closed. Offers made meanwhile
    /// wait for the drain. Gives up after `DRAIN_FAILURES` failed
    /// remote operations; true when synced.
    pub fn drain(&self) -> bool {
        let mut st = self.state.lock();
        let logs: Vec<String> = st.open.keys().cloned().collect();
        for log in logs {
            st.seal_segment(&log);
        }
        let give_up = st.stats.retries + DRAIN_FAILURES;
        while !st.is_synced() && st.stats.retries < give_up {
            self.round(&mut st, true);
        }
        st.stats.unsynced_at_exit = st.pending.len() as u64;
        st.is_synced()
    }

    /// Node-loss restore: install the newest *fully certified*
    /// checkpoint generation of `rank` from the remote into `local`,
    /// falling back one generation per checksum failure. Returns the
    /// restored version, or `None` when no certified generation could
    /// be fetched (the rank then rejoins from its initial state).
    pub fn restore_rank(&self, rank: Rank, local: &dyn StableStorage) -> Option<u64> {
        let mut st = self.state.lock();
        let started = self.clock.elapsed();
        let prefix = CheckpointStore::prefix(rank);
        let mut skipped = 0u32;
        let mut restored = None;
        let manifest = self.fetch(&mut st, MANIFEST_KEY);
        if let Some(manifest) = manifest.as_deref().and_then(Manifest::decode) {
            for entry in manifest.generations_with_prefix(&prefix) {
                match self.fetch(&mut st, &entry.key) {
                    Some(blob) if Manifest::certifies(entry, &blob) => {
                        local.put(&entry.key, &blob);
                        restored = CheckpointStore::parse_version(&entry.key);
                        break;
                    }
                    _ => skipped += 1,
                }
            }
        }
        st.stats.restores += 1;
        st.stats.restore_latency += self.clock.elapsed().saturating_sub(started);
        st.stats.generations_skipped += skipped;
        drop(st);
        if let Some(version) = restored {
            self.sink
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
        let prefix = CheckpointStore::prefix(rank);
        let Some(newest) = retried(|| self.remote.list(&prefix)).and_then(|k| k.into_iter().max())
        else {
            return false;
        };
        let Some(mut blob) = retried(|| self.remote.get(&newest)).flatten() else {
            return false;
        };
        if blob.is_empty() {
            return false;
        }
        let mid = blob.len() / 2;
        blob[mid] ^= 0x20;
        retried(|| self.remote.put(&newest, &blob)).is_some()
    }

    /// Get `key`, retrying up to [`RESTORE_ATTEMPTS`] times; `None` for
    /// an absent object or an unyielding backend.
    fn fetch(&self, st: &mut ShipState, key: &str) -> Option<Vec<u8>> {
        retried(|| {
            let got = self.remote.get(key);
            st.stats.retries += got.is_err() as u64;
            got
        })
        .flatten()
    }

    /// One shipping round: respect the breaker, then store up to
    /// [`IN_FLIGHT_WINDOW`] objects followed by the manifest. A drain
    /// (`force`) ignores the not-before time and, breaker closed, ships
    /// the whole backlog. True if anything was stored.
    fn round(&self, st: &mut ShipState, force: bool) -> bool {
        if st.is_synced() || (!force && self.clock.elapsed() < st.not_before) {
            return false; // idle, backing off, or cooling down.
        }
        // Closed breaker, or a half-open probe after the cooldown.
        let breaker_open = st.consecutive_failed_rounds >= BREAKER_THRESHOLD;
        let window = match (breaker_open, force) {
            (true, _) => 1,
            (false, true) => usize::MAX,
            (false, false) => IN_FLIGHT_WINDOW,
        };
        let mut shipped_any = false;
        for _ in 0..window {
            let Some(item) = st.pending.pop_front() else {
                break;
            };
            if !self.put(st, &item.key, &item.bytes) {
                st.pending.push_front(item);
                return shipped_any;
            }
            shipped_any = true;
            st.pending_bytes -= item.bytes.len();
            st.stats.objects_shipped += 1;
            st.stats.bytes_shipped += item.bytes.len() as u64;
            let entry = ManifestEntry {
                kind: item.kind,
                key: item.key.clone(),
                crc: crc32(&item.bytes),
                len: item.bytes.len() as u64,
                seq: item.seq,
            };
            st.ledger.insert(item.key, entry);
            st.manifest_dirty = true;
        }
        if shipped_any && breaker_open {
            // The probe succeeded: close the breaker and re-sync.
            self.close_breaker_and_resync(st);
        }
        // Ship the manifest reflecting the ledger.
        if st.manifest_dirty {
            let manifest = Manifest {
                entries: st.ledger.values().cloned().collect(),
            };
            if !self.put(st, MANIFEST_KEY, &manifest.encode()) {
                return shipped_any;
            }
            let was_open = st.consecutive_failed_rounds >= BREAKER_THRESHOLD;
            st.manifest_dirty = false;
            st.consecutive_failed_rounds = 0;
            if was_open {
                self.close_breaker_and_resync(st);
            }
            st.stats.objects_shipped += 1;
            shipped_any = true;
        } else if !breaker_open {
            st.consecutive_failed_rounds = 0;
        }
        shipped_any
    }

    /// One put attempt. A failure is a retry: it sets the not-before
    /// time a jittered backoff away, and the round's
    /// [`RETRY_LIMIT`]th fails the round.
    fn put(&self, st: &mut ShipState, key: &str, bytes: &[u8]) -> bool {
        if self.remote.put(key, bytes).is_ok() {
            st.failed_attempts = 0;
            st.retry.reset();
            return true;
        }
        st.stats.retries += 1;
        st.failed_attempts += 1;
        if st.failed_attempts < RETRY_LIMIT {
            let wait = st.retry.next_wait();
            st.stats.backoff += wait;
            st.not_before = self.clock.elapsed() + wait;
        } else {
            st.failed_attempts = 0;
            st.retry.reset();
            self.note_round_failed(st);
        }
        false
    }

    fn note_round_failed(&self, st: &mut ShipState) {
        let now = self.clock.elapsed();
        st.consecutive_failed_rounds = st.consecutive_failed_rounds.saturating_add(1);
        if st.consecutive_failed_rounds < BREAKER_THRESHOLD {
            return;
        }
        // (Re)start the cooldown; a failed half-open probe waits a full
        // cooldown before the next probe. The degraded window anchor is
        // set only once.
        st.not_before = now + BREAKER_COOLDOWN;
        if st.degraded_since.is_none() {
            st.degraded_since = Some(now);
            st.stats.degraded_windows += 1;
            let spill_bytes = st.pending_bytes + st.open_bytes;
            self.sink.emit(
                self.service_rank,
                EventKind::DegradedEntered { spill_bytes },
            );
        }
    }

    /// The backend answered again: close the breaker, account the
    /// degraded window, and re-sync the manifest against what the
    /// remote actually holds — ledger entries whose objects vanished
    /// during the outage are dropped so the manifest never promises
    /// bytes the remote cannot serve.
    fn close_breaker_and_resync(&self, st: &mut ShipState) {
        st.consecutive_failed_rounds = 0;
        st.not_before = Duration::ZERO;
        let Some(since) = st.degraded_since.take() else {
            return;
        };
        let window = self.clock.elapsed().saturating_sub(since);
        st.stats.degraded += window;
        st.stats.resyncs += 1;
        if let Ok(listed) = self.remote.list("") {
            st.ledger.retain(|key, _| listed.contains(key));
        }
        st.manifest_dirty = true;
        self.sink.emit(
            self.service_rank,
            EventKind::DegradedExited {
                ms: window.as_millis() as u64,
            },
        );
    }
}

/// `op` until it succeeds, at most [`RESTORE_ATTEMPTS`] times.
fn retried<T>(mut op: impl FnMut() -> RemoteResult<T>) -> Option<T> {
    (0..RESTORE_ATTEMPTS).find_map(|_| op().ok())
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
    use lclog_simnet::{SimClock, StorageChaos};
    use lclog_stable::{FaultyRemote, MemRemote, MemStore};

    fn replicator(remote: Arc<dyn RemoteStore>, cfg: ReplicatorConfig) -> Replicator {
        Replicator::new(remote, cfg, Clock::Real, EventSink::disabled(), 4)
    }

    fn gen_blob(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len]
    }

    #[test]
    fn ships_generations_and_manifest_certifies_them() {
        let remote = Arc::new(MemRemote::new());
        let repl = replicator(remote.clone(), ReplicatorConfig::default());
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(0, v), &gen_blob(v as u8, 64));
        }
        repl.offer_record("evt", b"determinant batch one");
        repl.offer_record("evt", b"determinant batch two");
        assert!(repl.drain());
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
        let repl = replicator(remote, ReplicatorConfig::default());
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(2, v), &gen_blob(v as u8, 128));
        }
        assert!(repl.drain());

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
    }

    #[test]
    fn restore_of_unknown_rank_is_none() {
        let repl = replicator(Arc::new(MemRemote::new()), ReplicatorConfig::default());
        repl.offer_generation(&CheckpointStore::key(0, 1), &gen_blob(1, 32));
        assert!(repl.drain());
        let local = MemStore::new();
        assert_eq!(repl.restore_rank(7, &local), None);
    }

    /// Regression: a generation stored remotely but not yet in the
    /// manifest read as synced, so a node-loss restore right after the
    /// sync check could find no generation at all. Here the manifest
    /// put of the first step fails (the backend's op 1 is down), and
    /// only the step that stores the manifest syncs.
    #[test]
    fn a_generation_mid_upload_is_not_synced() {
        let remote = Arc::new(FaultyRemote::new(
            MemRemote::new(),
            StorageChaos::seeded(1).with_outage(1, 2),
        ));
        let clock = SimClock::new();
        let repl = Replicator::new(
            remote.clone(),
            ReplicatorConfig::default(),
            Clock::Sim(clock.clone()),
            EventSink::disabled(),
            4,
        );
        let key = CheckpointStore::key(0, 1);
        repl.offer_generation(&key, &gen_blob(1, 32));
        assert!(!repl.is_synced(), "offered, not shipped");
        assert!(repl.step(), "the generation is stored");
        assert!(remote.inner().get(&key).unwrap().is_some());
        assert!(remote.inner().get(MANIFEST_KEY).unwrap().is_none());
        assert!(
            !repl.is_synced(),
            "the manifest does not list the generation yet"
        );
        clock.advance(RETRY_CAP);
        assert!(repl.step(), "the retried manifest is stored");
        assert!(repl.is_synced());
        assert_eq!(repl.restore_rank(0, &MemStore::new()), Some(1));
    }

    #[test]
    fn outage_opens_breaker_bounds_spill_and_resyncs_after() {
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), StorageChaos::seeded(9)));
        remote.set_available(false);
        let spill_limit = 2048;
        let clock = SimClock::new();
        let sink = EventSink::recording(Clock::Sim(clock.clone()));
        let repl = Replicator::new(
            remote.clone(),
            ReplicatorConfig::default().with_spill_limit(spill_limit),
            Clock::Sim(clock.clone()),
            sink.clone(),
            4,
        );
        let tick = Duration::from_micros(100);
        // Far more bytes than the spill bound, across two ranks.
        for v in 1..=8u64 {
            for rank in 0..2usize {
                repl.offer_generation(&CheckpointStore::key(rank, v), &gen_blob(v as u8, 512));
            }
            repl.step();
            clock.advance(tick);
        }
        for _ in 0..100 {
            repl.step();
            clock.advance(tick);
        }
        let mid = repl.stats();
        assert!(mid.degraded_windows >= 1, "breaker must have opened");
        assert!(
            mid.spill_peak_bytes <= spill_limit,
            "spill peak {} exceeds bound {}",
            mid.spill_peak_bytes,
            spill_limit
        );
        assert!(mid.spill_shed > 0, "old generations must have been shed");
        // A failed attempt sets a not-before time; until the clock
        // reaches it a step tries nothing.
        repl.step();
        let faults = remote.faults_injected();
        assert!(!repl.step());
        assert_eq!(
            remote.faults_injected(),
            faults,
            "a step waits on the clock"
        );

        // Outage ends: the next probe after the cooldown catches up and
        // re-syncs.
        remote.set_available(true);
        clock.advance(BREAKER_COOLDOWN);
        let mut steps = 0;
        while !repl.is_synced() {
            assert!(repl.step(), "a healthy backend ships every step");
            steps += 1;
        }
        assert!(steps <= 3, "caught up in {steps} steps");
        assert!(repl.drain());
        let stats = repl.stats();
        assert_eq!(stats.unsynced_at_exit, 0);
        assert!(stats.resyncs >= 1);
        assert!(stats.degraded >= BREAKER_COOLDOWN, "{:?}", stats.degraded);

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

    /// The spill bound never sheds the generation a torn-upload
    /// restore falls back to. During an outage rank 0 offers three
    /// generations and rank 1 one, past the bound: only rank 0's oldest
    /// may go. Once the backend is back and the newest upload is torn,
    /// the restore falls back to the second-newest.
    #[test]
    fn a_full_spill_keeps_the_fallback_generation() {
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), StorageChaos::seeded(5)));
        remote.set_available(false);
        let repl = replicator(
            remote.clone(),
            ReplicatorConfig::default().with_spill_limit(1100),
        );
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(0, v), &gen_blob(v as u8, 512));
        }
        repl.offer_generation(&CheckpointStore::key(1, 1), &gen_blob(9, 512));
        repl.step();
        assert_eq!(repl.stats().spill_shed, 1, "only rank 0's v1 may be shed");
        remote.set_available(true);
        assert!(repl.drain());
        assert!(repl.corrupt_newest_remote_generation(0));
        assert_eq!(repl.restore_rank(0, &MemStore::new()), Some(2));
        assert_eq!(repl.stats().generations_skipped, 1);
    }

    #[test]
    fn transient_errors_are_retried_through() {
        let chaos = StorageChaos::seeded(11).with_transient(0.3);
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), chaos));
        let repl = replicator(remote.clone(), ReplicatorConfig::default());
        for v in 1..=6u64 {
            repl.offer_generation(&CheckpointStore::key(1, v), &gen_blob(v as u8, 96));
        }
        assert!(repl.drain());
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
        let repl = replicator(remote.clone(), ReplicatorConfig::default());
        // Ten 1 KiB records: two buffers seal at the threshold, the
        // rest at the drain.
        for i in 0..10u8 {
            repl.offer_record("det/0", &[i; 1024]);
        }
        assert!(repl.drain());
        assert_eq!(repl.stats().unsynced_at_exit, 0);
        let segs = remote.list("seg/det/0/").unwrap();
        assert!(
            segs.len() >= 2,
            "expected multiple sealed segments, got {segs:?}"
        );
        let manifest = Manifest::decode(&remote.get(MANIFEST_KEY).unwrap().unwrap()).unwrap();
        for key in &segs {
            let entry = manifest.entries.iter().find(|e| &e.key == key).unwrap();
            assert_eq!(entry.kind, ObjectKind::Segment);
            let blob = remote.get(key).unwrap().unwrap();
            assert!(Manifest::certifies(entry, &blob));
        }
    }
}
