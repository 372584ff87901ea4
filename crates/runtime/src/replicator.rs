//! Durable log shipping: a replicator shipping sealed checkpoint
//! generations to a [`RemoteStore`], plus the node-loss restore path
//! that rebuilds a wiped local store from the remote.
//!
//! The paper's recovery story keeps sender logs and checkpoints on
//! *local* stable storage; a failure that takes the disk with the
//! process is therefore unrecoverable — survivors have already
//! garbage-collected the log entries the dead rank's checkpoint
//! covered. The [`Replicator`] closes that gap without touching the
//! send hot path:
//!
//! * a checkpoint write is **offered**: the generation joins one FIFO
//!   queue and the call returns. The queue holds at most
//!   [`GENERATIONS`] unshipped generations per rank — the one a
//!   node-loss restore needs and the one it falls back to past a torn
//!   upload — so a rank's next offer drops its oldest;
//! * [`Replicator::step`], once per round of the run's driver, ships
//!   from the front of the queue until the first failed put, then puts
//!   the manifest; what failed waits for the next round;
//! * [`Replicator::drain`] repeats that until the queue is shipped and
//!   named by the stored manifest — a node loss and a report call it.
//!   An outage is counted in operations, so retrying burns through it;
//!   a constant number of failed operations bounds a drain;
//! * every shipped object is recorded in a CRC-checked [`Manifest`],
//!   put after the objects it names; an object is *fully certified*
//!   only when an intact manifest lists it and its stored bytes match
//!   the recorded CRC;
//! * a generation that falls out of its rank's [`GENERATIONS`] newest
//!   is deleted remotely, but only once a stored manifest no longer
//!   names it; a failed delete is retried the next round, so a fault
//!   leaves garbage behind, never a manifest naming a missing object;
//! * a respawned rank that finds its local store wiped calls
//!   [`Replicator::restore_rank`]: the newest fully-certified
//!   generation wins, a checksum failure falls back one generation,
//!   and the rank then rejoins through the normal ROLLBACK protocol.
//!
//! There is no thread and no timer: the round driver steps the
//! replicator its run owns at the end of each round, so a log-shipping
//! run is a pure function of its config. One lock holds the state,
//! because the run's kernels offer into it through their stable
//! storage and its driver steps it through a shared `Arc`.

use crate::events::{EventKind, EventSink};
use lclog_core::Rank;
use lclog_stable::{
    CheckpointStore, Manifest, ManifestEntry, RemoteResult, RemoteStore, StableStorage,
    GENERATIONS, MANIFEST_KEY,
};
use lclog_wire::crc32;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Failed remote operations after which a drain gives up.
const DRAIN_FAILURES: u64 = 1024;
/// Attempts per remote operation of a restore or a torn upload.
const RESTORE_ATTEMPTS: u32 = 256;

/// What the replicator did, threaded into
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicatorStats {
    /// Objects (generations + manifests) stored remotely.
    pub objects_shipped: u64,
    /// Failed remote operations (each retried or given up on).
    pub retries: u64,
    /// Peak bytes of queued, unshipped generations: at most
    /// [`GENERATIONS`] images per rank.
    pub spill_peak_bytes: usize,
    /// Generations dropped unshipped because [`GENERATIONS`] newer ones
    /// of their rank were queued.
    pub spill_shed: u64,
    /// Node-loss restores attempted.
    pub restores: u32,
    /// Generations skipped during restores because their stored bytes
    /// failed certification (restore fell back one generation each).
    pub generations_skipped: u32,
    /// Generations still unshipped after the last drain (0 means the
    /// remote holds everything the manifest promises).
    pub unsynced_at_exit: u64,
}

/// A generation waiting to ship.
struct Queued {
    key: String,
    bytes: Vec<u8>,
}

struct ShipState {
    /// Offered generations not yet stored remotely, oldest first.
    queue: VecDeque<Queued>,
    queued_bytes: usize,
    /// The [`GENERATIONS`] newest generations of each rank stored
    /// remotely, keyed by remote key — the source of truth the manifest
    /// is generated from. A restore reads no further back.
    ledger: BTreeMap<String, ManifestEntry>,
    next_seq: u64,
    /// The ledger holds entries the stored manifest does not.
    manifest_dirty: bool,
    /// Remote keys pruned from the ledger and not yet deleted. A rank's
    /// ledger keeps the newest keys it ever shipped, so none of these
    /// comes back into it.
    garbage: BTreeSet<String>,
    stats: ReplicatorStats,
}

impl ShipState {
    /// Nothing queued, and the stored manifest matches the ledger.
    fn is_synced(&self) -> bool {
        self.queue.is_empty() && !self.manifest_dirty
    }

    /// Drop all but the [`GENERATIONS`] newest ledger entries under
    /// `prefix` (one rank's keys, which sort by version), so a manifest
    /// stays the size of the run's width rather than its length. The
    /// dropped keys become garbage to delete remotely.
    fn prune_ledger(&mut self, prefix: &str) {
        let keys: Vec<String> = self
            .ledger
            .range(prefix.to_string()..)
            .map(|(key, _)| key)
            .take_while(|key| key.starts_with(prefix))
            .cloned()
            .collect();
        for key in &keys[..keys.len().saturating_sub(GENERATIONS)] {
            self.ledger.remove(key);
            self.garbage.insert(key.clone());
        }
    }
}

/// The replication pipeline of a run; the run's kernels and its driver
/// share it behind an `Arc`.
pub struct Replicator {
    remote: Arc<dyn RemoteStore>,
    state: Mutex<ShipState>,
}

impl Replicator {
    /// A replicator shipping into `remote`.
    pub fn new(remote: Arc<dyn RemoteStore>) -> Self {
        Replicator {
            remote,
            state: Mutex::new(ShipState {
                queue: VecDeque::new(),
                queued_bytes: 0,
                ledger: BTreeMap::new(),
                next_seq: 0,
                manifest_dirty: false,
                garbage: BTreeSet::new(),
                stats: ReplicatorStats::default(),
            }),
        }
    }

    /// Offer a sealed checkpoint generation for shipping: queue it,
    /// dropping its rank's oldest queued generation if [`GENERATIONS`]
    /// are queued already, and return.
    pub fn offer_generation(&self, key: &str, bytes: &[u8]) {
        let mut st = self.state.lock();
        let same_rank = |q: &Queued| rank_prefix(&q.key) == rank_prefix(key);
        if st.queue.iter().filter(|q| same_rank(q)).count() == GENERATIONS {
            let oldest = st.queue.iter().position(same_rank).expect("counted");
            let shed = st.queue.remove(oldest).expect("index in range");
            st.queued_bytes -= shed.bytes.len();
            st.stats.spill_shed += 1;
        }
        st.queued_bytes += bytes.len();
        st.queue.push_back(Queued {
            key: key.to_string(),
            bytes: bytes.to_vec(),
        });
        st.stats.spill_peak_bytes = st.stats.spill_peak_bytes.max(st.queued_bytes);
    }

    /// Snapshot the statistics so far.
    pub fn stats(&self) -> ReplicatorStats {
        self.state.lock().stats.clone()
    }

    /// True when nothing is queued and the stored manifest names
    /// everything shipped.
    pub fn is_synced(&self) -> bool {
        self.state.lock().is_synced()
    }

    /// One shipping round: ship from the front of the queue until the
    /// first failed put, then put the manifest if it is behind. True if
    /// anything was stored.
    pub fn step(&self) -> bool {
        self.round(&mut self.state.lock())
    }

    /// Ship everything queued, plus a manifest naming it, round after
    /// round. Gives up after `DRAIN_FAILURES` failed remote operations;
    /// true when synced.
    pub fn drain(&self) -> bool {
        let mut st = self.state.lock();
        let give_up = st.stats.retries + DRAIN_FAILURES;
        while !st.is_synced() && st.stats.retries < give_up {
            self.round(&mut st);
        }
        st.stats.unsynced_at_exit = st.queue.len() as u64;
        st.is_synced()
    }

    /// Node-loss restore: install the newest *fully certified*
    /// checkpoint generation of `rank` from the remote into `local`,
    /// falling back one generation per checksum failure. Returns the
    /// restored version, or `None` when no certified generation could
    /// be fetched (the rank then rejoins from its initial state). A
    /// restore is recorded on `sink`, the restoring kernel's timeline.
    pub fn restore_rank(
        &self,
        rank: Rank,
        local: &dyn StableStorage,
        sink: &EventSink,
    ) -> Option<u64> {
        let mut st = self.state.lock();
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
        st.stats.generations_skipped += skipped;
        drop(st);
        if let Some(version) = restored {
            sink.emit(rank, EventKind::RemoteRestored { version, skipped });
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

    /// Objects first, then the manifest, then the deletes: ship from
    /// the front of the queue until a put fails, put the manifest if it
    /// is behind the ledger, and once the stored manifest matches the
    /// ledger delete the garbage it no longer names. Every failed put
    /// or delete counts as a retry; a failed delete waits for the next
    /// round. True if anything was stored.
    fn round(&self, st: &mut ShipState) -> bool {
        let mut stored = false;
        while let Some(front) = st.queue.front() {
            if self.remote.put(&front.key, &front.bytes).is_err() {
                st.stats.retries += 1;
                break;
            }
            let gen = st.queue.pop_front().expect("the front was stored");
            st.queued_bytes -= gen.bytes.len();
            st.stats.objects_shipped += 1;
            let entry = ManifestEntry {
                key: gen.key.clone(),
                crc: crc32(&gen.bytes),
                len: gen.bytes.len() as u64,
                seq: st.next_seq,
            };
            st.next_seq += 1;
            let rank = rank_prefix(&gen.key).to_string();
            st.ledger.insert(gen.key, entry);
            st.prune_ledger(&rank);
            st.manifest_dirty = true;
            stored = true;
        }
        if st.manifest_dirty {
            let manifest = Manifest {
                entries: st.ledger.values().cloned().collect(),
            };
            if self.remote.put(MANIFEST_KEY, &manifest.encode()).is_ok() {
                st.manifest_dirty = false;
                st.stats.objects_shipped += 1;
                stored = true;
            } else {
                st.stats.retries += 1;
            }
        }
        if !st.manifest_dirty {
            for key in std::mem::take(&mut st.garbage) {
                if self.remote.delete(&key).is_err() {
                    st.stats.retries += 1;
                    st.garbage.insert(key);
                }
            }
        }
        stored
    }
}

/// `op` until it succeeds, at most [`RESTORE_ATTEMPTS`] times.
fn retried<T>(mut op: impl FnMut() -> RemoteResult<T>) -> Option<T> {
    (0..RESTORE_ATTEMPTS).find_map(|_| op().ok())
}

/// Prefix of a generation key up to and including the version marker
/// (`ckpt/{rank}/v`): what the generations of one rank share.
fn rank_prefix(key: &str) -> &str {
    key.rfind('v').map_or(key, |i| &key[..=i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_simnet::StorageChaos;
    use lclog_stable::{FaultyRemote, MemRemote, MemStore};

    fn replicator(remote: Arc<dyn RemoteStore>) -> Replicator {
        Replicator::new(remote)
    }

    fn restore(repl: &Replicator, rank: Rank, local: &dyn StableStorage) -> Option<u64> {
        repl.restore_rank(rank, local, &EventSink::disabled())
    }

    fn gen_blob(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len]
    }

    #[test]
    fn ships_generations_and_manifest_certifies_them() {
        let remote = Arc::new(MemRemote::new());
        let repl = replicator(remote.clone());
        for rank in 0..3usize {
            repl.offer_generation(&CheckpointStore::key(rank, 1), &gen_blob(rank as u8, 64));
        }
        assert!(repl.drain());
        let stats = repl.stats();
        assert_eq!(stats.unsynced_at_exit, 0);
        assert_eq!(stats.objects_shipped, 4, "3 gens + 1 manifest");
        let manifest =
            Manifest::decode(&remote.get(MANIFEST_KEY).unwrap().unwrap()).expect("intact");
        assert_eq!(manifest.entries.len(), 3);
        for entry in &manifest.entries {
            let blob = remote.get(&entry.key).unwrap().expect("object present");
            assert!(Manifest::certifies(entry, &blob), "{}", entry.key);
        }
    }

    #[test]
    fn restore_prefers_newest_and_falls_back_past_corruption() {
        let remote = Arc::new(MemRemote::new());
        let repl = replicator(remote);
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(2, v), &gen_blob(v as u8, 128));
        }
        assert!(repl.drain());

        let local = MemStore::new();
        assert_eq!(restore(&repl, 2, &local), Some(3));
        assert_eq!(
            local.get(&CheckpointStore::key(2, 3)).as_deref(),
            Some(&gen_blob(3, 128)[..])
        );

        // Damage the newest remote generation: restore must fall back.
        assert!(repl.corrupt_newest_remote_generation(2));
        let wiped = MemStore::new();
        assert_eq!(restore(&repl, 2, &wiped), Some(2));
        assert!(wiped.get(&CheckpointStore::key(2, 3)).is_none());
        let stats = repl.stats();
        assert!(stats.generations_skipped >= 1);
    }

    #[test]
    fn restore_of_unknown_rank_is_none() {
        let repl = replicator(Arc::new(MemRemote::new()));
        repl.offer_generation(&CheckpointStore::key(0, 1), &gen_blob(1, 32));
        assert!(repl.drain());
        let local = MemStore::new();
        assert_eq!(restore(&repl, 7, &local), None);
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
        let repl = replicator(remote.clone());
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
        assert!(repl.step(), "the retried manifest is stored");
        assert!(repl.is_synced());
        assert_eq!(restore(&repl, 0, &MemStore::new()), Some(1));
    }

    /// The queue holds at most two generations per rank, whatever their
    /// size: rank 0's third offer sheds its oldest, rank 1's one stays.
    /// What is kept is what a torn-upload restore needs: with the
    /// newest upload torn, the restore falls back to the second-newest.
    #[test]
    fn a_full_spill_keeps_the_fallback_generation() {
        let remote = Arc::new(MemRemote::new());
        let repl = replicator(remote.clone());
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(0, v), &gen_blob(v as u8, 512));
        }
        repl.offer_generation(&CheckpointStore::key(1, 1), &gen_blob(9, 512));
        let stats = repl.stats();
        assert_eq!(stats.spill_shed, 1, "only rank 0's v1 is shed");
        assert_eq!(stats.spill_peak_bytes, 3 * 512);
        assert!(repl.drain());
        assert!(remote.get(&CheckpointStore::key(0, 1)).unwrap().is_none());
        assert!(repl.corrupt_newest_remote_generation(0));
        assert_eq!(restore(&repl, 0, &MemStore::new()), Some(2));
        assert_eq!(repl.stats().generations_skipped, 1);
    }

    /// The manifest names only what a restore can read: one rank ships
    /// v1..v10 one round at a time, and the stored manifest lists v9
    /// and v10, the only generations left remotely. With v10 torn, the
    /// restore falls back to v9.
    #[test]
    fn the_manifest_lists_each_ranks_newest_generations() {
        let remote = Arc::new(MemRemote::new());
        let repl = replicator(remote.clone());
        for v in 1..=10u64 {
            repl.offer_generation(&CheckpointStore::key(3, v), &gen_blob(v as u8, 64));
            assert!(repl.step());
        }
        assert_eq!(repl.stats().objects_shipped, 20, "10 generations + 10 manifests");
        let manifest =
            Manifest::decode(&remote.get(MANIFEST_KEY).unwrap().unwrap()).expect("intact");
        let keys: Vec<&str> = manifest.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(
            keys,
            [CheckpointStore::key(3, 9), CheckpointStore::key(3, 10)]
        );
        assert_eq!(
            remote.list("").unwrap(),
            [
                CheckpointStore::key(3, 9),
                CheckpointStore::key(3, 10),
                MANIFEST_KEY.to_string()
            ]
        );
        assert!(repl.corrupt_newest_remote_generation(3));
        assert_eq!(restore(&repl, 3, &MemStore::new()), Some(9));
        assert_eq!(repl.stats().generations_skipped, 1);
    }

    /// A remote whose deletes fail while `refuse` is set.
    struct NoDeletes {
        inner: MemRemote,
        refuse: std::sync::atomic::AtomicBool,
    }

    impl RemoteStore for NoDeletes {
        fn put(&self, key: &str, bytes: &[u8]) -> RemoteResult<()> {
            self.inner.put(key, bytes)
        }
        fn get(&self, key: &str) -> RemoteResult<Option<Vec<u8>>> {
            self.inner.get(key)
        }
        fn list(&self, prefix: &str) -> RemoteResult<Vec<String>> {
            self.inner.list(prefix)
        }
        fn delete(&self, key: &str) -> RemoteResult<()> {
            if self.refuse.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(lclog_stable::RemoteError::Unavailable);
            }
            self.inner.delete(key)
        }
    }

    /// Failed deletes leave garbage, never a manifest naming a missing
    /// object: the restore still lands on v10, and the garbage goes on
    /// the first round after deletes succeed again.
    #[test]
    fn failed_deletes_leave_garbage_and_are_retried() {
        let remote = Arc::new(NoDeletes {
            inner: MemRemote::new(),
            refuse: true.into(),
        });
        let repl = replicator(remote.clone());
        for v in 1..=10u64 {
            repl.offer_generation(&CheckpointStore::key(3, v), &gen_blob(v as u8, 64));
            assert!(repl.step());
        }
        assert!(repl.is_synced());
        // Each round retries every pruned generation so far: 1 + … + 8.
        assert_eq!(repl.stats().retries, 36);
        assert_eq!(remote.list(&CheckpointStore::prefix(3)).unwrap().len(), 10);
        assert_eq!(restore(&repl, 3, &MemStore::new()), Some(10));
        remote.refuse.store(false, std::sync::atomic::Ordering::SeqCst);
        assert!(!repl.step(), "a round of deletes stores nothing");
        assert_eq!(
            remote.list(&CheckpointStore::prefix(3)).unwrap(),
            [CheckpointStore::key(3, 9), CheckpointStore::key(3, 10)]
        );
        assert_eq!(restore(&repl, 3, &MemStore::new()), Some(10));
    }

    /// A pruned generation stays remotely while a stored manifest still
    /// names it: here the manifest put that would drop v1 fails (op 5
    /// is down), so a restore reading the stale manifest can still fall
    /// back past a damaged v2 to v1. The next round stores the manifest
    /// and only then deletes v1.
    #[test]
    fn deletes_wait_for_a_stored_manifest() {
        let remote = Arc::new(FaultyRemote::new(
            MemRemote::new(),
            StorageChaos::seeded(1).with_outage(5, 6),
        ));
        let repl = replicator(remote.clone());
        for v in 1..=3u64 {
            repl.offer_generation(&CheckpointStore::key(0, v), &gen_blob(v as u8, 64));
            assert!(repl.step());
        }
        assert!(!repl.is_synced(), "the third manifest put failed");
        let v1 = CheckpointStore::key(0, 1);
        assert!(remote.inner().get(&v1).unwrap().is_some());
        remote.inner().put(&CheckpointStore::key(0, 2), b"torn").unwrap();
        assert_eq!(restore(&repl, 0, &MemStore::new()), Some(1));
        assert!(repl.step(), "the manifest is stored");
        assert!(remote.inner().get(&v1).unwrap().is_none());
        assert_eq!(restore(&repl, 0, &MemStore::new()), Some(3));
    }

    #[test]
    fn transient_errors_are_retried_through() {
        let chaos = StorageChaos::seeded(11).with_transient(0.3);
        let remote = Arc::new(FaultyRemote::new(MemRemote::new(), chaos));
        let repl = replicator(remote.clone());
        for v in 1..=6u64 {
            repl.offer_generation(&CheckpointStore::key(1, v), &gen_blob(v as u8, 96));
            repl.step();
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
}
