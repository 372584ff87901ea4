use crate::seal::{seal, unseal, TRAILER_LEN};
use crate::StableStorage;
use lclog_wire::Bytes;
use std::sync::Arc;

/// Checkpoint generations kept per rank: the newest, which a restore
/// loads, and the one before it, which the restore falls back to when
/// the newest is torn. The local store prunes to this many, and the
/// replicator holds at most this many unshipped generations per rank.
pub const GENERATIONS: usize = 2;

/// Typed helper mapping each rank to its recent checkpoint images.
///
/// The paper's protocol only ever restores the *last* checkpoint
/// (causal logging never rolls a process past it) — but a checkpoint
/// write can itself be interrupted by the failure it is supposed to
/// protect against. So every image is sealed with a CRC-32 trailer,
/// the last [`GENERATIONS`] generations are kept, and
/// [`CheckpointStore::load_latest`] falls back to the newest *intact*
/// generation, skipping torn or corrupted ones.
#[derive(Clone)]
pub struct CheckpointStore {
    storage: Arc<dyn StableStorage>,
}

impl CheckpointStore {
    /// Wrap a storage backend.
    pub fn new(storage: Arc<dyn StableStorage>) -> Self {
        CheckpointStore { storage }
    }

    /// Storage key of checkpoint `version` for `rank`.
    /// Zero-padded so lexicographic order == numeric order.
    pub fn key(rank: usize, version: u64) -> String {
        format!("ckpt/{rank}/v{version:020}")
    }

    /// Key prefix under which every generation of `rank` lives.
    pub fn prefix(rank: usize) -> String {
        format!("ckpt/{rank}/v")
    }

    /// Parse the version number back out of a generation key.
    pub fn parse_version(key: &str) -> Option<u64> {
        key.rsplit('v').next()?.parse().ok()
    }

    /// Durably save checkpoint `version` for `rank` (sealed with a
    /// CRC-32 trailer), then prune all but the newest [`GENERATIONS`].
    /// Versions must increase per rank.
    pub fn save(&self, rank: usize, version: u64, image: &[u8]) {
        self.save_with(rank, version, image.len(), |buf| {
            buf.extend_from_slice(image)
        });
    }

    /// [`CheckpointStore::save`] of the `len`-byte image `write`
    /// appends to an empty buffer: the buffer is allocated once with
    /// room for the trailer, sealed in place with one CRC pass, and
    /// the backend copies it as it stores it.
    pub fn save_with(
        &self,
        rank: usize,
        version: u64,
        len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut blob = Vec::with_capacity(len + TRAILER_LEN);
        write(&mut blob);
        debug_assert_eq!(blob.len(), len, "the writer wrote the length it declared");
        seal(&mut blob);
        self.storage.put(&Self::key(rank, version), &blob);
        let keys = self.storage.keys_with_prefix(&Self::prefix(rank));
        let keep_from = keys.len().saturating_sub(GENERATIONS);
        for key in &keys[..keep_from] {
            self.storage.delete(key);
        }
    }

    /// The generation stored under `key`, if it is intact: its version
    /// and image, a window into the stored blob.
    fn intact(&self, key: &str) -> Option<(u64, Bytes)> {
        let blob = self.storage.get(key)?;
        let image = unseal(&blob)?.len();
        Some((Self::parse_version(key)?, blob.slice(..image)))
    }

    /// Load the newest *intact* checkpoint for `rank`, if any,
    /// returning its version and image. Generations whose CRC trailer
    /// does not verify — torn writes, truncation, media corruption —
    /// are skipped in favour of the next older one. The image is a
    /// window into the blob the backend holds, not a copy.
    pub fn load_latest_shared(&self, rank: usize) -> Option<(u64, Bytes)> {
        let keys = self.storage.keys_with_prefix(&Self::prefix(rank));
        keys.iter().rev().find_map(|key| self.intact(key))
    }

    /// [`CheckpointStore::load_latest_shared`], copied out.
    pub fn load_latest(&self, rank: usize) -> Option<(u64, Vec<u8>)> {
        self.load_latest_shared(rank)
            .map(|(version, image)| (version, image.to_vec()))
    }

    /// Every retained *intact* generation of `rank`, oldest first: the
    /// images a restore may fall back through.
    pub fn intact_generations(&self, rank: usize) -> Vec<(u64, Bytes)> {
        let keys = self.storage.keys_with_prefix(&Self::prefix(rank));
        keys.iter().filter_map(|key| self.intact(key)).collect()
    }

    /// Newest intact checkpoint version for `rank`, if any.
    pub fn latest_version(&self, rank: usize) -> Option<u64> {
        self.load_latest_shared(rank).map(|(v, _)| v)
    }

    /// Delete every retained generation of `rank` from the backend,
    /// returning how many were removed: the wipe of a node loss.
    pub fn clear_rank(&self, rank: usize) -> usize {
        let keys = self.storage.keys_with_prefix(&Self::prefix(rank));
        for key in &keys {
            self.storage.delete(key);
        }
        keys.len()
    }

    /// Access the underlying storage (for co-locating other durable
    /// state such as TEL determinants).
    pub fn storage(&self) -> &Arc<dyn StableStorage> {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn store() -> CheckpointStore {
        CheckpointStore::new(Arc::new(MemStore::new()))
    }

    #[test]
    fn empty_store_has_no_checkpoint() {
        let s = store();
        assert!(s.load_latest(0).is_none());
        assert!(s.latest_version(0).is_none());
    }

    #[test]
    fn save_load_roundtrip() {
        let s = store();
        s.save(2, 1, b"first");
        assert_eq!(s.load_latest(2), Some((1, b"first".to_vec())));
    }

    #[test]
    fn newer_version_wins_and_prunes_beyond_retention() {
        let s = store();
        s.save(0, 1, b"v1");
        s.save(0, 2, b"v2");
        s.save(0, 10, b"v10");
        assert_eq!(s.load_latest(0), Some((10, b"v10".to_vec())));
        assert_eq!(s.storage().keys_with_prefix("ckpt/0/").len(), GENERATIONS);
        let versions: Vec<u64> = s.intact_generations(0).iter().map(|g| g.0).collect();
        assert_eq!(versions, [2, 10]);
    }

    #[test]
    fn ranks_are_independent() {
        let s = store();
        s.save(0, 5, b"zero");
        s.save(1, 3, b"one");
        assert_eq!(s.load_latest(0), Some((5, b"zero".to_vec())));
        assert_eq!(s.load_latest(1), Some((3, b"one".to_vec())));
        assert!(s.load_latest(2).is_none());
    }

    #[test]
    fn version_ordering_is_numeric_not_lexicographic() {
        let s = store();
        s.save(0, 9, b"nine");
        s.save(0, 10, b"ten");
        assert_eq!(s.load_latest(0), Some((10, b"ten".to_vec())));
    }

    #[test]
    fn truncated_newest_falls_back_to_previous_generation() {
        let s = store();
        s.save(0, 1, b"good");
        s.save(0, 2, b"newer");
        // Tear the newest image: chop off half the blob (trailer gone).
        let key = "ckpt/0/v00000000000000000002";
        let blob = s.storage().get(key).unwrap();
        s.storage().put(key, &blob[..blob.len() / 2]);
        assert_eq!(s.load_latest(0), Some((1, b"good".to_vec())));
        assert_eq!(s.latest_version(0), Some(1));
        let generations = s.intact_generations(0);
        assert_eq!(generations.len(), 1);
        assert_eq!((generations[0].0, &generations[0].1[..]), (1, &b"good"[..]));
    }

    #[test]
    fn bit_flipped_newest_falls_back_to_previous_generation() {
        let s = store();
        s.save(3, 7, b"intact image");
        s.save(3, 8, b"flipped image");
        let key = "ckpt/3/v00000000000000000008";
        let mut blob = s.storage().get(key).unwrap().to_vec();
        blob[2] ^= 0x10;
        s.storage().put(key, &blob);
        assert_eq!(s.load_latest(3), Some((7, b"intact image".to_vec())));
    }

    #[test]
    fn clear_rank_garbage_collects_only_that_ranks_generations() {
        let s = store();
        s.save(0, 1, b"keep");
        s.save(1, 1, b"gc v1");
        s.save(1, 2, b"gc v2");
        assert_eq!(s.clear_rank(1), 2);
        assert!(s.load_latest(1).is_none());
        assert_eq!(s.load_latest(0), Some((1, b"keep".to_vec())));
        // Idempotent on an already-cleared rank.
        assert_eq!(s.clear_rank(1), 0);
    }

    #[test]
    fn all_generations_corrupt_means_no_checkpoint() {
        let s = store();
        s.save(0, 1, b"older");
        s.save(0, 2, b"newer");
        for key in s.storage().keys_with_prefix(&CheckpointStore::prefix(0)) {
            s.storage().put(&key, b"garbage");
        }
        assert!(s.load_latest(0).is_none());
        assert!(s.intact_generations(0).is_empty());
    }
}
