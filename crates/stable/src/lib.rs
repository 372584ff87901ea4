//! # lclog-stable
//!
//! Stable storage for rollback recovery: the only state that survives
//! a process crash.
//!
//! The paper's testbed wrote checkpoints to each PC's local disk and —
//! for the TEL baseline — determinants to a dedicated event-logger
//! node's stable store. This crate provides that substrate:
//!
//! * [`StableStorage`] — a key/value + append-log trait,
//! * [`MemStore`] — in-process implementation (crash survival is
//!   modelled: runtime code *chooses* never to read volatile state
//!   back after a kill, while `MemStore` contents persist),
//! * [`DiskStore`] — real files with atomic replace, for examples that
//!   want durability across OS processes,
//! * [`CheckpointStore`] — a typed helper mapping ranks to their
//!   latest [`GENERATIONS`] checkpoint images.
//!
//! For durability beyond the local disk — the node-loss case where
//! the process dies *with* its storage — the [`remote`] module adds
//! an object-store-style [`RemoteStore`] with CRC-checked manifests
//! and a deterministically fault-injected backend; `lclog-runtime`'s
//! replicator ships checkpoint generations into it and restores wiped
//! ranks from it.
//!
//! ## Example
//!
//! ```
//! use lclog_stable::{CheckpointStore, MemStore, StableStorage};
//! use std::sync::Arc;
//!
//! let store: Arc<dyn StableStorage> = Arc::new(MemStore::new());
//! let ckpts = CheckpointStore::new(store);
//! ckpts.save(3, 1, b"image-bytes");
//! let (version, image) = ckpts.load_latest(3).unwrap();
//! assert_eq!(version, 1);
//! assert_eq!(image, b"image-bytes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lclog_wire::Bytes;

mod checkpoint;
mod disk;
mod mem;
pub mod remote;
mod seal;

pub use checkpoint::{CheckpointStore, GENERATIONS};
pub use disk::DiskStore;
pub use mem::MemStore;
pub use remote::{
    FaultyRemote, Manifest, ManifestEntry, MemRemote, RemoteError, RemoteResult, RemoteStore,
    MANIFEST_KEY,
};

/// Abstract stable storage: a blob namespace plus append-only record
/// logs. Implementations must be safe for concurrent use from many
/// rank threads.
pub trait StableStorage: Send + Sync {
    /// Store `bytes` under `key`, replacing any previous blob
    /// atomically.
    fn put(&self, key: &str, bytes: &[u8]);

    /// Fetch the blob stored under `key`: a shared handle where the
    /// backend keeps it in memory, never a copy it has to make.
    fn get(&self, key: &str) -> Option<Bytes>;

    /// Remove the blob stored under `key` (no-op when absent).
    fn delete(&self, key: &str);

    /// List blob keys with the given prefix, sorted.
    fn keys_with_prefix(&self, prefix: &str) -> Vec<String>;

    /// Append one record to the log named `key`.
    fn append(&self, key: &str, record: &[u8]);

    /// Read every record appended to the log named `key`, in order.
    fn read_log(&self, key: &str) -> Vec<Vec<u8>>;

    /// Number of records in the log named `key`.
    fn log_len(&self, key: &str) -> usize {
        self.read_log(key).len()
    }

    /// Remove the log named `key` entirely.
    fn truncate_log(&self, key: &str);
}

#[cfg(test)]
mod conformance {
    //! Shared conformance suite run against every backend.
    use super::*;

    pub(crate) fn blob_roundtrip(s: &dyn StableStorage) {
        assert_eq!(s.get("a"), None);
        s.put("a", b"1");
        assert_eq!(s.get("a").as_deref(), Some(&b"1"[..]));
        s.put("a", b"2");
        assert_eq!(s.get("a").as_deref(), Some(&b"2"[..]));
        s.delete("a");
        assert_eq!(s.get("a"), None);
        s.delete("a"); // idempotent
    }

    pub(crate) fn prefix_listing(s: &dyn StableStorage) {
        s.put("ckpt/2", b"x");
        s.put("ckpt/0", b"x");
        s.put("ckpt/10", b"x");
        s.put("other", b"x");
        assert_eq!(
            s.keys_with_prefix("ckpt/"),
            vec!["ckpt/0".to_string(), "ckpt/10".into(), "ckpt/2".into()]
        );
        assert_eq!(s.keys_with_prefix("zzz"), Vec::<String>::new());
    }

    pub(crate) fn log_append_read(s: &dyn StableStorage) {
        assert_eq!(s.read_log("l"), Vec::<Vec<u8>>::new());
        assert_eq!(s.log_len("l"), 0);
        s.append("l", b"one");
        s.append("l", b"");
        s.append("l", b"three");
        assert_eq!(s.read_log("l"), vec![b"one".to_vec(), vec![], b"three".to_vec()]);
        assert_eq!(s.log_len("l"), 3);
        s.truncate_log("l");
        assert_eq!(s.log_len("l"), 0);
    }

    pub(crate) fn logs_and_blobs_are_separate(s: &dyn StableStorage) {
        s.put("k", b"blob");
        s.append("k", b"rec");
        assert_eq!(s.get("k").as_deref(), Some(&b"blob"[..]));
        assert_eq!(s.read_log("k"), vec![b"rec".to_vec()]);
    }
}
