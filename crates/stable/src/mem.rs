use crate::StableStorage;
use lclog_wire::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// In-memory stable storage.
///
/// Crash survival is a property of *how the runtime uses it*: a killed
/// rank's volatile state lives in its thread and dies with it, while
/// everything written here remains readable by the incarnation. This
/// is the default backend for tests and benchmarks (the paper's disks
/// are not the phenomenon under study).
#[derive(Debug, Default)]
pub struct MemStore {
    /// Each blob is one allocation: `get` hands out handles on it.
    blobs: RwLock<BTreeMap<String, Bytes>>,
    logs: RwLock<BTreeMap<String, Vec<Vec<u8>>>>,
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StableStorage for MemStore {
    fn put(&self, key: &str, bytes: &[u8]) {
        self.blobs
            .write()
            .insert(key.to_string(), Bytes::from(bytes.to_vec()));
    }

    fn get(&self, key: &str) -> Option<Bytes> {
        self.blobs.read().get(key).cloned()
    }

    fn delete(&self, key: &str) {
        self.blobs.write().remove(key);
    }

    fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.blobs
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn append(&self, key: &str, record: &[u8]) {
        self.logs
            .write()
            .entry(key.to_string())
            .or_default()
            .push(record.to_vec());
    }

    fn read_log(&self, key: &str) -> Vec<Vec<u8>> {
        self.logs.read().get(key).cloned().unwrap_or_default()
    }

    fn log_len(&self, key: &str) -> usize {
        self.logs.read().get(key).map_or(0, Vec::len)
    }

    fn truncate_log(&self, key: &str) {
        self.logs.write().remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_suite() {
        let s = MemStore::new();
        conformance::blob_roundtrip(&s);
        conformance::prefix_listing(&s);
        conformance::log_append_read(&s);
        conformance::logs_and_blobs_are_separate(&s);
    }

    #[test]
    fn concurrent_appends_all_land() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    s.append("log", &[(t as u8), (i % 256) as u8]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.log_len("log"), 800);
    }
}
