//! Remote object storage for durable log shipping.
//!
//! The paper's recovery story assumes checkpoints and logs survive on
//! *local* stable storage, so a failure that takes the disk with the
//! process (node loss) is unrecoverable. This module provides the
//! remote side of the fix: an object-store-style [`RemoteStore`]
//! trait holding sealed checkpoint generations, a CRC-checked
//! [`Manifest`] describing what was shipped, an in-memory
//! backend, and [`FaultyRemote`] — a wrapper whose faults are seeded
//! through [`lclog_simnet::StorageChaos`] so every misbehaviour
//! (transient errors, unavailability windows, torn/corrupt objects)
//! replays deterministically.
//!
//! Unlike [`StableStorage`](crate::StableStorage), every operation is
//! fallible: remote backends fail, and callers (the replicator in
//! `lclog-runtime`) keep what failed and retry it.

use lclog_simnet::StorageChaos;
use lclog_wire::{crc32, varint, Reader};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a remote operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteError {
    /// A retryable hiccup: the operation may succeed if reissued.
    Transient,
    /// The backend is down; retries will keep failing until the
    /// outage ends.
    Unavailable,
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Transient => write!(f, "transient remote error"),
            RemoteError::Unavailable => write!(f, "remote backend unavailable"),
        }
    }
}

/// Result alias for remote-store operations.
pub type RemoteResult<T> = Result<T, RemoteError>;

/// An object-store-style remote backend: flat keys, whole-object
/// puts, gets and deletes, prefix listing. Implementations must be
/// safe for concurrent use.
pub trait RemoteStore: Send + Sync {
    /// Store `bytes` under `key`, replacing any previous object.
    fn put(&self, key: &str, bytes: &[u8]) -> RemoteResult<()>;

    /// Fetch the object stored under `key`.
    fn get(&self, key: &str) -> RemoteResult<Option<Vec<u8>>>;

    /// List object keys with the given prefix, sorted.
    fn list(&self, prefix: &str) -> RemoteResult<Vec<String>>;

    /// Remove the object stored under `key`; removing an absent key
    /// succeeds.
    fn delete(&self, key: &str) -> RemoteResult<()>;
}

impl fmt::Debug for dyn RemoteStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RemoteStore")
    }
}

/// In-memory remote backend: always healthy, always consistent. The
/// substrate under [`FaultyRemote`] and the default for tests.
#[derive(Debug, Default)]
pub struct MemRemote {
    objects: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl MemRemote {
    /// Create an empty remote.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RemoteStore for MemRemote {
    fn put(&self, key: &str, bytes: &[u8]) -> RemoteResult<()> {
        self.objects.write().insert(key.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> RemoteResult<Option<Vec<u8>>> {
        Ok(self.objects.read().get(key).cloned())
    }

    fn list(&self, prefix: &str) -> RemoteResult<Vec<String>> {
        Ok(self
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn delete(&self, key: &str) -> RemoteResult<()> {
        self.objects.write().remove(key);
        Ok(())
    }
}

/// A remote backend that misbehaves on a seeded schedule.
///
/// Each put, get and list consumes one global sequence number and asks
/// the [`StorageChaos`] model for its fate: unavailability windows and
/// transient errors fail the call, and torn or bit-flipped puts
/// *succeed* while silently storing damaged bytes — the failure mode
/// only the manifest's CRCs can catch. A delete passes straight
/// through and draws no fate, so garbage collection leaves every
/// other operation's fate where it was.
pub struct FaultyRemote<S> {
    inner: S,
    chaos: StorageChaos,
    ops: AtomicU64,
    faults: AtomicU64,
    torn_objects: AtomicU64,
}

impl<S: RemoteStore> FaultyRemote<S> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: S, chaos: StorageChaos) -> Self {
        FaultyRemote {
            inner,
            chaos,
            ops: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            torn_objects: AtomicU64::new(0),
        }
    }

    /// Operations failed so far (unavailable + transient).
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    /// Puts that silently stored torn or bit-flipped bytes so far.
    pub fn objects_damaged(&self) -> u64 {
        self.torn_objects.load(Ordering::SeqCst)
    }

    /// Access the healthy backend underneath (test inspection).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Roll the fate of the next operation; `Err` means the call
    /// must fail without touching the backend.
    fn admit(&self) -> RemoteResult<lclog_simnet::StorageFate> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let fate = self.chaos.fate(op);
        if fate.unavailable {
            self.faults.fetch_add(1, Ordering::SeqCst);
            return Err(RemoteError::Unavailable);
        }
        if fate.transient {
            self.faults.fetch_add(1, Ordering::SeqCst);
            return Err(RemoteError::Transient);
        }
        Ok(fate)
    }
}

impl<S: RemoteStore> RemoteStore for FaultyRemote<S> {
    fn put(&self, key: &str, bytes: &[u8]) -> RemoteResult<()> {
        let fate = self.admit()?;
        if fate.torn && !bytes.is_empty() {
            self.torn_objects.fetch_add(1, Ordering::SeqCst);
            return self.inner.put(key, &bytes[..bytes.len() / 2]);
        }
        if let Some(h) = fate.flip_bit {
            if !bytes.is_empty() {
                self.torn_objects.fetch_add(1, Ordering::SeqCst);
                let mut damaged = bytes.to_vec();
                let bit = (h % (damaged.len() as u64 * 8)) as usize;
                damaged[bit / 8] ^= 1 << (bit % 8);
                return self.inner.put(key, &damaged);
            }
        }
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> RemoteResult<Option<Vec<u8>>> {
        self.admit()?;
        self.inner.get(key)
    }

    fn list(&self, prefix: &str) -> RemoteResult<Vec<String>> {
        self.admit()?;
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> RemoteResult<()> {
        self.inner.delete(key)
    }
}

/// One shipped checkpoint generation, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Remote object key.
    pub key: String,
    /// CRC-32 of the object bytes as shipped — the certification a
    /// restore checks before trusting the object.
    pub crc: u32,
    /// Object length in bytes.
    pub len: u64,
    /// Ship order (monotonic per replicator).
    pub seq: u64,
}

/// The CRC-checked catalogue of everything a replicator has shipped.
///
/// The manifest is itself sealed with the same CRC-32 + magic trailer
/// as checkpoint generations, so a torn manifest upload is detected
/// rather than trusted. An object is *fully certified* only when an
/// intact manifest lists it and the stored bytes match the recorded
/// CRC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Shipped objects in ship order.
    pub entries: Vec<ManifestEntry>,
}

/// Remote key under which the manifest lives.
pub const MANIFEST_KEY: &str = "manifest";

impl Manifest {
    /// Encode and seal the manifest for upload.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        varint::write_u64(&mut body, self.entries.len() as u64);
        for e in &self.entries {
            varint::write_u64(&mut body, e.key.len() as u64);
            body.extend_from_slice(e.key.as_bytes());
            body.extend_from_slice(&e.crc.to_le_bytes());
            varint::write_u64(&mut body, e.len);
            varint::write_u64(&mut body, e.seq);
        }
        crate::seal::seal(&mut body);
        body
    }

    /// Unseal and decode a manifest blob; `None` when torn, corrupt,
    /// or malformed.
    pub fn decode(blob: &[u8]) -> Option<Self> {
        let body = crate::seal::unseal(blob)?;
        let mut r = Reader::new(body);
        let count = varint::read_u64(&mut r).ok()?;
        let mut entries = Vec::with_capacity(count.min(4096) as usize);
        for _ in 0..count {
            let key_len = varint::read_u64(&mut r).ok()? as usize;
            let key = String::from_utf8(r.take(key_len).ok()?.to_vec()).ok()?;
            let crc = u32::from_le_bytes(r.take(4).ok()?.try_into().ok()?);
            let len = varint::read_u64(&mut r).ok()?;
            let seq = varint::read_u64(&mut r).ok()?;
            entries.push(ManifestEntry { key, crc, len, seq });
        }
        (r.remaining() == 0).then_some(Manifest { entries })
    }

    /// Entries whose key starts with `prefix`, newest (lexicographically
    /// largest key, i.e. highest version) first.
    pub fn generations_with_prefix(&self, prefix: &str) -> Vec<&ManifestEntry> {
        let mut gens: Vec<&ManifestEntry> = self
            .entries
            .iter()
            .filter(|e| e.key.starts_with(prefix))
            .collect();
        gens.sort_by(|a, b| b.key.cmp(&a.key));
        gens
    }

    /// True when `blob` matches the CRC recorded for `entry`.
    pub fn certifies(entry: &ManifestEntry, blob: &[u8]) -> bool {
        blob.len() as u64 == entry.len && crc32(blob) == entry.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, blob: &[u8], seq: u64) -> ManifestEntry {
        ManifestEntry {
            key: key.to_string(),
            crc: crc32(blob),
            len: blob.len() as u64,
            seq,
        }
    }

    #[test]
    fn mem_remote_roundtrip_and_listing() {
        let r = MemRemote::new();
        assert_eq!(r.get("a").unwrap(), None);
        r.put("ckpt/0/v1", b"one").unwrap();
        r.put("ckpt/0/v2", b"two").unwrap();
        r.put("ckpt/1/v1", b"g").unwrap();
        assert_eq!(r.get("ckpt/0/v1").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(
            r.list("ckpt/0/").unwrap(),
            vec!["ckpt/0/v1".to_string(), "ckpt/0/v2".into()]
        );
        r.put("ckpt/0/v1", b"uno").unwrap();
        assert_eq!(r.get("ckpt/0/v1").unwrap().as_deref(), Some(&b"uno"[..]));
        r.delete("ckpt/0/v1").unwrap();
        r.delete("absent").unwrap();
        assert_eq!(r.list("ckpt/").unwrap(), ["ckpt/0/v2", "ckpt/1/v1"]);
    }

    #[test]
    fn manifest_roundtrips_and_rejects_damage() {
        let m = Manifest {
            entries: vec![
                entry("ckpt/0/v1", b"img", 0),
                entry("ckpt/1/v5", b"other", 1),
            ],
        };
        let blob = m.encode();
        assert_eq!(Manifest::decode(&blob), Some(m.clone()));
        assert!(Manifest::decode(&blob[..blob.len() - 2]).is_none(), "torn");
        let mut flipped = blob.clone();
        flipped[3] ^= 0x08;
        assert!(Manifest::decode(&flipped).is_none(), "bit flip");
        assert!(Manifest::decode(b"").is_none());
    }

    #[test]
    fn manifest_orders_generations_newest_first() {
        let m = Manifest {
            entries: vec![
                entry("ckpt/0/v00000000000000000001", b"a", 0),
                entry("ckpt/0/v00000000000000000010", b"b", 1),
                entry("ckpt/1/v00000000000000000002", b"c", 2),
            ],
        };
        let gens = m.generations_with_prefix("ckpt/0/v");
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].key, "ckpt/0/v00000000000000000010");
        assert!(Manifest::certifies(gens[0], b"b"));
        assert!(!Manifest::certifies(gens[0], b"x"));
        assert!(!Manifest::certifies(gens[0], b"bb"), "length mismatch");
    }

    #[test]
    fn faulty_remote_injects_transients_and_outages() {
        let chaos = StorageChaos::seeded(7).with_outage(0, 3).with_transient(0.5);
        let r = FaultyRemote::new(MemRemote::new(), chaos);
        // Ops 0..3 are in the outage window.
        for _ in 0..3 {
            assert_eq!(r.put("k", b"v"), Err(RemoteError::Unavailable));
        }
        // Past the window only transient errors remain; retrying must
        // eventually succeed.
        let mut ok = false;
        for _ in 0..64 {
            if r.put("k", b"v").is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok, "transient errors must be retryable");
        assert!(r.faults_injected() >= 3);
        assert_eq!(r.inner().get("k").unwrap().as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn faulty_remote_deletes_draw_no_fate() {
        let chaos = StorageChaos::seeded(7).with_outage(0, 3);
        let r = FaultyRemote::new(MemRemote::new(), chaos);
        r.inner().put("k", b"v").unwrap();
        r.delete("k").unwrap();
        assert_eq!(r.inner().get("k").unwrap(), None);
        // The outage still covers the next three operations.
        for _ in 0..3 {
            assert_eq!(r.get("k"), Err(RemoteError::Unavailable));
        }
        assert_eq!(r.get("k"), Ok(None));
    }

    #[test]
    fn torn_and_flipped_puts_report_success_but_fail_certification() {
        let torn = FaultyRemote::new(MemRemote::new(), StorageChaos::seeded(3).with_torn_put(1.0));
        let blob = b"a sealed object body".to_vec();
        let e = entry("g", &blob, 0);
        torn.put("g", &blob).unwrap();
        let stored = torn.inner().get("g").unwrap().unwrap();
        assert!(stored.len() < blob.len());
        assert!(!Manifest::certifies(&e, &stored), "torn object not certified");
        assert_eq!(torn.objects_damaged(), 1);

        let flip =
            FaultyRemote::new(MemRemote::new(), StorageChaos::seeded(3).with_corrupt_put(1.0));
        flip.put("g", &blob).unwrap();
        let stored = flip.inner().get("g").unwrap().unwrap();
        assert_eq!(stored.len(), blob.len());
        assert_ne!(stored, blob);
        assert!(!Manifest::certifies(&e, &stored), "flipped object not certified");
    }
}
