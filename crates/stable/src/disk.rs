use crate::StableStorage;
use lclog_wire::{varint, Bytes};
use parking_lot::Mutex;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Stable storage backed by real files.
///
/// Blobs are written with a temp-file + rename so readers never see a
/// torn checkpoint image. Logs are single files of varint
/// length-prefixed records, appended under a per-store lock.
///
/// Keys may contain `/`, which maps to subdirectories.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Serializes log appends (blob writes are atomic via rename).
    log_lock: Mutex<()>,
}

impl DiskStore {
    /// Open (creating if necessary) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("blobs"))?;
        fs::create_dir_all(root.join("logs"))?;
        Ok(DiskStore {
            root,
            log_lock: Mutex::new(()),
        })
    }

    fn blob_path(&self, key: &str) -> PathBuf {
        self.root.join("blobs").join(sanitize(key))
    }

    fn log_path(&self, key: &str) -> PathBuf {
        self.root.join("logs").join(sanitize(key))
    }
}

/// Map a key to a safe relative path component (keys are internal
/// protocol strings like `ckpt/3/v12`, never user input, but keep the
/// mapping total anyway).
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else if c == '/' {
                '#'
            } else {
                '_'
            }
        })
        .collect()
}

/// Temp-file sibling of `path`. Appends `.tmp` to the full file name
/// instead of using `Path::with_extension`, which would *replace*
/// anything after the last dot and could collide two distinct keys on
/// the same temp file.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().expect("blob file name").to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The steps of a crash-consistent blob replace, in execution order.
/// Durability argument: until the rename, readers only ever see the
/// previous blob (temp files are invisible to `keys_with_prefix`);
/// the temp fsync orders the new bytes before the rename so the
/// rename can never expose a torn file; the directory fsync makes the
/// rename itself durable against power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteStep {
    /// Temp file created and written, not yet fsynced.
    TempWritten,
    /// Temp file fsynced, rename not yet issued.
    TempSynced,
    /// Renamed over the target, directory entry not yet fsynced.
    Renamed,
}

fn atomic_write(path: &Path, bytes: &[u8]) {
    atomic_write_inner(path, bytes, |_| false);
}

/// The write sequence with a failpoint: `crashed_after(step)` returns
/// true to simulate the writer dying right after that step, leaving
/// whatever the file system holds at that instant.
fn atomic_write_inner(path: &Path, bytes: &[u8], crashed_after: impl Fn(WriteStep) -> bool) {
    let tmp = tmp_path(path);
    let mut f = fs::File::create(&tmp).expect("create temp blob");
    f.write_all(bytes).expect("write temp blob");
    if crashed_after(WriteStep::TempWritten) {
        return;
    }
    f.sync_all().ok();
    drop(f);
    if crashed_after(WriteStep::TempSynced) {
        return;
    }
    fs::rename(&tmp, path).expect("atomic blob replace");
    if crashed_after(WriteStep::Renamed) {
        return;
    }
    // Make the rename durable: fsync the containing directory (a
    // no-op error on platforms where directories cannot be opened).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
}

impl StableStorage for DiskStore {
    fn put(&self, key: &str, bytes: &[u8]) {
        atomic_write(&self.blob_path(key), bytes);
    }

    fn get(&self, key: &str) -> Option<Bytes> {
        fs::read(self.blob_path(key)).ok().map(Bytes::from)
    }

    fn delete(&self, key: &str) {
        let _ = fs::remove_file(self.blob_path(key));
    }

    fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let sanitized_prefix = sanitize(prefix);
        let mut keys: Vec<String> = fs::read_dir(self.root.join("blobs"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|name| !name.ends_with(".tmp"))
                    .filter(|name| name.starts_with(&sanitized_prefix))
                    .map(|name| name.replace('#', "/"))
                    .collect()
            })
            .unwrap_or_default();
        keys.sort();
        keys
    }

    fn append(&self, key: &str, record: &[u8]) {
        let _guard = self.log_lock.lock();
        let mut header = Vec::with_capacity(varint::MAX_VARINT_LEN);
        varint::write_u64(&mut header, record.len() as u64);
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path(key))
            .expect("open log for append");
        f.write_all(&header).expect("append log header");
        f.write_all(record).expect("append log record");
    }

    fn read_log(&self, key: &str) -> Vec<Vec<u8>> {
        let mut bytes = Vec::new();
        match fs::File::open(self.log_path(key)) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes).expect("read log file");
            }
            Err(_) => return Vec::new(),
        }
        let mut reader = lclog_wire::Reader::new(&bytes);
        let mut records = Vec::new();
        while reader.remaining() > 0 {
            let len = varint::read_u64(&mut reader).expect("log record header") as usize;
            let rec = reader.take(len).expect("log record body");
            records.push(rec.to_vec());
        }
        records
    }

    fn truncate_log(&self, key: &str) {
        let _guard = self.log_lock.lock();
        let _ = fs::remove_file(self.log_path(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    fn temp_store(tag: &str) -> DiskStore {
        let dir = std::env::temp_dir().join(format!(
            "lclog-stable-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        DiskStore::open(dir).unwrap()
    }

    #[test]
    fn conformance_suite() {
        let s = temp_store("conf");
        conformance::blob_roundtrip(&s);
        conformance::prefix_listing(&s);
        conformance::log_append_read(&s);
        conformance::logs_and_blobs_are_separate(&s);
    }

    #[test]
    fn survives_reopen() {
        let dir = std::env::temp_dir().join(format!("lclog-stable-reopen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put("ckpt/1", b"image");
            s.append("events", b"d1");
            s.append("events", b"d2");
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get("ckpt/1").as_deref(), Some(&b"image"[..]));
        assert_eq!(s.read_log("events"), vec![b"d1".to_vec(), b"d2".to_vec()]);
    }

    #[test]
    fn sanitize_is_stable() {
        assert_eq!(sanitize("ckpt/3/v1"), "ckpt#3#v1");
        assert_eq!(sanitize("weird key!"), "weird_key_");
    }

    /// Set up two checkpoint generations on a real disk store and
    /// return `(store, path of the newest generation's file)`.
    fn two_generations(tag: &str) -> (crate::CheckpointStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "lclog-stable-torn-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let disk = DiskStore::open(&dir).unwrap();
        let newest = disk.blob_path("ckpt/0/v00000000000000000002");
        let ckpts = crate::CheckpointStore::new(std::sync::Arc::new(disk));
        ckpts.save(0, 1, b"generation one");
        ckpts.save(0, 2, b"generation two");
        assert!(newest.exists(), "newest generation file on disk");
        (ckpts, newest)
    }

    #[test]
    fn torn_checkpoint_file_falls_back_to_previous_generation() {
        let (ckpts, newest) = two_generations("truncate");
        // Simulate a crash mid-write that the tmp+rename dance did not
        // cover (e.g. media truncation after the rename): chop the
        // file so the CRC trailer is gone.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(ckpts.load_latest(0), Some((1, b"generation one".to_vec())));
    }

    #[test]
    fn bit_flipped_checkpoint_file_falls_back_to_previous_generation() {
        let (ckpts, newest) = two_generations("bitflip");
        let mut bytes = fs::read(&newest).unwrap();
        bytes[3] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(ckpts.load_latest(0), Some((1, b"generation one".to_vec())));
    }

    #[test]
    fn intact_checkpoint_files_load_newest() {
        let (ckpts, _) = two_generations("intact");
        assert_eq!(ckpts.load_latest(0), Some((2, b"generation two".to_vec())));
    }

    #[test]
    fn tmp_path_appends_instead_of_replacing_extension() {
        // `with_extension` would map both `a.1` and `a.2` to `a.tmp`;
        // the manifest writer must never alias two keys like that.
        assert_eq!(tmp_path(Path::new("/x/a.1")), Path::new("/x/a.1.tmp"));
        assert_eq!(tmp_path(Path::new("/x/plain")), Path::new("/x/plain.tmp"));
    }

    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut blob = body.to_vec();
        crate::seal::seal(&mut blob);
        blob
    }

    /// Kill the writer after `step` while it replaces generation 1
    /// with generation 2, then "reboot" (fresh `DiskStore` handle)
    /// and report what a recovery would load.
    fn crash_replacing_generation(tag: &str, step: WriteStep) -> (Option<(u64, Vec<u8>)>, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!(
            "lclog-stable-failpoint-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let disk = DiskStore::open(&dir).unwrap();
        let gen1 = sealed(b"generation one");
        let gen2 = sealed(b"generation two");
        let key1 = "ckpt/0/v00000000000000000001";
        let key2 = "ckpt/0/v00000000000000000002";
        disk.put(key1, &gen1);
        // The failpoint: die right after `step` of the second write.
        atomic_write_inner(&disk.blob_path(key2), &gen2, |s| s == step);
        drop(disk);
        let rebooted = DiskStore::open(&dir).unwrap();
        let prior_file = fs::read(rebooted.blob_path(key1)).unwrap();
        let loaded =
            crate::CheckpointStore::new(std::sync::Arc::new(rebooted)).load_latest(0);
        (loaded, prior_file)
    }

    #[test]
    fn crash_after_temp_write_keeps_prior_generation() {
        let (loaded, prior) = crash_replacing_generation("w", WriteStep::TempWritten);
        assert_eq!(loaded, Some((1, b"generation one".to_vec())));
        assert_eq!(prior, sealed(b"generation one"), "prior file untouched");
    }

    #[test]
    fn crash_after_temp_sync_keeps_prior_generation() {
        let (loaded, prior) = crash_replacing_generation("s", WriteStep::TempSynced);
        assert_eq!(loaded, Some((1, b"generation one".to_vec())));
        assert_eq!(prior, sealed(b"generation one"));
    }

    #[test]
    fn crash_after_rename_exposes_complete_new_generation() {
        // Once the rename has landed, the new generation is visible in
        // full (the temp fsync ordered its bytes first) and the prior
        // one still exists for fallback.
        let (loaded, prior) = crash_replacing_generation("r", WriteStep::Renamed);
        assert_eq!(loaded, Some((2, b"generation two".to_vec())));
        assert_eq!(prior, sealed(b"generation one"));
    }

    #[test]
    fn leftover_temp_files_stay_invisible_to_listing() {
        let dir = std::env::temp_dir().join(format!(
            "lclog-stable-failpoint-list-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let disk = DiskStore::open(&dir).unwrap();
        disk.put("ckpt/0/v00000000000000000001", b"ok");
        atomic_write_inner(
            &disk.blob_path("ckpt/0/v00000000000000000002"),
            b"half",
            |s| s == WriteStep::TempWritten,
        );
        assert_eq!(
            disk.keys_with_prefix("ckpt/0/"),
            vec!["ckpt/0/v00000000000000000001".to_string()]
        );
    }
}
