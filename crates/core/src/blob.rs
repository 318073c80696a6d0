//! Byte-valued layer over [`PSkipList`].
//!
//! The paper's motivating workload stores *tensors* keyed by ordered layer
//! ids (§I: "learning models are represented as a set of key-value pairs
//! (id, tensor)"), while the core store's values are 64-bit words. This
//! layer closes the gap the way a PM-native application would: values are
//! length-prefixed blobs allocated in the *same* persistent pool, and the
//! versioned store holds their offsets. All multi-versioning semantics
//! (snapshots, histories, tags, crash consistency) carry over unchanged:
//!
//! * blobs are immutable once published — an update writes a new blob and
//!   appends a new version, so old snapshots keep their bytes;
//! * a blob is persisted *before* the version referencing it is appended,
//!   so a crash can orphan a blob (auditable leak) but never publish a
//!   dangling reference;
//! * compaction deep-copies surviving blobs into the new pool via
//!   [`PSkipList::compact_into`]'s value rewriter.

use crate::api::{StoreSession, VersionedStore};
use crate::pskiplist::{CompactStats, PSkipList};
use mvkv_pmem::{CrashOptions, PmemPool};
use std::path::Path;

/// One decoded history record with blob payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobRecord {
    pub version: u64,
    /// `None` encodes a removal.
    pub bytes: Option<Vec<u8>>,
}

/// A multi-version ordered key-value store with arbitrary byte values.
///
/// # Examples
///
/// ```
/// use mvkv_core::BlobStore;
///
/// let store = BlobStore::create_volatile(16 << 20)?;
/// let v1 = store.insert(1, b"epoch-0 weights");
/// store.insert(1, b"epoch-1 weights");
/// assert_eq!(store.find(1, v1).as_deref(), Some(b"epoch-0 weights".as_slice()));
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct BlobStore {
    inner: PSkipList,
}

/// Copies a length-prefixed blob into `pool`; returns its offset.
fn write_blob(pool: &PmemPool, bytes: &[u8]) -> u64 {
    let off = pool.alloc(8 + bytes.len()).expect("pmem pool exhausted");
    pool.write_u64(off, bytes.len() as u64);
    // SAFETY: freshly allocated block, exclusive access.
    unsafe { pool.write_bytes(off + 8, bytes) };
    pool.persist(off, 8 + bytes.len());
    pool.fence();
    off
}

/// Reads the blob at `off` from `pool`.
fn read_blob(pool: &PmemPool, off: u64) -> Vec<u8> {
    let len = pool.read_u64(off) as usize;
    // SAFETY: blobs are immutable once published.
    unsafe { pool.bytes(off + 8, len).to_vec() }
}

impl BlobStore {
    pub fn create_file<P: AsRef<Path>>(path: P, size: usize) -> std::io::Result<Self> {
        Ok(BlobStore { inner: PSkipList::create_file(path, size)? })
    }

    pub fn create_volatile(size: usize) -> std::io::Result<Self> {
        Ok(BlobStore { inner: PSkipList::create_volatile(size)? })
    }

    pub fn create_crash_sim(size: usize, options: CrashOptions) -> std::io::Result<Self> {
        Ok(BlobStore { inner: PSkipList::create_crash_sim(size, options)? })
    }

    /// Reopens a persisted blob store (see [`PSkipList::open_file`]).
    pub fn open_file<P: AsRef<Path>>(
        path: P,
        threads: usize,
    ) -> std::io::Result<(Self, crate::RestartStats)> {
        let (inner, stats) = PSkipList::open_file(path, threads)?;
        Ok((BlobStore { inner }, stats))
    }

    /// Reopens from a crash image.
    pub fn open_image(bytes: &[u8], threads: usize) -> std::io::Result<(Self, crate::RestartStats)> {
        let (inner, stats) = PSkipList::open_image(bytes, threads)?;
        Ok((BlobStore { inner }, stats))
    }

    /// The wrapped word-valued store (tags, deltas, watermark, …).
    pub fn inner(&self) -> &PSkipList {
        &self.inner
    }

    /// Inserts `key → bytes`, tagging a new snapshot; returns its version.
    pub fn insert(&self, key: u64, bytes: &[u8]) -> u64 {
        let off = write_blob(self.inner.pool(), bytes);
        self.inner.session().insert(key, off)
    }

    /// Removes `key`, tagging a new snapshot.
    pub fn remove(&self, key: u64) -> u64 {
        self.inner.session().remove(key)
    }

    /// The bytes of `key` in snapshot `version`.
    pub fn find(&self, key: u64, version: u64) -> Option<Vec<u8>> {
        let off = self.inner.session().find(key, version)?;
        Some(read_blob(self.inner.pool(), off))
    }

    /// All live `(key, bytes)` pairs of snapshot `version`, sorted by key.
    pub fn extract_snapshot(&self, version: u64) -> Vec<(u64, Vec<u8>)> {
        self.inner
            .session()
            .extract_snapshot(version)
            .into_iter()
            .map(|(key, off)| (key, read_blob(self.inner.pool(), off)))
            .collect()
    }

    /// The full change history of `key` with decoded payloads.
    pub fn extract_history(&self, key: u64) -> Vec<BlobRecord> {
        self.inner
            .session()
            .extract_history(key)
            .into_iter()
            .map(|r| BlobRecord {
                version: r.version,
                bytes: r.value.map(|off| read_blob(self.inner.pool(), off)),
            })
            .collect()
    }

    /// Newest consistent snapshot id (see [`VersionedStore::tag`]).
    pub fn tag(&self) -> u64 {
        self.inner.tag()
    }

    pub fn key_count(&self) -> u64 {
        self.inner.key_count()
    }

    pub fn wait_writes_complete(&self) {
        self.inner.wait_writes_complete()
    }

    /// On a crash-sim store, the post-power-failure bytes.
    pub fn crash_image(&self) -> Option<Vec<u8>> {
        self.inner.crash_image()
    }

    /// Horizon compaction into `pool` with blob deep-copy (see
    /// [`PSkipList::compact_into`]). Unreferenced old blobs are left behind
    /// in the source pool — reclaiming them is exactly what the new pool
    /// achieves.
    pub fn compact_into(
        &self,
        pool: PmemPool,
        horizon: u64,
    ) -> std::io::Result<(BlobStore, CompactStats)> {
        let src = self.inner.pool();
        let (inner, stats) = self
            .inner
            .compact_into(pool, horizon, |off, dst| write_blob(dst, &read_blob(src, off)))?;
        Ok((BlobStore { inner }, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_roundtrip_and_versioning() {
        let store = BlobStore::create_volatile(32 << 20).unwrap();
        let v1 = store.insert(5, b"tensor-epoch-0");
        let v2 = store.insert(5, b"tensor-epoch-1");
        let v3 = store.remove(5);
        assert_eq!(store.find(5, v1).as_deref(), Some(b"tensor-epoch-0".as_slice()));
        assert_eq!(store.find(5, v2).as_deref(), Some(b"tensor-epoch-1".as_slice()));
        assert_eq!(store.find(5, v3), None);
        let hist = store.extract_history(5);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].bytes.as_deref(), Some(b"tensor-epoch-0".as_slice()));
        assert_eq!(hist[2].bytes, None);
    }

    #[test]
    fn empty_and_large_blobs() {
        let store = BlobStore::create_volatile(64 << 20).unwrap();
        store.insert(1, b"");
        let big: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let v = store.insert(2, &big);
        assert_eq!(store.find(1, v).as_deref(), Some(b"".as_slice()));
        assert_eq!(store.find(2, v).as_deref(), Some(big.as_slice()));
    }

    #[test]
    fn snapshots_keep_old_blob_bytes() {
        let store = BlobStore::create_volatile(32 << 20).unwrap();
        let v1 = store.insert(1, b"alpha");
        store.insert(2, b"beta");
        store.insert(1, b"ALPHA");
        let snap_old = store.extract_snapshot(v1);
        assert_eq!(snap_old, vec![(1, b"alpha".to_vec())]);
        let snap_new = store.extract_snapshot(store.tag());
        assert_eq!(snap_new, vec![(1, b"ALPHA".to_vec()), (2, b"beta".to_vec())]);
    }

    #[test]
    fn blobs_survive_restart() {
        let path =
            std::env::temp_dir().join(format!("mvkv-blob-restart-{}.pool", std::process::id()));
        let v;
        {
            let store = BlobStore::create_file(&path, 32 << 20).unwrap();
            v = store.insert(9, b"persistent payload");
            store.insert(9, b"newer payload");
        }
        {
            let (store, stats) = BlobStore::open_file(&path, 2).unwrap();
            assert_eq!(stats.rebuilt_keys, 1);
            assert_eq!(store.find(9, v).as_deref(), Some(b"persistent payload".as_slice()));
            assert_eq!(store.find(9, store.tag()).as_deref(), Some(b"newer payload".as_slice()));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_never_publishes_dangling_blob() {
        let store = BlobStore::create_crash_sim(32 << 20, CrashOptions::default()).unwrap();
        store.insert(1, b"committed");
        store.wait_writes_complete();
        let image = store.crash_image().unwrap();
        store.insert(2, b"lost to the crash");
        let (recovered, stats) = BlobStore::open_image(&image, 1).unwrap();
        assert_eq!(stats.watermark, 1);
        assert_eq!(recovered.find(1, 1).as_deref(), Some(b"committed".as_slice()));
        assert_eq!(recovered.find(2, u64::MAX), None);
    }

    #[test]
    fn compaction_deep_copies_blobs() {
        let store = BlobStore::create_volatile(32 << 20).unwrap();
        store.insert(1, b"old-1");
        store.insert(2, b"old-2");
        store.insert(1, b"new-1");
        store.remove(2);
        let horizon = store.tag();
        store.insert(3, b"post-horizon");
        let fresh = PmemPool::create_volatile(32 << 20).unwrap();
        let (compacted, stats) = store.compact_into(fresh, horizon).unwrap();
        assert_eq!(stats.keys_dropped, 1, "key 2 dead at the horizon");
        assert_eq!(compacted.find(1, horizon).as_deref(), Some(b"new-1".as_slice()));
        assert_eq!(
            compacted.find(3, compacted.tag()).as_deref(),
            Some(b"post-horizon".as_slice())
        );
        assert_eq!(compacted.find(2, u64::MAX), None);
        // The compacted snapshot is byte-identical at the horizon and after.
        assert_eq!(compacted.extract_snapshot(horizon), store.extract_snapshot(horizon));
        assert_eq!(
            compacted.extract_snapshot(compacted.tag()),
            store.extract_snapshot(store.tag())
        );
    }
}
