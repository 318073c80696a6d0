//! Database engine: connections, single-writer transactions, prepared
//! queries over the `(version, key, value)` row log.

use crate::btree::{self, PageSource};
use crate::page::{PageBuf, PAGE_SIZE};
use crate::pager::PageCache;
use crate::storage::Media;
use crate::wal::Wal;
use crate::{DbError, Result, REMOVE_MARKER};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const META_MAGIC: u64 = 0x4D49_4E49_4442_0002; // "MINIDB" v2 (adds the version index)
const META_PAGE: u64 = 0;

/// Page-cache capacity in pages (per cache).
const CACHE_PAGES: usize = 2048;

/// Checkpoint the WAL after this many committed page frames.
const CHECKPOINT_FRAMES: u64 = 1 << 14;

#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Primary tree: `(key, version) → value`.
    root: u64,
    /// Secondary index: `(version, key) → value` — the paper's
    /// "multi-column indexing over both version number and key".
    vroot: u64,
    next_page: u64,
    rows: u64,
}

impl Meta {
    fn to_page(self) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.put_u64(0, META_MAGIC);
        p.put_u64(8, self.root);
        p.put_u64(16, self.vroot);
        p.put_u64(24, self.next_page);
        p.put_u64(32, self.rows);
        p
    }

    fn from_page(p: &PageBuf) -> Result<Self> {
        if p.get_u64(0) != META_MAGIC {
            return Err(DbError::Corrupt("bad meta magic"));
        }
        Ok(Meta {
            root: p.get_u64(8),
            vroot: p.get_u64(16),
            next_page: p.get_u64(24),
            rows: p.get_u64(32),
        })
    }
}

struct Shared {
    /// The main page store: page `i` at byte `i * PAGE_SIZE`.
    storage: Media,
    wal: Wal,
    /// The single-writer lock, owning the authoritative meta (SQLite
    /// serializes all writers).
    writer: Mutex<Meta>,
    /// Reader-visible committed meta.
    committed_meta: RwLock<Meta>,
    /// Bumped once per commit; caches tag-check against it.
    commit_counter: AtomicU64,
    /// The memory database's one cache; a file database's connections each
    /// keep their own.
    shared_cache: Option<Mutex<PageCache>>,
}

impl Shared {
    /// Uncached committed page read: WAL first, then main storage.
    ///
    /// Panics on I/O failure — only sound for pages the committed meta
    /// already vouches for. Open paths use [`Shared::try_fetch_committed`]
    /// so a truncated or unreadable database surfaces as an error.
    fn fetch_committed(&self, id: u64) -> PageBuf {
        self.try_fetch_committed(id).expect("committed page read failed")
    }

    /// Fallible committed page read: WAL first, then main storage.
    fn try_fetch_committed(&self, id: u64) -> Result<PageBuf> {
        let mut buf = PageBuf::zeroed();
        if !self.wal.read_page(id, &mut buf)? {
            self.storage.read_at(id * PAGE_SIZE as u64, buf.as_bytes_mut())?;
        }
        Ok(buf)
    }

    /// Writes a page image straight to main storage (not synced).
    fn write_page(&self, id: u64, buf: &PageBuf) -> Result<()> {
        self.storage.write_at(id * PAGE_SIZE as u64, buf.as_bytes())
    }

    /// Folds the WAL's committed frames into main storage and syncs it
    /// before the WAL is truncated. Callers hold the writer lock.
    fn checkpoint(&self) -> Result<()> {
        self.wal.checkpoint(|id, buf| self.write_page(id, buf), || self.storage.sync())
    }
}

/// A minidb database. Cheap to clone handles via [`Database::connect`].
///
/// A file database syncs its WAL at every commit and gives each connection
/// a private page cache (the `SQLiteReg` model); a memory database shares
/// one cache behind a lock (the `SQLiteMem` shared-cache model).
///
/// # Examples
///
/// ```
/// use mvkv_minidb::Database;
///
/// let db = Database::memory();
/// let conn = db.connect();
/// conn.insert_row(1, 10, 100)?; // (version, key, value)
/// conn.remove_row(2, 10)?;
/// assert_eq!(conn.find(10, 1), Some(100));
/// assert_eq!(conn.find(10, 2), None); // removed
/// assert_eq!(conn.history(10).len(), 2);
/// # Ok::<(), mvkv_minidb::DbError>(())
/// ```
pub struct Database {
    shared: Arc<Shared>,
}

impl Database {
    fn new(storage: Media, wal: Wal, shared_cache: Option<Mutex<PageCache>>) -> Database {
        let meta = Meta { root: 0, vroot: 0, next_page: 0, rows: 0 };
        Database {
            shared: Arc::new(Shared {
                storage,
                wal,
                writer: Mutex::new(meta),
                committed_meta: RwLock::new(meta),
                commit_counter: AtomicU64::new(1),
                shared_cache,
            }),
        }
    }

    /// Installs `meta` as the committed state (single-threaded: at create
    /// or open).
    fn with_meta(self, meta: Meta) -> Database {
        *self.shared.writer.lock() = meta;
        *self.shared.committed_meta.write() = meta;
        self
    }

    /// Writes the meta page and two empty B+trees directly to storage
    /// (creation is single-threaded).
    fn bootstrap(self) -> Result<Database> {
        let shared = &*self.shared;
        let mut boot = TxnPager { shared, writes: HashMap::new(), next_page: 1 };
        let root = btree::create_empty(&mut boot);
        let vroot = btree::create_empty(&mut boot);
        let meta = Meta { root, vroot, next_page: boot.next_page, rows: 0 };
        boot.writes.insert(META_PAGE, meta.to_page());
        for (&id, buf) in &boot.writes {
            shared.write_page(id, buf)?;
        }
        shared.storage.sync()?;
        Ok(self.with_meta(meta))
    }

    /// Creates a new file-backed database (`path` plus a `path.wal` log).
    pub fn create_file<P: AsRef<Path>>(path: P) -> Result<Database> {
        let storage = Media::create(path.as_ref())?;
        let wal = Wal::create_file(wal_path(path.as_ref()))?;
        Self::new(storage, wal, None).bootstrap()
    }

    /// Opens an existing file-backed database, replaying its WAL.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Database> {
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let wal = Wal::open_file(wal_path(path.as_ref()))?;
        let db = Self::new(Media::File(file), wal, None);
        let meta = Meta::from_page(&db.shared.try_fetch_committed(META_PAGE)?)?;
        Ok(db.with_meta(meta))
    }

    /// Creates an in-memory database (the `DbMem` mode — no durability).
    pub fn memory() -> Database {
        let cache = Mutex::new(PageCache::new(CACHE_PAGES));
        let db = Self::new(Media::memory(), Wal::memory(), Some(cache));
        db.bootstrap().expect("memory bootstrap cannot fail")
    }

    /// Opens a connection (one per thread; connections are `Send`, not `Sync`).
    pub fn connect(&self) -> Connection {
        // A connection of a shared-cache database never fills its own.
        let pages = if self.shared.shared_cache.is_some() { 0 } else { CACHE_PAGES };
        Connection { shared: self.shared.clone(), cache: RefCell::new(PageCache::new(pages)) }
    }

    /// Forces a WAL checkpoint into main storage.
    pub fn checkpoint(&self) -> Result<()> {
        let _writer = self.shared.writer.lock();
        self.shared.checkpoint()
    }

    /// Total committed rows.
    pub fn row_count(&self) -> u64 {
        self.shared.committed_meta.read().rows
    }
}

fn wal_path(path: &Path) -> std::path::PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".wal");
    std::path::PathBuf::from(p)
}

/// Write-transaction page overlay.
struct TxnPager<'a> {
    shared: &'a Shared,
    writes: HashMap<u64, PageBuf>,
    next_page: u64,
}

impl PageSource for TxnPager<'_> {
    fn read(&mut self, id: u64) -> PageBuf {
        if let Some(buf) = self.writes.get(&id) {
            return buf.clone();
        }
        self.shared.fetch_committed(id)
    }

    fn write(&mut self, id: u64, buf: PageBuf) {
        self.writes.insert(id, buf);
    }

    fn allocate(&mut self) -> u64 {
        let id = self.next_page;
        self.next_page += 1;
        id
    }
}

/// A per-thread connection: prepared-query entry points plus a private page
/// cache (file databases).
pub struct Connection {
    shared: Arc<Shared>,
    cache: RefCell<PageCache>,
}

impl Connection {
    /// Committed page read through the connection's cache discipline.
    fn read_page(&self, id: u64) -> PageBuf {
        let counter = self.shared.commit_counter.load(Ordering::Acquire);
        let (mut shared, mut own);
        let cache: &mut PageCache = match &self.shared.shared_cache {
            // SQLiteMem model: every page access serializes on the shared
            // cache lock — including the miss fill below.
            Some(cache) => {
                shared = cache.lock();
                &mut shared
            }
            None => {
                own = self.cache.borrow_mut();
                &mut own
            }
        };
        cache.validate(counter);
        if let Some(buf) = cache.get(id) {
            return buf;
        }
        let buf = self.shared.fetch_committed(id);
        cache.insert(id, buf.clone());
        buf
    }

    fn committed_root(&self) -> u64 {
        self.shared.committed_meta.read().root
    }

    /// Inserts one `(version, key, value)` row in its own transaction — the
    /// per-operation commit pattern the paper's benchmarks use (tag after
    /// every operation).
    pub fn insert_row(&self, version: u64, key: u64, value: u64) -> Result<()> {
        self.insert_rows(&[(version, key, value)])
    }

    /// Inserts a batch of rows in a single transaction.
    pub fn insert_rows(&self, rows: &[(u64, u64, u64)]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let shared = &*self.shared;
        let mut meta = shared.writer.lock();
        let mut txn = TxnPager { shared, writes: HashMap::new(), next_page: meta.next_page };
        let mut root = meta.root;
        let mut vroot = meta.vroot;
        for &(version, key, value) in rows {
            root = btree::insert(&mut txn, root, (key, version), value);
            // Maintain the secondary (version, key) index in the same
            // transaction — the second tree write per row that makes the
            // engine's write path behave like an indexed SQL table.
            vroot = btree::insert(&mut txn, vroot, (version, key), value);
        }
        meta.root = root;
        meta.vroot = vroot;
        meta.next_page = txn.next_page;
        meta.rows += rows.len() as u64;
        txn.writes.insert(META_PAGE, meta.to_page());
        shared.wal.commit(txn.writes.iter().map(|(&id, buf)| (id, buf)))?;
        *shared.committed_meta.write() = *meta;
        shared.commit_counter.fetch_add(1, Ordering::AcqRel);
        if shared.wal.frames_since_checkpoint() >= CHECKPOINT_FRAMES {
            shared.checkpoint()?;
        }
        Ok(())
    }

    /// Marks `key` removed at `version` (stores [`REMOVE_MARKER`]).
    pub fn remove_row(&self, version: u64, key: u64) -> Result<()> {
        self.insert_row(version, key, REMOVE_MARKER)
    }

    /// Point query: the value of `key` as of `version` (raw — may be the
    /// removal marker; `None` if the key has no row at or before `version`).
    pub fn find_raw(&self, key: u64, version: u64) -> Option<u64> {
        let root = self.committed_root();
        let mut fetch = |id| self.read_page(id);
        match btree::seek_le(&mut fetch, root, (key, version)) {
            Some(((k, _), value)) if k == key => Some(value),
            _ => None,
        }
    }

    /// Decoded point query (`None` for absent or removed).
    pub fn find(&self, key: u64, version: u64) -> Option<u64> {
        match self.find_raw(key, version) {
            Some(REMOVE_MARKER) | None => None,
            some => some,
        }
    }

    /// All `(version, value)` rows of `key` in version order.
    pub fn history(&self, key: u64) -> Vec<(u64, u64)> {
        let root = self.committed_root();
        let mut fetch = |id| self.read_page(id);
        btree::scan_key(&mut fetch, root, key)
    }

    /// Sorted `(key, value)` snapshot as of `version` (removed keys
    /// skipped) — the full-scan select the paper's extract snapshot issues.
    pub fn snapshot(&self, version: u64) -> Vec<(u64, u64)> {
        let root = self.committed_root();
        let mut fetch = |id| self.read_page(id);
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut current: Option<(u64, u64)> = None; // (key, best value)
        btree::scan_all(&mut fetch, root, |(k, v), value| {
            if let Some((ck, _)) = current {
                if ck != k {
                    if let Some((ck, cv)) = current.take() {
                        if cv != REMOVE_MARKER {
                            out.push((ck, cv));
                        }
                    }
                }
            }
            if v <= version {
                current = Some((k, value));
            } else if current.map(|(ck, _)| ck) != Some(k) {
                // Key's earliest row is already beyond the snapshot: remember
                // the key with a marker so later rows of the same key compare
                // against the right current key.
                current = Some((k, REMOVE_MARKER));
            }
        });
        if let Some((ck, cv)) = current {
            if cv != REMOVE_MARKER {
                out.push((ck, cv));
            }
        }
        out
    }

    /// Committed row count.
    pub fn row_count(&self) -> u64 {
        self.shared.committed_meta.read().rows
    }

    /// Highest version stored in any row — one descent of the secondary
    /// `(version, key)` index (restart-time helper).
    pub fn max_version(&self) -> u64 {
        let vroot = self.shared.committed_meta.read().vroot;
        let mut fetch = |id| self.read_page(id);
        btree::max_key(&mut fetch, vroot).map_or(0, |((version, _), _)| version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_db() -> Database {
        Database::memory()
    }

    #[test]
    fn insert_find_roundtrip() {
        let db = mem_db();
        let conn = db.connect();
        conn.insert_row(1, 10, 100).unwrap();
        conn.insert_row(2, 20, 200).unwrap();
        conn.insert_row(3, 10, 111).unwrap();
        assert_eq!(conn.find(10, 1), Some(100));
        assert_eq!(conn.find(10, 2), Some(100));
        assert_eq!(conn.find(10, 3), Some(111));
        assert_eq!(conn.find(20, 1), None, "not yet inserted at v1");
        assert_eq!(conn.find(20, 2), Some(200));
        assert_eq!(conn.find(99, 3), None);
        assert_eq!(db.row_count(), 3);
    }

    #[test]
    fn remove_marker_semantics() {
        let db = mem_db();
        let conn = db.connect();
        conn.insert_row(1, 7, 70).unwrap();
        conn.remove_row(2, 7).unwrap();
        conn.insert_row(3, 7, 77).unwrap();
        assert_eq!(conn.find(7, 1), Some(70));
        assert_eq!(conn.find(7, 2), None);
        assert_eq!(conn.find_raw(7, 2), Some(REMOVE_MARKER));
        assert_eq!(conn.find(7, 3), Some(77));
    }

    #[test]
    fn find_at_max_version() {
        let db = mem_db();
        let conn = db.connect();
        conn.insert_row(5, 1, 10).unwrap();
        assert_eq!(conn.find(1, u64::MAX), Some(10));
    }

    #[test]
    fn history_in_version_order() {
        let db = mem_db();
        let conn = db.connect();
        conn.insert_row(1, 5, 50).unwrap();
        conn.insert_row(4, 5, 51).unwrap();
        conn.remove_row(9, 5).unwrap();
        assert_eq!(conn.history(5), vec![(1, 50), (4, 51), (9, REMOVE_MARKER)]);
        assert!(conn.history(6).is_empty());
    }

    #[test]
    fn snapshot_picks_latest_per_key_and_skips_removed() {
        let db = mem_db();
        let conn = db.connect();
        conn.insert_row(1, 1, 11).unwrap();
        conn.insert_row(2, 2, 22).unwrap();
        conn.insert_row(3, 3, 33).unwrap();
        conn.remove_row(4, 2).unwrap();
        conn.insert_row(5, 1, 12).unwrap();
        assert_eq!(conn.snapshot(3), vec![(1, 11), (2, 22), (3, 33)]);
        assert_eq!(conn.snapshot(4), vec![(1, 11), (3, 33)]);
        assert_eq!(conn.snapshot(5), vec![(1, 12), (3, 33)]);
        assert_eq!(conn.snapshot(0), vec![]);
    }

    #[test]
    fn snapshot_with_future_only_keys() {
        let db = mem_db();
        let conn = db.connect();
        conn.insert_row(10, 1, 11).unwrap();
        conn.insert_row(2, 5, 55).unwrap();
        // Key 1 exists only beyond version 5; key 5 is visible.
        assert_eq!(conn.snapshot(5), vec![(5, 55)]);
    }

    #[test]
    fn file_db_persists_across_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("minidb-engine-{}.db", std::process::id()));
        {
            let db = Database::create_file(&path).unwrap();
            let conn = db.connect();
            for i in 1..=500u64 {
                conn.insert_row(i, i % 50, i).unwrap();
            }
        }
        {
            let db = Database::open_file(&path).unwrap();
            let conn = db.connect();
            assert_eq!(db.row_count(), 500);
            assert_eq!(conn.find(7, u64::MAX), Some(457), "last write of key 7 is v457");
            assert_eq!(conn.history(7).len(), 10);
        }
        {
            // Checkpoint then reopen again.
            let db = Database::open_file(&path).unwrap();
            db.checkpoint().unwrap();
            let conn = db.connect();
            assert_eq!(conn.find(7, u64::MAX), Some(457));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path(&path));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = Arc::new(mem_db());
        {
            let conn = db.connect();
            for i in 1..=1000u64 {
                conn.insert_row(i, i, i * 2).unwrap();
            }
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let conn = db.connect();
                    for probe in 1..=500u64 {
                        let key = (probe * 7 + t) % 1000 + 1;
                        assert_eq!(conn.find(key, u64::MAX), Some(key * 2));
                    }
                })
            })
            .collect();
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                let conn = db.connect();
                for i in 1001..=1200u64 {
                    conn.insert_row(i, i, i * 2).unwrap();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        writer.join().unwrap();
        let conn = db.connect();
        assert_eq!(conn.find(1100, u64::MAX), Some(2200));
    }

    #[test]
    fn shared_cache_mode_is_correct_under_concurrency() {
        let db = Arc::new(mem_db());
        {
            let conn = db.connect();
            let rows: Vec<(u64, u64, u64)> = (1..=2000u64).map(|i| (i, i, i + 5)).collect();
            conn.insert_rows(&rows).unwrap();
        }
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let conn = db.connect();
                    for probe in 1..=300u64 {
                        let key = (probe * 13 + t * 7) % 2000 + 1;
                        assert_eq!(conn.find(key, u64::MAX), Some(key + 5));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn max_version_via_secondary_index() {
        let db = mem_db();
        let conn = db.connect();
        assert_eq!(conn.max_version(), 0);
        conn.insert_row(7, 1, 1).unwrap();
        conn.insert_row(3, 2, 2).unwrap();
        assert_eq!(conn.max_version(), 7);
    }

    #[test]
    fn secondary_index_survives_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("minidb-vidx-{}.db", std::process::id()));
        {
            let db = Database::create_file(&path).unwrap();
            let conn = db.connect();
            for i in 1..=50u64 {
                conn.insert_row(i, i, i * 2).unwrap();
            }
        }
        {
            let db = Database::open_file(&path).unwrap();
            let conn = db.connect();
            assert_eq!(conn.max_version(), 50);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path(&path));
    }

    #[test]
    fn checkpoint_threshold_triggers_automatically() {
        // A single-row commit writes at least three frames (meta page and a
        // leaf of each tree), so `n` commits cross the threshold.
        let n = CHECKPOINT_FRAMES / 3 + 1;
        let db = mem_db();
        let conn = db.connect();
        for i in 1..=n {
            conn.insert_row(i, i, i).unwrap();
        }
        // The WAL must have checkpointed at least once, and all data must
        // remain visible.
        assert!(db.shared.wal.frames_since_checkpoint() < 3 * n);
        for i in 1..=n {
            assert_eq!(conn.find(i, u64::MAX), Some(i));
        }
    }

    /// `Database::checkpoint` beside `Connection::insert_rows` on a file
    /// database: both take the writer lock before the WAL's, so neither can
    /// wait on the other while holding a lock it needs, and no committed row
    /// is lost to a checkpoint that drains the WAL under a commit.
    #[test]
    fn checkpoints_run_beside_a_writer() {
        let path = std::env::temp_dir().join(format!("minidb-ckpt-{}.db", std::process::id()));
        const BATCHES: u64 = 200;
        {
            let db = Database::create_file(&path).unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let conn = db.connect();
                    for b in 0..BATCHES {
                        let rows: Vec<_> = (0..4).map(|i| (b + 1, 4 * b + i, b)).collect();
                        conn.insert_rows(&rows).unwrap();
                    }
                });
                s.spawn(|| {
                    for _ in 0..BATCHES / 4 {
                        db.checkpoint().unwrap();
                        std::thread::yield_now();
                    }
                });
            });
            let conn = db.connect();
            assert_eq!(db.row_count(), 4 * BATCHES);
            assert_eq!(conn.find(4 * BATCHES - 1, u64::MAX), Some(BATCHES - 1));
        }
        let db = Database::open_file(&path).unwrap();
        let conn = db.connect();
        assert_eq!(db.row_count(), 4 * BATCHES);
        for k in 0..4 * BATCHES {
            assert_eq!(conn.find(k, u64::MAX), Some(k / 4), "key {k}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path(&path));
    }
}
