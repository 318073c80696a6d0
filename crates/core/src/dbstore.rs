//! DbReg / DbMem — the database-engine baselines (paper §V-B's SQLiteReg
//! and SQLiteMem, built on [`mvkv_minidb`]; see DESIGN.md substitution S1).
//!
//! Rows are `(version, key, value)`; removals store the engine's marker
//! value "outside of the allowable range of valid values". Queries run over
//! the composite `(key, version)` B+tree index through prepared-query entry
//! points. `DbStore::reg` keeps a page cache per session (SQLite keeps one
//! per connection) and persists through a WAL on a backing file;
//! `DbStore::mem` is purely in-memory with one *shared* page cache whose
//! lock all sessions contend on — the effect the paper measures in §V-E.

use crate::api::{StoreSession, VersionedStore};
use crate::Pair;
use mvkv_minidb::{Connection, Database};
use mvkv_vhistory::{HistoryRecord, VersionClock, TOMBSTONE};
use std::path::Path;

/// Database-engine-backed multi-version store.
pub struct DbStore {
    db: Database,
    clock: VersionClock,
    name: &'static str,
}

impl DbStore {
    /// Persistent variant (paper's SQLiteReg): database + WAL on `path`.
    /// Put `path` under `/dev/shm` to match the paper's setup.
    pub fn reg<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let db = Database::create_file(path).map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(DbStore { db, clock: VersionClock::new(), name: "DbReg" })
    }

    /// Reopens a persistent store after shutdown, resuming versioning from
    /// the highest committed row version (used by the restart experiment,
    /// Fig 5b).
    pub fn reopen<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let db = Database::open_file(path).map_err(|e| std::io::Error::other(e.to_string()))?;
        // The engine's WAL guarantees the row log is a committed prefix, so
        // the watermark is simply the highest stored version.
        let max_version = db.connect().max_version();
        Ok(DbStore { db, clock: VersionClock::resume(max_version), name: "DbReg" })
    }

    /// In-memory variant (paper's SQLiteMem): shared page cache, no
    /// persistence.
    pub fn mem() -> Self {
        DbStore { db: Database::memory(), clock: VersionClock::new(), name: "DbMem" }
    }
}

impl VersionedStore for DbStore {
    type Session<'a> = DbSession<'a>;

    fn session(&self) -> DbSession<'_> {
        DbSession { store: self, conn: self.db.connect() }
    }

    fn tag(&self) -> u64 {
        self.clock.watermark()
    }

    fn latest_version(&self) -> u64 {
        self.clock.issued()
    }

    fn key_count(&self) -> u64 {
        // Distinct keys require a scan — the row log does not track them.
        // Note this reports *live* keys (removed keys are skipped by the
        // snapshot select); benchmarks only call it on stores without
        // outstanding removals.
        self.db.connect().snapshot(u64::MAX).len() as u64
    }

    fn wait_writes_complete(&self) {
        self.clock.wait_all_complete();
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// One engine connection bound to a store (per worker thread).
pub struct DbSession<'a> {
    store: &'a DbStore,
    conn: Connection,
}

impl StoreSession for DbSession<'_> {
    fn insert(&self, key: u64, value: u64) -> u64 {
        assert_ne!(value, TOMBSTONE, "value reserved for removal marker");
        let version = self.store.clock.issue();
        self.conn.insert_row(version, key, value).expect("insert transaction failed");
        self.store.clock.complete(version);
        version
    }

    fn remove(&self, key: u64) -> u64 {
        let version = self.store.clock.issue();
        self.conn.remove_row(version, key).expect("remove transaction failed");
        self.store.clock.complete(version);
        version
    }

    fn find(&self, key: u64, version: u64) -> Option<u64> {
        self.conn.find(key, version)
    }

    fn extract_history(&self, key: u64) -> Vec<HistoryRecord> {
        self.conn
            .history(key)
            .into_iter()
            .map(|(version, value)| {
                HistoryRecord::from_raw(
                    version,
                    if value == mvkv_minidb::REMOVE_MARKER { TOMBSTONE } else { value },
                )
            })
            .collect()
    }

    fn extract_snapshot(&self, version: u64) -> Vec<Pair> {
        self.conn.snapshot(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_versioned_semantics() {
        let store = DbStore::mem();
        let s = store.session();
        let v1 = s.insert(10, 100);
        let v2 = s.remove(10);
        let v3 = s.insert(10, 101);
        assert_eq!(s.find(10, v1), Some(100));
        assert_eq!(s.find(10, v2), None);
        assert_eq!(s.find(10, v3), Some(101));
        assert_eq!(store.tag(), 3);
        let recs = s.extract_history(10);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].value, None);
    }

    #[test]
    fn snapshot_matches_other_stores_shape() {
        let store = DbStore::mem();
        let s = store.session();
        s.insert(5, 50);
        s.insert(2, 20);
        let v = s.insert(8, 80);
        s.remove(5);
        assert_eq!(s.extract_snapshot(v), vec![(2, 20), (5, 50), (8, 80)]);
        assert_eq!(s.extract_snapshot(store.tag()), vec![(2, 20), (8, 80)]);
    }

    #[test]
    fn reg_store_persists_and_reopens() {
        let path = std::env::temp_dir().join(format!("mvkv-dbstore-{}.db", std::process::id()));
        {
            let store = DbStore::reg(&path).unwrap();
            let s = store.session();
            for i in 1..=50u64 {
                s.insert(i, i * 3);
            }
            s.remove(25);
        }
        {
            let store = DbStore::reopen(&path).unwrap();
            assert_eq!(store.tag(), 51, "watermark resumes from the stored log");
            let s = store.session();
            assert_eq!(s.find(10, 51), Some(30));
            assert_eq!(s.find(25, 51), None);
            assert_eq!(s.find(25, 25), Some(75));
            // New writes continue the version sequence.
            let v = s.insert(100, 1);
            assert_eq!(v, 52);
        }
        let _ = std::fs::remove_file(&path);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn multi_session_concurrency() {
        let store = std::sync::Arc::new(DbStore::mem());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let s = store.session();
                    for i in 0..200u64 {
                        s.insert(t * 1000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        store.wait_writes_complete();
        assert_eq!(store.tag(), 800);
        let snap = store.session().extract_snapshot(store.tag());
        assert_eq!(snap.len(), 800);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
