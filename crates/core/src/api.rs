//! The multi-version ordered dictionary API (paper Table 1).

use crate::Pair;
use mvkv_vhistory::HistoryRecord;

/// A multi-versioning ordered key-value store (paper §II).
///
/// Worker threads obtain a [`StoreSession`] each; sessions carry any
/// per-thread state an implementation needs (the database baselines keep a
/// per-connection page cache there, mirroring SQLite connections).
pub trait VersionedStore: Send + Sync {
    /// Per-thread operation handle.
    type Session<'a>: StoreSession
    where
        Self: 'a;

    /// Opens a session. Cheap; call once per worker thread.
    fn session(&self) -> Self::Session<'_>;

    /// Returns the newest consistent snapshot id (the completion
    /// watermark). Equivalent to the paper's `tag` with an implicit label:
    /// the returned version can be passed to `find`/`extract_snapshot`
    /// forever after.
    fn tag(&self) -> u64;

    /// Highest version number issued so far (≥ [`VersionedStore::tag`]).
    fn latest_version(&self) -> u64;

    /// Number of distinct keys ever inserted.
    fn key_count(&self) -> u64;

    /// Blocks until every issued mutation has completed, making
    /// `tag() == latest_version()`. Benchmarks call this at phase barriers.
    fn wait_writes_complete(&self) {}

    /// Short human-readable name (used by the benchmark tables).
    fn name(&self) -> &'static str;

    /// Operation counters (see [`crate::stats`]). Stores without
    /// instrumentation return zeros.
    fn op_stats(&self) -> crate::stats::OpStats {
        crate::stats::OpStats::default()
    }
}

/// Per-thread operations of a [`VersionedStore`] (paper Table 1).
pub trait StoreSession {
    /// Inserts (or updates) `key → value`, tagging a new snapshot; returns
    /// the assigned version. Every `value` is storable but one:
    /// [`TOMBSTONE`](crate::TOMBSTONE) (`u64::MAX`) is the removal marker.
    ///
    /// # Panics
    /// If `value` is `TOMBSTONE`, in every build, before a version is
    /// issued: stored, it would read back as a remove.
    fn insert(&self, key: u64, value: u64) -> u64;

    /// Removes `key`, tagging a new snapshot; returns the assigned version.
    fn remove(&self, key: u64) -> u64;

    /// Inserts every `(key, value)` pair, tagging one snapshot per pair;
    /// returns the assigned versions in order. Semantically identical to
    /// calling [`StoreSession::insert`] per pair — stores with a batched
    /// write path override this to amortize persist-ordering and watermark
    /// work across the batch (see `PSkipList`). The skip-list stores write
    /// a batch in chunks of 1024 pairs, and a chunk's versions are
    /// contiguous: pair `i` of a chunk gets the chunk's first version + `i`.
    ///
    /// # Panics
    /// If a value is `TOMBSTONE`, as `insert` does. No version is left
    /// incomplete; how many of the pairs before it were inserted is up to
    /// the store (the skip-list stores refuse the batch whole).
    fn insert_batch(&self, pairs: &[Pair]) -> Vec<u64> {
        pairs.iter().map(|&(k, v)| self.insert(k, v)).collect()
    }

    /// Value of `key` in snapshot `version` (`None` if absent or removed).
    fn find(&self, key: u64, version: u64) -> Option<u64>;

    /// Full change history of `key`: `(version, value-or-tombstone)` in
    /// version order.
    fn extract_history(&self, key: u64) -> Vec<HistoryRecord>;

    /// All live `(key, value)` pairs of snapshot `version`, sorted by key.
    /// One walk on the calling thread (paper §V-F: concurrency comes from
    /// concurrent callers, which share nothing).
    fn extract_snapshot(&self, version: u64) -> Vec<Pair>;

    /// Live pairs of snapshot `version` with keys in `[lo, hi)`, sorted.
    /// Implementations with an ordered index override this with a seek;
    /// the default filters a full snapshot. A caller who wants one
    /// extraction spread over cores calls this once per key sub-range, each
    /// from a thread of its own, and concatenates (DESIGN.md §4.9).
    fn extract_range(&self, version: u64, lo: u64, hi: u64) -> Vec<Pair> {
        self.extract_snapshot(version).into_iter().filter(|&(k, _)| lo <= k && k < hi).collect()
    }
}

/// User-labeled snapshots — the explicit-argument form of the paper's
/// `tag(version)` (Table 1). A label is an application-chosen identifier
/// bound to the consistent snapshot current at tag time.
pub trait LabeledTags {
    /// Binds `label` to the newest consistent snapshot; returns its
    /// version. Labels may be re-bound; resolution returns the newest
    /// binding.
    fn tag_labeled(&self, label: u64) -> u64;

    /// The version `label` was last bound to.
    fn resolve_label(&self, label: u64) -> Option<u64>;

    /// All `(label, version)` bindings in tag order.
    fn labels(&self) -> Vec<(u64, u64)>;
}

/// The `(label, version)` bindings behind a native store's
/// [`LabeledTags`], in tag order. PSkipList's is the DRAM copy of its
/// persistent tag chain, extended from the chain rather than bound to.
#[derive(Default)]
pub(crate) struct Labels(mvkv_sync::sync::Mutex<Vec<(u64, u64)>>);

impl Labels {
    pub(crate) fn bind(&self, label: u64, version: u64) {
        self.0.lock().push((label, version));
    }

    /// The newest binding of `label`.
    pub(crate) fn resolve(&self, label: u64) -> Option<u64> {
        self.0.lock().iter().rev().find(|&&(l, _)| l == label).map(|&(_, v)| v)
    }

    pub(crate) fn copy(&self) -> Vec<(u64, u64)> {
        self.0.lock().clone()
    }

    /// Brings the list up to an append-only record of `len` bindings: if it
    /// holds fewer (`held`), appends `newer(held)`, the record's bindings
    /// past those. Under the lock, so two extenders never append one twice.
    pub(crate) fn extend_to<I: Iterator<Item = (u64, u64)>>(
        &self,
        len: u64,
        newer: impl FnOnce(usize) -> I,
    ) {
        let mut list = self.0.lock();
        if (list.len() as u64) < len {
            let held = list.len();
            list.extend(newer(held));
        }
    }
}

/// Snapshot differencing: the keys whose visible state differs between
/// snapshots `v1` and `v2`, each with its state at `v2` (`None` =
/// absent/removed), sorted by key. A sorted merge-walk of the two full
/// snapshots, so it works on every store in O(total keys).
///
/// # Panics
/// If `v1 > v2`.
pub fn delta_by_snapshots<S: StoreSession>(
    session: &S,
    v1: u64,
    v2: u64,
) -> Vec<(u64, Option<u64>)> {
    assert!(v1 <= v2, "delta requires v1 <= v2");
    let a = session.extract_snapshot(v1);
    let b = session.extract_snapshot(v2);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ka, va)), Some(&(kb, vb))) if ka == kb => {
                if va != vb {
                    out.push((kb, Some(vb)));
                }
                i += 1;
                j += 1;
            }
            (Some(&(ka, _)), Some(&(kb, vb))) if kb < ka => {
                out.push((kb, Some(vb)));
                j += 1;
            }
            (Some(&(ka, _)), _) => {
                out.push((ka, None)); // present at v1, gone at v2
                i += 1;
            }
            (None, Some(&(kb, vb))) => {
                out.push((kb, Some(vb)));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}
