//! Lazy snapshot range scans over the live index.
//!
//! [`extract_range`](crate::StoreSession::extract_range) materializes the whole window into a `Vec`
//! before the caller sees the first pair — the right shape for bulk
//! extraction, the wrong one for YCSB-E-style short scans ("seek, read the
//! next ~50 live pairs, stop"), which would pay allocation and full-window
//! history resolution for a handful of results.
//!
//! [`SnapshotScan`] is the same walk (`Engine::next_live`) handed out one
//! step at a time: one O(log n) skip-list seek at construction, then one
//! version-history resolution per key passed, stopping as soon as the
//! caller does. It holds no locks and allocates
//! nothing; the watermark is captured once at construction, so one scan
//! observes one consistent snapshot (the same freeze rule as `find` and
//! `extract_range` — a version beyond the watermark answers as of the
//! watermark). Tombstoned keys are skipped, never yielded.
//!
//! Concurrent inserts may or may not be observed depending on where the
//! cursor is — exactly the index-walk semantics `extract_range` has — but
//! values are always resolved at the frozen snapshot, so a scan never sees
//! a half-published version.

use crate::engine::{Engine, Home};
use crate::Pair;

/// A lazy ordered scan of the live pairs of one snapshot. Created by
/// [`Engine::scan`] / [`Engine::scan_range`] of any word-keyed store.
pub struct SnapshotScan<'a, H: Home<u64>> {
    store: &'a Engine<u64, H>,
    iter: mvkv_skiplist::Iter<'a, u64, H::Payload>,
    version: u64,
    /// Watermark frozen at construction: the consistency frontier every
    /// history lookup of this scan resolves against.
    fc: u64,
    /// Exclusive upper key bound (`None` = unbounded).
    hi: Option<u64>,
}

impl<H: Home<u64>> SnapshotScan<'_, H> {
    /// The snapshot version this scan resolves against (clamped to the
    /// watermark captured at construction).
    pub fn version(&self) -> u64 {
        self.version.min(self.fc)
    }
}

impl<H: Home<u64>> Iterator for SnapshotScan<'_, H> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        let live = self.store.next_live(&mut self.iter, self.hi.as_ref(), self.version, self.fc);
        live.map(|(&key, value)| (key, value))
    }
}

impl<H: Home<u64>> std::iter::FusedIterator for SnapshotScan<'_, H> {}

impl<H: Home<u64>> Engine<u64, H> {
    /// Lazily scans the live pairs of snapshot `version` with keys `>= lo`,
    /// in key order. Stop by dropping the iterator (e.g. `.take(n)`); each
    /// yielded pair costs one history resolution.
    pub fn scan(&self, version: u64, lo: u64) -> SnapshotScan<'_, H> {
        mvkv_obs::counter_inc!("mvkv_core_scan_total");
        // The guard times the O(log n) index seek below (dropped on return).
        mvkv_obs::span!("mvkv_core_scan_seek_ns");
        let fc = self.clock.watermark();
        SnapshotScan { store: self, iter: self.index.range_from(&lo), version, fc, hi: None }
    }

    /// [`scan`](Self::scan) bounded to keys in `[lo, hi)` — the lazy
    /// equivalent of [`extract_range`](crate::StoreSession::extract_range).
    pub fn scan_range(&self, version: u64, lo: u64, hi: u64) -> SnapshotScan<'_, H> {
        SnapshotScan { hi: Some(hi), ..self.scan(version, lo) }
    }
}
