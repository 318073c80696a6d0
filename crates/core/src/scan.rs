//! Lazy snapshot range scans over the live index.
//!
//! [`extract_range`](crate::StoreSession::extract_range) materializes the whole window into a `Vec`
//! before the caller sees the first pair — the right shape for bulk
//! extraction (it parallelizes), the wrong one for YCSB-E-style short scans
//! ("seek, read the next ~50 live pairs, stop"), which would pay allocation
//! and full-window history resolution for a handful of results.
//!
//! [`SnapshotScan`] is the iterator form: one O(log n) skip-list seek at
//! construction, then one version-history resolution per yielded pair,
//! stopping as soon as the caller does. It holds no locks and allocates
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
    iter: mvkv_skiplist::Iter<'a, u64>,
    version: u64,
    /// Watermark frozen at construction: the consistency frontier every
    /// history lookup of this scan resolves against.
    fc: u64,
    /// Exclusive upper key bound (`None` = unbounded).
    hi: Option<u64>,
    done: bool,
}

impl<'a, H: Home<u64>> SnapshotScan<'a, H> {
    fn new(store: &'a Engine<u64, H>, version: u64, lo: u64, hi: Option<u64>) -> Self {
        mvkv_obs::counter_inc!("mvkv_core_scan_total");
        // The guard times the O(log n) index seek below (dropped on return).
        mvkv_obs::span!("mvkv_core_scan_seek_ns");
        let fc = store.clock.watermark();
        SnapshotScan { store, iter: store.index.range_from(&lo), version, fc, hi, done: false }
    }

    /// The snapshot version this scan resolves against (clamped to the
    /// watermark captured at construction).
    pub fn version(&self) -> u64 {
        self.version.min(self.fc)
    }
}

impl<H: Home<u64>> Iterator for SnapshotScan<'_, H> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        if self.done {
            return None;
        }
        loop {
            let Some((&key, hist)) = self.iter.next() else {
                self.done = true;
                return None;
            };
            if self.hi.is_some_and(|h| key >= h) {
                self.done = true;
                return None;
            }
            // Keys unborn at this version, or tombstoned, are not live.
            if let Some(value) = self.store.live_value(hist, self.version, self.fc) {
                return Some((key, value));
            }
        }
    }
}

impl<H: Home<u64>> std::iter::FusedIterator for SnapshotScan<'_, H> {}

impl<H: Home<u64>> Engine<u64, H> {
    /// Lazily scans the live pairs of snapshot `version` with keys `>= lo`,
    /// in key order. Stop by dropping the iterator (e.g. `.take(n)`); each
    /// yielded pair costs one history resolution.
    pub fn scan(&self, version: u64, lo: u64) -> SnapshotScan<'_, H> {
        SnapshotScan::new(self, version, lo, None)
    }

    /// [`scan`](Self::scan) bounded to keys in `[lo, hi)` — the lazy
    /// equivalent of [`extract_range`](crate::StoreSession::extract_range).
    pub fn scan_range(&self, version: u64, lo: u64, hi: u64) -> SnapshotScan<'_, H> {
        SnapshotScan::new(self, version, lo, Some(hi))
    }
}
