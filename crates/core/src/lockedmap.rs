//! LockedMap — the lock-based baseline (paper §V-B).
//!
//! A `Mutex<BTreeMap>` plays the role of the paper's C++ `std::map` (a
//! red-black tree) under a global lock; per-key version histories reuse the
//! same lock-free ephemeral vectors as the skip-list stores. The paper
//! includes this baseline to isolate the impact of the lock-free index from
//! the rest of the design: single-threaded it is the fastest store, under
//! concurrency the lock serializes everything.

use crate::api::{Labels, StoreSession, VersionedStore};
use crate::engine::live_at;
use crate::Pair;
use mvkv_vhistory::{EHistory, History, HistoryRecord, VersionClock, TOMBSTONE};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Lock-based ordered multi-version store.
pub struct LockedMap {
    map: Mutex<BTreeMap<u64, Arc<EHistory>>>,
    clock: VersionClock,
    tags: Labels,
}

impl LockedMap {
    pub fn new() -> Self {
        LockedMap {
            map: Mutex::new(BTreeMap::new()),
            clock: VersionClock::new(),
            tags: Labels::default(),
        }
    }

    fn get_or_create_history(&self, key: u64) -> Arc<EHistory> {
        let mut map = self.map.lock();
        map.entry(key).or_default().clone()
    }

    /// Live pairs of snapshot `version` with keys in `keys`, pre-sized like
    /// the skip-list stores' (only the unbounded snapshot). The lock is held
    /// for the whole tree walk — the naive approach the paper contrasts
    /// against (its §V-F degradation).
    fn live_pairs(&self, version: u64, keys: impl RangeBounds<u64>) -> Vec<Pair> {
        let fc = self.clock.watermark();
        let map = self.map.lock();
        let whole = matches!(keys.end_bound(), Bound::Unbounded);
        let mut out = Vec::with_capacity(if whole { map.len() } else { 0 });
        for (&key, hist) in map.range(keys) {
            if let Some(value) = live_at(History::new(&**hist), version, fc) {
                out.push((key, value));
            }
        }
        out
    }
}

impl Default for LockedMap {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionedStore for LockedMap {
    type Session<'a> = &'a LockedMap;

    fn session(&self) -> &LockedMap {
        self
    }

    fn tag(&self) -> u64 {
        self.clock.watermark()
    }

    fn latest_version(&self) -> u64 {
        self.clock.issued()
    }

    fn key_count(&self) -> u64 {
        self.map.lock().len() as u64
    }

    fn wait_writes_complete(&self) {
        self.clock.wait_all_complete();
    }

    fn name(&self) -> &'static str {
        "LockedMap"
    }
}

impl StoreSession for &LockedMap {
    fn insert(&self, key: u64, value: u64) -> u64 {
        assert_ne!(value, TOMBSTONE, "value reserved for removal marker");
        let hist = self.get_or_create_history(key);
        let version = self.clock.issue();
        History::new(&*hist).append(version, value);
        self.clock.complete(version);
        version
    }

    fn remove(&self, key: u64) -> u64 {
        let hist = self.get_or_create_history(key);
        let version = self.clock.issue();
        History::new(&*hist).append_tombstone(version);
        self.clock.complete(version);
        version
    }

    fn find(&self, key: u64, version: u64) -> Option<u64> {
        let hist = self.map.lock().get(&key).cloned()?;
        History::new(&*hist).find(version, self.clock.watermark())
    }

    fn extract_history(&self, key: u64) -> Vec<HistoryRecord> {
        match self.map.lock().get(&key).cloned() {
            Some(h) => History::new(&*h).records(self.clock.watermark()),
            None => Vec::new(),
        }
    }

    fn extract_snapshot(&self, version: u64) -> Vec<Pair> {
        self.live_pairs(version, ..)
    }

    fn extract_range(&self, version: u64, lo: u64, hi: u64) -> Vec<Pair> {
        self.live_pairs(version, lo..hi)
    }
}

impl crate::api::LabeledTags for LockedMap {
    fn tag_labeled(&self, label: u64) -> u64 {
        let version = self.clock.watermark();
        self.tags.bind(label, version);
        version
    }

    fn resolve_label(&self, label: u64) -> Option<u64> {
        self.tags.resolve(label)
    }

    fn labels(&self) -> Vec<(u64, u64)> {
        self.tags.copy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_semantics() {
        let store = LockedMap::new();
        let s = store.session();
        let v1 = s.insert(3, 30);
        let v2 = s.remove(3);
        let v3 = s.insert(3, 31);
        assert_eq!(s.find(3, v1), Some(30));
        assert_eq!(s.find(3, v2), None);
        assert_eq!(s.find(3, v3), Some(31));
        assert_eq!(store.key_count(), 1);
        assert_eq!(
            s.extract_history(3),
            vec![
                HistoryRecord { version: v1, value: Some(30) },
                HistoryRecord { version: v2, value: None },
                HistoryRecord { version: v3, value: Some(31) },
            ]
        );
    }

    #[test]
    fn snapshot_sorted() {
        let store = LockedMap::new();
        let s = store.session();
        for k in [9u64, 2, 7, 4] {
            s.insert(k, k * 2);
        }
        let snap = s.extract_snapshot(store.tag());
        assert_eq!(snap, vec![(2, 4), (4, 8), (7, 14), (9, 18)]);
    }

    #[test]
    fn concurrent_writers_are_serialized_but_correct() {
        let store = std::sync::Arc::new(LockedMap::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let s = store.session();
                    for i in 0..500u64 {
                        s.insert(t * 1000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        store.wait_writes_complete();
        assert_eq!(store.key_count(), 4000);
        assert_eq!(store.tag(), 4000);
        let snap = store.session().extract_snapshot(store.tag());
        assert_eq!(snap.len(), 4000);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
