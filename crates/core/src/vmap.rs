//! [`VersionedMap<K, V>`] — the multi-version ordered dictionary for
//! arbitrary ordered keys and arbitrary values.
//!
//! The paper's store is specialized to 64-bit integers (its evaluation
//! workloads, §V-C); a drop-in `std::map` replacement — the paper's §II
//! framing — needs generic keys and values. This ephemeral container is the
//! heap instantiation of the one store [`Engine`] (lock-free skip-list
//! index, lazy-tail histories, completion watermark) over any `K: Ord`; all
//! it adds is the value encoding: a value is boxed and the engine stores
//! the box's address as its word. Values are handed out by reference (they
//! are immutable once published and live as long as the map).
//!
//! Same concurrency contract as the word stores: mutations of distinct
//! keys are lock-free from any number of threads; mutations of one key
//! must be externally ordered; queries are always safe.

use crate::engine::{Engine, Home};
use crate::eskiplist::HeapHome;

/// A multi-versioning ordered map from `K` to `V`.
///
/// # Examples
///
/// ```
/// use mvkv_core::VersionedMap;
///
/// let map: VersionedMap<String, Vec<f32>> = VersionedMap::new();
/// let v1 = map.insert("conv1".into(), vec![0.1, 0.2]);
/// map.insert("conv1".into(), vec![0.3, 0.4]); // new version
/// assert_eq!(map.find(&"conv1".into(), v1), Some(&vec![0.1, 0.2]));
/// assert_eq!(map.find(&"conv1".into(), map.tag()), Some(&vec![0.3, 0.4]));
/// ```
pub struct VersionedMap<K, V> {
    /// Stored words are leaked `Box<V>` pointers (reclaimed in `Drop`).
    engine: Engine<K, HeapHome>,
    _values: std::marker::PhantomData<V>,
}

impl<K: Ord, V> VersionedMap<K, V> {
    pub fn new() -> Self {
        VersionedMap { engine: Engine::new(), _values: std::marker::PhantomData }
    }

    fn decode(&self, handle: u64) -> &V {
        // SAFETY: the engine only surfaces non-tombstone words, and those
        // are leaked `Box<V>` pointers that live until the map drops;
        // published via Release in the history.
        unsafe { &*(handle as *const V) }
    }

    /// Inserts `key → value`, tagging a new snapshot; returns its version.
    pub fn insert(&self, key: K, value: V) -> u64 {
        self.engine.put(key, Box::into_raw(Box::new(value)) as u64)
    }

    /// Removes `key`, tagging a new snapshot; returns its version.
    pub fn remove(&self, key: K) -> u64 {
        self.engine.delete(key)
    }

    /// The value of `key` in snapshot `version`.
    pub fn find(&self, key: &K, version: u64) -> Option<&V> {
        self.engine.get(key, version).map(|handle| self.decode(handle))
    }

    /// All live `(key, value)` pairs of snapshot `version`, in key order.
    pub fn extract_snapshot(&self, version: u64) -> Vec<(&K, &V)> {
        self.engine.extract(version, None, None, |key, handle| (key, self.decode(handle)))
    }

    /// Live pairs of snapshot `version` with keys in `[lo, hi)`.
    pub fn extract_range(&self, version: u64, lo: &K, hi: &K) -> Vec<(&K, &V)> {
        self.engine.extract(version, Some(lo), Some(hi), |key, handle| (key, self.decode(handle)))
    }

    /// The change history of `key`: `(version, Some(&value) | None)`.
    pub fn extract_history(&self, key: &K) -> Vec<(u64, Option<&V>)> {
        let records = self.engine.records(key).into_iter();
        records.map(|r| (r.version, r.value.map(|handle| self.decode(handle)))).collect()
    }

    /// Newest consistent snapshot id.
    pub fn tag(&self) -> u64 {
        self.engine.clock.watermark()
    }

    /// Number of distinct keys ever inserted.
    pub fn key_count(&self) -> u64 {
        self.engine.index.len()
    }

    /// Blocks until all issued mutations are visible.
    pub fn wait_writes_complete(&self) {
        self.engine.clock.wait_all_complete();
    }
}

impl<K: Ord, V> Default for VersionedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for VersionedMap<K, V> {
    fn drop(&mut self) {
        // Reclaim every value handle; the engine then frees the histories.
        for (_, hist) in self.engine.index.iter() {
            for record in Home::<K>::history(&self.engine.home, hist).records(u64::MAX) {
                if let Some(handle) = record.value {
                    // SAFETY: a non-tombstone word is a Box leaked by
                    // `insert`; drop has exclusive access and visits each
                    // slot once, so no double-free.
                    drop(unsafe { Box::from_raw(handle as *mut V) });
                }
            }
        }
    }
}

// SAFETY: the map shares only atomics and published (immutable) boxes.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for VersionedMap<K, V> {}
// SAFETY: same reasoning as Send — all shared access goes through atomics.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for VersionedMap<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_keys_struct_values() {
        #[derive(Debug, PartialEq)]
        struct Tensor {
            shape: Vec<usize>,
            checksum: u64,
        }
        let map: VersionedMap<String, Tensor> = VersionedMap::new();
        let v1 = map.insert("conv1".into(), Tensor { shape: vec![64, 3, 7, 7], checksum: 1 });
        map.insert("fc".into(), Tensor { shape: vec![1000, 512], checksum: 2 });
        let v3 = map.insert("conv1".into(), Tensor { shape: vec![64, 3, 7, 7], checksum: 3 });

        assert_eq!(map.find(&"conv1".into(), v1).unwrap().checksum, 1);
        assert_eq!(map.find(&"conv1".into(), v3).unwrap().checksum, 3);
        assert_eq!(map.find(&"missing".into(), v3), None);

        let snap = map.extract_snapshot(map.tag());
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["conv1", "fc"], "ordered iteration");
    }

    #[test]
    fn tombstones_and_history() {
        let map: VersionedMap<u32, &'static str> = VersionedMap::new();
        map.insert(1, "a");
        map.remove(1);
        map.insert(1, "b");
        let hist = map.extract_history(&1);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].1, Some(&"a"));
        assert_eq!(hist[1].1, None);
        assert_eq!(hist[2].1, Some(&"b"));
        assert_eq!(map.find(&1, 2), None);
        assert!(map.extract_history(&99).is_empty());
    }

    #[test]
    fn range_queries() {
        let map: VersionedMap<String, u32> = VersionedMap::new();
        for name in ["apple", "banana", "cherry", "date", "elderberry"] {
            map.insert(name.into(), name.len() as u32);
        }
        let v = map.tag();
        let mid = map.extract_range(v, &"b".into(), &"d".into());
        let names: Vec<&str> = mid.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["banana", "cherry"]);
    }

    #[test]
    fn drop_reclaims_all_values() {
        // Heap-heavy values; failure mode would be a leak (caught by
        // sanitizers) or a double free (caught by the allocator).
        let map: VersionedMap<u64, String> = VersionedMap::new();
        for i in 0..10_000u64 {
            map.insert(i % 100, format!("value-{i}"));
        }
        for i in 0..50u64 {
            map.remove(i);
        }
        drop(map);
    }

    #[test]
    fn snapshot_isolation_under_writer() {
        let map: std::sync::Arc<VersionedMap<u64, u64>> = std::sync::Arc::new(VersionedMap::new());
        for i in 0..1000 {
            map.insert(i, i * 2);
        }
        let cut = map.tag();
        let m2 = map.clone();
        let writer = std::thread::spawn(move || {
            for i in 0..1000 {
                m2.insert(i, 0);
            }
        });
        // Reads at the cut never see the overwrites.
        for _ in 0..20 {
            let snap = map.extract_snapshot(cut);
            assert_eq!(snap.len(), 1000);
            for (&k, &v) in &snap {
                assert_eq!(v, k * 2);
            }
        }
        writer.join().unwrap();
    }
}
