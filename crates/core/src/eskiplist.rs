//! ESkipList — the fully ephemeral variant (paper §V-B).
//!
//! Identical algorithms to [`crate::PSkipList`] — both are the one
//! [`Engine`] — but every history lives on the heap ([`HeapHome`]). The
//! paper uses it as the upper bound to measure how much performance the
//! persistence support costs.

use crate::api::VersionedStore;
use crate::engine::{Engine, Home};
use mvkv_skiplist::SkipList;
use mvkv_vhistory::{EHistory, History, VersionClock};

/// Ephemeral lock-free multi-version store.
pub type ESkipList = Engine<u64, HeapHome>;

/// The heap home: a key's payload is a leaked `Box<EHistory>`, freed when
/// the store drops. Nothing is logged and nothing is fenced.
#[derive(Default)]
pub struct HeapHome {
    /// `(label, version)` bindings for [`crate::LabeledTags`] on
    /// [`ESkipList`].
    tags: parking_lot::Mutex<Vec<(u64, u64)>>,
}

impl<K> Home<K> for HeapHome {
    type Slots<'a> = &'a EHistory;
    type Logged = ();
    const NAME: &'static str = "ESkipList";

    #[inline]
    fn logged(_: &K) {}

    #[inline]
    fn create(&self) -> u64 {
        Box::into_raw(Box::new(EHistory::new())) as u64
    }

    #[inline]
    fn history(&self, payload: u64) -> History<&EHistory> {
        // SAFETY: payloads are exclusively `Box<EHistory>` raw pointers made
        // by `create`, and the only frees are `discard` of a payload that
        // never became reachable and `close`, which has the store by `&mut`.
        History::new(unsafe { &*(payload as *const EHistory) })
    }

    #[inline]
    fn discard(&self, payload: u64) {
        // SAFETY: `payload` came from `create` and no reader can reach it
        // (never indexed, or the store is being dropped): sole owner.
        drop(unsafe { Box::from_raw(payload as *mut EHistory) });
    }

    #[inline]
    fn key_linked(&self, (): (), _: u64) {}

    #[inline]
    fn mutated(&self, (): (), _: u64) {}

    #[inline]
    fn batch_fence(&self) {}

    fn close(&mut self, payloads: impl Iterator<Item = u64>) {
        // Exclusive access in drop, and each indexed payload is a distinct
        // Box from `create`: every one meets `discard`'s condition.
        payloads.for_each(|payload| Home::<K>::discard(self, payload));
    }
}

impl<K: Ord> Engine<K, HeapHome> {
    pub fn new() -> Self {
        Engine::assemble(SkipList::new(), VersionClock::new(), HeapHome::default())
    }
}

impl<K: Ord> Default for Engine<K, HeapHome> {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::api::LabeledTags for ESkipList {
    fn tag_labeled(&self, label: u64) -> u64 {
        let version = self.tag();
        self.home.tags.lock().push((label, version));
        version
    }

    fn resolve_label(&self, label: u64) -> Option<u64> {
        self.home.tags.lock().iter().rev().find(|&&(l, _)| l == label).map(|&(_, v)| v)
    }

    fn labels(&self) -> Vec<(u64, u64)> {
        self.home.tags.lock().clone()
    }
}

impl crate::api::DeltaExtract for ESkipList {
    fn extract_delta(&self, v1: u64, v2: u64) -> Vec<(u64, Option<u64>)> {
        assert!(v1 <= v2, "delta requires v1 <= v2");
        crate::api::delta_by_snapshots(&self.session(), v1, v2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoryRecord, StoreSession};

    #[test]
    fn history_records() {
        let store = ESkipList::new();
        let s = store.session();
        s.insert(7, 70);
        s.remove(7);
        s.insert(7, 71);
        let recs = s.extract_history(7);
        assert_eq!(
            recs,
            vec![
                HistoryRecord { version: 1, value: Some(70) },
                HistoryRecord { version: 2, value: None },
                HistoryRecord { version: 3, value: Some(71) },
            ]
        );
        assert!(s.extract_history(1234).is_empty());
    }

    #[test]
    fn queries_race_safely_with_writers() {
        let store = std::sync::Arc::new(ESkipList::new());
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                let s = store.session();
                for i in 0..20_000u64 {
                    s.insert(i, i + 1);
                }
            })
        };
        let reader = {
            let store = store.clone();
            std::thread::spawn(move || {
                let s = store.session();
                for _ in 0..200 {
                    let v = store.tag();
                    let snap = s.extract_snapshot(v);
                    // Every pair in a consistent snapshot obeys value = key+1.
                    for (k, val) in snap {
                        assert_eq!(val, k + 1);
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }
}
