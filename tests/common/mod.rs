//! Shared test infrastructure: a trivially correct versioned-store oracle
//! and workload drivers used by the integration suites.
//!
//! Compiled separately into every integration-test binary, so not every
//! binary uses every helper.
#![allow(dead_code)]

use mvkv::core::{StoreSession, VersionedStore};
use std::collections::BTreeMap;

/// Reference model: per-key list of `(version, Option<value>)` changes.
#[derive(Default, Clone)]
pub struct Oracle {
    histories: BTreeMap<u64, Vec<(u64, Option<u64>)>>,
    next_version: u64,
}

impl Oracle {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, key: u64, value: u64) -> u64 {
        self.next_version += 1;
        self.histories.entry(key).or_default().push((self.next_version, Some(value)));
        self.next_version
    }

    pub fn remove(&mut self, key: u64) -> u64 {
        self.next_version += 1;
        self.histories.entry(key).or_default().push((self.next_version, None));
        self.next_version
    }

    pub fn version(&self) -> u64 {
        self.next_version
    }

    pub fn find(&self, key: u64, version: u64) -> Option<u64> {
        let h = self.histories.get(&key)?;
        h.iter().rev().find(|&&(v, _)| v <= version).and_then(|&(_, val)| val)
    }

    pub fn history(&self, key: u64) -> Vec<(u64, Option<u64>)> {
        self.histories.get(&key).cloned().unwrap_or_default()
    }

    pub fn snapshot(&self, version: u64) -> Vec<(u64, u64)> {
        self.histories
            .iter()
            .filter_map(|(&k, _)| self.find(k, version).map(|v| (k, v)))
            .collect()
    }
}

/// One scripted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(u64, u64),
    Remove(u64),
}

/// Applies a script to a store (sequentially) and the oracle in lockstep,
/// asserting version agreement.
pub fn apply_script<S: VersionedStore>(store: &S, oracle: &mut Oracle, script: &[Op]) {
    let session = store.session();
    for &op in script {
        let (sv, ov) = match op {
            Op::Insert(k, v) => (session.insert(k, v), oracle.insert(k, v)),
            Op::Remove(k) => (session.remove(k), oracle.remove(k)),
        };
        assert_eq!(sv, ov, "version mismatch on {op:?} ({})", store.name());
    }
    store.wait_writes_complete();
}

/// Asserts a store agrees with the oracle on finds, histories and
/// snapshots at every version in `probe_versions` for all `keys`.
pub fn assert_agrees<S: VersionedStore>(
    store: &S,
    oracle: &Oracle,
    keys: &[u64],
    probe_versions: &[u64],
) {
    let session = store.session();
    for &v in probe_versions {
        for &k in keys {
            assert_eq!(
                session.find(k, v),
                oracle.find(k, v),
                "find({k}, {v}) disagreement ({})",
                store.name()
            );
        }
        assert_eq!(
            session.extract_snapshot(v),
            oracle.snapshot(v),
            "snapshot({v}) disagreement ({})",
            store.name()
        );
    }
    for &k in keys {
        let got: Vec<(u64, Option<u64>)> =
            session.extract_history(k).into_iter().map(|r| (r.version, r.value)).collect();
        assert_eq!(got, oracle.history(k), "history({k}) disagreement ({})", store.name());
    }
}

/// Deterministic pseudo-random op script over a bounded key space.
pub fn random_script(len: usize, key_space: u64, seed: u64) -> Vec<Op> {
    let mut rng = mvkv::workload::Mt19937_64::new(seed);
    (0..len)
        .map(|_| {
            let key = rng.next_below(key_space);
            if rng.next_below(4) == 0 {
                Op::Remove(key)
            } else {
                Op::Insert(key, rng.next_below(1 << 40))
            }
        })
        .collect()
}

/// `VersionedMap<u64, u64>` behind the store API, so the suites that are
/// generic over [`VersionedStore`] take the map as one more store. The map
/// is the third instantiation of the store engine (heap home, boxed
/// values); the adapter only copies values out of the references it returns.
#[derive(Default)]
pub struct MapStore(mvkv::core::VersionedMap<u64, u64>);

impl VersionedStore for MapStore {
    type Session<'a> = &'a MapStore;

    fn session(&self) -> &MapStore {
        self
    }

    fn tag(&self) -> u64 {
        self.0.tag()
    }

    /// The map does not expose its issue counter; the suites read this only
    /// after `wait_writes_complete`, when it equals the tag.
    fn latest_version(&self) -> u64 {
        self.0.tag()
    }

    fn key_count(&self) -> u64 {
        self.0.key_count()
    }

    fn wait_writes_complete(&self) {
        self.0.wait_writes_complete();
    }

    fn name(&self) -> &'static str {
        "VersionedMap"
    }
}

impl StoreSession for &MapStore {
    fn insert(&self, key: u64, value: u64) -> u64 {
        self.0.insert(key, value)
    }

    fn remove(&self, key: u64) -> u64 {
        self.0.remove(key)
    }

    fn find(&self, key: u64, version: u64) -> Option<u64> {
        self.0.find(&key, version).copied()
    }

    fn extract_history(&self, key: u64) -> Vec<mvkv::core::HistoryRecord> {
        let records = self.0.extract_history(&key).into_iter();
        records
            .map(|(version, value)| mvkv::core::HistoryRecord { version, value: value.copied() })
            .collect()
    }

    fn extract_snapshot(&self, version: u64) -> Vec<(u64, u64)> {
        self.0.extract_snapshot(version).into_iter().map(|(&k, &v)| (k, v)).collect()
    }

    fn extract_range(&self, version: u64, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.0.extract_range(version, &lo, &hi).into_iter().map(|(&k, &v)| (k, v)).collect()
    }
}
