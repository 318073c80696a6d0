//! Shared test infrastructure: the store side of the reference model
//! (`mvkv::workload::Model`) — one executor for a `MixOp`, a script driver,
//! the agreement check and the scripts themselves.
//!
//! Compiled separately into every integration-test binary, so not every
//! binary uses every helper.
#![allow(dead_code)]

use mvkv::core::{StoreSession, VersionedStore};
use mvkv::workload::{rmw_value, MixOp, Model};
use std::hint::black_box;

/// Runs `check` on a fresh store of each skip-list engine instantiation.
#[allow(unused_macros)]
macro_rules! on_both_stores {
    ($check:ident) => {{
        $check(mvkv::core::PSkipList::create_volatile(64 << 20).unwrap());
        $check(mvkv::core::ESkipList::new());
    }};
}
#[allow(unused_imports)]
pub(crate) use on_both_stores;

/// Runs `op` on `store` through `session` and returns the version a write
/// got, `None` for a read. Reads and RMWs read at `store.tag()`. A scan or
/// a tag needs an `Engine`: `tests/scenario_replay.rs` runs those.
pub fn run<S: VersionedStore>(store: &S, session: &S::Session<'_>, op: &MixOp) -> Option<u64> {
    Some(match *op {
        MixOp::Insert { key, value } | MixOp::Update { key, value } => session.insert(key, value),
        MixOp::Rmw { key, delta } => {
            session.insert(key, rmw_value(session.find(key, store.tag()), delta))
        }
        MixOp::Remove { key } => session.remove(key),
        MixOp::Read { key } => {
            black_box(session.find(key, store.tag()));
            return None;
        }
        MixOp::Scan { .. } | MixOp::Tag { .. } => unreachable!("{op:?} needs an Engine"),
    })
}

/// Applies a script to a store (sequentially) and the model in lockstep,
/// asserting version agreement.
pub fn apply_script<S: VersionedStore>(store: &S, model: &mut Model, script: &[MixOp]) {
    let session = store.session();
    for op in script {
        let (got, want) = (run(store, &session, op), model.apply(op));
        assert_eq!(got, want, "version of {op:?} ({})", store.name());
    }
    store.wait_writes_complete();
}

/// Asserts a store agrees with the model on finds, histories and
/// snapshots at every version in `probe_versions` for all `keys`.
pub fn assert_agrees<S: VersionedStore>(
    store: &S,
    model: &Model,
    keys: &[u64],
    probe_versions: &[u64],
) {
    let session = store.session();
    for &v in probe_versions {
        for &k in keys {
            assert_eq!(
                session.find(k, v),
                model.find(k, v),
                "find({k}, {v}) disagreement ({})",
                store.name()
            );
        }
        assert_eq!(
            session.extract_snapshot(v),
            model.snapshot(v),
            "snapshot({v}) disagreement ({})",
            store.name()
        );
    }
    for &k in keys {
        let got: Vec<(u64, Option<u64>)> =
            session.extract_history(k).into_iter().map(|r| (r.version, r.value)).collect();
        assert_eq!(got, model.history(k), "history({k}) disagreement ({})", store.name());
    }
}

/// Every key in `keys`, sorted, once each.
pub fn keys_of(keys: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = keys.into_iter().collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Deterministic pseudo-random script over a bounded key space: 3 inserts
/// to 1 remove.
pub fn random_script(len: usize, key_space: u64, seed: u64) -> Vec<MixOp> {
    let mut rng = mvkv::workload::Mt19937_64::new(seed);
    (0..len)
        .map(|_| {
            let key = rng.next_below(key_space);
            if rng.next_below(4) == 0 {
                MixOp::Remove { key }
            } else {
                MixOp::Insert { key, value: rng.next_below(1 << 40) }
            }
        })
        .collect()
}
