//! Property-based semantics test: random interleavings of
//! insert / remove / tag / find / extract_snapshot against a
//! BTreeMap-per-version reference model.
//!
//! The model keeps the *complete* map state at every version, so any query
//! at any historical version has an exact expected answer. Queries are
//! interleaved with mutations (not just run at the end), which exercises
//! reads against a store whose histories are still growing.
//!
//! Case count: 256 by default (`PROPTEST_CASES` raises it).

use mvkv_core::api::LabeledTags;
use mvkv_core::{PSkipList, StoreSession, VersionedStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    /// `tag_labeled(label)` — names the current watermark.
    Tag(u64),
    /// Point query at one of the versions seen so far (selector is reduced
    /// modulo the number of versions at execution time).
    Find(u64, u64),
    /// Full snapshot at a seen version.
    Snapshot(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..key_space, 0u64..(1 << 40)).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0..key_space).prop_map(Op::Remove),
        1 => (0u64..8).prop_map(Op::Tag),
        3 => (0..key_space, 0u64..u64::MAX).prop_map(|(k, s)| Op::Find(k, s)),
        1 => (0u64..u64::MAX).prop_map(Op::Snapshot),
    ]
}

/// Reference model: the full map state at every version ever tagged.
struct Model {
    /// `states[v]` is the live map as of version `v`; index 0 is the empty
    /// pre-insert store.
    states: Vec<BTreeMap<u64, u64>>,
    /// label → version, last write wins (mirrors `resolve_label`).
    labels: BTreeMap<u64, u64>,
}

impl Model {
    fn new() -> Model {
        Model { states: vec![BTreeMap::new()], labels: BTreeMap::new() }
    }

    fn latest(&self) -> u64 {
        (self.states.len() - 1) as u64
    }

    fn mutate(&mut self, f: impl FnOnce(&mut BTreeMap<u64, u64>)) -> u64 {
        let mut next = self.states.last().unwrap().clone();
        f(&mut next);
        self.states.push(next);
        self.latest()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn interleaved_ops_match_versioned_model(
        script in proptest::collection::vec(op_strategy(24), 1..120)
    ) {
        let store = PSkipList::create_volatile(32 << 20).unwrap();
        let session = store.session();
        let mut model = Model::new();

        for op in &script {
            match *op {
                Op::Insert(k, v) => {
                    let got = session.insert(k, v);
                    let want = model.mutate(|m| { m.insert(k, v); });
                    prop_assert_eq!(got, want, "insert version");
                }
                Op::Remove(k) => {
                    let got = session.remove(k);
                    let want = model.mutate(|m| { m.remove(&k); });
                    prop_assert_eq!(got, want, "remove version");
                }
                Op::Tag(label) => {
                    let got = store.tag_labeled(label);
                    prop_assert_eq!(got, model.latest(), "tagged watermark");
                    model.labels.insert(label, model.latest());
                }
                Op::Find(k, sel) => {
                    let v = sel % (model.latest() + 1);
                    let want = model.states[v as usize].get(&k).copied();
                    prop_assert_eq!(session.find(k, v), want, "find at v={}", v);
                }
                Op::Snapshot(sel) => {
                    let v = sel % (model.latest() + 1);
                    let want: Vec<(u64, u64)> =
                        model.states[v as usize].iter().map(|(&k, &val)| (k, val)).collect();
                    prop_assert_eq!(session.extract_snapshot(v), want, "snapshot at v={}", v);
                }
            }
            // The watermark tracks the model's version count at every step
            // (single-threaded, so no in-flight mutations).
            prop_assert_eq!(store.tag(), model.latest());
        }

        // Labels resolve to the version they named, regardless of what was
        // tagged afterwards.
        for (&label, &version) in &model.labels {
            prop_assert_eq!(store.resolve_label(label), Some(version));
        }

        // Final full-state agreement at every version (cheap: scripts are
        // short), including the empty pre-insert version 0 — of the eager
        // extraction and of the lazy scan over the same walk.
        for (v, state) in model.states.iter().enumerate() {
            let want: Vec<(u64, u64)> = state.iter().map(|(&k, &val)| (k, val)).collect();
            let scanned: Vec<(u64, u64)> = store.scan(v as u64, 0).collect();
            prop_assert_eq!(&scanned, &want, "final sweep scan v={}", v);
            prop_assert_eq!(session.extract_snapshot(v as u64), want, "final sweep v={}", v);
        }
    }
}
