//! Property-based semantics test: random interleavings of
//! insert / remove / tag / find / extract_snapshot against the reference
//! model (`mvkv_workload::Model`).
//!
//! The model keeps every key's whole history, so any query at any historical
//! version has an exact expected answer. Queries are interleaved with
//! mutations (not just run at the end), which exercises reads against a
//! store whose histories are still growing.
//!
//! Case count: 256 by default (`PROPTEST_CASES` raises it).

use mvkv_core::api::LabeledTags;
use mvkv_core::{PSkipList, StoreSession, VersionedStore};
use mvkv_workload::{MixOp, Model};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// An insert, a remove or a `tag_labeled(label)` (which names the
    /// current watermark): the store must return the model's version.
    Mix(MixOp),
    /// Point query at one of the versions seen so far (selector is reduced
    /// modulo the number of versions at execution time).
    Find(u64, u64),
    /// Full snapshot at a seen version.
    Snapshot(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..key_space, 0u64..(1 << 40))
            .prop_map(|(key, value)| Op::Mix(MixOp::Insert { key, value })),
        1 => (0..key_space).prop_map(|key| Op::Mix(MixOp::Remove { key })),
        1 => (0u64..8).prop_map(|label| Op::Mix(MixOp::Tag { label })),
        3 => (0..key_space, 0u64..u64::MAX).prop_map(|(k, s)| Op::Find(k, s)),
        1 => (0u64..u64::MAX).prop_map(Op::Snapshot),
    ]
}

proptest! {
    #[test]
    fn interleaved_ops_match_versioned_model(
        script in proptest::collection::vec(op_strategy(24), 1..120)
    ) {
        let store = PSkipList::create_volatile(32 << 20).unwrap();
        let session = store.session();
        let mut model = Model::new();

        for op in &script {
            match *op {
                Op::Mix(mix) => {
                    let got = match mix {
                        MixOp::Insert { key, value } => session.insert(key, value),
                        MixOp::Remove { key } => session.remove(key),
                        MixOp::Tag { label } => store.tag_labeled(label),
                        _ => unreachable!("op_strategy draws no {:?}", mix),
                    };
                    prop_assert_eq!(Some(got), model.apply(&mix), "version of {:?}", mix);
                }
                Op::Find(k, sel) => {
                    let v = sel % (model.version() + 1);
                    prop_assert_eq!(session.find(k, v), model.find(k, v), "find at v={}", v);
                }
                Op::Snapshot(sel) => {
                    let v = sel % (model.version() + 1);
                    let want = model.snapshot(v);
                    prop_assert_eq!(session.extract_snapshot(v), want, "snapshot at v={}", v);
                }
            }
            // The watermark tracks the model's version count at every step
            // (single-threaded, so no in-flight mutations).
            prop_assert_eq!(store.tag(), model.version());
        }

        // Labels resolve to the version they named, regardless of what was
        // tagged afterwards.
        for (&label, &version) in model.labels() {
            prop_assert_eq!(store.resolve_label(label), Some(version));
        }

        // Final full-state agreement at every version (cheap: scripts are
        // short), including the empty pre-insert version 0 — of the eager
        // extraction and of the lazy scan over the same walk.
        for v in 0..=model.version() {
            let want = model.snapshot(v);
            let scanned: Vec<(u64, u64)> = store.scan(v, 0).collect();
            prop_assert_eq!(&scanned, &want, "final sweep scan v={}", v);
            prop_assert_eq!(session.extract_snapshot(v), want, "final sweep v={}", v);
        }
    }
}
