//! Integration tests for the extension features: labeled tags, range
//! extraction, delta extraction, and compaction.

mod common;

use common::{apply_script, random_script};
use mvkv::core::{
    delta_by_snapshots, ESkipList, LabeledTags, LockedMap, PSkipList, StoreSession, VersionedStore,
};
use mvkv::pmem::{CrashOptions, PmemPool};
use mvkv::workload::{MixOp, Model};

/// Plain-word compaction into a fresh heap pool.
fn compact(store: &PSkipList, size: usize, horizon: u64) -> (PSkipList, mvkv::core::CompactStats) {
    store.compact_into(PmemPool::create_volatile(size).unwrap(), horizon).unwrap()
}

// ---------------------------------------------------------------------------
// Labeled tags
// ---------------------------------------------------------------------------

#[test]
fn labeled_tags_resolve_on_all_native_stores() {
    fn check<S: VersionedStore + LabeledTags>(store: &S) {
        let s = store.session();
        assert_eq!(store.tag_labeled(100), 0, "label on empty store");
        s.insert(1, 10);
        s.insert(2, 20);
        let epoch1 = store.tag_labeled(7);
        s.insert(3, 30);
        let epoch2 = store.tag_labeled(8);
        // Rebinding a label: newest binding wins.
        s.insert(4, 40);
        let epoch1b = store.tag_labeled(7);

        assert_eq!(store.resolve_label(100), Some(0));
        assert_eq!(store.resolve_label(7), Some(epoch1b));
        assert_eq!(store.resolve_label(8), Some(epoch2));
        assert_eq!(store.resolve_label(999), None);
        assert_eq!(s.extract_snapshot(epoch1).len(), 2);
        assert_eq!(s.extract_snapshot(store.resolve_label(8).unwrap()).len(), 3);
        assert_eq!(store.labels().len(), 4);
        let _ = epoch1;
    }
    check(&PSkipList::create_volatile(32 << 20).unwrap());
    check(&ESkipList::new());
    check(&LockedMap::new());
}

#[test]
fn labels_survive_restart() {
    let path = std::env::temp_dir().join(format!("mvkv-ext-tags-{}.pool", std::process::id()));
    let (epoch_a, epoch_b);
    {
        let store = PSkipList::create_file(&path, 32 << 20).unwrap();
        let s = store.session();
        s.insert(1, 11);
        epoch_a = store.tag_labeled(0xA);
        s.insert(2, 22);
        epoch_b = store.tag_labeled(0xB);
    }
    {
        let (store, _) = PSkipList::open_file(&path, 2).unwrap();
        assert_eq!(store.resolve_label(0xA), Some(epoch_a));
        assert_eq!(store.resolve_label(0xB), Some(epoch_b));
        assert_eq!(store.labels(), vec![(0xA, epoch_a), (0xB, epoch_b)]);
        assert_eq!(store.session().extract_snapshot(epoch_a), vec![(1, 11)]);
    }
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Range extraction
// ---------------------------------------------------------------------------

#[test]
fn extract_range_equals_filtered_snapshot_on_all_stores() {
    let script = random_script(1200, 200, 0x4A);
    fn check<S: VersionedStore>(store: &S, script: &[MixOp]) {
        let mut model = Model::new();
        apply_script(store, &mut model, script);
        let s = store.session();
        let max = model.version();
        for v in [max / 2, max] {
            let snap = s.extract_snapshot(v);
            for (lo, hi) in [(0u64, 50u64), (50, 150), (100, 100), (180, u64::MAX)] {
                let expected: Vec<(u64, u64)> =
                    snap.iter().copied().filter(|&(k, _)| lo <= k && k < hi).collect();
                assert_eq!(s.extract_range(v, lo, hi), expected, "v={v} range {lo}..{hi}");
            }
        }
    }
    check(&PSkipList::create_volatile(64 << 20).unwrap(), &script);
    check(&ESkipList::new(), &script);
    check(&LockedMap::new(), &script);
    check(&mvkv::core::DbStore::mem(), &script);
}

// ---------------------------------------------------------------------------
// Delta extraction
// ---------------------------------------------------------------------------

/// `delta_by_snapshots` against the model, key by key: a key is in the
/// delta exactly when its states at `v1` and `v2` differ, and it carries its
/// state at `v2`. Every store answers, and so does a PSkipList reopened from
/// a crash image.
#[test]
fn delta_matches_the_oracle_on_every_store() {
    const KEYS: u64 = 80;
    let script = random_script(1500, KEYS, 0xDE);
    fn check<S: VersionedStore>(store: &S, model: &Model) {
        let max = model.version();
        let ranges =
            [(0, max), (max / 3, 2 * max / 3), (max / 2, max / 2), (0, 1), (max / 2, max + 10)];
        for (v1, v2) in ranges {
            let expected: Vec<(u64, Option<u64>)> = (0..KEYS)
                .filter(|&k| model.find(k, v1) != model.find(k, v2))
                .map(|k| (k, model.find(k, v2)))
                .collect();
            let delta = delta_by_snapshots(&store.session(), v1, v2);
            assert_eq!(delta, expected, "{}: delta({v1}, {v2})", store.name());
        }
    }
    fn run<S: VersionedStore>(store: S, script: &[MixOp]) -> (S, Model) {
        let mut model = Model::new();
        apply_script(&store, &mut model, script);
        check(&store, &model);
        (store, model)
    }
    run(PSkipList::create_volatile(16 << 20).unwrap(), &script);
    run(ESkipList::new(), &script);
    run(LockedMap::new(), &script);
    run(mvkv::core::DbStore::mem(), &script);
    let crashed = PSkipList::create_crash_sim(16 << 20, CrashOptions::default()).unwrap();
    let (crashed, model) = run(crashed, &script);
    let (reopened, stats) = PSkipList::open_image(&crashed.crash_image().unwrap(), 2).unwrap();
    assert_eq!(stats.watermark, model.version());
    check(&reopened, &model);
}

/// ESkipList and DbStore have no delta of their own: both answer through
/// the snapshot diff, and agree.
#[test]
fn eskiplist_and_dbstore_delta_fallbacks() {
    let script = random_script(600, 50, 0xDF);
    let e = ESkipList::new();
    let d = mvkv::core::DbStore::mem();
    let mut model = Model::new();
    apply_script(&e, &mut model, &script);
    apply_script(&d, &mut Model::new(), &script);
    let max = model.version();
    for (v1, v2) in [(max / 2, max), (0, max)] {
        let delta = delta_by_snapshots(&e.session(), v1, v2);
        assert!(!delta.is_empty(), "delta({v1}, {v2})");
        assert_eq!(delta, delta_by_snapshots(&d.session(), v1, v2), "delta({v1}, {v2})");
    }
}

#[test]
fn delta_identity_and_full_range() {
    let store = PSkipList::create_volatile(16 << 20).unwrap();
    let s = store.session();
    s.insert(1, 10);
    s.insert(2, 20);
    s.remove(1);
    let max = store.tag();
    let delta = |v1, v2| delta_by_snapshots(&s, v1, v2);
    assert!(delta(max, max).is_empty(), "identity delta is empty");
    assert_eq!(
        delta(0, max),
        vec![(2, Some(20))],
        "key 1 was created and removed within the range → no net change vs empty"
    );
    assert_eq!(delta(1, 2), vec![(2, Some(20))]);
    assert_eq!(delta(2, 3), vec![(1, None)]);
}

#[test]
#[should_panic(expected = "delta requires v1 <= v2")]
fn delta_refuses_a_reversed_range() {
    let store = ESkipList::new();
    delta_by_snapshots(&store.session(), 2, 1);
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

#[test]
fn compaction_preserves_post_horizon_snapshots() {
    let script = random_script(2000, 150, 0xC0);
    let store = PSkipList::create_volatile(64 << 20).unwrap();
    let mut model = Model::new();
    apply_script(&store, &mut model, &script);
    let max = model.version();
    let horizon = max / 2;

    let (compacted, stats) = compact(&store, 64 << 20, horizon);
    assert_eq!(stats.horizon, horizon);
    assert!(stats.entries_after <= stats.entries_before);
    assert_eq!(compacted.tag(), max, "watermark carries over");

    let cs = compacted.session();
    for v in [horizon, horizon + max / 10, max] {
        assert_eq!(cs.extract_snapshot(v), model.snapshot(v), "snapshot at v={v}");
        for k in 0..150u64 {
            assert_eq!(cs.find(k, v), model.find(k, v), "find({k},{v})");
        }
    }
    // Below the horizon, queries answer as of the horizon.
    for k in 0..150u64 {
        assert_eq!(cs.find(k, horizon / 2), model.find(k, horizon), "pre-horizon find({k})");
    }
    // Deltas above the horizon agree with the source's.
    assert_eq!(
        delta_by_snapshots(&cs, horizon, max),
        delta_by_snapshots(&store.session(), horizon, max),
        "post-horizon delta"
    );
}

#[test]
fn compaction_garbage_collects_dead_keys() {
    let store = PSkipList::create_volatile(32 << 20).unwrap();
    let s = store.session();
    for i in 0..100u64 {
        s.insert(i, i);
    }
    for i in 0..50u64 {
        s.remove(i); // keys 0..50 dead before the horizon
    }
    s.insert(200, 1); // alive
    let horizon = store.tag();
    let (compacted, stats) = compact(&store, 32 << 20, horizon);
    assert_eq!(stats.keys_dropped, 50);
    assert_eq!(stats.keys_kept, 51);
    assert_eq!(compacted.key_count(), 51);
    assert_eq!(compacted.session().extract_snapshot(horizon).len(), 51);
    // Every surviving key has exactly one collapsed entry.
    assert_eq!(stats.entries_after, 51);
}

#[test]
fn compacted_store_reopens_and_continues() {
    let dir = std::env::temp_dir();
    let src_path = dir.join(format!("mvkv-ext-csrc-{}.pool", std::process::id()));
    let dst_path = dir.join(format!("mvkv-ext-cdst-{}.pool", std::process::id()));
    let (horizon, max);
    {
        let store = PSkipList::create_file(&src_path, 32 << 20).unwrap();
        let s = store.session();
        for i in 0..300u64 {
            s.insert(i % 60, i);
        }
        store.wait_writes_complete();
        horizon = store.tag() - 100;
        max = store.tag();
        let dst = PmemPool::create_file(&dst_path, 32 << 20).unwrap();
        let (compacted, _) = store.compact_into(dst, horizon).unwrap();
        assert_eq!(compacted.tag(), max);
    }
    {
        // Reopen the *compacted* pool: recovery must handle the gappy
        // collapsed versions via the persisted watermark base.
        let (store, stats) = PSkipList::open_file(&dst_path, 3).unwrap();
        assert_eq!(stats.watermark, max);
        let s = store.session();
        assert_eq!(s.extract_snapshot(max).len(), 60);
        // Writes continue with fresh versions.
        assert_eq!(s.insert(1000, 1), max + 1);
        // And labeled tags from before compaction still resolve.
        assert_eq!(store.labels().len(), 0);
    }
    std::fs::remove_file(&src_path).unwrap();
    std::fs::remove_file(&dst_path).unwrap();
}

#[test]
fn compaction_with_tags_keeps_bindings() {
    let store = PSkipList::create_volatile(32 << 20).unwrap();
    let s = store.session();
    s.insert(1, 10);
    let early = store.tag_labeled(0xEA);
    s.insert(1, 11);
    s.insert(2, 20);
    let late = store.tag_labeled(0x1A);
    let (compacted, _) = compact(&store, 32 << 20, late);
    assert_eq!(compacted.resolve_label(0xEA), Some(early));
    assert_eq!(compacted.resolve_label(0x1A), Some(late));
    // The early tag now resolves to horizon-collapsed state.
    assert_eq!(compacted.session().find(1, early), Some(11), "collapsed to horizon state");
    assert_eq!(store.session().find(1, early), Some(10), "source still has full history");
}

// ---------------------------------------------------------------------------
// Operation statistics
// ---------------------------------------------------------------------------

#[test]
fn op_stats_count_operations() {
    let store = PSkipList::create_volatile(16 << 20).unwrap();
    let s = store.session();
    s.insert(1, 10);
    s.insert(1, 11);
    s.insert(2, 20);
    s.remove(2);
    assert_eq!(s.find(1, 1), Some(10));
    assert_eq!(s.find(99, 1), None);
    s.extract_history(1);
    s.extract_snapshot(store.tag());

    let stats = store.op_stats();
    assert_eq!(stats.inserts, 3);
    assert_eq!(stats.removes, 1);
    assert_eq!(stats.mutations(), 4);
    assert_eq!(stats.finds, 2);
    assert_eq!(stats.find_hits, 1);
    assert_eq!(stats.history_queries, 1);
    assert_eq!(stats.snapshot_extractions, 1);
    assert_eq!(stats.new_keys, 2, "keys 1 and 2");
    assert_eq!(stats.lost_key_races, 0);

    let e = ESkipList::new();
    let es = e.session();
    es.insert(5, 50);
    assert_eq!(e.op_stats().inserts, 1);
    assert_eq!(e.op_stats().new_keys, 1);

    // Stores without instrumentation report zeros via the default.
    assert_eq!(mvkv::core::DbStore::mem().op_stats(), mvkv::core::OpStats::default());
}
