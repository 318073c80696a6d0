//! Five-approach equivalence: the same operation script must produce
//! identical versioned behaviour on every store and match the oracle.
//! `VersionedMap<u64, u64>`, the third instantiation of the skip-list store
//! engine, runs behind an adapter as a sixth.

mod common;

use common::{apply_script, assert_agrees, random_script, MapStore, Oracle, Op};
use mvkv::core::{DbStore, ESkipList, LockedMap, PSkipList, StoreSession, VersionedStore};

fn probe_versions(max: u64) -> Vec<u64> {
    let mut v: Vec<u64> = vec![0, 1, max / 3, max / 2, max, max + 10];
    v.dedup();
    v
}

fn keys_of(script: &[Op]) -> Vec<u64> {
    let mut keys: Vec<u64> = script
        .iter()
        .map(|op| match *op {
            Op::Insert(k, _) => k,
            Op::Remove(k) => k,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    // Plus a few never-touched keys.
    keys.push(u64::MAX / 2);
    keys.push(123_456_789_000);
    keys
}

fn check_store<S: mvkv::core::VersionedStore>(store: &S, script: &[Op]) {
    let mut oracle = Oracle::new();
    apply_script(store, &mut oracle, script);
    assert_agrees(store, &oracle, &keys_of(script), &probe_versions(oracle.version()));
}

#[test]
fn all_five_stores_agree_with_oracle() {
    let script = random_script(1500, 120, 0xE9);
    check_store(&PSkipList::create_volatile(64 << 20).unwrap(), &script);
    check_store(&ESkipList::new(), &script);
    check_store(&MapStore::default(), &script);
    check_store(&LockedMap::new(), &script);
    check_store(&DbStore::mem(), &script);
    let path = std::env::temp_dir().join(format!("mvkv-equiv-{}.db", std::process::id()));
    check_store(&DbStore::reg(&path).unwrap(), &script);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

#[test]
fn remove_heavy_scripts_agree() {
    // 50% removals, tiny key space → deep histories with many tombstones.
    let mut rng = mvkv::workload::Mt19937_64::new(0xDEAD);
    let script: Vec<Op> = (0..800)
        .map(|_| {
            let key = rng.next_below(10);
            if rng.next_below(2) == 0 {
                Op::Remove(key)
            } else {
                Op::Insert(key, rng.next_below(1000))
            }
        })
        .collect();
    check_store(&PSkipList::create_volatile(64 << 20).unwrap(), &script);
    check_store(&ESkipList::new(), &script);
    check_store(&MapStore::default(), &script);
    check_store(&LockedMap::new(), &script);
    check_store(&DbStore::mem(), &script);
}

#[test]
fn insert_only_monotone_keys() {
    let script: Vec<Op> = (0..1000).map(|i| Op::Insert(i, i * 7)).collect();
    check_store(&PSkipList::create_volatile(64 << 20).unwrap(), &script);
    check_store(&ESkipList::new(), &script);
    check_store(&MapStore::default(), &script);
}

#[test]
fn edge_key_values() {
    // Extreme keys and values near the marker boundary.
    let script = vec![
        Op::Insert(0, 0),
        Op::Insert(u64::MAX, (1 << 62) - 1),
        Op::Insert(u64::MAX - 1, 1),
        Op::Remove(0),
        Op::Insert(0, 42),
        Op::Remove(u64::MAX),
    ];
    check_store(&PSkipList::create_volatile(16 << 20).unwrap(), &script);
    check_store(&ESkipList::new(), &script);
    check_store(&MapStore::default(), &script);
    check_store(&LockedMap::new(), &script);
    check_store(&DbStore::mem(), &script);
}

/// `insert(k, TOMBSTONE)` would read back as a remove. Every store refuses
/// it — in release builds too — before it issues a version: nothing is
/// stored, and the watermark is not left waiting for a version that never
/// completes.
#[test]
fn the_reserved_value_is_refused_by_every_store() {
    use mvkv::core::TOMBSTONE;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    fn check<S: VersionedStore>(store: S) {
        let s = store.session();
        s.insert(1, 10);
        assert!(catch_unwind(AssertUnwindSafe(|| s.insert(1, TOMBSTONE))).is_err());
        let batch = [(2, 20), (3, TOMBSTONE)];
        assert!(catch_unwind(AssertUnwindSafe(|| s.insert_batch(&batch))).is_err());
        store.wait_writes_complete();
        assert_eq!(store.tag(), store.latest_version(), "{}", store.name());
        assert_eq!(s.find(1, store.tag()), Some(10), "{}", store.name());
        assert_eq!(s.extract_history(1).len(), 1, "{}", store.name());
        assert!(s.extract_history(3).is_empty(), "{}", store.name());
        // The largest storable value is one below it.
        let v = s.insert(4, TOMBSTONE - 1);
        assert_eq!(s.find(4, v), Some(TOMBSTONE - 1), "{}", store.name());
    }
    check(PSkipList::create_volatile(16 << 20).unwrap());
    check(ESkipList::new());
    check(LockedMap::new());
    check(DbStore::mem());
}

// ---------------------------------------------------------------------------
// The hand-written semantics checks every engine instantiation used to carry
// a copy of, written once and run over each.
// ---------------------------------------------------------------------------

/// Runs `check` on a fresh store of each skip-list engine instantiation.
macro_rules! on_each_instantiation {
    ($check:ident) => {{
        $check(PSkipList::create_volatile(64 << 20).unwrap());
        $check(ESkipList::new());
        $check(MapStore::default());
    }};
}

#[test]
fn versioned_semantics() {
    fn check<S: VersionedStore>(store: S) {
        let s = store.session();
        let v1 = s.insert(10, 100);
        let v2 = s.insert(20, 200);
        let v3 = s.remove(10);
        let v4 = s.insert(10, 101);
        assert_eq!((v1, v2, v3, v4), (1, 2, 3, 4), "{}", store.name());
        assert_eq!(store.tag(), 4);
        assert_eq!(s.find(10, v1), Some(100));
        assert_eq!(s.find(10, v2), Some(100), "unchanged between snapshots");
        assert_eq!(s.find(10, v3), None, "removed");
        assert_eq!(s.find(10, v4), Some(101), "re-inserted");
        assert_eq!(s.find(20, v3), Some(200));
        assert_eq!(s.find(20, 1), None, "not born yet");
        assert_eq!(store.key_count(), 2);
    }
    on_each_instantiation!(check);
}

#[test]
fn snapshots_are_sorted_and_tombstone_free() {
    fn check<S: VersionedStore>(store: S) {
        let s = store.session();
        s.insert(30, 3);
        s.insert(10, 1);
        let v = s.insert(20, 2);
        s.remove(10);
        assert_eq!(s.extract_snapshot(v), vec![(10, 1), (20, 2), (30, 3)], "{}", store.name());
        assert_eq!(s.extract_snapshot(store.tag()), vec![(20, 2), (30, 3)]);
        assert_eq!(s.extract_snapshot(0), vec![]);
    }
    on_each_instantiation!(check);
}

#[test]
fn concurrent_writers_distinct_keys() {
    fn check<S: VersionedStore>(store: S) {
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let store = &store;
                scope.spawn(move || {
                    let s = store.session();
                    for i in 0..1000u64 {
                        s.insert(t * 100_000 + i, i + 1);
                    }
                });
            }
        });
        store.wait_writes_complete();
        assert_eq!(store.tag(), 8000, "{}", store.name());
        assert_eq!(store.key_count(), 8000);
        let snap = store.session().extract_snapshot(store.tag());
        assert_eq!(snap.len(), 8000);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "snapshot must be key-sorted");
        assert!(snap.iter().all(|&(k, v)| v == k % 100_000 + 1), "every pair is one writer's");
    }
    on_each_instantiation!(check);
}

#[test]
fn concurrent_disjoint_writers_converge_across_stores() {
    // Partitioned concurrent writes; final snapshots must be identical
    // across stores even though version interleavings differ.
    fn run<S: mvkv::core::VersionedStore + Sync>(store: &S) -> Vec<(u64, u64)> {
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &*store;
                scope.spawn(move || {
                    let s = store.session();
                    for i in 0..500u64 {
                        s.insert(t * 10_000 + i, t + i);
                    }
                    for i in 0..100u64 {
                        s.remove(t * 10_000 + i * 5);
                    }
                });
            }
        });
        store.wait_writes_complete();
        store.session().extract_snapshot(store.tag())
    }
    let a = run(&PSkipList::create_volatile(64 << 20).unwrap());
    let b = run(&ESkipList::new());
    let c = run(&LockedMap::new());
    let d = run(&DbStore::mem());
    assert_eq!(a.len(), 4 * 400);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(c, d);
}
