//! Edge cases of snapshot extraction (`Engine::extract`): empty
//! results, single keys, removed keys and window sizing — on both word-keyed
//! instantiations of the engine.

use mvkv_core::{ESkipList, PSkipList, Pair, StoreSession, VersionedStore};
use std::ops::Range;

/// Runs `check` on a fresh store of each instantiation.
macro_rules! on_both_stores {
    ($check:expr) => {{
        $check(PSkipList::create_volatile(32 << 20).expect("pool"));
        $check(ESkipList::new());
    }};
}

fn value_of(key: u64) -> u64 {
    key.wrapping_mul(31) | 1
}

/// Inserts `keys`, then removes every third key below `removed`; returns the
/// tag before and after the removals.
fn filled<S: VersionedStore>(store: &S, keys: Range<u64>, removed: u64) -> (u64, u64) {
    let session = store.session();
    for k in keys {
        session.insert(k, value_of(k));
    }
    store.wait_writes_complete();
    let before = store.tag();
    for k in (0..removed).step_by(3) {
        session.remove(k);
    }
    store.wait_writes_complete();
    (before, store.tag())
}

#[test]
fn empty_single_key_and_removed_key_windows() {
    // (keys inserted, every third key below this removed, lo, hi, expected keys)
    type Row = (Range<u64>, u64, u64, u64, &'static [u64]);
    const ROWS: &[Row] = &[
        (0..0, 0, 0, u64::MAX, &[]),       // empty store
        (100..102, 0, 10, 10, &[]),        // lo == hi
        (100..102, 0, 10, 5, &[]),         // inverted
        (100..102, 0, 300, 400, &[]),      // beyond every key
        (100..101, 0, 101, 200, &[]),      // just above the only key
        (100..102, 0, 0, 100, &[]),        // hi is exclusive
        (42..43, 0, 42, 43, &[42]),        // single key, tightest window
        (42..43, 0, 0, 42, &[]),           // single key, just below
        (0..8, 8, 0, 8, &[1, 2, 4, 5, 7]), // removed keys stay out
        (0..8, 8, 3, 7, &[4, 5]),          // window starting on a removed key
    ];
    fn check<S: VersionedStore>(store: S, (keys, removed, lo, hi, want): &Row) {
        let (before, after) = filled(&store, keys.clone(), *removed);
        let session = store.session();
        let want: Vec<Pair> = want.iter().map(|&k| (k, value_of(k))).collect();
        assert_eq!(session.extract_range(after, *lo, *hi), want, "{keys:?} [{lo}, {hi})");
        // Version 0 predates every insert; the tag before the removals still
        // holds every key; the unbounded snapshot is the unbounded window.
        assert_eq!(session.extract_snapshot(0), vec![]);
        let all: Vec<Pair> = keys.clone().map(|k| (k, value_of(k))).collect();
        assert_eq!(session.extract_snapshot(before), all, "{keys:?} before the removals");
        assert_eq!(session.extract_snapshot(after), session.extract_range(after, 0, u64::MAX));
    }
    for row in ROWS {
        on_both_stores!(|store| check(store, row));
    }
}

#[test]
fn a_window_is_sized_by_its_pairs_not_by_the_store() {
    fn check<S: VersionedStore>(store: S) {
        let (_, tag) = filled(&store, 0..10_000, 0);
        let session = store.session();
        let one = session.extract_range(tag, 5_000, 5_001);
        assert_eq!(one, vec![(5_000, value_of(5_000))]);
        let bytes = one.capacity() * std::mem::size_of::<Pair>();
        assert!(bytes < 1024, "a one-key window reserved {bytes} B");
        // The unbounded snapshot is pre-sized to the key count: no regrowth.
        assert_eq!(session.extract_snapshot(tag).capacity(), 10_000);
    }
    on_both_stores!(check);
}
