//! Edge cases for the parallel snapshot extraction path
//! (`Engine::extract_filtered`): empty results, single keys, workloads
//! that straddle the serial/parallel threshold, and a pathological skew
//! where every key hashes to worker 0 — on both word-keyed instantiations
//! of the engine.

use mvkv_core::{ESkipList, PSkipList, StoreSession, VersionedStore};

/// Mirror of the private `PARALLEL_EXTRACT_MIN` in `engine.rs` — the
/// straddle tests below sit one key either side of it.
const THRESHOLD: u64 = 4096;

/// Runs `check` on a fresh store of each instantiation.
macro_rules! on_both_stores {
    ($check:expr) => {{
        $check(PSkipList::create_volatile(128 << 20).expect("pool"));
        $check(ESkipList::new());
    }};
}

fn filled<S: VersionedStore>(store: S, keys: impl Iterator<Item = u64>) -> S {
    {
        let session = store.session();
        for k in keys {
            session.insert(k, k.wrapping_mul(31) | 1);
        }
    }
    store.wait_writes_complete();
    store
}

fn expected(keys: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = keys.map(|k| (k, k.wrapping_mul(31) | 1)).collect();
    v.sort_unstable();
    v
}

#[test]
fn empty_store_and_empty_ranges() {
    fn check<S: VersionedStore>(store: S) {
        let session = store.session();
        assert_eq!(session.extract_snapshot(0), vec![]);
        assert_eq!(session.extract_range(0, 10, 10), vec![]); // lo == hi
        assert_eq!(session.extract_range(0, 10, 5), vec![]); // inverted

        // Non-empty store, but the range lies beyond every key / between keys.
        session.insert(100, 1);
        session.insert(200, 2);
        let v = store.tag();
        assert_eq!(session.extract_range(v, 300, 400), vec![]);
        assert_eq!(session.extract_range(v, 101, 200), vec![]);
        assert_eq!(session.extract_range(v, 0, 100), vec![]);
    }
    on_both_stores!(check);
}

#[test]
fn single_key_store() {
    fn check<S: VersionedStore>(store: S) {
        let store = filled(store, std::iter::once(42));
        let session = store.session();
        let v = store.tag();
        let want = expected(std::iter::once(42));
        assert_eq!(session.extract_snapshot(v), want.clone());
        assert_eq!(session.extract_range(v, 42, 43), want.clone());
        assert_eq!(session.extract_range(v, 0, 42), vec![]);
        // Version 0 predates the insert.
        assert_eq!(session.extract_snapshot(0), vec![]);
    }
    on_both_stores!(check);
}

#[test]
fn straddles_the_parallel_threshold() {
    // One key below the threshold: the serial path. One above: the
    // partitioned path (on multi-core machines). Results must be identical
    // in shape either way — sorted, complete, no duplicates.
    fn check<S: VersionedStore>(store: S, n: u64) {
        let keys = (0..n).map(|i| i * 7 + 3); // sparse, unordered-ish keyspace
        let store = filled(store, keys.clone());
        let session = store.session();
        let v = store.tag();
        let want = expected(keys);
        assert_eq!(session.extract_snapshot(v).len(), n as usize, "n={n}");
        assert_eq!(session.extract_snapshot(v), want, "n={n}");
        // Sub-ranges cross the partition boundaries too.
        let (lo, hi) = (want[10].0, want[want.len() - 10].0);
        let want_range: Vec<_> =
            want.iter().copied().filter(|&(k, _)| lo <= k && k < hi).collect();
        assert_eq!(session.extract_range(v, lo, hi), want_range, "n={n}");
    }
    for n in [THRESHOLD - 1, THRESHOLD + 1] {
        on_both_stores!(|store| check(store, n));
    }
}

#[test]
fn removed_keys_stay_out_of_later_snapshots() {
    fn check<S: VersionedStore>(store: S) {
        let n = THRESHOLD + 64; // force the parallel path
        let store = filled(store, 0..n);
        let session = store.session();
        let before = store.tag();
        for k in (0..n).step_by(3) {
            session.remove(k);
        }
        store.wait_writes_complete();
        let after = store.tag();

        assert_eq!(session.extract_snapshot(before), expected(0..n));
        let want_after: Vec<_> =
            expected(0..n).into_iter().filter(|&(k, _)| k % 3 != 0).collect();
        assert_eq!(session.extract_snapshot(after), want_after);
    }
    on_both_stores!(check);
}

#[test]
fn all_keys_hashing_to_one_worker() {
    // splitmix(key) % 840 == 0 implies splitmix(key) % w == 0 for every
    // worker count w in 1..=8 (840 = lcm(1..8)), so whatever parallelism
    // the machine has, every key is claimed by worker 0 and the other
    // workers contribute empty chunks to the merge.
    fn check<S: VersionedStore>(store: S, skewed: &[u64]) {
        let store = filled(store, skewed.iter().copied());
        let session = store.session();
        let v = store.tag();
        let want = expected(skewed.iter().copied());
        assert_eq!(session.extract_snapshot(v), want);

        let (lo, hi) = (want[1].0, want[want.len() - 1].0);
        let want_range: Vec<_> =
            want.iter().copied().filter(|&(k, _)| lo <= k && k < hi).collect();
        assert_eq!(session.extract_range(v, lo, hi), want_range);
    }
    let skewed: Vec<u64> = (0..)
        .filter(|&k| mvkv_core::splitmix_for_tests(k).is_multiple_of(840))
        .take((THRESHOLD + 128) as usize)
        .collect();
    assert!(skewed.len() as u64 > THRESHOLD);
    on_both_stores!(|store| check(store, &skewed));
}
