//! Concurrency stress tests: the invariants that must hold while writers
//! and readers race (snapshot immutability, watermark consistency, lazy
//! tail monotonicity).

mod common;

use mvkv::core::{ESkipList, PSkipList, StoreSession, VersionedStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Writers insert `(tid, i)`-coded pairs on disjoint keys while readers
/// repeatedly take a consistent tag and verify *every* invariant a
/// snapshot promises: versions ≤ tag, sortedness, value coding.
fn writers_vs_snapshot_readers<S: VersionedStore + Sync + Send + 'static>(store: Arc<S>) {
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let store = store.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let s = store.session();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) && i < 50_000 {
                    s.insert(t * 1_000_000 + i, t * 1_000_000 + i + 1);
                    i += 1;
                }
                i
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let store = store.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let s = store.session();
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let tag = store.tag();
                    let snap = s.extract_snapshot(tag);
                    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "unsorted snapshot");
                    for (k, v) in &snap {
                        assert_eq!(*v, k + 1, "torn value visible at tag {tag}");
                    }
                    // A later tag can only grow the snapshot.
                    let tag2 = store.tag();
                    assert!(tag2 >= tag);
                    let snap2 = s.extract_snapshot(tag);
                    assert_eq!(snap.len(), snap2.len(), "snapshot {tag} mutated");
                    checks += 1;
                }
                checks
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let written: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    let checks: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(written > 0 && checks > 0);
    store.wait_writes_complete();
    let final_snap = store.session().extract_snapshot(store.tag());
    assert_eq!(final_snap.len() as u64, written);
}

#[test]
fn eskiplist_snapshot_immutability_under_writers() {
    writers_vs_snapshot_readers(Arc::new(ESkipList::new()));
}

#[test]
fn pskiplist_snapshot_immutability_under_writers() {
    writers_vs_snapshot_readers(Arc::new(PSkipList::create_volatile(512 << 20).unwrap()));
}

/// `workers` threads hammer `insert`/`find` while one more thread asserts
/// both `op_stats()` invariants on every snapshot it can take. Every find
/// hits a preloaded key and every insert creates a fresh key, so at rest
/// `find_hits == finds` and `new_keys == mutations()`: the invariants have no
/// slack to hide a derived counter read ahead of its base. With `contended`
/// keys, the workers first race each other to create the same keys — the
/// lost-race counter's only source. After the join every total must be
/// exact, whichever counter shard each bumping thread landed on.
fn op_stats_under_load<S: VersionedStore + Sync>(
    store: &S,
    workers: u64,
    ops: u64,
    contended: u64,
) {
    const PRELOADED: u64 = 256;
    for k in 0..PRELOADED {
        store.session().insert(k, k);
    }
    store.wait_writes_complete();
    let preloaded_at = store.tag();

    let running = AtomicU64::new(workers);
    // No worker leaves before the observer has taken a snapshot: on a busy
    // two-core host it could otherwise be scheduled only after they all had.
    let observed = AtomicBool::new(false);
    let start = Barrier::new(workers as usize + 1);
    let snapshots = std::thread::scope(|scope| {
        for t in 0..workers {
            let (running, observed, start) = (&running, &observed, &start);
            scope.spawn(move || {
                let s = store.session();
                start.wait();
                for k in 0..contended {
                    s.insert(1 << 20 | k, t);
                }
                for i in 0..ops {
                    s.insert(((t + 1) << 32) | i, i);
                    assert_eq!(
                        s.find((t + i) % PRELOADED, preloaded_at),
                        Some((t + i) % PRELOADED)
                    );
                }
                while !observed.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        start.wait();
        let mut snapshots = 0u64;
        while running.load(Ordering::Acquire) > 0 {
            let st = store.op_stats();
            assert!(st.find_hits <= st.finds, "hits without their finds: {st:?}");
            assert!(
                st.new_keys + st.lost_key_races <= st.mutations(),
                "key outcomes without their mutations: {st:?}"
            );
            snapshots += 1;
            observed.store(true, Ordering::Release);
        }
        snapshots
    });
    assert!(snapshots > 0);
    let st = store.op_stats();
    assert_eq!(st.inserts, PRELOADED + workers * (contended + ops));
    assert_eq!((st.finds, st.find_hits), (workers * ops, workers * ops));
    assert_eq!(st.new_keys, PRELOADED + contended + workers * ops);
    assert_eq!(st.new_keys, store.key_count());
    assert!(st.lost_key_races <= (workers - 1) * contended);
    assert_eq!(st.removes, 0);
}

#[test]
fn op_stats_invariants_hold_in_every_snapshot_under_eight_threads() {
    op_stats_under_load(&ESkipList::new(), 8, 20_000, 0);
    op_stats_under_load(&PSkipList::create_volatile(512 << 20).unwrap(), 8, 20_000, 0);
}

/// More worker threads than counter shards (and the test harness's own
/// threads hold shards too): the late ones share the overflow shard, whose
/// bumps are read-modify-writes, and nothing may be lost there either.
#[test]
fn op_stats_totals_are_exact_past_the_owned_shards() {
    op_stats_under_load(&ESkipList::new(), 2 * mvkv_sync::shard::SHARDS as u64 + 4, 500, 64);
}

#[test]
fn mixed_insert_remove_find_stress() {
    let store = Arc::new(ESkipList::new());
    // Phase 1: concurrent partitioned inserts.
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let store = store.clone();
            scope.spawn(move || {
                let s = store.session();
                for i in 0..2_000u64 {
                    s.insert(t * 10_000 + i, i);
                }
            });
        }
    });
    store.wait_writes_complete();
    let after_insert = store.tag();
    // Phase 2: concurrent removers and finders.
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = store.clone();
            scope.spawn(move || {
                let s = store.session();
                for i in 0..1_000u64 {
                    s.remove(t * 10_000 + i * 2);
                }
            });
        }
        for t in 0..4u64 {
            let store = store.clone();
            scope.spawn(move || {
                let s = store.session();
                // Reads against the immutable phase-1 snapshot must be
                // oblivious to the concurrent removals.
                for i in 0..1_000u64 {
                    let key = t * 10_000 + i * 2;
                    assert_eq!(s.find(key, after_insert), Some(i * 2), "key {key}");
                }
            });
        }
    });
    store.wait_writes_complete();
    let final_tag = store.tag();
    assert_eq!(final_tag, after_insert + 4_000);
    let snap = store.session().extract_snapshot(final_tag);
    assert_eq!(snap.len(), 16_000 - 4_000);
}

#[test]
fn version_numbers_are_unique_and_gapless_across_threads() {
    let store = Arc::new(ESkipList::new());
    let versions: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let store = store.clone();
                scope.spawn(move || {
                    let s = store.session();
                    (0..1000u64).map(|i| s.insert(t * 100_000 + i, i)).collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut sorted = versions.clone();
    sorted.sort_unstable();
    let expected: Vec<u64> = (1..=8000u64).collect();
    assert_eq!(sorted, expected, "versions must form a gapless 1..=N sequence");
}

#[test]
fn lazy_tail_monotone_under_concurrent_queries() {
    use mvkv::vhistory::{EHistory, History};
    let storage = EHistory::new();
    let hist = History::new(&storage);
    for v in 1..=10_000u64 {
        hist.append(v, v);
    }
    // Many threads extend the tail concurrently with random watermarks;
    // the tail must only ever move forward and never pass an uncovered
    // version.
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let hist = &hist;
            scope.spawn(move || {
                let mut last = 0u64;
                for i in 0..2_000u64 {
                    let fc = (t * 977 + i * 13) % 10_000 + 1;
                    let tail = hist.extend_tail(fc);
                    assert!(tail >= last, "tail moved backwards");
                    assert!(tail <= 10_000);
                    last = tail;
                }
            });
        }
    });
    assert_eq!(hist.extend_tail(10_000), 10_000);
}

/// The engine's steps for a fresh key, by hand on the PM layers so that the
/// interleaving is exact: the creator has put the history into the index —
/// other threads reach it — but has neither linked the key into the chain
/// nor published its own entry when a second writer appends to the same
/// history. The inline slots make that append allocation-free: it takes
/// slot 0 of the creator's block, the creator's own entry slot 1, and the
/// key stays one block with no segment linked.
#[test]
fn second_writer_publishes_into_a_fresh_keys_inline_slots_before_its_creator() {
    use mvkv::keychain::KeyChain;
    use mvkv::pmem::{CrashOptions, PPtr, PmemPool};
    use mvkv::vhistory::recovery::{scan_published_prefix, ScanStop};
    use mvkv::vhistory::{History, PHistory, VersionClock};

    const KEY: u64 = 77;
    let pool = PmemPool::create_crash_sim(4 << 20, CrashOptions::default()).unwrap();
    let chain = KeyChain::create(&pool, 512).unwrap();
    let clock = VersionClock::new();
    // The index entry: the history's offset once the creator has inserted it.
    let indexed = AtomicU64::new(0);
    let second_done = Barrier::new(2);

    let in_window = std::thread::scope(|scope| {
        scope.spawn(|| {
            let h = PHistory::create(&pool).unwrap(); // zeroed and flushed, not fenced
            let blocks = pool.alloc_stats().live_blocks;
            indexed.store(h.pptr().off(), Ordering::Release);
            second_done.wait(); // ...and the creator is held right here
            chain.append(KEY, h.pptr().off()).unwrap();
            let version = clock.issue();
            History::new(h).append(version, 20);
            clock.complete(version);
            // One chain block (the chain's first) and nothing else since.
            assert_eq!(pool.alloc_stats().live_blocks, blocks + 1);
        });
        let second = scope.spawn(|| {
            let mut off = 0;
            while off == 0 {
                off = indexed.load(Ordering::Acquire);
                std::hint::spin_loop();
            }
            let h = History::new(PHistory::open(&pool, PPtr::from_off(off)));
            let fences = pool.fence_count().unwrap();
            let version = clock.issue();
            h.append(version, 10);
            clock.complete(version);
            assert_eq!(pool.fence_count().unwrap() - fences, 1, "no allocation, no link fence");
            assert_eq!(h.find(version, clock.watermark()), Some(10));
            let image = pool.crash_image().unwrap();
            second_done.wait();
            image
        });
        second.join().unwrap()
    });

    let chained = |pool: &PmemPool| -> Vec<(u64, u64)> {
        KeyChain::open(pool, chain.pptr()).iter().collect()
    };
    let off = indexed.load(Ordering::Acquire);
    let h = History::new(PHistory::open(&pool, PPtr::from_off(off)));
    assert_eq!((h.find(1, 2), h.find(2, 2)), (Some(10), Some(20)), "slot order is version order");
    assert_eq!(h.slots().raw_header(), (2, 2, 0), "both entries inline, no segment linked");
    assert_eq!(chained(&pool), [(KEY, off)]);

    // Cut the power now: the key is chained and both entries are there.
    let after = PmemPool::open_image(&pool.crash_image().unwrap()).unwrap();
    assert_eq!(chained(&after), [(KEY, off)]);
    let mut versions = Vec::new();
    let scan = scan_published_prefix(
        &PHistory::open_checked(&after, PPtr::from_off(off)).unwrap(),
        &mut versions,
    );
    assert_eq!((versions, scan.stop), (vec![1, 2], ScanStop::Exhausted));

    // Cut it inside the window instead — the second writer has returned, the
    // creator's chain pair is not durable yet — and recovery sees no key at
    // all, or the key with exactly the second writer's entry: never a torn
    // one. That the acknowledged version 1 can be lost here is not new with
    // the inline slots and is an open item (ROADMAP 2, DESIGN.md §13.3).
    let during = PmemPool::open_image(&in_window).unwrap();
    for (key, hist) in chained(&during) {
        assert_eq!((key, hist), (KEY, off));
        let mut versions = Vec::new();
        let h = PHistory::open_checked(&during, PPtr::from_off(hist)).unwrap();
        scan_published_prefix(&h, &mut versions);
        assert_eq!(versions, [1]);
    }
}
