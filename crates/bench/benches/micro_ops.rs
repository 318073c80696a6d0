//! Criterion micro-benchmarks for the per-operation costs underlying the
//! figure harnesses: history append/find, skip-list insert/lookup, pmem
//! allocation, database row insert/lookup, and the merge kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mvkv_cluster::{merge_two, merge_two_parallel};
use mvkv_core::{DbStore, StoreSession, VersionedStore};
use mvkv_pmem::PmemPool;
use mvkv_skiplist::SkipList;
use mvkv_vhistory::{EHistory, History, PHistory};
use std::hint::black_box;

fn history_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("history");
    group.sample_size(20);
    // append_persistent claims fresh segments from one shared pool on every
    // batch and the pool never frees, so the time-based warm-up must be
    // short enough that total claims stay far below the pool size (a fast
    // machine at the 100 ms default burns through 64 MiB mid-warm-up).
    group.warm_up_time(std::time::Duration::from_millis(10));
    group.measurement_time(std::time::Duration::from_millis(100));

    group.bench_function("append_ephemeral", |b| {
        b.iter_batched(
            EHistory::new,
            |storage| {
                let h = History::new(&storage);
                for v in 1..=64u64 {
                    h.append(v, v * 2);
                }
                storage
            },
            BatchSize::SmallInput,
        );
    });

    let pool = PmemPool::create_volatile(1 << 28).expect("pool");
    group.bench_function("append_persistent", |b| {
        b.iter_batched(
            || History::new(PHistory::create(&pool).expect("history")),
            |h| {
                for v in 1..=64u64 {
                    h.append(v, v * 2);
                }
            },
            BatchSize::SmallInput,
        );
    });

    let storage = EHistory::new();
    let filled = History::new(&storage);
    for v in 1..=1024u64 {
        filled.append(v, v);
    }
    group.bench_function("find_1024_entries", |b| {
        let mut probe = 0u64;
        b.iter(|| {
            probe = probe % 1024 + 1;
            black_box(filled.find(probe, 1024))
        });
    });
    group.finish();
}

fn skiplist_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("skiplist");
    group.sample_size(20);

    group.bench_function("insert_4096", |b| {
        b.iter_batched(
            SkipList::<u64>::new,
            |list| {
                for k in 0..4096u64 {
                    list.insert_with(k.wrapping_mul(0x9E3779B97F4A7C15), || k);
                }
                list
            },
            BatchSize::SmallInput,
        );
    });

    let list = SkipList::new();
    for k in 0..100_000u64 {
        list.insert_with(k, || k);
    }
    group.bench_function("get_in_100k", |b| {
        let mut probe = 0u64;
        b.iter(|| {
            probe = (probe + 12_345) % 100_000;
            black_box(list.get(&probe))
        });
    });
    group.finish();
}

fn pmem_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmem");
    group.sample_size(20);
    let pool = PmemPool::create_volatile(1 << 28).expect("pool");
    group.bench_function("alloc_dealloc_64B", |b| {
        b.iter(|| {
            let off = pool.alloc(64).expect("alloc");
            pool.dealloc(black_box(off));
        });
    });
    group.bench_function("atomic_store_persist", |b| {
        let off = pool.alloc(64).expect("alloc");
        b.iter(|| {
            pool.write_u64(off, black_box(42));
            pool.persist(off, 8);
        });
    });
    group.finish();
}

fn db_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("minidb");
    group.sample_size(10);
    let store = DbStore::mem();
    let session = store.session();
    let mut version_base = 0u64;
    group.bench_function("insert_row_txn", |b| {
        b.iter(|| {
            version_base += 1;
            session.insert(black_box(version_base), version_base)
        });
    });
    group.bench_function("find_row", |b| {
        let max = store.tag();
        let mut probe = 0u64;
        b.iter(|| {
            probe = probe % version_base.max(1) + 1;
            black_box(session.find(probe, max))
        });
    });
    group.finish();
}

fn merge_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    let n = 200_000u64;
    let a: Vec<(u64, u64)> = (0..n).map(|i| (i * 2, i)).collect();
    let b_in: Vec<(u64, u64)> = (0..n).map(|i| (i * 2 + 1, i)).collect();
    group.bench_function("two_way_sequential_400k", |bch| {
        let mut out = Vec::new();
        bch.iter(|| {
            merge_two(&a, &b_in, &mut out);
            black_box(out.len())
        });
    });
    group.bench_function("two_way_parallel4_400k", |bch| {
        bch.iter(|| black_box(merge_two_parallel(&a, &b_in, 4).len()));
    });
    group.finish();
}

fn extension_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);

    // Blob insert+find roundtrip (1 KiB payloads).
    let blob = mvkv_core::BlobStore::create_volatile(1 << 28).expect("blob store");
    let payload = vec![0xABu8; 1024];
    let mut key = 0u64;
    group.bench_function("blob_insert_1k", |b| {
        b.iter(|| {
            key += 1;
            blob.insert(black_box(key), &payload)
        });
    });
    group.bench_function("blob_find_1k", |b| {
        let max = blob.tag();
        let mut probe = 0u64;
        b.iter(|| {
            probe = probe % key + 1;
            black_box(blob.find(probe, max))
        });
    });

    // Generic map with string keys.
    let map: mvkv_core::VersionedMap<String, u64> = mvkv_core::VersionedMap::new();
    for i in 0..10_000u64 {
        map.insert(format!("key-{i:06}"), i);
    }
    group.bench_function("vmap_string_find", |b| {
        let v = map.tag();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(map.find(&format!("key-{i:06}"), v))
        });
    });

    // Undo-log transaction commit (3-word write set).
    let pool = mvkv_pmem::PmemPool::create_volatile(1 << 24).expect("pool");
    let target = pool.alloc(64).expect("alloc");
    group.bench_function("txn_commit_3_words", |b| {
        b.iter(|| {
            let mut txn = pool.begin_txn().expect("txn");
            txn.set_u64(target, 1).expect("write");
            txn.set_u64(target + 8, 2).expect("write");
            txn.set_u64(target + 16, 3).expect("write");
            txn.commit();
        });
    });

    // Snapshot export encode+decode (10k pairs).
    let pairs: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 3)).collect();
    group.bench_function("export_import_10k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(pairs.len() * 16 + 64);
            mvkv_core::write_snapshot(&mut buf, 1, &pairs).expect("encode");
            black_box(mvkv_core::read_snapshot(&mut buf.as_slice()).expect("decode").1.len())
        });
    });
    group.finish();
}

/// Allocator contention: every thread churns small blocks through the
/// sharded arenas. With per-shard free lists the threads stay on disjoint
/// lists and the pool's bump cursor is touched only on batched refills.
fn alloc_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_contention");
    group.sample_size(10);
    let pool = PmemPool::create_volatile(1 << 28).expect("pool");
    for threads in [1usize, 4, 8, 16] {
        group.bench_function(format!("churn_64B_{threads}t"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| {
                            let mut held = Vec::with_capacity(8);
                            for round in 0..2_000 {
                                held.push(pool.alloc(64).expect("alloc"));
                                if round % 3 == 0 {
                                    pool.dealloc(held.swap_remove(round % held.len()));
                                }
                            }
                            for off in held {
                                pool.dealloc(off);
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

/// Batched vs per-pair inserts on PSkipList: `insert_batch` publishes a
/// whole chunk behind a single fence, so the gap between the two series is
/// the per-operation fence cost.
fn insert_batch_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_batch");
    group.sample_size(10);
    // Every iteration inserts fresh keys; bound the iteration count so the
    // fixed-size pools comfortably hold the accumulated histories.
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for threads in [1usize, 4, 8, 16] {
        group.bench_function(format!("pskiplist_batch64_{threads}t"), |b| {
            let store = mvkv_core::PSkipList::create_volatile(1 << 28).expect("store");
            let mut base = 0u64;
            b.iter(|| {
                base += 1;
                std::thread::scope(|s| {
                    for tid in 0..threads as u64 {
                        let store = &store;
                        s.spawn(move || {
                            let pairs: Vec<(u64, u64)> = (0..64u64)
                                .map(|i| ((tid << 40) | (base * 64 + i), i + 1))
                                .collect();
                            store.session().insert_batch(&pairs);
                        });
                    }
                });
            });
        });
        group.bench_function(format!("pskiplist_single_{threads}t"), |b| {
            let store = mvkv_core::PSkipList::create_volatile(1 << 28).expect("store");
            let mut base = 0u64;
            b.iter(|| {
                base += 1;
                std::thread::scope(|s| {
                    for tid in 0..threads as u64 {
                        let store = &store;
                        s.spawn(move || {
                            let session = store.session();
                            for i in 0..64u64 {
                                session.insert((tid << 40) | (base * 64 + i), i + 1);
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    history_ops,
    skiplist_ops,
    pmem_ops,
    db_ops,
    merge_ops,
    extension_ops,
    alloc_contention,
    insert_batch_ops
);
criterion_main!(benches);
