//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * **A1 — lazy vs eager tail**: the paper's lazy tail moves tail
//!   maintenance from every append to the queries that need it. The eager
//!   variant extends the tail on every append.
//! * **A2 — parallel vs sequential index reconstruction**: the block-chain
//!   modulo claiming (paper Fig 5a) against a single-threaded walk.
//! * **A3 — multi-threaded vs sequential two-way merge** (paper §IV-A).
//! * **A4 — block-chain capacity**: append + rebuild cost across block
//!   sizes (the array-vs-linked-list trade-off the chain resolves).

use mvkv_bench::{report, secs, BenchConfig, Row, UndoLog};
use mvkv_cluster::{merge_two, merge_two_parallel};
use mvkv_keychain::{rebuild_into, try_fold_claimed, try_workers, KeyChain};
use mvkv_pmem::PmemPool;
use mvkv_skiplist::SkipList;
use mvkv_vhistory::{EHistory, History, VersionClock};
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rows = Vec::new();
    ablate_lazy_tail(&cfg, &mut rows);
    ablate_rebuild(&cfg, &mut rows);
    ablate_merge(&cfg, &mut rows);
    ablate_block_cap(&cfg, &mut rows);
    ablate_txn_vs_lazy(&cfg, &mut rows);
    report("ablations", "design-choice ablations (DESIGN.md §5)", &rows);
}

/// A7 — the paper's §IV-A argument in numbers: appending history entries
/// through PMDK-style undo-log transactions ([`UndoLog`], globally
/// serialized) vs the lock-free lazy-tail protocol.
fn ablate_txn_vs_lazy(cfg: &BenchConfig, rows: &mut Vec<Row>) {
    use mvkv_pmem::PmemPool;
    use mvkv_vhistory::{PHistory, Slots};
    let per_thread = (cfg.n / 4).max(1000);
    for &t in &cfg.threads {
        // Two rounds per variant on pre-created pools: round 0 warms the
        // freshly mapped pool pages, round 1 is measured.
        let run_lazy = || {
            let pool = PmemPool::create_volatile(per_thread * t * 256 + (32 << 20)).expect("pool");
            let mut elapsed = std::time::Duration::ZERO;
            for round in 0..2 {
                let histories: Vec<History<PHistory>> =
                    (0..t).map(|_| History::new(PHistory::create(&pool).expect("hist"))).collect();
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for h in &histories {
                        scope.spawn(move || {
                            for v in 1..=per_thread as u64 {
                                h.append(v, v);
                            }
                        });
                    }
                });
                if round == 1 {
                    elapsed = t0.elapsed();
                }
            }
            elapsed
        };
        let run_txn = || {
            let pool = PmemPool::create_volatile(per_thread * t * 256 + (32 << 20)).expect("pool");
            let p = &pool;
            let undo = &UndoLog::new(p, 3).expect("undo log");
            let mut elapsed = std::time::Duration::ZERO;
            for round in 0..2 {
                let histories: Vec<History<PHistory>> =
                    (0..t).map(|_| History::new(PHistory::create(p).expect("hist"))).collect();
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for h in &histories {
                        scope.spawn(move || {
                            for v in 1..=per_thread as u64 {
                                let (_, e) = h.slots().claim();
                                // Entry offset via the atomic cell address.
                                let base =
                                    (&*e as *const _ as usize - p.base_ptr(0) as usize) as u64;
                                undo.append(&[(base, v), (base + 8, v), (base + 16, v + 1)]);
                            }
                        });
                    }
                });
                if round == 1 {
                    elapsed = t0.elapsed();
                }
            }
            elapsed
        };
        let lazy = run_lazy();
        let txn_time = run_txn();

        rows.push(Row::secs("ablation-a7", "lazy-tail", t as u64, "append_total_time", lazy));
        rows.push(Row::secs("ablation-a7", "txn-append", t as u64, "append_total_time", txn_time));
        eprintln!(
            "[a7] T={t}: lazy {:.4}s vs transactional {:.4}s ({:.1}x)",
            secs(lazy),
            secs(txn_time),
            txn_time.as_secs_f64() / lazy.as_secs_f64()
        );
    }
}

/// A1: append E entries to each of M keys, then run F random finds at old
/// versions. Lazy = paper protocol; eager = extend the tail on every
/// append.
fn ablate_lazy_tail(cfg: &BenchConfig, rows: &mut Vec<Row>) {
    let keys = (cfg.n / 10).max(100);
    let appends_per_key = 8u64;
    // Warmup pass: populate allocator arenas so the first timed variant is
    // not penalized by first-touch page faults.
    {
        let clock = VersionClock::new();
        let storage: Vec<EHistory> = (0..keys).map(|_| EHistory::new()).collect();
        let histories: Vec<History<&EHistory>> = storage.iter().map(History::new).collect();
        for _ in 0..appends_per_key {
            for h in &histories {
                let v = clock.issue();
                h.append(v, 0);
                clock.complete(v);
            }
        }
    }
    for (label, eager) in [("lazy-tail", false), ("eager-tail", true)] {
        let clock = VersionClock::new();
        let storage: Vec<EHistory> = (0..keys).map(|_| EHistory::new()).collect();
        let histories: Vec<History<&EHistory>> = storage.iter().map(History::new).collect();
        let t0 = Instant::now();
        for e in 0..appends_per_key {
            for h in &histories {
                let v = clock.issue();
                h.append(v, e * 10);
                clock.complete(v);
                if eager {
                    h.extend_tail(clock.watermark());
                }
            }
        }
        let append_time = t0.elapsed();
        // Finds at versions covered by the very first round of appends:
        // the lazy tail answers these without ever extending.
        let t1 = Instant::now();
        let fc = clock.watermark();
        let mut acc = 0u64;
        for (i, h) in histories.iter().enumerate() {
            acc = acc.wrapping_add(h.find((i % keys) as u64 + 1, fc).unwrap_or(0));
        }
        std::hint::black_box(acc);
        let find_time = t1.elapsed();
        rows.push(Row::secs(
            "ablation-a1",
            label,
            appends_per_key,
            "append_phase_time",
            append_time,
        ));
        rows.push(Row::secs(
            "ablation-a1",
            label,
            appends_per_key,
            "old_version_find_time",
            find_time,
        ));
        eprintln!("[a1] {label}: appends {:.4}s finds {:.4}s", secs(append_time), secs(find_time));
    }
}

/// A2: reconstruction thread sweep over a chain of 2N keys, two ways: the
/// paper's original reconstruction — N workers `insert_with` the pairs of
/// the blocks they claim into the shared list — and a bulk build as the
/// store's restart does it: the same claiming walk only collects the pairs,
/// then each worker sorts one key range and builds its fragment with plain
/// stores, and the fragments are stitched.
fn ablate_rebuild(cfg: &BenchConfig, rows: &mut Vec<Row>) {
    let keys = 2 * cfg.n as u64;
    let pool = PmemPool::create_volatile(keys as usize * 64 + (16 << 20)).expect("pool");
    let chain = KeyChain::create(&pool, 512).expect("chain");
    for k in 0..keys {
        chain.append(k, k + 1).expect("append");
    }
    for &t in &cfg.threads {
        let index: SkipList<u64> = SkipList::new();
        let t0 = Instant::now();
        let stats = rebuild_into(&chain, t, |key, hist| {
            index.insert_with(key, || hist);
        });
        let inserted = t0.elapsed();
        assert_eq!((stats.pairs, index.len()), (keys, keys));

        let mut bulk: SkipList<u64> = SkipList::new();
        let t1 = Instant::now();
        let collect = |run: &mut Vec<(u64, u64)>, _, key, hist| run.push((key, hist));
        let (_, runs) = try_fold_claimed(&chain, t, Vec::with_capacity, collect).expect("walk");
        let (runs, list, parts) = (&runs, &bulk, runs.len() as u64);
        let fragments = try_workers((0..parts).map(|part| {
            move || {
                let range = keys * part / parts..keys * (part + 1) / parts;
                let in_range = runs.iter().flatten().filter(|(key, _)| range.contains(key));
                let mut pairs: Vec<(u64, u64)> = in_range.copied().collect();
                pairs.sort_unstable();
                list.fragment(pairs)
            }
        }))
        .expect("build");
        bulk.adopt(fragments);
        let built = t1.elapsed();
        assert_eq!(bulk.len(), keys);

        for (approach, took) in [("modulo-claiming", inserted), ("bulk-build", built)] {
            rows.push(Row::secs("ablation-a2", approach, t as u64, "rebuild_time", took));
        }
        eprintln!(
            "[a2] rebuild T={t}: {t} concurrent insert_with {:.4}s, bulk build {:.4}s",
            secs(inserted),
            secs(built)
        );
    }
}

/// A3: two-way merge kernels.
fn ablate_merge(cfg: &BenchConfig, rows: &mut Vec<Row>) {
    let n = (cfg.n * 5).max(100_000);
    let a: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 2, i)).collect();
    let b: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 2 + 1, i)).collect();
    let t0 = Instant::now();
    let mut out = Vec::new();
    merge_two(&a, &b, &mut out);
    let seq = t0.elapsed();
    assert_eq!(out.len(), 2 * n);
    rows.push(Row::secs("ablation-a3", "merge-sequential", 1, "merge_time", seq));
    eprintln!("[a3] merge seq: {:.4}s", secs(seq));
    for &t in &cfg.threads {
        let t0 = Instant::now();
        let merged = merge_two_parallel(&a, &b, t);
        let took = t0.elapsed();
        assert_eq!(merged.len(), 2 * n);
        rows.push(Row::secs("ablation-a3", "merge-parallel", t as u64, "merge_time", took));
        eprintln!("[a3] merge T={t}: {:.4}s", secs(took));
    }
}

/// A4: block capacity sweep — append throughput and rebuild cost.
fn ablate_block_cap(cfg: &BenchConfig, rows: &mut Vec<Row>) {
    let keys = cfg.n as u64;
    for cap in [16u64, 128, 512, 4096] {
        let pool = PmemPool::create_volatile(keys as usize * 96 + (16 << 20)).expect("pool");
        let chain = KeyChain::create(&pool, cap).expect("chain");
        let t0 = Instant::now();
        for k in 0..keys {
            chain.append(k, k + 1).expect("append");
        }
        let append = t0.elapsed();
        let index: SkipList<u64> = SkipList::new();
        let t1 = Instant::now();
        rebuild_into(&chain, 4, |key, hist| {
            index.insert_with(key, || hist);
        });
        let rebuild = t1.elapsed();
        rows.push(Row::secs("ablation-a4", format!("block-cap-{cap}"), cap, "append_time", append));
        rows.push(Row::secs(
            "ablation-a4",
            format!("block-cap-{cap}"),
            cap,
            "rebuild_time_t4",
            rebuild,
        ));
        eprintln!("[a4] cap={cap}: append {:.4}s rebuild {:.4}s", secs(append), secs(rebuild));
    }
}
