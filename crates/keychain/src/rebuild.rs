//! Parallel index reconstruction (paper §IV-A, Figure 5a).
//!
//! Every rebuild thread walks the whole chain but *claims* only the blocks
//! whose sequence index is congruent to its thread id modulo the thread
//! count — the pairs are thereby "evenly distributed among the
//! reconstruction threads and can be inserted concurrently in bulk" without
//! any coordination beyond the target structure's own thread safety.

use crate::chain::KeyChain;

/// Outcome of a parallel rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildStats {
    pub blocks: u64,
    pub pairs: u64,
    pub threads: usize,
}

/// A rebuild worker thread panicked — the sink raised on some pair it
/// could not tolerate. The chain itself is untouched (rebuild only reads),
/// so salvage callers report this instead of unwinding the open path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildPanicked;

impl std::fmt::Display for RebuildPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rebuild worker panicked")
    }
}

impl std::error::Error for RebuildPanicked {}

/// Feeds every valid `(key, history)` pair of `chain` to `sink` using
/// `threads` workers with modulo block claiming — the paper's original
/// reconstruction: `sink` is a concurrent insert into the target structure
/// and must be safe for concurrent calls. (The store's own restart takes
/// the pairs as per-worker runs instead, see [`try_fold_claimed`].)
///
/// Panics if a worker panics.
pub fn rebuild_into<F>(chain: &KeyChain<'_>, threads: usize, sink: F) -> RebuildStats
where
    F: Fn(u64, u64) + Sync,
{
    mvkv_obs::span!("mvkv_keychain_rebuild_ns");
    let fold = |_: &mut (), _, key, hist| sink(key, hist);
    let (stats, _) = try_fold_claimed(chain, threads, fold).unwrap_or_else(|e| panic!("{e}"));
    mvkv_obs::counter_add!("mvkv_keychain_rebuild_pairs_total", stats.pairs);
    mvkv_obs::counter_inc!("mvkv_keychain_rebuilds_total");
    stats
}

/// Runs the jobs side by side — the last one on the calling thread, every
/// other on a thread of its own — and returns their results in job order; a
/// panicking job (the caller's own included) yields `Err(RebuildPanicked)`
/// after every spawned one has been joined, rather than unwinding the caller.
pub fn try_workers<R, J>(jobs: impl IntoIterator<Item = J>) -> Result<Vec<R>, RebuildPanicked>
where
    R: Send,
    J: FnOnce() -> R + Send,
{
    let mut jobs: Vec<J> = jobs.into_iter().collect();
    let own = jobs.pop();
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        let own = own.map(|job| std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)));
        handles.into_iter().map(|h| h.join()).chain(own).collect()
    });
    results.into_iter().map(|r| r.map_err(|_| RebuildPanicked)).collect()
}

/// The claiming walk itself: `threads` workers (at least one) each walk the
/// chain, claim the blocks with `index % threads == tid`, and fold every
/// valid pair of a claimed block into their own accumulator, as
/// `fold(acc, seq, key, history)`. `seq` is the pair's position in the
/// chain — it grows along the chain, within a worker and across workers —
/// so `(key, seq)` orders two pairs that carry the same key. Returns the
/// accumulators in worker order.
pub fn try_fold_claimed<A, F>(
    chain: &KeyChain<'_>,
    threads: usize,
    fold: F,
) -> Result<(RebuildStats, Vec<A>), RebuildPanicked>
where
    A: Default + Send,
    F: Fn(&mut A, u64, u64, u64) + Sync,
{
    let threads = threads.max(1);
    let (fold, cap) = (&fold, chain.block_cap());
    let results = try_workers((0..threads).map(|tid| {
        move || {
            let (mut blocks, mut pairs, mut acc) = (0u64, 0u64, A::default());
            for (position, (off, index)) in chain.blocks().enumerate() {
                if index as usize % threads != tid {
                    continue; // claimed by another thread
                }
                blocks += 1;
                let base = position as u64 * cap;
                for (slot, (key, hist)) in chain.block_pairs(off).enumerate() {
                    fold(&mut acc, base + slot as u64, key, hist);
                    pairs += 1;
                }
            }
            (blocks, pairs, acc)
        }
    }))?;
    let mut stats = RebuildStats { blocks: 0, pairs: 0, threads };
    let mut accs = Vec::with_capacity(threads);
    for (blocks, pairs, acc) in results {
        stats.blocks += blocks;
        stats.pairs += pairs;
        accs.push(acc);
    }
    Ok((stats, accs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvkv_pmem::PmemPool;
    use mvkv_skiplist::SkipList;
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn chain_with(p: &PmemPool, n: u64, cap: u64) -> KeyChain<'_> {
        let c = KeyChain::create(p, cap).unwrap();
        for i in 0..n {
            c.append(i * 7 % n, i + 1).unwrap();
        }
        c
    }

    #[test]
    fn all_pairs_are_delivered_exactly_once() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let c = chain_with(&p, 1000, 16);
        for threads in [1usize, 2, 3, 8, 64] {
            let seen = Mutex::new(HashMap::new());
            let stats = rebuild_into(&c, threads, |k, h| {
                *seen.lock().unwrap().entry((k, h)).or_insert(0u32) += 1;
            });
            let seen = seen.into_inner().unwrap();
            assert_eq!(stats.pairs, 1000, "threads={threads}");
            assert_eq!(seen.len(), 1000);
            assert!(seen.values().all(|&c| c == 1), "duplicate delivery at T={threads}");
        }
    }

    #[test]
    fn block_claiming_is_disjoint_and_complete() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let c = chain_with(&p, 100, 4); // 25 blocks
        let stats = rebuild_into(&c, 4, |_, _| {});
        assert_eq!(stats.blocks, 25);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn rebuilds_into_a_skiplist() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let c = KeyChain::create(&p, 32).unwrap();
        let n = 5000u64;
        for k in 0..n {
            c.append(k, k + 1).unwrap();
        }
        let index: SkipList<u64> = SkipList::new();
        let stats = rebuild_into(&c, 8, |k, h| {
            index.insert_with(k, || h);
        });
        assert_eq!(stats.pairs, n);
        assert_eq!(index.len(), n);
        // Sorted order and payloads intact.
        for (expected, (&k, h)) in index.iter().enumerate() {
            assert_eq!(k, expected as u64);
            assert_eq!(h, k + 1);
        }
    }

    #[test]
    fn fold_returns_one_accumulator_per_worker() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let c = chain_with(&p, 100, 4); // 25 blocks
        let (stats, sums) =
            try_fold_claimed(&c, 4, |sum: &mut u64, _, _, hist| *sum += hist).unwrap();
        assert_eq!(stats, RebuildStats { blocks: 25, pairs: 100, threads: 4 });
        assert_eq!(sums.len(), 4, "one accumulator per worker, in worker order");
        assert_eq!(sums.iter().sum::<u64>(), (1..=100).sum::<u64>(), "every pair folded once");
        // Zero workers are clamped to one; a panicking fold is an error.
        let (stats, counts) = try_fold_claimed(&c, 0, |n: &mut u64, _, _, _| *n += 1).unwrap();
        assert_eq!((stats.threads, counts), (1, vec![100]));
        let panicked = try_fold_claimed(&c, 2, |_: &mut (), _, key, _| assert_ne!(key, 7));
        assert_eq!(panicked.unwrap_err(), RebuildPanicked);
    }

    #[test]
    fn seq_orders_the_pairs_as_the_chain_does() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let c = chain_with(&p, 100, 8); // 13 blocks, the last one half full
        for threads in [1usize, 3, 4] {
            type Seen = Vec<(u64, (u64, u64))>;
            let fold = |seen: &mut Seen, seq, key, hist| seen.push((seq, (key, hist)));
            let (_, per_worker) = try_fold_claimed(&c, threads, fold).unwrap();
            assert!(per_worker.iter().all(|seen| seen.windows(2).all(|w| w[0].0 < w[1].0)));
            let mut all: Seen = per_worker.into_iter().flatten().collect();
            all.sort_unstable();
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "a seq was handed out twice");
            assert!(all.into_iter().map(|(_, pair)| pair).eq(c.iter()), "threads={threads}");
        }
    }

    #[test]
    fn workers_return_in_job_order_and_report_panics() {
        let squares = try_workers((0..5u64).map(|i| move || i * i)).unwrap();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
        assert_eq!(try_workers(Vec::<fn() -> u64>::new()).unwrap(), Vec::<u64>::new());
        // A spawned job (1 of 0..3) and the caller's own (2 of 0..3) panicking.
        for bad in [1u64, 2] {
            let jobs = (0..3u64).map(|i| move || assert_ne!(i, bad));
            assert_eq!(try_workers(jobs).unwrap_err(), RebuildPanicked, "job {bad}");
        }
    }

    #[test]
    fn the_last_job_runs_on_the_calling_thread() {
        let ran_on = try_workers((0..3).map(|_| || std::thread::current().id())).unwrap();
        let me = std::thread::current().id();
        assert_eq!(ran_on[2], me);
        assert!(ran_on[0] != me && ran_on[1] != me && ran_on[0] != ran_on[1]);
        assert_eq!(try_workers([|| std::thread::current().id()]).unwrap(), vec![me]);
    }

    #[test]
    fn more_threads_than_blocks_is_fine() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let c = chain_with(&p, 10, 512); // 1 block
        let stats = rebuild_into(&c, 16, |_, _| {});
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.pairs, 10);
    }

    #[test]
    fn empty_chain_rebuild() {
        let p = PmemPool::create_volatile(1 << 22).unwrap();
        let c = KeyChain::create(&p, 8).unwrap();
        let stats = rebuild_into(&c, 4, |_, _| panic!("no pairs expected"));
        assert_eq!(stats, RebuildStats { blocks: 0, pairs: 0, threads: 4 });
    }
}
