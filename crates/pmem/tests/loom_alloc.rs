//! Bounded model checking of the sharded PM allocator (PR-2's scalable
//! write path): shard refill racing a sibling steal.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p mvkv-pmem --release`
//!
//! Under the model, `shard_id()` pins the main thread to shard 0 and the
//! spawned thread to shard 1 (deterministic per `model_thread_index`), so
//! both threads start with empty free lists and race the heap-cursor CAS in
//! `refill_and_alloc` while the steal scan probes each other's shards.

#![cfg(loom)]

use mvkv_pmem::pool::PmemPool;
use mvkv_sync::sync::Arc;
use mvkv_sync::{model, thread};

/// Two threads allocate concurrently from a fresh pool: the blocks they get
/// must be disjoint on every interleaving of refill, park, and steal, and a
/// stamp written through one block must never be clobbered by the other.
#[test]
fn concurrent_alloc_refill_vs_steal_yields_disjoint_blocks() {
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        let p2 = pool.clone();
        let t = thread::spawn(move || {
            let off = p2.alloc(64).unwrap();
            p2.write_u64(off, 0xBBBB_BBBB);
            off
        });
        let mine = pool.alloc(64).unwrap();
        pool.write_u64(mine, 0xAAAA_AAAA);
        let theirs = t.join().unwrap();

        assert_ne!(mine, theirs, "allocator handed out the same block twice");
        assert!(
            mine.abs_diff(theirs) >= 64,
            "blocks overlap: {mine:#x} vs {theirs:#x}"
        );
        assert_eq!(pool.read_u64(mine), 0xAAAA_AAAA, "stamp clobbered by sibling alloc");
        assert_eq!(pool.read_u64(theirs), 0xBBBB_BBBB);
    });
}

/// Alloc/dealloc churn racing a fresh allocation: a freed block may be
/// recycled by either thread but never handed to both.
#[test]
fn dealloc_recycling_races_are_exclusive() {
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        let warm = pool.alloc(64).unwrap();
        pool.dealloc(warm);
        let p2 = pool.clone();
        let t = thread::spawn(move || p2.alloc(64).unwrap());
        let mine = pool.alloc(64).unwrap();
        let theirs = t.join().unwrap();
        assert_ne!(mine, theirs, "recycled block handed to both threads");
    });
}

/// More threads than shards (`num_shards()` is pinned to 2 under loom, and
/// two spawned threads plus the main thread map to shards 1, 0, 0): two
/// threads *share* shard 0, so the same-shard fast path races itself while
/// shard 1 refills and steals. Every interleaving must still hand out
/// disjoint blocks.
#[test]
fn more_threads_than_shards_stay_disjoint() {
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        // Warm one freed block so shared-shard pops race over a non-empty
        // list, not just over the refill CAS.
        let warm = pool.alloc(64).unwrap();
        pool.dealloc(warm);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = pool.clone();
                thread::spawn(move || p.alloc(64).unwrap())
            })
            .collect();
        let mine = pool.alloc(64).unwrap();
        let mut offs = vec![mine];
        for h in handles {
            offs.push(h.join().unwrap());
        }
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 3, "allocator handed out the same block twice: {offs:?}");
    });
}

/// A bit set beside a bit cleared in one occupancy word: the main thread
/// (shard 0) allocates block 2 of the run from its own list while the
/// spawned thread (shard 1) frees block 1 of the same run. Both flips are
/// CASes on one word; on every interleaving the final word must decode (its
/// CRC matches its mask) and its mask must be exactly the live blocks.
#[test]
fn alloc_and_free_in_one_occupancy_word_keep_it_exact() {
    use mvkv_pmem::layout::{class_for, decode_occupancy, run_block, HEAP_START};
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        let first = pool.alloc(64).unwrap();
        let freed = pool.alloc(64).unwrap();
        let word = pool.state_word(first);
        assert_eq!(pool.state_word(freed), word, "one run, one occupancy word");
        let p2 = pool.clone();
        let t = thread::spawn(move || p2.dealloc(freed));
        let third = pool.alloc(64).unwrap();
        t.join().unwrap();

        let block0 = run_block(HEAP_START, class_for(64).unwrap(), 0);
        let bit = |off: u64| 1u32 << ((off - block0) / 64);
        let mask = decode_occupancy(HEAP_START, 0, pool.read_u64(word));
        assert_eq!(mask, Some(bit(first) | bit(third)), "word {:#x}", pool.read_u64(word));
        assert_ne!(third, freed, "the block being freed was handed out");
    });
}
