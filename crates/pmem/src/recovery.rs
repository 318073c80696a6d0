//! Heap auditing for recovery diagnostics.
//!
//! [`PmemPool::open_file`] already repairs the allocator by scanning the heap
//! (see [`crate::alloc`]); this module exposes the same walk as a read-only
//! audit so applications and tests can assert on post-crash pool health
//! (block counts, leaked bytes, torn tails).

use crate::alloc::{occupancy, walk_heap, HeapItem};
use crate::layout::*;
use crate::pool::PmemPool;

/// Summary of a full heap walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapAudit {
    /// Blocks marked allocated: set occupancy bits and large blocks whose
    /// state word decodes to `Allocated`.
    pub allocated_blocks: u64,
    /// Blocks marked free: clear occupancy bits and free large blocks.
    pub free_blocks: u64,
    /// Damaged metadata, one each: a state word that fails to decode (unknown
    /// tag or CRC mismatch — header persisted, state torn or media-corrupted;
    /// a run's among them), an occupancy word that fails its CRC (its ≤ 32
    /// blocks), a gap behind a header whose size word is damaged. These are
    /// the "leak at most" cases.
    pub indeterminate_blocks: u64,
    /// Payload bytes held by allocated blocks.
    pub allocated_bytes: u64,
    /// Payload bytes reclaimable from free blocks.
    pub free_bytes: u64,
    /// Bytes between the last valid block and the recorded bump cursor
    /// (non-zero only after a torn allocation).
    pub torn_tail_bytes: u64,
    /// Allocated `(blocks, payload bytes)` per size class, in
    /// [`SIZE_CLASSES`] order; the last pair is every larger block.
    pub allocated_by_class: [(u64, u64); NUM_CLASSES + 1],
    /// Free `(blocks, payload bytes)` per size class, likewise.
    pub free_by_class: [(u64, u64); NUM_CLASSES + 1],
    /// Runs per size class (one per refill).
    pub runs_by_class: [u64; NUM_CLASSES],
}

impl HeapAudit {
    /// Counts `blocks` blocks of `payload` bytes each in `class` (the
    /// class count for large blocks).
    fn tally(&mut self, allocated: bool, class: usize, blocks: u64, payload: u64) {
        let by_class =
            if allocated { &mut self.allocated_by_class } else { &mut self.free_by_class };
        by_class[class].0 += blocks;
        by_class[class].1 += blocks * payload;
    }
}

/// Walks the heap of `pool` and classifies every block.
pub fn audit(pool: &PmemPool) -> HeapAudit {
    let bump = pool.read_u64(OFF_BUMP).clamp(HEAP_START, pool.len() as u64);
    let mut out = HeapAudit::default();
    let end = walk_heap(pool, bump, |item| match item {
        HeapItem::Run { run, class, blocks } => {
            out.runs_by_class[class] += 1;
            let payload = SIZE_CLASSES[class] as u64;
            for (bits, mask) in occupancy(pool, run, blocks) {
                // A valid word never has a bit set beyond its run's blocks.
                let Some(used) = mask.map(|mask| u64::from(mask.count_ones())) else {
                    out.indeterminate_blocks += 1;
                    continue;
                };
                out.tally(true, class, used, payload);
                out.tally(false, class, bits.end - bits.start - used, payload);
            }
        }
        HeapItem::Block {
            size,
            state: Some(state @ (BlockState::Allocated | BlockState::Free)),
            ..
        } => out.tally(state == BlockState::Allocated, NUM_CLASSES, 1, size - BLOCK_HEADER),
        HeapItem::Block { .. } | HeapItem::Gap => out.indeterminate_blocks += 1,
    });
    out.torn_tail_bytes = bump - end;
    let sum = |by_class: &[(u64, u64)]| by_class.iter().fold((0, 0), |t, c| (t.0 + c.0, t.1 + c.1));
    (out.allocated_blocks, out.allocated_bytes) = sum(&out.allocated_by_class);
    (out.free_blocks, out.free_bytes) = sum(&out.free_by_class);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_counts_live_and_free() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        let a = pool.alloc(64).unwrap();
        let _b = pool.alloc(64).unwrap();
        let c = pool.alloc(5000).unwrap();
        pool.dealloc(a);
        pool.dealloc(c);
        let audit = audit(&pool);
        // One 64 B run was carved for a/b: `b` stays allocated, `a` plus
        // the BATCH-2 unused blocks of the run plus the large block are free.
        let batch = crate::alloc::REFILL_BATCH;
        let class = class_for(64).unwrap();
        assert_eq!(audit.allocated_blocks, 1);
        assert_eq!(audit.free_blocks, batch);
        assert_eq!(audit.indeterminate_blocks, 0);
        assert_eq!(audit.torn_tail_bytes, 0);
        assert_eq!(audit.allocated_bytes, 64);
        assert!(audit.free_bytes >= 64 + 5000);
        assert_eq!(audit.free_by_class[class], (batch - 1, (batch - 1) * 64));
        assert_eq!(audit.free_by_class[NUM_CLASSES].0, 1, "the large block");
        assert_eq!(audit.runs_by_class.iter().sum::<u64>(), 1);
        assert_eq!(audit.runs_by_class[class], 1);
    }

    #[test]
    fn audit_detects_torn_tail() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        let _a = pool.alloc(64).unwrap();
        let bump = pool.read_u64(OFF_BUMP);
        pool.write_u64(OFF_BUMP, bump + 256); // cursor advanced, header never written
        let audit = audit(&pool);
        assert_eq!(audit.torn_tail_bytes, 256);
        assert_eq!(audit.allocated_blocks, 1);
    }

    #[test]
    fn audit_of_empty_pool_is_zero() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        assert_eq!(audit(&pool), HeapAudit::default());
    }

    #[test]
    fn audit_detects_indeterminate_state() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        let a = pool.alloc(64).unwrap();
        // Corrupt the occupancy word: header persisted but the word torn.
        pool.write_u64(pool.state_word(a), 0x1234);
        let audit = audit(&pool);
        assert_eq!(audit.indeterminate_blocks, 1);
        assert_eq!(audit.allocated_blocks, 0);
    }

    /// The open-time heap walk and the audit classify the same blocks the
    /// same way: state words flipped one block at a time, then whatever the
    /// seeded corruption plans hit (state words, size words, payloads).
    #[test]
    fn open_counts_the_indeterminate_blocks_the_audit_finds() {
        use crate::corrupt::{inject, CorruptOptions};
        let pool = PmemPool::create_crash_sim(1 << 20, crate::CrashOptions::default()).unwrap();
        let sizes = [24usize, 64, 200, 64, 5000, 1024, 64, 300];
        let blocks: Vec<u64> = sizes.iter().map(|&len| pool.alloc(len).unwrap()).collect();
        pool.dealloc(blocks[1]);
        pool.dealloc(blocks[4]);
        pool.sync_all();
        let clean = pool.crash_image().unwrap();
        let check = |image: &[u8], label: &str| {
            let Ok(reopened) = PmemPool::open_image(image) else { return None };
            let found = audit(&reopened).indeterminate_blocks;
            assert_eq!(reopened.indeterminate_blocks_at_open(), found, "{label}");
            Some(found)
        };
        assert_eq!(check(&clean, "clean"), Some(0));
        assert_eq!(pool.indeterminate_blocks_at_open(), 0, "a new pool opened nothing");

        // The distinct state and occupancy words of the blocks (the three
        // 64-byte blocks share one word).
        let mut words: Vec<u64> = blocks.iter().map(|&block| pool.state_word(block)).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), 6);
        let mut flipped = clean.clone();
        for (n, &word) in words.iter().enumerate() {
            // One more word damaged per round: bit 3 is in the integrity
            // code, bit 43 in the tag or mask.
            flipped[word as usize + (n % 2) * 5] ^= 1 << 3;
            assert_eq!(check(&flipped, "state flip"), Some(n as u64 + 1), "{n} flips");
        }
        let mut damaged = 0;
        for seed in 0..64u64 {
            let mut image = clean.clone();
            let plan = CorruptOptions::seeded(seed).bit_flips(40).torn_lines(2).scrambled_blocks(1);
            inject(&mut image, &plan);
            damaged += check(&image, "seeded plan").unwrap_or(0);
        }
        assert!(damaged > 0, "no plan reached a state word: the test checks nothing");
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mvkv-audit-{}-{name}.pool", std::process::id()))
    }

    #[test]
    fn file_backed_indeterminate_block_survives_reopen() {
        let path = temp("indeterminate");
        {
            let pool = PmemPool::create_file(&path, 1 << 20).unwrap();
            let a = pool.alloc(64).unwrap();
            let _b = pool.alloc(128).unwrap();
            pool.dealloc(a);
            let c = pool.alloc(256).unwrap();
            // Crash mid-allocation of c: its run's occupancy word never
            // fully persisted.
            pool.write_u64(pool.state_word(c), 0xDEAD_0001);
            pool.persist(pool.state_word(c), 8);
            pool.sync_all();
        } // unclean close: nothing repairs the state word on the way out
          // The classification must survive a genuine re-mmap, where the
          // reopen's heap scan conservatively keeps the block live.
        let pool = PmemPool::open_file(&path).unwrap();
        let after = audit(&pool);
        // Three runs were carved (64/128/256 classes): the two intact ones
        // hold BATCH-1 free blocks each, plus the explicitly freed `a`; the
        // torn word keeps all of the third live.
        let batch = crate::alloc::REFILL_BATCH;
        assert_eq!(after.indeterminate_blocks, 1, "torn state survives re-mmap");
        assert_eq!(after.allocated_blocks, 1);
        assert_eq!(after.free_blocks, 2 * (batch - 1) + 1);
        assert_eq!(after.torn_tail_bytes, 0);
        // And the pool stays usable: new allocations land beyond the wreck.
        let d = pool.alloc(64).unwrap();
        assert!(d > 0);
        assert_eq!(audit(&pool).indeterminate_blocks, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backed_torn_tail_is_classified_then_repaired_by_reopen() {
        let path = temp("torntail");
        {
            let pool = PmemPool::create_file(&path, 1 << 20).unwrap();
            let _a = pool.alloc(64).unwrap();
            pool.sync_all();
        }
        // Reopen onto a real mmap, then tear an allocation: the bump
        // cursor advances but the block header never gets written.
        let healthy_bump;
        {
            let pool = PmemPool::open_file(&path).unwrap();
            assert_eq!(audit(&pool), audit(&pool), "audit is read-only");
            healthy_bump = pool.read_u64(OFF_BUMP);
            pool.write_u64(OFF_BUMP, healthy_bump + 512);
            pool.persist(OFF_BUMP, 8);
            let torn = audit(&pool);
            assert_eq!(torn.torn_tail_bytes, 512, "tail classified over the live mmap");
            assert_eq!(torn.allocated_blocks, 1);
            pool.sync_all();
        }
        // The next reopen's heap scan re-bases the bump at the tear.
        let pool = PmemPool::open_file(&path).unwrap();
        let repaired = audit(&pool);
        assert_eq!(repaired.torn_tail_bytes, 0, "reopen repairs the tail");
        assert_eq!(repaired.allocated_blocks, 1);
        assert_eq!(pool.read_u64(OFF_BUMP), healthy_bump, "bump re-based to the last valid block");
        std::fs::remove_file(&path).unwrap();
    }
}
