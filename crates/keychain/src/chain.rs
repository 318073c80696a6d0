//! The block-chain data structure.
//!
//! On-media layout (offsets pool-relative, all words u64):
//!
//! ```text
//! ChainHdr (32 B):          Block (32 B + cap·16 B):
//!   +0  head block            +0  next block (0 = none)
//!   +8  tail hint             +8  used (claim counter, may overshoot cap)
//!   +16 pair count            +16 sequence index (0, 1, 2, …)
//!   +24 capacity ‖ CRC        +24 CRC32C of sequence index
//!                             +32 pairs [key, hist ‖ CRC] × cap
//! ```
//!
//! Integrity codes (media-fault hardening): the chain header's capacity
//! word is self-checksummed (`crc32c(cap) << 32 | cap`) because every
//! bounds computation derives from it — a corrupt capacity would turn every
//! block walk into out-of-bounds access. Each block header stores the
//! CRC32C of its sequence index at +24; [`KeyChain::repair`] quarantines
//! blocks whose header fails this check (see its docs). Block *links* are
//! bounds-validated before any dereference, so a scrambled `next` word
//! truncates the walk instead of faulting.
//!
//! Pairs are self-checking too: the hist word carries
//! `crc32c(key, hist) << 32 | hist`, binding both words of the pair, so a
//! bit flip in either the key or the payload makes the pair vanish (skipped
//! like a torn pair, quarantined by repair) instead of surfacing a wrong
//! mapping. Zero remains the torn-pair sentinel — an encoded word is never
//! zero because its low half is the non-zero payload. The cost is that pair
//! payloads are limited to 32 bits: pool offsets below 4 GiB and biased
//! versions below 2³² (asserted in [`KeyChain::append`]).

use mvkv_pmem::{crc32c_u64s, PPtr, PmemPool, Result};
use std::sync::atomic::Ordering;

/// Default pairs per block. 512 pairs = 8 KiB blocks: new-block allocation
/// is rare (the paper's requirement) yet rebuild work splits evenly.
pub const DEFAULT_BLOCK_CAP: u64 = 512;

const HDR_SIZE: usize = 32;
const BLOCK_HDR: u64 = 32;
const PAIR_SIZE: u64 = 16;

/// Opaque marker for chain header offsets. Zero-sized: the actual header
/// words are accessed via explicit offsets, never through fields.
///
/// pm-resident: typed target of `PPtr<ChainHdr>`; audited by
/// `xtask analyze` against `pm_layout.lock`.
#[repr(C)]
pub struct ChainHdr(());

/// Handle to a persistent key block chain.
///
/// # Examples
///
/// ```
/// use mvkv_keychain::{KeyChain, rebuild_into};
/// use mvkv_pmem::PmemPool;
///
/// let pool = PmemPool::create_volatile(1 << 22)?;
/// let chain = KeyChain::create(&pool, 512)?;
/// chain.append(42, 0x1000)?; // (key, history offset)
/// chain.append(7, 0x2000)?;
///
/// // Parallel reconstruction: thread tid of T claims blocks with
/// // index % T == tid.
/// let stats = rebuild_into(&chain, 4, |key, hist| {
///     let _ = (key, hist); // feed the ephemeral index
/// });
/// assert_eq!(stats.pairs, 2);
/// # Ok::<(), mvkv_pmem::PmemError>(())
/// ```
#[derive(Clone, Copy)]
pub struct KeyChain<'p> {
    pool: &'p PmemPool,
    hdr: u64,
    cap: u64,
}

/// Result of post-crash claim-counter repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    pub blocks: u64,
    /// Blocks whose `used` counter had to be raised to cover valid pairs.
    pub repaired_counters: u64,
    /// Valid pairs discovered.
    pub valid_pairs: u64,
    /// Blocks whose header (sequence index or its CRC) was torn or corrupt:
    /// their pairs were quarantined (hist words zeroed) and the header
    /// rewritten so the chain stays walkable.
    pub quarantined_blocks: u64,
    /// Pairs dropped: those of quarantined blocks (hist word was non-zero),
    /// those failing their CRC, and zero slots below a consumed one (claimed,
    /// never durable or zeroed since). Nothing marks a zero slot, so a later
    /// repair counts it again.
    pub quarantined_pairs: u64,
    /// Chain links cut because they pointed outside the pool, were
    /// misaligned, or formed a cycle. The unreachable tail is leaked to the
    /// allocator rather than surfaced as data.
    pub truncated_links: u64,
}

/// The header capacity word is self-checksummed: `crc32c(cap) << 32 | cap`.
fn encode_cap(cap: u64) -> u64 {
    debug_assert!(cap > 0 && cap <= u32::MAX as u64);
    ((crc32c_u64s(&[cap]) as u64) << 32) | cap
}

/// Decodes a capacity word; `None` means torn or corrupt (an all-zero word
/// never validates: `crc32c(0) != 0`).
fn decode_cap(word: u64) -> Option<u64> {
    let cap = word & u32::MAX as u64;
    (cap > 0 && encode_cap(cap) == word).then_some(cap)
}

/// Pair integrity: `crc32c(key, hist) << 32 | hist` binds the pair's two
/// words together (see module docs).
fn encode_pair(key: u64, hist: u64) -> u64 {
    debug_assert!(hist > 0 && hist >> 32 == 0);
    ((crc32c_u64s(&[key, hist]) as u64) << 32) | hist
}

/// Decodes a pair's hist word against its key word; `None` means torn
/// (zero) or corrupt (CRC mismatch in either word).
fn decode_pair(key: u64, word: u64) -> Option<u64> {
    let hist = word & u32::MAX as u64;
    (hist != 0 && encode_pair(key, hist) == word).then_some(hist)
}

impl<'p> KeyChain<'p> {
    /// Allocates an empty chain with the given block capacity.
    pub fn create(pool: &'p PmemPool, block_cap: u64) -> Result<Self> {
        assert!(block_cap >= 1 && block_cap <= u32::MAX as u64);
        let hdr = pool.alloc(HDR_SIZE)?;
        pool.write_u64(hdr, 0);
        pool.write_u64(hdr + 8, 0);
        pool.write_u64(hdr + 16, 0);
        pool.write_u64(hdr + 24, encode_cap(block_cap));
        pool.persist(hdr, HDR_SIZE);
        pool.fence();
        Ok(KeyChain { pool, hdr, cap: block_cap })
    }

    /// Wraps an existing chain, validating the self-checksummed capacity
    /// word before it is used in any bounds computation. Returns `None` if
    /// the header offset is out of bounds or the capacity word is torn or
    /// corrupt — salvage callers report that as an unrecoverable chain.
    pub fn open_checked(pool: &'p PmemPool, hdr: PPtr<ChainHdr>) -> Option<Self> {
        let off = hdr.off();
        if off == 0
            || !off.is_multiple_of(8)
            || off.checked_add(HDR_SIZE as u64).is_none_or(|end| end > pool.len() as u64)
        {
            return None;
        }
        let cap = decode_cap(pool.read_u64(off + 24))?;
        Some(KeyChain { pool, hdr: off, cap })
    }

    /// Wraps an existing chain. Panics on a corrupt header — library
    /// recovery paths use [`KeyChain::open_checked`] instead.
    pub fn open(pool: &'p PmemPool, hdr: PPtr<ChainHdr>) -> Self {
        Self::open_checked(pool, hdr).expect("corrupt key-chain header (use open_checked to salvage)")
    }

    pub fn pptr(&self) -> PPtr<ChainHdr> {
        PPtr::from_off(self.hdr)
    }

    pub fn block_cap(&self) -> u64 {
        self.cap
    }

    /// Approximate number of appended pairs (exact when quiescent).
    pub fn len(&self) -> u64 {
        self.pool.read_u64(self.hdr + 16)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn block_bytes(&self) -> u64 {
        BLOCK_HDR + self.cap * PAIR_SIZE
    }

    /// Allocates a zeroed block with sequence number `index` and CASes it
    /// into `link_off`. Returns the winning block offset (ours or the
    /// racing winner's).
    fn extend(&self, link_off: u64, index: u64) -> Result<u64> {
        let existing = self.pool.atomic_u64(link_off).load(Ordering::Acquire);
        if existing != 0 {
            return Ok(existing);
        }
        let bytes = self.block_bytes();
        let off = self.pool.alloc(bytes as usize)?;
        // SAFETY: `off` is a fresh allocation of exactly `bytes` bytes.
        unsafe { self.pool.zero_bytes(off, bytes as usize) };
        self.pool.write_u64(off + 16, index);
        // Header integrity code: CRC32C of the sequence index. A torn or
        // media-corrupted header fails this check and repair() quarantines
        // the block instead of trusting its pairs.
        self.pool.write_u64(off + 24, crc32c_u64s(&[index]) as u64);
        self.pool.persist(off, bytes as usize);
        // fence: amortized(new chain block: once per block_cap appends)
        self.pool.fence();
        match self.pool.atomic_u64(link_off).compare_exchange(
            0,
            off,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.pool.persist(link_off, 8);
                // fence: amortized(chain block link publish: once per new block)
                self.pool.fence();
                Ok(off)
            }
            Err(winner) => {
                self.pool.dealloc(off);
                Ok(winner)
            }
        }
    }

    /// Appends a `(key, history)` pair. `hist` must be non-zero (it is a
    /// pmem payload offset, which is never 0) — zero is the torn-pair
    /// sentinel. Lock-free; safe from any number of threads.
    pub fn append(&self, key: u64, hist: u64) -> Result<()> {
        debug_assert_ne!(hist, 0, "history offset 0 is reserved as the invalid marker");
        assert!(hist >> 32 == 0, "pair payloads are limited to 32 bits (see module docs)");
        // Start from the tail hint (or head) and roll forward.
        let mut block = self.pool.atomic_u64(self.hdr + 8).load(Ordering::Acquire);
        if block == 0 {
            block = self.extend(self.hdr, 0)?;
        }
        loop {
            let used = self.pool.atomic_u64(block + 8).fetch_add(1, Ordering::AcqRel);
            if used < self.cap {
                self.pool.persist(block + 8, 8);
                let pair = block + BLOCK_HDR + used * PAIR_SIZE;
                self.pool.write_u64(pair, key);
                self.pool.atomic_u64(pair + 8).store(encode_pair(key, hist), Ordering::Release);
                self.pool.persist(pair, PAIR_SIZE as usize);
                // Deliberately NO fence between the pair persist and the
                // count bump (MOD minimal-ordering audit, DESIGN.md §13).
                // The pair only matters once the caller's durable publish
                // (version stamp / batch done-flag) references the history,
                // and that publish's own fence — issued by this same thread
                // — orders the pair flush first. Until then a crash may
                // leave the count ahead of a torn pair: `len()` is
                // documented approximate, the CRC'd pair encoding rejects
                // the tear, and `repair()` recomputes the true count.
                self.pool.atomic_u64(self.hdr + 16).fetch_add(1, Ordering::AcqRel);
                self.pool.persist(self.hdr + 16, 8);
                return Ok(());
            }
            // Tail block full: move to (or create) the next block.
            let index = self.pool.read_u64(block + 16);
            let next = self.extend(block, index + 1)?;
            // Advance the hint monotonically by block index.
            let hint_cell = self.pool.atomic_u64(self.hdr + 8);
            let hint = hint_cell.load(Ordering::Acquire);
            let hint_idx = if hint == 0 { 0 } else { self.pool.read_u64(hint + 16) };
            if hint == 0 || hint_idx <= index {
                let _ = hint_cell.compare_exchange(hint, next, Ordering::AcqRel, Ordering::Acquire);
            }
            block = next;
        }
    }

    /// True when `off` can hold a whole block without leaving the pool.
    /// Checked before every block dereference: on a corrupt image a
    /// scrambled link must truncate the walk, not fault.
    fn block_link_ok(&self, off: u64) -> bool {
        off != 0
            && off.is_multiple_of(8)
            && off
                .checked_add(self.block_bytes())
                .is_some_and(|end| end <= self.pool.len() as u64)
    }

    /// Iterates `(block_offset, block_index)` from head to tail. Stops at
    /// the first link that points outside the pool or that would extend the
    /// chain beyond the pool's block capacity (a corrupt link cycle).
    pub fn blocks(&self) -> impl Iterator<Item = (u64, u64)> + 'p {
        let this = *self;
        let pool = self.pool;
        let mut off = pool.read_u64(self.hdr);
        // Cycle guard: a healthy chain can't have more blocks than fit in
        // the pool, so a longer walk means a corrupt link loop.
        let mut remaining = pool.len() as u64 / this.block_bytes() + 1;
        std::iter::from_fn(move || {
            if off == 0 || remaining == 0 || !this.block_link_ok(off) {
                return None;
            }
            remaining -= 1;
            let cur = off;
            let index = pool.read_u64(cur + 16);
            off = pool.read_u64(cur);
            Some((cur, index))
        })
    }

    /// Iterates all valid pairs `(key, hist)` of one block. A pair whose
    /// integrity code fails (torn or corrupt in either word) is skipped.
    pub fn block_pairs(&self, block_off: u64) -> impl Iterator<Item = (u64, u64)> + 'p {
        let pool = self.pool;
        let cap = self.cap;
        let used = pool.read_u64(block_off + 8).min(cap);
        let mut slot = 0u64;
        std::iter::from_fn(move || {
            while slot < used {
                let pair = block_off + BLOCK_HDR + slot * PAIR_SIZE;
                slot += 1;
                let word = pool.atomic_u64(pair + 8).load(Ordering::Acquire);
                let key = pool.read_u64(pair);
                if let Some(hist) = decode_pair(key, word) {
                    return Some((key, hist));
                }
            }
            None
        })
    }

    /// Iterates every valid pair in the chain (single-threaded).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + 'p {
        let this = *self;
        self.blocks().flat_map(move |(off, _)| this.block_pairs(off))
    }

    /// Post-crash repair: raises each block's `used` counter to cover the
    /// highest valid pair (a crash may persist a pair but not the counter),
    /// and recomputes the total pair count. Call before any append after a
    /// reopen.
    ///
    /// Media-fault hardening: a block whose *header* is torn or corrupt
    /// (sequence index disagreeing with its CRC, or with the walk position)
    /// is **quarantined** — its pairs cannot be trusted, so every hist word
    /// is zeroed (the torn-pair sentinel), the header is rewritten with the
    /// expected index, and `used` is set to `cap` so no future append lands
    /// in the damaged region. A link that points outside the pool is cut,
    /// truncating the chain there. Repair is idempotent: a second run over
    /// the normalized chain quarantines no block and drops no pair, though
    /// it still counts the zero slots below consumed ones.
    pub fn repair(&self) -> RepairStats {
        let mut stats = RepairStats::default();
        let mut total = 0u64;
        let max_blocks = self.pool.len() as u64 / self.block_bytes() + 1;
        let mut link = self.hdr; // word holding the offset of the next block
        let mut expect_index = 0u64;
        let mut last_block = 0u64;
        loop {
            let block = self.pool.atomic_u64(link).load(Ordering::Acquire);
            if block == 0 {
                break;
            }
            if !self.block_link_ok(block) || stats.blocks >= max_blocks {
                // A scrambled link would send every later read out of
                // bounds (or loop forever): cut the chain here. Any
                // unreachable tail is leaked, never surfaced as data.
                self.pool.atomic_u64(link).store(0, Ordering::Release);
                self.pool.persist(link, 8);
                stats.truncated_links += 1;
                break;
            }
            stats.blocks += 1;
            let index = self.pool.read_u64(block + 16);
            let hdr_ok = index == expect_index
                && self.pool.read_u64(block + 24) == crc32c_u64s(&[index]) as u64;
            if hdr_ok {
                let used_cell = self.pool.atomic_u64(block + 8);
                let persisted = used_cell.load(Ordering::Acquire).min(self.cap);
                let mut highest_valid = 0u64; // slots above this are torn
                let mut zeros = 0u64; // zero slots since the last consumed one
                for slot in 0..self.cap {
                    let pair = block + BLOCK_HDR + slot * PAIR_SIZE;
                    let word = self.pool.atomic_u64(pair + 8).load(Ordering::Acquire);
                    if word == 0 {
                        zeros += 1;
                        continue;
                    }
                    // Any non-zero word means the slot was consumed, so the
                    // claim counter must cover it either way — and every
                    // slot below it was claimed too: a zero there is a pair
                    // lost (an append a crash cut short, or zeroed media).
                    stats.quarantined_pairs += std::mem::take(&mut zeros);
                    highest_valid = slot + 1;
                    if decode_pair(self.pool.read_u64(pair), word).is_some() {
                        stats.valid_pairs += 1;
                    } else {
                        // Corrupt pair: zero it (torn-pair sentinel) so
                        // every later walk agrees it does not exist.
                        self.pool.atomic_u64(pair + 8).store(0, Ordering::Release);
                        self.pool.persist(pair + 8, 8);
                        stats.quarantined_pairs += 1;
                    }
                }
                let needed = persisted.max(highest_valid);
                if needed > persisted || used_cell.load(Ordering::Acquire) > self.cap {
                    used_cell.store(needed, Ordering::Release);
                    self.pool.persist(block + 8, 8);
                    stats.repaired_counters += 1;
                }
                total += self.block_pairs(block).count() as u64;
            } else {
                // Quarantine: the header can't be trusted, so neither can
                // the pairs it frames. Zero every hist word (pairs become
                // torn-pair sentinels) and rewrite a full header so the
                // chain stays walkable and the block is never appended to.
                for slot in 0..self.cap {
                    let pair = block + BLOCK_HDR + slot * PAIR_SIZE;
                    if self.pool.atomic_u64(pair + 8).load(Ordering::Acquire) != 0 {
                        stats.quarantined_pairs += 1;
                        self.pool.atomic_u64(pair + 8).store(0, Ordering::Release);
                    }
                }
                self.pool.persist(block + BLOCK_HDR, (self.cap * PAIR_SIZE) as usize);
                self.pool.atomic_u64(block + 8).store(self.cap, Ordering::Release);
                self.pool.write_u64(block + 16, expect_index);
                self.pool.write_u64(block + 24, crc32c_u64s(&[expect_index]) as u64);
                self.pool.persist(block + 8, 24);
                stats.quarantined_blocks += 1;
            }
            expect_index += 1;
            last_block = block;
            link = block; // the next-link word is the block's first word
        }
        // Reset the tail hint: truncation may have left it pointing at an
        // unreachable block, and appends must never land outside the
        // walkable chain.
        self.pool.write_u64(self.hdr + 8, last_block);
        self.pool.persist(self.hdr + 8, 8);
        self.pool.write_u64(self.hdr + 16, total);
        self.pool.persist(self.hdr + 16, 8);
        self.pool.fence();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn pool() -> PmemPool {
        PmemPool::create_volatile(1 << 24).unwrap()
    }

    #[test]
    fn empty_chain() {
        let p = pool();
        let c = KeyChain::create(&p, 4).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        assert_eq!(c.blocks().count(), 0);
    }

    #[test]
    fn append_within_one_block() {
        let p = pool();
        let c = KeyChain::create(&p, 8).unwrap();
        for i in 1..=5u64 {
            c.append(i * 10, i * 100).unwrap();
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.blocks().count(), 1);
        let pairs: Vec<(u64, u64)> = c.iter().collect();
        assert_eq!(pairs, vec![(10, 100), (20, 200), (30, 300), (40, 400), (50, 500)]);
    }

    #[test]
    fn chain_grows_blocks_with_sequential_indices() {
        let p = pool();
        let c = KeyChain::create(&p, 3).unwrap();
        for i in 1..=10u64 {
            c.append(i, i).unwrap();
        }
        let indices: Vec<u64> = c.blocks().map(|(_, idx)| idx).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "10 pairs / cap 3 = 4 blocks");
        assert_eq!(c.iter().count(), 10);
    }

    #[test]
    fn survives_pool_reopen() {
        let p = pool();
        let hdr;
        {
            let c = KeyChain::create(&p, 4).unwrap();
            hdr = c.pptr();
            for i in 1..=9u64 {
                c.append(i, i + 1000).unwrap();
            }
        }
        // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
        let image = unsafe { p.bytes(0, p.len()).to_vec() };
        let rp = PmemPool::open_image(&image).unwrap();
        let c = KeyChain::open(&rp, hdr);
        assert_eq!(c.block_cap(), 4);
        let pairs: Vec<(u64, u64)> = c.iter().collect();
        assert_eq!(pairs.len(), 9);
        assert_eq!(pairs[0], (1, 1001));
        assert_eq!(pairs[8], (9, 1009));
    }

    #[test]
    fn concurrent_appends_lose_nothing() {
        let p = Arc::new(pool());
        let c = KeyChain::create(&p, 16).unwrap();
        let hdr = c.pptr();
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let c = KeyChain::open(&p, hdr);
                    for i in 0..500u64 {
                        let key = t * 1_000_000 + i;
                        c.append(key, key + 1).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let pairs: Vec<(u64, u64)> = c.iter().collect();
        assert_eq!(pairs.len(), 4000);
        let keys: HashSet<u64> = pairs.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys.len(), 4000, "no duplicates, no losses");
        for (k, h) in pairs {
            assert_eq!(h, k + 1);
        }
        assert_eq!(c.len(), 4000);
    }

    #[test]
    fn repair_raises_torn_used_counter() {
        let p = pool();
        let c = KeyChain::create(&p, 8).unwrap();
        for i in 1..=5u64 {
            c.append(i, i).unwrap();
        }
        // Simulate a crash that lost the counter update but kept the pairs.
        let (block, _) = c.blocks().next().unwrap();
        p.write_u64(block + 8, 2);
        assert_eq!(c.iter().count(), 2, "stale counter hides pairs");
        let stats = c.repair();
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.repaired_counters, 1);
        assert_eq!(c.iter().count(), 5, "repair recovers all valid pairs");
        // Appends continue in fresh slots.
        c.append(99, 99).unwrap();
        assert_eq!(c.iter().count(), 6);
    }

    /// A zeroed line in mid-block loses pairs, and the loss must be
    /// reported: unreported, the salvage open says `Clean` while the lost
    /// keys' versions stop the watermark and the prune takes every later one.
    #[test]
    fn repair_counts_zeroed_pairs_below_a_consumed_slot() {
        let p = pool();
        let c = KeyChain::create(&p, 8).unwrap();
        for i in 1..=6u64 {
            c.append(i, i).unwrap();
        }
        let (block, _) = c.blocks().next().unwrap();
        // Slots 1, 2 and 5 zeroed: slot 3 proves 1 and 2 were claimed; slot
        // 5 reads as a claim a crash cut short, which it may well be.
        for slot in [1, 2, 5] {
            p.write_u64(block + BLOCK_HDR + slot * PAIR_SIZE, 0);
            p.write_u64(block + BLOCK_HDR + slot * PAIR_SIZE + 8, 0);
        }
        let stats = c.repair();
        assert_eq!((stats.valid_pairs, stats.quarantined_pairs), (3, 2));
        assert_eq!(c.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![1, 4, 5]);
    }

    #[test]
    fn repair_clamps_overshot_counter() {
        let p = pool();
        let c = KeyChain::create(&p, 2).unwrap();
        for i in 1..=2u64 {
            c.append(i, i).unwrap();
        }
        // The claim counter overshoots when racing threads fill a block;
        // simulate a persisted overshoot.
        let (block, _) = c.blocks().next().unwrap();
        p.write_u64(block + 8, 7);
        let stats = c.repair();
        assert_eq!(stats.valid_pairs, 2);
        assert_eq!(p.read_u64(block + 8), 2, "counter clamped to cap-bounded valid range");
    }

    #[test]
    fn capacity_word_is_self_checked() {
        let p = pool();
        let c = KeyChain::create(&p, 8).unwrap();
        let hdr = c.pptr();
        assert_eq!(KeyChain::open_checked(&p, hdr).unwrap().block_cap(), 8);
        // Flip one bit of the capacity word: the CRC no longer matches.
        let word = p.read_u64(hdr.off() + 24);
        p.write_u64(hdr.off() + 24, word ^ (1 << 3));
        assert!(KeyChain::open_checked(&p, hdr).is_none(), "corrupt cap must be rejected");
        // A zeroed word (torn line) is also rejected, never read as cap 0.
        p.write_u64(hdr.off() + 24, 0);
        assert!(KeyChain::open_checked(&p, hdr).is_none());
        p.write_u64(hdr.off() + 24, word);
        assert_eq!(KeyChain::open_checked(&p, hdr).unwrap().block_cap(), 8);
    }

    #[test]
    fn open_checked_rejects_out_of_bounds_header() {
        let p = pool();
        assert!(KeyChain::open_checked(&p, PPtr::<ChainHdr>::from_off(p.len() as u64)).is_none());
        assert!(KeyChain::open_checked(&p, PPtr::<ChainHdr>::from_off(u64::MAX - 7)).is_none());
        assert!(KeyChain::open_checked(&p, PPtr::<ChainHdr>::from_off(12)).is_none());
    }

    #[test]
    fn repair_quarantines_torn_header_block() {
        let p = pool();
        let c = KeyChain::create(&p, 4).unwrap();
        for i in 1..=10u64 {
            c.append(i, i + 1000).unwrap();
        }
        let blocks: Vec<u64> = c.blocks().map(|(off, _)| off).collect();
        assert_eq!(blocks.len(), 3);
        // Adversary: scramble the middle block's header — index garbage,
        // CRC stale. Its pairs must not be trusted afterwards.
        p.write_u64(blocks[1] + 16, 0xDEAD_BEEF_0BAD_F00D);
        let stats = c.repair();
        assert_eq!(stats.quarantined_blocks, 1);
        assert_eq!(stats.quarantined_pairs, 4, "all four pairs of the torn block dropped");
        assert_eq!(stats.truncated_links, 0);
        let keys: Vec<u64> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 9, 10], "middle block quarantined, rest intact");
        assert_eq!(c.len(), 6);
        // The chain stays walkable with sequential indices and appendable.
        let indices: Vec<u64> = c.blocks().map(|(_, idx)| idx).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        c.append(99, 99).unwrap();
        assert_eq!(c.iter().count(), 7);
        // Idempotent: nothing left to quarantine on a second pass.
        let again = c.repair();
        assert_eq!(again.quarantined_blocks, 0);
        assert_eq!(again.truncated_links, 0);
    }

    #[test]
    fn repair_detects_transplanted_header() {
        // A header whose CRC is internally consistent but whose index does
        // not match the walk position (a misdirected write of another
        // block's header) must still be quarantined.
        let p = pool();
        let c = KeyChain::create(&p, 2).unwrap();
        for i in 1..=4u64 {
            c.append(i, i).unwrap();
        }
        let blocks: Vec<u64> = c.blocks().map(|(off, _)| off).collect();
        // Overwrite block 1's header with a (valid) copy of block 0's.
        p.write_u64(blocks[1] + 16, 0);
        p.write_u64(blocks[1] + 24, crc32c_u64s(&[0]) as u64);
        let stats = c.repair();
        assert_eq!(stats.quarantined_blocks, 1);
        let keys: Vec<u64> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn repair_truncates_scrambled_link() {
        let p = pool();
        let c = KeyChain::create(&p, 2).unwrap();
        for i in 1..=6u64 {
            c.append(i, i).unwrap();
        }
        let blocks: Vec<u64> = c.blocks().map(|(off, _)| off).collect();
        assert_eq!(blocks.len(), 3);
        // Scramble block 0's next link to point far outside the pool.
        p.write_u64(blocks[0], p.len() as u64 + 4096);
        // The walk must stop rather than fault, before any repair.
        assert_eq!(c.blocks().count(), 1);
        let stats = c.repair();
        assert_eq!(stats.truncated_links, 1);
        assert_eq!(stats.blocks, 1);
        assert_eq!(c.len(), 2, "only block 0's pairs survive");
        // The cut chain accepts fresh appends (a new block is extended).
        c.append(77, 77).unwrap();
        assert_eq!(c.iter().count(), 3);
        let indices: Vec<u64> = c.blocks().map(|(_, idx)| idx).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn blocks_walk_stops_on_link_cycle() {
        let p = pool();
        let c = KeyChain::create(&p, 2).unwrap();
        for i in 1..=4u64 {
            c.append(i, i).unwrap();
        }
        let blocks: Vec<u64> = c.blocks().map(|(off, _)| off).collect();
        // Corrupt block 1's link to point back at block 0: a cycle.
        p.write_u64(blocks[1], blocks[0]);
        assert!(c.blocks().count() as u64 <= p.len() as u64 / (32 + 2 * 16) + 1);
        let stats = c.repair();
        assert_eq!(stats.truncated_links, 1, "cycle cut at the capacity bound");
        c.append(5, 5).unwrap();
    }

    #[test]
    fn corrupt_pair_vanishes_instead_of_misreading() {
        let p = pool();
        let c = KeyChain::create(&p, 8).unwrap();
        c.append(1, 100).unwrap();
        c.append(2, 200).unwrap();
        let (block, _) = c.blocks().next().unwrap();
        // Flip one bit of pair 0's *key* word: the pair CRC binds both
        // words, so the pair must disappear rather than surface a wrong
        // key → history mapping.
        let key_off = block + 32;
        p.write_u64(key_off, p.read_u64(key_off) ^ (1 << 17));
        let pairs: Vec<(u64, u64)> = c.iter().collect();
        assert_eq!(pairs, vec![(2, 200)]);
        let stats = c.repair();
        assert_eq!(stats.quarantined_pairs, 1);
        assert_eq!(stats.valid_pairs, 1);
        // A flipped *hist* word is equally invisible.
        let hist_off = block + 32 + 16 + 8;
        p.write_u64(hist_off, p.read_u64(hist_off) ^ (1 << 2));
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn torn_pair_is_skipped() {
        let p = pool();
        let c = KeyChain::create(&p, 8).unwrap();
        c.append(1, 100).unwrap();
        c.append(2, 200).unwrap();
        // Tear pair 1: hist word zeroed (key persisted, hist did not reach
        // media before the crash).
        let (block, _) = c.blocks().next().unwrap();
        p.write_u64(block + 32 + 16 + 8, 0);
        let pairs: Vec<(u64, u64)> = c.iter().collect();
        assert_eq!(pairs, vec![(1, 100)]);
    }
}
