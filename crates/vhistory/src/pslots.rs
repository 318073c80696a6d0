//! Persistent-memory history storage for PSkipList.
//!
//! On-media layout (offsets pool-relative). Every block is `96 << k` bytes —
//! exactly an allocator size class up to 3 KiB, an exact large block beyond —
//! of which the first 24 are a header:
//!
//! ```text
//! History = segment 0 (96 B):    Segment k ≥ 1 (96 << k B):
//!   +0  pending (u32)              +0  next segment offset (0 = none)
//!   +4  tail (u32)                 +8  base slot index
//!   +8  segment 1 offset (0=none)  +16 CRC32C of (capacity, base)
//!   +16 CRC32C of (3, 0)           +24 entries × ((4 << k) − 1)
//!   +24 entries × 3
//! ```
//!
//! An entry is `[version, value, crc_done]`, 24 bytes. A key's first three
//! versions live in the history block itself: creating a key is one
//! allocation and one flush, and reading it follows no link.
//!
//! Segment geometry is deterministic (see [`crate::slots`]), so `base` is
//! redundant and the capacity is not stored at all — it follows from the
//! level, which a walk always knows. `base` is stored anyway, checksummed
//! together with the capacity in the header word behind it, and verified by
//! recovery walks ([`PHistory::fill_checked`]): a segment whose recorded base
//! disagrees with the deterministic expectation or whose header CRC fails is
//! treated as unlinked, so a scrambled `next` pointer can never send recovery
//! through out-of-bounds memory. The history block carries the same check
//! word over segment 0's `(3, 0)`: it is bounds-checked as a whole
//! ([`PHistory::open_checked`]), and a block that was zeroed or overwritten on
//! the media fails the word and backs no slot, instead of reading as a key
//! that was never written.

use crate::slots::{
    claim_index, locate, seg_base, seg_capacity, Cursor, Entry, Slots, ENTRY_SIZE, SEG_HDR_SIZE,
};
use mvkv_pmem::layout::{class_for, SIZE_CLASSES};
use mvkv_pmem::{PPtr, PmemPool, Result};
use mvkv_sync::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::mem::{offset_of, size_of};

/// The persistent history block: the counters, the link to segment 1 and
/// segment 0's entries. The counters are 32 bits each and share a word: a
/// history holds at most 2^32 − 1 slots ([`claim_index`]).
///
/// pm-resident: typed target of `PPtr<HistoryHdr>`; audited by
/// `xtask analyze` against `pm_layout.lock`.
#[repr(C)]
pub struct HistoryHdr {
    pending: AtomicU32,
    tail: AtomicU32,
    /// Offset of segment 1 (0 = none).
    next: AtomicU64,
    /// [`geometry_crc`] of segment 0, the word every segment has here.
    check: AtomicU64,
    inline: [Entry; 3],
}

/// Byte offsets in a linked segment's header, whose first word is the link:
/// the base slot index, and the check word where the history block has its.
const SEG_BASE: u64 = 8;
pub(crate) const SEG_CHECK: u64 = offset_of!(HistoryHdr, check) as u64;

const _: () = assert!(offset_of!(HistoryHdr, inline) == SEG_HDR_SIZE);
const _: () = assert!(SEG_CHECK as usize + 8 == SEG_HDR_SIZE);
const _: () = assert!(size_of::<HistoryHdr>() as u64 == seg_bytes(0));

/// Bytes of segment `k`'s block, header included: `96 << k`.
const fn seg_bytes(k: u32) -> u64 {
    SEG_HDR_SIZE as u64 + seg_capacity(k) * ENTRY_SIZE as u64
}

// Every segment small enough for an allocator size class fills one exactly.
const _: () = {
    let mut k = 0;
    while let Some(class) = class_for(seg_bytes(k) as usize) {
        assert!(SIZE_CLASSES[class] as u64 == seg_bytes(k));
        k += 1;
    }
};

/// The check word of segment `k`'s header: CRC32C of `(capacity, base)`,
/// never zero.
fn geometry_crc(k: u32) -> u64 {
    mvkv_pmem::crc32c_u64s(&[seg_capacity(k), seg_base(k)]) as u64
}

/// A handle to one key's persistent history. Cheap to construct (two words);
/// the skip-list index stores just the block offset.
#[derive(Clone, Copy)]
pub struct PHistory<'p> {
    pool: &'p PmemPool,
    hdr: u64,
}

impl<'p> PHistory<'p> {
    /// Allocates and zero-initializes a fresh history in `pool`.
    pub fn create(pool: &'p PmemPool) -> Result<Self> {
        let h = PHistory { pool, hdr: pool.alloc(size_of::<HistoryHdr>())? };
        h.format();
        // Deliberately NO fence (MOD minimal-ordering audit, DESIGN.md
        // §13): a fresh history is unreachable until the creating thread
        // publishes it (key-chain append + version stamp), and that
        // publish's fence — same thread — orders this zeroing flush first.
        // A crash before the publish leaves the block unreferenced; the
        // allocator's leak-at-most scan reclaims nothing but also
        // resurrects nothing, so stale bytes can never be observed. (Live
        // threads reach the history through the index before that publish;
        // what a writer among them leaves open is DESIGN.md §13.3, "Inline
        // slots and other threads".)
        Ok(h)
    }

    /// Makes the block an empty history: flushed, not fenced. Freed blocks
    /// are recycled, so the counters, the link and — so that no stale stamp
    /// reads published — the inline entries are all cleared.
    fn format(&self) {
        // SAFETY: the block is `size_of::<HistoryHdr>()` bytes (`block`),
        // and nobody else reaches it: fresh from the allocator, or under
        // recovery's exclusive access.
        unsafe { self.pool.zero_bytes(self.hdr, size_of::<HistoryHdr>()) };
        self.pool.write_u64(self.hdr + offset_of!(HistoryHdr, check) as u64, geometry_crc(0));
        self.pool.persist(self.hdr, size_of::<HistoryHdr>());
    }

    /// Recovery-only: a block whose check word failed ([`PHistory::
    /// fill_checked`] backs no slot) holds nothing that can be trusted;
    /// make it an empty history again so the key can be written to.
    pub fn reformat(&self) {
        self.format();
        self.pool.fence();
    }

    /// Wraps an existing history at `hdr` (e.g. found via the key chain).
    pub fn open(pool: &'p PmemPool, hdr: PPtr<HistoryHdr>) -> Self {
        PHistory { pool, hdr: hdr.off() }
    }

    /// [`PHistory::open`] with bounds validation: a history offset read
    /// from corrupt media (e.g. a bit-flipped key-chain pair) must not
    /// cause an out-of-bounds access to the counters or the inline entries.
    /// Returns `None` when `hdr` cannot hold the whole history block inside
    /// the pool; deeper damage (garbage counters, unlinked segments) is
    /// tolerated by the checked accessors and classified by the recovery
    /// scan instead.
    pub fn open_checked(pool: &'p PmemPool, hdr: PPtr<HistoryHdr>) -> Option<Self> {
        let off = hdr.off();
        if off == 0
            || !off.is_multiple_of(8)
            || off
                .checked_add(size_of::<HistoryHdr>() as u64)
                .is_none_or(|end| end > pool.len() as u64)
        {
            return None;
        }
        Some(PHistory { pool, hdr: off })
    }

    /// The persistent pointer to this history's block.
    pub fn pptr(&self) -> PPtr<HistoryHdr> {
        PPtr::from_off(self.hdr)
    }

    pub fn pool(&self) -> &'p PmemPool {
        self.pool
    }

    #[inline]
    fn block(&self) -> &'p HistoryHdr {
        // SAFETY: `hdr` is a block `create` sized for a `HistoryHdr` or one
        // `open_checked` proved in-pool and 8-aligned (`open` trusts offsets
        // the store published itself); every field is an atomic word with no
        // invalid bit pattern, valid for as long as the pool is mapped.
        unsafe { self.pool.typed(self.hdr) }
    }

    /// Pool offset of the word linking segment 1.
    #[inline]
    pub(crate) fn next_off(&self) -> u64 {
        self.hdr + offset_of!(HistoryHdr, next) as u64
    }

    /// Walks to segment `k ≥ 1`, allocating missing links (CAS; losers
    /// dealloc) — the allocate-and-link path of `claim`.
    fn segment_off(&self, k: u32) -> u64 {
        let mut link_off = self.next_off();
        for level in 1..=k {
            let mut seg = self.pool.atomic_u64(link_off).load(Ordering::Acquire);
            if seg == 0 {
                seg = match self.alloc_segment(level, link_off) {
                    Ok(off) => off,
                    Err(e) => panic!("pmem exhausted while extending history: {e}"),
                };
            }
            link_off = seg; // next pointer is the segment's first word
        }
        link_off
    }

    fn alloc_segment(&self, k: u32, link_off: u64) -> Result<u64> {
        let bytes = seg_bytes(k) as usize;
        let off = self.pool.alloc(bytes)?;
        // Recycled blocks may hold stale data; stamp words MUST read 0
        // before the segment is linked, so clear everything.
        // SAFETY: `off` is a fresh allocation of exactly `bytes` bytes.
        unsafe { self.pool.zero_bytes(off, bytes) };
        self.pool.write_u64(off + SEG_BASE, seg_base(k));
        self.pool.write_u64(off + SEG_CHECK, geometry_crc(k));
        self.pool.persist(off, bytes);
        // Unlike the history block, a segment is linked into a history other
        // threads already reach: both fences stay.
        // fence: amortized(new slot segment: once per segment capacity)
        self.pool.fence();
        let link = self.pool.atomic_u64(link_off);
        match link.compare_exchange(0, off, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                self.pool.persist(link_off, 8);
                // fence: amortized(segment link publish: once per new segment)
                self.pool.fence();
                Ok(off)
            }
            Err(winner) => {
                // Lost the race: free ours, adopt the winner's (paper §IV-B).
                self.pool.dealloc(off);
                Ok(winner)
            }
        }
    }

    /// Pool offset of a resolved slot.
    #[inline]
    pub(crate) fn off_of(&self, slot: &Entry) -> u64 {
        (slot as *const Entry as usize).wrapping_sub(self.pool.base_ptr(0) as usize) as u64
    }

    /// True if `seg` is a plausible, uncorrupted segment for `level ≥ 1`:
    /// in bounds for the level's full entry array, 8-aligned, recorded base
    /// matching the deterministic expectation, and header CRC (which covers
    /// the level's capacity) valid. Recovery relies on this to survive
    /// scrambled link words — every check runs *before* any dereference of
    /// the candidate offset.
    fn segment_header_ok(&self, level: u32, seg: u64) -> bool {
        seg.is_multiple_of(8)
            && seg.checked_add(seg_bytes(level)).is_some_and(|end| end <= self.pool.len() as u64)
            && self.pool.read_u64(seg + SEG_BASE) == seg_base(level)
            && self.pool.read_u64(seg + SEG_CHECK) == geometry_crc(level)
    }

    /// The one chain walk behind both fills: segment 0 is this block, then
    /// follows links from where `cur` stopped until it covers `n` slots, the
    /// chain ends, or (`CHECKED`) a header fails validation.
    #[inline(always)]
    fn fill_from<'a, const CHECKED: bool>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        if cur.levels() == 0 && n > 0 {
            if CHECKED && self.block().check.load(Ordering::Acquire) != geometry_crc(0) {
                return 0; // zeroed or overwritten: not a history block any more
            }
            // SAFETY: the history block holds `seg_capacity(0)` all-atomic
            // entries for as long as the pool is mapped (see `block`).
            unsafe { cur.push(self.block().inline.as_ptr(), self.next_off() as usize) };
        }
        // The next link: the history's `next` word behind segment 0, the
        // first word of the last resolved segment after that.
        let mut link_off = cur.resume() as u64;
        let base = self.pool.base_ptr(0);
        while cur.covered() < n && !cur.is_full() {
            let seg = self.pool.atomic_u64(link_off).load(Ordering::Acquire);
            if seg == 0 || (CHECKED && !self.segment_header_ok(cur.levels(), seg)) {
                break;
            }
            // SAFETY: segment `levels()` holds `seg_capacity(levels())`
            // zero-initialized, all-atomic entries after its 24-byte header
            // for as long as the pool is mapped. CHECKED: segment_header_ok
            // just proved `[seg, seg + (96 << levels))` in-pool and
            // 8-aligned, before any dereference. Unchecked: `seg` is a link
            // word that `alloc_segment` CAS-published after sizing and
            // zeroing exactly that block (live stores trust their own links;
            // anything read from media after a crash goes through the
            // checked fill first).
            unsafe {
                cur.push(
                    base.wrapping_add(seg as usize + SEG_HDR_SIZE) as *const Entry,
                    seg as usize,
                )
            };
            link_off = seg;
        }
        n.min(cur.covered())
    }

    /// [`Slots::fill`] for media that may be damaged: validates each header
    /// exactly once (the history block's check word; a linked segment's
    /// bounds, geometry and CRC) before resolving it, and stops at the first
    /// that fails or was never linked. Returns how many of the `n` slots have
    /// valid backing — recovery walks bound their loops by it, never by a
    /// `pending` word they cannot trust, so no torn claim is materialized
    /// and no scrambled link is dereferenced.
    pub fn fill_checked<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<true>(cur, n)
    }

    /// Recovery-only: `cur` is where a checked fill of the whole chain
    /// (`n = u64::MAX`) stopped, so the link behind its last segment is zero
    /// or failed validation. Returns the pool offset of a failed one: the
    /// claim that next reaches the slot behind the backing would follow it
    /// unchecked.
    pub(crate) fn failed_link(&self, cur: &Cursor<'_>) -> Option<u64> {
        if cur.levels() == 0 || cur.is_full() {
            return None; // not a history block / no link left to fail
        }
        let link_off = cur.resume() as u64;
        (self.pool.atomic_u64(link_off).load(Ordering::Acquire) != 0).then_some(link_off)
    }

    /// Recovery-only: zeroes the link [`PHistory::failed_link`] finds —
    /// flushed, the caller fences — so that claim allocates a fresh segment.
    /// Whatever the word pointed at is leaked. Returns whether it wrote.
    pub(crate) fn cut_failed_link(&self, cur: &Cursor<'_>) -> bool {
        let Some(link_off) = self.failed_link(cur) else { return false };
        self.pool.atomic_u64(link_off).store(0, Ordering::Release);
        self.pool.persist(link_off, 8);
        true
    }

    /// Recovery-only: force `pending` and `tail` to recovered values
    /// (persisted).
    pub fn force_counters(&self, pending: u32, tail: u32) {
        let block = self.block();
        block.pending.store(pending, Ordering::Release);
        block.tail.store(tail, Ordering::Release);
        self.pool.persist(self.hdr, offset_of!(HistoryHdr, next));
        self.pool.fence();
    }

    /// Raw header fields for recovery audits: `(pending, tail, segment 1)`.
    pub fn raw_header(&self) -> (u64, u64, u64) {
        let block = self.block();
        (
            block.pending.load(Ordering::Acquire) as u64,
            block.tail.load(Ordering::Acquire) as u64,
            block.next.load(Ordering::Acquire),
        )
    }
}

impl<'p> Slots for PHistory<'p> {
    type Slot = &'p Entry;

    fn claim(&self) -> (u64, &'p Entry) {
        let block = self.block();
        let idx = claim_index(&block.pending);
        let (k, pos) = locate(idx);
        if k == 0 {
            // The first three slots are this block: no allocation, no link.
            return (idx, &block.inline[pos as usize]);
        }
        let off = self.segment_off(k) + (SEG_HDR_SIZE as u64 + pos * ENTRY_SIZE as u64);
        // SAFETY: segment `k` was sized for `seg_capacity(k) > pos` entries
        // by `alloc_segment`, so `off` is in-bounds and 8-aligned; Entry is
        // all-atomic words with no invalid bit patterns.
        (idx, unsafe { self.pool.typed::<Entry>(off) })
    }

    fn pending(&self) -> u64 {
        self.block().pending.load(Ordering::Acquire) as u64
    }

    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<false>(cur, n)
    }

    fn tail_ref(&self) -> &AtomicU32 {
        &self.block().tail
    }

    // The persist_* hooks issue flushes only; ordering is provided by the
    // single `publish_fence` of the coalesced append schedule (History::
    // append / append_prepare + append_publish).

    fn persist_entry(&self, slot: &Entry) {
        self.pool.persist(self.off_of(slot), offset_of!(Entry, crc_done));
    }

    fn persist_stamp(&self, slot: &Entry) {
        self.pool.persist(self.off_of(slot) + offset_of!(Entry, crc_done) as u64, 8);
    }

    fn persist_tail(&self) {
        self.pool.persist(self.hdr + offset_of!(HistoryHdr, tail) as u64, 4);
    }

    fn persist_pending(&self) {
        self.pool.persist(self.hdr, 4);
    }

    fn publish_fence(&self) {
        self.pool.fence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::create_volatile(1 << 22).unwrap()
    }

    /// Allocates `bytes`, fills them with ones and frees them: the next
    /// allocation of that size class gets the dirty block back.
    fn dirty_block(p: &PmemPool, bytes: u64) -> u64 {
        let dirty = p.alloc(bytes as usize).unwrap();
        for word in 0..bytes / 8 {
            p.write_u64(dirty + word * 8, u64::MAX);
        }
        p.dealloc(dirty);
        dirty
    }

    #[test]
    fn create_is_zeroed_even_after_recycling() {
        let p = pool();
        // A recycled history block must come back all-zero — counters, link
        // and the three inline entries — or a stale stamp would read
        // published and a stale link would be followed.
        let dirty = dirty_block(&p, seg_bytes(0));
        let h = PHistory::create(&p).unwrap();
        assert_eq!(h.pptr().off(), dirty, "block should be recycled");
        assert_eq!(h.raw_header(), (0, 0, 0));
        for off in (0..seg_bytes(0)).step_by(8).filter(|&off| off != SEG_CHECK) {
            assert_eq!(p.read_u64(dirty + off), 0, "word at +{off}");
        }
        assert_eq!(p.read_u64(dirty + SEG_CHECK), geometry_crc(0), "check word");
        for want in 0..seg_capacity(0) {
            let (idx, e) = h.claim();
            assert_eq!((idx, e.load_if_done()), (want, None));
        }
        assert_eq!(h.raw_header(), (3, 0, 0), "three claims allocate and link nothing");
    }

    #[test]
    fn a_history_block_fills_one_size_class_allocation() {
        let p = pool();
        let before = p.alloc_stats();
        let h = PHistory::create(&p).unwrap();
        let block = size_of::<HistoryHdr>();
        assert_eq!(p.block_capacity(h.pptr().off()), block, "no padding behind the entries");
        assert_eq!(block, SEG_HDR_SIZE + 3 * ENTRY_SIZE);
        for _ in 0..seg_capacity(0) {
            h.claim();
        }
        let after = p.alloc_stats();
        assert_eq!(after.live_blocks - before.live_blocks, 1);
        // The fourth claim is the first to allocate: segment 1, a block of
        // twice the size, filled exactly.
        h.claim();
        let (_, _, seg1) = h.raw_header();
        assert_eq!(p.block_capacity(seg1) as u64, seg_bytes(1));
        assert_eq!(p.alloc_stats().live_blocks - before.live_blocks, 2);
    }

    /// The claim as a ledger (DESIGN.md §13.3): what one key's history holds
    /// in PM and what it paid in fences — the geometry of the 32-byte-entry
    /// layout scaled by 24/32, with no per-block allocator header since
    /// layout v5 (a run header is 32 bytes per refill of up to 64 blocks,
    /// not the history's), its allocations and fence schedule kept.
    #[test]
    fn a_history_holds_96_shl_k_byte_blocks_for_the_same_allocations_and_fences() {
        use crate::history::History;
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        // Fences that are the history's: a refill fences once, whatever the
        // block is for, and is not counted.
        let spent = || {
            let stats = p.alloc_stats();
            let refills: u64 = stats.shard_refills.iter().sum();
            (stats.total_allocs, p.fence_count().unwrap() - refills)
        };
        let (allocs0, fences0) = spent();
        let h = History::new(PHistory::create(&p).unwrap());
        let mut ledger = Vec::new();
        for n in 1..=26u64 {
            h.append(n, n);
            // The chain: the history block, then every linked segment.
            let (mut blocks, mut bytes) = (0u64, 0u64);
            let mut block = h.slots().pptr().off();
            let mut link = h.slots().next_off();
            loop {
                blocks += 1;
                bytes += p.block_capacity(block) as u64;
                block = p.read_u64(link);
                link = block;
                if block == 0 {
                    break;
                }
            }
            if [1, 3, 4, 10, 11, 25, 26].contains(&n) {
                let (allocs, fences) = spent();
                ledger.push((n, blocks, allocs - allocs0, bytes, fences - fences0));
            }
        }
        // (versions, blocks, allocations, bytes, publish + adoption fences):
        // one fence per append, two more per linked segment.
        let table = [
            (1, 1, 1, 96, 1),
            (3, 1, 1, 96, 3),
            (4, 2, 2, 288, 4 + 2),
            (10, 2, 2, 288, 10 + 2),
            (11, 3, 3, 672, 11 + 4),
            (25, 3, 3, 672, 25 + 4),
            (26, 4, 4, 1440, 26 + 6),
        ];
        assert_eq!(ledger, table);
    }

    #[test]
    fn claim_and_entry_roundtrip() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for i in 0..100u64 {
            let (idx, e) = h.claim();
            assert_eq!(idx, i);
            e.version.store(i + 1, Ordering::Relaxed);
            e.value.store(i * 7, Ordering::Relaxed);
            e.crc_done.store(Entry::stamp(i + 1, i * 7), Ordering::Release);
        }
        let mut cur = Cursor::new();
        h.fill(&mut cur, 100);
        for i in 0..100u64 {
            assert_eq!(cur.entry(i).load_if_done(), Some((i + 1, i * 7)));
        }
    }

    #[test]
    fn fresh_segment_is_zeroed_even_after_recycling() {
        let p = pool();
        // Dirty a block of segment 1's size, free it, then claim into it:
        // the recycled block must come back all-zero apart from the geometry
        // words, or a stale stamp would read published.
        let bytes = seg_bytes(1);
        let dirty = dirty_block(&p, bytes);
        let h = PHistory::create(&p).unwrap();
        for _ in 0..seg_capacity(0) {
            h.claim();
        }
        let (_, e) = h.claim();
        let (_, _, seg1) = h.raw_header();
        assert_eq!(seg1, dirty, "block should be recycled");
        assert_eq!(p.read_u64(seg1), 0, "next link");
        assert_eq!(e.load_if_done(), None);
        for off in (SEG_HDR_SIZE as u64..bytes).step_by(8) {
            assert_eq!(p.read_u64(seg1 + off), 0, "entry word at +{off}");
        }
    }

    #[test]
    fn history_survives_pool_reopen() {
        let p = pool();
        let hdr;
        {
            let h = PHistory::create(&p).unwrap();
            hdr = h.pptr();
            for i in 0..20u64 {
                let (_, e) = h.claim();
                h.persist_pending();
                e.version.store(i + 1, Ordering::Relaxed);
                e.value.store(i, Ordering::Relaxed);
                h.persist_entry(e);
                e.crc_done.store(Entry::stamp(i + 1, i), Ordering::Release);
                h.persist_stamp(e);
            }
        }
        // SAFETY: [0, len) is in bounds; no writer races the snapshot.
        let image = unsafe { p.bytes(0, p.len()).to_vec() };
        let reopened = PmemPool::open_image(&image).unwrap();
        let h = PHistory::open(&reopened, hdr);
        assert_eq!(h.pending(), 20);
        let mut cur = Cursor::new();
        h.fill(&mut cur, 20);
        for i in 0..20u64 {
            assert_eq!(cur.entry(i).load_if_done(), Some((i + 1, i)));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_claims_unique() {
        let p = std::sync::Arc::new(pool());
        let h = PHistory::create(&p).unwrap();
        let hdr = h.pptr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let h = PHistory::open(&p, hdr);
                    (0..300).map(|_| h.claim().0).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|t| t.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..2400).collect::<Vec<u64>>());
    }

    #[test]
    fn open_checked_bounds_the_whole_block() {
        let p = pool();
        let len = p.len() as u64;
        let open = |off| PHistory::open_checked(&p, PPtr::from_off(off)).is_some();
        assert!(open(len - seg_bytes(0)), "the last block that fits");
        // Room for the counters and the link but not for the inline entries.
        assert!(!open(len - seg_bytes(0) + 8));
        assert!(!open(len - SEG_HDR_SIZE as u64));
        assert!(!open(0) && !open(len) && !open(u64::MAX - 7) && !open(4097));
    }

    #[test]
    fn segment_headers_record_geometry() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for _ in 0..30 {
            h.claim();
        }
        // Walk the chain manually and verify the recorded base and the
        // check word that covers it and the capacity.
        let (_, _, mut seg) = h.raw_header();
        let mut k = 1u32;
        while seg != 0 {
            assert_eq!(p.read_u64(seg + SEG_BASE), seg_base(k));
            assert_eq!(p.read_u64(seg + SEG_CHECK), geometry_crc(k), "segment {k} header crc");
            assert_eq!(p.block_capacity(seg) as u64, seg_bytes(k), "segment {k} fills its block");
            seg = p.read_u64(seg);
            k += 1;
        }
        assert_eq!(k, 4, "30 slots are 3 inline + segments of 7 + 15 + 31");
    }

    /// How many of `n` slots a checked fill finds valid backing for.
    fn backed(h: &PHistory<'_>, n: u64) -> u64 {
        h.fill_checked(&mut Cursor::new(), n)
    }

    #[test]
    fn checked_fill_rejects_corrupt_segment_links() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for i in 0..12u64 {
            let (_, e) = h.claim();
            e.version.store(i + 1, Ordering::Relaxed);
            e.crc_done.store(Entry::stamp(i + 1, 0), Ordering::Release);
        }
        assert_eq!(backed(&h, 12), 12);
        // Scramble segment 2's header crc: its slots become unreachable to
        // recovery, the inline slots and segment 1's stay fine — the backing
        // ends exactly at segment 2's first slot.
        let (_, _, seg1) = h.raw_header();
        let seg2 = p.read_u64(seg1);
        let good_crc = p.read_u64(seg2 + SEG_CHECK);
        p.write_u64(seg2 + SEG_CHECK, good_crc ^ 0xFF);
        assert_eq!(backed(&h, 10), 10, "segments 0 and 1 unaffected");
        assert_eq!(backed(&h, 12), seg_base(2), "corrupt header must fence off the segment");
        p.write_u64(seg2 + SEG_CHECK, good_crc);
        // The capacity is not stored, but the check word covers it: the
        // header of a segment of another level does not pass for this one.
        p.write_u64(seg2 + SEG_CHECK, geometry_crc(3));
        assert_eq!(backed(&h, 12), seg_base(2), "another level's check word");
        p.write_u64(seg2 + SEG_CHECK, good_crc);
        p.write_u64(seg2 + SEG_BASE, seg_base(2) + 1);
        assert_eq!(backed(&h, 12), seg_base(2), "wrong base");
        p.write_u64(seg2 + SEG_BASE, seg_base(2));
        assert_eq!(backed(&h, 12), 12);
        // An out-of-bounds next pointer must be rejected before any deref.
        p.write_u64(seg1, p.len() as u64 + 8);
        assert_eq!(backed(&h, 12), seg_base(2), "out-of-bounds link must be rejected");
        p.write_u64(seg1, 0xDEAD_BEEF_0000); // garbage beyond the pool
        assert_eq!(backed(&h, 12), seg_base(2));
        // A link whose entry array would straddle the end of the pool.
        p.write_u64(seg1, p.len() as u64 - 64);
        assert_eq!(backed(&h, 12), seg_base(2));
        // The same three on the history's own link: the inline slots are
        // all that is left, and they need no link at all.
        let next = h.hdr + offset_of!(HistoryHdr, next) as u64;
        for bad in [p.len() as u64 + 8, 0xDEAD_BEEF_0000, p.len() as u64 - 64, 0] {
            p.write_u64(next, bad);
            assert_eq!(backed(&h, 12), seg_base(1), "link {bad:#x}");
        }
    }

    #[test]
    fn a_full_history_refuses_the_claim_and_stays_readable() {
        use crate::history::History;
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        h.append(2, 20);
        assert_eq!(h.extend_tail(2), 2);
        // As if 2^32 − 1 slots had been claimed: the next claim would wrap
        // `pending` to 0 and hand out slot 0 a second time.
        h.slots().force_counters(u32::MAX, 2);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.append(3, 30)));
        assert!(refused.is_err(), "the claim that would wrap is refused");
        assert_eq!(h.slots().raw_header(), (u32::MAX as u64, 2, 0), "nothing moved");
        assert_eq!((h.find(1, 2), h.find(2, 2), h.find(3, 3)), (Some(10), Some(20), Some(20)));
    }

    #[test]
    fn garbage_pending_cannot_drive_the_checked_fill_past_the_chain() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for _ in 0..30 {
            h.claim(); // segments 0..=3: 56 slots of backing
        }
        // A torn or scrambled `pending` word claims slots that never
        // existed; the fill stops where the links do.
        for garbage in [57, 1 << 40, u64::MAX - 1, u64::MAX] {
            assert_eq!(backed(&h, garbage), seg_base(4), "pending = {garbage}");
        }
        // A chain bent into a cycle cannot be walked forever either: the
        // level-3 segment re-linked as its own successor fails level 4's
        // geometry check.
        let (_, _, mut seg) = h.raw_header();
        for _ in 0..2 {
            seg = p.read_u64(seg);
        }
        p.write_u64(seg, seg);
        assert_eq!(backed(&h, u64::MAX), seg_base(4));
        // An empty history has no backing to offer a garbage counter either.
        let empty = PHistory::create(&p).unwrap();
        assert_eq!(backed(&empty, u64::MAX), seg_base(1));
    }

    #[test]
    fn checked_fill_backs_nothing_in_a_wiped_history_block() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for _ in 0..5 {
            h.claim();
        }
        assert_eq!(backed(&h, 5), 5);
        let check = h.hdr + offset_of!(HistoryHdr, check) as u64;
        // A zeroed block reads as "no key was ever written here" word for
        // word — but for the check word, which is never zero.
        for wiped in [0, geometry_crc(0) ^ 1, geometry_crc(1), u64::MAX] {
            p.write_u64(check, wiped);
            assert_eq!(backed(&h, 5), 0, "check word {wiped:#x}");
            assert_eq!(h.fill(&mut Cursor::new(), 5), 5, "a live store trusts its own blocks");
        }
    }
}
