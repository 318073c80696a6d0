//! Persistent-memory history storage for PSkipList.
//!
//! On-media layout (offsets pool-relative). The history block is 64 bytes,
//! one cache line; segment `k ≥ 1` is `96 << k` bytes, exactly an allocator
//! size class up to 3 KiB and an exact large block beyond. A class that is a
//! multiple of 64 bytes starts its blocks on a line, so the history block is
//! exactly one line and a segment's header shares its line with no other
//! block:
//!
//! ```text
//! History = segment 0 (64 B):    Segment k ≥ 1 (96 << k B):
//!   +0  pending (u32)              +0  next segment offset (u32, 0 = none)
//!   +4  tail (u32)                 +4  k = 1: newest segment, else segment k − 1 (u32)
//!   +8  segment 1 offset (u32)     +8  base slot index
//!   +12 CRC32C of (2, 0) (u32)     +16 CRC32C of (capacity, base)
//!   +16 entries × 2                +24 entries × ((4 << k) − 1)
//! ```
//!
//! An entry is `[version, value, crc_done]`, 24 bytes. A key's first two
//! versions live in the history block itself: creating a key is one
//! allocation and one flush of one line, and reading it follows no link.
//! Every link is a 32-bit pool offset: a PSkipList pool is at most 4 GiB.
//!
//! Segment geometry is deterministic (see [`crate::slots`]), so `base` is
//! redundant and the capacity is not stored at all — it follows from the
//! level, which a walk always knows. `base` is stored anyway, checksummed
//! together with the capacity in the header word behind it, and verified by
//! recovery walks ([`PHistory::fill_checked`]): a segment whose recorded base
//! disagrees with the deterministic expectation or whose header CRC fails is
//! treated as unlinked, so a scrambled `next` pointer can never send recovery
//! through out-of-bounds memory. The history block carries the same check
//! word over segment 0's `(2, 0)`: it is bounds-checked as a whole
//! ([`PHistory::open_checked`]), and a block that was zeroed or overwritten on
//! the media fails the word and backs no slot, instead of reading as a key
//! that was never written.
//!
//! Adopting a segment costs no fence of its own. The append that claims a
//! segment's first slot allocates it, zeroes it, writes its header and
//! flushes it, links nothing, and hands it out in its [`PSlot`]; the
//! append's own publish fence orders all of that with the entry, and its
//! publish links the segment before it stamps (DESIGN.md §13.3). Nobody
//! reaches a segment before the CAS that links it. A claim that finds the
//! segment of a later slot missing — a writer beside that append, or a later
//! pair of its batch chunk — cannot wait for that publish: it links a
//! segment of its own behind one fence, as every claim outside an append
//! does, and the first slot's publish then loses its CAS and moves its entry
//! into that segment, for one fence more.
//!
//! Neither a claim nor a find walks the whole chain. Segment 1's
//! newest-segment word names the history's deepest linked segment of level
//! ≥ 2 (or is 0): whoever links such a segment, or walks past the one the
//! word names, raises it by CAS, and nobody lowers it. Both read the history
//! block, segment 1 and the named segment's header line, whose `base` word
//! gives its level: three lines at any depth. A claim walks on forward from
//! there; a find follows back links down — the same header word of every
//! segment `k ≥ 2` names segment `k − 1`, written before the segment is
//! linked and never changed. Both words are flushed, never fenced, and never
//! trusted by recovery (DESIGN.md §13.3): a restart zeroes the newest word
//! unless it names a segment the checked walk reached, and rewrites a back
//! link that disagrees with the segment the walk came from.

use crate::slots::{
    claim_index, locate, seg_base, seg_capacity, Cursor, Entry, Slots, ENTRY_SIZE, HIST_HDR_SIZE,
    SEG_HDR_SIZE,
};
use mvkv_pmem::layout::{class_for, SIZE_CLASSES};
use mvkv_pmem::{PPtr, PmemPool, Result};
use mvkv_sync::sync::atomic::{AtomicU32, Ordering};
use std::mem::{align_of, offset_of, size_of};
use std::ops::Deref;

/// The persistent history block: the counters, the link to segment 1, the
/// check word and segment 0's entries. The counters are 32 bits: a history
/// holds at most 2^32 − 1 slots ([`claim_index`]).
///
/// pm-resident: typed target of `PPtr<HistoryHdr>`.
#[repr(C)]
pub struct HistoryHdr {
    pending: AtomicU32,
    tail: AtomicU32,
    /// Offset of segment 1 (0 = none).
    next: AtomicU32,
    /// [`geometry_crc`] of segment 0.
    check: AtomicU32,
    inline: [Entry; 2],
}

/// Byte offsets in a linked segment's header, whose first word holds the
/// link: the u32 at +4 — segment 1's newest-segment word, every other
/// segment's back link — the base slot index, and the check word.
pub const SEG_NEWEST: u64 = 4;
/// The back link of segment `k ≥ 2`: the offset of segment `k − 1`.
pub const SEG_BACK: u64 = SEG_NEWEST;
const SEG_BASE: u64 = 8;
pub(crate) const SEG_CHECK: u64 = 16;

const _: () = assert!(offset_of!(HistoryHdr, pending) == 0 && offset_of!(HistoryHdr, tail) == 4);
const _: () = assert!(offset_of!(HistoryHdr, next) == 8 && offset_of!(HistoryHdr, check) == 12);
const _: () = assert!(offset_of!(HistoryHdr, inline) == HIST_HDR_SIZE);
const _: () = assert!(SEG_CHECK as usize + 8 == SEG_HDR_SIZE);
const _: () = assert!(size_of::<HistoryHdr>() as u64 == seg_bytes(0));
const _: () = assert!(align_of::<HistoryHdr>() == 8);

/// Bytes of segment `k`'s block, header included: 64, then `96 << k`.
const fn seg_bytes(k: u32) -> u64 {
    let hdr = if k == 0 { HIST_HDR_SIZE } else { SEG_HDR_SIZE };
    hdr as u64 + seg_capacity(k) * ENTRY_SIZE as u64
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
/// never zero (asserted for every level by the tests).
fn geometry_crc(k: u32) -> u32 {
    mvkv_pmem::crc32c_u64s(&[seg_capacity(k), seg_base(k)])
}

/// A segment's pool offset as a link word. Histories live in PSkipList pools
/// of at most 4 GiB, which `mvkv-core` checks at create and open.
fn link_word(off: u64) -> u32 {
    u32::try_from(off).expect("history segments lie below 4 GiB")
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
        self.block().check.store(geometry_crc(0), Ordering::Release);
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

    /// The link word at `link_off`: the history's `next`, or a segment's
    /// first word.
    #[inline]
    fn link_at(&self, link_off: u64) -> &'p AtomicU32 {
        self.pool.atomic_u32(link_off)
    }

    /// Allocates segment `k`, to be linked at `link_off`, zeroed and with its
    /// header, and flushes it: not fenced, not linked. From level 2 on the
    /// link word is the first word of segment `k − 1`, so `link_off` is also
    /// the back link: written before anyone can reach the segment, flushed
    /// with it, and never changed.
    fn new_segment(&self, k: u32, link_off: u64) -> u64 {
        let bytes = seg_bytes(k) as usize;
        let off = match self.pool.alloc(bytes) {
            Ok(off) => off,
            Err(e) => panic!("pmem exhausted while extending history: {e}"),
        };
        // Recycled blocks may hold stale data; stamp words MUST read 0
        // before the segment is linked, so clear everything.
        // SAFETY: `off` is a fresh allocation of exactly `bytes` bytes.
        unsafe { self.pool.zero_bytes(off, bytes) };
        if k >= 2 {
            self.link_at(off + SEG_BACK).store(link_word(link_off), Ordering::Release);
        }
        self.pool.write_u64(off + SEG_BASE, seg_base(k));
        self.pool.write_u64(off + SEG_CHECK, geometry_crc(k).into());
        self.pool.persist(off, bytes);
        off
    }

    /// Links a new segment `k` at `link_off` (CAS; a loser frees its own)
    /// and returns the linked one: the claim of a slot that finds its own
    /// segment, or one before it, missing and cannot wait for a publish.
    fn extend(&self, k: u32, link_off: u64) -> u64 {
        let off = self.new_segment(k, link_off);
        // Unlike the segment a slot's own publish links, this one is linked
        // ahead of any fence of this thread: its zeroing and header are
        // durable before any thread can follow the link.
        self.pool.fence();
        match self.link_at(link_off).compare_exchange(
            0,
            link_word(off),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // Deliberately NO fence (DESIGN.md §13.3): this thread claimed
                // a slot in the segment, and the fence that publishes it
                // orders this flush first. A crash before that fence loses the
                // link and the slots behind it — loss only, and of another
                // writer's acknowledged slot only in §13.3's cross-thread
                // window.
                self.linked(k, link_off, off);
                off
            }
            Err(winner) => {
                // Lost the race: free ours, adopt the winner's (paper §IV-B).
                self.pool.dealloc(off);
                winner.into()
            }
        }
    }

    /// Entry `pos` of the segment at `seg`.
    fn entry_at(&self, seg: u64, pos: u64) -> &'p Entry {
        // SAFETY: the segment's level holds more than `pos` entries (the
        // callers take `pos` from `locate`), sized by `new_segment`, so the
        // offset is in-bounds and 8-aligned; Entry is all-atomic words with
        // no invalid bit patterns.
        unsafe { self.pool.typed::<Entry>(seg + (SEG_HDR_SIZE as u64 + pos * ENTRY_SIZE as u64)) }
    }

    /// [`Slots::link`] for the first slot of a segment of level `k` its
    /// claim left unlinked at `link_off`. The link is flushed, not fenced:
    /// like the stamp stored right behind it, it becomes durable at this
    /// thread's next fence, and every later slot of the segment is recovered
    /// only behind this slot's stamp. The CAS loses only to the claim of a later
    /// slot of the segment, which linked one of its own ([`PHistory::
    /// extend`]): this slot then frees its segment, rewrites its entry into
    /// the winner's and fences once more, so that its stamp cannot be
    /// durable before its entry.
    fn adopt(&self, slot: &'p Entry, link_off: u64, k: u32) -> PSlot<'p> {
        let mine = self.off_of(slot) - SEG_HDR_SIZE as u64;
        match self.link_at(link_off).compare_exchange(
            0,
            link_word(mine),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.linked(k, link_off, mine);
                PSlot { entry: slot, unlinked: None }
            }
            Err(winner) => {
                let entry = self.entry_at(winner.into(), 0);
                // ordering: this thread's own stores in the prepare; the
                // stamp's Release store publishes the copies.
                entry.version.store(slot.version.load(Ordering::Relaxed), Ordering::Relaxed);
                entry.value.store(slot.value.load(Ordering::Relaxed), Ordering::Relaxed);
                self.pool.dealloc(mine);
                self.persist_entry(entry);
                self.pool.fence();
                PSlot { entry, unlinked: None }
            }
        }
    }

    /// The level of the linked segment at `seg`, from its `base` word: the
    /// index of its first slot.
    #[inline]
    fn level_of(&self, seg: u64) -> u32 {
        locate(self.pool.read_u64(seg + SEG_BASE)).0
    }

    /// Segment 1's newest-segment word; segment 1 must be linked.
    #[inline]
    fn newest_at(&self, seg1: u64) -> &'p AtomicU32 {
        self.link_at(seg1 + SEG_NEWEST)
    }

    /// Raises the newest-segment word to `seg`, a linked segment of level
    /// `k ≥ 2`, unless it names one at least as deep: the CAS never lowers
    /// it. Returns whether it wrote; the caller flushes.
    fn raise_newest(&self, seg1: u64, seg: u64, k: u32) -> bool {
        let word = self.newest_at(seg1);
        let mut seen = word.load(Ordering::Acquire);
        while seen == 0 || self.level_of(seen.into()) < k {
            match word.compare_exchange(seen, link_word(seg), Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(now) => seen = now,
            }
        }
        false
    }

    /// After the CAS that linked `seg`, of level `k`, at `link_off`: raises
    /// the newest-segment word to it from level 2 on, and flushes the link
    /// and the word — one flush at level 2, whose link is segment 1's first
    /// word, beside the newest-segment word. Neither is fenced here.
    fn linked(&self, k: u32, link_off: u64, seg: u64) {
        if k < 2 {
            self.pool.persist(link_off, 4);
            return;
        }
        let seg1 = u64::from(self.link_at(self.next_off()).load(Ordering::Acquire));
        let raised = self.raise_newest(seg1, seg, k);
        if k == 2 {
            debug_assert_eq!(link_off, seg1);
            self.pool.persist(seg1, 8);
        } else {
            self.pool.persist(link_off, 4);
            if raised {
                self.pool.persist(seg1 + SEG_NEWEST, 4);
            }
        }
    }

    /// The one chain walk of a claim. It starts at segment 1, or at the
    /// segment the newest-segment word names when that one's level is at
    /// most the slot's, and lands there or walks on. A missing segment is
    /// linked on the way ([`PHistory::extend`]) — but for the one the slot
    /// itself opens (`unlinked`): that one is allocated, and left for the
    /// append's publish to link ([`PHistory::adopt`]) behind its publish
    /// fence. Only the claim of a segment's first slot leaves it unlinked, so
    /// a batch that claims many slots of one key allocates at most two
    /// segments a level, whatever it holds. A walk that follows a link past
    /// the word raises the word to where it lands.
    fn claim_at(&self, unlinked: bool) -> (u64, PSlot<'p>) {
        let block = self.block();
        let idx = claim_index(&block.pending);
        let (k, pos) = locate(idx);
        if k == 0 {
            // The first two slots are this block: no allocation, no link.
            return (idx, PSlot { entry: &block.inline[pos as usize], unlinked: None });
        }
        // `seg` is the segment of `level`, linked at `link_off` (0: not yet).
        let (mut level, mut link_off) = (1, self.next_off());
        let mut seg = u64::from(self.link_at(link_off).load(Ordering::Acquire));
        if seg != 0 && k >= 2 {
            let newest = u64::from(self.newest_at(seg).load(Ordering::Acquire));
            if newest != 0 {
                let at = self.level_of(newest);
                if at <= k {
                    (level, seg) = (at, newest);
                }
            }
        }
        let mut walked = false;
        loop {
            if seg == 0 {
                if unlinked && level == k && pos == 0 {
                    let entry = self.entry_at(self.new_segment(k, link_off), 0);
                    return (idx, PSlot { entry, unlinked: Some((link_off, k)) });
                }
                seg = self.extend(level, link_off);
            }
            if level == k {
                break;
            }
            // The next link is the segment's first word.
            (level, link_off) = (level + 1, seg);
            seg = u64::from(self.link_at(link_off).load(Ordering::Acquire));
            walked |= seg != 0;
        }
        if walked {
            let seg1 = u64::from(self.link_at(self.next_off()).load(Ordering::Acquire));
            if self.raise_newest(seg1, seg, k) {
                self.pool.persist(seg1 + SEG_NEWEST, 4);
            }
        }
        (idx, PSlot { entry: self.entry_at(seg, pos), unlinked: None })
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
            && self.pool.read_u64(seg + SEG_CHECK) == geometry_crc(level).into()
    }

    /// The one chain walk behind every fill: segment 0 is this block, then
    /// follows links from where `cur` stopped until it covers `n` slots, the
    /// chain ends, or (`CHECKED`) a header fails validation. `MEND`, behind
    /// a check: rewrites a back link that does not name the segment the walk
    /// came from.
    #[inline(always)]
    fn fill_from<'a, const CHECKED: bool, const MEND: bool>(
        &'a self,
        cur: &mut Cursor<'a>,
        n: u64,
    ) -> u64 {
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
        while cur.covered() < n && !cur.is_full() {
            let seg = u64::from(self.link_at(link_off).load(Ordering::Acquire));
            if seg == 0 || (CHECKED && !self.segment_header_ok(cur.levels(), seg)) {
                break;
            }
            // SAFETY: segment `levels()` holds `seg_capacity(levels())`
            // zero-initialized, all-atomic entries after its 24-byte header
            // for as long as the pool is mapped. CHECKED: segment_header_ok
            // just proved `[seg, seg + (96 << levels))` in-pool and
            // 8-aligned, before any dereference. Unchecked: `seg` is a link
            // word that `extend` or `adopt` CAS-published after `new_segment`
            // sized and zeroed exactly that block (live stores trust their own links;
            // anything read from media after a crash goes through the
            // checked fill first).
            unsafe { cur.push(self.entries_of(seg), seg as usize) };
            if MEND && cur.levels() > 2 {
                // A segment of level 2 or more: `link_off` is the one before.
                self.mend_back_link(seg, link_off);
            }
            link_off = seg;
        }
        n.min(cur.covered())
    }

    /// The entry array of the segment at `seg`.
    #[inline]
    fn entries_of(&self, seg: u64) -> *const Entry {
        self.pool.base_ptr(0).wrapping_add(seg as usize + SEG_HDR_SIZE) as *const Entry
    }

    /// [`Slots::fill`] for media that may be damaged: validates each header
    /// exactly once (the history block's check word; a linked segment's
    /// bounds, geometry and CRC) before resolving it, and stops at the first
    /// that fails or was never linked. Returns how many of the `n` slots have
    /// valid backing — recovery walks bound their loops by it, never by a
    /// `pending` word they cannot trust, so no torn claim is materialized
    /// and no scrambled link is dereferenced.
    pub fn fill_checked<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<true, false>(cur, n)
    }

    /// Recovery-only: [`PHistory::fill_checked`] that also rewrites every
    /// back link disagreeing with the segment the walk came from — flipped
    /// on the media, or zero in a pool written before back links were.
    /// Flushed, not fenced: the live store reads the rewritten word, and an
    /// open after a power cut that lost it checks it again. A chain that
    /// agrees is not written.
    pub(crate) fn fill_mended<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<true, true>(cur, n)
    }

    /// Points the back link of the validated segment at `seg` to `prev`.
    fn mend_back_link(&self, seg: u64, prev: u64) {
        let back = self.link_at(seg + SEG_BACK);
        if u64::from(back.load(Ordering::Acquire)) != prev {
            back.store(link_word(prev), Ordering::Release);
            self.pool.persist(seg + SEG_BACK, 4);
        }
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
        (self.link_at(link_off).load(Ordering::Acquire) != 0).then_some(link_off)
    }

    /// Recovery-only: zeroes the link [`PHistory::failed_link`] finds —
    /// flushed, the caller fences — so that claim allocates a fresh segment.
    /// Whatever the word pointed at is leaked. Returns whether it wrote.
    pub(crate) fn cut_failed_link(&self, cur: &Cursor<'_>) -> bool {
        let Some(link_off) = self.failed_link(cur) else { return false };
        self.link_at(link_off).store(0, Ordering::Release);
        self.pool.persist(link_off, 4);
        true
    }

    /// Recovery-only: the offset of the newest-segment word when it names a
    /// segment the checked walk into `cur` did not reach at level ≥ 2 — a
    /// claim would start there. Without segment 1 on that walk there is no
    /// word to read: the claim starts at the history block.
    fn stray_newest(&self, cur: &Cursor<'_>) -> Option<u64> {
        if cur.levels() < 2 {
            return None;
        }
        let seg = |k| self.off_of(cur.entry(seg_base(k))) - SEG_HDR_SIZE as u64;
        let word = seg(1) + SEG_NEWEST;
        let newest = u64::from(self.link_at(word).load(Ordering::Acquire));
        (newest != 0 && !(2..cur.levels()).any(|k| seg(k) == newest)).then_some(word)
    }

    /// Recovery-only: whether the newest-segment word is 0 or names a
    /// segment the checked walk into `cur` reached.
    pub(crate) fn newest_reached(&self, cur: &Cursor<'_>) -> bool {
        self.stray_newest(cur).is_none()
    }

    /// Recovery-only: zeroes a newest-segment word [`PHistory::
    /// newest_reached`] refuses. Flushed, and fenced by nobody: the word is
    /// advisory, the live store reads the zero, and every open checks the
    /// word again.
    pub(crate) fn cut_stray_newest(&self, cur: &Cursor<'_>) {
        if let Some(word) = self.stray_newest(cur) {
            self.link_at(word).store(0, Ordering::Release);
            self.pool.persist(word, 4);
        }
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
            block.next.load(Ordering::Acquire) as u64,
        )
    }

    /// Segment 1's newest-segment word for audits: the offset of the
    /// segment a claim starts from, 0 for none (or no segment 1).
    pub fn raw_newest(&self) -> u64 {
        match self.block().next.load(Ordering::Acquire) {
            0 => 0,
            seg1 => self.newest_at(seg1.into()).load(Ordering::Acquire).into(),
        }
    }
}

/// A claimed slot of a [`PHistory`]: its entry, and — for the first slot of
/// a segment [`Slots::claim_unlinked`] allocated — the offset of the link
/// word that is to link that segment, and the segment's level.
#[derive(Clone, Copy)]
pub struct PSlot<'p> {
    entry: &'p Entry,
    unlinked: Option<(u64, u32)>,
}

impl Deref for PSlot<'_> {
    type Target = Entry;

    #[inline]
    fn deref(&self) -> &Entry {
        self.entry
    }
}

impl<'p> Slots for PHistory<'p> {
    type Slot = PSlot<'p>;

    fn claim(&self) -> (u64, PSlot<'p>) {
        self.claim_at(false)
    }

    fn claim_unlinked(&self) -> (u64, PSlot<'p>) {
        self.claim_at(true)
    }

    #[inline]
    fn link(&self, slot: PSlot<'p>) -> PSlot<'p> {
        match slot.unlinked {
            None => slot,
            Some((link_off, k)) => self.adopt(slot.entry, link_off, k),
        }
    }

    fn pending(&self) -> u64 {
        self.block().pending.load(Ordering::Acquire) as u64
    }

    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<false, false>(cur, n)
    }

    /// Reads the history block, segment 1's header line and, deep enough,
    /// the named segment's: three lines at any depth, and no chain link.
    #[inline]
    fn start<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) {
        let block = self.block();
        let seg1 = if n > seg_base(1) { u64::from(block.next.load(Ordering::Acquire)) } else { 0 };
        if seg1 == 0 {
            // SAFETY: the history block holds `seg_capacity(0)` all-atomic
            // entries for as long as the pool is mapped (see `block`).
            unsafe { cur.start_at(0, block.inline.as_ptr(), self.next_off() as usize, 0) };
            return;
        }
        let newest = if n > seg_base(2) {
            u64::from(self.newest_at(seg1).load(Ordering::Acquire))
        } else {
            0
        };
        let (level, seg) = if newest == 0 { (1, seg1) } else { (self.level_of(newest), newest) };
        // SAFETY: `seg` is a linked segment of `level` — segment 1 by the
        // history's link, or the one the newest-segment word names, which
        // is raised to linked segments only — sized and zeroed by
        // `new_segment` for `seg_capacity(level)` entries (live stores trust
        // their own words; a reopened one has them checked at open).
        unsafe { cur.start_at(level, self.entries_of(seg), seg as usize, seg as usize) };
    }

    #[inline]
    fn fill_back<'a>(&'a self, cur: &mut Cursor<'a>, idx: u64) {
        let target = locate(idx).0;
        while cur.lowest() > target {
            if cur.lowest() == 1 {
                // SAFETY: as in `start`: the history block's own entries.
                unsafe { cur.push_down(self.block().inline.as_ptr(), 0) };
                break;
            }
            let prev =
                u64::from(self.link_at(cur.down() as u64 + SEG_BACK).load(Ordering::Acquire));
            debug_assert_ne!(prev, 0, "segment {} has no back link", cur.lowest());
            // SAFETY: the back link of a linked segment of level `k ≥ 2` is
            // the segment `k − 1` it was linked behind, written before the
            // link (`new_segment`) and rewritten at open if the media
            // disagreed with the chain (`fill_mended`).
            unsafe { cur.push_down(self.entries_of(prev), prev as usize) };
        }
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
    use crate::slots::MAX_SEGMENTS;
    use mvkv_pmem::layout::CACHE_LINE;

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

    const HIST_CHECK: u64 = offset_of!(HistoryHdr, check) as u64;

    /// The 32-bit word at `off`: a link, a counter or the check word.
    fn u32_at(p: &PmemPool, off: u64) -> u64 {
        p.atomic_u32(off).load(Ordering::Acquire).into()
    }

    #[test]
    fn create_is_zeroed_even_after_recycling() {
        let p = pool();
        // A recycled history block must come back all-zero — counters, link
        // and the two inline entries — or a stale stamp would read published
        // and a stale link would be followed.
        let dirty = dirty_block(&p, seg_bytes(0));
        let h = PHistory::create(&p).unwrap();
        assert_eq!(h.pptr().off(), dirty, "block should be recycled");
        assert_eq!(h.raw_header(), (0, 0, 0));
        for off in (0..seg_bytes(0)).step_by(4).filter(|&off| off != HIST_CHECK) {
            assert_eq!(u32_at(&p, dirty + off), 0, "word at +{off}");
        }
        assert_eq!(u32_at(&p, dirty + HIST_CHECK), geometry_crc(0).into(), "check word");
        for want in 0..seg_capacity(0) {
            let (idx, e) = h.claim();
            assert_eq!((idx, e.load_if_done()), (want, None));
        }
        assert_eq!(h.raw_header(), (2, 0, 0), "two claims allocate and link nothing");
    }

    #[test]
    fn a_history_block_is_one_cache_line() {
        let p = pool();
        let before = p.alloc_stats();
        let h = PHistory::create(&p).unwrap();
        let block = size_of::<HistoryHdr>();
        assert_eq!(p.block_capacity(h.pptr().off()), block, "no padding behind the entries");
        assert_eq!((block, HIST_HDR_SIZE + 2 * ENTRY_SIZE), (CACHE_LINE, CACHE_LINE));
        assert!(h.pptr().off().is_multiple_of(CACHE_LINE as u64), "on a line of its own");
        for _ in 0..seg_capacity(0) {
            h.claim();
        }
        let after = p.alloc_stats();
        assert_eq!(after.live_blocks - before.live_blocks, 1);
        // The third claim is the first to allocate: segment 1, a 192-byte
        // block filled exactly, on three lines of its own, which its link
        // makes the history's.
        h.claim();
        let (_, _, seg1) = h.raw_header();
        assert_eq!(p.block_capacity(seg1) as u64, seg_bytes(1));
        assert!(seg1.is_multiple_of(CACHE_LINE as u64));
        assert_eq!(p.alloc_stats().live_blocks - before.live_blocks, 2);
    }

    /// The claim as a ledger (DESIGN.md §13.3): what one key's history holds
    /// in PM and what it paid in fences — a 64-byte block for its first two
    /// versions, then segments of `96 << k` bytes, one allocation each and
    /// no fence of their own: the appends' publish fences order them. A run
    /// header is 32 bytes (and at most 48 of padding) per refill of up to 64
    /// blocks, not the history's.
    #[test]
    fn a_history_is_one_line_then_96_shl_k_byte_segments_at_no_fence_of_their_own() {
        use crate::history::History;
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        // Fences that are the history's: a refill fences once, whatever the
        // block is for, and is not counted.
        let spent = || {
            let stats = p.alloc_stats();
            let refills: u64 = stats.shard_refills.iter().sum();
            p.fence_count().unwrap() - refills
        };
        let fences0 = spent();
        let h = History::new(PHistory::create(&p).unwrap());
        let mut ledger = Vec::new();
        for n in 1..=25u64 {
            h.append(n, n);
            // The chain: the history block, then every linked segment.
            let (mut blocks, mut bytes) = (0u64, 0u64);
            let mut block = h.slots().pptr().off();
            let mut link = h.slots().next_off();
            loop {
                blocks += 1;
                bytes += p.block_capacity(block) as u64;
                block = u32_at(&p, link);
                link = block;
                if block == 0 {
                    break;
                }
            }
            if [1, 2, 3, 9, 10, 24, 25].contains(&n) {
                ledger.push((n, blocks, bytes, spent() - fences0));
            }
        }
        // (versions, blocks = allocations, bytes, fences): one publish fence
        // per append, whether it adopts a segment or not.
        let table = [
            (1, 1, 64, 1),
            (2, 1, 64, 2),
            (3, 2, 256, 3),
            (9, 2, 256, 9),
            (10, 3, 640, 10),
            (24, 3, 640, 24),
            (25, 4, 1408, 25),
        ];
        assert_eq!(ledger, table);
        assert_eq!(p.alloc_stats().total_allocs, 4, "one allocation a block");
    }

    /// The adoption schedule at its one boundary (DESIGN.md §13.3): the
    /// third append allocates segment 1 and crosses one fence, its own
    /// publish fence, which orders the segment's zeroing, header and
    /// occupancy bit with the entry; the link and the stamp come behind it.
    /// Power cut at the fence, the segment is durable, zeroed, headered and
    /// allocated with the entry in it, and nothing links it: it is leaked,
    /// and the two acknowledged versions recover. After the append, the link
    /// and the stamp are flushed. Each image recovers to exactly its prefix.
    #[test]
    fn adopting_a_segment_costs_no_fence_and_its_publish_fence_boundary_recovers() {
        use crate::history::History;
        use crate::recovery::scan_published_prefix;
        // The image at the `nth` fence of the third append (0: after it), the
        // history's offset and segment 1's.
        let third_append = |nth: u64| {
            let p =
                PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
            // A dirty block of segment 1's class, durable and free: the
            // append below refills nothing and has to zero it.
            let warm = dirty_block(&p, seg_bytes(1));
            p.persist(warm, seg_bytes(1) as usize);
            let h = History::new(PHistory::create(&p).unwrap());
            h.append(1, 10);
            h.append(2, 20);
            let fences = p.fence_count().unwrap();
            p.capture_at_fence(fences + nth);
            h.append(3, 30);
            assert_eq!(p.fence_count().unwrap() - fences, 1, "the publish fence alone");
            let (_, _, seg1) = h.slots().raw_header();
            assert_eq!(seg1, warm);
            let image = if nth == 0 { p.crash_image() } else { p.captured_image() };
            (PmemPool::open_image(&image.unwrap()).unwrap(), h.slots().hdr, seg1)
        };
        let recovered = |p: &PmemPool, hdr: u64| {
            let mut versions = Vec::new();
            scan_published_prefix(&PHistory::open(p, PPtr::from_off(hdr)), &mut versions);
            versions
        };
        let entry = |p: &PmemPool, seg1: u64| {
            let words = [0, 8, 16].map(|w| p.read_u64(seg1 + SEG_HDR_SIZE as u64 + w));
            (words[0], words[1], words[2] != 0)
        };
        let next = |p: &PmemPool, hdr: u64| u32_at(p, hdr + offset_of!(HistoryHdr, next) as u64);

        let (p, hdr, seg1) = third_append(1);
        assert_eq!(next(&p, hdr), 0, "no link yet");
        assert_eq!(p.read_u64(seg1 + SEG_BASE), seg_base(1), "headered");
        assert_eq!(p.read_u64(seg1 + SEG_CHECK), u64::from(geometry_crc(1)));
        assert_eq!(entry(&p, seg1), (3, 30, false), "the entry, not its stamp");
        let entries = SEG_HDR_SIZE as u64 + ENTRY_SIZE as u64;
        for off in (entries..seg_bytes(1)).step_by(8) {
            assert_eq!(p.read_u64(seg1 + off), 0, "zeroed at +{off}");
        }
        let heap = mvkv_pmem::recovery::audit(&p);
        assert_eq!(heap.allocated_blocks, 2, "the history, and the segment it leaks");
        assert_eq!(recovered(&p, hdr), [1, 2]);

        let (p, hdr, seg1) = third_append(0);
        assert_eq!(next(&p, hdr), seg1, "linked");
        assert_eq!(entry(&p, seg1), (3, 30, true));
        assert_eq!(recovered(&p, hdr), [1, 2, 3]);
    }

    /// Two blocks of segment 1's class, free on this thread's shard: the
    /// appends that follow refill nothing, and fence only for themselves.
    fn two_free_segment_blocks(p: &PmemPool) {
        let blocks = [0; 2].map(|_| p.alloc(seg_bytes(1) as usize).unwrap());
        blocks.into_iter().for_each(|block| p.dealloc(block));
    }

    /// Segment 1's first two slots prepared before either publishes (a batch
    /// chunk holding one key twice, or two writers of one key): the first
    /// slot's claim allocates segment 1 and leaves it unlinked for its
    /// publish; the second's finds it missing and links one of its own
    /// behind a fence. The first slot's link then loses: it frees its segment
    /// and moves its entry into the winner's, behind one fence more.
    /// Whichever publishes first, both entries end up in the one segment that
    /// stays allocated.
    #[test]
    fn a_lost_link_moves_the_entry_into_the_winners_segment_for_one_fence() {
        use crate::history::History;
        for first_slot_last in [false, true] {
            let p =
                PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
            let h = History::new(PHistory::create(&p).unwrap());
            h.append(1, 10);
            h.append(2, 20);
            two_free_segment_blocks(&p);
            let (live, fences) = (p.alloc_stats().live_blocks, p.fence_count().unwrap());
            let spent = || p.fence_count().unwrap() - fences;
            let a = h.append_prepare(3, 30);
            assert_eq!(spent(), 0, "the first slot's segment waits for its publish");
            let b = h.append_prepare(4, 40);
            assert_eq!(spent(), 1, "the second slot links one of its own");
            assert_eq!(p.alloc_stats().live_blocks - live, 2, "a segment 1 each");
            h.publish_fence();
            let order = if first_slot_last { [(b, 4), (a, 3)] } else { [(a, 3), (b, 4)] };
            for (slot, version) in order {
                h.append_publish(slot, version);
            }
            assert_eq!(spent(), 3, "and the first slot's move fence");
            assert_eq!(p.alloc_stats().live_blocks - live, 1, "the loser's segment is freed");
            assert_eq!(p.unflushed_lines().unwrap(), [], "link, moved entry and stamps flushed");
            assert_eq!(h.records(4).len(), 4);
            assert_eq!((h.find(3, 4), h.find(4, 4)), (Some(30), Some(40)));
        }
    }

    /// The lost link's schedule above, cut at each of its fences — the
    /// second slot's link fence, the publish fence, the first slot's move
    /// fence — and after both publishes: every image recovers the two
    /// versions acknowledged before it and nothing the publishes had not
    /// stamped, and the move leaves no stale copy behind the winner's link.
    #[test]
    fn every_boundary_of_a_lost_link_recovers_a_prefix() {
        use crate::history::History;
        use crate::recovery::scan_published_prefix;
        for (nth, want) in [(1, &[1, 2][..]), (2, &[1, 2]), (3, &[1, 2]), (0, &[1, 2, 3, 4])] {
            let p =
                PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
            let h = History::new(PHistory::create(&p).unwrap());
            h.append(1, 10);
            h.append(2, 20);
            two_free_segment_blocks(&p);
            p.capture_at_fence(p.fence_count().unwrap() + nth);
            let a = h.append_prepare(3, 30);
            let b = h.append_prepare(4, 40);
            h.publish_fence();
            h.append_publish(a, 3);
            h.append_publish(b, 4);
            let image = if nth == 0 { p.crash_image() } else { p.captured_image() };
            let reopened = PmemPool::open_image(&image.unwrap()).unwrap();
            let history = PHistory::open(&reopened, h.slots().pptr());
            let mut versions = Vec::new();
            scan_published_prefix(&history, &mut versions);
            assert_eq!(versions, want, "cut at fence {nth} (0: after the publishes)");
            let linked = history.raw_header().2;
            assert!(nth < 2 || linked != 0, "the winner's link is durable from the publish fence");
            if linked != 0 {
                let moved = reopened.read_u64(linked + SEG_HDR_SIZE as u64);
                assert_eq!(moved, if nth >= 3 || nth == 0 { 3 } else { 0 }, "fence {nth}");
            }
        }
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
                h.persist_entry(&e);
                e.crc_done.store(Entry::stamp(i + 1, i), Ordering::Release);
                h.persist_stamp(&e);
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
        assert!(!open(len - HIST_HDR_SIZE as u64));
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
            let check = u64::from(geometry_crc(k));
            assert_eq!(p.read_u64(seg + SEG_CHECK), check, "segment {k} header crc");
            assert_eq!(p.block_capacity(seg) as u64, seg_bytes(k), "segment {k} fills its block");
            seg = u32_at(&p, seg);
            k += 1;
        }
        assert_eq!(k, 4, "30 slots are 2 inline + segments of 7 + 15 + 31");
    }

    /// The linked segment of level `k ≥ 1`, by the links alone.
    fn linked_segment(h: &PHistory<'_>, k: u32) -> u64 {
        (1..k).fold(h.raw_header().2, |seg, _| u32_at(h.pool, seg))
    }

    #[test]
    fn a_claim_follows_no_link_below_the_newest_segment() {
        use crate::history::History;
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        for v in 1..=300u64 {
            h.append(v, v * 10);
        }
        // Slot 300 lies in segment 6, at position 55; the word names it.
        let (k, pos) = locate(300);
        let newest = linked_segment(h.slots(), k);
        assert_eq!((k, h.slots().raw_newest()), (6, newest));
        // Cut the chain behind segment 3: a walk from segment 1 would find
        // segment 4 missing there and link a fresh one.
        p.atomic_u32(linked_segment(h.slots(), 3)).store(0, Ordering::Release);
        let allocs = p.alloc_stats().total_allocs;
        h.append(301, 3010);
        assert_eq!(p.alloc_stats().total_allocs, allocs, "nothing allocated, nothing linked");
        assert_eq!(u32_at(&p, linked_segment(h.slots(), 3)), 0);
        let entry = h.slots().entry_at(newest, pos);
        assert_eq!(entry.load_if_done(), Some((301, 3010)), "in the segment the word names");
    }

    /// A find walks from the newest segment down the back links: with the
    /// forward links of segments 1–5 zeroed on a 256-version history, every
    /// version still finds its value, at every level, and so do the versions
    /// between them and beyond the newest. Each segment of level `k ≥ 2`
    /// names segment `k − 1`.
    #[test]
    fn finds_follow_no_forward_link() {
        use crate::history::History;
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        for v in 1..=256u64 {
            h.append(v * 4, v * 10);
        }
        assert_eq!(h.extend_tail(u64::MAX), 256);
        let segs: Vec<u64> = (1..=6).map(|k| linked_segment(h.slots(), k)).collect();
        for k in 2..=6 {
            let back = u32_at(&p, segs[k - 1] + SEG_BACK);
            assert_eq!(back, segs[k - 2], "segment {k}'s back link");
        }
        for &seg in &segs[..5] {
            p.atomic_u32(seg).store(0, Ordering::Release);
        }
        for v in 1..=256u64 {
            for probe in [v * 4, v * 4 + 3] {
                assert_eq!(h.find(probe, 1024), Some(v * 10), "version {probe}");
            }
        }
        assert_eq!(h.find(3, 1024), None);
    }

    /// After each link of a segment of level 2 … 8, the word names the
    /// deepest one, whichever way it was linked: by a claim outside an
    /// append (`extend`), by the append of its first slot (`adopt`), or by a
    /// later slot's claim that the first slot's `adopt` then loses to.
    #[test]
    fn the_newest_word_names_the_deepest_linked_segment() {
        use crate::history::History;
        for way in ["extend", "adopt", "lost adopt"] {
            let p = pool();
            let h = History::new(PHistory::create(&p).unwrap());
            // Slot `i` holds version `i + 1`.
            let next = |h: &History<PHistory<'_>>| h.pending() + 1;
            for k in 1..=8u32 {
                while h.pending() < seg_base(k) {
                    h.append(next(&h), 1);
                }
                let deepest = |k| if k >= 2 { linked_segment(h.slots(), k) } else { 0 };
                assert_eq!(h.slots().raw_newest(), deepest(k - 1), "{way}: before segment {k}");
                match way {
                    "extend" => {
                        let version = next(&h);
                        let (_, slot) = h.slots().claim();
                        slot.version.store(version, Ordering::Relaxed);
                        slot.value.store(1, Ordering::Relaxed);
                        slot.crc_done.store(Entry::stamp(version, 1), Ordering::Release);
                    }
                    "adopt" => h.append(next(&h), 1),
                    _ => {
                        let version = next(&h);
                        let first = h.append_prepare(version, 1);
                        let second = h.append_prepare(version + 1, 1);
                        h.publish_fence();
                        h.append_publish(first, version);
                        h.append_publish(second, version + 1);
                    }
                }
                assert_ne!(linked_segment(h.slots(), k), 0, "{way}: segment {k} linked");
                assert_eq!(h.slots().raw_newest(), deepest(k), "{way}: segment {k}");
            }
            assert_eq!(h.records(u64::MAX).len() as u64, h.pending(), "{way}");
        }
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
        let seg2 = u32_at(&p, seg1);
        let good_crc = p.read_u64(seg2 + SEG_CHECK);
        p.write_u64(seg2 + SEG_CHECK, good_crc ^ 0xFF);
        assert_eq!(backed(&h, 9), 9, "segments 0 and 1 unaffected");
        assert_eq!(backed(&h, 12), seg_base(2), "corrupt header must fence off the segment");
        p.write_u64(seg2 + SEG_CHECK, good_crc);
        // The capacity is not stored, but the check word covers it: the
        // header of a segment of another level does not pass for this one.
        p.write_u64(seg2 + SEG_CHECK, geometry_crc(3).into());
        assert_eq!(backed(&h, 12), seg_base(2), "another level's check word");
        p.write_u64(seg2 + SEG_CHECK, good_crc);
        p.write_u64(seg2 + SEG_BASE, seg_base(2) + 1);
        assert_eq!(backed(&h, 12), seg_base(2), "wrong base");
        p.write_u64(seg2 + SEG_BASE, seg_base(2));
        assert_eq!(backed(&h, 12), 12);
        // Out of bounds, garbage beyond the pool, and an entry array that
        // would straddle its end: each link is rejected before any deref —
        // segment 1's, then the history's own, behind which the inline
        // slots are all that is left.
        let len = p.len() as u32;
        let next = h.next_off();
        for (link, backing) in [(seg1, seg_base(2)), (next, seg_base(1))] {
            for bad in [len + 8, 0xDEAD_BEEF, len - 64] {
                p.atomic_u32(link).store(bad, Ordering::Release);
                assert_eq!(backed(&h, 12), backing, "link at {link}: {bad:#x}");
            }
        }
        p.atomic_u32(next).store(0, Ordering::Release);
        assert_eq!(backed(&h, 12), seg_base(1), "no link at all");
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
            h.claim(); // segments 0..=3: 55 slots of backing
        }
        // A torn or scrambled `pending` word claims slots that never
        // existed; the fill stops where the links do.
        for garbage in [56, 1 << 40, u64::MAX - 1, u64::MAX] {
            assert_eq!(backed(&h, garbage), seg_base(4), "pending = {garbage}");
        }
        // A chain bent into a cycle cannot be walked forever either: the
        // level-3 segment re-linked as its own successor fails level 4's
        // geometry check.
        let (_, _, mut seg) = h.raw_header();
        for _ in 0..2 {
            seg = u32_at(&p, seg);
        }
        p.atomic_u32(seg).store(seg as u32, Ordering::Release);
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
        // A zeroed block reads as "no key was ever written here" word for
        // word — but for the check word, which is never zero.
        for k in 0..MAX_SEGMENTS as u32 {
            assert_ne!(geometry_crc(k), 0, "level {k}");
        }
        for wiped in [0, geometry_crc(0) ^ 1, geometry_crc(1), u32::MAX] {
            p.atomic_u32(h.hdr + HIST_CHECK).store(wiped, Ordering::Release);
            assert_eq!(backed(&h, 5), 0, "check word {wiped:#x}");
            assert_eq!(h.fill(&mut Cursor::new(), 5), 5, "a live store trusts its own blocks");
        }
    }
}
