//! Persistent-memory history storage for PSkipList.
//!
//! On-media layout (all fields 8-byte words, offsets pool-relative):
//!
//! ```text
//! HistoryHdr (32 B):      Segment (32 B + cap·32 B):
//!   +0  pending             +0  next segment offset (0 = none)
//!   +8  tail                +8  capacity (entries)
//!   +16 head segment        +16 base slot index
//!   +24 reserved            +24 CRC32C of (capacity, base)
//!                           +32 entries [version, value, crc, done] × cap
//! ```
//!
//! Segment geometry is deterministic (see [`crate::slots`]), so `capacity`
//! and `base` are redundant — they are stored anyway, checksummed in the
//! header word at +24, and verified by recovery walks ([`PHistory::
//! fill_checked`]): a segment whose recorded geometry disagrees with the
//! deterministic expectation or whose header CRC fails is treated as
//! unlinked, so a scrambled `next` pointer can never send recovery through
//! out-of-bounds memory.

use crate::slots::{locate, seg_base, seg_capacity, Cursor, Entry, Slots, ENTRY_SIZE};
use mvkv_pmem::{PPtr, PmemPool, Result};
use mvkv_sync::sync::atomic::{AtomicU64, Ordering};

/// Size of the persistent history header.
pub const HISTORY_HDR_SIZE: usize = 32;

const SEG_HDR_SIZE: u64 = 32;

/// Opaque marker type for history header offsets. Zero-sized: the actual
/// header words are accessed via explicit offsets, never through fields.
///
/// pm-resident: typed target of `PPtr<HistoryHdr>`; audited by
/// `xtask analyze` against `pm_layout.lock`.
#[repr(C)]
pub struct HistoryHdr(());

/// A handle to one key's persistent history. Cheap to construct (two words);
/// the skip-list index stores just the header offset.
#[derive(Clone, Copy)]
pub struct PHistory<'p> {
    pool: &'p PmemPool,
    hdr: u64,
}

impl<'p> PHistory<'p> {
    /// Allocates and zero-initializes a fresh history in `pool`.
    pub fn create(pool: &'p PmemPool) -> Result<Self> {
        let hdr = pool.alloc(HISTORY_HDR_SIZE)?;
        // Freed blocks are recycled, so explicitly clear all fields.
        for field in 0..4 {
            pool.write_u64(hdr + field * 8, 0);
        }
        pool.persist(hdr, HISTORY_HDR_SIZE);
        // Deliberately NO fence (MOD minimal-ordering audit, DESIGN.md
        // §13): a fresh history is unreachable until the creating thread
        // publishes it (key-chain append + version stamp), and that
        // publish's fence — same thread — orders this zeroing flush first.
        // A crash before the publish leaves the header unreferenced; the
        // allocator's leak-at-most scan reclaims nothing but also
        // resurrects nothing, so stale field bytes can never be observed.
        Ok(PHistory { pool, hdr })
    }

    /// Wraps an existing history at `hdr` (e.g. found via the key chain).
    pub fn open(pool: &'p PmemPool, hdr: PPtr<HistoryHdr>) -> Self {
        PHistory { pool, hdr: hdr.off() }
    }

    /// [`PHistory::open`] with bounds validation: a history offset read
    /// from corrupt media (e.g. a bit-flipped key-chain pair) must not
    /// cause an out-of-bounds header access. Returns `None` when `hdr`
    /// cannot hold a whole header inside the pool; deeper damage (garbage
    /// counters, unlinked segments) is tolerated by the checked accessors
    /// and classified by the recovery scan instead.
    pub fn open_checked(pool: &'p PmemPool, hdr: PPtr<HistoryHdr>) -> Option<Self> {
        let off = hdr.off();
        if off == 0
            || !off.is_multiple_of(8)
            || off
                .checked_add(HISTORY_HDR_SIZE as u64)
                .is_none_or(|end| end > pool.len() as u64)
        {
            return None;
        }
        Some(PHistory { pool, hdr: off })
    }

    /// The persistent pointer to this history's header.
    pub fn pptr(&self) -> PPtr<HistoryHdr> {
        PPtr::from_off(self.hdr)
    }

    pub fn pool(&self) -> &'p PmemPool {
        self.pool
    }

    #[inline]
    fn pending_cell(&self) -> &AtomicU64 {
        self.pool.atomic_u64(self.hdr)
    }

    #[inline]
    fn tail_cell(&self) -> &AtomicU64 {
        self.pool.atomic_u64(self.hdr + 8)
    }

    #[inline]
    fn head_cell(&self) -> &AtomicU64 {
        self.pool.atomic_u64(self.hdr + 16)
    }

    /// Walks to segment `k`, allocating missing links (CAS; losers dealloc)
    /// — the allocate-and-link path of `claim`.
    fn segment_off(&self, k: u32) -> u64 {
        let mut link_off = self.hdr + 16; // head cell
        for level in 0..=k {
            let mut seg = self.pool.atomic_u64(link_off).load(Ordering::Acquire);
            if seg == 0 {
                seg = match self.alloc_segment(level, link_off) {
                    Ok(off) => off,
                    Err(e) => panic!("pmem exhausted while extending history: {e}"),
                };
            }
            if level == k {
                return seg;
            }
            link_off = seg; // next pointer is the segment's first word
        }
        unreachable!()
    }

    fn alloc_segment(&self, k: u32, link_off: u64) -> Result<u64> {
        let cap = seg_capacity(k);
        let bytes = SEG_HDR_SIZE + cap * ENTRY_SIZE as u64;
        let off = self.pool.alloc(bytes as usize)?;
        // Recycled blocks may hold stale data; `done` words MUST read 0
        // before the segment is linked, so clear everything.
        // SAFETY: `off` is a fresh allocation of exactly `bytes` bytes.
        unsafe { self.pool.zero_bytes(off, bytes as usize) };
        self.pool.write_u64(off + 8, cap);
        self.pool.write_u64(off + 16, seg_base(k));
        self.pool.write_u64(off + 24, mvkv_pmem::crc32c_u64s(&[cap, seg_base(k)]) as u64);
        self.pool.persist(off, bytes as usize);
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
    fn off_of(&self, slot: &Entry) -> u64 {
        (slot as *const Entry as usize).wrapping_sub(self.pool.base_ptr(0) as usize) as u64
    }

    /// True if `seg` is a plausible, uncorrupted segment for `level`:
    /// in bounds for the level's full entry array, 8-aligned, recorded
    /// geometry matching the deterministic expectation, and header CRC
    /// valid. Recovery relies on this to survive scrambled link words —
    /// every check runs *before* any dereference of the candidate offset.
    fn segment_header_ok(&self, level: u32, seg: u64) -> bool {
        let cap = seg_capacity(level);
        let bytes = SEG_HDR_SIZE + cap * ENTRY_SIZE as u64;
        seg.is_multiple_of(8)
            && seg.checked_add(bytes).is_some_and(|end| end <= self.pool.len() as u64)
            && self.pool.read_u64(seg + 8) == cap
            && self.pool.read_u64(seg + 16) == seg_base(level)
            && self.pool.read_u64(seg + 24)
                == mvkv_pmem::crc32c_u64s(&[cap, seg_base(level)]) as u64
    }

    /// The one chain walk behind both fills: follows links from where `cur`
    /// stopped until it covers `n` slots, the chain ends, or (`CHECKED`) a
    /// segment header fails validation.
    #[inline(always)]
    fn fill_from<'a, const CHECKED: bool>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        // The next link is the first word of the last resolved segment.
        let mut link_off = if cur.levels() == 0 { self.hdr + 16 } else { cur.resume() as u64 };
        let base = self.pool.base_ptr(0);
        while cur.covered() < n && !cur.is_full() {
            let seg = self.pool.atomic_u64(link_off).load(Ordering::Acquire);
            if seg == 0 || (CHECKED && !self.segment_header_ok(cur.levels(), seg)) {
                break;
            }
            // SAFETY: segment `levels()` holds `seg_capacity(levels())`
            // zero-initialized, all-atomic entries after its 32-byte header
            // for as long as the pool is mapped. CHECKED: segment_header_ok
            // just proved `[seg, seg + 32 + cap·32)` in-pool and 8-aligned,
            // before any dereference. Unchecked: `seg` is a link word that
            // `alloc_segment` CAS-published after sizing and zeroing exactly
            // that block (live stores trust their own links; anything read
            // from media after a crash goes through the checked fill first).
            unsafe {
                cur.push(
                    base.wrapping_add((seg + SEG_HDR_SIZE) as usize) as *const Entry,
                    seg as usize,
                )
            };
            link_off = seg;
        }
        n.min(cur.covered())
    }

    /// [`Slots::fill`] for media that may be damaged: validates each segment
    /// header exactly once (bounds, geometry, CRC) before resolving it, and
    /// stops at the first that fails or was never linked. Returns how many
    /// of the `n` slots have valid backing — recovery walks bound their
    /// loops by it, never by a `pending` word they cannot trust, so no torn
    /// claim is materialized and no scrambled link is dereferenced.
    pub fn fill_checked<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<true>(cur, n)
    }

    /// Recovery-only: force `pending` and `tail` to recovered values
    /// (persisted).
    pub fn force_counters(&self, pending: u64, tail: u64) {
        self.pending_cell().store(pending, Ordering::Release);
        self.tail_cell().store(tail, Ordering::Release);
        self.pool.persist(self.hdr, 16);
        self.pool.fence();
    }

    /// Raw header fields for recovery audits: `(pending, tail, head_off)`.
    pub fn raw_header(&self) -> (u64, u64, u64) {
        (
            self.pending_cell().load(Ordering::Acquire),
            self.tail_cell().load(Ordering::Acquire),
            self.head_cell().load(Ordering::Acquire),
        )
    }
}

impl<'p> Slots for PHistory<'p> {
    type Slot = &'p Entry;

    fn claim(&self) -> (u64, &'p Entry) {
        let idx = self.pending_cell().fetch_add(1, Ordering::AcqRel);
        let (k, pos) = locate(idx);
        let off = self.segment_off(k) + SEG_HDR_SIZE + pos * ENTRY_SIZE as u64;
        // SAFETY: segment `k` was sized for `seg_capacity(k) > pos` entries
        // by `alloc_segment`, so `off` is in-bounds and 8-aligned; Entry is
        // all-atomic words with no invalid bit patterns.
        (idx, unsafe { self.pool.typed::<Entry>(off) })
    }

    fn pending(&self) -> u64 {
        self.pending_cell().load(Ordering::Acquire)
    }

    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        self.fill_from::<false>(cur, n)
    }

    fn tail_ref(&self) -> &AtomicU64 {
        self.tail_cell()
    }

    // The persist_* hooks issue flushes only; ordering is provided by the
    // single `publish_fence` of the coalesced append schedule (History::
    // append / append_prepare + append_publish).

    fn persist_entry(&self, slot: &Entry) {
        self.pool.persist(self.off_of(slot), 24);
    }

    fn persist_done(&self, slot: &Entry) {
        self.pool.persist(self.off_of(slot) + 24, 8);
    }

    fn persist_tail(&self) {
        self.pool.persist(self.hdr + 8, 8);
    }

    fn persist_pending(&self) {
        self.pool.persist(self.hdr, 8);
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

    #[test]
    fn create_is_zeroed_even_after_recycling() {
        let p = pool();
        // Dirty a block, free it, then create a history that reuses it.
        let dirty = p.alloc(HISTORY_HDR_SIZE).unwrap();
        for field in 0..4 {
            p.write_u64(dirty + field * 8, u64::MAX);
        }
        p.dealloc(dirty);
        let h = PHistory::create(&p).unwrap();
        assert_eq!(h.pptr().off(), dirty, "block should be recycled");
        assert_eq!(h.raw_header(), (0, 0, 0));
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
            e.done.store(i + 2, Ordering::Release);
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
        // Dirty a block of segment 0's size (32 B header + 2 entries), free
        // it, then claim: the recycled block must come back all-zero apart
        // from the geometry words, or a stale `done` would read published.
        let bytes = (SEG_HDR_SIZE + 2 * ENTRY_SIZE as u64) as usize;
        let dirty = p.alloc(bytes).unwrap();
        for word in 0..bytes as u64 / 8 {
            p.write_u64(dirty + word * 8, u64::MAX);
        }
        p.dealloc(dirty);
        let h = PHistory::create(&p).unwrap();
        let (_, e) = h.claim();
        let (_, _, seg0) = h.raw_header();
        assert_eq!(seg0, dirty, "block should be recycled");
        assert_eq!(p.read_u64(seg0), 0, "next link");
        assert_eq!(e.load_if_done(), None);
        for word in 4..bytes as u64 / 8 {
            assert_eq!(p.read_u64(seg0 + word * 8), 0, "entry word {word}");
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
                e.done.store(i + 2, Ordering::Release);
                h.persist_done(e);
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
    fn segment_headers_record_geometry() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for _ in 0..20 {
            h.claim();
        }
        // Walk the chain manually and verify the recorded cap/base.
        let (_, _, mut seg) = h.raw_header();
        let mut k = 0u32;
        while seg != 0 {
            assert_eq!(p.read_u64(seg + 8), seg_capacity(k));
            assert_eq!(p.read_u64(seg + 16), seg_base(k));
            assert_eq!(
                p.read_u64(seg + 24),
                mvkv_pmem::crc32c_u64s(&[seg_capacity(k), seg_base(k)]) as u64,
                "segment {k} header crc"
            );
            seg = p.read_u64(seg);
            k += 1;
        }
        assert!(k >= 3, "20 slots need segments of 2+4+8+...");
    }

    /// How many of `n` slots a checked fill finds valid backing for.
    fn backed(h: &PHistory<'_>, n: u64) -> u64 {
        h.fill_checked(&mut Cursor::new(), n)
    }

    #[test]
    fn checked_fill_rejects_corrupt_segment_links() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for i in 0..6u64 {
            let (_, e) = h.claim();
            e.version.store(i + 1, Ordering::Relaxed);
            e.done.store(i + 2, Ordering::Release);
        }
        assert_eq!(backed(&h, 6), 6);
        // Scramble segment 1's header crc: its slots become unreachable to
        // recovery, segment 0's stay fine — the backing ends exactly at
        // segment 1's first slot.
        let (_, _, seg0) = h.raw_header();
        let seg1 = p.read_u64(seg0);
        let good_crc = p.read_u64(seg1 + 24);
        p.write_u64(seg1 + 24, good_crc ^ 0xFF);
        assert_eq!(backed(&h, 2), 2, "segment 0 unaffected");
        assert_eq!(backed(&h, 6), seg_base(1), "corrupt header must fence off the segment");
        p.write_u64(seg1 + 24, good_crc);
        // An out-of-bounds next pointer must be rejected before any deref.
        p.write_u64(seg0, p.len() as u64 + 8);
        assert_eq!(backed(&h, 6), seg_base(1), "out-of-bounds link must be rejected");
        p.write_u64(seg0, 0xDEAD_BEEF_0000); // garbage beyond the pool
        assert_eq!(backed(&h, 6), seg_base(1));
        // A link whose entry array would straddle the end of the pool.
        p.write_u64(seg0, p.len() as u64 - 64);
        assert_eq!(backed(&h, 6), seg_base(1));
    }

    #[test]
    fn garbage_pending_cannot_drive_the_checked_fill_past_the_chain() {
        let p = pool();
        let h = PHistory::create(&p).unwrap();
        for _ in 0..20 {
            h.claim(); // segments 0..=3: 30 slots of backing
        }
        // A torn or scrambled `pending` word claims slots that never
        // existed; the fill stops where the links do.
        for garbage in [31, 1 << 40, u64::MAX - 1, u64::MAX] {
            assert_eq!(backed(&h, garbage), seg_base(4), "pending = {garbage}");
        }
        // A chain bent into a cycle cannot be walked forever either: the
        // level-3 segment re-linked as its own successor fails level 4's
        // geometry check.
        let (_, _, mut seg) = h.raw_header();
        for _ in 0..3 {
            seg = p.read_u64(seg);
        }
        p.write_u64(seg, seg);
        assert_eq!(backed(&h, u64::MAX), seg_base(4));
    }
}
