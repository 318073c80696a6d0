//! The [`Slots`] storage abstraction shared by ephemeral and persistent
//! histories, the deterministic segment geometry, and the [`Cursor`] that
//! turns the geometry into addresses.
//!
//! A history's slots live in a chain of segments. Segment 0 is the history
//! itself: two entries behind the history's own 16-byte header, one 64-byte
//! cache line, so a key that is inserted and removed is one line and follows
//! no link. Segment `k ≥ 1` is a 24-byte header and `(4 << k) − 1` entries of
//! 24 bytes — 7, 15, 31, … — so that it is exactly `96 << k` bytes; an
//! allocator size class holds either with nothing to spare. Because the geometry
//! is deterministic, the segment index and in-segment position of any slot
//! follow from the slot index alone. The segment's *address* does not: it is
//! reached through links. Every segment `k ≥ 2` links forward to `k + 1` and
//! back to `k − 1`, and segment 1 names the history's newest segment, so a
//! walk can start at either end: a find starts at the newest segment
//! ([`Slots::start`]) and follows back links down ([`Slots::fill_back`]) to
//! the segment its version lies in; recovery and whole-history reads walk
//! forward from the history block ([`Slots::fill`]). Either way an operation
//! walks once, records the address of every segment it passes in an on-stack
//! [`Cursor`], and indexes the cursor for every slot it touches afterwards.

use mvkv_sync::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::marker::PhantomData;
use std::mem::{align_of, offset_of, size_of, MaybeUninit};
use std::ops::Deref;

/// Size of one slot entry in bytes (three u64 words).
pub const ENTRY_SIZE: usize = 24;

/// One history slot: the payload and one stamp word, `crc_done`, that is both
/// the paper's non-zero "finished" mark and the payload's integrity code —
/// `DONE | crc32c(version, value)`. `version`/`value` are written, flushed and
/// fenced first; the stamp is the one word the publish stores (Release), so
/// observing it non-zero (Acquire) guarantees the payload is valid, and a slot
/// is published exactly when it is intact: a zero stamp is an unpublished
/// slot, and a torn, forged or damaged stamp fails its own CRC. Recovery
/// takes the durable contiguous prefix from the stamps; recovery and
/// verify-on-read reject entries whose stamp does not match the payload.
///
/// pm-resident: cast onto pool bytes by `PHistory` segments.
#[repr(C)]
pub struct Entry {
    pub version: AtomicU64,
    pub value: AtomicU64,
    pub crc_done: AtomicU64,
}

const _: () = assert!(size_of::<Entry>() == ENTRY_SIZE && align_of::<Entry>() == 8);
const _: () = assert!(offset_of!(Entry, version) == 0 && offset_of!(Entry, value) == 8);
const _: () = assert!(offset_of!(Entry, crc_done) == 16);

impl Entry {
    /// The "finished" bit of the stamp word. Bits 32–62 are always zero.
    pub const DONE: u64 = 1 << 63;

    /// An unclaimed slot: all three words zero, as freshly zeroed PM reads.
    pub const fn zeroed() -> Self {
        Entry { version: AtomicU64::new(0), value: AtomicU64::new(0), crc_done: AtomicU64::new(0) }
    }

    /// The integrity code for a `(version, value)` payload: CRC32C,
    /// widened to a u64 word (high half zero).
    #[inline]
    pub fn expected_crc(version: u64, value: u64) -> u64 {
        mvkv_pmem::crc32c_u64s(&[version, value]) as u64
    }

    /// The stamp word that publishes a `(version, value)` payload.
    #[inline]
    pub fn stamp(version: u64, value: u64) -> u64 {
        Self::DONE | Self::expected_crc(version, value)
    }

    /// True if the stored stamp is the one the stored payload publishes
    /// with: `DONE` set, bits 32–62 clear, CRC matching.
    ///
    /// Sound for any published slot (or any slot whose publication
    /// happened-before this load): the payload words are immutable after
    /// the Release stamp store.
    #[inline]
    pub fn crc_valid(&self) -> bool {
        // ordering: callers only verify slots already covered by an Acquire
        // edge (stamp/tail), so Relaxed payload loads observe final values.
        let version = self.version.load(Ordering::Relaxed);
        let value = self.value.load(Ordering::Relaxed);
        self.crc_done.load(Ordering::Relaxed) == Self::stamp(version, value)
    }

    /// Loads the entry if its write has been published.
    #[inline]
    pub fn load_if_done(&self) -> Option<(u64, u64)> {
        if self.crc_done.load(Ordering::Acquire) == 0 {
            return None;
        }
        // ordering: the Acquire load of the stamp above synchronizes with
        // the Release publish, so the payload words are stable.
        Some((self.version.load(Ordering::Relaxed), self.value.load(Ordering::Relaxed)))
    }
}

/// Slots a history can hold: its `pending` and `tail` counters are 32 bits.
pub const MAX_SLOTS: u64 = u32::MAX as u64;

/// Claims the next slot index from a history's `pending` counter. The claim
/// that would wrap the counter is refused (a panic, like a full pool) and
/// leaves it where it was.
#[inline]
pub fn claim_index(pending: &AtomicU32) -> u64 {
    let mut idx = pending.load(Ordering::Acquire);
    loop {
        assert!((idx as u64) < MAX_SLOTS, "history is full: 2^32 − 1 slots");
        match pending.compare_exchange_weak(idx, idx + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return idx as u64,
            Err(now) => idx = now,
        }
    }
}

/// Storage provider for one key's history slots: a handle onto storage that
/// outlives it (a pool, a borrowed heap history).
///
/// `claim` performs any segment extension its slot needs, so every slot a
/// writer publishes has backing storage a later [`Slots::fill`] resolves.
/// The append's own claim, [`Slots::claim_unlinked`], may instead leave the
/// segment its slot opens for [`Slots::link`] to link behind the append's
/// publish fence. The `persist_*` hooks are no-ops for ephemeral storage.
pub trait Slots {
    /// A resolved slot: a reference to its entry that lives as long as the
    /// storage, not the handle, so one address serves every step of an
    /// append — including a publish issued from a later handle. A slot from
    /// [`Slots::claim_unlinked`] may also carry a segment to be linked.
    type Slot: Copy + Deref<Target = Entry>;
    /// Atomically claims the next slot index, growing storage as needed,
    /// and resolves it (the one chain walk of an append).
    fn claim(&self) -> (u64, Self::Slot);
    /// The claim of [`crate::History::append_prepare`]: a provider that has
    /// to order a new segment before it links it may allocate the segment
    /// this slot opens and leave it unlinked, for the append's publish fence
    /// to order. Nothing reaches the slot until [`Slots::link`] links it.
    fn claim_unlinked(&self) -> (u64, Self::Slot) {
        self.claim()
    }
    /// Links the segment [`Slots::claim_unlinked`] left unlinked for `slot`,
    /// if any, and returns the slot as it now lies: the publish half of an
    /// append calls it after the fence that ordered its prepare, before the
    /// stamp.
    fn link(&self, slot: Self::Slot) -> Self::Slot {
        slot
    }
    /// Number of claimed slots.
    fn pending(&self) -> u64;
    /// Extends `cur` along the segment chain until it covers `n` slots or
    /// the chain ends; never allocates. Resumes where `cur` stopped — the
    /// history block for an empty cursor — so growing a cursor follows each
    /// link once. Returns how many of the `n` slots are resolved (`n` unless
    /// the chain ended first).
    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64;
    /// Resolves, into the empty `cur`, the one segment a walk toward slot
    /// `n − 1` starts from, following no chain link: the history block
    /// while `n ≤ seg_base(1)` or nothing is linked, segment 1 while `n ≤
    /// seg_base(2)` or no newest segment is named, else the newest segment.
    /// [`Slots::fill`] then walks forward when that one lies below slot `n −
    /// 1`'s, and [`Slots::fill_back`] down from it.
    fn start<'a>(&'a self, cur: &mut Cursor<'a>, n: u64);
    /// Extends `cur` down its back links until it resolves slot `idx`'s
    /// segment; `cur` must not be empty. Segment 1's predecessor is the
    /// history block, which costs no link.
    fn fill_back<'a>(&'a self, cur: &mut Cursor<'a>, idx: u64);
    /// The lazily advanced tail counter (first not-yet-visible slot index).
    fn tail_ref(&self) -> &AtomicU32;
    /// Flushes a resolved slot's `(version, value)` words.
    fn persist_entry(&self, _slot: &Entry) {}
    /// Flushes a resolved slot's stamp.
    fn persist_stamp(&self, _slot: &Entry) {}
    /// Flushes the tail counter.
    fn persist_tail(&self) {}
    /// Flushes the pending counter.
    fn persist_pending(&self) {}
    /// Ordering fence separating entry persists from the stamp publish —
    /// the *single* fence of the coalesced append schedule. One call may
    /// cover any number of prepared appends. No-op for ephemeral storage.
    fn publish_fence(&self) {}
}

/// Segments a [`Cursor`] can resolve: 40 doubling segments hold 2^42 − 45
/// slots, more than the 2^32 − 1 a history's counters can claim.
pub const MAX_SEGMENTS: usize = 40;

/// The addresses of a run of a history's segments, levels `lowest() ..
/// levels()`, resolved by one walk of the chain and kept on the stack for
/// the duration of one operation. A forward walk ([`Slots::fill`]) resolves
/// the run up from the history block or from where a start left it, a back
/// walk ([`Slots::fill_back`]) down from the segment [`Slots::start`]
/// resolved. Nothing is cached across operations: PM (or the heap chain)
/// stays the only copy of the links.
///
/// Only the levels a walk reaches are written; a cursor over a history of
/// up to two entries is one store and no link load.
pub struct Cursor<'a> {
    /// The lowest resolved level.
    lo: u32,
    /// One past the highest resolved level (0: empty).
    levels: u32,
    /// Where the provider's forward walk continues (once `levels > 0`).
    resume: usize,
    /// Where the provider's back walk continues: its token for level `lo`.
    down: usize,
    /// Per resolved level `k`, its entry array's address biased by
    /// `−seg_base(k)` entries: slot `idx` of the level is `segs[k] + idx`,
    /// with no position to compute.
    segs: [MaybeUninit<*const Entry>; MAX_SEGMENTS],
    _storage: PhantomData<&'a Entry>,
}

impl<'a> Cursor<'a> {
    /// A cursor that has resolved nothing yet.
    #[inline]
    pub fn new() -> Self {
        Cursor {
            lo: 0,
            levels: 0,
            resume: 0,
            down: 0,
            segs: [MaybeUninit::uninit(); MAX_SEGMENTS],
            _storage: PhantomData,
        }
    }

    /// One past the highest resolved level: the number of resolved segments
    /// of a cursor filled from the history block (one more than the chain
    /// links followed).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The lowest resolved level: 0 unless the cursor was started above the
    /// history block and not walked back to it.
    #[inline]
    pub fn lowest(&self) -> u32 {
        self.lo
    }

    /// One past the highest slot with resolved backing: the cursor resolves
    /// `[seg_base(lowest()), covered())`.
    #[inline]
    pub fn covered(&self) -> u64 {
        seg_base(self.levels)
    }

    /// True once no further segment can be recorded.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.levels as usize == MAX_SEGMENTS
    }

    /// The provider's resume token of the last [`Cursor::push`] or
    /// [`Cursor::start_at`].
    #[inline]
    pub fn resume(&self) -> usize {
        self.resume
    }

    /// The provider's back-walk token of the lowest resolved level, from
    /// [`Cursor::start_at`] or [`Cursor::push_down`].
    #[inline]
    pub fn down(&self) -> usize {
        self.down
    }

    /// Records the next segment up: `entries` is the first entry of segment
    /// `levels()`, `resume` whatever the provider needs to continue.
    ///
    /// # Safety
    /// `entries` must point at `seg_capacity(self.levels())` initialized
    /// [`Entry`] records that stay valid and are never moved for `'a`, and
    /// the cursor must not be full.
    #[inline]
    pub unsafe fn push(&mut self, entries: *const Entry, resume: usize) {
        self.segs[self.levels as usize] = MaybeUninit::new(Self::biased(entries, self.levels));
        self.levels += 1;
        self.resume = resume;
    }

    /// Records segment `level` as the first of an empty cursor; `resume`
    /// continues a forward walk above it, `down` a back walk below it.
    ///
    /// # Safety
    /// The cursor must be empty, `level < MAX_SEGMENTS`, and `entries` as
    /// for [`Cursor::push`] at `level`.
    #[inline]
    pub unsafe fn start_at(
        &mut self,
        level: u32,
        entries: *const Entry,
        resume: usize,
        down: usize,
    ) {
        debug_assert_eq!(self.levels, 0, "a cursor starts once");
        self.segs[level as usize] = MaybeUninit::new(Self::biased(entries, level));
        (self.lo, self.levels, self.resume, self.down) = (level, level + 1, resume, down);
    }

    /// Records the segment below the lowest resolved one; `down` continues
    /// the back walk below it.
    ///
    /// # Safety
    /// `lowest() > 0`, and `entries` as for [`Cursor::push`] at level
    /// `lowest() − 1`.
    #[inline]
    pub unsafe fn push_down(&mut self, entries: *const Entry, down: usize) {
        self.lo -= 1;
        self.segs[self.lo as usize] = MaybeUninit::new(Self::biased(entries, self.lo));
        self.down = down;
    }

    #[inline]
    fn biased(entries: *const Entry, level: u32) -> *const Entry {
        entries.wrapping_sub(seg_base(level) as usize)
    }

    /// The entry at `idx`; panics unless `idx`'s segment is resolved.
    #[inline]
    pub fn entry(&self, idx: u64) -> &'a Entry {
        let k = segment_of(idx);
        if k.wrapping_sub(self.lo) >= self.levels - self.lo {
            self.unresolved(idx, k);
        }
        // SAFETY: `lo <= k < levels`, so `segs[k]` was written by `push`,
        // `start_at` or `push_down`, whose contract is a live array of
        // `seg_capacity(k)` entries for `'a`; adding `idx` undoes the bias
        // they applied and lands on entry `idx − seg_base(k) <
        // seg_capacity(k)` of that array (wrapping arithmetic keeps the
        // array's provenance). Persistent providers establish the array's
        // bounds before recording it (`PHistory::fill_checked` proves the
        // whole array in-pool on untrusted media).
        unsafe { &*self.segs[k as usize].assume_init().wrapping_add(idx as usize) }
    }

    #[cold]
    #[inline(never)]
    fn unresolved(&self, idx: u64, k: u32) -> ! {
        if k >= self.levels {
            panic!("slot {idx} is beyond the {} resolved segments", self.levels);
        }
        panic!("slot {idx} is below the resolved segments {}..{}", self.lo, self.levels);
    }
}

impl Default for Cursor<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bytes of the history's own header in front of segment 0's entries: the
/// counters, the link to segment 1 and the check word, 32 bits each.
pub const HIST_HDR_SIZE: usize = 16;

/// Bytes of the header of segment `k ≥ 1`: `next / base / CRC`.
pub const SEG_HDR_SIZE: usize = 24;

/// Capacity of segment `k`: 2, then 7, 15, 31, … — what is left of 64 bytes
/// behind the history's header, and of `96 << k` behind a segment's.
#[inline]
pub const fn seg_capacity(k: u32) -> u64 {
    (4u64 << k) - 1 - (k == 0) as u64
}

/// Global slot index of segment `k`'s first entry: 0, 2, 9, 24, 55, … .
#[inline]
pub const fn seg_base(k: u32) -> u64 {
    (4u64 << k) - 4 - k as u64 - (k > 0) as u64
}

// The history fills one cache line and segment `k ≥ 1` a `96 << k` block
// exactly, and the bases are the running sum of the capacities.
const _: () = {
    let mut k = 0;
    while k < MAX_SEGMENTS as u32 {
        let (hdr, bytes) = if k == 0 { (HIST_HDR_SIZE, 64) } else { (SEG_HDR_SIZE, 96 << k) };
        assert!(hdr as u64 + seg_capacity(k) * ENTRY_SIZE as u64 == bytes);
        assert!(seg_base(k) + seg_capacity(k) == seg_base(k + 1));
        k += 1;
    }
};

/// The segment holding slot `idx`.
#[inline]
fn segment_of(idx: u64) -> u32 {
    // 4·2^k − 5 − k ≤ idx (k ≥ 1) puts k at ⌊log2(idx + 5)⌋ − 2 or, for the
    // last few slots below the next power of two, one segment further;
    // segment 0's two slots fall out of the same compare. The compare is
    // against `seg_base(low + 1)`, spelled out for a level known to be ≥ 1.
    let low = 61 - (idx + 5).leading_zeros();
    low + (idx >= (8u64 << low) - 6 - low as u64) as u32
}

/// Maps a slot index to `(segment, position within segment)`.
#[inline]
pub fn locate(idx: u64) -> (u32, u64) {
    let k = segment_of(idx);
    (k, idx - seg_base(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn geometry_is_consistent() {
        let mut expected_seg = 0u32;
        let mut consumed = 0u64;
        for idx in 0..10_000u64 {
            if idx - seg_base(expected_seg) >= seg_capacity(expected_seg) {
                consumed += seg_capacity(expected_seg);
                expected_seg += 1;
            }
            let (k, pos) = locate(idx);
            assert_eq!(k, expected_seg, "segment for slot {idx}");
            assert_eq!(pos, idx - consumed, "position for slot {idx}");
            assert!(pos < seg_capacity(k));
        }
    }

    #[test]
    fn first_slots_land_in_segment_zero() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (0, 1));
        assert_eq!(locate(2), (1, 0));
        assert_eq!(locate(8), (1, 6));
        assert_eq!(locate(9), (2, 0));
        assert_eq!(locate(23), (2, 14));
        assert_eq!(locate(24), (3, 0));
        let capacities: Vec<u64> = (0..=4).map(seg_capacity).collect();
        assert_eq!(capacities, [2, 7, 15, 31, 63]);
        let boundaries: Vec<u64> = (1..=6).map(seg_base).collect();
        assert_eq!(boundaries, [2, 9, 24, 55, 118, 245]);
    }

    #[test]
    fn locate_is_one_compare_past_the_log() {
        // Around every boundary, and at the far end of the index range the
        // cursor can hold.
        for k in 1..MAX_SEGMENTS as u32 {
            let base = seg_base(k);
            assert_eq!(locate(base - 1), (k - 1, seg_capacity(k - 1) - 1), "last slot of {k}−1");
            assert_eq!(locate(base), (k, 0), "first slot of segment {k}");
            // The slots between the boundary and the power of two behind it
            // are the ones the log alone puts a segment too low.
            let pow = (4u64 << k) - 5;
            assert_eq!(locate(pow), (k, k as u64));
            assert_eq!(63 - (base + 5).leading_zeros() - 2, k - 1);
        }
        let last = seg_base(MAX_SEGMENTS as u32) - 1;
        assert_eq!(locate(last).0, MAX_SEGMENTS as u32 - 1);
    }

    #[test]
    fn entry_publish_protocol() {
        let e = Entry::zeroed();
        assert_eq!(e.load_if_done(), None);
        e.version.store(7, Ordering::Relaxed);
        e.value.store(99, Ordering::Relaxed);
        assert_eq!(e.load_if_done(), None, "payload alone is not visible: the stamp is 0");
        assert!(!e.crc_valid());
        e.crc_done.store(Entry::stamp(7, 99), Ordering::Release);
        assert_eq!(e.load_if_done(), Some((7, 99)));
        assert!(e.crc_valid());
    }

    #[test]
    fn crc_rejects_damaged_payload() {
        let e = Entry {
            version: AtomicU64::new(7),
            value: AtomicU64::new(99),
            crc_done: AtomicU64::new(Entry::stamp(7, 99)),
        };
        assert!(e.crc_valid());
        // Any single damaged word invalidates the record.
        e.value.store(98, Ordering::Relaxed);
        assert!(!e.crc_valid());
        e.value.store(99, Ordering::Relaxed);
        e.version.store(6, Ordering::Relaxed);
        assert!(!e.crc_valid());
        e.version.store(7, Ordering::Relaxed);
        e.crc_done.store(0, Ordering::Relaxed);
        assert!(!e.crc_valid());
        // A fully zeroed record (zeroed-block fault) never validates: a
        // stamp has its DONE bit.
        assert!(!Entry::zeroed().crc_valid());
    }

    #[test]
    fn only_the_exact_stamp_is_a_stamp() {
        let good = Entry::stamp(7, 99);
        assert_eq!(good, Entry::DONE | Entry::expected_crc(7, 99));
        assert_eq!(good >> 32, Entry::DONE >> 32, "bits 32-62 of a stamp are zero");
        let e = Entry {
            version: AtomicU64::new(7),
            value: AtomicU64::new(99),
            crc_done: AtomicU64::new(good),
        };
        // DONE with a wrong CRC, the right CRC without DONE, and every
        // single flipped bit — the never-set bits 32-62 included.
        let forged = [Entry::DONE | (Entry::expected_crc(7, 99) ^ 1), good & !Entry::DONE];
        for bad in forged.into_iter().chain((0..64).map(|bit| good ^ (1 << bit))) {
            e.crc_done.store(bad, Ordering::Relaxed);
            assert!(!e.crc_valid(), "stamp {bad:#x}");
        }
    }

    #[test]
    fn claim_refuses_the_slot_that_would_wrap_the_counter() {
        let pending = AtomicU32::new(u32::MAX - 1);
        assert_eq!(claim_index(&pending), MAX_SLOTS - 1, "the last slot a history holds");
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| claim_index(&pending)));
        assert!(refused.is_err());
        assert_eq!(pending.load(Ordering::Acquire), u32::MAX, "refused, not wrapped");
    }
}
