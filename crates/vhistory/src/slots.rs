//! The [`Slots`] storage abstraction shared by ephemeral and persistent
//! histories, the deterministic segment geometry, and the [`Cursor`] that
//! turns the geometry into addresses.
//!
//! A history's slots live in a chain of segments: segment `k` is a 24-byte
//! header and `(4 << k) − 1` entries of 24 bytes — 3, 7, 15, … — so that a
//! segment is exactly `96 << k` bytes, which an allocator size class holds
//! with nothing to spare. Segment 0 is the history itself: its three entries
//! sit behind the history's own header, so a key that is inserted, removed
//! and inserted again is one block and follows no link. Because the geometry
//! is deterministic, the segment index and in-segment position of any slot
//! follow from the slot index alone. The segment's *address* does not:
//! segment `k ≥ 1` is only reachable through the `k` links before it, so
//! addressing a slot costs a walk of the chain. An operation therefore walks
//! once — [`Slots::fill`] records the address of every segment it passes in
//! an on-stack [`Cursor`] — and indexes the cursor for every slot it touches
//! afterwards.

use mvkv_sync::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
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
/// pm-resident: cast onto pool bytes by `PHistory` segments; audited by
/// `xtask analyze` against `pm_layout.lock`. expects-crc: payload integrity
/// code required on this record type.
#[repr(C)]
pub struct Entry {
    pub version: AtomicU64,
    pub value: AtomicU64,
    pub crc_done: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == ENTRY_SIZE);

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
/// The `persist_*` hooks are no-ops for ephemeral storage.
pub trait Slots {
    /// A resolved slot: a reference to its entry that lives as long as the
    /// storage, not the handle, so one address serves every step of an
    /// append — including a publish issued from a later handle.
    type Slot: Copy + Deref<Target = Entry>;
    /// Atomically claims the next slot index, growing storage as needed,
    /// and resolves it (the one chain walk of an append).
    fn claim(&self) -> (u64, Self::Slot);
    /// Number of claimed slots.
    fn pending(&self) -> u64;
    /// Extends `cur` along the segment chain until it covers `n` slots or
    /// the chain ends; never allocates. Resumes where `cur` stopped, so
    /// growing a cursor follows each link once. Returns how many of the `n`
    /// slots are resolved (`n` unless the chain ended first).
    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64;
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

/// Segments a [`Cursor`] can resolve: 40 doubling segments hold 2^42 − 44
/// slots, more than the 2^32 − 1 a history's counters can claim.
pub const MAX_SEGMENTS: usize = 40;

/// The addresses of a history's leading segments, resolved by one walk of
/// the chain ([`Slots::fill`]) and kept on the stack for the duration of
/// one operation. Nothing is cached across operations: PM (or the heap
/// chain) stays the only copy of the links.
///
/// Only the levels a fill reaches are written; a cursor over a history of
/// up to three entries is one store and no link load.
pub struct Cursor<'a> {
    levels: u32,
    /// Where the provider's walk continues (meaningful once `levels > 0`).
    resume: usize,
    segs: [MaybeUninit<*const Entry>; MAX_SEGMENTS],
    _storage: PhantomData<&'a Entry>,
}

impl<'a> Cursor<'a> {
    /// A cursor that has resolved nothing yet.
    #[inline]
    pub fn new() -> Self {
        Cursor {
            levels: 0,
            resume: 0,
            segs: [MaybeUninit::uninit(); MAX_SEGMENTS],
            _storage: PhantomData,
        }
    }

    /// Number of resolved segments (one more than the chain links followed).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of slots with resolved backing: `[0, covered())`.
    #[inline]
    pub fn covered(&self) -> u64 {
        seg_base(self.levels)
    }

    /// True once no further segment can be recorded.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.levels as usize == MAX_SEGMENTS
    }

    /// The provider's resume token of the last [`Cursor::push`].
    #[inline]
    pub fn resume(&self) -> usize {
        self.resume
    }

    /// Records the next segment: `entries` is the first entry of segment
    /// `levels()`, `resume` whatever the provider needs to continue.
    ///
    /// # Safety
    /// `entries` must point at `seg_capacity(self.levels())` initialized
    /// [`Entry`] records that stay valid and are never moved for `'a`, and
    /// the cursor must not be full.
    #[inline]
    pub unsafe fn push(&mut self, entries: *const Entry, resume: usize) {
        self.segs[self.levels as usize] = MaybeUninit::new(entries);
        self.levels += 1;
        self.resume = resume;
    }

    /// The entry at `idx`; panics unless `idx < covered()`.
    #[inline]
    pub fn entry(&self, idx: u64) -> &'a Entry {
        let (k, pos) = locate(idx);
        assert!(k < self.levels, "slot {idx} is beyond the {} resolved segments", self.levels);
        // SAFETY: `k < levels`, so `segs[k]` was written by `push`, whose
        // contract is a live array of `seg_capacity(k)` entries for `'a`;
        // `locate` yields `pos < seg_capacity(k)`. Persistent providers
        // establish the array's bounds before pushing (`PHistory::
        // fill_checked` proves the whole array in-pool on untrusted media).
        unsafe { &*self.segs[k as usize].assume_init().add(pos as usize) }
    }
}

impl Default for Cursor<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bytes of a segment header: the history's own counters, link and check
/// word for segment 0, `next / base / CRC` for every later one.
pub const SEG_HDR_SIZE: usize = 24;

/// Capacity of segment `k`: 3, 7, 15, … — what is left of `96 << k` bytes
/// behind the header.
#[inline]
pub const fn seg_capacity(k: u32) -> u64 {
    (4u64 << k) - 1
}

/// Global slot index of segment `k`'s first entry: 0, 3, 10, 25, 56, … .
#[inline]
pub const fn seg_base(k: u32) -> u64 {
    (4u64 << k) - 4 - k as u64
}

// A segment fills a `96 << k` block exactly, and the bases are the running
// sum of the capacities.
const _: () = {
    let mut k = 0;
    while k < MAX_SEGMENTS as u32 {
        assert!(SEG_HDR_SIZE as u64 + seg_capacity(k) * ENTRY_SIZE as u64 == 96 << k);
        assert!(seg_base(k) + seg_capacity(k) == seg_base(k + 1));
        k += 1;
    }
};

/// Maps a slot index to `(segment, position within segment)`.
#[inline]
pub fn locate(idx: u64) -> (u32, u64) {
    // 4·2^k − 4 − k ≤ idx puts k at ⌊log2(idx + 4)⌋ − 2 or, for the last
    // few slots below the next power of two, one segment further.
    let low = 61 - (idx + 4).leading_zeros();
    let k = low + (idx >= seg_base(low + 1)) as u32;
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
        assert_eq!(locate(2), (0, 2));
        assert_eq!(locate(3), (1, 0));
        assert_eq!(locate(9), (1, 6));
        assert_eq!(locate(10), (2, 0));
        assert_eq!(locate(24), (2, 14));
        assert_eq!(locate(25), (3, 0));
        let boundaries: Vec<u64> = (1..=6).map(seg_base).collect();
        assert_eq!(boundaries, [3, 10, 25, 56, 119, 246]);
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
            let pow = (4u64 << k) - 4;
            assert_eq!(locate(pow), (k, k as u64));
            assert_eq!(63 - (base + 4).leading_zeros() - 2, k - 1);
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
