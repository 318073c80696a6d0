//! Heap-backed history storage for the ephemeral store variants
//! (ESkipList, LockedMap): the persistent layout's geometry — two entries in
//! the history itself, then segments of 7, 15, 31, … — on the heap.

use crate::slots::{claim_index, locate, seg_base, seg_capacity, Cursor, Entry, Slots};
use mvkv_sync::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::ptr::null_mut;

struct ESeg {
    entries: Box<[Entry]>,
    next: AtomicPtr<ESeg>,
    /// The segment this one is linked behind (null at level 1, whose
    /// predecessor is the history itself): set before the link, never
    /// changed — the persistent history's back link.
    prev: *const ESeg,
}

impl ESeg {
    fn new(cap: u64, prev: *const ESeg) -> *mut ESeg {
        let entries: Box<[Entry]> = (0..cap).map(|_| Entry::zeroed()).collect();
        let next = AtomicPtr::new(std::ptr::null_mut());
        Box::into_raw(Box::new(ESeg { entries, next, prev }))
    }

    /// The segment's level `k`, from its capacity `(4 << k) − 1`.
    fn level(&self) -> u32 {
        (self.entries.len() as u64 + 1).trailing_zeros() - 2
    }
}

/// An ephemeral per-key version history: lock-free appends via slot claims,
/// segment chain of doubling capacity (see [`crate::slots`] geometry). Like
/// the persistent history it is its own segment 0: a key's first
/// `seg_capacity(0)` versions cost the one allocation that holds the history.
///
/// This is the storage; `&EHistory` is the [`Slots`] handle onto it, the way
/// [`crate::PHistory`] is a handle onto a pool.
pub struct EHistory {
    pending: AtomicU32,
    tail: AtomicU32,
    /// Segment 1.
    next: AtomicPtr<ESeg>,
    /// The deepest linked segment of level ≥ 2 (null: none), where a claim
    /// starts its walk: the persistent history's newest-segment word.
    newest: AtomicPtr<ESeg>,
    inline: [Entry; seg_capacity(0) as usize],
}

impl EHistory {
    pub fn new() -> Self {
        EHistory {
            pending: AtomicU32::new(0),
            tail: AtomicU32::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
            newest: AtomicPtr::new(std::ptr::null_mut()),
            inline: std::array::from_fn(|_| Entry::zeroed()),
        }
    }

    /// Walks to segment `k ≥ 1` — from segment 1, or from the segment
    /// `newest` names when its level is at most `k` — linking any missing
    /// segment on the way: the claim's walk, as [`crate::PHistory`]'s. A
    /// walk that follows a link past `newest` raises it to where it lands.
    fn segment(&self, k: u32) -> &ESeg {
        // `ptr` is the segment of `level`, linked at `link` (null: not yet).
        let (mut level, mut link) = (1, &self.next);
        let mut ptr = link.load(Ordering::Acquire);
        if !ptr.is_null() && k >= 2 {
            let newest = self.newest.load(Ordering::Acquire);
            if !newest.is_null() {
                // SAFETY: `newest` names linked segments only, and segments
                // are never freed while the history lives.
                let at = unsafe { &*newest }.level();
                if at <= k {
                    (level, ptr) = (at, newest);
                }
            }
        }
        // The segment `link` belongs to (null: the history itself).
        let mut prev: *const ESeg = std::ptr::null();
        let mut walked = false;
        loop {
            if ptr.is_null() {
                ptr = self.extend(level, link, prev);
            }
            // SAFETY: segments are never freed while the history lives.
            let seg = unsafe { &*ptr };
            if level == k {
                if walked {
                    self.raise_newest(ptr, k);
                }
                return seg;
            }
            (level, link, prev) = (level + 1, &seg.next, ptr);
            ptr = link.load(Ordering::Acquire);
            walked |= !ptr.is_null();
        }
    }

    /// Links a new segment of `level` at `link`, the `next` of `prev`, and
    /// returns the linked one. Losing allocators in the CAS race free their
    /// segment and adopt the winner's — the same resolution the paper
    /// applies to racing key allocations (§IV-B).
    fn extend(&self, level: u32, link: &AtomicPtr<ESeg>, prev: *const ESeg) -> *mut ESeg {
        let fresh = ESeg::new(seg_capacity(level), prev);
        match link.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                if level >= 2 {
                    self.raise_newest(fresh, level);
                }
                fresh
            }
            Err(winner) => {
                // SAFETY: fresh was never shared.
                drop(unsafe { Box::from_raw(fresh) });
                winner
            }
        }
    }

    /// Raises `newest` to `seg`, a linked segment of level `k ≥ 2`, unless
    /// it names one at least as deep: the CAS never lowers it.
    fn raise_newest(&self, seg: *mut ESeg, k: u32) {
        let mut seen = self.newest.load(Ordering::Acquire);
        // SAFETY: as in `segment`: `seen` is null or a linked segment.
        while seen.is_null() || unsafe { &*seen }.level() < k {
            match self.newest.compare_exchange(seen, seg, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(now) => seen = now,
            }
        }
    }
}

impl Default for EHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EHistory {
    fn drop(&mut self) {
        let mut ptr = self.next.load(Ordering::Acquire);
        while !ptr.is_null() {
            // SAFETY: exclusive access in drop; chain nodes are uniquely owned.
            let seg = unsafe { Box::from_raw(ptr) };
            ptr = seg.next.load(Ordering::Acquire);
        }
    }
}

// SAFETY: all shared state is atomic; segments are immutable once linked.
unsafe impl Send for EHistory {}
// SAFETY: same reasoning as Send — segments are append-only and atomic.
unsafe impl Sync for EHistory {}

/// A borrowed history is the provider, so `History<&EHistory>` runs over
/// storage something else owns (a local, an `Arc`, the heap stores' boxed
/// histories) and a resolved slot can outlive the `History` wrapper. The
/// persist hooks keep their no-op defaults.
impl<'e> Slots for &'e EHistory {
    type Slot = &'e Entry;

    fn claim(&self) -> (u64, &'e Entry) {
        let this: &'e EHistory = self;
        let idx = claim_index(&this.pending);
        let (k, pos) = locate(idx);
        let entries = if k == 0 { &this.inline[..] } else { &this.segment(k).entries };
        (idx, &entries[pos as usize])
    }

    fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire) as u64
    }

    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        if cur.levels() == 0 {
            // SAFETY: segment 0 is the history's own array of
            // `seg_capacity(0)` entries, alive and unmoved while borrowed.
            unsafe {
                cur.push(self.inline.as_ptr(), &self.next as *const AtomicPtr<ESeg> as usize)
            };
        }
        // SAFETY: the token of a non-empty cursor is the address of the
        // `next` cell behind the last segment this function pushed, and
        // segments live as long as the history.
        let mut link: &AtomicPtr<ESeg> = unsafe { &*(cur.resume() as *const AtomicPtr<ESeg>) };
        while cur.covered() < n && !cur.is_full() {
            let ptr = link.load(Ordering::Acquire);
            if ptr.is_null() {
                break;
            }
            // SAFETY: segments are never freed while the history lives.
            let seg = unsafe { &*ptr };
            debug_assert_eq!(seg.entries.len() as u64, seg_capacity(cur.levels()));
            link = &seg.next;
            // SAFETY: `segment` links level `k` with exactly
            // `seg_capacity(k)` entries, boxed for the history's lifetime,
            // and the loop condition left room in the cursor.
            unsafe { cur.push(seg.entries.as_ptr(), link as *const AtomicPtr<ESeg> as usize) };
        }
        n.min(cur.covered())
    }

    fn start<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) {
        let seg1 = if n > seg_base(1) { self.next.load(Ordering::Acquire) } else { null_mut() };
        if seg1.is_null() {
            let next = &self.next as *const AtomicPtr<ESeg> as usize;
            // SAFETY: segment 0 is the history's own array of
            // `seg_capacity(0)` entries, alive and unmoved while borrowed.
            unsafe { cur.start_at(0, self.inline.as_ptr(), next, 0) };
            return;
        }
        let newest = if n > seg_base(2) { self.newest.load(Ordering::Acquire) } else { null_mut() };
        // SAFETY: `seg1` is linked and `newest` names linked segments only;
        // segments are never freed while the history lives.
        let seg = unsafe { &*if newest.is_null() { seg1 } else { newest } };
        let resume = &seg.next as *const AtomicPtr<ESeg> as usize;
        // SAFETY: a linked segment of level `k` holds exactly
        // `seg_capacity(k)` entries, boxed for the history's lifetime.
        unsafe {
            cur.start_at(seg.level(), seg.entries.as_ptr(), resume, seg as *const ESeg as usize)
        };
    }

    fn fill_back<'a>(&'a self, cur: &mut Cursor<'a>, idx: u64) {
        let target = locate(idx).0;
        while cur.lowest() > target {
            // SAFETY: the token of a cursor's lowest level `k ≥ 1` is its
            // segment, and segments live as long as the history.
            let prev = unsafe { &*(cur.down() as *const ESeg) }.prev;
            if prev.is_null() {
                // SAFETY: as in `start`: segment 0 is the history's own array.
                unsafe { cur.push_down(self.inline.as_ptr(), 0) };
                break;
            }
            // SAFETY: `prev` is the linked segment of level `k − 1` this one
            // was linked behind, set before the link and never changed.
            let entries = unsafe { &(*prev).entries };
            // SAFETY: `prev` holds `seg_capacity(k − 1)` boxed entries.
            unsafe { cur.push_down(entries.as_ptr(), prev as usize) };
        }
    }

    fn tail_ref(&self) -> &AtomicU32 {
        &self.tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn claim_returns_sequential_indices() {
        let storage = EHistory::new();
        let h = &storage;
        for expected in 0..100 {
            assert_eq!(h.claim().0, expected);
        }
        assert_eq!(h.pending(), 100);
    }

    #[test]
    fn entries_are_independent() {
        let storage = EHistory::new();
        let h = &storage;
        for i in 0..50u64 {
            let (_, e) = h.claim();
            e.version.store(i, Ordering::Relaxed);
            e.value.store(i * 10, Ordering::Relaxed);
            e.crc_done.store(Entry::stamp(i, i * 10), Ordering::Release);
        }
        let mut cur = Cursor::new();
        h.fill(&mut cur, 50);
        for i in 0..50u64 {
            assert_eq!(cur.entry(i).load_if_done(), Some((i, i * 10)));
        }
    }

    #[test]
    fn fill_resolves_only_what_is_asked_and_linked() {
        let storage = EHistory::new();
        let h = &storage;
        let mut cur = Cursor::new();
        h.fill(&mut cur, 0);
        assert_eq!((cur.levels(), cur.covered()), (0, 0), "nothing asked, nothing resolved");
        h.fill(&mut cur, 10);
        assert_eq!((cur.levels(), cur.covered()), (1, 2), "empty chain: the inline slots only");
        for _ in 0..30 {
            h.claim(); // segments 0..=3 (2 + 7 + 15 + 31 slots)
        }
        h.fill(&mut cur, 1);
        assert_eq!(cur.levels(), 1, "one slot is the history itself");
        h.fill(&mut cur, 10);
        assert_eq!((cur.levels(), cur.covered()), (3, 24), "resumes, stops once covered");
        h.fill(&mut cur, u64::MAX);
        assert_eq!((cur.levels(), cur.covered()), (4, 55), "stops at the end of the chain");
    }

    /// The segment of `level` by the links alone.
    fn linked(h: &EHistory, level: u32) -> *mut ESeg {
        // SAFETY: segments live as long as the history.
        (1..level).fold(h.next.load(Ordering::Acquire), |seg, _| unsafe {
            (*seg).next.load(Ordering::Acquire)
        })
    }

    #[test]
    fn a_claim_starts_at_the_newest_segment() {
        let storage = EHistory::new();
        let h = &storage;
        for _ in 0..300 {
            h.claim();
        }
        // Slot 300 lies in segment 6; `newest` names it. With the link
        // behind segment 3 cut, a walk from segment 1 would link a new
        // segment 4 there.
        let seg6 = linked(h, 6);
        assert_eq!(storage.newest.load(Ordering::Acquire), seg6);
        // SAFETY: as in `linked`.
        let (seg3, seg4) = unsafe { (&*linked(h, 3), linked(h, 4)) };
        seg3.next.store(std::ptr::null_mut(), Ordering::Release);
        let (idx, entry) = h.claim();
        assert!(seg3.next.load(Ordering::Acquire).is_null(), "nothing linked behind segment 3");
        seg3.next.store(seg4, Ordering::Release);
        // SAFETY: as in `linked`.
        let entries = unsafe { &(*seg6).entries };
        assert!(std::ptr::eq(entry, &entries[locate(idx).1 as usize]), "slot {idx}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_claims_are_unique_and_usable() {
        let h = Arc::new(EHistory::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..500u64 {
                        let (idx, e) = (&*h).claim();
                        e.value.store(t * 1_000_000 + i, Ordering::Relaxed);
                        e.crc_done.store(Entry::DONE, Ordering::Release);
                        mine.push(idx);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4000).collect();
        assert_eq!(all, expected, "slot claims must be unique and gapless");
        assert_eq!((&*h).pending(), 4000);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn drop_frees_long_chains_without_leak_or_crash() {
        let h = EHistory::new();
        for _ in 0..100_000 {
            (&h).claim();
        }
        drop(h); // exercised under the test allocator; crash = failure
    }
}
