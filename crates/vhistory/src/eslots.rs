//! Heap-backed history storage for the ephemeral store variants
//! (ESkipList, LockedMap).

use crate::slots::{claim_index, locate, seg_capacity, Cursor, Entry, Slots};
use mvkv_sync::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

struct ESeg {
    entries: Box<[Entry]>,
    next: AtomicPtr<ESeg>,
}

impl ESeg {
    fn new(cap: u64) -> *mut ESeg {
        let entries: Box<[Entry]> = (0..cap).map(|_| Entry::zeroed()).collect();
        Box::into_raw(Box::new(ESeg { entries, next: AtomicPtr::new(std::ptr::null_mut()) }))
    }
}

/// An ephemeral per-key version history: lock-free appends via slot claims,
/// segment chain of doubling capacity (see [`crate::slots`] geometry). Like
/// the persistent history it is its own segment 0: a key's first three
/// versions cost the one allocation that holds the history.
///
/// This is the storage; `&EHistory` is the [`Slots`] handle onto it, the way
/// [`crate::PHistory`] is a handle onto a pool.
pub struct EHistory {
    pending: AtomicU32,
    tail: AtomicU32,
    /// Segment 1.
    next: AtomicPtr<ESeg>,
    inline: [Entry; seg_capacity(0) as usize],
}

impl EHistory {
    pub fn new() -> Self {
        EHistory {
            pending: AtomicU32::new(0),
            tail: AtomicU32::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
            inline: std::array::from_fn(|_| Entry::zeroed()),
        }
    }

    /// Walks to segment `k ≥ 1`, allocating any missing links along the way
    /// — the allocate-and-link path of `claim`. Losing allocators in the CAS
    /// race free their segment and adopt the winner's — the same resolution
    /// the paper applies to racing key allocations (§IV-B).
    fn segment(&self, k: u32) -> &ESeg {
        let mut link: &AtomicPtr<ESeg> = &self.next;
        for level in 1..=k {
            let mut ptr = link.load(Ordering::Acquire);
            if ptr.is_null() {
                let fresh = ESeg::new(seg_capacity(level));
                match link.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ptr = fresh,
                    Err(winner) => {
                        // SAFETY: fresh was never shared.
                        drop(unsafe { Box::from_raw(fresh) });
                        ptr = winner;
                    }
                }
            }
            // SAFETY: segments are never freed while the history lives.
            let seg = unsafe { &*ptr };
            if level == k {
                return seg;
            }
            link = &seg.next;
        }
        unreachable!("loop returns at level == k >= 1")
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
        assert_eq!((cur.levels(), cur.covered()), (1, 3), "empty chain: the inline slots only");
        for _ in 0..30 {
            h.claim(); // segments 0..=3 (3 + 7 + 15 + 31 slots)
        }
        h.fill(&mut cur, 1);
        assert_eq!(cur.levels(), 1, "one slot is the history itself");
        h.fill(&mut cur, 11);
        assert_eq!((cur.levels(), cur.covered()), (3, 25), "resumes, stops once covered");
        h.fill(&mut cur, u64::MAX);
        assert_eq!((cur.levels(), cur.covered()), (4, 56), "stops at the end of the chain");
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
