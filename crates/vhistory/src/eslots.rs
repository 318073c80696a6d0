//! Heap-backed history storage for the ephemeral store variants
//! (ESkipList, LockedMap).

use crate::slots::{locate, seg_capacity, Entry, Slots};
use mvkv_sync::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

struct ESeg {
    entries: Box<[Entry]>,
    next: AtomicPtr<ESeg>,
}

impl ESeg {
    fn new(cap: u64) -> *mut ESeg {
        let entries: Box<[Entry]> = (0..cap)
            .map(|_| Entry {
                version: AtomicU64::new(0),
                value: AtomicU64::new(0),
                crc: AtomicU64::new(0),
                done: AtomicU64::new(0),
            })
            .collect();
        Box::into_raw(Box::new(ESeg { entries, next: AtomicPtr::new(std::ptr::null_mut()) }))
    }
}

/// An ephemeral per-key version history: lock-free appends via slot claims,
/// segment chain of doubling capacity (see [`crate::slots`] geometry).
pub struct EHistory {
    pending: AtomicU64,
    tail: AtomicU64,
    head: AtomicPtr<ESeg>,
}

impl EHistory {
    pub fn new() -> Self {
        EHistory {
            pending: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Walks to segment `k`, allocating any missing links along the way.
    /// Losing allocators in the CAS race free their segment and adopt the
    /// winner's — the same resolution the paper applies to racing key
    /// allocations (§IV-B).
    fn segment(&self, k: u32) -> &ESeg {
        let mut link: &AtomicPtr<ESeg> = &self.head;
        for level in 0..=k {
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
        unreachable!("loop returns at level == k")
    }
}

impl Default for EHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EHistory {
    fn drop(&mut self) {
        let mut ptr = self.head.load(Ordering::Acquire);
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

impl Slots for EHistory {
    fn claim(&self) -> u64 {
        let idx = self.pending.fetch_add(1, Ordering::AcqRel);
        let (k, _) = locate(idx);
        self.segment(k); // ensure storage exists before the slot is used
        idx
    }

    fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    fn entry(&self, idx: u64) -> &Entry {
        let (k, pos) = locate(idx);
        &self.segment(k).entries[pos as usize]
    }

    fn tail_ref(&self) -> &AtomicU64 {
        &self.tail
    }
}

/// A borrowed history is a provider too, so `History<&EHistory>` can run
/// over storage something else owns (the heap stores' boxed histories). The
/// persist hooks keep their no-op defaults, like [`EHistory`]'s own.
impl Slots for &EHistory {
    fn claim(&self) -> u64 {
        (**self).claim()
    }

    fn pending(&self) -> u64 {
        (**self).pending()
    }

    fn entry(&self, idx: u64) -> &Entry {
        (**self).entry(idx)
    }

    fn tail_ref(&self) -> &AtomicU64 {
        (**self).tail_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn claim_returns_sequential_indices() {
        let h = EHistory::new();
        for expected in 0..100 {
            assert_eq!(h.claim(), expected);
        }
        assert_eq!(h.pending(), 100);
    }

    #[test]
    fn entries_are_independent() {
        let h = EHistory::new();
        for i in 0..50u64 {
            let idx = h.claim();
            let e = h.entry(idx);
            e.version.store(i, Ordering::Relaxed);
            e.value.store(i * 10, Ordering::Relaxed);
            e.done.store(i + 1, Ordering::Release);
        }
        for i in 0..50u64 {
            assert_eq!(h.entry(i).load_if_done(), Some((i, i * 10)));
        }
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
                        let idx = h.claim();
                        let e = h.entry(idx);
                        e.value.store(t * 1_000_000 + i, Ordering::Relaxed);
                        e.done.store(idx + 1, Ordering::Release);
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
        assert_eq!(h.pending(), 4000);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn drop_frees_long_chains_without_leak_or_crash() {
        let h = EHistory::new();
        for _ in 0..100_000 {
            h.claim();
        }
        drop(h); // exercised under the test allocator; crash = failure
    }
}
