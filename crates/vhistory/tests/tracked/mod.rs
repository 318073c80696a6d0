//! A [`Slots`] wrapper over [`EHistory`] that watches what [`History`] asks
//! of its provider: the persist schedule of every claimed slot, and how many
//! segment-chain links each operation follows. Shared by the loom models and
//! the cursor tests.
//!
//! Its own bookkeeping uses std atomics on purpose: they are invisible to
//! the model scheduler, so tracking adds no interleavings to a model.
//!
//! [`History`]: mvkv_vhistory::History

#![allow(dead_code)] // each test binary uses its own half

use mvkv_vhistory::slots::locate;
use mvkv_vhistory::{Cursor, EHistory, Entry, Slots};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Durability state of one slot's payload words.
pub const DIRTY: u8 = 0;
/// `persist_entry` issued, not yet ordered by a fence.
pub const FLUSHED: u8 = 1;
/// A `publish_fence` ordered the flush: durable before any later store.
pub const FENCED: u8 = 2;

struct Tracked {
    /// Address of the slot's entry, recorded by the claim (0 = unclaimed).
    entry: AtomicUsize,
    state: AtomicU8,
}

/// Wraps [`EHistory`], tracks the persist schedule per slot — asserting the
/// PR-2 coalescing invariant: a stamp publish may only happen once the
/// slot's payload flush has been ordered by the single publish fence — and
/// counts chain links followed.
pub struct TrackedSlots<'e> {
    /// The history the delegating calls below go to.
    ehistory: &'e EHistory,
    slots: Vec<Tracked>,
    links: AtomicU64,
    back_links: AtomicU64,
}

impl<'e> TrackedSlots<'e> {
    /// Tracks up to `capacity` claims of `ehistory`.
    pub fn new(ehistory: &'e EHistory, capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Tracked { entry: AtomicUsize::new(0), state: AtomicU8::new(DIRTY) })
            .collect();
        TrackedSlots { ehistory, slots, links: AtomicU64::new(0), back_links: AtomicU64::new(0) }
    }

    pub fn slot_state(&self, idx: u64) -> u8 {
        self.slots[idx as usize].state.load(Ordering::SeqCst)
    }

    /// Forward chain links followed since the last call: one per level a
    /// `fill` resolved or a `claim` walked past — segment 0 is the history
    /// itself and costs none.
    pub fn take_links(&self) -> u64 {
        self.links.swap(0, Ordering::SeqCst)
    }

    /// Back links followed since the last call: one per level a `fill_back`
    /// resolved — but segment 0, which is the history itself.
    pub fn take_back_links(&self) -> u64 {
        self.back_links.swap(0, Ordering::SeqCst)
    }

    fn tracked(&self, slot: &Entry) -> &Tracked {
        let addr = slot as *const Entry as usize;
        self.slots
            .iter()
            .find(|t| t.entry.load(Ordering::SeqCst) == addr)
            .expect("persist hook called for a slot this wrapper never claimed")
    }
}

impl<'e> Slots for TrackedSlots<'e> {
    type Slot = &'e Entry;

    fn claim(&self) -> (u64, &'e Entry) {
        let (idx, slot) = self.ehistory.claim();
        assert!((idx as usize) < self.slots.len(), "wrapper tracks {} slots", self.slots.len());
        self.slots[idx as usize].entry.store(slot as *const Entry as usize, Ordering::SeqCst);
        self.links.fetch_add(locate(idx).0 as u64, Ordering::SeqCst);
        (idx, slot)
    }

    fn pending(&self) -> u64 {
        self.ehistory.pending()
    }

    fn fill<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) -> u64 {
        let before = cur.levels().max(1);
        let resolved = self.ehistory.fill(cur, n);
        self.links.fetch_add((cur.levels().max(1) - before) as u64, Ordering::SeqCst);
        resolved
    }

    fn start<'a>(&'a self, cur: &mut Cursor<'a>, n: u64) {
        self.ehistory.start(cur, n);
    }

    fn fill_back<'a>(&'a self, cur: &mut Cursor<'a>, idx: u64) {
        let before = cur.lowest();
        self.ehistory.fill_back(cur, idx);
        let followed = before.saturating_sub(cur.lowest().max(1));
        self.back_links.fetch_add(followed as u64, Ordering::SeqCst);
    }

    fn tail_ref(&self) -> &mvkv_sync::sync::atomic::AtomicU32 {
        self.ehistory.tail_ref()
    }

    fn persist_entry(&self, slot: &Entry) {
        self.tracked(slot).state.store(FLUSHED, Ordering::SeqCst);
    }

    fn publish_fence(&self) {
        // The fence orders every previously issued flush; an entry that is
        // still DIRTY stays dirty (fences don't flush).
        for t in &self.slots {
            let _ = t.state.compare_exchange(FLUSHED, FENCED, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    fn persist_stamp(&self, slot: &Entry) {
        assert_eq!(
            self.tracked(slot).state.load(Ordering::SeqCst),
            FENCED,
            "stamp persisted before its payload flush was fence-ordered"
        );
    }
}
