//! The skip-list implementation. See crate docs for the protocol overview.

use mvkv_sync::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::alloc::Layout;
use std::cmp::Ordering as KeyOrder;
use std::marker::PhantomData;
use std::ptr;

/// Maximum tower height. With p = 1/2 this comfortably indexes 2^20+ keys
/// at the paper's scale (10^6–2·10^6 keys per node).
pub const MAX_HEIGHT: usize = 24;

/// A node: this header, and behind it **in the same allocation** its tower —
/// `height` link cells starting at `tower`, one per level, each the next node
/// at that level (null = end of list). A hop touches one heap object, and the
/// key and the low levels share a cache line.
///
/// `key`, `value` and `height` are written while the node is private to the
/// inserting thread and never again; after publication only the tower cells
/// change. Nodes are handled exclusively through raw pointers carrying the
/// provenance of the whole block: a `&Node` would cover the header alone,
/// and a tower pointer derived from it would be out of bounds for the borrow
/// models. The list head is a `MAX_HEIGHT` node whose `key` and `value` stay
/// uninitialized and are never read.
#[repr(C)]
struct Node<K> {
    key: K,
    value: u64,
    height: usize,
    /// Where the tower starts; the cells themselves lie past the header.
    tower: [AtomicPtr<Node<K>>; 0],
}

impl<K> Node<K> {
    fn layout(height: usize) -> Layout {
        let tower = height * std::mem::size_of::<AtomicPtr<Node<K>>>();
        Layout::from_size_align(std::mem::offset_of!(Self, tower) + tower, std::mem::align_of::<Self>())
            .expect("tower of at most MAX_HEIGHT links")
    }

    /// Allocates a block for `height` levels: `height` set, every link
    /// null, `key` and `value` uninitialized.
    fn alloc(height: usize) -> *mut Node<K> {
        debug_assert!((1..=MAX_HEIGHT).contains(&height));
        let layout = Self::layout(height);
        // SAFETY: the layout holds at least the header, so its size is not 0.
        let node = unsafe { std::alloc::alloc(layout) }.cast::<Node<K>>();
        if node.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: the block is fresh, private, and large enough for the
        // header and `height` links; `write` does not read the old bytes.
        unsafe {
            (&raw mut (*node).height).write(height);
            for level in 0..height {
                Self::tower(node).add(level).write(AtomicPtr::new(ptr::null_mut()));
            }
        }
        node
    }

    /// A fully initialized, unpublished node.
    fn new(key: K, value: u64, height: usize) -> *mut Node<K> {
        let node = Self::alloc(height);
        // SAFETY: `alloc` returned a private block with room for the header.
        unsafe {
            (&raw mut (*node).key).write(key);
            (&raw mut (*node).value).write(value);
        }
        node
    }

    /// First cell of the tower.
    ///
    /// # Safety
    /// `node` must come from [`Node::alloc`] and not have been freed.
    #[inline]
    unsafe fn tower(node: *mut Node<K>) -> *mut AtomicPtr<Node<K>> {
        // SAFETY: the field projection stays inside the live block, and the
        // result keeps `node`'s provenance over the whole of it — no
        // reference is formed on the way.
        unsafe { (&raw mut (*node).tower).cast() }
    }

    /// The level-`level` link out of `node` — the one accessor every reader,
    /// writer, iterator and destructor goes through.
    ///
    /// # Safety
    /// `node` must come from [`Node::alloc`], outlive `'a`, and have a
    /// tower taller than `level`.
    #[inline]
    unsafe fn next<'a>(node: *mut Node<K>, level: usize) -> &'a AtomicPtr<Node<K>> {
        // SAFETY: per the contract the cell is inside the live block; it was
        // initialized by `alloc` and is only ever accessed atomically.
        unsafe {
            debug_assert!(level < (*node).height);
            &*Self::tower(node).add(level)
        }
    }

    /// Returns the block to the allocator **without** dropping the key.
    ///
    /// # Safety
    /// `node` must come from [`Node::alloc`], be unreachable by any other
    /// thread, and not be used again.
    unsafe fn free_block(node: *mut Node<K>) {
        // SAFETY: exclusive access per the contract; `height` is what
        // `alloc` built the layout from. The cells are dropped in place
        // because under `--cfg loom` they are model-checker objects.
        unsafe {
            let height = (*node).height;
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(Self::tower(node), height));
            std::alloc::dealloc(node.cast(), Self::layout(height));
        }
    }

    /// Drops the key and frees the block.
    ///
    /// # Safety
    /// As [`Node::free_block`], and `node` must come from [`Node::new`].
    unsafe fn free(node: *mut Node<K>) {
        // SAFETY: `new` initialized the key; nobody else can observe it.
        unsafe {
            ptr::drop_in_place(&raw mut (*node).key);
            Self::free_block(node);
        }
    }
}

/// Failed upper-level link attempts per level before the tower top is
/// abandoned. Level 0 is ground truth (iteration, membership, duplicates);
/// upper levels are only a search accelerator, so under heavy contention it
/// is cheaper to leave a tower short than to keep re-finding — the expected
/// extra walk cost is O(1) amortized over the geometric height
/// distribution.
const UPPER_LINK_RETRIES: usize = 4;

/// Randomized exponential backoff after a lost CAS: spin a jittered,
/// attempt-scaled number of iterations so colliding writers desynchronize
/// instead of re-colliding in lockstep on the same predecessor cell.
#[cfg(not(loom))]
#[inline]
fn backoff(attempt: usize) {
    use std::cell::Cell;
    thread_local! {
        static JITTER: Cell<u64> = const { Cell::new(0x9E37_79B9_97F4_A7C1) };
    }
    let r = JITTER.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    });
    let ceil = 1u64 << attempt.min(7); // 2 .. 128 spins
    for _ in 0..(1 + r % ceil) {
        std::hint::spin_loop();
    }
}

/// Under the model checker backoff is a no-op: loom explores all
/// interleavings regardless, and extra spin states blow the schedule
/// budget.
#[cfg(loom)]
#[inline]
fn backoff(_attempt: usize) {}

/// What a descent keeps of the levels it leaves (see [`SkipList::descend`]).
trait Path<K> {
    /// The descent found no match at `level`: `pred` is the last node there
    /// with a smaller key (or the head), `succ` the link out of it.
    fn leave(&mut self, level: usize, pred: *mut Node<K>, succ: *mut Node<K>);
}

/// A read keeps nothing.
impl<K> Path<K> for () {
    #[inline(always)]
    fn leave(&mut self, _: usize, _: *mut Node<K>, _: *mut Node<K>) {}
}

/// Where a new node goes: per level, the cell to CAS (`preds[level]`'s link)
/// and the value the descent read from it. Starts out as "head, then end of
/// list" at every level, which is what a level no descent has reached yet
/// holds.
struct Splice<K> {
    preds: [*mut Node<K>; MAX_HEIGHT],
    succs: [*mut Node<K>; MAX_HEIGHT],
}

impl<K> Splice<K> {
    fn new(head: *mut Node<K>) -> Self {
        Splice { preds: [head; MAX_HEIGHT], succs: [ptr::null_mut(); MAX_HEIGHT] }
    }
}

impl<K> Path<K> for Splice<K> {
    #[inline(always)]
    fn leave(&mut self, level: usize, pred: *mut Node<K>, succ: *mut Node<K>) {
        self.preds[level] = pred;
        self.succs[level] = succ;
    }
}

/// Result of [`SkipList::insert_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was absent; this thread's payload is now installed.
    Inserted(u64),
    /// Another thread installed the key first (or it already existed).
    /// `existing` is the installed payload; `yours` is the payload this
    /// thread created (if the factory ran) and must now reclaim.
    Lost { existing: u64, yours: Option<u64> },
}

impl InsertOutcome {
    /// The payload now associated with the key, whoever installed it.
    pub fn payload(&self) -> u64 {
        match *self {
            InsertOutcome::Inserted(v) => v,
            InsertOutcome::Lost { existing, .. } => existing,
        }
    }

    /// True if this thread's insertion won.
    pub fn inserted(&self) -> bool {
        matches!(self, InsertOutcome::Inserted(_))
    }
}

/// A lock-free, insert-only ordered map from `K` to a 64-bit payload.
///
/// # Examples
///
/// ```
/// use mvkv_skiplist::SkipList;
///
/// let list = SkipList::new();
/// list.insert_with(5u64, || 50);
/// list.insert_with(1u64, || 10);
/// assert_eq!(list.get(&5), Some(50));
/// let keys: Vec<u64> = list.iter().map(|(&k, _)| k).collect();
/// assert_eq!(keys, vec![1, 5]); // always in key order
/// ```
pub struct SkipList<K> {
    /// The head tower: a keyless `MAX_HEIGHT` node, so a predecessor is
    /// always a node and every link is reached through [`Node::next`].
    head: *mut Node<K>,
    max_level: AtomicUsize,
    len: AtomicU64,
    height_seed: AtomicU64,
}

// SAFETY: the list owns its nodes (and their keys) through `head`; moving it
// to another thread moves the keys, hence `K: Send`. The counters are atomics.
unsafe impl<K: Send> Send for SkipList<K> {}
// SAFETY: a shared list hands out `&K` and accepts `K` from any thread, and
// frees on one thread keys inserted by another; node headers are immutable
// after publication and all links are atomic pointers.
unsafe impl<K: Send + Sync> Sync for SkipList<K> {}

impl<K: Ord> SkipList<K> {
    pub fn new() -> Self {
        SkipList {
            head: Node::alloc(MAX_HEIGHT),
            max_level: AtomicUsize::new(1),
            len: AtomicU64::new(0),
            height_seed: AtomicU64::new(0x5EED_1234_5678_9ABC),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Geometric tower height (p = 1/2).
    ///
    /// The RNG state is **contention-sharded**: each thread advances a
    /// private xorshift stream, and the shared `height_seed` counter is
    /// touched exactly once per thread — to draw a distinct stream seed —
    /// instead of once per insert. With the old single atomic counter,
    /// every insert on every thread bounced the same cache line before the
    /// real work even started.
    #[cfg(not(loom))]
    fn random_height(&self) -> usize {
        use std::cell::Cell;
        thread_local! {
            static STATE: Cell<u64> = const { Cell::new(0) };
        }
        let x = STATE.with(|s| {
            let mut x = s.get();
            if x == 0 {
                // ordering: the seed counter only needs atomicity; heights
                // are thread-local from here on.
                x = self.height_seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
                    | 0x5EED_0000_0000_0001;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.set(x);
            x
        });
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Under the model checker heights must be a deterministic function of
    /// the shared seed (not of OS-thread-local state loom cannot replay),
    /// so the original single-counter path is kept.
    #[cfg(loom)]
    fn random_height(&self) -> usize {
        // ordering: the seed only needs atomicity; heights are local.
        let x = self.height_seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// The descent — Algorithm 2's `FindSkip`, and the only place the list
    /// compares keys: the first node with key ≥ `key` (null = none) and
    /// whether its key equals `key`. At every level it leaves without a
    /// match it hands `path` the predecessor and the successor (first node
    /// with a larger key, null = end) there; levels at or above the list's
    /// current height are not reported. Reads pass `()` and the bookkeeping
    /// compiles away; writes pass a [`Splice`]. One `Ord::cmp` per distinct
    /// node visited.
    ///
    /// **Early exit.** The descent returns at the first level where it
    /// meets an equal key instead of walking down to level 0. This is
    /// linearizable because towers are linked bottom-up: the inserter
    /// links level L only after its level-0 CAS — the linearization point
    /// of the insert — succeeded, and nodes are never unlinked. A node
    /// reached through any level-L link is therefore already a member of
    /// the level-0 list, and stays one. The Acquire load that returned the
    /// node pairs with the inserter's AcqRel CAS on that cell, which is
    /// sequenced after the writes of `key`, `value`, the node's level-0
    /// link and the level-0 CAS, so the header and the level-0 successor
    /// read through the node are the published ones.
    ///
    /// The argument does not ask who is descending. A writer that meets its
    /// key at an upper level has met a published node whose payload never
    /// changes — the key exists, whether it was there all along or won a
    /// race a moment ago — and reports it without having seen level 0. A
    /// writer re-scanning for its *own* published node (after losing an
    /// upper-level CAS at level L) meets it at level L − 1, where it is
    /// already linked, having reported every level from L up: exactly the
    /// ones it still has to link.
    ///
    /// Keys are unique, so on a match the equal node is also the lower
    /// bound; on a miss the descent ends at level 0 with `curr` the first
    /// node with a larger key. When a level's successor is the node the
    /// level above just found larger, its key is not compared again.
    #[inline]
    fn descend<P: Path<K>>(&self, key: &K, path: &mut P) -> (*mut Node<K>, bool) {
        let mut level = self.max_level.load(Ordering::Acquire) - 1;
        let mut pred = self.head;
        let mut larger: *mut Node<K> = ptr::null_mut();
        loop {
            // SAFETY: `pred` is the head or a node reached through a link at
            // `level` or above, so its tower is taller than `level`; nodes
            // are never freed while the list lives (insert-only).
            let curr = unsafe { Node::next(pred, level) }.load(Ordering::Acquire);
            if !curr.is_null() && curr != larger {
                #[cfg(all(target_arch = "x86_64", not(any(loom, miri))))]
                if level > 0 {
                    // While `curr`'s key is on its way from memory, start
                    // fetching the node the descent visits if `curr` turns
                    // out larger: its address sits in `pred`'s tower, which
                    // is already in cache.
                    // SAFETY: `level - 1` is inside `pred`'s tower; a
                    // prefetch is a hint and never faults.
                    unsafe {
                        // ordering: the pointer is never dereferenced.
                        let below = Node::next(pred, level - 1).load(Ordering::Relaxed);
                        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                        _mm_prefetch::<_MM_HINT_T0>(below.cast());
                    }
                }
                // SAFETY: `curr` was read from a live link with Acquire, so
                // its header is published and immutable.
                match unsafe { &(*curr).key }.cmp(key) {
                    KeyOrder::Less => {
                        pred = curr;
                        continue;
                    }
                    KeyOrder::Equal => return (curr, true),
                    KeyOrder::Greater => larger = curr,
                }
            }
            path.leave(level, pred, curr);
            if level == 0 {
                return (curr, false);
            }
            level -= 1;
        }
    }

    /// Looks up the payload for `key`.
    pub fn get(&self, key: &K) -> Option<u64> {
        let (node, found) = self.descend(key, &mut ());
        // SAFETY: a found node is non-null and published (see `descend`).
        found.then(|| unsafe { (*node).value })
    }

    /// In-order iterator starting at the first key ≥ `key`.
    pub fn range_from(&self, key: &K) -> Iter<'_, K> {
        Iter { curr: self.descend(key, &mut ()).0, _list: PhantomData }
    }

    /// Inserts `key` with a payload produced by `factory` (called at most
    /// once, only when the key appears absent) — or looks it up: if the key
    /// is present the one descent returns its payload at the level it meets
    /// it, at the cost of a [`SkipList::get`]. On a duplicate-key race the
    /// loser's node is freed here; any payload the factory produced is
    /// handed back via [`InsertOutcome::Lost::yours`] for caller cleanup.
    pub fn insert_with<F: FnOnce() -> u64>(&self, key: K, factory: F) -> InsertOutcome {
        self.insert_tower(key, Self::random_height, factory)
    }

    /// [`SkipList::insert_with`] with the tower height drawn by `height`
    /// (only when the key appears absent).
    fn insert_tower<H, F>(&self, key: K, height: H, factory: F) -> InsertOutcome
    where
        H: FnOnce(&Self) -> usize,
        F: FnOnce() -> u64,
    {
        let mut at = Splice::new(self.head);

        let (existing, found) = self.descend(&key, &mut at);
        if found {
            // SAFETY: `descend` found a published node; its header is immutable.
            let value = unsafe { (*existing).value };
            return InsertOutcome::Lost { existing: value, yours: None };
        }

        let height = height(self);
        let value = factory();
        let node = Node::new(key, value, height);

        // Raise the list's active level first so finds can see tall towers.
        let mut top = self.max_level.load(Ordering::Acquire);
        while height > top {
            match self.max_level.compare_exchange_weak(
                top,
                height,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(t) => top = t,
            }
        }

        // Level-0 CAS is the linearization point; retry on any interference.
        let mut attempt = 0usize;
        loop {
            for (level, succ) in at.succs.iter().enumerate().take(height) {
                // SAFETY: node is still private to this thread.
                // ordering: the level-0 AcqRel CAS below publishes these.
                unsafe { Node::next(node, level) }.store(*succ, Ordering::Relaxed);
            }
            // SAFETY: every node (and the head) has a level-0 link.
            let cell0 = unsafe { Node::next(at.preds[0], 0) };
            match cell0.compare_exchange(at.succs[0], node, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(_) => {
                    // Something changed next to us: back off, then re-scan.
                    // The backoff matters precisely here — dense fresh-key
                    // storms make neighbors share a predecessor cell, and
                    // lockstep retries re-collide.
                    attempt += 1;
                    backoff(attempt);
                    // SAFETY: node is still exclusively ours (CAS failed).
                    let (winner, lost) = self.descend(unsafe { &(*node).key }, &mut at);
                    if lost {
                        // Duplicate-key race lost — the winner may have been
                        // met at any level of its tower: free our unpublished
                        // node, surface our payload for cleanup, adopt the
                        // winner's.
                        // SAFETY: winner is a published, never-freed node.
                        let existing = unsafe { (*winner).value };
                        // SAFETY: node came from `Node::new` and never
                        // became reachable.
                        unsafe { Node::free(node) };
                        return InsertOutcome::Lost { existing, yours: Some(value) };
                    }
                }
            }
        }

        // Link the upper levels bottom-up; each may need its own re-scan
        // loop, but only a **bounded** one: after UPPER_LINK_RETRIES lost
        // races at a level the rest of the tower is abandoned. The node is
        // already fully linked at every level below, finds tolerate the
        // missing upper links (they only make searches walk slightly
        // farther at that level), and under contention the re-find is the
        // expensive part — unbounded retries were a measured contributor to
        // the multi-writer cliff.
        'tower: for level in 1..height {
            let mut tries = 0usize;
            loop {
                // Never `node` itself: a descent reports only levels it
                // leaves without a match.
                let succ = at.succs[level];
                // SAFETY: node is published; next updates are atomic.
                // ordering: made visible by the AcqRel CAS on the pred cell
                // right below; on CAS failure the store is redone.
                unsafe { Node::next(node, level) }.store(succ, Ordering::Relaxed);
                // SAFETY: a descent reported `preds[level]` at `level` (or it
                // is the head), so its tower is taller than `level`.
                let cell = unsafe { Node::next(at.preds[level], level) };
                if cell
                    .compare_exchange(succ, node, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                tries += 1;
                if tries >= UPPER_LINK_RETRIES {
                    break 'tower; // leave the tower short; level 0 is truth
                }
                backoff(tries);
                // The re-scan meets `node` at `level - 1`, its highest link
                // so far, and stops there: `level` and everything above —
                // all this loop has left to read — are reported afresh.
                // SAFETY: node is published and its key is immutable.
                let (met, _) = self.descend(unsafe { &(*node).key }, &mut at);
                debug_assert_eq!(met, node, "keys are unique and nodes are never unlinked");
            }
        }

        self.len.fetch_add(1, Ordering::AcqRel);
        InsertOutcome::Inserted(value)
    }
}

/// A run of nodes in strictly increasing key order, linked to each other at
/// every level and not yet part of any list: what [`SkipList::fragment`]
/// builds and [`SkipList::adopt`] stitches. Dropping a fragment that was
/// never adopted frees its nodes.
pub struct Fragment<K> {
    /// First and last node per level; null at the levels no tower reaches.
    first: [*mut Node<K>; MAX_HEIGHT],
    last: [*mut Node<K>; MAX_HEIGHT],
    len: u64,
    dropped: u64,
}

// SAFETY: a fragment owns its nodes (and their keys) through `first[0]` and
// shares them with nobody; sending it sends the keys, hence `K: Send`.
unsafe impl<K: Send> Send for Fragment<K> {}

impl<K> Fragment<K> {
    /// Number of nodes.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Input pairs left out because their key was not greater than the
    /// key before them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<K> Drop for Fragment<K> {
    fn drop(&mut self) {
        // SAFETY: an unadopted fragment is the only owner of its nodes,
        // all from `Node::new`, each reachable at level 0 exactly once
        // (`adopt` forgets the fragments it links instead of dropping them).
        unsafe { free_chain(self.first[0]) }
    }
}

/// Frees the level-0 chain starting at `curr` (null = nothing).
///
/// # Safety
/// Every node of the chain must come from [`Node::new`], be unreachable by
/// any other thread, and not be used again.
unsafe fn free_chain<K>(mut curr: *mut Node<K>) {
    while !curr.is_null() {
        // SAFETY: per the contract `curr` is a live node owned by the caller.
        unsafe {
            let next = Node::next(curr, 0).load(Ordering::Acquire);
            Node::free(curr);
            curr = next;
        }
    }
}

impl<K: Ord> SkipList<K> {
    /// Bulk construction, step one: builds a [`Fragment`] from `pairs`,
    /// which must come in strictly increasing key order — a pair whose key
    /// is not greater than the last key kept is dropped (and counted, see
    /// [`Fragment::dropped`]), so of equal keys the first wins. One node per
    /// key, heights drawn as [`SkipList::insert_with`] draws them, every
    /// link written through a per-level tail: no descent and no CAS. Safe to
    /// call from several threads at once, one key range each.
    pub fn fragment(&self, pairs: impl IntoIterator<Item = (K, u64)>) -> Fragment<K> {
        self.fragment_towers(pairs, Self::random_height)
    }

    /// [`SkipList::fragment`] with every tower height drawn by `height`.
    fn fragment_towers(
        &self,
        pairs: impl IntoIterator<Item = (K, u64)>,
        mut height: impl FnMut(&Self) -> usize,
    ) -> Fragment<K> {
        let null = ptr::null_mut();
        let mut frag =
            Fragment { first: [null; MAX_HEIGHT], last: [null; MAX_HEIGHT], len: 0, dropped: 0 };
        for (key, value) in pairs {
            let tail = frag.last[0];
            // SAFETY: `tail` is a node this call built; its key is initialized.
            if !tail.is_null() && unsafe { &(*tail).key } >= &key {
                frag.dropped += 1;
                continue;
            }
            let height = height(self);
            let node = Node::new(key, value, height);
            for level in 0..height {
                let prev = std::mem::replace(&mut frag.last[level], node);
                if prev.is_null() {
                    frag.first[level] = node;
                } else {
                    // SAFETY: `prev` was built by this call with a tower
                    // taller than `level`, and no other thread can see it.
                    // ordering: the fragment is private to this thread; it
                    // reaches others only through `adopt`'s `&mut self`.
                    unsafe { Node::next(prev, level) }.store(node, Ordering::Relaxed);
                }
            }
            frag.len += 1;
        }
        frag
    }

    /// Bulk construction, step two: makes `fragments` — in key order, every
    /// key of one smaller than every key of the next; empty ones are fine —
    /// the contents of this list, which must be empty. Costs one link per
    /// fragment and level, whatever the fragments hold. `&mut self` is the
    /// publication: nobody else can be reading the list, and whoever it is
    /// shared with afterwards synchronizes with this thread to get it.
    ///
    /// # Panics
    /// If the list is not empty or two fragments are out of order.
    pub fn adopt(&mut self, fragments: impl IntoIterator<Item = Fragment<K>>) {
        assert!(self.is_empty(), "adopt needs an empty list");
        let mut tails = [self.head; MAX_HEIGHT];
        let (mut len, mut top) = (0u64, 1usize);
        for frag in fragments {
            if frag.is_empty() {
                continue;
            }
            let (tail, first) = (tails[0], frag.first[0]);
            // SAFETY: past the head check `tail` is the last node of an
            // adopted fragment, `first` the first node of a non-empty one.
            let ordered = tail == self.head || unsafe { (*tail).key < (*first).key };
            assert!(ordered, "fragments must be in key order");
            for (level, tail) in tails.iter_mut().enumerate() {
                if frag.first[level].is_null() {
                    break; // towers are contiguous: no node reaches higher
                }
                // SAFETY: `tail` is the head or a fragment's last node at
                // `level`, so its tower is taller than `level`.
                // ordering: `&mut self` — the list is not shared.
                unsafe { Node::next(*tail, level) }.store(frag.first[level], Ordering::Relaxed);
                *tail = frag.last[level];
                top = top.max(level + 1);
            }
            len += frag.len;
            std::mem::forget(frag); // its nodes are the list's now
        }
        // ordering: `&mut self` — the list is not shared.
        self.max_level.store(top, Ordering::Relaxed);
        // ordering: as above.
        self.len.store(len, Ordering::Relaxed);
    }
}

impl<K> SkipList<K> {
    /// In-order iterator over `(key, payload)` from the smallest key.
    /// (No `Ord` bound: iteration just walks level 0.)
    pub fn iter(&self) -> Iter<'_, K> {
        // SAFETY: the head lives as long as the list and has every level.
        let first = unsafe { Node::next(self.head, 0) }.load(Ordering::Acquire);
        Iter { curr: first, _list: PhantomData }
    }
}

impl<K: Ord> Default for SkipList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> Drop for SkipList<K> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop. Every published node is
        // reachable at level 0 exactly once — whatever became of its upper
        // levels — and came from `Node::new`; the head came from
        // `Node::alloc` and its key was never initialized.
        unsafe {
            free_chain(Node::next(self.head, 0).load(Ordering::Acquire));
            Node::free_block(self.head);
        }
    }
}

/// Iterator over skip-list entries in key order.
pub struct Iter<'a, K> {
    curr: *mut Node<K>,
    _list: PhantomData<&'a SkipList<K>>,
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = (&'a K, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.curr;
        if node.is_null() {
            return None;
        }
        // SAFETY: `node` was read from a live link with Acquire, so its
        // header is published and immutable; nodes live as long as the list
        // borrow `'a`.
        unsafe {
            self.curr = Node::next(node, 0).load(Ordering::Acquire);
            Some((&(*node).key, (*node).value))
        }
    }
}

#[cfg(test)]
impl<K: Ord> SkipList<K> {
    /// A list holding `entries` — `(key, payload, tower height)` — inserted
    /// in the given order with exactly the given heights.
    fn with_towers(entries: impl IntoIterator<Item = (K, u64, usize)>) -> Self {
        let list = Self::new();
        for (key, value, height) in entries {
            assert!(list.insert_tower(key, |_| height, || value).inserted());
        }
        list
    }

    /// The same list bulk-built: `entries` in strictly increasing key order,
    /// cut into `parts` fragments (the last ones empty if there are fewer
    /// entries) that are stitched together.
    fn bulk_with_towers(entries: Vec<(K, u64, usize)>, parts: usize) -> Self {
        let mut list = Self::new();
        let per = entries.len().div_ceil(parts).max(1);
        let mut entries = entries.into_iter();
        let fragments: Vec<Fragment<K>> = (0..parts)
            .map(|_| {
                let (mut pairs, mut heights) = (Vec::new(), Vec::new());
                for (key, value, height) in entries.by_ref().take(per) {
                    pairs.push((key, value));
                    heights.push(height);
                }
                let mut heights = heights.into_iter();
                list.fragment_towers(pairs, |_| heights.next().expect("one height per key"))
            })
            .collect();
        list.adopt(fragments);
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicUsize as Drops;
    use std::sync::Arc;

    /// A key that counts its drops; ordered by `id` alone.
    struct Counted {
        id: u64,
        drops: Arc<Drops>,
    }

    impl Counted {
        fn new(id: u64, drops: &Arc<Drops>) -> Self {
            Counted { id, drops: drops.clone() }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.id == other.id
        }
    }
    impl Eq for Counted {}
    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<KeyOrder> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> KeyOrder {
            self.id.cmp(&other.id)
        }
    }

    #[test]
    fn empty_list() {
        let l: SkipList<u64> = SkipList::new();
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert_eq!(l.get(&1), None);
        assert_eq!(l.iter().count(), 0);
        assert_eq!(l.range_from(&0).count(), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let l = SkipList::new();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(l.insert_with(k, || k * 10).inserted());
        }
        assert_eq!(l.len(), 5);
        for k in [5u64, 1, 9, 3, 7] {
            assert_eq!(l.get(&k), Some(k * 10));
        }
        assert_eq!(l.get(&2), None);
    }

    #[test]
    fn duplicate_insert_reports_lost() {
        let l = SkipList::new();
        assert!(l.insert_with(42u64, || 1).inserted());
        match l.insert_with(42u64, || 2) {
            InsertOutcome::Lost { existing: 1, yours: None } => {}
            other => panic!("expected pre-check Lost, got {other:?}"),
        }
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(&42), Some(1));
    }

    #[test]
    fn iteration_is_sorted() {
        let l = SkipList::new();
        let keys = [44u64, 2, 17, 99, 1, 58, 23, 71, 8, 36];
        for &k in &keys {
            l.insert_with(k, || k);
        }
        let collected: Vec<u64> = l.iter().map(|(&k, _)| k).collect();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(collected, sorted);
    }

    #[test]
    fn range_from_seeks_correctly() {
        let l = SkipList::new();
        for k in (0u64..100).step_by(10) {
            l.insert_with(k, || k);
        }
        let from_35: Vec<u64> = l.range_from(&35).map(|(&k, _)| k).collect();
        assert_eq!(from_35, vec![40, 50, 60, 70, 80, 90]);
        let from_40: Vec<u64> = l.range_from(&40).map(|(&k, _)| k).collect();
        assert_eq!(from_40, vec![40, 50, 60, 70, 80, 90]);
        assert_eq!(l.range_from(&1000).count(), 0);
    }

    /// `get`, `range_from(..).next()` and `iter()` against `BTreeMap` on a
    /// list whose towers are forced, so that a present key is met by the
    /// descent at every level 0..MAX_HEIGHT (a node is first on the search
    /// path at its own top level), and absent probes fall below, between
    /// and above all keys.
    #[test]
    fn reads_agree_with_btreemap_at_every_level() {
        // Keys 10, 20, ..: three nodes of every height, inserted in a
        // scattered order so tall towers are linked both before and after
        // their short neighbours.
        let n = 3 * MAX_HEIGHT as u64;
        let mut entries: Vec<(u64, u64, usize)> =
            (0..n).map(|i| (10 * (i + 1), 1000 + i, (i as usize * 7) % MAX_HEIGHT + 1)).collect();
        let mut heights: Vec<usize> = entries.iter().map(|e| e.2).collect();
        heights.sort_unstable();
        heights.dedup();
        assert_eq!(heights, (1..=MAX_HEIGHT).collect::<Vec<_>>());
        let model: BTreeMap<u64, u64> = entries.iter().map(|&(k, v, _)| (k, v)).collect();
        let bulk = SkipList::bulk_with_towers(entries.clone(), 5);
        entries.sort_by_key(|&(k, ..)| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for l in [SkipList::with_towers(entries), bulk] {
            assert_eq!(l.len() as usize, model.len());
            assert!(l.iter().map(|(&k, v)| (k, v)).eq(model.iter().map(|(&k, &v)| (k, v))));
            for probe in 0..=10 * n + 15 {
                assert_eq!(l.get(&probe), model.get(&probe).copied(), "get({probe})");
                assert_eq!(
                    l.range_from(&probe).next().map(|(&k, v)| (k, v)),
                    model.range(probe..).next().map(|(&k, &v)| (k, v)),
                    "range_from({probe})"
                );
            }
            // A seek that exits early at an upper level still walks level 0.
            assert!(l.range_from(&10).map(|(&k, _)| k).eq(model.keys().copied()));
        }
    }

    thread_local! {
        /// `Ord::cmp` calls on [`Tallied`] keys made by this test's thread.
        static COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A key that counts how often it is compared.
    #[derive(Clone, PartialEq, Eq)]
    struct Tallied(u64);

    impl PartialOrd for Tallied {
        fn partial_cmp(&self, other: &Self) -> Option<KeyOrder> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tallied {
        fn cmp(&self, other: &Self) -> KeyOrder {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    /// `f`'s result and the number of key comparisons it made.
    fn comparisons<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = COMPARISONS.with(|c| c.get());
        let result = f();
        (result, COMPARISONS.with(|c| c.get()) - before)
    }

    /// One descent per write, as a count: `insert_with` compares keys exactly
    /// as often as a `get` of the same key on the same list — whether it
    /// finds the key (at whatever level; the factory never runs) or links a
    /// new node (the splice compares nothing). Towers are forced, as in
    /// `reads_agree_with_btreemap_at_every_level`, so present keys are met at
    /// every level and absent ones fall below, between and above all keys.
    #[test]
    fn a_write_compares_keys_as_often_as_a_read() {
        let n = 3 * MAX_HEIGHT as u64;
        let mut entries: Vec<(Tallied, u64, usize)> = (0..n)
            .map(|i| (Tallied(10 * (i + 1)), 1000 + i, (i as usize * 7) % MAX_HEIGHT + 1))
            .collect();
        let bulk = SkipList::bulk_with_towers(entries.clone(), 5);
        entries.sort_by_key(|(k, ..)| k.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for l in [SkipList::with_towers(entries), bulk] {
            for i in 0..n {
                let key = Tallied(10 * (i + 1));
                let (got, read) = comparisons(|| l.get(&key));
                let (outcome, write) = comparisons(|| {
                    l.insert_tower(key.clone(), |_| panic!("no height"), || panic!("no payload"))
                });
                assert_eq!(outcome, InsertOutcome::Lost { existing: 1000 + i, yours: None });
                assert_eq!((got, write), (Some(1000 + i), read), "present key {}", key.0);
            }
            // Absent keys, each measured against the list as it is by then.
            for i in 0..=n {
                let key = Tallied(10 * i + 5);
                let (got, read) = comparisons(|| l.get(&key));
                let height = (i as usize * 5) % MAX_HEIGHT + 1;
                let (outcome, write) =
                    comparisons(|| l.insert_tower(key.clone(), |_| height, || i));
                assert_eq!((got, outcome), (None, InsertOutcome::Inserted(i)));
                assert_eq!(write, read, "absent key {}, tower {height}", key.0);
            }
            assert_eq!(l.len(), 2 * n + 1);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn agrees_with_btreemap_model() {
        let l = SkipList::new();
        let mut model = BTreeMap::new();
        let mut state = 0xACE1u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = state % 1000;
            let v = state >> 32;
            match l.insert_with(k, || v) {
                InsertOutcome::Inserted(_) => {
                    assert!(model.insert(k, v).is_none(), "model had {k} but list did not");
                }
                InsertOutcome::Lost { existing, .. } => {
                    assert_eq!(model.get(&k), Some(&existing));
                }
            }
        }
        assert_eq!(l.len() as usize, model.len());
        let list_pairs: Vec<(u64, u64)> = l.iter().map(|(&k, v)| (k, v)).collect();
        let model_pairs: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(list_pairs, model_pairs);
    }

    /// Every key handed to the list is dropped exactly once, whichever way
    /// its node goes: freed with the list, never allocated (pre-check
    /// duplicate), freed by the loser of a duplicate-key race, or published
    /// at level 0 with the rest of its tower abandoned.
    #[test]
    fn every_key_is_dropped_exactly_once() {
        every_key_is_dropped_exactly_once_in(SkipList::with_towers);
        every_key_is_dropped_exactly_once_in(|entries| SkipList::bulk_with_towers(entries, 3));
    }

    fn every_key_is_dropped_exactly_once_in(
        build: impl FnOnce(Vec<(Counted, u64, usize)>) -> SkipList<Counted>,
    ) {
        let drops = Arc::new(Drops::new(0));
        let mut created = 0usize;
        let mut key = |id: u64| {
            created += 1;
            Counted::new(id, &drops)
        };
        let l = build((0..40u64).map(|i| (key(i * 10), i, (i as usize % 6) + 1)).collect());

        // Pre-check duplicate: no node is allocated, the key dies in the call.
        assert_eq!(l.insert_with(key(50), || 0), InsertOutcome::Lost { existing: 5, yours: None });
        assert_eq!(drops.load(Ordering::SeqCst), 1);

        // Lost duplicate-key race, forced: the factory runs between the
        // loser's descent and its level-0 CAS and inserts the same key.
        let (loser, winner) = (key(55), key(55));
        let outcome = l.insert_tower(loser, |_| 4, || {
            assert!(l.insert_tower(winner, |_| 2, || 7).inserted());
            8
        });
        assert_eq!(outcome, InsertOutcome::Lost { existing: 7, yours: Some(8) });
        assert_eq!(drops.load(Ordering::SeqCst), 2, "the loser's node must drop its key");

        // Abandoned tower: a height-5 node linked at level 0 only, with a
        // stale successor left in a level it never reached — the state
        // `insert_with` leaves behind after UPPER_LINK_RETRIES lost races.
        let mut at = Splice::new(l.head);
        let short = key(57);
        assert!(!l.descend(&short, &mut at).1);
        let Splice { preds, succs } = at;
        let node = Node::new(short, 9, 5);
        // SAFETY: `node` is private until the CAS; `preds`/`succs` come from
        // `descend` on this list, which no other thread is using.
        unsafe {
            Node::next(node, 0).store(succs[0], Ordering::Relaxed);
            Node::next(node, 3).store(succs[0], Ordering::Relaxed);
            Node::next(preds[0], 0)
                .compare_exchange(succs[0], node, Ordering::AcqRel, Ordering::Acquire)
                .unwrap();
        }
        let probe = Counted::new(57, &Arc::new(Drops::new(0))); // counts apart
        assert_eq!(l.get(&probe), Some(9));

        assert_eq!(drops.load(Ordering::SeqCst), 2);
        assert_eq!(l.iter().count(), created - 2);
        drop(l);
        assert_eq!(drops.load(Ordering::SeqCst), created);
    }

    /// What only a bulk build can do with a key: refuse it at the door
    /// (not greater than its predecessor — dropped there and then, counted,
    /// the first of equal keys kept), or build it into a fragment that is
    /// never adopted.
    #[test]
    fn bulk_build_drops_refused_and_orphaned_keys_exactly_once() {
        let drops = Arc::new(Drops::new(0));
        let key = |id: u64| Counted::new(id, &drops);
        let mut l = SkipList::new();
        let ids = [10, 20, 20, 30, 25, 30, 40];
        let low = l.fragment(ids.into_iter().enumerate().map(|(i, id)| (key(id), i as u64)));
        assert_eq!((low.len(), low.dropped()), (4, 3));
        assert_eq!(drops.load(Ordering::SeqCst), 3, "a refused key dies in the call");
        let high = l.fragment((5..8u64).map(|id| (key(id * 10), id)));
        let orphan = l.fragment((100..110u64).map(|id| (key(id), id)));
        assert_eq!(orphan.len(), 10);
        drop(orphan);
        assert_eq!(drops.load(Ordering::SeqCst), 13, "an unadopted fragment frees its nodes");

        l.adopt([l.fragment(None), low, l.fragment(None), high]);
        let pairs: Vec<(u64, u64)> = l.iter().map(|(k, v)| (k.id, v)).collect();
        assert_eq!(pairs, vec![(10, 0), (20, 1), (30, 3), (40, 6), (50, 5), (60, 6), (70, 7)]);
        assert_eq!(l.len(), 7);
        assert_eq!(drops.load(Ordering::SeqCst), 13);
        drop(l);
        assert_eq!(drops.load(Ordering::SeqCst), 20);
    }

    #[test]
    #[should_panic(expected = "fragments must be in key order")]
    fn adopt_refuses_overlapping_fragments() {
        let mut l = SkipList::new();
        let (a, b) = (l.fragment([(1u64, 1), (5, 5)]), l.fragment([(5u64, 50), (9, 9)]));
        l.adopt([a, b]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_races_drop_every_key_exactly_once() {
        let drops = Arc::new(Drops::new(0));
        let l = Arc::new(SkipList::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let (l, drops, barrier) = (l.clone(), drops.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    for id in 0..200u64 {
                        l.insert_with(Counted::new(id, &drops), || t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), 200);
        assert_eq!(drops.load(Ordering::SeqCst), 8 * 200 - 200, "losers drop, winners live");
        drop(Arc::into_inner(l).expect("all threads joined"));
        assert_eq!(drops.load(Ordering::SeqCst), 8 * 200);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_disjoint_inserts() {
        let l = Arc::new(SkipList::new());
        let threads = 8u64;
        let per = 2000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        // Interleaved key space stresses shared predecessors.
                        let k = i * threads + t;
                        assert!(l.insert_with(k, || k + 1).inserted());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), threads * per);
        let mut prev = None;
        let mut count = 0u64;
        for (&k, v) in l.iter() {
            assert_eq!(v, k + 1);
            if let Some(p) = prev {
                assert!(k > p, "order violated: {p} then {k}");
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, threads * per);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_same_key_races_have_one_winner() {
        for _round in 0..20 {
            let l = Arc::new(SkipList::new());
            let barrier = Arc::new(std::sync::Barrier::new(8));
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let l = l.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        let mut wins = 0u64;
                        let mut cleanup = 0u64;
                        for k in 0..50u64 {
                            match l.insert_with(k, || t) {
                                InsertOutcome::Inserted(_) => wins += 1,
                                InsertOutcome::Lost { yours: Some(_), .. } => cleanup += 1,
                                InsertOutcome::Lost { yours: None, .. } => {}
                            }
                        }
                        (wins, cleanup)
                    })
                })
                .collect();
            let results: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let total_wins: u64 = results.iter().map(|r| r.0).sum();
            assert_eq!(total_wins, 50, "each key must have exactly one winner");
            assert_eq!(l.len(), 50);
            // Every key's payload must be one of the contenders' ids.
            for (&k, v) in l.iter() {
                assert!(k < 50 && v < 8);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn large_sequential_insert_is_searchable() {
        let l = SkipList::new();
        for k in 0..50_000u64 {
            l.insert_with(k, || k ^ 0xFF);
        }
        for probe in (0..50_000u64).step_by(997) {
            assert_eq!(l.get(&probe), Some(probe ^ 0xFF));
        }
        assert_eq!(l.len(), 50_000);
    }

    /// Heap-owning keys: order, lookups, and (under Miri's leak check) every
    /// `String` buffer freed — including the pre-check duplicate's.
    #[test]
    fn string_keys_work() {
        let inserted: SkipList<String> = SkipList::new();
        for name in ["delta", "alpha", "charlie", "bravo", "alpha"] {
            inserted.insert_with(name.to_string(), || name.len() as u64);
        }
        let mut bulk: SkipList<String> = SkipList::new();
        let sorted = ["alpha", "alpha", "bravo", "charlie", "delta"];
        let fragment = bulk.fragment(sorted.map(|name| (name.to_string(), name.len() as u64)));
        assert_eq!(fragment.dropped(), 1);
        bulk.adopt([fragment]);
        for l in [inserted, bulk] {
            let order: Vec<&str> = l.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(order, vec!["alpha", "bravo", "charlie", "delta"]);
            assert_eq!(l.get(&"charlie".to_string()), Some(7));
            assert_eq!(l.get(&"bz".to_string()), None);
            let bz = "bz".to_string();
            assert_eq!(l.range_from(&bz).next().map(|(k, _)| k.as_str()), Some("charlie"));
            assert!(l.insert_with("echo".to_string(), || 4).inserted());
            assert!(!l.insert_with("bravo".to_string(), || 0).inserted());
        }
    }
}
