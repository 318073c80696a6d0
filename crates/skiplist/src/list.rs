//! The skip-list implementation. See crate docs for the protocol overview.

use mvkv_sync::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use mvkv_sync::sync::{Arc, Mutex};
use std::alloc::Layout;
use std::cmp::Ordering as KeyOrder;
use std::marker::PhantomData;
use std::ptr;

/// Maximum tower height. Inserted towers reach it at p = 1/2 only past 2^23
/// keys, bulk-built ones (p = 1/4) past 2^46: both comfortably index the
/// paper's scale (10^6–2·10^6 keys per node). A level costs a node four
/// bytes, and only the list head has all of them.
pub const MAX_HEIGHT: usize = 24;

/// What a link counts: a link is the number of `UNIT`-byte units between the
/// start of the arena's address space and a node, and `0` is "no node" —
/// unit 0 is the first chunk's header.
const UNIT: usize = 8;

/// log2 of the units in a slot of the address space, and in the largest
/// chunk: 256 KiB. Chunk size is the arena's waste — the partly filled chunk
/// of the inserters' cursor; a fragment's is cut to size. (The model build
/// has 256-byte chunks, so that a handful of inserts fills one.)
const SLOT_BITS: u32 = if cfg!(loom) { 5 } else { 15 };

/// log2 of the units in the first chunk a cursor fills (4 KiB); each later
/// one is twice the one before, up to a slot, so whoever writes little holds
/// little. A chunk takes a whole slot of link space whatever its size.
const FIRST_BITS: u32 = if cfg!(loom) { 5 } else { 9 };

/// Slots in the 2^32 units (32 GiB) a link can name.
const MAX_SLOTS: usize = 1 << (32 - SLOT_BITS);

/// "No chunk", where a slot number is expected.
const NO_CHUNK: u32 = u32::MAX;

fn chunk_layout(units: u32) -> Layout {
    Layout::from_size_align(units as usize * UNIT, UNIT).expect("at most 256 KiB")
}

/// The first unit of every chunk.
#[repr(C)]
struct ChunkHeader {
    /// Units handed out, this header included: the bump cursor.
    used: AtomicU32,
    /// Units in the chunk.
    units: u32,
}

/// What the arena's lock guards: every chunk directory so far, each twice
/// the one before and the live one last. `dirs.last()[slot]` is the base of
/// the chunk in that slot of the address space, for each of the `taken`
/// slots handed out. An outgrown directory stays until the arena drops — a
/// descent may be reading it. Entries are written through [`Arena::dir`]
/// only, never through the `Vec`.
struct Slots {
    taken: usize,
    dirs: Vec<Vec<*mut u8>>,
}

impl Slots {
    /// The chunks handed out.
    ///
    /// # Safety
    /// Nobody may be handing one out (the lock, or exclusive access).
    unsafe fn chunks(&self) -> impl Iterator<Item = *mut u8> + '_ {
        let dir = self.dirs.last().expect("one from the start").as_ptr();
        // SAFETY: the live directory has an entry for every slot handed out,
        // written under the lock.
        (0..self.taken).map(move |slot| unsafe { *dir.add(slot) })
    }
}

/// The memory of one list: zeroed chunks obtained through `std::alloc`, laid
/// end to end in a 32-bit address space of 8-byte units, and bump-allocated
/// through cursors — one the list's inserters share, one of its own for each
/// fragment being built. Nothing goes back before the arena drops but the
/// unfilled end of a finished fragment's last chunk ([`Arena::trim`]). Owned
/// by the list and by the fragments built for it.
///
/// **Why a link always resolves.** A chunk's base is in the directory before
/// its slot number leaves [`Arena::take_chunk`], so before any block of it,
/// and any link to one, exists. A link reaches a thread through an Acquire
/// load of the tower cell it was published in by an AcqRel CAS (or through
/// whatever handed over a whole bulk-built list), sequenced after the bump
/// that made the block, which — through the Release/Acquire pair on the
/// cursor when another thread took the chunk — comes after the directory
/// entry was written. So the directory pointer loaded *after* the link is the
/// directory that entry was written to or one that outgrew it, and its
/// Acquire load pairs with the Release store that published the outgrowing
/// copy. Entries are plain words for that reason: written under the lock —
/// when the chunk is handed out, and again if trimming moved it, while its
/// fragment is still private to the thread that built it — and read only by
/// who holds a link into the chunk.
struct Arena {
    /// The live directory: resolving a link is one load that depends on it.
    dir: AtomicPtr<*mut u8>,
    /// The cursor of [`SkipList::insert_with`]: the chunk all inserting
    /// threads bump-fill (`NO_CHUNK` = none yet).
    filling: AtomicU32,
    slots: Mutex<Slots>,
}

// SAFETY: the raw pointers are the arena's own allocations. It hands every
// block to one caller, and everything else it shares is atomic or locked.
unsafe impl Send for Arena {}
// SAFETY: as above.
unsafe impl Sync for Arena {}

impl Arena {
    fn new() -> Self {
        let mut dir = vec![ptr::null_mut(); 8];
        Arena {
            dir: AtomicPtr::new(dir.as_mut_ptr()),
            filling: AtomicU32::new(NO_CHUNK),
            slots: Mutex::new(Slots { taken: 0, dirs: vec![dir] }),
        }
    }

    /// Hands out the next slot, a fresh zeroed chunk of `units` already in
    /// it. `slots` is what the guard of `self.slots` holds.
    ///
    /// # Panics
    /// When all of the link space is handed out.
    fn take_chunk(&self, slots: &mut Slots, units: u32) -> u32 {
        let slot = slots.taken;
        assert!(slot < MAX_SLOTS, "skip-list arena is full: 2^32 links of 8 bytes, 32 GiB");
        // ordering: the pointer changes only under the `slots` lock, held here.
        let mut dir = self.dir.load(Ordering::Relaxed);
        if slot == slots.dirs.last().expect("one from the start").len() {
            let mut grown = vec![ptr::null_mut(); 2 * slot];
            // SAFETY: `dir` is the live directory, `slot` entries long;
            // under the lock nobody writes one.
            unsafe { ptr::copy_nonoverlapping(dir, grown.as_mut_ptr(), slot) };
            dir = grown.as_mut_ptr();
            slots.dirs.push(grown);
            self.dir.store(dir, Ordering::Release);
        }
        let layout = chunk_layout(units);
        // SAFETY: a chunk is not empty.
        let chunk = unsafe { std::alloc::alloc_zeroed(layout) };
        if chunk.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: the chunk is fresh and starts with its header; the live
        // directory has more than `slot` entries, and no link into the new
        // chunk exists yet.
        unsafe {
            chunk.cast::<ChunkHeader>().write(ChunkHeader { used: AtomicU32::new(1), units });
            dir.add(slot).write(chunk);
        }
        slots.taken = slot + 1;
        slot as u32
    }

    /// The address `link` names.
    ///
    /// # Safety
    /// `link` must be 0 or name a unit inside a chunk of this arena — see the
    /// type's docs for why it then resolves.
    #[inline(always)]
    unsafe fn at(&self, link: u32) -> *mut u8 {
        let dir = self.dir.load(Ordering::Acquire);
        // SAFETY: per the contract the slot has an entry and the unit is
        // inside its chunk; the result has the provenance of the whole chunk.
        unsafe {
            let chunk = *dir.add((link >> SLOT_BITS) as usize);
            chunk.add((link & ((1 << SLOT_BITS) - 1)) as usize * UNIT)
        }
    }

    /// A zeroed block of `units`, as a link, from the chunk `cursor` names —
    /// or, when that is full (or `NO_CHUNK`), from a fresh one, which `cursor`
    /// names from then on. Any number of threads may share a cursor.
    ///
    /// # Safety
    /// `cursor` must start out as `NO_CHUNK` and be written only here, with
    /// chunks of this arena.
    unsafe fn alloc(&self, cursor: &AtomicU32, units: u32) -> u32 {
        loop {
            let slot = cursor.load(Ordering::Acquire);
            let mut grow_to = 1 << FIRST_BITS;
            if slot != NO_CHUNK {
                // SAFETY: per the contract `slot` has a chunk, which starts
                // with its header.
                let chunk = unsafe { &*self.at(slot << SLOT_BITS).cast::<ChunkHeader>() };
                // ordering: the bump cursor only divides up bytes that were
                // zeroed before the chunk was handed out; it publishes nothing.
                let mut at = chunk.used.load(Ordering::Relaxed);
                while at + units <= chunk.units {
                    // ordering: as above.
                    let (end, relaxed) = (at + units, Ordering::Relaxed);
                    match chunk.used.compare_exchange_weak(at, end, relaxed, relaxed) {
                        Ok(_) => return slot << SLOT_BITS | at,
                        Err(now) => at = now,
                    }
                }
                grow_to = (2 * chunk.units).min(1 << SLOT_BITS);
            }
            let mut slots = self.slots.lock();
            // ordering: written only under the lock held here. Another
            // thread sharing the cursor may have moved it on already.
            if cursor.load(Ordering::Relaxed) == slot {
                cursor.store(self.take_chunk(&mut slots, grow_to), Ordering::Release);
            }
        }
    }

    /// Gives the unfilled end of the chunk in `slot` back to the allocator,
    /// which may move the chunk: what a finished fragment holds is what it
    /// filled, wherever in a chunk it happened to end.
    ///
    /// # Safety
    /// `slot` must be what a cursor of [`Arena::alloc`] named last (or
    /// `NO_CHUNK`); that cursor and every pointer into the chunk must not be
    /// used again, and no other thread may hold a link into the chunk yet.
    unsafe fn trim(&self, slot: u32) {
        if slot == NO_CHUNK {
            return;
        }
        // A directory must not be copied between the move and the new entry.
        let slots = self.slots.lock();
        // SAFETY: the slot has an entry in the live directory, whose pointer
        // changes only under the lock held here; the chunk starts with its
        // header and, per the contract, is the caller's alone. A chunk that
        // cannot be cut stays as it is.
        unsafe {
            // ordering: see above — the lock orders it.
            let entry = self.dir.load(Ordering::Relaxed).add(slot as usize);
            let header = (*entry).cast::<ChunkHeader>();
            // ordering: the caller's own cursor.
            let (used, units) = ((*header).used.load(Ordering::Relaxed), (*header).units);
            let cut = std::alloc::realloc(*entry, chunk_layout(units), used as usize * UNIT);
            if !cut.is_null() {
                (&raw mut (*cut.cast::<ChunkHeader>()).units).write(used);
                entry.write(cut);
            }
        }
        drop(slots);
    }

    /// [`Arena::alloc`] through the cursor the list's inserters share.
    fn alloc_shared(&self, units: u32) -> u32 {
        // SAFETY: `filling` is written nowhere else.
        unsafe { self.alloc(&self.filling, units) }
    }

    /// Bytes held from the allocator (chunks and directories), and bytes of
    /// the chunks handed out as blocks and chunk headers.
    fn memory(&self) -> (usize, usize) {
        let slots = self.slots.lock();
        let entries: usize = slots.dirs.iter().map(Vec::len).sum();
        let (mut reserved, mut used) = (entries * std::mem::size_of::<*mut u8>(), 0);
        // SAFETY: the lock is held; a chunk starts with its header.
        let headers = unsafe { slots.chunks() }.map(|c| unsafe { &*c.cast::<ChunkHeader>() });
        for chunk in headers {
            reserved += chunk.units as usize * UNIT;
            // ordering: a statistic.
            used += chunk.used.load(Ordering::Relaxed) as usize * UNIT;
        }
        (reserved, used)
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // SAFETY: exclusive access — the list and every fragment are gone,
        // and with them every link. Each chunk is in the live directory
        // once, and its header says how large it was allocated.
        unsafe {
            for chunk in self.slots.get_mut().chunks() {
                std::alloc::dealloc(chunk, chunk_layout((*chunk.cast::<ChunkHeader>()).units));
            }
        }
    }
}

/// A node: this header, and behind it **in the same block** its tower — one
/// link cell per level starting at `tower`, each the next node at that level
/// (0 = end of list). A block is bump-allocated from a chunk of the list's
/// [`Arena`], zeroed, and as long as the node is tall and no longer: the
/// height is not stored, because nothing is freed node by node. A hop touches
/// one block, and the key and the low levels share a cache line. The tower
/// starts right behind the payload, so a 4-byte payload behind an 8-byte key
/// makes a one-level node 16 bytes.
///
/// `key` and `value` are written while the node is private to the inserting
/// thread and never again; after publication only the tower cells change.
/// Nodes are handled exclusively through raw pointers carrying the provenance
/// of the whole chunk ([`Arena::at`]): a `&Node` would cover the header
/// alone, and a tower pointer derived from it would be out of bounds for the
/// borrow models. The list head is a `MAX_HEIGHT` node whose `key` and
/// `value` stay uninitialized and are never read.
#[repr(C)]
struct Node<K, P> {
    key: K,
    value: P,
    /// Where the tower starts; the cells themselves lie past the header.
    tower: [AtomicU32; 0],
}

impl<K, P> Node<K, P> {
    /// Checked where a list is made: blocks are 8-byte aligned, and the
    /// tallest node has to fit the smallest chunk.
    const FITS: () = assert!(
        std::mem::align_of::<K>() <= UNIT
            && std::mem::align_of::<P>() <= UNIT
            && Self::units(MAX_HEIGHT) < 1 << FIRST_BITS,
        "SkipList keys and payloads are at most 8-byte aligned and small enough for a 4 KiB chunk"
    );

    /// Units in the block of a node `height` levels tall.
    const fn units(height: usize) -> u32 {
        let bytes = std::mem::offset_of!(Self, tower) + height * std::mem::size_of::<AtomicU32>();
        bytes.div_ceil(UNIT) as u32
    }

    /// The level-`level` link out of `node` — the one accessor every reader,
    /// writer, iterator and destructor goes through.
    ///
    /// # Safety
    /// `node` must be a block of a live arena, outliving `'a`, made for a
    /// tower taller than `level`.
    #[inline(always)]
    unsafe fn next<'a>(node: *mut Node<K, P>, level: usize) -> &'a AtomicU32 {
        // SAFETY: per the contract the cell is inside the block, which came
        // zeroed — a valid cell holding "none" — and is only ever accessed
        // atomically; the projection keeps `node`'s provenance over the
        // chunk and forms no reference on the way.
        unsafe { &*(&raw mut (*node).tower).cast::<AtomicU32>().add(level) }
    }
}

/// Drops the keys of the level-0 chain starting at `link` (0 = nothing).
///
/// # Safety
/// Every node of the chain must be a block of `arena` with its key
/// initialized, unreachable by any other thread, and not be used again.
unsafe fn drop_keys<K, P>(arena: &Arena, mut link: u32) {
    while std::mem::needs_drop::<K>() && link != 0 {
        // SAFETY: per the contract `link` names a live node the caller owns.
        unsafe {
            let node = arena.at(link).cast::<Node<K, P>>();
            link = Node::next(node, 0).load(Ordering::Acquire);
            ptr::drop_in_place(&raw mut (*node).key);
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
trait Path<K, P> {
    /// The descent found no match at `level`: `pred` is the last node there
    /// with a smaller key (or the head), `succ` the link out of it.
    fn leave(&mut self, level: usize, pred: *mut Node<K, P>, succ: u32);
}

/// A read keeps nothing.
impl<K, P> Path<K, P> for () {
    #[inline(always)]
    fn leave(&mut self, _: usize, _: *mut Node<K, P>, _: u32) {}
}

/// Where a new node goes: per level, the cell to CAS (`preds[level]`'s link)
/// and the value the descent read from it. Starts out as "head, then end of
/// list" at every level, which is what a level no descent has reached yet
/// holds.
struct Splice<K, P> {
    preds: [*mut Node<K, P>; MAX_HEIGHT],
    succs: [u32; MAX_HEIGHT],
}

impl<K, P> Splice<K, P> {
    fn new(head: *mut Node<K, P>) -> Self {
        Splice { preds: [head; MAX_HEIGHT], succs: [0; MAX_HEIGHT] }
    }
}

impl<K, P> Path<K, P> for Splice<K, P> {
    #[inline(always)]
    fn leave(&mut self, level: usize, pred: *mut Node<K, P>, succ: u32) {
        self.preds[level] = pred;
        self.succs[level] = succ;
    }
}

/// Result of [`SkipList::insert_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome<P = u64> {
    /// The key was absent; this thread's payload is now installed.
    Inserted(P),
    /// Another thread installed the key first (or it already existed).
    /// `existing` is the installed payload; `yours` is the payload this
    /// thread created (if the factory ran) and must now reclaim.
    Lost { existing: P, yours: Option<P> },
}

impl<P: Copy> InsertOutcome<P> {
    /// The payload now associated with the key, whoever installed it.
    pub fn payload(&self) -> P {
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

/// A lock-free, insert-only ordered map from `K` to a payload `P`: a word the
/// caller gives meaning to, such as an offset or a pointer. The payload is
/// stored in every node, so its width is part of the index's size per key.
///
/// # Examples
///
/// ```
/// use mvkv_skiplist::SkipList;
///
/// let list: SkipList<u64, u32> = SkipList::new();
/// list.insert_with(5, || 50);
/// list.insert_with(1, || 10);
/// assert_eq!(list.get(&5), Some(50));
/// let keys: Vec<u64> = list.iter().map(|(&k, _)| k).collect();
/// assert_eq!(keys, vec![1, 5]); // always in key order
/// ```
///
/// Nodes are packed at 8-byte boundaries, so a key type that asks for more
/// does not compile:
///
/// ```compile_fail
/// #[derive(PartialEq, Eq, PartialOrd, Ord)]
/// #[repr(align(16))]
/// struct Wide(u64);
/// let list = mvkv_skiplist::SkipList::<Wide>::new();
/// ```
pub struct SkipList<K, P: Copy = u64> {
    arena: Arc<Arena>,
    /// The head tower: a keyless `MAX_HEIGHT` node, the first block of chunk
    /// 0, so a predecessor is always a node and every link is reached
    /// through [`Node::next`].
    head: *mut Node<K, P>,
    max_level: AtomicUsize,
    len: AtomicU64,
    height_seed: AtomicU64,
}

// SAFETY: the list owns its nodes (their keys and payloads) through `head`,
// and their memory through the arena; moving it to another thread moves the
// keys and payloads, hence `K: Send` and `P: Send`. The arena and the
// counters synchronize themselves.
unsafe impl<K: Send, P: Copy + Send> Send for SkipList<K, P> {}
// SAFETY: a shared list hands out `&K` and copies of `P`, accepts `K` and `P`
// from any thread, and drops on one thread keys inserted by another; node
// headers are immutable after publication, all links are atomic, and the
// arena hands every block to one thread.
unsafe impl<K: Send + Sync, P: Copy + Send + Sync> Sync for SkipList<K, P> {}

impl<K, P: Copy> SkipList<K, P> {
    /// The node `link` names.
    ///
    /// # Safety
    /// `link` must be 0 or have been read from a tower cell of this list (or
    /// of a fragment built for it and not dropped).
    #[inline(always)]
    unsafe fn node(&self, link: u32) -> *mut Node<K, P> {
        // SAFETY: tower cells hold links to blocks of this list's arena.
        unsafe { self.arena.at(link) }.cast()
    }

    /// Makes the zeroed block at `link` a node of `key` and `value`, every
    /// level linked to nothing.
    ///
    /// # Safety
    /// `link` must name a block of this list's arena private to the caller.
    unsafe fn fill(&self, link: u32, key: K, value: P) -> *mut Node<K, P> {
        // SAFETY: the block is private and holds the header; `write` does
        // not read the old bytes.
        unsafe {
            let node = self.node(link);
            (&raw mut (*node).key).write(key);
            (&raw mut (*node).value).write(value);
            node
        }
    }

    /// Bytes the index holds from the allocator (chunks and chunk
    /// directories — reserved whether filled or not), and how many of them
    /// are handed out to nodes and chunk headers.
    pub fn memory(&self) -> (usize, usize) {
        self.arena.memory()
    }

    /// In-order iterator over `(key, payload)` from the smallest key.
    /// (No `Ord` bound: iteration just walks level 0.)
    pub fn iter(&self) -> Iter<'_, K, P> {
        // SAFETY: the head lives as long as the list and has every level.
        Iter { list: self, curr: unsafe { Node::next(self.head, 0) }.load(Ordering::Acquire) }
    }

    /// Nodes linked at each level, from level 0 up to the list's height: a
    /// walk of every level, about two hops per key. Level 0 holds every key;
    /// a tower a concurrent insert or a lost race left short counts only at
    /// the levels it reached.
    pub fn levels(&self) -> Vec<u64> {
        // ordering: the height only bounds the walk; each link is Acquire.
        let height = self.max_level.load(Ordering::Acquire);
        (0..height)
            .map(|level| {
                let mut nodes = 0;
                // SAFETY: the head has every level.
                let mut link = unsafe { Node::next(self.head, level) }.load(Ordering::Acquire);
                while link != 0 {
                    nodes += 1;
                    // SAFETY: `link` was read at `level` from a tower of this
                    // list, so it names a node whose tower is taller than
                    // `level`; nodes live as long as the list.
                    link = unsafe { Node::next(self.node(link), level) }.load(Ordering::Acquire);
                }
                nodes
            })
            .collect()
    }
}

impl<K: Ord, P: Copy> SkipList<K, P> {
    pub fn new() -> Self {
        let () = Node::<K, P>::FITS;
        let arena = Arc::new(Arena::new());
        let head = arena.alloc_shared(Node::<K, P>::units(MAX_HEIGHT));
        SkipList {
            // SAFETY: the link is fresh — the first block of chunk 0 — and
            // zeroed the block is a head already.
            head: unsafe { arena.at(head) }.cast(),
            arena,
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

    /// Geometric tower height (p = 1/2), for an insert: it cannot know its
    /// node's rank, as [`SkipList::fragment`] does.
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
    /// compares keys: the link of the first node with key ≥ `key` (0 =
    /// none), and that node if its key equals `key`. At every level it
    /// leaves without a match it hands `path` the predecessor and the
    /// successor (the link of the first node with a larger key, 0 = end)
    /// there; levels at or above the list's current height are not reported.
    /// Reads pass `()` and the bookkeeping compiles away; writes pass a
    /// [`Splice`]. One `Ord::cmp` per distinct node visited.
    ///
    /// **Early exit.** The descent returns at the first level where it
    /// meets an equal key instead of walking down to level 0. This is
    /// linearizable because towers are linked bottom-up: the inserter
    /// links level L only after its level-0 CAS — the linearization point
    /// of the insert — succeeded, and nodes are never unlinked. A node
    /// reached through any level-L link is therefore already a member of
    /// the level-0 list, and stays one. The Acquire load that returned the
    /// link pairs with the inserter's AcqRel CAS on that cell, which is
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
    /// **Following a link.** The same Acquire load is what makes the link
    /// resolvable: the block it names was cut from a chunk whose base had
    /// reached the directory before the block existed, so [`Arena::at`],
    /// which reads the directory after the link, finds it (the chain of
    /// happens-before edges is spelled out on [`Arena`]). Resolving costs
    /// one load that depends on the link — the directory entry; the
    /// directory pointer itself does not, and stays in cache. A link names
    /// one node for as long as the list lives, so the link the prefetch
    /// resolved (see [`SkipList::prefetch`]) is not resolved again when the
    /// level below starts with it, as it does whenever `curr` is larger.
    ///
    /// Keys are unique, so on a match the equal node is also the lower
    /// bound; on a miss the descent ends at level 0 with the link of the
    /// first node with a larger key. When a level's successor is the node
    /// the level above just found larger, its key is not compared again.
    #[inline]
    fn descend<T: Path<K, P>>(&self, key: &K, path: &mut T) -> (u32, Option<*mut Node<K, P>>) {
        let mut level = self.max_level.load(Ordering::Acquire) - 1;
        let mut pred = self.head;
        let mut larger = 0;
        let mut fetched = (0, ptr::null_mut());
        loop {
            // SAFETY: `pred` is the head or a node reached through a link at
            // `level` or above, so its tower is taller than `level`; nodes
            // are never freed while the list lives (insert-only).
            let succ = unsafe { Node::next(pred, level) }.load(Ordering::Acquire);
            if succ != 0 && succ != larger {
                // SAFETY: `succ` was read from a tower cell of this list, and
                // `fetched` holds a link read from one and the node it names.
                let curr = if succ == fetched.0 { fetched.1 } else { unsafe { self.node(succ) } };
                if level > 0 {
                    // SAFETY: `pred`'s tower is taller than `level`.
                    fetched = unsafe { self.prefetch(pred, level - 1) };
                }
                // SAFETY: `succ` was read from a live link with Acquire, so
                // the node's header is published and immutable.
                match unsafe { &(*curr).key }.cmp(key) {
                    KeyOrder::Less => {
                        pred = curr;
                        continue;
                    }
                    KeyOrder::Equal => return (succ, Some(curr)),
                    KeyOrder::Greater => larger = succ,
                }
            }
            path.leave(level, pred, succ);
            if level == 0 {
                return (succ, None);
            }
            level -= 1;
        }
    }

    /// Starts fetching the node `pred` links at `level` — while the key of
    /// the node the descent compares next is on its way from memory, so that
    /// the node it visits if that one turns out larger is too; `pred`'s tower
    /// is already in cache. Returns the link and the node it names, or
    /// `(0, null)` where there is no prefetch.
    ///
    /// # Safety
    /// `pred` must be the head or a node of this list taller than `level`.
    #[cfg(all(target_arch = "x86_64", not(any(loom, miri))))]
    #[inline(always)]
    unsafe fn prefetch(&self, pred: *mut Node<K, P>, level: usize) -> (u32, *mut Node<K, P>) {
        // SAFETY: per the contract the cell is inside `pred`'s tower; it
        // holds a link of this list (0 resolves to chunk 0's header), loaded
        // with Acquire like any link that is resolved — the node is not read,
        // the directory is; a prefetch is a hint and never faults.
        unsafe {
            let below = Node::next(pred, level).load(Ordering::Acquire);
            let node = self.node(below);
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(node.cast());
            (below, node)
        }
    }

    /// No prefetch: nothing is loaded and no link is resolved ahead.
    ///
    /// # Safety
    /// As in the prefetching build: `pred` must be the head or a node of
    /// this list taller than `level`.
    #[cfg(not(all(target_arch = "x86_64", not(any(loom, miri)))))]
    #[inline(always)]
    unsafe fn prefetch(&self, _: *mut Node<K, P>, _: usize) -> (u32, *mut Node<K, P>) {
        (0, ptr::null_mut())
    }

    /// Looks up the payload for `key`.
    pub fn get(&self, key: &K) -> Option<P> {
        // SAFETY: a found node is published (see `descend`).
        self.descend(key, &mut ()).1.map(|node| unsafe { (*node).value })
    }

    /// In-order iterator starting at the first key ≥ `key`.
    pub fn range_from(&self, key: &K) -> Iter<'_, K, P> {
        Iter { list: self, curr: self.descend(key, &mut ()).0 }
    }

    /// Inserts `key` with a payload produced by `factory` (called at most
    /// once, only when the key appears absent) — or looks it up: if the key
    /// is present the one descent returns its payload at the level it meets
    /// it, at the cost of a [`SkipList::get`]. On a duplicate-key race the
    /// loser's key is dropped here (its block stays where it is, unused,
    /// until the list drops); any payload the factory produced is handed
    /// back via [`InsertOutcome::Lost::yours`] for caller cleanup.
    pub fn insert_with<F: FnOnce() -> P>(&self, key: K, factory: F) -> InsertOutcome<P> {
        self.insert_tower(key, Self::random_height, factory)
    }

    /// [`SkipList::insert_with`] with the tower height drawn by `height`
    /// (only when the key appears absent).
    fn insert_tower<H, F>(&self, key: K, height: H, factory: F) -> InsertOutcome<P>
    where
        H: FnOnce(&Self) -> usize,
        F: FnOnce() -> P,
    {
        let mut at = Splice::new(self.head);

        if let Some(existing) = self.descend(&key, &mut at).1 {
            // SAFETY: `descend` found a published node; its header is immutable.
            let value = unsafe { (*existing).value };
            return InsertOutcome::Lost { existing: value, yours: None };
        }

        let height = height(self);
        debug_assert!((1..=MAX_HEIGHT).contains(&height));
        let value = factory();
        let link = self.arena.alloc_shared(Node::<K, P>::units(height));
        // SAFETY: the arena just handed this thread the block.
        let node = unsafe { self.fill(link, key, value) };

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
            match cell0.compare_exchange(at.succs[0], link, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(_) => {
                    // Something changed next to us: back off, then re-scan.
                    // The backoff matters precisely here — dense fresh-key
                    // storms make neighbors share a predecessor cell, and
                    // lockstep retries re-collide.
                    attempt += 1;
                    backoff(attempt);
                    // SAFETY: node is still exclusively ours (CAS failed).
                    let won = self.descend(unsafe { &(*node).key }, &mut at).1;
                    if let Some(winner) = won {
                        // Duplicate-key race lost — the winner may have been
                        // met at any level of its tower: drop our key,
                        // surface our payload for cleanup, adopt the
                        // winner's. The unpublished block stays unused in
                        // its chunk; it goes with the list.
                        // SAFETY: winner is a published, never-freed node.
                        let existing = unsafe { (*winner).value };
                        // SAFETY: `fill` initialized the key, the node never
                        // became reachable, and nothing reads it again.
                        unsafe { ptr::drop_in_place(&raw mut (*node).key) };
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
                if cell.compare_exchange(succ, link, Ordering::AcqRel, Ordering::Acquire).is_ok() {
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
                debug_assert_eq!(met, link, "keys are unique and nodes are never unlinked");
            }
        }

        self.len.fetch_add(1, Ordering::AcqRel);
        InsertOutcome::Inserted(value)
    }
}

/// A run of nodes in strictly increasing key order, linked to each other at
/// every level and not yet part of any list: what [`SkipList::fragment`]
/// builds and [`SkipList::adopt`] stitches. Its nodes fill chunks of their
/// own, back to back in key order and the last one cut to what was filled, in
/// the arena of the list that built it — the only list that can adopt it. Dropping a fragment that was never
/// adopted drops its keys; its chunks stay with the arena, like a block that
/// lost a duplicate-key race.
pub struct Fragment<K, P = u64> {
    arena: Arc<Arena>,
    /// First and last node per level; 0 at the levels no tower reaches, and
    /// `first[0]` is 0 again once the fragment is adopted.
    first: [u32; MAX_HEIGHT],
    last: [u32; MAX_HEIGHT],
    len: u64,
    dropped: u64,
    /// It owns its keys and payloads: `Send` when they are.
    _nodes: PhantomData<(K, P)>,
}

impl<K, P> Fragment<K, P> {
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

impl<K, P> Drop for Fragment<K, P> {
    fn drop(&mut self) {
        // SAFETY: an unadopted fragment is the only owner of its nodes, each
        // filled and reachable at level 0 exactly once; an adopted one starts
        // at 0, nothing.
        unsafe { drop_keys::<K, P>(&self.arena, self.first[0]) }
    }
}

impl<K: Ord, P: Copy> SkipList<K, P> {
    /// Bulk construction, step one: builds a [`Fragment`] from `pairs`,
    /// which must come in strictly increasing key order — a pair whose key
    /// is not greater than the last key kept is dropped (and counted, see
    /// [`Fragment::dropped`]), so of equal keys the first wins. One node per
    /// key, bump-allocated in key order from chunks only this call fills,
    /// every link written through a per-level tail: no descent and no CAS.
    /// Heights follow rank, not a coin: the i-th key kept (from 1) gets
    /// `1 + i.trailing_zeros() / 2` levels, so every 4th node reaches level
    /// 1, every 16th level 2, … — a perfect 4-ary skip list per fragment,
    /// the same one for the same pairs. Safe to call from several threads at
    /// once, one key range each.
    pub fn fragment(&self, pairs: impl IntoIterator<Item = (K, P)>) -> Fragment<K, P> {
        self.fragment_towers(pairs, |rank| (1 + rank.trailing_zeros() as usize / 2).min(MAX_HEIGHT))
    }

    /// [`SkipList::fragment`] with the height of the `rank`-th node kept
    /// (from 1) given by `height(rank)`.
    fn fragment_towers(
        &self,
        pairs: impl IntoIterator<Item = (K, P)>,
        mut height: impl FnMut(u64) -> usize,
    ) -> Fragment<K, P> {
        let mut frag = Fragment {
            arena: self.arena.clone(),
            first: [0; MAX_HEIGHT],
            last: [0; MAX_HEIGHT],
            len: 0,
            dropped: 0,
            _nodes: PhantomData,
        };
        let mut tails = [ptr::null_mut::<Node<K, P>>(); MAX_HEIGHT];
        let filling = AtomicU32::new(NO_CHUNK);
        for (key, value) in pairs {
            let tail = tails[0];
            // SAFETY: `tail` is a node this call built; its key is initialized.
            if !tail.is_null() && unsafe { &(*tail).key } >= &key {
                frag.dropped += 1;
                continue;
            }
            let height = height(frag.len + 1);
            // SAFETY: `filling` is this call's own cursor.
            let link = unsafe { self.arena.alloc(&filling, Node::<K, P>::units(height)) };
            // SAFETY: the block was just cut from this call's own chunk.
            let node = unsafe { self.fill(link, key, value) };
            for (level, tail) in tails.iter_mut().enumerate().take(height) {
                let prev = std::mem::replace(tail, node);
                frag.last[level] = link;
                if prev.is_null() {
                    frag.first[level] = link;
                } else {
                    // SAFETY: `prev` was built by this call with a tower
                    // taller than `level`, and no other thread can see it.
                    // ordering: the fragment is private to this thread; it
                    // reaches others only through `adopt`'s `&mut self`.
                    unsafe { Node::next(prev, level) }.store(link, Ordering::Relaxed);
                }
            }
            frag.len += 1;
        }
        // SAFETY: the cursor and the node pointers in `tails` end here, and
        // nothing but `frag` knows a link into the chunk.
        // ordering: this call's own cursor.
        unsafe { self.arena.trim(filling.load(Ordering::Relaxed)) };
        frag
    }

    /// Bulk construction, step two: makes `fragments` — in key order, every
    /// key of one smaller than every key of the next; empty ones are fine —
    /// the contents of this list, which must be empty and the one that built
    /// them (links are offsets into its arena). Costs one link per fragment
    /// and level, whatever the fragments hold. `&mut self` is the
    /// publication: nobody else can be reading the list, and whoever it is
    /// shared with afterwards synchronizes with this thread to get it.
    ///
    /// # Panics
    /// If the list is not empty, a fragment was built by another list, or
    /// two fragments are out of order.
    pub fn adopt(&mut self, fragments: impl IntoIterator<Item = Fragment<K, P>>) {
        assert!(self.is_empty(), "adopt needs an empty list");
        let mut tails = [self.head; MAX_HEIGHT];
        let (mut len, mut top) = (0u64, 1usize);
        for mut frag in fragments {
            assert!(Arc::ptr_eq(&frag.arena, &self.arena), "fragment built by another list");
            if frag.is_empty() {
                continue;
            }
            // SAFETY: the fragment's links are into this list's arena.
            let (tail, first) = (tails[0], unsafe { self.node(frag.first[0]) });
            // SAFETY: past the head check `tail` is the last node of an
            // adopted fragment, `first` the first node of a non-empty one.
            let ordered = tail == self.head || unsafe { (*tail).key < (*first).key };
            assert!(ordered, "fragments must be in key order");
            for (level, tail) in tails.iter_mut().enumerate() {
                if frag.first[level] == 0 {
                    break; // towers are contiguous: no node reaches higher
                }
                // SAFETY: `tail` is the head or a fragment's last node at
                // `level`, so its tower is taller than `level`.
                // ordering: `&mut self` — the list is not shared.
                unsafe { Node::next(*tail, level) }.store(frag.first[level], Ordering::Relaxed);
                // SAFETY: the fragment's links are into this list's arena.
                *tail = unsafe { self.node(frag.last[level]) };
                top = top.max(level + 1);
            }
            len += frag.len;
            frag.first[0] = 0; // its nodes and chunks are the list's now
        }
        // ordering: `&mut self` — the list is not shared.
        self.max_level.store(top, Ordering::Relaxed);
        // ordering: as above.
        self.len.store(len, Ordering::Relaxed);
    }
}

impl<K: Ord, P: Copy> Default for SkipList<K, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, P: Copy> Drop for SkipList<K, P> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop. Every published node is
        // reachable at level 0 exactly once — whatever became of its upper
        // levels — with its key filled in; a block that lost a duplicate-key
        // race is not, and its key went then. The head's key was never
        // initialized. The chunks go with the arena, once no fragment holds
        // it either.
        unsafe { drop_keys::<K, P>(&self.arena, Node::next(self.head, 0).load(Ordering::Acquire)) }
    }
}

/// Iterator over skip-list entries in key order.
pub struct Iter<'a, K, P: Copy = u64> {
    list: &'a SkipList<K, P>,
    curr: u32,
}

impl<'a, K, P: Copy> Iterator for Iter<'a, K, P> {
    type Item = (&'a K, P);

    fn next(&mut self) -> Option<Self::Item> {
        if self.curr == 0 {
            return None;
        }
        // SAFETY: `curr` was read from a live link of `list` with Acquire,
        // so the node's header is published and immutable; nodes live as
        // long as the list borrow `'a`.
        unsafe {
            let node = self.list.node(self.curr);
            self.curr = Node::next(node, 0).load(Ordering::Acquire);
            Some((&(*node).key, (*node).value))
        }
    }
}

#[cfg(test)]
impl<K: Ord, P: Copy> SkipList<K, P> {
    /// A list holding `entries` — `(key, payload, tower height)` — inserted
    /// in the given order with exactly the given heights.
    fn with_towers(entries: impl IntoIterator<Item = (K, P, usize)>) -> Self {
        let list = Self::new();
        for (key, value, height) in entries {
            assert!(list.insert_tower(key, |_| height, || value).inserted());
        }
        list
    }

    /// The same list bulk-built: `entries` in strictly increasing key order,
    /// cut into `parts` fragments (the last ones empty if there are fewer
    /// entries) that are stitched together.
    fn bulk_with_towers(entries: Vec<(K, P, usize)>, parts: usize) -> Self {
        let mut list = Self::new();
        let per = entries.len().div_ceil(parts).max(1);
        let mut entries = entries.into_iter();
        let fragments: Vec<Fragment<K, P>> = (0..parts)
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
        let l: SkipList<u64> = SkipList::new();
        assert!(l.insert_with(42, || 1).inserted());
        match l.insert_with(42, || 2) {
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
            let levels: Vec<u64> = (0..MAX_HEIGHT).map(|at| 3 * (MAX_HEIGHT - at) as u64).collect();
            assert_eq!(l.levels(), levels, "three towers of each height");
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

    /// Nodes per level of fragments of `lens` keys stitched together: level
    /// `L` links every fragment's ranks that are multiples of `4^L`, up to
    /// the highest level any node reaches (level 0 at least).
    fn positional_levels(lens: &[u64]) -> Vec<u64> {
        let mut levels: Vec<u64> =
            (0..MAX_HEIGHT).map(|at| lens.iter().map(|len| len >> (2 * at)).sum()).collect();
        while levels.len() > 1 && levels.last() == Some(&0) {
            levels.pop();
        }
        levels
    }

    /// The shape of a rebuilt index, as counts. 2^16 keys bulk-built as 1, 2
    /// and 4 fragments are a perfect 4-ary skip list per fragment, and a
    /// `get` of a present key compares keys 18.00 times on average and 25 at
    /// worst (one fragment: 18 · 2^16 + 1 in all; two and four: 17.25 / 25).
    /// The same keys inserted one by one, at random p = 1/2 heights, took
    /// 20.9 / 46, 21.2 / 46 and 23.0 / 51 in three draws of the heights.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn a_bulk_built_list_is_a_perfect_4_ary_list_per_fragment() {
        let n = 1u64 << 16;
        for parts in [1u64, 2, 4] {
            let mut l: SkipList<Tallied, u32> = SkipList::new();
            let per = n / parts;
            let fragments: Vec<_> = (0..parts)
                .map(|f| l.fragment((f * per..(f + 1) * per).map(|k| (Tallied(k), k as u32))))
                .collect();
            l.adopt(fragments);
            assert_eq!(l.levels(), positional_levels(&vec![per; parts as usize]), "{parts}");
            let (mut total, mut worst) = (0, 0);
            for k in 0..n {
                let (got, made) = comparisons(|| l.get(&Tallied(k)));
                assert_eq!(got, Some(k as u32));
                (total, worst) = (total + made, worst.max(made));
            }
            let mean = total as f64 / n as f64;
            assert!(mean < 18.01 && worst <= 25, "{parts} fragment(s): {mean:.4} / {worst}");
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
    /// its node goes: dropped with the list, never allocated (pre-check
    /// duplicate), built by the loser of a duplicate-key race (the key dies
    /// in the call, the block it sat in goes with the list's chunks and is
    /// not walked again), or published at level 0 with the rest of its tower
    /// abandoned.
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
        let outcome = l.insert_tower(
            loser,
            |_| 4,
            || {
                assert!(l.insert_tower(winner, |_| 2, || 7).inserted());
                8
            },
        );
        let used = l.memory().1;
        assert_eq!(outcome, InsertOutcome::Lost { existing: 7, yours: Some(8) });
        assert_eq!(drops.load(Ordering::SeqCst), 2, "the loser's key dies in the call");
        assert_eq!(l.memory().1, used, "its block stays handed out until the list drops");

        // Abandoned tower: a height-5 node linked at level 0 only, with a
        // stale successor left in a level it never reached — the state
        // `insert_with` leaves behind after UPPER_LINK_RETRIES lost races.
        let mut at = Splice::new(l.head);
        let short = key(57);
        assert!(l.descend(&short, &mut at).1.is_none());
        let Splice { preds, succs } = at;
        let link = l.arena.alloc_shared(Node::<Counted, u64>::units(5));
        // SAFETY: the block is private until the CAS; `preds`/`succs` come
        // from `descend` on this list, which no other thread is using.
        unsafe {
            let node = l.fill(link, short, 9);
            Node::next(node, 0).store(succs[0], Ordering::Relaxed);
            Node::next(node, 3).store(succs[0], Ordering::Relaxed);
            Node::next(preds[0], 0)
                .compare_exchange(succs[0], link, Ordering::AcqRel, Ordering::Acquire)
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
        let built = l.memory();
        let orphan = l.fragment((100..110u64).map(|id| (key(id), id)));
        assert_eq!(orphan.len(), 10);
        let held = l.memory();
        assert!(held.0 > built.0, "a fragment fills chunks of its own");
        drop(orphan);
        assert_eq!(drops.load(Ordering::SeqCst), 13, "an unadopted fragment drops its keys");
        assert_eq!(l.memory(), held, "its chunks go with the list");

        l.adopt([l.fragment(None), low, l.fragment(None), high]);
        let pairs: Vec<(u64, u64)> = l.iter().map(|(k, v)| (k.id, v)).collect();
        assert_eq!(pairs, vec![(10, 0), (20, 1), (30, 3), (40, 6), (50, 5), (60, 6), (70, 7)]);
        assert_eq!(l.len(), 7);
        assert_eq!(l.levels(), [7, 1], "40 is the 4th key kept: a refused key takes no rank");
        assert_eq!(drops.load(Ordering::SeqCst), 13);
        drop(l);
        assert_eq!(drops.load(Ordering::SeqCst), 20);
    }

    #[test]
    #[should_panic(expected = "fragments must be in key order")]
    fn adopt_refuses_overlapping_fragments() {
        let mut l: SkipList<u64> = SkipList::new();
        let (a, b) = (l.fragment([(1u64, 1), (5, 5)]), l.fragment([(5u64, 50), (9, 9)]));
        l.adopt([a, b]);
    }

    /// Links are offsets into the arena of the list that built the
    /// fragment, so no other list can take it — not even when its own list
    /// is gone (the fragment keeps the arena alive, and crosses threads).
    #[test]
    #[should_panic(expected = "fragment built by another list")]
    fn adopt_refuses_a_fragment_built_by_another_list() {
        let foreign = std::thread::spawn(|| SkipList::<u64>::new().fragment([(1, 1), (2, 2)]));
        SkipList::new().adopt([foreign.join().unwrap()]);
    }

    /// The payload's width is part of every node: behind a `u64` key a `u32`
    /// payload makes a one-level node 16 bytes where a `u64` one makes it 24,
    /// and every second height a block size smaller.
    #[test]
    fn the_payload_width_sets_the_block_of_a_short_node() {
        let bytes = |units: fn(usize) -> u32| [1, 2, 3, 4].map(|h| units(h) as usize * UNIT);
        assert_eq!(bytes(Node::<u64, u32>::units), [16, 24, 24, 32]);
        assert_eq!(bytes(Node::<u64, u64>::units), [24, 24, 32, 32]);
    }

    /// The size of the index as a count. A node of height `h` is its key, its
    /// payload and four bytes a level, rounded up to 8; the list holds that
    /// for every node and the head, 8 bytes of header per chunk, less than a
    /// tallest node of room at the end of every chunk it has filled, its
    /// chunk directories — and the partly filled chunk of the inserters'
    /// cursor, which is all that chunk size costs: a finished fragment holds
    /// what it filled, to the byte.
    #[test]
    fn a_list_reserves_its_nodes_and_one_partly_filled_chunk() {
        const CHUNK: usize = UNIT << SLOT_BITS;
        let bytes = |key: usize, h: usize| (key + 8 + 4 * h).next_multiple_of(8);
        let node = |h: usize| bytes(std::mem::size_of::<u64>(), h);
        for h in 1..=MAX_HEIGHT {
            assert_eq!(Node::<u64, u64>::units(h) as usize * UNIT, node(h));
            let string = bytes(std::mem::size_of::<String>(), h);
            assert_eq!(Node::<String, u64>::units(h) as usize * UNIT, string);
        }

        let l: SkipList<u64> = SkipList::new();
        let (reserved, head) = l.memory();
        assert!(reserved <= 8 << 10, "an empty list holds {reserved} bytes");
        assert_eq!(head, 8 + node(MAX_HEIGHT));
        for h in 1..=MAX_HEIGHT {
            let before = l.memory();
            assert!(l.insert_tower(h as u64, |_| h, || 0).inserted());
            assert_eq!(l.memory(), (before.0, before.1 + node(h)), "a node of height {h}");
        }

        let n = if cfg!(miri) { 600 } else { 60_000u64 };
        let entries: Vec<(u64, u64, usize)> =
            (0..n).map(|i| (i, i, (i as usize * 7) % MAX_HEIGHT + 1)).collect();
        let nodes: usize = entries.iter().map(|e| node(e.2)).sum();
        let parts = 3;
        let grown = SkipList::with_towers(entries.iter().copied());
        for (l, cursors) in [(grown, 1), (SkipList::bulk_with_towers(entries, parts), parts + 1)] {
            let (reserved, used) = l.memory();
            // The first six chunks of a cursor are small and a fragment's
            // last one is cut; the rest are `CHUNK`.
            let chunks = reserved / CHUNK + 7 * cursors;
            assert!((head + nodes..=head + nodes + 8 * chunks).contains(&used), "{used} used");
            let slack = CHUNK + chunks * node(MAX_HEIGHT) + (2 << 10);
            assert!(reserved <= used + slack, "{reserved} reserved for {used} used");
        }

        let l: SkipList<u64> = SkipList::new();
        let before = l.memory();
        let fragment = l.fragment((0..100u64).map(|i| (i, i)));
        let after = l.memory();
        assert_eq!(after.0 - before.0, after.1 - before.1, "a fragment's one chunk, cut");
        assert!(after.1 - before.1 >= 8 + 100 * node(1));
        drop(fragment);
    }

    /// A small list stays small however many threads and fragments wrote it:
    /// inserters share one cursor, and a fragment's first chunk is 4 KiB.
    #[test]
    fn a_small_list_written_by_many_stays_small() {
        let l = Arc::new(SkipList::new());
        let writers: Vec<_> = (0..7u64)
            .map(|t| {
                let l = l.clone();
                std::thread::spawn(move || assert!(l.insert_with(t, || t).inserted()))
            })
            .collect();
        writers.into_iter().for_each(|w| w.join().unwrap());
        let (reserved, _) = l.memory();
        assert!(reserved <= 8 << 10, "seven threads, one key each: {reserved} bytes");

        let parts = 16;
        let entries = (0..64u64).map(|i| (i, i, i as usize % 4 + 1)).collect();
        let (reserved, _) = SkipList::bulk_with_towers(entries, parts).memory();
        assert!(reserved <= (parts + 2) * (4 << 10), "{parts} fragments: {reserved} bytes");
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
        // A loser's key dies in its call, before or after it was given a
        // block; only the winners' are left for the list to drop.
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
    /// `String` buffer freed — including the pre-check duplicate's — by the
    /// level-0 walk a list makes before its chunks go.
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
