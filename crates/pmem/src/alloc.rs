//! Thread-safe persistent allocator with sharded arenas.
//!
//! Design (see crate docs for the crash story):
//!
//! * The heap is a contiguous stream of blocks `[size u64 | state u64 | …]`,
//!   16-aligned, never split or coalesced — so it is always walkable.
//! * Small requests are rounded to a size class and served from **runs**:
//!   one refill carves one heap block holding `n` headerless blocks of
//!   exactly `SIZE_CLASSES[class]` bytes behind a 32-byte [`RunHeader`] —
//!   the block header, whose state word names the class and `n`, and the
//!   occupancy words, whose bit `i` says block `i` is allocated. A free-list
//!   entry names its run and bit, so allocating never searches; freeing and
//!   sizing find a block's run in a DRAM directory of run offsets (one
//!   sorted `u32` per run, in 16-byte units, filled by the open walk and by
//!   every refill). Free lists are volatile, rebuilt by the walk on open.
//! * The free lists are **sharded**: each thread is pinned to one of
//!   [`num_shards`] arenas sized from the machine's core count and
//!   allocates from its own shard's lists without contending with other
//!   shards. A miss first tries to *steal* from sibling shards — a bounded
//!   randomized probe, then a sweep guided by per-shard emptiness hints —
//!   moving **half the victim's list** per steal so one lock acquisition
//!   amortizes over many future allocations. Only then does it fall back
//!   to the global bump cursor, carving one run of `n` blocks per cursor
//!   CAS ([`REFILL_BATCH`], growing adaptively while a shard refills
//!   back-to-back, at most [`MAX_RUN_BLOCKS`]), parking the extras in its
//!   own shard. This amortizes the cursor contention, the header persist
//!   and the fence across the run (cf. per-thread PM arenas in Marathe et
//!   al., *Persistent Memory Transactions*).
//! * Large requests (> 4 KiB payload) bump-allocate one headed block
//!   exactly; freed large blocks go to a volatile best-fit map (global —
//!   large allocations are rare and not on the hot path).
//! * The bump cursor lives in the superblock and is advanced with a word
//!   atomic CAS, making the fast path lock-free.
//!
//! Persist ordering on allocation: a run's header — size, state, occupancy
//! words with the first block's bit set — is persisted before any of its
//! blocks is handed out, so any payload the caller persists lies in a
//! durable run. A crash between cursor advance and header persist leaks at
//! most the in-flight run; the open-time walk re-bases the cursor at an
//! invalid header with no decodable block behind it ([`walk_heap`]). The
//! refill **fences** before parking the run's other blocks: they are handed
//! to other threads through the steal path, so their clear bits cannot ride
//! a later fence of the allocating thread alone.
//!
//! Allocation bit flips, by contrast, are flushed but **not** fenced (the
//! MOD minimal-ordering argument, Friedman et al.): a block's bit only
//! matters once some durable structure references the block, every
//! reference is created by the thread that obtained the block, and that
//! thread's own publish fence orders the earlier flush of the word. Until
//! then a stale bit merely leaks the block (set with no referent) or
//! re-frees it (clear with no referent) — both recovered by the
//! leak-at-most walk. A flip is one CAS on a word whose other bits other
//! threads flip too; every CAS builds its word from the current one, so
//! whatever value of the word reaches the media holds every flip flushed
//! before it. See DESIGN.md §13 for the full audit.
//!
//! Metadata words are CRC-folded: a state word is `tag << 32 |
//! crc32c(size, tag)` ([`encode_state`]), an occupancy word `mask << 32 |
//! crc32c(run, index, mask)` ([`encode_occupancy`]). Torn or flipped
//! metadata fails the decode and the walk keeps what it covers live — a
//! damaged run header is one gap, a damaged occupancy word keeps its ≤ 32
//! blocks — instead of resurrecting a corrupt block onto a free list. A free
//! that the words refuse — a block already free, an offset in no run and on
//! no large block — panics in every build profile.

use crate::layout::*;
use crate::pool::PmemPool;
use crate::{PmemError, Result};
use mvkv_sync::sync::atomic::{AtomicU64, Ordering};
use mvkv_sync::sync::Mutex;
use std::collections::BTreeMap;

/// Class blocks in the run one refill carves, before adaptive growth. The
/// batch shrinks (8 → 4 → 2 → 1) when the heap tail is too small for a full
/// run, and doubles (up to [`MAX_RUN_BLOCKS`]) while a shard keeps
/// refilling with no free-list hit in between.
pub const REFILL_BATCH: u64 = 8;

/// Runs start below 64 GiB: the directory records them as `u32` counts of
/// 16-byte units. Above it, class requests report `OutOfMemory`.
const RUN_LIMIT: u64 = BLOCK_ALIGN << 32;

/// A free class block as a free list holds it: `run << 8 | bit`.
fn free_entry(run: u64, bit: u64) -> u64 {
    run << 8 | bit
}

/// Where a block's allocation state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Located {
    /// Block `bit` of the run whose header is at `run`.
    Run { run: u64, bit: u64, class: usize },
    /// A large block whose `[size | state]` header is at `header`.
    Large { header: u64, size: u64 },
}

impl Located {
    /// The word that says whether the block is allocated.
    fn state_word(self) -> u64 {
        match self {
            Located::Run { run, bit, .. } => run + OCCUPANCY + 8 * (bit / 32),
            Located::Large { header, .. } => header + 8,
        }
    }

    /// Sets (`allocated`) or clears the block's state with one CAS on its
    /// word and flushes the word — deliberately **not** fenced (MOD audit,
    /// module docs + DESIGN.md §13): only the thread that holds the block
    /// references it, and that thread's later publish fence orders this
    /// flush before any durable reference (a free comes after every durable
    /// reference is gone). False, with nothing written, when the state
    /// already was that or the word fails its CRC.
    fn flip(self, pool: &PmemPool, allocated: bool) -> bool {
        let word = pool.atomic_u64(self.state_word());
        let mut current = word.load(Ordering::Acquire);
        loop {
            let next = match self {
                Located::Run { run, bit, .. } => {
                    let (index, flag) = (bit / 32, 1u32 << (bit % 32));
                    let mask = decode_occupancy(run, index, current);
                    let Some(mask) = mask.filter(|m| (m & flag == 0) == allocated) else {
                        return false;
                    };
                    encode_occupancy(run, index, mask ^ flag)
                }
                Located::Large { size, .. } => {
                    let state = |on| if on { BlockState::Allocated } else { BlockState::Free };
                    if decode_state(size, current) != Some(state(!allocated)) {
                        return false;
                    }
                    encode_state(size, state(allocated))
                }
            };
            // ordering: other threads CAS other bits of the same word; each
            // CAS must build on the value the last one left.
            match word.compare_exchange(current, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        pool.persist(self.state_word(), 8);
        true
    }
}

/// Consecutive refills (per shard, no intervening hit) before the batch
/// doubles once more.
const REFILL_STREAK_WINDOW: u64 = 4;

/// Sibling shards probed at random before the guided full sweep.
const STEAL_PROBES: usize = 2;

/// Number of allocation arenas: the machine's available parallelism,
/// rounded up to a power of two and clamped to `[4, 64]` (a floor of four
/// keeps free-then-steal locality even on tiny CI boxes; 64 matches the
/// paper's maximum thread count). Computed once per process.
#[cfg(not(loom))]
pub fn num_shards() -> usize {
    static SHARDS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *SHARDS.get_or_init(|| {
        mvkv_sync::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .next_power_of_two()
            .clamp(4, 64)
    })
}

/// Under the model checker the shard count must be small and constant so
/// the interesting races (more threads than shards, refill-vs-steal) stay
/// inside loom's schedule budget.
#[cfg(loom)]
pub fn num_shards() -> usize {
    2
}

#[cfg(not(loom))]
mod shard_slot {
    //! Thread → shard-slot assignment with id recycling.
    //!
    //! Ids come from a free-list replenished by a per-thread drop guard, so
    //! the live id range stays as dense as the *concurrent* thread count:
    //! a process that churns short-lived workers (tests, thread-per-request
    //! servers) no longer marches a monotone counter around the ring and
    //! piles late threads onto the same few shards.

    use mvkv_sync::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    static FREE_IDS: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

    struct SlotGuard(usize);

    impl Drop for SlotGuard {
        fn drop(&mut self) {
            if let Ok(mut free) = FREE_IDS.lock() {
                free.push(self.0);
            }
        }
    }

    fn acquire() -> usize {
        if let Ok(mut free) = FREE_IDS.lock() {
            if let Some(id) = free.pop() {
                return id;
            }
        }
        // ordering: id handout only needs uniqueness, nothing is published.
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    thread_local! {
        static SLOT: SlotGuard = SlotGuard(acquire());
    }

    /// This thread's raw slot id (dense across concurrently live threads).
    /// Falls back to 0 during thread teardown, when the slot's TLS entry
    /// may already be destroyed.
    pub fn id() -> usize {
        SLOT.try_with(|s| s.0).unwrap_or(0)
    }
}

/// Returns this thread's shard index.
#[cfg(not(loom))]
fn shard_id() -> usize {
    // num_shards() is a power of two, so the modulo folds to a mask.
    shard_slot::id() % num_shards()
}

/// Under the model checker the shard must be a pure function of the model
/// thread, not of a process-global counter: DFS replays re-run the model
/// body on fresh OS threads, and a drifting counter would make schedules
/// non-reproducible.
#[cfg(loom)]
fn shard_id() -> usize {
    mvkv_sync::model_thread_index().unwrap_or(0) % num_shards()
}

/// Cheap per-thread RNG for steal-victim selection and backoff jitter.
/// Seeded from the thread's slot id so streams differ across threads while
/// staying deterministic per thread.
#[cfg(not(loom))]
fn probe_rand() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        if x == 0 {
            x = (shard_slot::id() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    })
}

/// One allocation arena: per-class free lists plus traffic counters.
///
/// Aligned to two cache lines so one shard's counters never false-share
/// with a neighbor's — the hit counter is bumped on every fast-path alloc,
/// and with the shards packed in one array an unpadded layout puts eight
/// shards' counters on a handful of lines.
#[repr(align(128))]
struct Shard {
    /// Free-list entries ([`free_entry`]) per class.
    class_free: [Mutex<Vec<u64>>; NUM_CLASSES],
    /// Bit `c` set ⇔ `class_free[c]` may be non-empty. Maintained under the
    /// class lock; read lock-free by the steal path so empty siblings cost
    /// one atomic load instead of a lock acquisition.
    nonempty: AtomicU64,
    hits: AtomicU64,
    refills: AtomicU64,
    steals: AtomicU64,
    /// Consecutive "tight" refills (at most one batch worth of list serves
    /// between them — i.e. nothing but the previous batch's own extras fed
    /// the list, no frees or steals arrived); drives adaptive batch growth.
    refill_streak: AtomicU64,
    /// `hits + steals` observed at the previous refill.
    serves_at_last_refill: AtomicU64,
    /// Size of the previous refill batch.
    last_batch: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            class_free: std::array::from_fn(|_| Mutex::new(Vec::new())),
            nonempty: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            refill_streak: AtomicU64::new(0),
            serves_at_last_refill: AtomicU64::new(0),
            last_batch: AtomicU64::new(REFILL_BATCH),
        }
    }

    /// Pops one block of `class`, maintaining the emptiness hint.
    fn pop(&self, class: usize) -> Option<u64> {
        // ordering: advisory emptiness hint; the lock orders list contents.
        if self.nonempty.load(Ordering::Relaxed) & (1 << class) == 0 {
            return None;
        }
        let mut list = self.class_free[class].lock();
        let off = list.pop();
        if list.is_empty() {
            // ordering: hint cleared under the same lock that emptied the
            // list, so a clear bit can never hide a present block.
            self.nonempty.fetch_and(!(1 << class), Ordering::Relaxed);
        }
        off
    }

    /// Pushes blocks of `class`, maintaining the emptiness hint.
    fn push(&self, class: usize, offs: impl IntoIterator<Item = u64>) {
        let mut list = self.class_free[class].lock();
        list.extend(offs);
        if !list.is_empty() {
            // ordering: advisory hint; set under the list lock.
            self.nonempty.fetch_or(1 << class, Ordering::Relaxed);
        }
    }

    /// Steals the newer half of this shard's `class` list (at least one
    /// block): one returned for immediate use, the rest for the thief's own
    /// shard. Bulk movement is the point — a single victim-lock acquisition
    /// funds many future fast-path hits instead of one.
    fn steal_half(&self, class: usize) -> Option<(u64, Vec<u64>)> {
        // ordering: advisory emptiness hint; the lock orders list contents.
        if self.nonempty.load(Ordering::Relaxed) & (1 << class) == 0 {
            return None;
        }
        let mut list = self.class_free[class].lock();
        if list.is_empty() {
            // ordering: hint cleared under the list lock (see pop).
            self.nonempty.fetch_and(!(1 << class), Ordering::Relaxed);
            return None;
        }
        let keep = list.len() / 2;
        let mut taken = list.split_off(keep);
        if list.is_empty() {
            // ordering: hint cleared under the list lock (see pop).
            self.nonempty.fetch_and(!(1 << class), Ordering::Relaxed);
        }
        drop(list);
        let first = taken.pop().expect("split keeps at least one block");
        Some((first, taken))
    }
}

/// What a heap walk finds between `HEAP_START` and the bump cursor.
pub(crate) enum HeapItem {
    /// A large block with a valid size word; `state` is `None` when its
    /// state word decodes as nothing — a run's damaged state word among them.
    /// Never `Some(BlockState::Run { .. })`.
    Block { header: u64, size: u64, state: Option<BlockState> },
    /// A run of `blocks` blocks of size class `class` ([`occupancy`] reads
    /// its words).
    Run { run: u64, class: usize, blocks: u64 },
    /// A damaged header and whatever lies between it and the next header the
    /// walk could resume at: blocks it can no longer tell apart.
    Gap,
}

/// The size word at `at < bump`, if it can be a block's: a multiple of the
/// alignment that holds a header and stays below the cursor.
fn block_size(pool: &PmemPool, at: u64, bump: u64) -> Option<u64> {
    let size = pool.read_u64(at);
    let valid =
        size >= BLOCK_HEADER + BLOCK_ALIGN && size.is_multiple_of(BLOCK_ALIGN) && size <= bump - at;
    valid.then_some(size)
}

/// Walks the block stream from `HEAP_START` to `bump` — the walk behind the
/// open-time rebuild and the audit — and returns where it ended: `bump`, or
/// the first byte of a torn tail.
///
/// An invalid size word is either: the tail of a crash between a cursor
/// advance and its header persists (nothing behind it was ever handed out),
/// or a media fault on a header in mid-heap, with live blocks behind it that
/// a re-based cursor would hand out a second time. The walk tells them apart
/// by looking for a block to resume at ([`resume_behind`]).
pub(crate) fn walk_heap(pool: &PmemPool, bump: u64, mut visit: impl FnMut(HeapItem)) -> u64 {
    let mut at = HEAP_START;
    while at < bump {
        if let Some(size) = block_size(pool, at, bump) {
            visit(match decode_state(size, pool.read_u64(at + 8)) {
                Some(BlockState::Run { class, blocks }) => HeapItem::Run { run: at, class, blocks },
                state => HeapItem::Block { header: at, size, state },
            });
            at += size;
        } else if let Some(resume) = resume_behind(pool, at, bump) {
            visit(HeapItem::Gap);
            at = resume;
        } else {
            break;
        }
    }
    at
}

/// The first header behind the damaged one at `from` whose `(size, state)`
/// pair decodes — the state's CRC is bound to the size, so a false hit needs
/// a 32-bit collision — and from which the size words lead exactly to `bump`.
fn resume_behind(pool: &PmemPool, from: u64, bump: u64) -> Option<u64> {
    let mut candidate = from + BLOCK_ALIGN;
    while candidate + BLOCK_HEADER <= bump {
        let decodes = block_size(pool, candidate, bump)
            .is_some_and(|size| decode_state(size, pool.read_u64(candidate + 8)).is_some());
        if decodes {
            let mut at = candidate;
            while at < bump {
                let Some(size) = block_size(pool, at, bump) else { break };
                at += size;
            }
            if at == bump {
                return Some(candidate);
            }
            // A second damaged header: the blocks up to it are on the chain
            // that just failed, the search goes on behind it.
            candidate = at;
        }
        candidate += BLOCK_ALIGN;
    }
    None
}

/// The occupancy words of the run at `run` with `blocks` blocks: per word,
/// the bits it covers and its mask (`None`: the word fails its CRC).
pub(crate) fn occupancy(
    pool: &PmemPool,
    run: u64,
    blocks: u64,
) -> impl Iterator<Item = (std::ops::Range<u64>, Option<u32>)> + '_ {
    (0..blocks.div_ceil(32)).map(move |index| {
        let word = pool.read_u64(run + OCCUPANCY + 8 * index);
        (32 * index..blocks.min(32 * index + 32), decode_occupancy(run, index, word))
    })
}

/// Volatile allocator state attached to a pool.
///
/// There is deliberately **no** independent `total_allocs` counter:
/// [`Allocator::stats`] derives it as `hits + steals + refills +
/// large_allocs`, so a snapshot can never observe "more allocations served
/// than performed" no matter how it interleaves with concurrent updates
/// (the read-during-update race the old two-counter scheme had).
pub struct Allocator {
    /// One arena per `num_shards()` — sized at construction, never resized,
    /// so per-shard counter reads in [`Allocator::stats`] are plain atomic
    /// loads with no bounds hazard when the count differs across builds.
    shards: Box<[Shard]>,
    /// Every run's header offset in 16-byte units, sorted: how a free finds
    /// its block's run.
    runs: Mutex<Vec<u32>>,
    /// Freed large blocks: total block size → payload offsets.
    large_free: Mutex<BTreeMap<u64, Vec<u64>>>,
    live_blocks: AtomicU64,
    /// Allocations served by the large path (best-fit reuse or exact bump).
    large_allocs: AtomicU64,
    total_frees: AtomicU64,
    /// Blocks whose state word decoded as neither free nor allocated, and
    /// gaps behind damaged headers, when [`Allocator::rebuild_from_heap`]
    /// walked the heap (0 for a new pool).
    indeterminate_at_open: AtomicU64,
}

/// Counters describing allocator health.
///
/// The per-shard vectors are sized `num_shards()` at snapshot time — the
/// shard count is a runtime property of the machine, not a compile-time
/// constant, so fixed arrays would tear on machines with more cores than
/// the array holds. Each vector element is a single atomic load; the
/// `total_allocs` sum is derived from exactly those loads, keeping the
/// snapshot internally consistent under concurrent allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes from heap start to the bump cursor.
    pub heap_used: u64,
    /// Bytes still available for bump allocation.
    pub heap_remaining: u64,
    /// Blocks currently allocated.
    pub live_blocks: u64,
    /// Lifetime allocation count (this process). Derived at snapshot time
    /// from the per-path counters, so it always equals `shard_hits +
    /// shard_steals + shard_refills + large_allocs` of the same snapshot.
    pub total_allocs: u64,
    /// Lifetime large-path allocation count (this process).
    pub large_allocs: u64,
    /// Lifetime free count (this process).
    pub total_frees: u64,
    /// Per-shard allocations served from the shard's own free lists.
    pub shard_hits: Vec<u64>,
    /// Per-shard batched refills from the bump cursor.
    pub shard_refills: Vec<u64>,
    /// Per-shard allocations served by stealing from a sibling shard.
    pub shard_steals: Vec<u64>,
}

impl Default for Allocator {
    fn default() -> Self {
        Self::new()
    }
}

impl Allocator {
    pub fn new() -> Self {
        Allocator {
            shards: (0..num_shards()).map(|_| Shard::new()).collect(),
            runs: Mutex::new(Vec::new()),
            large_free: Mutex::new(BTreeMap::new()),
            live_blocks: AtomicU64::new(0),
            large_allocs: AtomicU64::new(0),
            total_frees: AtomicU64::new(0),
            indeterminate_at_open: AtomicU64::new(0),
        }
    }

    /// Allocates `len` payload bytes; returns the payload offset.
    pub fn alloc(&self, pool: &PmemPool, len: usize) -> Result<u64> {
        let len = len.max(1);
        if let Some(class) = class_for(len) {
            // Ordering note: hits/steals/refills below are monitoring stats
            // only — Relaxed by design; nothing is ordered against them.
            // `stats()` derives total_allocs from them, so each alloc bumps
            // exactly one classifying counter.
            let me = shard_id();
            // 1. Own arena — the contention-free fast path.
            if let Some(entry) = self.shards[me].pop(class) {
                self.shards[me].hits.fetch_add(1, Ordering::Relaxed); // ordering: stat
                mvkv_obs::counter_inc_hot!("mvkv_pmem_alloc_hits_total");
                return Ok(self.take_entry(pool, class, entry));
            }
            // 2. Steal from siblings before burning fresh heap, so blocks
            //    freed by other threads (or redistributed by a reopen scan)
            //    are found before the bump cursor moves. A couple of
            //    randomized probes handle the common crowded case without a
            //    ring scan; the deterministic sweep after them is the
            //    correctness backstop (never bump while a sibling holds
            //    blocks) and costs one relaxed load per empty sibling.
            if let Some(off) = self.steal(pool, me, class) {
                return Ok(off);
            }
            // 3. Batched refill from the global cursor.
            return self.refill_and_alloc(pool, me, class, len);
        }
        // Large path: best-fit from the volatile free map, else bump.
        let payload = round_up(len as u64, BLOCK_ALIGN);
        {
            let mut large = self.large_free.lock();
            let wanted_block = BLOCK_HEADER + payload;
            // First block size >= wanted that wastes at most 25%.
            let candidate = large
                .range(wanted_block..)
                .next()
                .map(|(&size, _)| size)
                .filter(|&size| size <= wanted_block + wanted_block / 4);
            if let Some(size) = candidate {
                let offs = large.get_mut(&size).expect("key exists");
                let off = offs.pop().expect("non-empty bucket");
                if offs.is_empty() {
                    large.remove(&size);
                }
                drop(large);
                self.large_allocs.fetch_add(1, Ordering::Relaxed); // ordering: stat
                mvkv_obs::counter_inc!("mvkv_pmem_alloc_large_total");
                self.take(pool, Located::Large { header: off - BLOCK_HEADER, size });
                return Ok(off);
            }
        }
        self.bump_new_block(pool, payload, len)
    }

    /// Marks a free-list block allocated ([`Located::flip`]); a block whose
    /// word says it is not free is never handed out.
    fn take(&self, pool: &PmemPool, block: Located) {
        assert!(block.flip(pool, true), "free-list block {block:?} is not free");
        self.live_blocks.fetch_add(1, Ordering::Relaxed); // ordering: gauge, not a publication
    }

    /// [`Allocator::take`] for the class block a free-list entry names.
    fn take_entry(&self, pool: &PmemPool, class: usize, entry: u64) -> u64 {
        let (run, bit) = (entry >> 8, entry & 0xFF);
        self.take(pool, Located::Run { run, bit, class });
        run_block(run, class, bit)
    }

    /// Where the block at payload offset `off` keeps its state: in a run of
    /// the directory, or behind a large block's header; `None` when `off`
    /// starts no block of this pool.
    fn locate(&self, pool: &PmemPool, off: u64) -> Option<Located> {
        let bump = pool.read_u64(OFF_BUMP).min(pool.len() as u64);
        if !off.is_multiple_of(BLOCK_ALIGN) || off < HEAP_START + BLOCK_HEADER || off >= bump {
            return None;
        }
        let run = {
            let runs = self.runs.lock();
            let below = runs.partition_point(|&unit| u64::from(unit) * BLOCK_ALIGN < off);
            below.checked_sub(1).map(|i| u64::from(runs[i]) * BLOCK_ALIGN)
        };
        if let Some(run) = run {
            let size = pool.read_u64(run);
            if off < run + size {
                let state = decode_state(size, pool.read_u64(run + 8));
                let Some(BlockState::Run { class, blocks }) = state else { return None };
                let (at, stride) = (off.checked_sub(run + RUN_HEADER)?, SIZE_CLASSES[class] as u64);
                let block = Located::Run { run, bit: at / stride, class };
                return (at % stride == 0 && at / stride < blocks).then_some(block);
            }
        }
        let header = off - BLOCK_HEADER;
        let size = block_size(pool, header, bump)?;
        let state = decode_state(size, pool.read_u64(header + 8))?;
        matches!(state, BlockState::Free | BlockState::Allocated)
            .then_some(Located::Large { header, size })
    }

    /// [`Allocator::locate`] for an offset the caller vouches for.
    fn block_at(&self, pool: &PmemPool, off: u64) -> Located {
        self.locate(pool, off).unwrap_or_else(|| panic!("no block of this pool starts at {off}"))
    }

    /// Payload bytes of the block at `off`.
    pub fn block_capacity(&self, pool: &PmemPool, off: u64) -> usize {
        match self.block_at(pool, off) {
            Located::Run { class, .. } => SIZE_CLASSES[class],
            Located::Large { size, .. } => (size - BLOCK_HEADER) as usize,
        }
    }

    /// Offset of the word that says whether the block at `off` is allocated.
    pub fn state_word(&self, pool: &PmemPool, off: u64) -> u64 {
        self.block_at(pool, off).state_word()
    }

    /// The steal path: bounded randomized probes, then an emptiness-hint
    /// guided sweep. A successful steal moves half the victim's list into
    /// shard `me` and returns one block marked allocated.
    fn steal(&self, pool: &PmemPool, me: usize, class: usize) -> Option<u64> {
        let n = self.shards.len();
        if n <= 1 {
            return None;
        }
        let grab = |victim: usize| -> Option<u64> {
            let (entry, extras) = self.shards[victim].steal_half(class)?;
            let moved = extras.len() as u64;
            if !extras.is_empty() {
                self.shards[me].push(class, extras);
            }
            self.shards[me].steals.fetch_add(1, Ordering::Relaxed); // ordering: stat
            mvkv_obs::counter_inc!("mvkv_pmem_alloc_steals_total");
            mvkv_obs::counter_add!("mvkv_pmem_alloc_steal_blocks_total", moved + 1);
            Some(self.take_entry(pool, class, entry))
        };
        // Randomized probes (skipped under loom: schedules must not depend
        // on a thread-local RNG).
        #[cfg(not(loom))]
        for _ in 0..STEAL_PROBES.min(n - 1) {
            let victim = (me + 1 + probe_rand() as usize % (n - 1)) % n;
            if let Some(off) = grab(victim) {
                return Some(off);
            }
        }
        // Guided sweep: one relaxed load per sibling, a lock only where the
        // hint says blocks may exist.
        for delta in 1..n {
            let victim = (me + delta) % n;
            if let Some(off) = grab(victim) {
                return Some(off);
            }
        }
        None
    }

    /// Carves one run of same-class blocks with one cursor CAS: block 0 is
    /// returned allocated, the rest are parked in shard `me` with durable
    /// clear bits. The header persist plus the cursor persist share a single
    /// fence. The batch starts at [`REFILL_BATCH`] and doubles (to at most
    /// [`MAX_RUN_BLOCKS`]) while the shard refills back-to-back with no
    /// free-list hit — sustained fresh-key insert storms amortize the cursor
    /// CAS and the fence over more blocks exactly when they need to.
    fn refill_and_alloc(
        &self,
        pool: &PmemPool,
        me: usize,
        class: usize,
        requested: usize,
    ) -> Result<u64> {
        let shard = &self.shards[me];
        // Adaptive batch: a refill is "tight" when at most one batch worth
        // of list serves separated it from the previous one — nothing but
        // the previous batch's own extras fed the list, so demand is a
        // sustained fresh-allocation storm and the batch should grow.
        // Recycle-heavy phases (frees/steals padding the gap) reset to the
        // base batch. All counters advisory/Relaxed: a mis-sized batch is a
        // performance wobble, never a correctness issue.
        // ordering: stat-derived adaptive input, see above.
        let serves = shard.hits.load(Ordering::Relaxed) + shard.steals.load(Ordering::Relaxed);
        let last_serves = shard.serves_at_last_refill.swap(serves, Ordering::Relaxed); // ordering: advisory adaptive input
        let last_batch = shard.last_batch.load(Ordering::Relaxed); // ordering: advisory adaptive input
        let streak = if serves.wrapping_sub(last_serves) <= last_batch {
            shard.refill_streak.fetch_add(1, Ordering::Relaxed) + 1 // ordering: advisory adaptive input
        } else {
            shard.refill_streak.store(0, Ordering::Relaxed); // ordering: advisory adaptive input
            0
        };
        let boost = (streak / REFILL_STREAK_WINDOW).min(3); // 8 → 16 → 32 → 64
        let full_batch = (REFILL_BATCH << boost).min(MAX_RUN_BLOCKS);
        let cursor = pool.atomic_u64(OFF_BUMP);
        loop {
            let current = cursor.load(Ordering::Acquire);
            let limit = pool.len() as u64;
            // Largest batch (halving from full_batch) that still fits.
            let mut batch = full_batch;
            while batch > 1 && current.checked_add(run_size(class, batch)).is_none_or(|e| e > limit)
            {
                batch /= 2;
            }
            let size = run_size(class, batch);
            if current >= RUN_LIMIT || current.checked_add(size).is_none_or(|end| end > limit) {
                return Err(PmemError::OutOfMemory { requested });
            }
            let (run, end) = (current, current + size);
            if cursor.compare_exchange_weak(run, end, Ordering::AcqRel, Ordering::Acquire).is_err()
            {
                continue;
            }
            // The run header — size, state (class and batch under the CRC),
            // occupancy words with block 0's bit set — then persist it and
            // the cursor before handing out a block (see module docs for the
            // crash argument).
            pool.write_u64(run, size);
            pool.write_u64(run + 8, encode_state(size, BlockState::Run { class, blocks: batch }));
            for index in 0..batch.div_ceil(32) {
                let word = encode_occupancy(run, index, (index == 0).into());
                pool.write_u64(run + OCCUPANCY + 8 * index, word);
            }
            pool.persist(run, RUN_HEADER as usize);
            pool.persist(OFF_BUMP, 8);
            // This fence is load-bearing and stays (unlike the bit-flip
            // fences, see module docs): the blocks parked below are handed
            // to *other* threads through the steal path, so their clear bits
            // must be durable before any thief can link one into a durable
            // structure — the thief's own fence does not order this thread's
            // flushes.
            // fence: amortized(shard refill: once per `batch` allocations)
            pool.fence();
            // Before any block of the run is handed out, a free of which
            // looks the run up here. `run < RUN_LIMIT`: the unit fits.
            let unit = (run / BLOCK_ALIGN) as u32;
            let mut runs = self.runs.lock();
            let at = runs.partition_point(|&r| r < unit);
            runs.insert(at, unit);
            drop(runs);
            // Highest bit first: the next same-thread allocs go up the run.
            shard.push(class, (1..batch).rev().map(|bit| free_entry(run, bit)));
            shard.last_batch.store(batch, Ordering::Relaxed); // ordering: adaptive input
            shard.refills.fetch_add(1, Ordering::Relaxed); // ordering: stat
            mvkv_obs::counter_inc!("mvkv_pmem_alloc_refills_total");
            self.live_blocks.fetch_add(1, Ordering::Relaxed); // ordering: gauge, not a publication
            return Ok(run_block(run, class, 0));
        }
    }

    fn bump_new_block(&self, pool: &PmemPool, payload: u64, requested: usize) -> Result<u64> {
        let block = BLOCK_HEADER + payload;
        let cursor = pool.atomic_u64(OFF_BUMP);
        loop {
            let current = cursor.load(Ordering::Acquire);
            let end = current.checked_add(block).ok_or(PmemError::OutOfMemory { requested })?;
            if end > pool.len() as u64 {
                return Err(PmemError::OutOfMemory { requested });
            }
            if cursor
                .compare_exchange_weak(current, end, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // Header first, then persist header + cursor before handing out
            // the payload (see module docs for the crash argument).
            pool.write_u64(current, block);
            pool.write_u64(current + 8, encode_state(block, BlockState::Allocated));
            pool.persist(current, BLOCK_HEADER as usize);
            pool.persist(OFF_BUMP, 8);
            pool.fence();
            self.large_allocs.fetch_add(1, Ordering::Relaxed); // ordering: stat
            mvkv_obs::counter_inc!("mvkv_pmem_alloc_large_total");
            self.live_blocks.fetch_add(1, Ordering::Relaxed); // ordering: gauge, not a publication
            return Ok(current + BLOCK_HEADER);
        }
    }

    /// Frees the block whose payload starts at `off`. Class blocks return
    /// to the freeing thread's own shard (good locality for free-then-alloc
    /// patterns); siblings can still reach them through the steal path.
    ///
    /// The clearing flip is flushed but not fenced (MOD audit): the caller
    /// has already unlinked every durable reference, so the worst a crash
    /// can preserve is a stale set bit — a leak-at-most outcome the reopen
    /// walk already tolerates. The next thread to reuse the block orders
    /// both flips behind its own publish fence.
    ///
    /// # Panics
    /// In every build profile, when `off` starts no block of this pool or
    /// its word refuses the flip — the block is already free (a double
    /// free), or the word fails its CRC: none of these reaches a free list,
    /// so no block is ever handed out twice.
    pub fn dealloc(&self, pool: &PmemPool, off: u64) {
        let block = self.block_at(pool, off);
        assert!(block.flip(pool, false), "double free of the block at {off}");
        match block {
            Located::Run { run, bit, class } => {
                self.shards[shard_id()].push(class, [free_entry(run, bit)])
            }
            Located::Large { size, .. } => {
                self.large_free.lock().entry(size).or_default().push(off)
            }
        }
        self.live_blocks.fetch_sub(1, Ordering::Relaxed); // ordering: gauge, not a publication
        self.total_frees.fetch_add(1, Ordering::Relaxed); // ordering: stat
        mvkv_obs::counter_inc!("mvkv_pmem_deallocs_total");
    }

    /// Walks the heap after reopen, rebuilding the run directory,
    /// repopulating free lists and fixing a torn bump cursor (crash between
    /// reserve and header persist). The free blocks of a run go to one
    /// shard, runs round-robin across shards, so every arena restarts warm.
    /// The walk decodes every state and occupancy word, so it also counts
    /// the ones that decode as nothing and the gaps behind damaged headers
    /// ([`Allocator::indeterminate_at_open`]) — what
    /// [`crate::recovery::audit`] would report for the pool as opened,
    /// without a second walk.
    pub fn rebuild_from_heap(&self, pool: &PmemPool) {
        let bump = pool.read_u64(OFF_BUMP).clamp(HEAP_START, pool.len() as u64);
        let mut live = 0u64;
        let mut indeterminate = 0u64;
        let mut next_shard = 0usize;
        let (mut runs, mut free) = (Vec::new(), Vec::new());
        let end = walk_heap(pool, bump, |item| match item {
            HeapItem::Run { run, class, blocks } => {
                runs.push(u32::try_from(run / BLOCK_ALIGN).expect("runs start below RUN_LIMIT"));
                for (bits, mask) in occupancy(pool, run, blocks) {
                    match mask {
                        Some(mask) => free.extend(
                            bits.filter(|bit| mask >> (bit % 32) & 1 == 0)
                                .map(|bit| free_entry(run, bit)),
                        ),
                        // A damaged word: its blocks stay live.
                        None => indeterminate += 1,
                    }
                }
                live += blocks - free.len() as u64;
                if !free.is_empty() {
                    // Highest bit first, as a refill parks them.
                    self.shards[next_shard].push(class, free.drain(..).rev());
                    next_shard = (next_shard + 1) % self.shards.len();
                }
            }
            HeapItem::Block { header, size, state: Some(BlockState::Free) } => {
                self.large_free.lock().entry(size).or_default().push(header + BLOCK_HEADER);
            }
            // Allocated, a header whose state never persisted or failed its
            // CRC, or the blocks behind a damaged header: conservatively
            // treat as live (leak-at-most semantics) — a corrupt block must
            // never reach a free list.
            HeapItem::Block { state: Some(BlockState::Allocated), .. } => live += 1,
            HeapItem::Block { .. } | HeapItem::Gap => {
                live += 1;
                indeterminate += 1;
            }
        });
        runs.shrink_to_fit();
        *self.runs.lock() = runs;
        if end != bump {
            // Torn tail: re-base the cursor at it.
            pool.write_u64(OFF_BUMP, end);
            pool.persist(OFF_BUMP, 8);
            pool.fence();
        }
        // ordering: open-time rebuild; the pool is not shared yet.
        self.live_blocks.store(live, Ordering::Relaxed);
        // ordering: as above.
        self.indeterminate_at_open.store(indeterminate, Ordering::Relaxed);
    }

    /// Blocks the open-time heap walk could classify as neither free nor
    /// allocated (kept live: a leak at most, never data loss).
    pub fn indeterminate_at_open(&self) -> u64 {
        // ordering: written once before the pool is shared; a plain count.
        self.indeterminate_at_open.load(Ordering::Relaxed)
    }

    pub fn stats(&self, pool: &PmemPool) -> AllocStats {
        let bump = pool.read_u64(OFF_BUMP);
        let n = self.shards.len();
        let load = |f: fn(&Shard) -> &AtomicU64| -> Vec<u64> {
            // ordering: stat reads; each element is one atomic load and the
            // totals below are derived from exactly these loads.
            (0..n).map(|i| f(&self.shards[i]).load(Ordering::Relaxed)).collect()
        };
        let shard_hits = load(|s| &s.hits);
        let shard_refills = load(|s| &s.refills);
        let shard_steals = load(|s| &s.steals);
        let large_allocs = self.large_allocs.load(Ordering::Relaxed); // ordering: stat read
        AllocStats {
            heap_used: bump - HEAP_START,
            heap_remaining: pool.len() as u64 - bump,
            live_blocks: self.live_blocks.load(Ordering::Relaxed), // ordering: stat read
            // Derived from the loads above, never from a separate counter:
            // the snapshot is internally consistent by construction (see
            // the struct docs and the stats_snapshot_is_consistent test).
            total_allocs: shard_hits.iter().sum::<u64>()
                + shard_refills.iter().sum::<u64>()
                + shard_steals.iter().sum::<u64>()
                + large_allocs,
            large_allocs,
            total_frees: self.total_frees.load(Ordering::Relaxed), // ordering: stat read
            shard_hits,
            shard_refills,
            shard_steals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::create_volatile(1 << 22).unwrap()
    }

    #[test]
    fn alloc_returns_aligned_disjoint_blocks() {
        let p = pool();
        let mut offs = Vec::new();
        for len in [1usize, 15, 16, 17, 100, 4096, 5000, 100_000] {
            let off = p.alloc(len).unwrap();
            assert_eq!(off % BLOCK_ALIGN, 0, "alignment for {len}");
            assert!(p.block_capacity(off) >= len);
            offs.push((off, p.block_capacity(off)));
        }
        offs.sort_unstable();
        for w in offs.windows(2) {
            assert!(w[0].0 + w[0].1 as u64 <= w[1].0, "blocks overlap");
        }
    }

    #[test]
    fn class_blocks_are_reused_after_free() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.dealloc(a);
        let b = p.alloc(60).unwrap(); // same class (64)
        assert_eq!(a, b, "freed class block should be reused (LIFO within the shard)");
    }

    #[test]
    fn large_blocks_are_reused_best_fit() {
        let p = pool();
        let a = p.alloc(10_000).unwrap();
        p.dealloc(a);
        let b = p.alloc(10_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn large_reuse_rejects_wasteful_fits() {
        let p = pool();
        let a = p.alloc(100_000).unwrap();
        p.dealloc(a);
        // 8 KiB into a 100 KB block would waste >25%: must NOT reuse.
        let b = p.alloc(8_192).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let p = PmemPool::create_volatile(MIN_POOL_LEN).unwrap();
        // Heap is one page; a big request must fail cleanly.
        match p.alloc(1 << 20) {
            Err(PmemError::OutOfMemory { .. }) => {}
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // Small allocations still succeed afterwards (the refill batch
        // shrinks to whatever fits in the remaining tail).
        assert!(p.alloc(16).is_ok());
    }

    #[test]
    fn refill_batch_shrinks_near_heap_end() {
        // Heap tail too small for any multi-block batch of the 4 KiB class
        // but big enough for one block: the refill must shrink to a single
        // block, not report OOM.
        let p = PmemPool::create_volatile(MIN_POOL_LEN + 4096).unwrap();
        let off = p.alloc(4096).unwrap();
        assert!(p.block_capacity(off) >= 4096);
        assert_eq!(p.alloc_stats().shard_refills.iter().sum::<u64>(), 1);
        // A second 4 KiB block no longer fits; OOM must be clean.
        match p.alloc(4096) {
            Err(PmemError::OutOfMemory { .. }) => {}
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn refill_batch_grows_under_sustained_refills() {
        // A sustained fresh-allocation storm (no frees, so each refill is
        // "tight": only its own batch extras fed the list) must engage the
        // adaptive batch growth, amortizing the cursor CAS and the refill
        // fence over more blocks.
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let mut held = Vec::new();
        for _ in 0..2_000 {
            held.push(p.alloc(64).unwrap());
        }
        let grown = p.alloc_stats();
        let served = grown.total_allocs;
        let refills = grown.shard_refills.iter().sum::<u64>();
        // With a fixed batch of 8, `served / refills` can never exceed 8.
        assert!(
            served > refills * REFILL_BATCH,
            "adaptive batch never engaged: {served} allocs over {refills} refills"
        );
        // Recycle-heavy phase: frees pad the gap between refills, so the
        // streak resets and the batch returns to base. Observable as the
        // refill rate climbing back toward 1-per-REFILL_BATCH once the
        // recycled blocks run out.
        for off in held.drain(..) {
            p.dealloc(off);
        }
        for _ in 0..2_000 {
            held.push(p.alloc(64).unwrap());
        }
        let s = p.alloc_stats();
        assert!(
            s.shard_hits.iter().sum::<u64>() >= 2_000,
            "recycled blocks must be served from the free lists: {s:?}"
        );
    }

    #[test]
    fn stats_track_live_blocks() {
        let p = pool();
        let s0 = p.alloc_stats();
        let a = p.alloc(32).unwrap();
        let b = p.alloc(32).unwrap();
        assert_eq!(p.alloc_stats().live_blocks, s0.live_blocks + 2);
        p.dealloc(a);
        p.dealloc(b);
        assert_eq!(p.alloc_stats().live_blocks, s0.live_blocks);
        assert_eq!(p.alloc_stats().total_frees, s0.total_frees + 2);
    }

    #[test]
    fn stats_report_shard_traffic() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let s = p.alloc_stats();
        assert_eq!(s.shard_refills.iter().sum::<u64>(), 1, "first alloc is a refill");
        assert_eq!(s.shard_hits.len(), num_shards(), "one slot per runtime shard");
        p.dealloc(a);
        let _ = p.alloc(64).unwrap();
        let s = p.alloc_stats();
        assert_eq!(s.shard_hits.iter().sum::<u64>(), 1, "reuse hits the own shard");
        assert_eq!(s.shard_steals.iter().sum::<u64>(), 0);
    }

    #[test]
    fn free_lists_survive_reopen_via_heap_scan() {
        let path =
            std::env::temp_dir().join(format!("mvkv-alloc-scan-{}.pool", std::process::id()));
        let (freed, kept);
        {
            let p = PmemPool::create_file(&path, 1 << 20).unwrap();
            kept = p.alloc(64).unwrap();
            freed = p.alloc(64).unwrap();
            p.dealloc(freed);
            p.sync_all();
        }
        {
            let p = PmemPool::open_file(&path).unwrap();
            // Every free block (the explicitly freed one plus the batch
            // extras) must be findable again; the kept one must not. The
            // scan redistributes across shards, and the steal path makes
            // all of them reachable from this thread.
            let mut seen = Vec::new();
            loop {
                match p.alloc(64) {
                    Ok(off) => {
                        assert_ne!(off, kept, "live block handed out twice");
                        if off == freed {
                            break;
                        }
                        seen.push(off);
                    }
                    Err(e) => panic!("freed block never resurfaced ({e}); got {seen:?}"),
                }
                assert!(seen.len() < 64, "freed block never resurfaced; got {seen:?}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_allocations_do_not_overlap() {
        let p = std::sync::Arc::new(pool());
        let mut handles = Vec::new();
        for t in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let mut offs = Vec::new();
                for i in 0..200 {
                    let len = 16 + ((t * 37 + i * 13) % 300);
                    let off = p.alloc(len).unwrap();
                    offs.push((off, p.block_capacity(off)));
                }
                offs
            }));
        }
        let mut all: Vec<(u64, usize)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 as u64 <= w[1].0, "concurrent blocks overlap");
        }
    }

    /// `extract_edge`-style sweep around the historical shard-count cliff:
    /// thread counts straddling the old fixed arena count (8) — and the
    /// current dynamic count — must all produce disjoint live blocks and
    /// balanced stats, including when threads outnumber shards and the id
    /// recycler reuses slots mid-test.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn edge_thread_counts_stay_disjoint_and_balanced() {
        for threads in [1usize, 7, 8, 9, 17] {
            let p = std::sync::Arc::new(PmemPool::create_volatile(1 << 24).unwrap());
            let mut handles = Vec::new();
            for t in 0..threads as u64 {
                let p = p.clone();
                handles.push(std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..300u64 {
                        let len = 16 << ((t + i) % 4);
                        let off = p.alloc(len as usize).unwrap();
                        p.write_u64(off, (t << 32) | i);
                        held.push((off, (t << 32) | i));
                        if i % 4 == 3 {
                            let (victim, _) = held.swap_remove((i as usize) % held.len());
                            p.dealloc(victim);
                        }
                    }
                    held
                }));
            }
            let mut live: Vec<(u64, u64)> = Vec::new();
            for h in handles {
                live.extend(h.join().unwrap());
            }
            for &(off, stamp) in &live {
                assert_eq!(p.read_u64(off), stamp, "block handed to two threads ({threads}t)");
            }
            live.sort_unstable();
            live.dedup();
            let stats = p.alloc_stats();
            assert_eq!(
                stats.live_blocks as usize,
                live.len(),
                "stats disagree with live set at {threads} threads"
            );
            let served = stats.shard_hits.iter().sum::<u64>()
                + stats.shard_steals.iter().sum::<u64>()
                + stats.shard_refills.iter().sum::<u64>();
            assert_eq!(served, stats.total_allocs, "unbalanced stats at {threads} threads");
        }
    }

    /// Satellite regression: shard ids must be recycled through the
    /// free-list, so a process churning short-lived threads keeps its id
    /// range (and thus its shard skew) bounded by the *concurrent* thread
    /// count, not the lifetime spawn count.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn shard_ids_recycle_across_100_thread_lifetimes() {
        let p = std::sync::Arc::new(pool());
        let mut ids = std::collections::BTreeSet::new();
        for i in 0..100u64 {
            let p = p.clone();
            let id = std::thread::spawn(move || {
                // Touch the allocator so the slot is actually claimed.
                let off = p.alloc(64).unwrap();
                p.dealloc(off);
                super::shard_slot::id()
            })
            .join()
            .unwrap();
            ids.insert(id);
            // Sequential spawn/join: at most a handful of ids may ever be
            // live at once (this thread + the worker + runtime helpers).
            assert!(
                ids.len() <= 4,
                "iteration {i}: ids not recycled, saw {ids:?} — skew unbounded"
            );
        }
        // And the skew itself: 100 workers over ≤4 distinct ids means no
        // shard absorbed more than 4 ids' worth of traffic.
        let max_shard_ids = ids
            .iter()
            .fold(std::collections::BTreeMap::<usize, usize>::new(), |mut m, &id| {
                *m.entry(id % num_shards()).or_default() += 1;
                m
            })
            .into_values()
            .max()
            .unwrap_or(0);
        assert!(max_shard_ids <= 4, "shard skew unbounded: {max_shard_ids}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn alloc_free_churn_across_threads_stays_disjoint() {
        // Threads continuously allocate and free, forcing shard refills,
        // hits and cross-shard steals to interleave. At any moment the
        // *live* set must be disjoint; at the end stats must balance.
        let p = std::sync::Arc::new(PmemPool::create_volatile(1 << 24).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let mut held: Vec<u64> = Vec::new();
                let mut kept: Vec<u64> = Vec::new();
                for i in 0..600u64 {
                    let len = 16 << ((t + i) % 4); // classes 16..128
                    let off = p.alloc(len as usize).unwrap();
                    // Stamp the payload; verified before free to catch
                    // double-handed-out blocks.
                    p.write_u64(off, t * 1_000_000 + i);
                    held.push(off);
                    if i % 3 == 0 {
                        let victim = held.swap_remove((i as usize * 7) % held.len());
                        p.dealloc(victim);
                    }
                }
                for &off in &held {
                    kept.push(p.read_u64(off));
                }
                (held, kept)
            }));
        }
        let mut live: Vec<u64> = Vec::new();
        for h in handles {
            let (held, stamps) = h.join().unwrap();
            for (off, stamp) in held.iter().zip(&stamps) {
                // Stamps survive: no other thread received this block.
                let t = stamp / 1_000_000;
                assert!(t < 8, "stamp corrupted at {off}: {stamp}");
            }
            live.extend(held);
        }
        live.sort_unstable();
        live.dedup();
        let stats = p.alloc_stats();
        assert_eq!(stats.live_blocks as usize, live.len(), "stats disagree with live set");
        let served = stats.shard_hits.iter().sum::<u64>()
            + stats.shard_steals.iter().sum::<u64>()
            + stats.shard_refills.iter().sum::<u64>();
        assert_eq!(served, stats.total_allocs, "every class alloc is a hit, steal or refill");
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn exhausted_shard_steals_from_siblings() {
        // One thread frees into its shard, another (pinned to a different
        // shard by the slot assignment) must find those blocks via the
        // steal path rather than bumping fresh heap.
        let p = std::sync::Arc::new(pool());
        let freed: Vec<u64> = {
            let p = p.clone();
            std::thread::spawn(move || {
                let offs: Vec<u64> = (0..REFILL_BATCH).map(|_| p.alloc(64).unwrap()).collect();
                for &o in &offs {
                    p.dealloc(o);
                }
                offs
            })
            .join()
            .unwrap()
        };
        let heap_before = p.alloc_stats().heap_used;
        // Drain every freed block from fresh threads (distinct shards).
        let mut recovered = Vec::new();
        for _ in 0..freed.len() {
            let p = p.clone();
            recovered.push(std::thread::spawn(move || p.alloc(64).unwrap()).join().unwrap());
        }
        recovered.sort_unstable();
        let mut expected = freed.clone();
        expected.sort_unstable();
        assert_eq!(recovered, expected, "steal path must drain sibling shards before bumping");
        assert_eq!(p.alloc_stats().heap_used, heap_before, "no fresh heap should be consumed");
        let s = p.alloc_stats();
        assert!(
            s.shard_steals.iter().sum::<u64>() + s.shard_hits.iter().sum::<u64>()
                >= freed.len() as u64,
            "recoveries must be hits or steals: {s:?}"
        );
    }

    /// Regression test for the read-during-update stats race (and, since
    /// the shard count went dynamic, for tearing between the per-shard
    /// vectors and the derived total): 16 allocating threads churn while
    /// this thread snapshots continuously; every snapshot must satisfy the
    /// served == total identity, totals must be monotone, and the vector
    /// lengths must match the runtime shard count.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn stats_snapshot_is_consistent_during_concurrent_churn() {
        let p = std::sync::Arc::new(PmemPool::create_volatile(1 << 26).unwrap());
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..16u64 {
                let p = p.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..20_000u64 {
                        if stop.load(Ordering::Relaxed) != 0 {
                            break;
                        }
                        // Class allocs plus the occasional large one.
                        let len = if i % 97 == 0 { 8192 } else { 16 << ((t + i) % 4) };
                        held.push(p.alloc(len as usize).unwrap());
                        if held.len() > 8 {
                            let victim = held.swap_remove((i as usize * 7) % held.len());
                            p.dealloc(victim);
                        }
                    }
                    for off in held {
                        p.dealloc(off);
                    }
                });
            }
            let mut last_total = 0u64;
            for _ in 0..2_000 {
                let s = p.alloc_stats();
                assert_eq!(s.shard_hits.len(), num_shards());
                assert_eq!(s.shard_refills.len(), num_shards());
                assert_eq!(s.shard_steals.len(), num_shards());
                let served = s.shard_hits.iter().sum::<u64>()
                    + s.shard_steals.iter().sum::<u64>()
                    + s.shard_refills.iter().sum::<u64>()
                    + s.large_allocs;
                assert_eq!(served, s.total_allocs, "snapshot saw a torn total: {s:?}");
                assert!(s.total_allocs >= last_total, "total went backwards: {s:?}");
                last_total = s.total_allocs;
            }
            stop.store(1, Ordering::Relaxed);
        });
    }

    #[test]
    fn torn_bump_cursor_is_repaired_on_open() {
        let p = pool();
        let _ = p.alloc(64).unwrap();
        // Simulate a crash that persisted a cursor advance but no header:
        // bump points past valid blocks into zeroed space.
        let bump = p.read_u64(OFF_BUMP);
        p.write_u64(OFF_BUMP, bump + 4096);
        // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
        let image = unsafe { p.bytes(0, p.len()).to_vec() };
        let reopened = PmemPool::open_image(&image).unwrap();
        assert_eq!(reopened.read_u64(OFF_BUMP), bump, "cursor re-based at torn tail");
        // And allocation continues to work.
        assert!(reopened.alloc(64).is_ok());
    }

    #[test]
    fn the_blocks_of_a_run_are_spaced_exactly_their_class_apart() {
        for (class, &bytes) in SIZE_CLASSES.iter().enumerate() {
            let p = pool();
            let offs: Vec<u64> = (0..REFILL_BATCH).map(|_| p.alloc(bytes).unwrap()).collect();
            assert_eq!(offs[0], HEAP_START + RUN_HEADER, "class {bytes}: behind one run header");
            for (bit, &off) in offs.iter().enumerate() {
                assert_eq!(off, run_block(HEAP_START, class, bit as u64));
                assert_eq!(p.block_capacity(off), bytes, "no header, no padding");
                assert_eq!(p.state_word(off), HEAP_START + OCCUPANCY);
            }
            let run = run_size(class, REFILL_BATCH);
            assert_eq!(p.alloc_stats().heap_used, run, "one run, one refill");
            assert_eq!(p.alloc_stats().shard_refills.iter().sum::<u64>(), 1);
        }
    }

    /// A free the occupancy words refuse panics in every build profile and
    /// reaches no free list — in a release build too, where a
    /// `debug_assert` would let one block be freed twice and handed to two
    /// later allocations.
    #[test]
    fn a_double_free_never_hands_a_block_out_twice() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let big = p.alloc(10_000).unwrap();
        p.dealloc(a);
        p.dealloc(big);
        let len = p.len() as u64;
        for off in [a, big, a + 16, big + 16, HEAP_START, HEAP_START + BLOCK_HEADER, len - 16, 8] {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.dealloc(off)));
            let message = refused.expect_err("the free was accepted");
            let message = message.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains(&off.to_string()), "{off}: {message}");
        }
        let blocks = [p.alloc(64).unwrap(), p.alloc(64).unwrap(), p.alloc(10_000).unwrap()];
        assert_ne!(blocks[0], blocks[1], "the block freed twice was handed out twice");
        assert_eq!(p.alloc_stats().total_frees, 2);
        assert_eq!(crate::recovery::audit(&p).allocated_blocks, 3);
    }

    /// ROADMAP 2(e), "the heap walk": a media fault on one header in
    /// mid-heap used to read as a torn tail, and the re-based cursor handed
    /// out every live block behind it a second time. A damaged run header is
    /// one gap, a damaged state or occupancy word keeps what it covers live.
    #[test]
    fn damaged_mid_heap_header_does_not_rebase_the_cursor() {
        let p = PmemPool::create_volatile(1 << 22).unwrap();
        let sizes = [24usize, 64, 96, 200, 5000, 1024];
        let fill = |pool: &PmemPool, off: u64, byte: u8| {
            for word in (0..pool.block_capacity(off) as u64).step_by(8) {
                pool.write_u64(off + word, u64::from_ne_bytes([byte; 8]));
            }
        };
        let mut live = Vec::new();
        for i in 0..300usize {
            let off = p.alloc(sizes[i % sizes.len()]).unwrap();
            fill(&p, off, i as u8);
            if i % 7 == 3 {
                p.dealloc(off);
            } else {
                live.push((off, i as u8));
            }
        }
        let bump = p.read_u64(OFF_BUMP);
        // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
        let clean = unsafe { p.bytes(0, p.len()).to_vec() };
        for seed in 0..18usize {
            let (victim, _) = live[live.len() / 4 + seed * 7];
            // The heap block the victim lies in: its run, or its own header.
            let header = match p.allocator.locate(&p, victim) {
                Some(Located::Run { run, .. }) => run,
                _ => victim - BLOCK_HEADER,
            } as usize;
            let mut image = clean.clone();
            match seed % 6 {
                0 => image[header..header + 16].fill(0), // a zeroed size and state
                1 => image[header] ^= 1 << 2,            // no longer a multiple of the alignment
                2 => image[header..header + 8].copy_from_slice(&(u64::MAX - 15).to_le_bytes()),
                3 => image[header] ^= 1 << 4, // a plausible size: the walk lands in a payload
                4 => image[header + 8] ^= 1 << 3, // the state word: tag, class and count
                _ => image[p.state_word(victim) as usize + 4] ^= 1 << 1, // the occupancy word
            }
            let reopened = PmemPool::open_image(&image).unwrap();
            assert_eq!(reopened.read_u64(OFF_BUMP), bump, "seed {seed}: the cursor is kept");
            let found = reopened.indeterminate_blocks_at_open();
            assert!((1..=2).contains(&found), "seed {seed}: {found} indeterminate");
            let audit = crate::recovery::audit(&reopened);
            let walked = (audit.torn_tail_bytes, audit.indeterminate_blocks);
            assert_eq!(walked, (0, found), "seed {seed}: the audit walks as the open did");
            for i in 0..10_000usize {
                let off = reopened.alloc([16, 64, 96][i % 3]).unwrap();
                fill(&reopened, off, 0xFF);
            }
            for &(off, byte) in &live {
                let len = p.block_capacity(off);
                // SAFETY: a block of the clean image, in bounds in its copy.
                let payload = unsafe { reopened.bytes(off, len) };
                assert!(payload.iter().all(|&b| b == byte), "seed {seed}: block {off} overwritten");
            }
        }
    }

    #[test]
    fn rebuild_redistributes_free_blocks_across_shards() {
        let p = pool();
        let offs: Vec<u64> = (0..16).map(|_| p.alloc(64).unwrap()).collect();
        for &o in &offs {
            p.dealloc(o);
        }
        // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
        let image = unsafe { p.bytes(0, p.len()).to_vec() };
        let reopened = PmemPool::open_image(&image).unwrap();
        // All 16 blocks were freed before the snapshot; after the rebuild
        // every one must be reachable again without consuming fresh heap.
        let heap_before = reopened.alloc_stats().heap_used;
        let mut recovered: Vec<u64> = (0..16).map(|_| reopened.alloc(64).unwrap()).collect();
        recovered.sort_unstable();
        let mut expected = offs.clone();
        expected.sort_unstable();
        assert_eq!(recovered, expected);
        assert_eq!(reopened.alloc_stats().heap_used, heap_before);
    }
}
