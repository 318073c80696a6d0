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
//!   occupancy words, whose bit `i` says block `i` is allocated. A class
//!   that is a multiple of the cache line starts its first block on a line
//!   ([`run_pad`], at most 48 bytes a run), so none of its blocks shares a
//!   line with another. A free-list
//!   entry names its run and bit, so allocating never searches; freeing and
//!   sizing find a block's run in a DRAM directory of run offsets (one
//!   sorted `u32` per run, in 16-byte units, filled by the open walk and by
//!   every refill). Free lists are volatile, rebuilt by the walk on open.
//! * A free class block has one of two homes. Each thread allocates from
//!   one of [`num_shards`] arenas sized from the machine's core count — its
//!   `mvkv_sync::shard::slot()`, the workspace's one thread-to-shard
//!   mapping, folded onto the arenas — whose per-class lists hold the
//!   blocks of runs the arena carved and has not handed out yet. Every other
//!   free class block — freed by [`Allocator::dealloc`], or found clear by
//!   the open-time walk — is on one **shared** per-class list. An
//!   allocation takes from the shared list first (an empty one costs one
//!   load of its emptiness mask), then from its own arena, and only then
//!   carves a run from the global bump cursor: `n` blocks per cursor CAS
//!   ([`REFILL_BATCH`], doubling every fourth refill of the arena up to
//!   [`MAX_RUN_BLOCKS`]), the extras parked in its own arena. This
//!   amortizes the cursor contention, the header persist and the fence
//!   across the run (cf. per-thread PM arenas in Marathe et al.,
//!   *Persistent Memory Transactions*).
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
//! invalid header with no decodable block behind it (`walk_heap`). The
//! refill **fences** before parking the run's other blocks: they reach the
//! other threads that share the arena or inherit its slot, so their clear
//! bits cannot ride a later fence of the allocating thread alone.
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

/// Class blocks in each of an arena's first three runs. The batch shrinks
/// (8 → 4 → 2 → 1) when the heap tail is too small for a full run, and
/// doubles every fourth refill of the arena, up to [`MAX_RUN_BLOCKS`].
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
                Located::Large { header, size } => {
                    let state = |on| if on { BlockState::Allocated } else { BlockState::Free };
                    if decode_state(header, size, current) != Some(state(!allocated)) {
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

/// Number of allocation arenas: the machine's available parallelism,
/// rounded up to a power of two and clamped to `[4, 64]` (64 matches the
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
/// the interesting races (more threads than shards, a refill beside a
/// shared-list pop) stay inside loom's schedule budget.
#[cfg(loom)]
pub fn num_shards() -> usize {
    2
}

/// This thread's arena: its `mvkv_sync::shard` slot folded onto
/// [`num_shards`] arenas (a power of two, so the modulo is a mask). Slots
/// are dense across live threads and handed on when a thread exits, so the
/// workers of each phase spread over the arenas however many phases came
/// before.
fn shard_id() -> usize {
    mvkv_sync::shard::slot() % num_shards()
}

/// Free-list entries ([`free_entry`]) per class.
type Lists = [Mutex<Vec<u64>>; NUM_CLASSES];

/// Payload bytes of the blocks on `lists`.
fn held_bytes(lists: &Lists) -> u64 {
    let held = lists.iter().zip(SIZE_CLASSES);
    held.map(|(list, bytes)| list.lock().len() as u64 * bytes as u64).sum()
}

/// One allocation arena: the blocks of its runs not handed out yet, plus
/// traffic counters.
///
/// Aligned to two cache lines so one shard's counters never false-share
/// with a neighbor's — the hit counter is bumped on every fast-path alloc,
/// and with the shards packed in one array an unpadded layout puts eight
/// shards' counters on a handful of lines.
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    /// Per class, the blocks of runs this arena carved that were never
    /// handed out.
    carved: Lists,
    hits: AtomicU64,
    refills: AtomicU64,
    /// Allocations this arena's threads took from the shared list.
    steals: AtomicU64,
}

/// The shared home of every other free class block. On lines of its own:
/// every class allocation reads `stocked`, and no refill writes here.
#[repr(align(128))]
#[derive(Default)]
struct Shared {
    /// Bit `c` set ⇔ `lists[c]` may be non-empty; written under that lock.
    stocked: AtomicU64,
    lists: Lists,
}

impl Shared {
    fn pop(&self, class: usize) -> Option<u64> {
        // ordering: advisory emptiness hint; the lock orders list contents.
        if self.stocked.load(Ordering::Relaxed) & (1 << class) == 0 {
            return None;
        }
        let mut list = self.lists[class].lock();
        let entry = list.pop();
        if list.is_empty() {
            // ordering: cleared under the lock that emptied the list, so a
            // clear bit never hides a block pushed before it.
            self.stocked.fetch_and(!(1 << class), Ordering::Relaxed);
        }
        entry
    }

    fn push(&self, class: usize, entries: impl IntoIterator<Item = u64>) {
        let mut list = self.lists[class].lock();
        list.extend(entries);
        if !list.is_empty() {
            // ordering: advisory hint; set under the list lock.
            self.stocked.fetch_or(1 << class, Ordering::Relaxed);
        }
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
            visit(match decode_state(at, size, pool.read_u64(at + 8)) {
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
        let decodes = block_size(pool, candidate, bump).is_some_and(|size| {
            decode_state(candidate, size, pool.read_u64(candidate + 8)).is_some()
        });
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

/// DRAM allocator state attached to a pool.
///
/// There is deliberately **no** independent `total_allocs` counter:
/// [`Allocator::stats`] derives it as `hits + steals + refills +
/// large_allocs`, so a snapshot can never observe "more allocations served
/// than performed" no matter how it interleaves with concurrent updates
/// (the read-during-update race the old two-counter scheme had). Nor is
/// there a live-block counter: `live_blocks` is the live count at open plus
/// `total_allocs` minus `total_frees`, so an allocation from a shard's own
/// list writes no allocator-wide line.
pub struct Allocator {
    /// One arena per `num_shards()` — sized at construction, never resized,
    /// so per-shard counter reads in [`Allocator::stats`] are plain atomic
    /// loads with no bounds hazard when the count differs across builds.
    shards: Box<[Shard]>,
    /// Freed class blocks and the ones the open walk found clear.
    shared: Shared,
    /// Every run's header offset in 16-byte units, sorted: how a free finds
    /// its block's run.
    runs: Mutex<Vec<u32>>,
    /// Freed large blocks: total block size → payload offsets.
    large_free: Mutex<BTreeMap<u64, Vec<u64>>>,
    /// Blocks the open-time heap walk found allocated (0 for a new pool).
    live_at_open: AtomicU64,
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
    /// Blocks currently allocated: those live at open, plus `total_allocs`,
    /// minus `total_frees`.
    pub live_blocks: u64,
    /// Lifetime allocation count (this process). Derived at snapshot time
    /// from the per-path counters, so it always equals `shard_hits +
    /// shard_steals + shard_refills + large_allocs` of the same snapshot.
    pub total_allocs: u64,
    /// Lifetime large-path allocation count (this process).
    pub large_allocs: u64,
    /// Lifetime free count (this process).
    pub total_frees: u64,
    /// Per-shard allocations served from runs the shard carved.
    pub shard_hits: Vec<u64>,
    /// Per-shard batched refills from the bump cursor.
    pub shard_refills: Vec<u64>,
    /// Per-shard allocations served from the shared list of freed blocks.
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
            shards: (0..num_shards()).map(|_| Shard::default()).collect(),
            shared: Shared::default(),
            runs: Mutex::new(Vec::new()),
            large_free: Mutex::new(BTreeMap::new()),
            live_at_open: AtomicU64::new(0),
            large_allocs: AtomicU64::new(0),
            total_frees: AtomicU64::new(0),
            indeterminate_at_open: AtomicU64::new(0),
        }
    }

    /// Allocates `len` payload bytes; returns the payload offset.
    pub fn alloc(&self, pool: &PmemPool, len: usize) -> Result<u64> {
        let len = len.max(1);
        if let Some(class) = class_for(len) {
            // Ordering note: hits/steals/refills below are monitoring stats;
            // each alloc bumps exactly one of them, with `Release`, and
            // `stats()` derives total_allocs from them (see there).
            let shard = &self.shards[shard_id()];
            // 1. A free block, whichever thread freed it: never carve while
            //    one is free.
            if let Some(entry) = self.shared.pop(class) {
                shard.steals.fetch_add(1, Ordering::Release);
                return Ok(self.take_entry(pool, class, entry));
            }
            // 2. The arena's own runs — the contention-free fast path. The
            //    guard drops here: `take_entry` persists.
            let carved = shard.carved[class].lock().pop();
            if let Some(entry) = carved {
                shard.hits.fetch_add(1, Ordering::Release);
                return Ok(self.take_entry(pool, class, entry));
            }
            // 3. Batched refill from the global cursor.
            return self.refill_and_alloc(pool, shard, class, len);
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
                self.large_allocs.fetch_add(1, Ordering::Release);
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
                let state = decode_state(run, size, pool.read_u64(run + 8));
                let Some(BlockState::Run { class, blocks }) = state else { return None };
                let at = off.checked_sub(run_block(run, class, 0))?;
                let stride = SIZE_CLASSES[class] as u64;
                let block = Located::Run { run, bit: at / stride, class };
                return (at % stride == 0 && at / stride < blocks).then_some(block);
            }
        }
        let header = off - BLOCK_HEADER;
        let size = block_size(pool, header, bump)?;
        let state = decode_state(header, size, pool.read_u64(header + 8))?;
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

    /// Carves one run of same-class blocks with one cursor CAS: block 0 is
    /// returned allocated, the rest are parked in `shard` with durable clear
    /// bits. The header persist plus the cursor persist share a single
    /// fence. The batch is [`REFILL_BATCH`] for the shard's first three
    /// refills and doubles every fourth one after (8, 8, 8, 16 ×4, 32 ×4,
    /// then [`MAX_RUN_BLOCKS`]): a refill happens only when neither the
    /// shared list nor the shard holds a block of the class, so a shard
    /// that keeps refilling is in a fresh-allocation storm, and its cursor
    /// CAS and fence amortize over more blocks.
    fn refill_and_alloc(
        &self,
        pool: &PmemPool,
        shard: &Shard,
        class: usize,
        requested: usize,
    ) -> Result<u64> {
        // ordering: a size hint; two threads sharing the arena may size two
        // runs alike, and a mis-sized run costs a fence, never correctness.
        let boost = ((shard.refills.load(Ordering::Relaxed) + 1) / 4).min(3);
        let full_batch = (REFILL_BATCH << boost).min(MAX_RUN_BLOCKS);
        let cursor = pool.atomic_u64(OFF_BUMP);
        loop {
            let current = cursor.load(Ordering::Acquire);
            let limit = pool.len() as u64;
            // Largest batch (halving from full_batch) that still fits.
            let mut batch = full_batch;
            while batch > 1
                && current.checked_add(run_size(current, class, batch)).is_none_or(|e| e > limit)
            {
                batch /= 2;
            }
            let size = run_size(current, class, batch);
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
            // fences, see module docs): the blocks parked below reach
            // *other* threads — any that share this arena or inherit its
            // slot — so their clear bits must be durable before such a
            // thread links one into a durable structure; its own fence does
            // not order this thread's flushes.
            // Amortized: one refill, and this fence, per `batch` allocations.
            pool.fence();
            // Before any block of the run is handed out, a free of which
            // looks the run up here. `run < RUN_LIMIT`: the unit fits.
            let unit = (run / BLOCK_ALIGN) as u32;
            let mut runs = self.runs.lock();
            let at = runs.partition_point(|&r| r < unit);
            runs.insert(at, unit);
            drop(runs);
            // Highest bit first: the next same-thread allocs go up the run.
            shard.carved[class].lock().extend((1..batch).rev().map(|bit| free_entry(run, bit)));
            shard.refills.fetch_add(1, Ordering::Release);
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
            self.large_allocs.fetch_add(1, Ordering::Release);
            return Ok(current + BLOCK_HEADER);
        }
    }

    /// Frees the block whose payload starts at `off`. A class block goes to
    /// the shared list, where the next allocation of its class takes it,
    /// on whichever thread.
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
            Located::Run { run, bit, class } => self.shared.push(class, [free_entry(run, bit)]),
            Located::Large { size, .. } => {
                self.large_free.lock().entry(size).or_default().push(off)
            }
        }
        self.total_frees.fetch_add(1, Ordering::Release);
    }

    /// Walks the heap after reopen, rebuilding the run directory, putting
    /// every free class block on the shared list and fixing a torn bump
    /// cursor (crash between reserve and header persist). A cursor word
    /// outside the heap is unknown: the walk goes to the pool's end and the
    /// cursor is re-based where it stops.
    /// The walk decodes every state and occupancy word, so it also counts
    /// the ones that decode as nothing and the gaps behind damaged headers
    /// ([`Allocator::indeterminate_at_open`]) — what
    /// [`crate::recovery::audit`] would report for the pool as opened,
    /// without a second walk.
    pub fn rebuild_from_heap(&self, pool: &PmemPool) {
        let (stored, len) = (pool.read_u64(OFF_BUMP), pool.len() as u64);
        let bump = if (HEAP_START..=len).contains(&stored) { stored } else { len };
        let (mut live, mut indeterminate) = (0u64, 0u64);
        let mut runs = Vec::new();
        let mut free: [Vec<u64>; NUM_CLASSES] = Default::default();
        let end = walk_heap(pool, bump, |item| match item {
            HeapItem::Run { run, class, blocks } => {
                runs.push(u32::try_from(run / BLOCK_ALIGN).expect("runs start below RUN_LIMIT"));
                live += blocks;
                for (bits, mask) in occupancy(pool, run, blocks) {
                    let Some(mask) = mask else {
                        // A damaged word: its blocks stay live.
                        indeterminate += 1;
                        continue;
                    };
                    for bit in bits.filter(|bit| mask >> (bit % 32) & 1 == 0) {
                        free[class].push(free_entry(run, bit));
                        live -= 1;
                    }
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
        for (class, entries) in free.into_iter().enumerate() {
            // Highest offset first: the next allocations go up the heap.
            self.shared.push(class, entries.into_iter().rev());
        }
        if end != stored {
            // Torn tail, or a word outside the heap: re-base the cursor.
            pool.write_u64(OFF_BUMP, end);
            pool.persist(OFF_BUMP, 8);
            pool.fence();
        }
        // ordering: open-time rebuild; the pool is not shared yet.
        self.live_at_open.store(live, Ordering::Relaxed);
        // ordering: as above.
        self.indeterminate_at_open.store(indeterminate, Ordering::Relaxed);
    }

    /// Blocks the open-time heap walk could classify as neither free nor
    /// allocated (kept live: a leak at most, never data loss).
    pub fn indeterminate_at_open(&self) -> u64 {
        // ordering: written once before the pool is shared; a plain count.
        self.indeterminate_at_open.load(Ordering::Relaxed)
    }

    /// Payload bytes of the free class blocks on the shared list, and on
    /// each shard's lists in shard order. Free large blocks are on neither.
    pub fn free_list_bytes(&self) -> (u64, Vec<u64>) {
        let arenas = self.shards.iter().map(|shard| held_bytes(&shard.carved)).collect();
        (held_bytes(&self.shared.lists), arenas)
    }

    pub fn stats(&self, pool: &PmemPool) -> AllocStats {
        let bump = pool.read_u64(OFF_BUMP);
        // Frees first, with `Acquire`: every free counted here synchronizes
        // with its `Release` bump, which follows its block's allocation, so
        // the allocation counters loaded below count that allocation too
        // and `live_blocks` never wraps.
        let total_frees = self.total_frees.load(Ordering::Acquire);
        let load = |f: fn(&Shard) -> &AtomicU64| -> Vec<u64> {
            self.shards.iter().map(|shard| f(shard).load(Ordering::Acquire)).collect()
        };
        let shard_hits = load(|s| &s.hits);
        let shard_refills = load(|s| &s.refills);
        let shard_steals = load(|s| &s.steals);
        let large_allocs = self.large_allocs.load(Ordering::Acquire);
        // Derived from the loads above, never from a separate counter: the
        // snapshot is internally consistent by construction (see the struct
        // docs and the stats_snapshot_is_consistent test).
        let total_allocs = shard_hits.iter().sum::<u64>()
            + shard_refills.iter().sum::<u64>()
            + shard_steals.iter().sum::<u64>()
            + large_allocs;
        // ordering: written once at open, before the pool is shared.
        let live_at_open = self.live_at_open.load(Ordering::Relaxed);
        AllocStats {
            heap_used: bump - HEAP_START,
            heap_remaining: pool.len() as u64 - bump,
            live_blocks: live_at_open + total_allocs - total_frees,
            total_allocs,
            large_allocs,
            total_frees,
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
        assert_eq!(a, b, "freed class block should be reused (LIFO on the shared list)");
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

    /// A shard's n-th refill carves `REFILL_BATCH << min(3, n / 4)` blocks:
    /// 8, 8, 8, 16 ×4, 32 ×4, then 64 — and frees do not shrink the next
    /// run, they are served before it.
    #[test]
    fn a_shards_nth_refill_carves_8_shl_min_3_n_over_4_blocks() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let refills = |p: &PmemPool| p.alloc_stats().shard_refills.iter().sum::<u64>();
        let mut held = Vec::new();
        while refills(&p) < 14 {
            held.push(p.alloc(64).unwrap());
        }
        for off in held.drain(..) {
            p.dealloc(off);
        }
        while refills(&p) < 16 {
            held.push(p.alloc(64).unwrap());
        }
        let mut batches = Vec::new();
        walk_heap(&p, p.read_u64(OFF_BUMP), |item| {
            if let HeapItem::Run { blocks, .. } = item {
                batches.push(blocks);
            }
        });
        let expected: Vec<u64> = (1..=16).map(|n| REFILL_BATCH << (n / 4).min(3)).collect();
        assert_eq!(batches, expected);
        assert_eq!(*batches.last().unwrap(), MAX_RUN_BLOCKS);
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
        let _ = p.alloc(64).unwrap();
        let s = p.alloc_stats();
        assert_eq!(s.shard_steals.iter().sum::<u64>(), 1, "the freed block, from the shared list");
        assert_eq!(s.shard_hits.iter().sum::<u64>(), 1, "then the run's next block");
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
            // scan puts all of them on the shared list.
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
    /// balanced stats, including when threads outnumber shards and
    /// `mvkv_sync::shard` hands slots on mid-test.
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

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn alloc_free_churn_across_threads_stays_disjoint() {
        // Threads continuously allocate and free, forcing shard refills,
        // hits and shared-list pops to interleave. At any moment the
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
        assert_eq!(served, stats.total_allocs, "every class alloc is a hit, pop or refill");
    }

    /// A block freed on a thread of another arena is this thread's next
    /// allocation of its class, though this thread's arena holds the rest of
    /// its own run: no block is carved, and none is taken from the arena,
    /// while a freed one waits.
    #[test]
    fn a_freed_block_is_the_next_allocation_of_its_class_on_any_thread() {
        let p = pool();
        p.alloc(64).unwrap();
        let me = shard_id();
        let arena_bytes = |p: &PmemPool| p.free_list_bytes().1[me];
        assert_eq!(arena_bytes(&p), (REFILL_BATCH - 1) * 64, "the rest of this thread's run");
        // Live threads hold distinct slots: spawn, each kept alive, until
        // one lands on another arena, and free a block there.
        let gate = std::sync::RwLock::new(());
        let closed = gate.write().unwrap();
        let freed = std::thread::scope(|scope| {
            let freed = loop {
                let (tx, rx) = std::sync::mpsc::channel();
                let (p, gate) = (&p, &gate);
                scope.spawn(move || {
                    if shard_id() == me {
                        tx.send(None).unwrap();
                        drop(gate.read());
                    } else {
                        let off = p.alloc(64).unwrap();
                        p.dealloc(off);
                        tx.send(Some(off)).unwrap();
                    }
                });
                if let Some(off) = rx.recv().unwrap() {
                    break off;
                }
            };
            drop(closed);
            freed
        });
        let heap = p.alloc_stats().heap_used;
        assert_eq!(p.alloc(64).unwrap(), freed, "the freed block comes first");
        assert_eq!(arena_bytes(&p), (REFILL_BATCH - 1) * 64, "the arena is untouched");
        assert_eq!(p.alloc_stats().heap_used, heap, "nothing carved");
        p.alloc(64).unwrap();
        assert_eq!(arena_bytes(&p), (REFILL_BATCH - 2) * 64, "then the arena's next block");
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

    /// `live_blocks` is derived (live at open + allocations − frees): a
    /// snapshot taken while other threads allocate and free must never count
    /// a free whose allocation it missed, which would wrap the difference.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn derived_live_blocks_never_exceed_allocations_during_churn() {
        let p = PmemPool::create_volatile(1 << 24).unwrap();
        let running = AtomicU64::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (p, running) = (&p, &running);
                scope.spawn(move || {
                    let mut held = std::collections::VecDeque::new();
                    for _ in 0..50_000 {
                        held.push_back(p.alloc(16 << (t % 3)).unwrap());
                        if held.len() > 4 {
                            p.dealloc(held.pop_front().unwrap());
                        }
                    }
                    held.into_iter().for_each(|off| p.dealloc(off));
                    running.fetch_sub(1, Ordering::Release);
                });
            }
            let mut snapshots = 0;
            while snapshots < 1_000 || running.load(Ordering::Acquire) > 0 {
                let s = p.alloc_stats();
                assert!(s.live_blocks <= s.total_allocs, "snapshot wrapped: {s:?}");
                snapshots += 1;
            }
        });
        let s = p.alloc_stats();
        assert_eq!((s.live_blocks, s.total_frees), (0, s.total_allocs));
    }

    /// A cursor word past the blocks (a crash that persisted a cursor
    /// advance but no header), zeroed, or past the pool's end: the open
    /// walks to the last block and re-bases the cursor there, so the next
    /// allocation neither lands in the superblock nor on a live block.
    #[test]
    fn torn_bump_cursor_is_repaired_on_open() {
        let p = pool();
        let live = p.alloc(64).unwrap();
        p.write_u64(live, 0x11FE);
        let bump = p.read_u64(OFF_BUMP);
        let audit = crate::recovery::audit(&p);
        for stored in [bump + 4096, 0, p.len() as u64 + 4096] {
            p.write_u64(OFF_BUMP, stored);
            // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
            let image = unsafe { p.bytes(0, p.len()).to_vec() };
            let reopened = PmemPool::open_image(&image).unwrap();
            assert_eq!(reopened.read_u64(OFF_BUMP), bump, "{stored}: cursor re-based at the end");
            assert_eq!(reopened.unflushed_lines().unwrap(), [], "and the new cursor flushed");
            assert_eq!(crate::recovery::audit(&reopened), audit, "{stored}");
            let stats = reopened.alloc_stats();
            assert_eq!((stats.heap_used, stats.live_blocks), (bump - HEAP_START, 1), "{stored}");
            // And allocation continues above the live block.
            for _ in 0..2 * REFILL_BATCH {
                assert!(reopened.alloc(64).unwrap() > live, "{stored}");
            }
            assert_eq!(reopened.read_u64(OFF_MAGIC), MAGIC, "{stored}: the superblock");
            assert_eq!(reopened.read_u64(live), 0x11FE, "{stored}: the live block");
        }
    }

    #[test]
    fn the_blocks_of_a_run_are_spaced_exactly_their_class_apart() {
        for (class, &bytes) in SIZE_CLASSES.iter().enumerate() {
            let p = pool();
            let offs: Vec<u64> = (0..REFILL_BATCH).map(|_| p.alloc(bytes).unwrap()).collect();
            let first = HEAP_START + RUN_HEADER + run_pad(HEAP_START, class);
            assert_eq!(offs[0], first, "class {bytes}: behind one run header and its padding");
            for (bit, &off) in offs.iter().enumerate() {
                assert_eq!(off, run_block(HEAP_START, class, bit as u64));
                assert_eq!(p.block_capacity(off), bytes, "no header, no padding");
                assert_eq!(p.state_word(off), HEAP_START + OCCUPANCY);
            }
            let run = run_size(HEAP_START, class, REFILL_BATCH);
            assert_eq!(p.alloc_stats().heap_used, run, "one run, one refill");
            assert_eq!(p.alloc_stats().shard_refills.iter().sum::<u64>(), 1);
        }
    }

    /// Every class that is a multiple of the cache line hands out blocks that
    /// start on a line: from runs of every batch the adaptive refill carves
    /// (8 … 64), at every offset from a line a run can start at, and from the
    /// shared list after a free. The padding is the run's: a reopen's
    /// walk finds nothing damaged and the audit counts what the pool holds.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn line_sized_classes_hand_out_blocks_on_a_line() {
        let on_a_line = |off: u64| off.is_multiple_of(CACHE_LINE as u64);
        let line_sized = SIZE_CLASSES.iter().enumerate().filter(|&(_, &b)| b % CACHE_LINE == 0);
        for (class, &bytes) in line_sized {
            let p = PmemPool::create_volatile(1 << 24).unwrap();
            let mut held = Vec::new();
            for i in 0..300u64 {
                // A large block of 4128 + 16 (i % 3) bytes between class
                // blocks moves each refill's run to another offset mod 64.
                p.alloc(4097 + 16 * (i % 3) as usize).unwrap();
                let off = p.alloc(bytes).unwrap();
                assert!(on_a_line(off), "class {bytes}: block {i} at {off}");
                held.push(off);
            }
            let (mut batches, mut pads, mut runs) = (Vec::new(), Vec::new(), 0);
            walk_heap(&p, p.read_u64(OFF_BUMP), |item| {
                if let HeapItem::Run { run, class: c, blocks } = item {
                    assert_eq!(c, class);
                    batches.push(blocks);
                    pads.push(run_pad(run, class));
                    runs += 1;
                }
            });
            for set in [&mut batches, &mut pads] {
                set.sort_unstable();
                set.dedup();
            }
            assert_eq!(batches, [8, 16, 32, 64], "class {bytes}");
            assert_eq!(pads, [0, 16, 32, 48], "class {bytes}");
            // Freed to the shared list, and taken from it on another thread.
            for off in held.drain(..) {
                p.dealloc(off);
            }
            let take = || (0..300).map(|_| p.alloc(bytes).unwrap()).collect::<Vec<_>>();
            held = std::thread::scope(|scope| scope.spawn(take).join().unwrap());
            assert!(held.iter().all(|&off| on_a_line(off)), "class {bytes}: {held:?}");
            assert_eq!(p.alloc_stats().shard_steals.iter().sum::<u64>(), 300, "class {bytes}");
            // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
            let reopened = PmemPool::open_image(unsafe { p.bytes(0, p.len()) }).unwrap();
            assert_eq!(reopened.indeterminate_blocks_at_open(), 0, "class {bytes}");
            let audit = crate::recovery::audit(&reopened);
            assert_eq!(audit, crate::recovery::audit(&p), "class {bytes}: the same walk");
            assert_eq!((audit.indeterminate_blocks, audit.torn_tail_bytes), (0, 0));
            assert_eq!(audit.allocated_by_class[class].0, held.len() as u64, "class {bytes}");
            assert_eq!(audit.allocated_by_class[NUM_CLASSES].0, 300, "the large blocks");
            assert_eq!(audit.runs_by_class[class], runs, "class {bytes}");
            assert!(audit.padding_by_class[class] <= 48 * runs, "class {bytes}");
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

    /// A reopen puts every free class block on the shared list, lowest
    /// offset on top: one thread takes them all, in heap order, before the
    /// bump cursor moves — whichever arena it is on.
    #[test]
    fn after_a_reopen_one_thread_takes_every_free_block_before_the_heap_grows() {
        let p = pool();
        let offs: Vec<u64> = (0..100).map(|_| p.alloc(64).unwrap()).collect();
        for &off in offs.iter().step_by(3) {
            p.dealloc(off);
        }
        // SAFETY: [0, len) is in bounds; no writer races the snapshot here.
        let reopened = PmemPool::open_image(unsafe { p.bytes(0, p.len()) }).unwrap();
        let free = crate::recovery::audit(&reopened).free_blocks;
        let (shared, arenas) = reopened.free_list_bytes();
        assert_eq!((shared, arenas.iter().sum::<u64>()), (free * 64, 0));
        let heap = reopened.alloc_stats().heap_used;
        let taken: Vec<u64> = (0..free).map(|_| reopened.alloc(64).unwrap()).collect();
        assert_eq!(reopened.alloc_stats().heap_used, heap, "no fresh heap consumed");
        assert!(taken.windows(2).all(|w| w[0] < w[1]), "in heap order: {taken:?}");
        assert!(offs.iter().step_by(3).all(|off| taken.contains(off)), "every freed block");
        assert_eq!(reopened.alloc_stats().shard_steals.iter().sum::<u64>(), free);
        assert_eq!(crate::recovery::audit(&reopened).free_blocks, 0);
        reopened.alloc(64).unwrap();
        assert!(reopened.alloc_stats().heap_used > heap, "then a refill");
    }
}
