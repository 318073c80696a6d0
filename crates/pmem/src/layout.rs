//! On-media layout constants of a pmem pool.
//!
//! ```text
//! offset 0    ┌──────────────────────────────────────────────────────┐
//!             │ superblock (one 4 KiB page)                          │
//!             │   0  magic                                           │
//!             │   8  layout version                                  │
//!             │  16  pool length (bytes)                             │
//!             │  24  root offset (user-defined entry point)          │
//!             │  32  bump cursor (atomic)                            │
//!             │  40, 48  zero at format, never read                  │
//!             ├──────────────────────────────────────────────────────┤
//! HEAP_START  │ heap: contiguous stream of 16-aligned blocks, never  │
//!             │ split, each `[size u64 | state u64 | …]`:            │
//!             │                                                      │
//!             │ a run — one refill of a size class, n = 1…64 blocks: │
//!             │   [size | state = RUN(class, n)]                     │
//!             │   [occupancy word 0 | occupancy word 1]              │
//!             │   padding: 0…48 B up to a line, for a class that is  │
//!             │   a multiple of 64 B (none for the others)           │
//!             │   block 0 | block 1 | … | block n−1                  │
//!             │   headerless, each exactly SIZE_CLASSES[class] bytes;│
//!             │   bit i of the words: block i is allocated           │
//!             │                                                      │
//!             │ a large block — payload > 4 KiB:                     │
//!             │   [size | state = FREE / ALLOCATED] payload …        │
//!             └──────────────────────────────────────────────────────┘
//! ```
//!
//! Every metadata word carries a CRC32C in its low half: a state word over
//! `(size, tag)`, an occupancy word over `(run offset, word index, mask)`.

/// "MVKVPMEM" interpreted little-endian.
pub const MAGIC: u64 = 0x4D45_4D50_564B_564D;

/// Bumped whenever the on-media layout changes incompatibly.
/// v2: block state words and history entries carry CRC32C integrity codes.
/// v3: a history is one block holding its first three entries.
/// v4: a history entry is 24 bytes (`crc` and `done` are one stamp word), the
/// history block 96, segment `k` `96 << k`.
/// v5: class blocks have no header; a refill carves one run.
/// v6: a history block is 64 bytes — 32-bit counters, link and check word,
/// two entries — and a run of a class that is a multiple of 64 bytes starts
/// its first block on a cache line.
pub const LAYOUT_VERSION: u64 = 6;

/// Superblock field offsets. Words 40 and 48 are zero at format (a fresh
/// backend is zero-filled and format persists the superblock whole) and are
/// never read, like the store root's words 16 and 24.
pub const OFF_MAGIC: u64 = 0;
pub const OFF_VERSION: u64 = 8;
pub const OFF_POOL_LEN: u64 = 16;
pub const OFF_ROOT: u64 = 24;
pub const OFF_BUMP: u64 = 32;

/// First heap byte; also the superblock size. One page keeps the hot bump
/// cursor away from user cache lines.
pub const HEAP_START: u64 = 4096;

/// Minimum pool size: superblock plus one page of heap.
pub const MIN_POOL_LEN: usize = (HEAP_START as usize) * 2;

/// Allocation granularity and payload alignment guarantee.
pub const BLOCK_ALIGN: u64 = 16;

/// Heap block header: `[size: u64][state: u64]`, in front of a large
/// block's payload and of a run.
pub const BLOCK_HEADER: u64 = 16;

/// The head of a run: the block header, whose state word names the run's
/// class and block count, then the occupancy words. Word `w` is `mask << 32 |
/// crc32c(run, w, mask)` ([`encode_occupancy`]); bit `i` of its mask says
/// block `32 w + i` is allocated. Only the first `⌈n / 32⌉` words are used.
///
/// pm-resident: the words of every run's header, read and CAS-ed through
/// `PmemPool::atomic_u64`.
#[repr(C)]
pub struct RunHeader {
    pub size: u64,
    pub state: u64,
    pub occupancy: [u64; 2],
}

/// Bytes of a run's header, in front of its padding ([`run_pad`]) and blocks.
pub const RUN_HEADER: u64 = std::mem::size_of::<RunHeader>() as u64;

/// Offset of a run's first occupancy word.
pub const OCCUPANCY: u64 = std::mem::offset_of!(RunHeader, occupancy) as u64;

/// Blocks a run holds at most: the bits of its occupancy words.
pub const MAX_RUN_BLOCKS: u64 = 32 * 2;

const _: () = assert!(RUN_HEADER == 32 && std::mem::align_of::<RunHeader>() == 8);
const _: () = assert!(std::mem::offset_of!(RunHeader, size) == 0);
const _: () = assert!(std::mem::offset_of!(RunHeader, state) == 8 && OCCUPANCY == BLOCK_HEADER);
const _: () = assert!(RUN_HEADER.is_multiple_of(BLOCK_ALIGN));

/// Tags distinguishing block states; stored in the high half of the state
/// word, self-checksummed against the block size (see [`encode_state`]).
pub const TAG_FREE: u32 = 0xF4EE_F4EE;
pub const TAG_ALLOCATED: u32 = 0xA110_CA7E;
/// A run's tag is `TAG_RUN | class << 8 | blocks`.
pub const TAG_RUN: u32 = 0x5255_0000;

/// Decoded state of a heap block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// A free large block.
    Free,
    /// An allocated large block.
    Allocated,
    /// A run of `blocks` blocks of size class `class`.
    Run { class: usize, blocks: u64 },
}

impl BlockState {
    #[inline]
    fn tag(self) -> u32 {
        match self {
            BlockState::Free => TAG_FREE,
            BlockState::Allocated => TAG_ALLOCATED,
            BlockState::Run { class, blocks } => TAG_RUN | (class as u32) << 8 | blocks as u32,
        }
    }
}

/// Encodes a block state word: `tag << 32 | crc32c(size ‖ tag)`. Binding the
/// CRC to the *size* word as well means a state word transplanted onto a
/// different block (misdirected write) fails to decode, not just a flipped
/// bit in place. Written where the old raw `STATE_*` constants were; still
/// one 8-byte store, so allocator fence counts are unchanged.
#[inline]
pub fn encode_state(size: u64, state: BlockState) -> u64 {
    let tag = state.tag();
    ((tag as u64) << 32) | crate::crc::crc32c_u64s(&[size, tag as u64]) as u64
}

/// Decodes the state word of the block whose header is at `at` against its
/// `size`; `None` means the metadata is torn or corrupt (recovery treats the
/// block as indeterminate). A run's tag must also name a class, 1 to
/// [`MAX_RUN_BLOCKS`] blocks and exactly `size` bytes of run at `at`.
#[inline]
pub fn decode_state(at: u64, size: u64, word: u64) -> Option<BlockState> {
    let state = match (word >> 32) as u32 {
        TAG_FREE => BlockState::Free,
        TAG_ALLOCATED => BlockState::Allocated,
        tag if tag & 0xFFFF_0000 == TAG_RUN => {
            let (class, blocks) = ((tag >> 8 & 0xFF) as usize, u64::from(tag & 0xFF));
            let ok = class < NUM_CLASSES && (1..=MAX_RUN_BLOCKS).contains(&blocks);
            let fits = ok && size == run_size(at, class, blocks);
            fits.then_some(BlockState::Run { class, blocks })?
        }
        _ => return None,
    };
    (encode_state(size, state) == word).then_some(state)
}

/// Encodes occupancy word `index` of the run at `run`: `mask << 32 |
/// crc32c(run, index, mask)`. Binding the CRC to the run and the index makes
/// a word copied to another run or slot fail, like a state word moved to a
/// block of another size.
#[inline]
pub fn encode_occupancy(run: u64, index: u64, mask: u32) -> u64 {
    (u64::from(mask) << 32) | u64::from(crate::crc::crc32c_u64s(&[run, index, u64::from(mask)]))
}

/// Decodes occupancy word `index` of the run at `run` to its mask; `None`
/// means the word is torn or corrupt (its blocks stay live).
#[inline]
pub fn decode_occupancy(run: u64, index: u64, word: u64) -> Option<u32> {
    let mask = (word >> 32) as u32;
    (encode_occupancy(run, index, mask) == word).then_some(mask)
}

/// Bytes between the header of the run at `run` and its first block: up to
/// the next cache line for a class whose size is a multiple of one, so that
/// each of its blocks has lines of its own (at most 48, runs being
/// 16-aligned); none for the other classes. Derived from the run's offset,
/// so no word records it — the run's size covers it.
#[inline]
pub const fn run_pad(run: u64, class: usize) -> u64 {
    let line = CACHE_LINE as u64;
    if (SIZE_CLASSES[class] as u64).is_multiple_of(line) {
        (line - (run + RUN_HEADER) % line) % line
    } else {
        0
    }
}

/// Bytes of a run of `blocks` blocks of `class` at `run`: its header, its
/// padding, then the blocks back to back.
#[inline]
pub const fn run_size(run: u64, class: usize, blocks: u64) -> u64 {
    RUN_HEADER + run_pad(run, class) + blocks * SIZE_CLASSES[class] as u64
}

/// Payload offset of block `bit` of the run at `run`: the blocks of a run
/// are spaced exactly `SIZE_CLASSES[class]` apart.
#[inline]
pub const fn run_block(run: u64, class: usize, bit: u64) -> u64 {
    run + RUN_HEADER + run_pad(run, class) + bit * SIZE_CLASSES[class] as u64
}

/// Size classes for small allocations (payload capacities, bytes): the powers
/// of two and, from 96 up, the `96 << k` between them — a history block fills
/// the 64-byte class and its segment `k ≥ 1` the `96 << k` one exactly
/// (asserted in `mvkv_vhistory::pslots`).
pub const SIZE_CLASSES: [usize; 15] =
    [16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096];

/// Number of small size classes.
pub const NUM_CLASSES: usize = SIZE_CLASSES.len();

/// Cache-line granularity used by `persist` and the crash simulator.
pub const CACHE_LINE: usize = 64;

/// Returns the index of the smallest size class that fits `len` payload
/// bytes, or `None` if `len` needs the large-allocation path.
#[inline]
pub const fn class_for(len: usize) -> Option<usize> {
    let mut class = 0;
    while class < NUM_CLASSES {
        if len <= SIZE_CLASSES[class] {
            return Some(class);
        }
        class += 1;
    }
    None
}

/// Rounds `len` up to the block alignment.
#[inline]
pub fn round_up(len: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (len + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_for_picks_tightest_fit() {
        assert_eq!(class_for(1), Some(0));
        for (class, &size) in SIZE_CLASSES.iter().enumerate() {
            assert_eq!(class_for(size), Some(class), "a class holds its own size");
            let next = (class + 1 < NUM_CLASSES).then_some(class + 1);
            assert_eq!(class_for(size + 1), next, "one byte more than class {size}");
        }
    }

    #[test]
    fn classes_are_sorted_and_aligned() {
        for w in SIZE_CLASSES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &SIZE_CLASSES {
            assert_eq!(c as u64 % BLOCK_ALIGN, 0);
        }
    }

    #[test]
    fn round_up_behaviour() {
        assert_eq!(round_up(0, 16), 0);
        assert_eq!(round_up(1, 16), 16);
        assert_eq!(round_up(16, 16), 16);
        assert_eq!(round_up(17, 16), 32);
    }

    #[test]
    fn line_sized_classes_start_their_runs_on_a_line() {
        for at in (HEAP_START..HEAP_START + 4 * CACHE_LINE as u64).step_by(BLOCK_ALIGN as usize) {
            for (class, &bytes) in SIZE_CLASSES.iter().enumerate() {
                let pad = run_pad(at, class);
                if bytes % CACHE_LINE == 0 {
                    assert!(pad <= 48, "run at {at}, class {bytes}: {pad}");
                    assert_eq!(run_block(at, class, 0) % CACHE_LINE as u64, 0);
                } else {
                    assert_eq!(pad, 0, "run at {at}, class {bytes}");
                }
                assert_eq!(run_size(at, class, 3), run_block(at, class, 3) - at);
            }
        }
    }

    #[test]
    fn superblock_fields_fit_before_heap() {
        const { assert!(OFF_BUMP + 8 <= HEAP_START) };
    }

    #[test]
    fn states_are_distinct_and_nonzero() {
        for size in [32u64, 80, 4112] {
            let free = encode_state(size, BlockState::Free);
            let alloc = encode_state(size, BlockState::Allocated);
            assert_ne!(free, alloc);
            assert_ne!(free, 0);
            assert_ne!(alloc, 0);
        }
    }

    #[test]
    fn state_words_roundtrip_and_reject_corruption() {
        let (at, size) = (HEAP_START, 80u64);
        let word = encode_state(size, BlockState::Allocated);
        assert_eq!(decode_state(at, size, word), Some(BlockState::Allocated));
        // A flipped bit anywhere in the word fails the decode.
        for bit in 0..64 {
            assert_eq!(decode_state(at, size, word ^ (1 << bit)), None, "bit {bit}");
        }
        // A state word bound to a different size fails too (misdirected
        // write detection), as do zeroed and garbage words.
        assert_eq!(decode_state(at, 96, word), None);
        assert_eq!(decode_state(at, size, 0), None);
        assert_eq!(decode_state(at, size, 0x1234), None);
    }

    #[test]
    fn run_tags_and_occupancy_words_roundtrip_and_reject_corruption() {
        let at = HEAP_START + BLOCK_ALIGN;
        for (class, blocks) in [(0, 1), (3, 8), (4, 8), (NUM_CLASSES - 1, MAX_RUN_BLOCKS)] {
            let (size, run) = (run_size(at, class, blocks), BlockState::Run { class, blocks });
            let word = encode_state(size, run);
            assert_eq!(decode_state(at, size, word), Some(run));
            assert_eq!(decode_state(at, size + BLOCK_ALIGN, word), None, "bound to the size");
            for bit in 0..64 {
                assert_eq!(decode_state(at, size, word ^ 1 << bit), None, "bit {bit}");
            }
        }
        // A tag whose geometry is not its size fails, whatever its CRC says —
        // the padding included: a line-aligned class's run moved to another
        // offset no longer adds up.
        let forged = encode_state(48, BlockState::Run { class: 1, blocks: 1 });
        assert_eq!(decode_state(at, 48, forged), None);
        let (class, blocks) = (class_for(128).unwrap(), 8);
        let run = BlockState::Run { class, blocks };
        let size = run_size(at, class, blocks);
        assert_eq!(decode_state(at, size, encode_state(size, run)), Some(run));
        assert_eq!(decode_state(at + BLOCK_ALIGN, size, encode_state(size, run)), None);
        let run = HEAP_START;
        let word = encode_occupancy(run, 1, 0b101);
        assert_eq!(decode_occupancy(run, 1, word), Some(0b101));
        for bit in 0..64 {
            assert_eq!(decode_occupancy(run, 1, word ^ 1 << bit), None, "bit {bit}");
        }
        assert_eq!(decode_occupancy(run, 0, word), None, "bound to its index");
        assert_eq!(decode_occupancy(run + BLOCK_ALIGN, 1, word), None, "bound to its run");
        assert_eq!(decode_occupancy(run, 0, 0), None, "a zeroed word is damage");
    }
}
