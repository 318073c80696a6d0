//! On-media layout constants of a pmem pool.
//!
//! ```text
//! offset 0    ┌─────────────────────────────────────────────┐
//!             │ superblock (one 4 KiB page)                 │
//!             │   0  magic                                  │
//!             │   8  layout version                         │
//!             │  16  pool length (bytes)                    │
//!             │  24  root offset (user-defined entry point) │
//!             │  32  bump cursor (atomic)                   │
//!             │  40  clean-shutdown flag                    │
//!             ├─────────────────────────────────────────────┤
//! HEAP_START  │ heap: contiguous stream of blocks           │
//!             │   [size u64 | state u64 | payload …]        │
//!             │   each block 16-aligned, never split        │
//!             └─────────────────────────────────────────────┘
//! ```

/// "MVKVPMEM" interpreted little-endian.
pub const MAGIC: u64 = 0x4D45_4D50_564B_564D;

/// Bumped whenever the on-media layout changes incompatibly.
/// v2: block state words and history entries carry CRC32C integrity codes.
/// v3: a history is one block holding its first three entries.
/// v4: a history entry is 24 bytes (`crc` and `done` are one stamp word), the
/// history block 96, segment `k` `96 << k`.
pub const LAYOUT_VERSION: u64 = 4;

/// Superblock field offsets.
pub const OFF_MAGIC: u64 = 0;
pub const OFF_VERSION: u64 = 8;
pub const OFF_POOL_LEN: u64 = 16;
pub const OFF_ROOT: u64 = 24;
pub const OFF_BUMP: u64 = 32;
pub const OFF_CLEAN_SHUTDOWN: u64 = 40;
/// Offset of the transaction undo log (0 = never allocated).
pub const OFF_TXN_LOG: u64 = 48;

/// First heap byte; also the superblock size. One page keeps the hot bump
/// cursor away from user cache lines.
pub const HEAP_START: u64 = 4096;

/// Minimum pool size: superblock plus one page of heap.
pub const MIN_POOL_LEN: usize = (HEAP_START as usize) * 2;

/// Allocation granularity and payload alignment guarantee.
pub const BLOCK_ALIGN: u64 = 16;

/// Per-block header: `[size: u64][state: u64]` preceding the payload.
pub const BLOCK_HEADER: u64 = 16;

/// Tags distinguishing block states; stored in the high half of the state
/// word, self-checksummed against the block size (see [`encode_state`]).
pub const TAG_FREE: u32 = 0xF4EE_F4EE;
pub const TAG_ALLOCATED: u32 = 0xA110_CA7E;

/// Decoded state of a heap block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    Free,
    Allocated,
}

impl BlockState {
    #[inline]
    fn tag(self) -> u32 {
        match self {
            BlockState::Free => TAG_FREE,
            BlockState::Allocated => TAG_ALLOCATED,
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

/// Decodes a block state word against the block's `size`; `None` means the
/// metadata is torn or corrupt (recovery treats the block as indeterminate).
#[inline]
pub fn decode_state(size: u64, word: u64) -> Option<BlockState> {
    let state = match (word >> 32) as u32 {
        TAG_FREE => BlockState::Free,
        TAG_ALLOCATED => BlockState::Allocated,
        _ => return None,
    };
    (encode_state(size, state) == word).then_some(state)
}

/// Size classes for small allocations (payload capacities, bytes): the powers
/// of two and, from 96 up, the `96 << k` between them — what a history segment
/// fills exactly (asserted in `mvkv_vhistory::pslots`).
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

/// The size class a block of exactly `payload` bytes belongs to; `None` for
/// a large block.
#[inline]
pub fn class_of(payload: u64) -> Option<usize> {
    class_for(payload as usize).filter(|&class| SIZE_CLASSES[class] as u64 == payload)
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
    fn superblock_fields_fit_before_heap() {
        const { assert!(OFF_TXN_LOG + 8 <= HEAP_START) };
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
        let size = 80u64;
        let word = encode_state(size, BlockState::Allocated);
        assert_eq!(decode_state(size, word), Some(BlockState::Allocated));
        // A flipped bit anywhere in the word fails the decode.
        for bit in 0..64 {
            assert_eq!(decode_state(size, word ^ (1 << bit)), None, "bit {bit}");
        }
        // A state word bound to a different size fails too (misdirected
        // write detection), as do zeroed and garbage words.
        assert_eq!(decode_state(96, word), None);
        assert_eq!(decode_state(size, 0), None);
        assert_eq!(decode_state(size, 0x1234), None);
    }
}
