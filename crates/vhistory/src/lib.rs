//! # mvkv-vhistory — per-key version histories with a lazy tail
//!
//! The paper's compact multi-version representation (§IV-A) associates each
//! key with a *version history*: an append-only list of `(version, value)`
//! pairs recording every insert/remove of that key (removals store a
//! tombstone marker). Snapshots are therefore incremental by construction;
//! `find(key, v)` searches for the highest version ≤ `v`, from the newest
//! segment down.
//!
//! Concurrent appends use the paper's **lazy tail** (Algorithm 1):
//!
//! * an append claims a slot by atomically incrementing a per-key `pending`
//!   counter, writes its pair, then publishes a per-slot stamp (the
//!   finished bit and the pair's CRC32C in one word);
//! * appends may complete out of order, so finished slots need not be
//!   contiguous; the per-key `tail` is only advanced — lazily, by *queries*,
//!   never by appends — over the prefix of slots that are both locally done
//!   and globally covered by the completion watermark;
//! * a store-wide [`clock::VersionClock`] issues version numbers and tracks
//!   the contiguous completion watermark `fc` ("an insert or remove is
//!   considered finished only when all inserts or removes of lower versions
//!   have finished", §IV-B).
//!
//! The history algorithm is written once, generically over a [`Slots`]
//! storage provider; [`eslots::EHistory`] stores slots on the heap (used by
//! the ephemeral stores, through `&EHistory`) and [`pslots::PHistory`]
//! stores them in a [`mvkv_pmem::PmemPool`] (used by PSkipList). Both keep
//! the slots in a chain of doubling segments whose first — two entries — is
//! the history object itself; an operation resolves that chain once into
//! an on-stack [`Cursor`] and indexes it per slot.
//!
//! ## Ordering contract
//!
//! Within one key, slot order must equal version order (the binary search
//! relies on it). Concurrent mutations of *distinct* keys are fully
//! supported and lock-free; concurrent mutations of the *same* key must be
//! externally ordered — the same contract the paper's benchmarks satisfy by
//! partitioning keys among threads.

pub mod clock;
pub mod eslots;
pub mod history;
pub mod pslots;
pub mod recovery;
pub mod slots;

pub use clock::VersionClock;
pub use eslots::EHistory;
pub use history::History;
pub use pslots::PHistory;
pub use slots::{Cursor, Entry, Slots, ENTRY_SIZE};

/// Removal marker stored as the value of a "remove" entry (the paper's `M`).
/// Outside the valid value range produced by workloads (< 2^62).
pub const TOMBSTONE: u64 = u64::MAX;

/// One decoded history record returned by `extract_history`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryRecord {
    pub version: u64,
    /// `None` encodes a removal (tombstone).
    pub value: Option<u64>,
}

impl HistoryRecord {
    /// Decodes a raw `(version, value)` slot pair.
    pub fn from_raw(version: u64, value: u64) -> Self {
        HistoryRecord { version, value: if value == TOMBSTONE { None } else { Some(value) } }
    }
}
