//! # mvkv-core — multi-versioning ordered key-value stores
//!
//! The paper's contribution and every baseline it is evaluated against
//! (§V-B), all behind one API ([`VersionedStore`] / [`StoreSession`], the
//! paper's Table 1):
//!
//! | Store | Paper name | Index | Histories | Persistence |
//! |---|---|---|---|---|
//! | [`PSkipList`] | PSkipList | lock-free skip list (ephemeral) | persistent memory | **yes** |
//! | [`ESkipList`] | ESkipList | lock-free skip list | heap | no |
//! | [`LockedMap`] | LockedMap | `Mutex<BTreeMap>` (red-black-tree role) | heap | no |
//! | [`DbStore::reg`] | SQLiteReg | minidb B+tree + WAL on a file | engine pages | **yes** |
//! | [`DbStore::mem`] | SQLiteMem | minidb B+tree, shared page cache | memory pages | no |
//!
//! ## Versioning model
//!
//! Following the paper's benchmark methodology ("we tag after each insert
//! and remove operation"), every mutation receives its own version from a
//! store-wide [`mvkv_vhistory::VersionClock`] and thus defines its own
//! snapshot. `tag()` returns the newest *consistent* snapshot id — the
//! contiguous completion watermark: an operation becomes visible only once
//! all lower-version operations have finished (paper §IV-B). Queries for a
//! version beyond the watermark answer as of the watermark.
//!
//! ## Concurrency contract
//!
//! Mutations of distinct keys are safe from any number of sessions.
//! Mutations of the *same* key must be externally ordered (the paper's
//! benchmarks partition keys among threads); queries are always safe.

pub mod api;
pub mod dbstore;
pub mod engine;
pub mod eskiplist;
pub mod lockedmap;
pub mod pskiplist;
pub mod recovery;
pub mod scan;
pub mod stats;

pub use api::{delta_by_snapshots, LabeledTags, StoreSession, VersionedStore};
pub use dbstore::{DbSession, DbStore};
pub use engine::{Engine, Home};
pub use eskiplist::{ESkipList, HeapHome};
pub use lockedmap::LockedMap;
pub use pskiplist::{CompactStats, PSkipList, PmHome, RestartStats};
pub use recovery::{CorruptionClass, KeyQuarantine, QuarantineReport, RecoveryError, ScrubReport};
pub use scan::SnapshotScan;
pub use stats::OpStats;

pub use mvkv_vhistory::{HistoryRecord, TOMBSTONE};

/// A key-value pair as returned by snapshot extraction.
pub type Pair = (u64, u64);
