//! # mvkv-minidb — an embedded page-based database engine
//!
//! The paper's reference baseline is SQLite 3.28 configured with its three
//! standard performance practices (§V-B): a multi-column index over
//! `(version, key)`, prepared statements, and write-ahead logging. Linking C
//! SQLite is out of scope for this from-scratch reproduction, so `minidb`
//! implements the same architectural ingredients natively:
//!
//! * [`pager`] — 4 KiB pages over a file or a memory vector (one media
//!   type, `storage.rs`, that the WAL uses too), with per-connection page
//!   caches (the `SQLiteReg` model) or a single shared, lock-guarded cache
//!   (the `SQLiteMem` shared-cache model whose contention the paper
//!   measures).
//! * [`wal`] — a write-ahead log: committed transactions append page frames
//!   plus a commit record, are made durable with one sync, and checkpoint
//!   back into the main storage when the log grows.
//! * [`btree`] — a B+tree keyed by the composite `(key, version)` — the
//!   multi-column index — with leaf-sibling links for ordered scans.
//! * [`engine`] — connections, the single-writer/multi-reader concurrency
//!   model (SQLite serializes writers), and prepared query objects
//!   ([`engine::Connection::find`], `history`, `snapshot`) that bind
//!   parameters straight into pre-resolved access paths, the moral
//!   equivalent of prepared statements.
//!
//! Rows are `(version, key, value)` exactly as the paper's SQLite schema;
//! removals store [`REMOVE_MARKER`], "a special marker outside of the
//! allowable range of valid values".

pub mod btree;
pub mod engine;
pub mod page;
pub mod pager;
mod storage;
pub mod wal;

pub use engine::{Connection, Database};

/// Removal marker value (outside the valid value range < 2^62).
pub const REMOVE_MARKER: u64 = u64::MAX;

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum DbError {
    Io(std::io::Error),
    /// The main file or WAL failed validation on open.
    Corrupt(&'static str),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "minidb I/O error: {e}"),
            DbError::Corrupt(what) => write!(f, "minidb corruption: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, DbError>;
