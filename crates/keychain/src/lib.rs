//! # mvkv-keychain — persistent key block chain
//!
//! PSkipList's ephemeral skip-list index must be reconstructed from
//! persistent memory on restart. The paper (§IV-A) organizes the persistent
//! `(key, history-pointer)` pairs as a **block chain**: a linked list of
//! fixed-size arrays, *"inspired by the ledgers used by crypto-currencies"*.
//! This solves the array-vs-linked-list trade-off:
//!
//! * inserts stay cheap — a new block is allocated only when the tail block
//!   fills up;
//! * reconstruction parallelizes trivially — rebuild thread `tid` of `T`
//!   walks the chain and claims exactly the blocks whose sequence number
//!   `i` satisfies `i mod T == tid`, skipping the rest (paper Figure 1,
//!   bottom-right).
//!
//! [`KeyChain::append`] is lock-free: a slot is claimed with an atomic
//! counter increment; a full tail block is extended by CAS-linking a fresh
//! block (losers deallocate). Pair validity is carried by the history
//! offset (never 0), published with Release ordering after the key word, so
//! torn appends are invisible to rebuilds; [`KeyChain::repair`] re-derives
//! claim counters after a crash.

mod chain;
mod rebuild;

pub use chain::{ChainHdr, KeyChain, RepairStats, DEFAULT_BLOCK_CAP};
pub use rebuild::{rebuild_into, try_fold_claimed, try_workers, RebuildPanicked, RebuildStats};
