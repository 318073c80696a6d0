//! # mvkv-skiplist — lock-free, insert-only concurrent skip list
//!
//! The ephemeral index of the paper's hybrid design (§IV-A/§IV-B): keys are
//! indexed by a lock-free skip list whose nodes carry a single 64-bit
//! payload (for PSkipList, the persistent offset of the key's version
//! history; for ESkipList, a heap pointer).
//!
//! Because removals in the multi-version store are *logical* (a tombstone is
//! appended to the key's history), the index never unlinks nodes. The paper
//! exploits exactly this: *"Since there is no need to support removal from
//! the skip list itself, the implementation can be simplified to use raw
//! pointers in compare-and-exchange operations"* — no deletion marks, no
//! hazard pointers, no epochs. Nodes live until the list is dropped.
//!
//! Concurrency protocol (paper §IV-B):
//! * A node is one allocation: a header (`key`, payload, height) with its
//!   tower of link cells inline behind it, immutable after publication
//!   except for the links.
//! * One internal descent implements Algorithm 2's `FindSkip` for reads and
//!   writes alike: top-down, one key comparison per node visited, returning
//!   at the first level where it meets the key — sound because towers are
//!   linked bottom-up, so a node visible at any level is already in the
//!   level-0 list, and nodes are never unlinked. Reads (`get`,
//!   `range_from`) keep nothing of the path; `insert_with` has the same
//!   descent record the predecessor cell and successor node of every level
//!   it leaves, so it *is* the lookup: a present key costs a `get` and
//!   returns its payload, an absent one is linked against what the descent
//!   recorded, with no second walk.
//! * Insertion CASes the level-0 predecessor cell (the linearization
//!   point), then links upper levels with per-level retries. A lost CAS
//!   re-runs the descent: before publication it may meet a duplicate-key
//!   winner (at any level of the winner's tower), after publication it stops
//!   at its own node, one level below the one it is linking.
//! * If two threads race to insert the same key, the loser detects the
//!   winner after its failed level-0 CAS, frees its own node and *"reuses the pointer
//!   of the faster thread"* — surfaced to callers as
//!   [`InsertOutcome::Lost`] so they can reclaim the payload they created.
//! * A list whose keys are all known up front (a restart) is not inserted
//!   into at all: [`SkipList::fragment`] turns a sorted run of pairs into a
//!   private chain of nodes with plain stores — any number of threads, one
//!   key range each — and [`SkipList::adopt`] stitches the chains into an
//!   empty list through `&mut self`, one link per fragment and level.

mod list;

pub use list::{Fragment, InsertOutcome, Iter, SkipList, MAX_HEIGHT};
