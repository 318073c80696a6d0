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
//! * The internal `find` routine implements Algorithm 2: a top-down scan collecting
//!   the predecessor cell and successor node per level. Only inserts use it;
//!   reads (`get`, `range_from`) run a descent with no bookkeeping that
//!   returns at the first level where it meets the key — sound because
//!   towers are linked bottom-up, so a node visible at any level is already
//!   in the level-0 list.
//! * Insertion CASes the level-0 predecessor cell (the linearization
//!   point), then links upper levels with per-level retries.
//! * If two threads race to insert the same key, the loser detects the
//!   winner at the level-0 CAS, frees its own node and *"reuses the pointer
//!   of the faster thread"* — surfaced to callers as
//!   [`InsertOutcome::Lost`] so they can reclaim the payload they created.
//! * A list whose keys are all known up front (a restart) is not inserted
//!   into at all: [`SkipList::fragment`] turns a sorted run of pairs into a
//!   private chain of nodes with plain stores — any number of threads, one
//!   key range each — and [`SkipList::adopt`] stitches the chains into an
//!   empty list through `&mut self`, one link per fragment and level.

mod list;

pub use list::{Fragment, InsertOutcome, Iter, SkipList, MAX_HEIGHT};
