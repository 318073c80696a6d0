//! # mvkv-skiplist — lock-free, insert-only concurrent skip list
//!
//! The ephemeral index of the paper's hybrid design (§IV-A/§IV-B): keys are
//! indexed by a lock-free skip list whose nodes carry a single payload of
//! the list's type `P` (for PSkipList, the 32-bit persistent offset of the
//! key's version history; for ESkipList, a 64-bit heap pointer). The
//! payload is part of every node, so its width is part of the index's size
//! per key.
//!
//! Because removals in the multi-version store are *logical* (a tombstone is
//! appended to the key's history), the index never unlinks nodes. The paper
//! exploits exactly this: *"Since there is no need to support removal from
//! the skip list itself, the implementation can be simplified to use raw
//! pointers in compare-and-exchange operations"* — no deletion marks, no
//! hazard pointers, no epochs. Nodes live until the list is dropped — the
//! lifetime a bump arena serves, so the list owns one: no allocator call per
//! key, and a link is a 32-bit offset, not a pointer.
//!
//! Concurrency protocol (paper §IV-B):
//! * A node is one block of the list's arena: a header (`key`, payload) with
//!   its tower of 4-byte link cells inline behind it — as many as it is
//!   tall, the height is not stored — immutable after publication except for
//!   the links. Blocks are bump-allocated back to back from zeroed chunks
//!   obtained through `std::alloc` — the inserting threads share one bump
//!   cursor, whose chunks double from 4 KiB to 256 KiB — and no node is
//!   freed before the list is. A link counts 8-byte units from the start of
//!   the arena's address space (0 = none; 2^32 units, 32 GiB) and resolves
//!   through a flat chunk
//!   directory in one load that depends on it; the chunk's base is in the
//!   directory before any link into the chunk exists, so the Acquire load
//!   that returns a link also orders the directory read.
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
//!   winner after its failed level-0 CAS, drops its own key (the block it
//!   built stays unused in its chunk until the list drops) and *"reuses the
//!   pointer of the faster thread"* — surfaced to callers as
//!   [`InsertOutcome::Lost`] so they can reclaim the payload they created.
//! * A list whose keys are all known up front (a restart) is not inserted
//!   into at all: [`SkipList::fragment`] turns a sorted run of pairs into a
//!   private chain of nodes with plain stores, filling chunks of its own
//!   (through a cursor of its own, sized the same way, the last chunk cut to
//!   what was filled) in key order — any number of threads, one key range
//!   each. It knows every node's rank, so heights follow it instead of a
//!   coin: the i-th key of a fragment gets `1 + tz(i) / 2` levels, a perfect
//!   4-ary list (18 comparisons a `get` at 2^16 keys, against 21 – 23 for
//!   inserted p = 1/2 towers). An insert keeps drawing p = 1/2: it cannot
//!   see its rank, and its nodes sit in insertion order, where the longer
//!   hops of p = 1/4 each cost a miss. Then
//!   [`SkipList::adopt`] stitches the chains into the empty list that built
//!   them through `&mut self`, one link per fragment and level. A fragment
//!   dropped instead drops its keys; its chunks go with the list.
//! * Dropping the list walks level 0 only if keys need dropping, then frees
//!   chunks and directories; [`SkipList::memory`] reports what it holds, and
//!   [`SkipList::levels`] how many nodes each level links.

mod list;

pub use list::{Fragment, InsertOutcome, Iter, SkipList, MAX_HEIGHT};
