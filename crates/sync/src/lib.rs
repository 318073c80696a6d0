//! # mvkv-sync — the workspace synchronization facade
//!
//! Every concurrency-critical crate (`mvkv-skiplist`, `mvkv-vhistory`,
//! `mvkv-pmem`, `mvkv-core`) imports its atomics, mutexes and thread
//! primitives from this crate instead of `std::sync` — a rule the root
//! package's `tests/source_rules.rs` checks. The facade has two personalities:
//!
//! * **Normal builds** re-export `std::sync::atomic`, `std::sync::Arc` and
//!   `std::thread` wholesale (zero-cost: the types *are* the std types), plus
//!   a non-poisoning [`sync::Mutex`]. In a debug build that mutex also checks
//!   the store's lock discipline: facade locks never nest, and no sfence
//!   runs under one ([`sync::assert_unlocked`]).
//! * **`--cfg loom` builds** swap every primitive for a wrapper that routes
//!   through a built-in cooperative model-checking scheduler (`model`),
//!   loom-API-compatible so the real `loom` crate can be dropped in when a
//!   registry is available. The scheduler runs the model function under
//!   exhaustively enumerated thread interleavings (depth-first over the
//!   schedule tree, preemption-bounded), with deadlock detection and
//!   deterministic replay. The wrappers carry only the operations some
//!   crate or model calls: a call to any other std method compiles in a
//!   normal build and fails to compile under `--cfg loom`, so a new one
//!   arrives together with its wrapper.
//!
//! [`shard`] is the workspace's one thread-to-shard mapping and its one
//! sharded counter, [`shard::Counters`]: the `mvkv-obs` instruments and the
//! stores' operation counters are `Counters`, the PM allocator's arenas take
//! a thread's slot from it, and both have a loom form.
//!
//! ## Model-checking semantics (and their limits)
//!
//! The built-in checker explores **sequentially consistent interleavings**:
//! every atomic operation is a scheduling point, operations themselves
//! execute atomically, and the search enumerates which thread runs at each
//! point. This catches atomicity bugs (lost updates, torn publish protocols,
//! ABA-free CAS misuse), lock-ordering deadlocks, and ordering bugs that
//! manifest under SC interleavings. It does **not** simulate weak-memory
//! reordering: a `Relaxed` load is explored with the same visibility as an
//! `Acquire` load, so bugs that require store buffering to surface need the
//! real loom (or TSan, which the CI wiring also runs). The `Ordering`
//! arguments are still type-checked and lint-audited.
//!
//! ## Bounds
//!
//! The search has no knobs. Each `model()` call explores at most 10 000
//! schedules, with at most 2 preemptions per schedule: a bound of 2–3 finds
//! the vast majority of real interleaving bugs while keeping the search
//! tractable, per the context-bounding literature. Every call prints its
//! explored-schedule count to stderr, which the test harness captures.

#[cfg(loom)]
mod scheduler;

#[cfg(loom)]
mod loom_atomic;

#[cfg(loom)]
mod loom_sync;

#[cfg(loom)]
mod loom_thread;

#[cfg(not(loom))]
mod std_sync;

/// Synchronization primitives: `sync::atomic::*`, `sync::Arc`, `sync::Mutex`,
/// `sync::assert_unlocked`.
pub mod sync {
    #[cfg(not(loom))]
    pub use crate::std_sync::{assert_unlocked, Mutex, MutexGuard};
    #[cfg(not(loom))]
    pub use std::sync::Arc;

    #[cfg(loom)]
    pub use crate::loom_sync::{assert_unlocked, Mutex, MutexGuard};
    #[cfg(loom)]
    pub use std::sync::Arc;

    /// Atomic types; scheduler-instrumented under `--cfg loom`.
    pub mod atomic {
        #[cfg(not(loom))]
        pub use std::sync::atomic::{
            fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };

        #[cfg(loom)]
        pub use crate::loom_atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};
        #[cfg(loom)]
        pub use std::sync::atomic::Ordering;
    }
}

/// Thread primitives: `spawn`, `yield_now`, `JoinHandle`, and — in normal
/// builds only — `available_parallelism`: under the model checker the
/// machine's core count must not leak into schedules, so a model build has
/// no such function and code sized by it has a fixed loom form instead.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{available_parallelism, spawn, yield_now, JoinHandle};

    #[cfg(loom)]
    pub use crate::loom_thread::{spawn, yield_now, JoinHandle};
}

/// Spin-loop hint; a scheduling point under `--cfg loom` so that spin-wait
/// loops cannot monopolize the model scheduler.
pub mod hint {
    #[cfg(not(loom))]
    pub use std::hint::spin_loop;

    #[cfg(loom)]
    pub fn spin_loop() {
        crate::scheduler::yield_point();
    }
}

/// Per-thread slots and the one sharded counter: the thread-to-shard mapping
/// behind [`shard::Counters`] (the `mvkv-obs` instruments and the stores'
/// operation counters) and the PM allocator's arenas.
///
/// A thread **owns** a slot ([`shard::slot`]) from its first call until it
/// exits. Slots stay dense across the threads alive at once: an exiting
/// thread hands its slot back (a `Release` RMW on the free mask, from a TLS
/// destructor) and the next thread claims the lowest free one (an `Acquire`
/// CAS), which orders the dead owner's last store before the new owner's
/// first load. A process that spawns fresh workers for every phase thus
/// keeps each phase's workers on distinct slots. The PM allocator folds the
/// slot onto its `num_shards()` arenas (at most 64, the number of slots).
///
/// [`shard::Counters`] keeps one cache line of cells per shard and sums them
/// when read; a thread's shard is its slot capped at the overflow shard
/// `SHARDS - 1`. The owner of a slot below the cap is its line's only writer
/// and updates a cell with a plain load and store instead of a
/// `lock`-prefixed read-modify-write (~10x cheaper on x86). The threads on
/// higher slots share the overflow shard and use an atomic RMW there; so
/// does a thread's code in TLS destructors that run after the hand-back,
/// which sees the shared slot 64. No code outside this module writes a
/// shard by hand.
///
/// Under `--cfg loom` a model thread's slot is its index in the model
/// execution (the main thread 0, then spawn order), so it is the same on
/// every schedule replay and slots are unique within one execution — the
/// executions themselves run one after another. The owner path is then
/// under the model checker like any other.
pub mod shard {
    use crate::sync::atomic::{AtomicU64, Ordering};

    /// Writer shards per [`Counters`].
    pub const SHARDS: usize = 16;

    /// The shard shared by every thread whose slot is `OVERFLOW_SHARD` or
    /// higher; only it needs read-modify-write atomics.
    pub(crate) const OVERFLOW_SHARD: usize = SHARDS - 1;

    /// Slots owned at once; a thread that finds them all taken gets slot
    /// `SLOTS`, shared with its likes for life. 64 is the paper's maximum
    /// thread count and the allocator's maximum arena count.
    pub(crate) const SLOTS: usize = 64;

    /// This thread's shard index: its [`slot`] capped at
    /// [`OVERFLOW_SHARD`]. The thread is the shard's sole writer unless the
    /// index is `OVERFLOW_SHARD`.
    #[inline]
    pub(crate) fn shard_id() -> usize {
        slot().min(OVERFLOW_SHARD)
    }

    /// `N` monotonic counters, sharded per thread: each shard is one
    /// 64-byte-aligned line of `N` words (several lines when `N > 8`), so
    /// writers on different shards never share a line. Values wrap.
    pub struct Counters<const N: usize> {
        shards: [Line<N>; SHARDS],
    }

    #[repr(align(64))]
    struct Line<const N: usize>([AtomicU64; N]);

    impl<const N: usize> Counters<N> {
        pub fn new() -> Self {
            Counters {
                shards: std::array::from_fn(|_| Line(std::array::from_fn(|_| AtomicU64::new(0)))),
            }
        }

        /// Adds `delta` to counter `i` in this thread's shard.
        #[inline]
        pub fn add(&self, i: usize, delta: u64) {
            let id = shard_id();
            let cell = &self.shards[id].0[i];
            if id < OVERFLOW_SHARD {
                // ordering: this thread is the shard's only writer (an owned
                // shard passes to a new thread only after its owner exits,
                // through the slot hand-off's Acquire/Release; under loom
                // shards are unique within one model execution), so the
                // Relaxed load reads its own last store and the add cannot
                // lose an update. The Release store pairs with `sum`'s
                // Acquire loads.
                cell.store(cell.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Release);
            } else {
                cell.fetch_add(delta, Ordering::Release);
            }
        }

        /// Counter `i` summed over the shards. An `Acquire` load of a shard
        /// that observes an `add` also observes every earlier `add` of that
        /// thread to the same shard, so a reader that sums a counter bumped
        /// later before one bumped earlier never sees the later one ahead.
        pub fn sum(&self, i: usize) -> u64 {
            self.shards.iter().fold(0, |acc, s| acc.wrapping_add(s.0[i].load(Ordering::Acquire)))
        }
    }

    impl<const N: usize> Default for Counters<N> {
        fn default() -> Self {
            Self::new()
        }
    }

    /// This thread's slot, in `0..=64`; no two live threads share one
    /// below 64.
    #[cfg(not(loom))]
    #[inline]
    pub fn slot() -> usize {
        let v = owned::SLOT.with(std::cell::Cell::get);
        if v != usize::MAX {
            v
        } else {
            owned::claim()
        }
    }

    #[cfg(not(loom))]
    mod owned {
        use super::SLOTS;
        use std::cell::Cell;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Bit `i` is set while slot `i` has no live owner.
        static FREE: AtomicU64 = AtomicU64::new(u64::MAX);

        /// Hands the owned slot back when its thread exits.
        struct Owner(Cell<usize>);

        impl Drop for Owner {
            fn drop(&mut self) {
                let slot = self.0.get();
                if slot < SLOTS {
                    // A later call from another TLS destructor of this
                    // thread gets the shared slot; `SLOT` has no destructor,
                    // so it is still there.
                    SLOT.with(|s| s.set(SLOTS));
                    // ordering: Release so that the next claimer's Acquire
                    // CAS sees every store this owner made to its cells.
                    FREE.fetch_or(1 << slot, Ordering::Release);
                }
            }
        }

        thread_local! {
            /// The cached slot; `usize::MAX` until the thread's first call.
            pub(super) static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
            static OWNER: Owner = const { Owner(Cell::new(SLOTS)) };
        }

        /// Claims the lowest free slot, or the shared slot `SLOTS` when none
        /// is free or the thread is already tearing down its TLS (no
        /// destructor could hand a slot back).
        #[cold]
        pub(super) fn claim() -> usize {
            let slot = OWNER
                .try_with(|owner| {
                    let mut free = FREE.load(Ordering::Acquire);
                    while free != 0 {
                        let slot = free.trailing_zeros() as usize;
                        let rest = free & !(1 << slot);
                        match FREE.compare_exchange_weak(
                            free,
                            rest,
                            Ordering::Acquire,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                owner.0.set(slot);
                                return slot;
                            }
                            Err(now) => free = now,
                        }
                    }
                    SLOTS
                })
                .unwrap_or(SLOTS);
            SLOT.with(|s| s.set(slot));
            slot
        }
    }

    /// The model thread's index (capped at 64). A thread outside any
    /// model (a fixture, a plain unit test) is not serialized with its
    /// peers, so it gets the shared slot.
    #[cfg(loom)]
    pub fn slot() -> usize {
        crate::scheduler::current_tid().map_or(SLOTS, |i| i.min(SLOTS))
    }
}

#[cfg(loom)]
pub use scheduler::model;

#[cfg(all(test, not(loom)))]
mod tests {
    /// The slot tests claim slots from one process-wide mask: run them one
    /// at a time.
    static SLOTS_IN_USE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Sequential spawn/join hands the same few slots around (this thread's,
    /// the worker's, and those of whatever the test harness runs beside
    /// it), however many threads come and go.
    #[test]
    fn slots_are_reused_across_100_thread_lifetimes() {
        use crate::shard::{shard_id, slot, OVERFLOW_SHARD, SLOTS};
        let _serial = SLOTS_IN_USE.lock();
        let mine = slot();
        assert_eq!(mine, slot(), "a thread keeps its slot");
        assert!(mine < SLOTS && shard_id() == mine.min(OVERFLOW_SHARD));
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            // `join` returns after the thread's TLS destructors ran.
            seen.insert(std::thread::spawn(slot).join().expect("thread panicked"));
            assert!(seen.len() <= 4, "iteration {i}: slots not reused, saw {seen:?}");
        }
        assert!(seen.iter().all(|&s| s < SLOTS && s != mine));
    }

    /// Threads alive at once never share a slot below `SLOTS`, and once
    /// every slot is taken a newcomer gets the shared slot.
    #[test]
    fn live_threads_hold_distinct_slots_until_they_run_out() {
        use crate::shard::{slot, SLOTS};
        let _serial = SLOTS_IN_USE.lock();
        let n = SLOTS + 4;
        let gate = std::sync::Barrier::new(n);
        let mut slots: Vec<usize> = std::thread::scope(|s| {
            let h: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        let mine = slot();
                        gate.wait(); // every slot stays taken until all have one
                        mine
                    })
                })
                .collect();
            h.into_iter().map(|h| h.join().expect("thread panicked")).collect()
        });
        assert!(slots.contains(&SLOTS), "{n} live threads, {SLOTS} slots: {slots:?}");
        slots.retain(|&s| s < SLOTS);
        let owned = slots.len();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), owned, "a slot was held by two live threads");
    }

    /// More threads than shards: the late ones share the overflow shard,
    /// whose adds are read-modify-writes, while the early ones own theirs;
    /// once all have joined the sums are exact, counter by counter.
    #[test]
    fn counters_stay_exact_past_the_owned_shards() {
        use crate::shard::{Counters, SHARDS};
        let _serial = SLOTS_IN_USE.lock();
        let c = Counters::<2>::new();
        std::thread::scope(|scope| {
            for _ in 0..3 * SHARDS {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(0, 1);
                        c.add(1, 3);
                    }
                });
            }
        });
        assert_eq!(c.sum(0), 3 * SHARDS as u64 * 10_000);
        assert_eq!(c.sum(1), 9 * SHARDS as u64 * 10_000);
    }

    #[test]
    fn counters_are_a_line_per_shard() {
        use crate::shard::{Counters, SHARDS};
        assert_eq!(std::mem::size_of::<Counters<1>>(), 64 * SHARDS);
        assert_eq!(std::mem::size_of::<Counters<8>>(), 64 * SHARDS);
        assert_eq!(std::mem::size_of::<Counters<9>>(), 128 * SHARDS);
        assert_eq!(std::mem::align_of::<Counters<1>>(), 64);
    }

    #[test]
    fn facade_mutex_basics() {
        let m = crate::sync::Mutex::new(5u64);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn facade_atomics_are_std_atomics() {
        // Zero-cost claim: the facade type IS std's type in normal builds.
        let a: crate::sync::atomic::AtomicU64 = crate::sync::atomic::AtomicU64::new(3);
        let b: &std::sync::atomic::AtomicU64 = &a;
        assert_eq!(b.load(std::sync::atomic::Ordering::SeqCst), 3);
    }
}
