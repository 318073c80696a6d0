//! # mvkv-sync — the workspace synchronization facade
//!
//! Every concurrency-critical crate (`mvkv-skiplist`, `mvkv-vhistory`,
//! `mvkv-pmem`) imports its atomics, mutexes and thread primitives from this
//! crate instead of `std::sync` — a rule enforced by `cargo run -p xtask --
//! analyze`. The facade has two personalities:
//!
//! * **Normal builds** re-export `std::sync::atomic`, `std::sync::Arc` and
//!   `std::thread` wholesale (zero-cost: the types *are* the std types), plus
//!   a non-poisoning [`sync::Mutex`].
//! * **`--cfg loom` builds** swap every primitive for a wrapper that routes
//!   through a built-in cooperative model-checking scheduler ([`model`]),
//!   loom-API-compatible so the real `loom` crate can be dropped in when a
//!   registry is available. The scheduler runs the model function under
//!   exhaustively enumerated thread interleavings (depth-first over the
//!   schedule tree, preemption-bounded), with deadlock detection and
//!   deterministic replay.
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
//! ## Knobs (env, loom-compatible spirit)
//!
//! * `MVKV_LOOM_MAX_SCHEDULES` — schedule cap per `model()` (default 10000).
//! * `MVKV_LOOM_PREEMPTIONS` — preemption bound for the DFS (default 2; a
//!   bound of 2–3 finds the vast majority of real interleaving bugs while
//!   keeping the search tractable, per the context-bounding literature).
//! * `MVKV_LOOM_LOG=1` — print the explored-schedule count per model.

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

/// Synchronization primitives: `sync::atomic::*`, `sync::Arc`, `sync::Mutex`.
pub mod sync {
    #[cfg(not(loom))]
    pub use std::sync::Arc;
    #[cfg(not(loom))]
    pub use crate::std_sync::{Mutex, MutexGuard};

    #[cfg(loom)]
    pub use std::sync::Arc;
    #[cfg(loom)]
    pub use crate::loom_sync::{Mutex, MutexGuard};

    /// Atomic types; scheduler-instrumented under `--cfg loom`.
    pub mod atomic {
        #[cfg(not(loom))]
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };

        #[cfg(loom)]
        pub use crate::loom_atomic::{
            fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
        };
        #[cfg(loom)]
        pub use std::sync::atomic::Ordering;
    }
}

/// Thread primitives: `spawn`, `yield_now`, `JoinHandle`.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{available_parallelism, spawn, yield_now, JoinHandle};

    #[cfg(loom)]
    pub use crate::loom_thread::{spawn, yield_now, JoinHandle};

    /// Under the model checker the machine's core count must not leak into
    /// schedules: models are replayed on arbitrary hosts, so anything
    /// sizing itself from parallelism sees a fixed small value.
    #[cfg(loom)]
    pub fn available_parallelism() -> std::io::Result<std::num::NonZeroUsize> {
        Ok(std::num::NonZeroUsize::new(2).expect("non-zero"))
    }
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

/// Per-thread writer shards for statistics: the one thread-to-shard mapping
/// behind both `mvkv-obs` instruments and the stores' operation counters.
///
/// A sharded counter keeps one cell per shard and sums them when read. The
/// first `SHARDS - 1` threads of the process each **own** a shard for life —
/// ids are never reused — so the owner is the cell's only writer and can
/// update it with a plain load and store instead of a `lock`-prefixed
/// read-modify-write (~10x cheaper on x86). Every later thread shares
/// [`shard::OVERFLOW_SHARD`] and must use an atomic RMW there.
pub mod shard {
    /// Writer shards per sharded statistic.
    pub const SHARDS: usize = 16;

    /// The shard shared by every thread beyond the first `SHARDS - 1`; only
    /// it needs read-modify-write atomics.
    pub const OVERFLOW_SHARD: usize = SHARDS - 1;

    /// This thread's shard index; the thread is the shard's sole writer
    /// unless the index is [`OVERFLOW_SHARD`].
    #[cfg(not(loom))]
    #[inline]
    pub fn shard_id() -> usize {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        thread_local! {
            static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        SHARD.with(|s| {
            let v = s.get();
            if v != usize::MAX {
                v
            } else {
                static NEXT: AtomicUsize = AtomicUsize::new(0);
                // ordering: id handout only needs uniqueness, nothing is
                // published through it.
                let v = NEXT.fetch_add(1, Ordering::Relaxed).min(OVERFLOW_SHARD);
                s.set(v);
                v
            }
        })
    }

    /// Under the model checker every thread reports the shared shard: a
    /// process-global handout would drift across schedule replays, and the
    /// RMW path is correct for any number of writers.
    #[cfg(loom)]
    pub fn shard_id() -> usize {
        OVERFLOW_SHARD
    }
}

/// Runs `f` under the model checker (`--cfg loom`) or exactly once
/// (normal builds — so model tests are also cheap smoke tests when the
/// loom cfg is off).
#[cfg(not(loom))]
pub fn model<F: Fn() + Send + Sync + 'static>(f: F) {
    f();
}

#[cfg(loom)]
pub use scheduler::{model, model_thread_index};

#[cfg(all(test, not(loom)))]
mod tests {
    #[test]
    fn model_runs_once_without_loom() {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c = counter.clone();
        crate::model(move || {
            c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn shard_ids_are_stable_owned_once_then_shared() {
        use crate::shard::{shard_id, OVERFLOW_SHARD, SHARDS};
        let mine = shard_id();
        assert_eq!(mine, shard_id(), "a thread keeps its shard");
        let mut ids = vec![mine];
        for _ in 0..2 * SHARDS {
            ids.push(std::thread::spawn(shard_id).join().expect("thread panicked"));
        }
        // Ids are never reused: once more threads than shards have come and
        // gone, newcomers share the overflow shard.
        assert!(ids.iter().all(|&id| id <= OVERFLOW_SHARD));
        assert_eq!(ids.last(), Some(&OVERFLOW_SHARD));
        let mut owned: Vec<usize> = ids.into_iter().filter(|&id| id < OVERFLOW_SHARD).collect();
        let handed_out = owned.len();
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), handed_out, "an owned shard was handed out twice");
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
