//! Bounded model checking of the tag-chain cache protocol
//! (`PSkipList::labels_from_chain` over `Labels::extend_to`):
//! lock-check-extend over an append-only chain.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p mvkv-core --release`
//!
//! The real cache sits behind PM-backed `KeyChain` iteration, which the
//! model cannot drive slot-by-slot, so this is a *protocol replica*: the
//! chain is an append-only array published entry-before-length (Release on
//! the length, exactly like `KeyChain::push` publishes links before
//! bumping `len`), and the cache is a `Mutex<Vec<_>>` extended under the
//! lock with `chain[cache.len()..len]` — the same read-mostly fast path as
//! `Labels::extend_to`. The model checks the invariant the resolver relies
//! on: the cache is always a prefix of the chain, never torn, duplicated,
//! or reordered, no matter how appenders and cache refreshers interleave.

#![cfg(loom)]

use mvkv_sync::sync::atomic::{AtomicU64, Ordering};
use mvkv_sync::sync::{Arc, Mutex};
use mvkv_sync::{model, thread};

const CHAIN_CAP: usize = 4;

/// Append-only tag chain: entries published before the length (Release),
/// mirroring the keychain's link-then-bump persistence order.
struct TagChain {
    entries: [AtomicU64; CHAIN_CAP],
    len: AtomicU64,
}

impl TagChain {
    fn new() -> Self {
        TagChain { entries: std::array::from_fn(|_| AtomicU64::new(0)), len: AtomicU64::new(0) }
    }

    /// Single-appender push: write the entry, then publish the new length.
    fn push(&self, label: u64) {
        let n = self.len.load(Ordering::Relaxed) as usize;
        self.entries[n].store(label, Ordering::Relaxed);
        self.len.store(n as u64 + 1, Ordering::Release);
    }
}

/// The lock-check-extend fast path of `Labels::extend_to`: under the lock,
/// copy only the chain suffix the cache has not seen yet.
fn with_cache<R>(chain: &TagChain, cache: &Mutex<Vec<u64>>, f: impl FnOnce(&[u64]) -> R) -> R {
    let mut cache = cache.lock();
    let n = chain.len.load(Ordering::Acquire) as usize;
    if cache.len() < n {
        for i in cache.len()..n {
            cache.push(chain.entries[i].load(Ordering::Relaxed));
        }
    }
    f(&cache)
}

/// An appender growing the chain races two cache users: every observed
/// cache must be a prefix of the final chain (never torn or reordered),
/// and successive observations by one thread never shrink.
#[test]
fn cache_is_always_an_untorn_chain_prefix() {
    model(|| {
        let chain = Arc::new(TagChain::new());
        let cache = Arc::new(Mutex::new(Vec::new()));
        let c2 = chain.clone();
        let w = thread::spawn(move || {
            c2.push(11);
            c2.push(22);
        });

        let expected = [11u64, 22];
        let first_len = with_cache(&chain, &cache, |view| {
            assert!(view.len() <= 2);
            assert_eq!(view, &expected[..view.len()], "cache is not a chain prefix");
            view.len()
        });
        with_cache(&chain, &cache, |view| {
            assert!(view.len() >= first_len, "cache went backwards");
            assert_eq!(view, &expected[..view.len()]);
        });
        w.join().unwrap();

        // After the appender is joined, a refresh must surface everything.
        with_cache(&chain, &cache, |view| assert_eq!(view, &expected));
    });
}

/// Two cache refreshers race each other and the appender: the mutex must
/// serialize the extends so no entry is ever duplicated into the cache.
#[test]
fn racing_refreshers_never_duplicate_entries() {
    model(|| {
        let chain = Arc::new(TagChain::new());
        let cache = Arc::new(Mutex::new(Vec::new()));
        chain.push(7);
        let (c2, k2) = (chain.clone(), cache.clone());
        let t = thread::spawn(move || {
            c2.push(8);
            with_cache(&c2, &k2, |view| view.len())
        });
        with_cache(&chain, &cache, |view| {
            assert!(view.len() <= 2);
            assert_eq!(view[0], 7);
        });
        t.join().unwrap();
        with_cache(&chain, &cache, |view| {
            assert_eq!(view, &[7, 8], "duplicate or lost entry after racing extends");
        });
    });
}
