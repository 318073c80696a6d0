//! Key-value pair generation and partitioning.
//!
//! The paper's single-node experiments (§V-D) pre-generate `N` key-value
//! pairs with *unique* keys ("forcing the insert operations to exhibit a
//! worst-case scenario"), distribute them evenly to `T` threads, and later
//! remove a random shuffling of the same keys.

use crate::mt19937::Mt19937_64;
use std::collections::HashSet;

/// A tiny key-value pair as used throughout the paper's evaluation:
/// both key and value are 64-bit integers (§V-C "tiny key-value pairs,
/// where each key and value are represented by integers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyValue {
    pub key: u64,
    pub value: u64,
}

/// Generates `n` key-value pairs whose keys are unique, drawn from the given
/// seeded PRNG. Values are unconstrained random integers below
/// [`crate::scenario::VALUE_BOUND`] so that out-of-band markers remain
/// representable by baselines that need them.
pub fn unique_pairs(rng: &mut Mt19937_64, n: usize) -> Vec<KeyValue> {
    let mut seen = HashSet::with_capacity(n * 2);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let key = rng.next_u64();
        if seen.insert(key) {
            let value = rng.next_below(crate::scenario::VALUE_BOUND);
            out.push(KeyValue { key, value });
        }
    }
    out
}

/// Generates `n` unique keys only.
pub fn unique_keys(rng: &mut Mt19937_64, n: usize) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(n * 2);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let key = rng.next_u64();
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

/// Derives the seed of sub-stream `lane` from one master seed — the single
/// seeded-stream-splitting rule of the whole workload crate. The canonical
/// paper scenario ([`crate::scenario::GeneratedWorkload::query_mix`]) uses it
/// for per-thread query streams and the YCSB-style mix engine
/// ([`crate::mix`]) for its op/value/scenario sub-streams, so the two engines
/// cannot drift apart. The multiplier is the golden-ratio increment used by
/// SplitMix64; distinct lanes land in distinct MT19937-64 seed orbits.
#[inline]
pub fn derive_seed(master: u64, lane: u64) -> u64 {
    master ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Order-sensitive fingerprint of a word stream (FNV-style fold through the
/// SplitMix64 finalizer). Used to hash-pin generated op streams: the golden
/// regression tests and the benchmark's `fingerprints.lock` both compare
/// these 64-bit digests instead of whole streams.
pub fn stream_fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for w in words {
        h = mix64(h ^ w);
    }
    h
}

/// SplitMix64 finalizer: a fixed bijection on `u64` used both as the
/// fingerprint mixer and as the rank→key spreading map of the mix engine.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Splits `data` into `parts` contiguous chunks whose sizes differ by at most
/// one — the paper's "evenly distribute them to T threads".
pub fn partition_even<T: Clone>(data: &[T], parts: usize) -> Vec<Vec<T>> {
    assert!(parts > 0);
    let base = data.len() / parts;
    let extra = data.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(data[cursor..cursor + len].to_vec());
        cursor += len;
    }
    debug_assert_eq!(cursor, data.len());
    out
}

/// Returns a shuffled copy of the keys of `pairs` (the removal phase input).
pub fn shuffled_keys(rng: &mut Mt19937_64, pairs: &[KeyValue]) -> Vec<u64> {
    let mut keys: Vec<u64> = pairs.iter().map(|kv| kv.key).collect();
    rng.shuffle(&mut keys);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_pairs_have_unique_keys() {
        let mut rng = Mt19937_64::new(1);
        let pairs = unique_pairs(&mut rng, 10_000);
        assert_eq!(pairs.len(), 10_000);
        let keys: HashSet<u64> = pairs.iter().map(|p| p.key).collect();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn unique_pairs_deterministic_per_seed() {
        let mut a = Mt19937_64::new(99);
        let mut b = Mt19937_64::new(99);
        assert_eq!(unique_pairs(&mut a, 1000), unique_pairs(&mut b, 1000));
    }

    #[test]
    fn values_respect_bound() {
        let mut rng = Mt19937_64::new(3);
        for p in unique_pairs(&mut rng, 5000) {
            assert!(p.value < crate::scenario::VALUE_BOUND);
        }
    }

    #[test]
    fn partition_even_is_balanced_and_complete() {
        let data: Vec<u32> = (0..103).collect();
        let parts = partition_even(&data, 8);
        assert_eq!(parts.len(), 8);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        let flat: Vec<u32> = parts.concat();
        assert_eq!(flat, data);
    }

    #[test]
    fn partition_even_more_parts_than_items() {
        let data = vec![1, 2, 3];
        let parts = partition_even(&data, 10);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 3);
        assert_eq!(parts.len(), 10);
    }

    #[test]
    fn derive_seed_matches_the_historical_inline_rule() {
        // `query_mix` used this exact expression inline before the helper
        // was extracted; the canonical per-thread query streams depend on
        // it bit-for-bit.
        for (master, tid) in [(123u64, 0u64), (0xC0FFEE, 3), (u64::MAX, 63)] {
            assert_eq!(derive_seed(master, tid), master ^ tid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }

    #[test]
    fn mix64_is_injective_on_a_sample() {
        let mut seen = HashSet::new();
        for x in 0..100_000u64 {
            assert!(seen.insert(mix64(x)));
        }
    }

    #[test]
    fn stream_fingerprint_is_order_sensitive() {
        assert_ne!(stream_fingerprint([1, 2, 3]), stream_fingerprint([3, 2, 1]));
        assert_ne!(stream_fingerprint([1, 2]), stream_fingerprint([1, 2, 0]));
        assert_eq!(stream_fingerprint([7, 8, 9]), stream_fingerprint([7, 8, 9]));
    }

    #[test]
    fn shuffled_keys_is_permutation_of_inputs() {
        let mut rng = Mt19937_64::new(5);
        let pairs = unique_pairs(&mut rng, 2000);
        let shuffled = shuffled_keys(&mut rng, &pairs);
        let mut a: Vec<u64> = pairs.iter().map(|p| p.key).collect();
        let mut b = shuffled.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
