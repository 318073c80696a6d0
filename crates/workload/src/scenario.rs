//! The exact experiment recipes of the paper's evaluation (§V-D .. §V-H).
//!
//! Every single-node experiment builds on the same state machine:
//!
//! 1. **Phase 1** (§V-D): insert `N` pre-generated pairs with unique keys,
//!    evenly distributed over `T` threads.
//! 2. **Phase 2** (§V-D): remove a random shuffling of those `N` keys,
//!    evenly distributed over `T` threads.
//! 3. **Phase 3** (§V-E): insert another `N` *different* pre-generated pairs,
//!    yielding `P = 2N` distinct keys, each with a history of either one
//!    insert, or an insert followed by a remove.
//! 4. Query mixes (§V-E..G): each thread picks `N/T` random keys out of `P`
//!    and runs `find` (at a random version) or `extract_history`; or each
//!    thread runs a whole `extract_snapshot` at a random version (§V-F).
//!
//! The paper tags after *every* insert and remove, so version numbers
//! coincide with operation indices.

use crate::keys::{derive_seed, partition_even, shuffled_keys, unique_pairs, KeyValue};
use crate::mt19937::Mt19937_64;

/// Upper bound (exclusive) for generated values. Values strictly below this
/// leave headroom for out-of-band removal markers used by baseline engines
/// (the paper's SQLite baseline encodes removals as "a special marker outside
/// of the allowable range of valid values").
pub const VALUE_BOUND: u64 = 1 << 62;

/// Identifies one phase of the canonical experiment state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioPhase {
    /// Phase 1: `N` inserts of fresh keys.
    FirstInserts,
    /// Phase 2: `N` removes of phase-1 keys, shuffled.
    Removals,
    /// Phase 3: `N` inserts of fresh keys (disjoint from phase 1).
    SecondInserts,
}

/// Parameters of the canonical paper scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Number of operations per phase (the paper's `N`, 10^6 on Theta).
    pub n: usize,
    /// Number of worker threads (the paper's `T`, 1..64).
    pub threads: usize,
    /// Master seed; per-thread streams are derived deterministically.
    pub seed: u64,
}

/// All pre-generated operation streams for one scenario instance.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// Phase 1 pairs (unique keys), in global issue order.
    pub first_inserts: Vec<KeyValue>,
    /// Phase 2: shuffled keys of `first_inserts`.
    pub removals: Vec<u64>,
    /// Phase 3 pairs; keys unique and disjoint from phase 1.
    pub second_inserts: Vec<KeyValue>,
    threads: usize,
}

impl Scenario {
    pub fn new(n: usize, threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "at least one thread");
        Scenario { n, threads, seed }
    }

    /// Pre-generates every operation stream (the paper caches the input so
    /// that generation cost does not pollute the measurements).
    pub fn generate(&self) -> GeneratedWorkload {
        let mut rng = Mt19937_64::new(self.seed);
        // Draw 2N unique pairs in one pass to guarantee phase-1/phase-3
        // key disjointness, then split.
        let all = unique_pairs(&mut rng, self.n * 2);
        let (first, second) = all.split_at(self.n);
        let first_inserts = first.to_vec();
        let second_inserts = second.to_vec();
        let removals = shuffled_keys(&mut rng, &first_inserts);
        GeneratedWorkload { first_inserts, removals, second_inserts, threads: self.threads }
    }
}

impl GeneratedWorkload {
    /// The same operation streams re-partitioned for a different thread
    /// count (queries in the paper's §V-E sweep T while the state — and
    /// thus the streams — stays fixed).
    pub fn clone_with_threads(&self, threads: usize) -> GeneratedWorkload {
        assert!(threads > 0);
        GeneratedWorkload { threads, ..self.clone() }
    }

    /// Phase-1 pairs split evenly across threads.
    pub fn inserts_per_thread(&self) -> Vec<Vec<KeyValue>> {
        partition_even(&self.first_inserts, self.threads)
    }

    /// Phase-2 keys split evenly across threads.
    pub fn removals_per_thread(&self) -> Vec<Vec<u64>> {
        partition_even(&self.removals, self.threads)
    }

    /// Phase-3 pairs split evenly across threads.
    pub fn second_inserts_per_thread(&self) -> Vec<Vec<KeyValue>> {
        partition_even(&self.second_inserts, self.threads)
    }

    /// All `P = 2N` distinct keys present after phase 3.
    pub fn all_keys(&self) -> Vec<u64> {
        self.first_inserts.iter().chain(self.second_inserts.iter()).map(|kv| kv.key).collect()
    }

    /// Query workload of §V-E: for each thread, `per_thread` random
    /// `(key, version)` probes over the `P` keys; versions uniform in
    /// `[0, max_version]`.
    pub fn query_mix(
        &self,
        per_thread: usize,
        max_version: u64,
        seed: u64,
    ) -> Vec<Vec<(u64, u64)>> {
        let keys = self.all_keys();
        (0..self.threads)
            .map(|tid| {
                // Fixed per-thread seeds, as in the paper (§V-C); the
                // splitting rule is shared with the mix engine (`keys.rs`).
                let mut rng = Mt19937_64::new(derive_seed(seed, tid as u64));
                (0..per_thread)
                    .map(|_| {
                        let k = keys[rng.next_below(keys.len() as u64) as usize];
                        let v = rng.next_below(max_version + 1);
                        (k, v)
                    })
                    .collect()
            })
            .collect()
    }

    /// Random snapshot versions, one per thread (§V-F).
    pub fn snapshot_versions(&self, max_version: u64, seed: u64) -> Vec<u64> {
        let mut rng = Mt19937_64::new(seed);
        (0..self.threads).map(|_| rng.next_below(max_version + 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn phases_have_expected_sizes() {
        let w = Scenario::new(1000, 4, 42).generate();
        assert_eq!(w.first_inserts.len(), 1000);
        assert_eq!(w.removals.len(), 1000);
        assert_eq!(w.second_inserts.len(), 1000);
        assert_eq!(w.all_keys().len(), 2000);
    }

    #[test]
    fn phase_keys_are_disjoint() {
        let w = Scenario::new(2000, 2, 7).generate();
        let a: HashSet<u64> = w.first_inserts.iter().map(|p| p.key).collect();
        let b: HashSet<u64> = w.second_inserts.iter().map(|p| p.key).collect();
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn removals_cover_exactly_phase_one() {
        let w = Scenario::new(500, 3, 1).generate();
        let mut removed = w.removals.clone();
        let mut inserted: Vec<u64> = w.first_inserts.iter().map(|p| p.key).collect();
        removed.sort_unstable();
        inserted.sort_unstable();
        assert_eq!(removed, inserted);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::new(300, 8, 99).generate();
        let b = Scenario::new(300, 8, 99).generate();
        assert_eq!(a.first_inserts, b.first_inserts);
        assert_eq!(a.removals, b.removals);
        assert_eq!(a.second_inserts, b.second_inserts);
    }

    #[test]
    fn thread_partitions_reassemble() {
        let w = Scenario::new(1001, 7, 5).generate();
        let flat: Vec<KeyValue> = w.inserts_per_thread().concat();
        assert_eq!(flat, w.first_inserts);
    }

    #[test]
    fn query_mix_uses_known_keys_and_versions() {
        let w = Scenario::new(200, 4, 11).generate();
        let keys: HashSet<u64> = w.all_keys().into_iter().collect();
        let queries = w.query_mix(50, 400, 123);
        assert_eq!(queries.len(), 4);
        for tq in &queries {
            assert_eq!(tq.len(), 50);
            for &(k, v) in tq {
                assert!(keys.contains(&k));
                assert!(v <= 400);
            }
        }
    }

    #[test]
    fn query_mix_differs_across_threads() {
        let w = Scenario::new(200, 2, 11).generate();
        let q = w.query_mix(50, 400, 123);
        assert_ne!(q[0], q[1]);
    }
}
