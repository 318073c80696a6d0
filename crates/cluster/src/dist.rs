//! Distributed multi-version store over the virtual-time cluster model
//! (paper §V-H).
//!
//! `K` ranks each own a [`mvkv_core::VersionedStore`] holding a partition
//! of the key space. Rank 0 initiates queries:
//!
//! * **find** — broadcast `(key, version)` to all ranks, each runs the
//!   local lookup, reduce the replies back to rank 0 (the paper's two
//!   MPI-collective implementation, Fig 6).
//! * **gather snapshot** — every rank extracts its partition's snapshot,
//!   rank 0 gathers the raw partitions (Fig 7 — "the lowest possible
//!   overhead of accessing the whole snapshot without preserving a
//!   globally sorted key order").
//! * **merged snapshot** — [`MergeStrategy::Naive`] gathers everything and
//!   K-way merges on rank 0; [`MergeStrategy::Opt`] uses recursive
//!   doubling: `log2(K)` rounds in which odd-numbered survivors send their
//!   sorted runs to even survivors, which merge with the multi-threaded
//!   two-way merge (Fig 8).
//!
//! Per-rank compute runs on the real stores and is measured with a real
//! clock; communication advances the per-rank virtual clocks of
//! [`VirtualNet`]. Reported times are virtual-cluster times at rank 0.

use crate::merge::{kway_merge, merge_two_parallel, Pair};
use crate::net::{NetModel, VirtualNet};
use mvkv_core::{StoreSession, VersionedStore};
use std::time::{Duration, Instant};

/// How a distributed extract-snapshot merges partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Gather all partitions on rank 0, K-way merge there.
    Naive,
    /// Recursive doubling with multi-threaded two-way merges.
    Opt {
        /// Threads per rank for the two-way merge.
        threads: usize,
    },
}

/// Size of one serialized key-value pair on the wire.
const PAIR_BYTES: u64 = 16;
/// Size of a find query / reply message.
const QUERY_BYTES: u64 = 16;
const REPLY_BYTES: u64 = 16;

/// A cluster of rank-local stores under the virtual-time network model.
///
/// # Examples
///
/// ```
/// use mvkv_cluster::{DistStore, MergeStrategy, NetModel};
/// use mvkv_core::{ESkipList, StoreSession, VersionedStore};
///
/// // Two ranks, each owning half the key space.
/// let ranks: Vec<ESkipList> = (0..2)
///     .map(|r| {
///         let store = ESkipList::new();
///         store.session().insert(r as u64, r as u64 * 10);
///         store
///     })
///     .collect();
/// let mut cluster = DistStore::new(ranks, NetModel::theta_like());
/// let (hit, _sim_time) = cluster.find(1, u64::MAX);
/// assert_eq!(hit, Some(10));
/// let (snap, _) = cluster.extract_snapshot(u64::MAX, MergeStrategy::Opt { threads: 2 });
/// assert_eq!(snap, vec![(0, 0), (1, 10)]);
/// ```
pub struct DistStore<S: VersionedStore> {
    ranks: Vec<S>,
    net: VirtualNet,
}

impl<S: VersionedStore> DistStore<S> {
    /// Builds a cluster from already populated per-rank stores.
    pub fn new(ranks: Vec<S>, model: NetModel) -> Self {
        let k = ranks.len();
        assert!(k >= 1);
        DistStore { ranks, net: VirtualNet::new(k, model) }
    }

    /// Resets the virtual clocks (between experiments).
    pub fn reset_clocks(&mut self) {
        self.net.reset();
    }

    /// Distributed find (paper Fig 6): bcast the query, local lookups in
    /// parallel, reduce replies to rank 0. Returns the answer and the
    /// virtual completion time at rank 0 for this query.
    pub fn find(&mut self, key: u64, version: u64) -> (Option<u64>, Duration) {
        let start = self.net.time(0);
        self.net.bcast(QUERY_BYTES);
        let mut answer = None;
        for r in 0..self.ranks.len() {
            let t = Instant::now();
            let local = self.ranks[r].session().find(key, version);
            self.net.charge(r, t.elapsed());
            if local.is_some() {
                answer = local;
            }
        }
        self.net.reduce(REPLY_BYTES);
        (answer, self.net.time(0) - start)
    }

    /// Bulk-mode distributed find (paper §V-H: "queries can also run in
    /// bulk mode — multiple queries in a single broadcast"): one broadcast
    /// carries the whole batch, each rank answers all queries locally, one
    /// gather returns the per-rank reply vectors. Amortizes the collective
    /// latency that bounds the one-at-a-time throughput of
    /// [`DistStore::find`].
    pub fn find_bulk(&mut self, queries: &[(u64, u64)]) -> (Vec<Option<u64>>, Duration) {
        let start = self.net.time(0);
        let batch_bytes = queries.len() as u64 * QUERY_BYTES;
        self.net.bcast(batch_bytes);
        let mut answers: Vec<Option<u64>> = vec![None; queries.len()];
        for r in 0..self.ranks.len() {
            let t = Instant::now();
            let session = self.ranks[r].session();
            for (slot, &(key, version)) in queries.iter().enumerate() {
                if let Some(v) = session.find(key, version) {
                    answers[slot] = Some(v);
                }
            }
            self.net.charge(r, t.elapsed());
        }
        self.net.gather(|_| queries.len() as u64 * REPLY_BYTES);
        (answers, self.net.time(0) - start)
    }

    /// Runs `extract_snapshot` on every rank (compute charged locally) and
    /// returns the per-rank partitions.
    fn local_snapshots(&mut self, version: u64) -> Vec<Vec<Pair>> {
        (0..self.ranks.len())
            .map(|r| {
                let t = Instant::now();
                let snap = self.ranks[r].session().extract_snapshot(version);
                self.net.charge(r, t.elapsed());
                snap
            })
            .collect()
    }

    /// Distributed gather of the full snapshot without global sorting
    /// (paper Fig 7). Returns the unmerged partitions and the virtual time
    /// at rank 0.
    pub fn gather_snapshot(&mut self, version: u64) -> (Vec<Vec<Pair>>, Duration) {
        let start = self.net.time(0);
        self.net.bcast(QUERY_BYTES);
        let parts = self.local_snapshots(version);
        self.net.gather(|r| parts[r].len() as u64 * PAIR_BYTES);
        (parts, self.net.time(0) - start)
    }

    /// Distributed extract snapshot with a globally sorted result
    /// (paper Fig 8). Returns the merged snapshot and the virtual time at
    /// rank 0.
    pub fn extract_snapshot(
        &mut self,
        version: u64,
        strategy: MergeStrategy,
    ) -> (Vec<Pair>, Duration) {
        let start = self.net.time(0);
        self.net.bcast(QUERY_BYTES);
        let mut parts = self.local_snapshots(version);
        match strategy {
            MergeStrategy::Naive => {
                self.net.gather(|r| parts[r].len() as u64 * PAIR_BYTES);
                let t = Instant::now();
                let merged = kway_merge(&parts);
                self.net.charge(0, t.elapsed());
                (merged, self.net.time(0) - start)
            }
            MergeStrategy::Opt { threads } => {
                // Recursive doubling: in round `step`, rank r (r odd
                // multiple of `step`) sends its run to r - step, which
                // merges with the multi-threaded kernel. log2(K) rounds.
                let k = self.ranks.len();
                let mut step = 1usize;
                while step < k {
                    let mut src = step;
                    while src < k {
                        if src % (step * 2) == step {
                            let dst = src - step;
                            let sent = std::mem::take(&mut parts[src]);
                            self.net.send(src, dst, sent.len() as u64 * PAIR_BYTES);
                            let t = Instant::now();
                            let merged = merge_two_parallel(&parts[dst], &sent, threads);
                            self.net.charge(dst, t.elapsed());
                            parts[dst] = merged;
                        }
                        src += step;
                    }
                    step <<= 1;
                }
                let merged = std::mem::take(&mut parts[0]);
                (merged, self.net.time(0) - start)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvkv_core::ESkipList;

    /// K ESkipList ranks, rank r owning keys ≡ r (mod K), n keys per rank.
    fn cluster(k: usize, n: u64) -> DistStore<ESkipList> {
        cluster_on(k, n, NetModel::theta_like())
    }

    fn cluster_on(k: usize, n: u64, model: NetModel) -> DistStore<ESkipList> {
        let ranks: Vec<ESkipList> = (0..k)
            .map(|r| {
                let store = ESkipList::new();
                {
                    let s = store.session();
                    for i in 0..n {
                        let key = i * k as u64 + r as u64;
                        s.insert(key, key + 1);
                    }
                }
                store
            })
            .collect();
        DistStore::new(ranks, model)
    }

    #[test]
    fn distributed_find_locates_any_key() {
        let mut c = cluster(4, 100);
        for key in [0u64, 1, 5, 77, 399] {
            let (result, took) = c.find(key, u64::MAX);
            assert_eq!(result, Some(key + 1), "key {key}");
            assert!(took > Duration::ZERO);
        }
        let (missing, _) = c.find(100_000, u64::MAX);
        assert_eq!(missing, None);
    }

    #[test]
    fn bulk_find_matches_single_finds_and_is_faster() {
        // Every charge includes measured compute, so a 1 ms latency keeps a
        // preempted lookup from deciding the comparison: 51 single finds
        // wait 4 latencies each (2 bcast + 2 reduce rounds), the bulk 5.
        let slow = NetModel { latency: Duration::from_millis(1), bandwidth: 8.0e9 };
        let mut c = cluster_on(4, 100, slow);
        let queries: Vec<(u64, u64)> =
            (0..50u64).map(|i| (i * 7 % 400, u64::MAX)).chain([(99_999, u64::MAX)]).collect();
        let (bulk, t_bulk) = c.find_bulk(&queries);
        c.reset_clocks();
        let mut singles = Vec::new();
        let mut t_single = Duration::ZERO;
        for &(k, v) in &queries {
            let (r, took) = c.find(k, v);
            singles.push(r);
            t_single += took;
        }
        assert_eq!(bulk, singles);
        assert_eq!(bulk[50], None, "unknown key");
        assert!(t_bulk < t_single, "bulk amortizes collective latency: {t_bulk:?} vs {t_single:?}");
    }

    #[test]
    fn gather_returns_all_partitions() {
        let mut c = cluster(3, 50);
        let (parts, took) = c.gather_snapshot(u64::MAX);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 150);
        assert!(took > Duration::ZERO);
    }

    #[test]
    fn naive_and_opt_merge_agree_and_are_sorted() {
        for k in [1usize, 2, 4, 7, 8] {
            let (naive, _) = cluster(k, 200).extract_snapshot(u64::MAX, MergeStrategy::Naive);
            let (opt, _) =
                cluster(k, 200).extract_snapshot(u64::MAX, MergeStrategy::Opt { threads: 4 });
            assert_eq!(naive.len(), 200 * k);
            assert_eq!(naive, opt, "K={k}");
            assert!(naive.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn snapshot_respects_versions_across_ranks() {
        // Each rank inserts its keys at interleaved global "times"; a
        // version cut must hide later inserts. (Each rank has its own
        // clock, so versions are per-rank here; use max-version on all but
        // probe one rank's cut.)
        let mut c = cluster(2, 10);
        let (full, _) = c.extract_snapshot(u64::MAX, MergeStrategy::Naive);
        assert_eq!(full.len(), 20);
        let (cut, _) = c.extract_snapshot(5, MergeStrategy::Naive);
        assert_eq!(cut.len(), 10, "each rank contributes its first 5 inserts");
    }

    #[test]
    fn virtual_time_grows_with_cluster_size() {
        // Virtual time includes measured compute, and one preempted lookup
        // outweighs the extra rounds: compare the best of a few queries.
        let best = |c: &mut DistStore<ESkipList>| {
            (0..5)
                .map(|_| {
                    c.reset_clocks();
                    c.find(0, u64::MAX).1
                })
                .min()
                .expect("at least one query")
        };
        let t_small = best(&mut cluster(2, 100));
        let t_large = best(&mut cluster(16, 100));
        assert!(
            t_large > t_small,
            "more ranks → more collective rounds: {t_small:?} vs {t_large:?}"
        );
    }

    #[test]
    fn clock_reset() {
        let mut c = cluster(2, 10);
        let _ = c.find(1, u64::MAX);
        assert!(c.net.time(0) > Duration::ZERO);
        c.reset_clocks();
        assert_eq!(c.net.time(0), Duration::ZERO);
    }
}
