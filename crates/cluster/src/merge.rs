//! Merge kernels (paper §IV-A, "hierarchic multi-threaded merge").
//!
//! * [`merge_two`] — sequential two-way merge of sorted pair arrays.
//! * [`merge_two_parallel`] — the paper's multi-threaded two-way merge:
//!   partition `A` evenly among threads, binary-search each partition's
//!   upper boundary in `B`, then merge all partitions concurrently into
//!   disjoint output ranges.
//! * [`kway_merge`] — the naive K-way merge baseline (NaiveMerge's rank-0
//!   step).
//!
//! Keys are assumed distinct across inputs (ranks own disjoint key
//! ranges); equal keys are kept from the earlier input, preserving
//! determinism either way.

use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(key, value)` pair as produced by `extract_snapshot`.
pub type Pair = (u64, u64);

/// Sequential two-way merge by key.
pub fn merge_two(a: &[Pair], b: &[Pair], out: &mut Vec<Pair>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// First index in `b` whose key is **greater than** `key`.
fn upper_bound(b: &[Pair], key: u64) -> usize {
    let (mut lo, mut hi) = (0usize, b.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if b[mid].0 <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Multi-threaded two-way merge (paper §IV-A): thread `i` gets partition
/// `A_i` of `A`, binary-searches the position `p_i` in `B` past `A_i`'s
/// maximum key, and — because thread `i−1` computed `p_{i−1}` the same way —
/// merges `A_i` with `B[p_{i−1}..p_i]` into its private output range. All
/// threads work concurrently on disjoint slices.
pub fn merge_two_parallel(a: &[Pair], b: &[Pair], threads: usize) -> Vec<Pair> {
    // Asking for more partitions than the pool has workers buys no
    // concurrency but still pays a cross-thread handoff per call — on a
    // single-core host that handoff dwarfs merging a few hundred pairs.
    let threads = threads.max(1).min(rayon::current_num_threads());
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() || threads == 1 || a.len() < threads * 4 {
        let mut out = Vec::new();
        merge_two(a, b, &mut out);
        return out;
    }

    // Partition A evenly; compute each partition's boundary in B.
    let chunk = a.len().div_ceil(threads);
    let a_bounds: Vec<(usize, usize)> =
        (0..threads).map(|i| (i * chunk, ((i + 1) * chunk).min(a.len()))).collect();
    let b_cuts: Vec<usize> = a_bounds
        .iter()
        .map(|&(_, hi)| if hi == 0 { 0 } else { upper_bound(b, a[hi - 1].0) })
        .collect();

    let mut out = vec![(0u64, 0u64); a.len() + b.len()];
    // Carve the output into per-thread disjoint ranges.
    let mut slices: Vec<&mut [Pair]> = Vec::with_capacity(threads);
    let mut rest = out.as_mut_slice();
    let mut prev_cut = 0usize;
    for i in 0..threads {
        let (alo, ahi) = a_bounds[i];
        let bcut = b_cuts[i];
        let len = (ahi - alo) + (bcut - prev_cut);
        let (mine, tail) = rest.split_at_mut(len);
        slices.push(mine);
        rest = tail;
        prev_cut = bcut;
    }
    // Any B tail beyond the last cut lands after the final thread's range.
    let tail_start = prev_cut;
    debug_assert_eq!(rest.len(), b.len() - tail_start);

    slices.into_par_iter().enumerate().for_each(|(i, dst)| {
        let (alo, ahi) = a_bounds[i];
        let blo = if i == 0 { 0 } else { b_cuts[i - 1] };
        let bhi = b_cuts[i];
        let (asl, bsl) = (&a[alo..ahi], &b[blo..bhi]);
        let (mut x, mut y, mut w) = (0, 0, 0);
        while x < asl.len() && y < bsl.len() {
            if asl[x].0 <= bsl[y].0 {
                dst[w] = asl[x];
                x += 1;
            } else {
                dst[w] = bsl[y];
                y += 1;
            }
            w += 1;
        }
        dst[w..w + asl.len() - x].copy_from_slice(&asl[x..]);
        w += asl.len() - x;
        dst[w..w + bsl.len() - y].copy_from_slice(&bsl[y..]);
    });

    // Copy the remaining B tail (keys beyond A's maximum).
    let filled = a.len() + tail_start;
    out[filled..].copy_from_slice(&b[tail_start..]);
    out
}

struct HeapEntry {
    key: u64,
    value: u64,
    src: usize,
    idx: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.src == other.src
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on source for determinism.
        other.key.cmp(&self.key).then(other.src.cmp(&self.src))
    }
}

/// Naive K-way merge with a binary heap — the baseline NaiveMerge performs
/// on rank 0 after gathering all partitions (paper §V-H).
pub fn kway_merge(inputs: &[Vec<Pair>]) -> Vec<Pair> {
    // Two-source merges (small clusters) need no heap: the branchy two-way
    // kernel is ~2× cheaper per element and keeps the same earlier-source
    // tie-break on equal keys.
    if let [a, b] = inputs {
        let mut out = Vec::new();
        merge_two(a, b, &mut out);
        return out;
    }
    let total: usize = inputs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap = BinaryHeap::with_capacity(inputs.len());
    for (src, input) in inputs.iter().enumerate() {
        if let Some(&(key, value)) = input.first() {
            heap.push(HeapEntry { key, value, src, idx: 0 });
        }
    }
    while let Some(HeapEntry { key, value, src, idx }) = heap.pop() {
        out.push((key, value));
        let next = idx + 1;
        if let Some(&(k, v)) = inputs[src].get(next) {
            heap.push(HeapEntry { key: k, value: v, src, idx: next });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[u64]) -> Vec<Pair> {
        keys.iter().map(|&k| (k, k * 10)).collect()
    }

    #[test]
    fn merge_two_basic() {
        let a = pairs(&[1, 4, 9]);
        let b = pairs(&[2, 3, 10]);
        let mut out = Vec::new();
        merge_two(&a, &b, &mut out);
        assert_eq!(out, pairs(&[1, 2, 3, 4, 9, 10]));
    }

    #[test]
    fn merge_two_empty_sides() {
        let a = pairs(&[1, 2]);
        let mut out = Vec::new();
        merge_two(&a, &[], &mut out);
        assert_eq!(out, a);
        merge_two(&[], &a, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn parallel_merge_agrees_with_sequential() {
        let mut state = 0x12345u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        for (na, nb) in [(0, 100), (100, 0), (1000, 1000), (5000, 37), (37, 5000), (9999, 10001)] {
            let mut a: Vec<Pair> = (0..na).map(|_| (rand() * 2, 1)).collect(); // even keys
            let mut b: Vec<Pair> = (0..nb).map(|_| (rand() * 2 + 1, 2)).collect(); // odd keys
            a.sort_unstable();
            a.dedup_by_key(|p| p.0);
            b.sort_unstable();
            b.dedup_by_key(|p| p.0);
            let mut expected = Vec::new();
            merge_two(&a, &b, &mut expected);
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    merge_two_parallel(&a, &b, threads),
                    expected,
                    "na={na} nb={nb} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_merge_skewed_distributions() {
        // All of B before A, all after, and interleaved runs.
        let a = pairs(&(1000..2000).collect::<Vec<u64>>());
        let before = pairs(&(0..500).collect::<Vec<u64>>());
        let after = pairs(&(3000..3500).collect::<Vec<u64>>());
        for b in [&before, &after] {
            let mut expected = Vec::new();
            merge_two(&a, b, &mut expected);
            assert_eq!(merge_two_parallel(&a, b, 4), expected);
        }
    }

    #[test]
    fn kway_merges_many_sources() {
        let inputs: Vec<Vec<Pair>> =
            (0..7u64).map(|s| (0..100u64).map(|i| (i * 7 + s, s)).collect()).collect();
        let merged = kway_merge(&inputs);
        assert_eq!(merged.len(), 700);
        assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn kway_of_empty_and_single() {
        assert!(kway_merge(&[]).is_empty());
        assert!(kway_merge(&[vec![], vec![]]).is_empty());
        let one = vec![pairs(&[1, 2, 3])];
        assert_eq!(kway_merge(&one), pairs(&[1, 2, 3]));
    }

    #[test]
    fn kway_agrees_with_iterated_two_way() {
        let mut state = 7u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 20
        };
        let inputs: Vec<Vec<Pair>> = (0..5)
            .map(|src| {
                let mut v: Vec<Pair> = (0..500).map(|_| (rand() * 5 + src, src)).collect();
                v.sort_unstable();
                v.dedup_by_key(|p| p.0);
                v
            })
            .collect();
        let mut acc: Vec<Pair> = Vec::new();
        for input in &inputs {
            let mut next = Vec::new();
            merge_two(&acc, input, &mut next);
            acc = next;
        }
        assert_eq!(kway_merge(&inputs), acc);
    }
}
