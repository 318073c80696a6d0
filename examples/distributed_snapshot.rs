//! Horizontal scaling: a partitioned store across simulated cluster nodes
//! (paper §V-H).
//!
//! Sixteen ranks each own a contiguous key range. Rank 0 runs distributed
//! finds (broadcast + reduce) and extracts the globally sorted snapshot
//! with both merge strategies, printing the simulated cluster times so the
//! NaiveMerge-vs-OptMerge gap (paper Fig 8) is visible at example scale.
//!
//! Run with: `cargo run --release --example distributed_snapshot`

use mvkv::cluster::{DistStore, MergeStrategy, NetModel};
use mvkv::core::{ESkipList, StoreSession, VersionedStore};

const RANKS: usize = 16;
const PER_RANK: usize = 20_000;

fn main() {
    // Build the partitioned cluster: rank r owns [r·N, (r+1)·N).
    let ranks: Vec<ESkipList> = (0..RANKS)
        .map(|r| {
            let store = ESkipList::new();
            let s = store.session();
            let base = (r * PER_RANK) as u64;
            for i in 0..PER_RANK as u64 {
                s.insert(base + i, (base + i) * 3);
            }
            store.wait_writes_complete();
            store
        })
        .collect();
    let mut cluster = DistStore::new(ranks, NetModel::theta_like());
    println!("{RANKS} ranks × {PER_RANK} pairs = {} total", RANKS * PER_RANK);

    // Distributed finds from rank 0.
    for key in [0u64, 12_345, (RANKS * PER_RANK) as u64 - 1] {
        let (value, took) = cluster.find(key, u64::MAX);
        println!("find({key}) = {value:?}  [{took:?} simulated]");
        assert_eq!(value, Some(key * 3));
    }

    // Globally sorted snapshot: naive vs optimized merge.
    cluster.reset_clocks();
    let (naive, t_naive) = cluster.extract_snapshot(u64::MAX, MergeStrategy::Naive);
    cluster.reset_clocks();
    let (opt, t_opt) = cluster.extract_snapshot(u64::MAX, MergeStrategy::Opt { threads: 4 });
    assert_eq!(naive, opt);
    assert_eq!(naive.len(), RANKS * PER_RANK);
    assert!(naive.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
    println!("NaiveMerge: {t_naive:?} simulated");
    println!("OptMerge:   {t_opt:?} simulated");
    println!(
        "recursive doubling + multi-threaded merge is {:.1}x faster at {} ranks",
        t_naive.as_secs_f64() / t_opt.as_secs_f64(),
        RANKS
    );

    println!("distributed_snapshot OK");
}
