//! Figure 8 — multiple nodes: distributed extract snapshot with global
//! merge, NaiveMerge vs OptMerge (paper §V-H).
//!
//! NaiveMerge gathers all partitions on rank 0 and runs a K-way merge
//! there; OptMerge uses recursive doubling (log K rounds) with the
//! multi-threaded two-way merge on each surviving rank (paper §IV-A).
//!
//! Paper shape: NaiveMerge collapses at scale (two orders of magnitude
//! slower at 512 nodes); OptMerge is ~50× faster there, which preserves
//! PSkipList's lead (~20%) over the database engine end to end.

use mvkv_bench::{
    make_dist_dbreg, make_dist_pskiplist, report, secs, BenchConfig, Row, TempArtifacts,
};
use mvkv_cluster::MergeStrategy;

/// Threads of OptMerge's two-way merge on each surviving rank.
const MERGE_THREADS: usize = 4;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rows = Vec::new();
    for &k in &cfg.nodes {
        let mut arts = TempArtifacts::new();
        let total = k * cfg.dist_n;
        {
            let mut cluster = make_dist_pskiplist(k, cfg.dist_n, &mut arts, &format!("fig8p-{k}"));
            for (label, strategy) in [
                ("PSkipList-Naive", MergeStrategy::Naive),
                ("PSkipList-Opt", MergeStrategy::Opt { threads: MERGE_THREADS }),
            ] {
                cluster.reset_clocks();
                let (merged, took) = cluster.extract_snapshot(u64::MAX, strategy);
                assert_eq!(merged.len(), total);
                assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
                rows.push(Row::secs("fig8", label, k as u64, "merged_snapshot_time", took));
                eprintln!("[fig8] {label} K={k}: {:.4}s (virtual)", secs(took));
            }
        }
        {
            let mut cluster = make_dist_dbreg(k, cfg.dist_n, &mut arts, &format!("fig8d-{k}"));
            for (label, strategy) in [
                ("DbReg-Naive", MergeStrategy::Naive),
                ("DbReg-Opt", MergeStrategy::Opt { threads: MERGE_THREADS }),
            ] {
                cluster.reset_clocks();
                let (merged, took) = cluster.extract_snapshot(u64::MAX, strategy);
                assert_eq!(merged.len(), total);
                rows.push(Row::secs("fig8", label, k as u64, "merged_snapshot_time", took));
                eprintln!("[fig8] {label} K={k}: {:.4}s (virtual)", secs(took));
            }
        }
    }
    report(
        "fig8",
        &format!("distributed extract snapshot with global merge, N={} pairs/node", cfg.dist_n),
        &rows,
    );
}
