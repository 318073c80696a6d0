//! Figure 7 — multiple nodes: distributed snapshot gather (paper §V-H).
//!
//! Every rank extracts its whole partition at the highest version and rank
//! 0 gathers the raw (unmerged) results — "the lowest possible overhead of
//! accessing the whole snapshot without preserving a globally sorted key
//! order". Time at rank 0 reported per cluster size.
//!
//! Paper shape: PSkipList holds a 2×–5× speedup over the database engine
//! (local extract dominates), narrowing as communication grows with K.

use mvkv_bench::{make_dist_dbreg, make_dist_pskiplist, report, BenchConfig, Row, TempArtifacts};

const REPS: usize = 3;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rows = Vec::new();
    for &k in &cfg.nodes {
        let mut arts = TempArtifacts::new();
        {
            let mut cluster = make_dist_pskiplist(k, cfg.dist_n, &mut arts, &format!("fig7p-{k}"));
            let best = (0..REPS)
                .map(|_| {
                    cluster.reset_clocks();
                    let (parts, took) = cluster.gather_snapshot(u64::MAX);
                    assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), k * cfg.dist_n);
                    took
                })
                .min()
                .expect("reps >= 1");
            rows.push(Row::secs("fig7", "PSkipList", k as u64, "gather_time", best));
            eprintln!("[fig7] PSkipList K={k}: {best:?} (virtual)");
        }
        {
            let mut cluster = make_dist_dbreg(k, cfg.dist_n, &mut arts, &format!("fig7d-{k}"));
            let best = (0..REPS)
                .map(|_| {
                    cluster.reset_clocks();
                    let (parts, took) = cluster.gather_snapshot(u64::MAX);
                    assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), k * cfg.dist_n);
                    took
                })
                .min()
                .expect("reps >= 1");
            rows.push(Row::secs("fig7", "DbReg", k as u64, "gather_time", best));
            eprintln!("[fig7] DbReg K={k}: {best:?} (virtual)");
        }
    }
    report("fig7", &format!("distributed snapshot gather, N={} pairs/node", cfg.dist_n), &rows);
}
