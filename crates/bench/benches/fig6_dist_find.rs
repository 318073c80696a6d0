//! Figure 6 — multiple nodes: distributed find throughput (paper §V-H).
//!
//! `K` ranks each hold a partition of `N` pairs. Rank 0 issues random
//! `(key, version)` find queries one at a time, each implemented as a
//! broadcast plus a reduction (the paper's MPI-collective design). The
//! metric is queries/second over the simulated cluster time.
//!
//! Paper shape: throughput drops steeply for small K (collective rounds
//! grow as log K) then stabilizes; PSkipList sustains ~25% better
//! throughput than the database engine regardless of K.

use mvkv_bench::{
    make_dist_dbreg, make_dist_pskiplist, report, BenchConfig, Row, TempArtifacts,
};
use mvkv_workload::Mt19937_64;
use std::time::Duration;

fn main() {
    let cfg = BenchConfig::from_env();
    let queries: usize = std::env::var("MVKV_BENCH_Q")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let mut rows = Vec::new();
    for &k in &cfg.nodes {
        let mut arts = TempArtifacts::new();
        // PSkipList ranks.
        {
            let mut cluster = make_dist_pskiplist(k, cfg.dist_n, &mut arts, &format!("fig6p-{k}"));
            let tput = run_queries(&mut cluster, k, cfg.dist_n, queries, cfg.seed);
            rows.push(row("PSkipList", k, tput));
            eprintln!("[fig6] PSkipList K={k}: {tput:.0} q/s (virtual)");
            // Bulk mode (paper §V-H's complementary note): the whole batch
            // in one broadcast.
            let tput_bulk = run_bulk(&mut cluster, k, cfg.dist_n, queries, cfg.seed);
            rows.push(row("PSkipList-bulk", k, tput_bulk));
            eprintln!("[fig6] PSkipList-bulk K={k}: {tput_bulk:.0} q/s (virtual)");
        }
        // DbReg ranks.
        {
            let mut cluster = make_dist_dbreg(k, cfg.dist_n, &mut arts, &format!("fig6d-{k}"));
            let tput = run_queries(&mut cluster, k, cfg.dist_n, queries, cfg.seed);
            rows.push(row("DbReg", k, tput));
            eprintln!("[fig6] DbReg K={k}: {tput:.0} q/s (virtual)");
        }
    }
    report(
        "fig6",
        &format!(
            "distributed find throughput, N={} pairs/node, {} queries from rank 0",
            cfg.dist_n, queries
        ),
        &rows,
    );
}

fn run_queries<S: mvkv_core::VersionedStore>(
    cluster: &mut mvkv_cluster::DistStore<S>,
    k: usize,
    n: usize,
    queries: usize,
    seed: u64,
) -> f64 {
    let mut rng = Mt19937_64::new(seed ^ 0xF6);
    cluster.reset_clocks();
    let mut total = Duration::ZERO;
    for _ in 0..queries {
        let key = rng.next_below((k * n) as u64);
        let version = 1 + rng.next_below(n as u64);
        let (_, took) = cluster.find(key, version);
        total += took;
    }
    queries as f64 / total.as_secs_f64()
}

fn run_bulk<S: mvkv_core::VersionedStore>(
    cluster: &mut mvkv_cluster::DistStore<S>,
    k: usize,
    n: usize,
    queries: usize,
    seed: u64,
) -> f64 {
    let mut rng = Mt19937_64::new(seed ^ 0xF6);
    let batch: Vec<(u64, u64)> = (0..queries)
        .map(|_| (rng.next_below((k * n) as u64), 1 + rng.next_below(n as u64)))
        .collect();
    cluster.reset_clocks();
    let (_, took) = cluster.find_bulk(&batch);
    queries as f64 / took.as_secs_f64()
}

fn row(approach: &str, k: usize, tput: f64) -> Row {
    Row {
        figure: "fig6",
        approach: approach.into(),
        x: k as u64,
        metric: "find_throughput",
        value: tput,
        unit: "queries/s",
    }
}
