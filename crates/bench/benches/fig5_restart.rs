//! Figure 5 — single node: restart from persisted state (paper §V-G).
//!
//! * **Fig 5a**: time to reconstruct PSkipList's ephemeral skip-list index
//!   from the persistent key block chain, for increasing thread counts
//!   (paper: 17 s at T=1 down to ~2 s at T=64 for P = 2·10^6 keys). One
//!   row per restart phase — `scan_time` (the claiming walk + watermark),
//!   `rebuild_time` (sort + bulk build), `prune_time` (flagged histories
//!   only) — and one for the workers the walk really ran.
//! * **Fig 5b**: find throughput right after restart (cold persistent
//!   state) for PSkipList vs DbReg, plus the warm-cache baseline. Paper:
//!   <9% penalty vs warm even at 64 threads.

use mvkv_bench::{
    build_canonical_state, pool_bytes_for, report, secs, timed_phase, BenchConfig, Row,
    TempArtifacts,
};
use mvkv_core::{DbStore, PSkipList, StoreSession, VersionedStore};

fn main() {
    let cfg = BenchConfig::from_env();
    let build_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let mut rows = Vec::new();
    let mut arts = TempArtifacts::new();

    // Build and persist the canonical P = 2N state for both stores.
    let pool_path = arts.path("fig5-pskiplist.pool");
    let db_path = arts.path("fig5-dbreg.db");

    let workload = {
        let store = PSkipList::create_file(&pool_path, pool_bytes_for(2 * cfg.n))
            .expect("pool creation");
        build_canonical_state(&store, cfg.n, build_threads, cfg.seed)
        // drop = clean shutdown
    };
    {
        let store = DbStore::reg(&db_path).expect("db creation");
        build_canonical_state(&store, cfg.n, build_threads, cfg.seed);
    }
    let max_version = 3 * cfg.n as u64;

    for &t in &cfg.threads {
        // Fig 5a: parallel reconstruction.
        let (store, stats) = PSkipList::open_file(&pool_path, t).expect("reopen");
        assert_eq!(stats.rebuilt_keys, 2 * cfg.n as u64);
        assert_eq!(stats.watermark, max_version);
        for (metric, value, unit) in [
            ("scan_time", secs(stats.scan_time), "s"),
            ("rebuild_time", secs(stats.rebuild_time), "s"),
            ("prune_time", secs(stats.prune_time), "s"),
            ("rebuild_threads", stats.rebuild_threads as f64, "threads"),
        ] {
            rows.push(Row {
                figure: "fig5a",
                approach: "PSkipList".into(),
                x: t as u64,
                metric,
                value,
                unit,
            });
        }

        // Fig 5b: cold find right after the rebuild.
        let queries = workload.clone_with_threads(t).query_mix(
            cfg.n / t,
            max_version,
            cfg.seed ^ 0xF5,
        );
        let t_cold = timed_phase(&store, &queries, |s, &(key, version)| {
            std::hint::black_box(s.find(key, version));
        });
        rows.push(Row {
            figure: "fig5b",
            approach: "PSkipList-cold".into(),
            x: t as u64,
            metric: "find_total_time",
            value: secs(t_cold),
            unit: "s",
        });
        // Warm re-run on the same store for the <9%-penalty comparison.
        let t_warm = timed_phase(&store, &queries, |s, &(key, version)| {
            std::hint::black_box(s.find(key, version));
        });
        rows.push(Row {
            figure: "fig5b",
            approach: "PSkipList-warm".into(),
            x: t as u64,
            metric: "find_total_time",
            value: secs(t_warm),
            unit: "s",
        });
        drop(store);

        // DbReg after restart (its index persists, no rebuild needed).
        let db = DbStore::reopen(&db_path).expect("db reopen");
        assert_eq!(db.tag(), max_version);
        let t_db = timed_phase(&db, &queries, |s, &(key, version)| {
            std::hint::black_box(s.find(key, version));
        });
        rows.push(Row {
            figure: "fig5b",
            approach: "DbReg".into(),
            x: t as u64,
            metric: "find_total_time",
            value: secs(t_db),
            unit: "s",
        });
        eprintln!(
            "[fig5] T={t} ({} workers): scan {:.3}s rebuild {:.3}s prune {:.3}s ({} histories), \
             find cold {:.3}s warm {:.3}s dbreg {:.3}s",
            stats.rebuild_threads,
            secs(stats.scan_time),
            secs(stats.rebuild_time),
            secs(stats.prune_time),
            stats.pruned_histories,
            secs(t_cold),
            secs(t_warm),
            secs(t_db)
        );
    }
    report(
        "fig5",
        &format!("restart: parallel rebuild + cold finds over P={} keys", 2 * cfg.n),
        &rows,
    );
}
