//! Figure 3 — single node: concurrent key history and find (paper §V-E).
//!
//! State: N inserts, N removes, N more inserts → P = 2N distinct keys,
//! each with one insert or insert+remove in its history. Then each of `T`
//! threads picks `N/T` random keys and runs `extract_history` (Fig 3a) or
//! `find` at a random version (Fig 3b). Strong scaling over T.
//!
//! Paper shape: LockedMap fastest at T=1 then degrades; DbMem degrades
//! (shared page cache contention, worse for history's multi-row reads);
//! DbReg flattens around 8 threads; both skip lists keep scaling, and
//! PSkipList shows no penalty vs ESkipList on reads.

use mvkv_bench::{
    build_canonical_state, dispatch_store, report, secs, timed_phase, BenchConfig, Row, StoreKind,
};
use mvkv_core::{StoreSession, VersionedStore};

fn main() {
    let cfg = BenchConfig::from_env();
    let build_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let mut rows = Vec::new();
    for kind in StoreKind::all() {
        let tag = format!("fig3-{}", kind.name());
        dispatch_store!(kind, 2 * cfg.n, &tag, |store| {
            let w = build_canonical_state(store, cfg.n, build_threads, cfg.seed);
            let max_version = store.tag();
            assert_eq!(max_version, 3 * cfg.n as u64);
            for &t in &cfg.threads {
                // Rebuild the query mix for T threads with fixed seeds.
                let per_thread = cfg.n / t;
                let scenario_w = w.clone_with_threads(t);
                let queries = scenario_w.query_mix(per_thread, max_version, cfg.seed ^ 0xF1);

                let t_hist = timed_phase(store, &queries, |s, &(key, _)| {
                    std::hint::black_box(s.extract_history(key));
                });
                let t_find = timed_phase(store, &queries, |s, &(key, version)| {
                    std::hint::black_box(s.find(key, version));
                });
                rows.push(Row::secs("fig3a", kind.name(), t as u64, "history_total_time", t_hist));
                rows.push(Row::secs("fig3b", kind.name(), t as u64, "find_total_time", t_find));
                eprintln!(
                    "[fig3] {} T={t}: history {:.3}s find {:.3}s",
                    kind.name(),
                    secs(t_hist),
                    secs(t_find)
                );
            }
        });
    }
    report("fig3", &format!("concurrent key history / find over P={} keys", 2 * cfg.n), &rows);
}
