//! Figure 4 — single node: concurrent extract snapshot (paper §V-F).
//!
//! Weak scaling: from the canonical P = 2N-key state, `T` threads each run
//! one full `extract_snapshot` at a random version; total time reported.
//!
//! Paper shape: only the skip-list stores maintain near-perfect weak
//! scalability (flat lines); ESkipList ≈ 2× LockedMap at T=1 (level-0 walk
//! vs red-black tree walk); PSkipList is close to ESkipList with a small
//! persistent-memory read penalty; the DB engines lag by orders of
//! magnitude at high T.

use mvkv_bench::{
    build_canonical_state, dispatch_store, report, secs, timed_phase, BenchConfig, Row, StoreKind,
};
use mvkv_core::{StoreSession, VersionedStore};

fn main() {
    let cfg = BenchConfig::from_env();
    let build_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let mut rows = Vec::new();
    for kind in StoreKind::all() {
        let tag = format!("fig4-{}", kind.name());
        dispatch_store!(kind, 2 * cfg.n, &tag, |store| {
            let w = build_canonical_state(store, cfg.n, build_threads, cfg.seed);
            let max_version = store.tag();
            for &t in &cfg.threads {
                let versions: Vec<Vec<u64>> = w
                    .clone_with_threads(t)
                    .snapshot_versions(max_version, cfg.seed ^ 0xF4)
                    .into_iter()
                    .map(|v| vec![v])
                    .collect();
                let took = timed_phase(store, &versions, |s, &version| {
                    std::hint::black_box(s.extract_snapshot(version));
                });
                rows.push(Row::secs("fig4", kind.name(), t as u64, "snapshot_total_time", took));
                eprintln!("[fig4] {} T={t}: {:.3}s", kind.name(), secs(took));
            }
        });
    }
    report(
        "fig4",
        &format!("T concurrent extract_snapshot over P={} keys (weak scaling)", 2 * cfg.n),
        &rows,
    );
}
