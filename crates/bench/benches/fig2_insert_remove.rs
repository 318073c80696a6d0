//! Figure 2 — single node: concurrent insert and remove (paper §V-D).
//!
//! Strong scaling: `N` pre-generated unique key-value pairs are split
//! evenly over `T` threads and inserted concurrently into an empty store;
//! then a random shuffling of the same keys is removed concurrently. The
//! total time of each phase is reported for every approach and thread
//! count.
//!
//! Paper shape to reproduce: the lock-based approaches (LockedMap, DbReg,
//! DbMem) degrade or stay flat as T grows; the lock-free skip-list stores
//! scale; PSkipList pays a persistence tax over ESkipList but beats DbReg.

use mvkv_bench::{dispatch_store, report, secs, timed_phase, BenchConfig, Row, StoreKind};
use mvkv_core::{StoreSession, VersionedStore};
use mvkv_workload::Scenario;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rows = Vec::new();
    for kind in StoreKind::all() {
        for &t in &cfg.threads {
            let w = Scenario::new(cfg.n, t, cfg.seed).generate();
            let tag = format!("fig2-{}-{t}", kind.name());
            let (t_insert, t_remove) = dispatch_store!(kind, cfg.n, &tag, |store| {
                let inserts = w.inserts_per_thread();
                let t_insert = timed_phase(store, &inserts, |s, kv| {
                    s.insert(kv.key, kv.value);
                });
                let removals = w.removals_per_thread();
                let t_remove = timed_phase(store, &removals, |s, key| {
                    s.remove(*key);
                });
                assert_eq!(store.latest_version(), 2 * cfg.n as u64);
                (t_insert, t_remove)
            });
            rows.push(Row::secs("fig2a", kind.name(), t as u64, "insert_total_time", t_insert));
            rows.push(Row::secs("fig2b", kind.name(), t as u64, "remove_total_time", t_remove));
            eprintln!(
                "[fig2] {} T={t}: insert {:.3}s remove {:.3}s",
                kind.name(),
                secs(t_insert),
                secs(t_remove)
            );
        }
    }
    report("fig2", &format!("concurrent insert/remove, N={} (strong scaling)", cfg.n), &rows);
}
