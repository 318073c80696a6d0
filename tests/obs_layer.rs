//! End-to-end check of the observability layer through the umbrella crate.
//!
//! Runs the same test in both builds: with `--features mvkv-obs/enabled` it
//! asserts a real workload populates the registry with exact metrics from
//! several crates; without it, that the whole layer is zero-sized stubs
//! rendering nothing.

use mvkv::core::{DbStore, PSkipList, StoreSession, VersionedStore};

/// Fresh-key inserts; every counter reads exactly, so the registry's counts
/// follow from it.
const N: u64 = 1000;

/// Runs the workload; returns the store so a test can read its own counts.
fn run_workload() -> PSkipList {
    let store = PSkipList::create_volatile(32 << 20).expect("pool");
    let session = store.session();
    for i in 0..N {
        session.insert(i, i * 2);
    }
    for i in 0..N / 4 {
        session.find(i, store.tag());
    }
    session.extract_snapshot(store.tag());
    store.wait_writes_complete();
    // The allocator's count lives in `AllocStats`, in either build: every
    // fresh key allocates at least its history.
    assert!(store.pool().alloc_stats().total_allocs >= N);
    // One write and one read on the minidb baseline, through its page cache.
    let db = DbStore::mem();
    let version = db.session().insert(1, 2);
    assert_eq!(db.session().find(1, version), Some(2));
    store
}

// Both tests gate at runtime on `is_enabled()` rather than on a cfg of this
// crate: feature unification means `mvkv-obs/enabled` can be flipped from
// any crate in the graph, and `is_enabled()` is the one signal that tracks
// the layer's actual state.

#[test]
fn enabled_registry_collects_across_crates() {
    if !mvkv::obs::is_enabled() {
        eprintln!("obs layer compiled out; covered by disabled_layer_is_zero_sized_and_silent");
        return;
    }
    run_workload();
    let text = mvkv::obs::Registry::global().render_text();
    // The exact set of metrics the workload registers, from every crate that
    // emits any (`mvkv-cluster` emits none): pmem, vhistory and core on the
    // PSkipList path, minidb on the DbStore one. A count the store keeps
    // for itself (`AllocStats`, `OpStats`, `RestartStats`) is not among
    // them.
    let mut names: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    names.sort_unstable();
    assert_eq!(names, EXPECTED, "rendered:\n{text}");
    // Two instrument kinds, and pmem's one metric is the fence count: the
    // allocator's counts are in `AllocStats` only.
    assert!(names.iter().all(|n| n.ends_with(" counter") || n.ends_with(" histogram")));
    let pmem: Vec<&str> = names.iter().copied().filter(|n| n.starts_with("mvkv_pmem_")).collect();
    assert_eq!(pmem, ["mvkv_pmem_fences_total counter"]);
    // Counters are exact, not buffered: one append and one publish fence per
    // insert, one WAL commit for the one minidb row.
    for line in [
        format!("mvkv_vhistory_appends_total {N}\n"),
        format!("mvkv_vhistory_publish_fences_total {N}\n"),
        "mvkv_minidb_wal_commits_total 1\n".to_string(),
    ] {
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
    }
    // Prometheus histogram suffixes.
    assert!(text.contains("mvkv_core_insert_ns_count"));
    assert!(text.contains("mvkv_core_insert_ns_sum"));
}

/// The enabled build's `# TYPE` lines after [`run_workload`], sorted. Spans
/// are sampled one in 64 per thread but register their histogram on every
/// call, so `mvkv_core_extract_ns` (this thread's 1251st span, not timed) is
/// present; the page cache misses once and never hits.
const EXPECTED: &[&str] = &[
    "mvkv_core_extract_ns histogram",
    "mvkv_core_find_ns histogram",
    "mvkv_core_insert_ns histogram",
    "mvkv_minidb_page_cache_misses_total counter",
    "mvkv_minidb_wal_commits_total counter",
    "mvkv_pmem_fences_total counter",
    "mvkv_vhistory_appends_total counter",
    "mvkv_vhistory_publish_fences_total counter",
    "mvkv_vhistory_tail_advances_total counter",
];

#[test]
fn disabled_layer_is_zero_sized_and_silent() {
    if mvkv::obs::is_enabled() {
        eprintln!("obs layer compiled in; covered by enabled_registry_collects_across_crates");
        return;
    }
    run_workload();
    assert_eq!(std::mem::size_of::<mvkv::obs::LazyCounter>(), 0);
    assert_eq!(std::mem::size_of::<mvkv::obs::LazyHistogram>(), 0);
    assert_eq!(std::mem::size_of::<mvkv::obs::SpanGuard>(), 0);
    assert_eq!(mvkv::obs::Registry::global().render_text(), "");
}
