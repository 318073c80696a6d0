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

fn run_workload() {
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
    // One write and one read on the minidb baseline, through its page cache.
    let db = DbStore::mem();
    let version = db.session().insert(1, 2);
    assert_eq!(db.session().find(1, version), Some(2));
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
    // Metrics from every crate that emits any (`mvkv-cluster` emits none):
    // pmem, vhistory and core on the PSkipList path, minidb on the DbStore
    // one.
    for metric in [
        "mvkv_pmem_fences_total",          // pmem
        "mvkv_pmem_alloc_hits_total",      // pmem allocator
        "mvkv_vhistory_appends_total",     // vhistory
        "mvkv_vhistory_publish_fences_total",
        "mvkv_core_insert_ns",             // core span histogram
        "mvkv_minidb_page_cache_",         // minidb pager
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
    // Counters are exact, not buffered: one append and one publish fence per
    // insert, one WAL commit for the one minidb row.
    for line in [
        format!("mvkv_vhistory_appends_total {N}\n"),
        format!("mvkv_vhistory_publish_fences_total {N}\n"),
        "mvkv_minidb_wal_commits_total 1\n".to_string(),
    ] {
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
    }
    // Prometheus text shape: TYPE lines and histogram suffixes.
    assert!(text.contains("# TYPE mvkv_pmem_fences_total counter"));
    assert!(text.contains("mvkv_core_insert_ns_count"));
    assert!(text.contains("mvkv_core_insert_ns_sum"));

    let json = mvkv::obs::Registry::global().render_json();
    assert!(json.contains("\"mvkv_pmem_fences_total\""));
    assert!(json.starts_with('{') && json.ends_with('}'));
}

#[test]
fn disabled_layer_is_zero_sized_and_silent() {
    if mvkv::obs::is_enabled() {
        eprintln!("obs layer compiled in; covered by enabled_registry_collects_across_crates");
        return;
    }
    run_workload();
    assert_eq!(std::mem::size_of::<mvkv::obs::LazyCounter>(), 0);
    assert_eq!(std::mem::size_of::<mvkv::obs::LazyGauge>(), 0);
    assert_eq!(std::mem::size_of::<mvkv::obs::LazyHistogram>(), 0);
    assert_eq!(std::mem::size_of::<mvkv::obs::SpanGuard>(), 0);
    assert_eq!(mvkv::obs::Registry::global().render_text(), "");
    assert_eq!(mvkv::obs::Registry::global().render_json(), "{}");
}
