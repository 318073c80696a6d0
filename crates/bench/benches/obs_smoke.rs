//! Zero-cost smoke check for the observability layer.
//!
//! Runs a tight single-threaded insert micro (the hottest instrumented
//! path: one sampled span plus the append and fence counters per op) and
//! prints a machine-parseable ops/s line. The `obs-smoke` CI job runs this
//! twice — with and without `--features mvkv-obs/enabled` — and fails if the
//! instrumented build regresses more than 5%.
//!
//! In the same run it asserts the mode's contract:
//! * feature **off** — every obs handle is a ZST and the registry renders
//!   empty (the macros really compiled to nothing);
//! * feature **on** — the registry contains the fence, append and span
//!   metrics the workload must have produced.
//!
//! One knob: `MVKV_BENCH_N` (inserts per repetition, default 20 000). Of
//! the [`REPS`] repetitions the *fastest* is reported: both modes reach
//! their clean-machine peak eventually, so max-of-reps is far less
//! sensitive to scheduler/frequency noise than a median when the two builds
//! run as separate processes.

use mvkv_bench::{pool_bytes_for, BenchConfig};
use mvkv_core::{PSkipList, StoreSession, VersionedStore};
use std::time::Instant;

/// Repetitions per run.
const REPS: usize = 15;

fn main() {
    let n = BenchConfig::from_env().n;

    let mut best = 0.0f64;
    for _ in 0..REPS {
        let store = PSkipList::create_volatile(pool_bytes_for(n)).expect("pool");
        let session = store.session();
        let start = Instant::now();
        for i in 0..n as u64 {
            session.insert(i, i.wrapping_mul(7));
        }
        store.wait_writes_complete();
        let secs = start.elapsed().as_secs_f64();
        best = best.max(n as f64 / secs);
    }

    if mvkv_obs::is_enabled() {
        let text = mvkv_obs::Registry::global().render_text();
        for metric in [
            "mvkv_pmem_fences_total",
            "mvkv_vhistory_appends_total",
            "mvkv_vhistory_publish_fences_total",
            "mvkv_core_insert_ns",
        ] {
            assert!(text.contains(metric), "instrumented run missing {metric}:\n{text}");
        }
        println!("obs_smoke mode=enabled");
    } else {
        // The macros must have compiled to nothing: zero-sized handles, an
        // empty registry, no clock reads recorded anywhere.
        assert_eq!(std::mem::size_of::<mvkv_obs::LazyCounter>(), 0);
        assert_eq!(std::mem::size_of::<mvkv_obs::LazyHistogram>(), 0);
        assert_eq!(std::mem::size_of::<mvkv_obs::SpanGuard>(), 0);
        assert_eq!(mvkv_obs::Registry::global().render_text(), "");
        println!("obs_smoke mode=disabled");
    }

    // The line the CI comparison greps for.
    println!("obs_smoke insert_ops_per_sec {best:.0}");

    mvkv_bench::report(
        "obs_smoke",
        "observability overhead micro",
        &[mvkv_bench::Row {
            figure: "obs_smoke",
            approach: if mvkv_obs::is_enabled() { "obs".into() } else { "baseline".into() },
            x: 1,
            metric: "insert_ops_per_sec",
            value: best,
            unit: "ops/s",
        }],
    );
}
