//! # mvkv-obs — the workspace's metrics layer
//!
//! Counts that no store structure keeps, rendered as Prometheus text. A count
//! the store already keeps for itself stays there and is not mirrored here:
//! operations in `mvkv_core::OpStats`, allocator hits, refills, shared-list
//! pops, large blocks and frees in `mvkv_pmem::alloc::AllocStats`, reopen phases in
//! `mvkv_core::RestartStats`. Two instrument kinds:
//!
//! * **Counters** — monotonic, sharded per thread with
//!   [`mvkv_sync::shard::Counters`] (one cache line per shard, merged only at
//!   scrape time), so the hot path never bounces a line between writers and
//!   a scrape is exact once the writers are quiet.
//! * **Histograms** — log2-bucketed (64 buckets cover the full `u64` range),
//!   sharded like counters; [`span!`] times a scope into one (ns).
//!
//! Instrumentation goes through macros so call sites never name a handle:
//!
//! ```
//! mvkv_obs::counter_inc!("mvkv_doc_requests_total");
//! mvkv_obs::counter_add!("mvkv_doc_bytes_total", 128);
//! {
//!     mvkv_obs::span!("mvkv_doc_find_ns"); // records on scope exit
//! }
//! let text = mvkv_obs::Registry::global().render_text();
//! # if mvkv_obs::is_enabled() { assert!(text.contains("mvkv_doc_requests_total")); }
//! ```
//!
//! Each macro expansion owns a private `static` handle that lazily registers
//! the metric in the global [`Registry`] on first use; subsequent hits are a
//! plain load and store on the thread's own shard.
//!
//! ## Feature gating
//!
//! The real implementation lives behind this crate's `enabled` feature, the
//! one metrics switch: `--features mvkv-obs/enabled` on any command flips it
//! for the whole dependency graph via feature unification.
//! With the feature **off** — the default — every type here is a zero-sized
//! stub and every macro expands to an inlineable empty call: no statics with
//! data, no atomics, no clock reads. The `obs_smoke` bench plus the
//! `obs-smoke` CI job hold the instrumented build to within 5% of baseline
//! and the stub build to exactly baseline.
//!
//! Under `--cfg loom` the stubs are selected unconditionally: metrics must
//! not add scheduling points or state to the model checker.

#[cfg(all(feature = "enabled", not(loom)))]
mod imp;
#[cfg(all(feature = "enabled", not(loom)))]
pub use imp::{is_enabled, LazyCounter, LazyHistogram, Registry, SpanGuard};
#[cfg(all(feature = "enabled", not(loom)))]
pub use imp::{Counter, Histogram, HistogramSnapshot};

#[cfg(any(not(feature = "enabled"), loom))]
mod noop;
#[cfg(any(not(feature = "enabled"), loom))]
pub use noop::{is_enabled, HistogramSnapshot, LazyCounter, LazyHistogram, Registry, SpanGuard};

/// Adds `delta` to the named monotonic counter.
///
/// `delta` is evaluated even when the layer is disabled — keep it a cheap
/// expression (a literal or an already-computed local).
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $delta:expr) => {{
        static METRIC: $crate::LazyCounter = $crate::LazyCounter::new($name);
        METRIC.add($delta);
    }};
}

/// Increments the named monotonic counter by one.
#[macro_export]
macro_rules! counter_inc {
    ($name:expr) => {
        $crate::counter_add!($name, 1)
    };
}

/// Times the rest of the enclosing scope into the named histogram (ns).
///
/// Expands to a `let` binding holding a guard, so it must appear in
/// statement position; the duration is recorded when the scope unwinds
/// (including on panic). Disabled builds never read the clock.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span_guard = {
            static METRIC: $crate::LazyHistogram = $crate::LazyHistogram::new($name);
            $crate::SpanGuard::enter(&METRIC)
        };
    };
}
