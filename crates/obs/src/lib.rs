//! # mvkv-obs — unified observability layer
//!
//! One metrics mechanism for the whole workspace, replacing the bespoke
//! counter blocks that grew ad hoc in `core::stats` and `pmem::alloc`.
//! Three instrument kinds:
//!
//! * **Counters** — monotonic, relaxed-ordering, sharded per thread (one
//!   cache-padded word per shard, merged only at scrape time) so the hot
//!   path never bounces a cache line between writers.
//! * **Gauges** — a single relaxed word, last-writer-wins.
//! * **Histograms** — log2-bucketed (64 buckets cover the full `u64` range),
//!   sharded like counters; used for latencies in nanoseconds.
//!
//! Instrumentation goes through macros so call sites never name a handle:
//!
//! ```
//! mvkv_obs::counter_inc!("mvkv_doc_requests_total");
//! mvkv_obs::counter_add!("mvkv_doc_bytes_total", 128);
//! mvkv_obs::gauge_set!("mvkv_doc_queue_depth", 3);
//! mvkv_obs::observe_ns!("mvkv_doc_step_ns", 1500);
//! {
//!     mvkv_obs::span!("mvkv_doc_find_ns"); // records on scope exit
//! }
//! let text = mvkv_obs::Registry::global().render_text();
//! let json = mvkv_obs::Registry::global().render_json();
//! # if mvkv_obs::is_enabled() { assert!(text.contains("mvkv_doc_requests_total")); }
//! ```
//!
//! Each macro expansion owns a private `static` handle that lazily registers
//! the metric in the global [`Registry`] on first use; subsequent hits are a
//! single relaxed `fetch_add`.
//!
//! ## Feature gating
//!
//! The real implementation lives behind the `enabled` feature (crates expose
//! it as their own `obs` feature; the umbrella `mvkv` crate's `--features
//! obs` flips it for the whole dependency graph via feature unification).
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
pub use imp::{Gauge, Histogram, HistogramSnapshot, Counter};
#[cfg(all(feature = "enabled", not(loom)))]
pub use imp::{is_enabled, LazyCounter, LazyGauge, LazyHistogram, Registry, SpanGuard};

#[cfg(any(not(feature = "enabled"), loom))]
mod noop;
#[cfg(any(not(feature = "enabled"), loom))]
pub use noop::{is_enabled, HistogramSnapshot, LazyCounter, LazyGauge, LazyHistogram, Registry, SpanGuard};

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

/// How many buffered bumps [`counter_inc_hot!`] accumulates per thread
/// before folding them into the registry.
pub const HOT_FLUSH: u64 = 1024;

/// Counter bump for *very* hot call sites — ones hit several times per
/// store operation (per-cacheline persists, fences). Accumulates in a
/// per-thread cell and folds into the registry every [`HOT_FLUSH`] bumps,
/// so the steady-state cost is one thread-local increment instead of a
/// shard lookup. The scraped value can therefore lag the true count by up
/// to `HOT_FLUSH - 1` per thread — and the metric only appears in the
/// registry once some thread has flushed. Use plain [`counter_inc!`] when
/// scrape freshness matters more than nanoseconds.
#[macro_export]
macro_rules! counter_inc_hot {
    ($name:expr) => {
        $crate::counter_add_hot!($name, 1)
    };
}

/// [`counter_inc_hot!`] with an arbitrary (cheap) delta: buffered in a
/// per-thread cell, flushed once the pending sum reaches [`HOT_FLUSH`].
#[macro_export]
macro_rules! counter_add_hot {
    ($name:expr, $delta:expr) => {{
        // `is_enabled` is a const-foldable literal per mode, so the whole
        // block (thread-local included) is dead-code-eliminated when the
        // layer is compiled out.
        if $crate::is_enabled() {
            static METRIC: $crate::LazyCounter = $crate::LazyCounter::new($name);
            ::std::thread_local! {
                static PENDING: ::std::cell::Cell<u64> = const { ::std::cell::Cell::new(0) };
            }
            PENDING.with(|p| {
                let v = p.get() + $delta;
                if v >= $crate::HOT_FLUSH {
                    METRIC.add(v);
                    p.set(0);
                } else {
                    p.set(v);
                }
            });
        }
    }};
}

/// Sets the named gauge to `value` (last writer wins).
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $value:expr) => {{
        static METRIC: $crate::LazyGauge = $crate::LazyGauge::new($name);
        METRIC.set($value);
    }};
}

/// Records `value` (conventionally nanoseconds) into the named log2
/// histogram.
#[macro_export]
macro_rules! observe_ns {
    ($name:expr, $value:expr) => {{
        static METRIC: $crate::LazyHistogram = $crate::LazyHistogram::new($name);
        METRIC.record($value);
    }};
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
