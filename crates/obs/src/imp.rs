//! The real metrics implementation (`feature = "enabled"`, non-loom).
//!
//! Counters and histograms are [`Counters`], the workspace's one sharded
//! counter: writers touch only their own shard's line; readers merge all
//! shards at scrape time. Metric objects are registered once and leaked
//! (`&'static`), so hot-path handles are plain references with no
//! refcounting.

use mvkv_sync::shard::Counters;
use mvkv_sync::sync::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Span timings are sampled one-in-`SPAN_SAMPLE` per thread: a clock read
/// costs ~40 ns on this class of hardware, which alone would blow the 5 %
/// hot-path budget on a ~500 ns insert. Counters stay exact; only span
/// histogram counts are sampled.
pub(crate) const SPAN_SAMPLE: u32 = 64;

/// Log2 buckets: bucket `i` holds values `v` with `floor(log2(max(v,1))) == i`,
/// covering the whole `u64` range.
pub const BUCKETS: usize = 64;

/// True when the layer is compiled in.
#[inline(always)]
pub fn is_enabled() -> bool {
    true
}

/// True when this thread should time the current span (one in
/// [`SPAN_SAMPLE`]; the first span on every thread is always timed).
#[inline]
fn span_sampled() -> bool {
    thread_local! {
        static COUNTDOWN: Cell<u32> = const { Cell::new(0) };
    }
    COUNTDOWN.with(|c| {
        let v = c.get();
        if v == 0 {
            c.set(SPAN_SAMPLE - 1);
            true
        } else {
            c.set(v - 1);
            false
        }
    })
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotonic counter, sharded per thread: `add(0, delta)`, `sum(0)`.
pub type Counter = Counters<1>;

/// Index of a histogram's running sum, after its 64 buckets.
const SUM: usize = BUCKETS;

/// Log2-bucketed histogram, sharded per thread: 64 bucket counts and the
/// running sum of the recorded values.
pub struct Histogram {
    counters: Box<Counters<{ BUCKETS + 1 }>>,
}

/// Merged point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Occupancy per log2 bucket (`buckets[i]` counts values in `[2^i, 2^(i+1))`,
    /// with 0 landing in bucket 0).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram { counters: Box::default() }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        // floor(log2(value)) with 0 mapped to bucket 0; branch-free.
        63 - (value | 1).leading_zeros() as usize
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.counters.add(Self::bucket_index(value), 1);
        self.counters.add(SUM, value);
    }

    /// Merged snapshot. A racing `record` may be half-included — each
    /// individual cell is still monotone, which is all scraping needs. Sums
    /// wrap (monitoring data).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.counters.sum(i)),
            sum: self.counters.sum(SUM),
        }
    }
}

// ---------------------------------------------------------------------------
// Lazy handles (what the macros expand to)
// ---------------------------------------------------------------------------

macro_rules! lazy_handle {
    ($(#[$doc:meta])* $lazy:ident, $instrument:ident, $register:ident) => {
        $(#[$doc])*
        pub struct $lazy {
            name: &'static str,
            cell: OnceLock<&'static $instrument>,
        }

        impl $lazy {
            pub const fn new(name: &'static str) -> Self {
                $lazy { name, cell: OnceLock::new() }
            }

            /// Resolves (registering on first use) the underlying instrument.
            #[inline]
            pub fn get(&self) -> &'static $instrument {
                self.cell.get_or_init(|| Registry::global().$register(self.name))
            }
        }
    };
}

lazy_handle!(
    /// `static`-friendly counter handle; registers itself on first use.
    LazyCounter,
    Counter,
    counter
);
lazy_handle!(
    /// `static`-friendly histogram handle; registers itself on first use.
    LazyHistogram,
    Histogram,
    histogram
);

impl LazyCounter {
    #[inline]
    pub fn add(&self, delta: u64) {
        self.get().add(0, delta);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn value(&self) -> u64 {
        self.get().sum(0)
    }
}

impl LazyHistogram {
    #[inline]
    pub fn record(&self, value: u64) {
        self.get().record(value);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.get().snapshot()
    }
}

/// Scope timer: records elapsed nanoseconds into a histogram on drop
/// (including during unwinding). Built by the [`crate::span!`] macro.
///
/// Spans are *sampled* one-in-[`SPAN_SAMPLE`] per thread (the first span on
/// a thread is always timed): clock reads are the single most expensive
/// part of the hot path and sampling keeps the distribution while bounding
/// the cost. Histogram `count`/`sum` for span metrics are therefore sampled
/// figures, not exact call counts — pair a span with a counter when the
/// exact rate matters.
pub struct SpanGuard {
    timed: Option<(&'static Histogram, Instant)>,
}

impl SpanGuard {
    /// Registers the histogram on every call, sampled or not, so a span that
    /// ran at least once renders its `# TYPE` line.
    #[inline]
    pub fn enter(metric: &LazyHistogram) -> SpanGuard {
        let hist = metric.get();
        SpanGuard { timed: span_sampled().then(|| (hist, Instant::now())) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.timed {
            let ns = start.elapsed().as_nanos();
            hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

// ---------------------------------------------------------------------------
// Registry + exposition
// ---------------------------------------------------------------------------

/// The process-wide metric registry. Metrics are keyed by their static name
/// and live forever (leaked); the maps are locked only at registration and
/// scrape time, never on the update path.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| Registry {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.counters.lock().entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        self.histograms.lock().entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// Prometheus text exposition (one `# TYPE` line per metric; histogram
    /// buckets are cumulative with power-of-two `le` bounds, trimmed at the
    /// highest occupied bucket).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().iter() {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.sum(0)));
        }
        for (name, h) in self.histograms.lock().iter() {
            let name = sanitize(name);
            let snap = h.snapshot();
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let top = snap.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for (i, &count) in snap.buckets.iter().enumerate().take(top + 1) {
                cumulative += count;
                let le = (1u128 << (i + 1)) - 1;
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count()));
            out.push_str(&format!("{name}_sum {}\n", snap.sum));
            out.push_str(&format!("{name}_count {}\n", snap.count()));
        }
        out
    }
}

/// Maps a metric name onto the Prometheus charset (`[a-zA-Z0-9_:]`, no
/// leading digit); dots in span names become underscores.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // bucket 63
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[63], 1);
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1030u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn lazy_handles_register_once() {
        static C: LazyCounter = LazyCounter::new("mvkv_test_lazy_once_total");
        C.add(2);
        C.inc();
        assert_eq!(C.value(), 3);
        // A second handle with the same name resolves to the same counter.
        static C2: LazyCounter = LazyCounter::new("mvkv_test_lazy_once_total");
        C2.inc();
        assert_eq!(C.value(), 4);
    }

    #[test]
    fn span_macro_records_on_scope_exit() {
        static H: LazyHistogram = LazyHistogram::new("mvkv_test_span_ns");
        // Spans are sampled 1-in-SPAN_SAMPLE per thread, first one always
        // timed; the test harness gives each test a fresh thread, so
        // SPAN_SAMPLE + 1 spans record exactly twice (#1 and #SPAN_SAMPLE+1).
        std::thread::spawn(|| {
            for _ in 0..SPAN_SAMPLE + 1 {
                crate::span!("mvkv_test_span_ns");
                crate::span!("mvkv_test_span_ns"); // two spans in one scope is legal
                std::hint::black_box(());
            }
        })
        .join()
        .unwrap();
        assert_eq!(H.snapshot().count(), (2 * (SPAN_SAMPLE + 1)).div_ceil(SPAN_SAMPLE) as u64);
    }

    #[test]
    fn a_span_the_countdown_skips_still_renders() {
        // The thread's second span is not timed, yet its metric is listed.
        std::thread::spawn(|| {
            crate::span!("mvkv_test_timed_span_ns");
            crate::span!("mvkv_test_skipped_span_ns");
        })
        .join()
        .unwrap();
        let text = Registry::global().render_text();
        assert!(text.contains("# TYPE mvkv_test_skipped_span_ns histogram\n"));
        assert!(text.contains("mvkv_test_skipped_span_ns_count 0\n"));
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        crate::counter_add!("mvkv_test_render_total", 7);
        static H: LazyHistogram = LazyHistogram::new("mvkv_test_render_ns");
        H.record(1000);
        let text = Registry::global().render_text();
        assert!(text.contains("# TYPE mvkv_test_render_total counter\nmvkv_test_render_total 7\n"));
        assert!(text.contains("# TYPE mvkv_test_render_ns histogram\n"));
        assert!(text.contains("mvkv_test_render_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("mvkv_test_render_ns_sum 1000\n"));
        assert!(text.contains("mvkv_test_render_ns_count 1\n"));
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("pskiplist.find"), "pskiplist_find");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:sub"), "ok_name:sub");
    }
}
