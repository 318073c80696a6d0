//! Zero-cost stubs selected when the `enabled` feature is off (or under
//! `--cfg loom`, where metrics must not perturb the model checker).
//!
//! Every type is zero-sized and every method is an inlineable empty body,
//! so the macros in [`crate`] compile to literally nothing: no statics with
//! data, no atomic traffic, no clock reads. The `obs_smoke` bench asserts
//! these sizes and that the registry renders empty.

/// False: the layer is compiled out. A const-foldable literal so
/// `if is_enabled() { ... }` blocks are eliminated entirely.
#[inline(always)]
pub fn is_enabled() -> bool {
    false
}

/// Zero-sized stand-in for the enabled build's lazy counter handle.
pub struct LazyCounter;

impl LazyCounter {
    pub const fn new(_name: &'static str) -> Self {
        LazyCounter
    }

    #[inline(always)]
    pub fn add(&self, _delta: u64) {}

    #[inline(always)]
    pub fn inc(&self) {}

    pub fn value(&self) -> u64 {
        0
    }
}

/// Zero-sized stand-in for the enabled build's lazy histogram handle.
pub struct LazyHistogram;

impl LazyHistogram {
    pub const fn new(_name: &'static str) -> Self {
        LazyHistogram
    }

    #[inline(always)]
    pub fn record(&self, _value: u64) {}

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot
    }
}

/// Zero-sized stand-in for the enabled build's merged histogram view:
/// always empty, so `snapshot()` callers compile unchanged with the layer off
/// and read zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot;

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        0
    }
}

/// Zero-sized span guard: entering and dropping it does nothing.
pub struct SpanGuard;

impl SpanGuard {
    #[inline(always)]
    pub fn enter(_metric: &LazyHistogram) -> SpanGuard {
        SpanGuard
    }
}

/// Zero-sized registry: renders an empty exposition.
pub struct Registry;

impl Registry {
    pub fn global() -> &'static Registry {
        static GLOBAL: Registry = Registry;
        &GLOBAL
    }

    pub fn render_text(&self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stubs_are_zero_sized() {
        assert_eq!(std::mem::size_of::<LazyCounter>(), 0);
        assert_eq!(std::mem::size_of::<LazyHistogram>(), 0);
        assert_eq!(std::mem::size_of::<HistogramSnapshot>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert_eq!(std::mem::size_of::<Registry>(), 0);
    }

    #[test]
    fn macros_expand_to_no_ops() {
        crate::counter_inc!("mvkv_test_noop_total");
        crate::counter_add!("mvkv_test_noop_total", 5);
        {
            crate::span!("mvkv_test_noop_span_ns");
        }
        assert!(!is_enabled());
        assert_eq!(Registry::global().render_text(), "");
    }
}
