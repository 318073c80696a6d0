//! Store-wide version issue and completion tracking.
//!
//! The paper's Algorithm 1 keeps two global counters: `pc`, a completion
//! stamp dispenser, and `fc`, the watermark of contiguously finished
//! operations. We implement the same idea keyed directly by version number:
//! [`VersionClock::issue`] hands out versions `1, 2, 3, …` and
//! [`VersionClock::complete`] marks a version finished, advancing the
//! watermark `fc` over every contiguously completed prefix. Queries answer
//! as of `min(requested, fc)`, which is exactly the paper's consistency
//! rule: an operation becomes visible only once all lower-version
//! operations have finished.
//!
//! Completion is tracked in a fixed ring of atomic version cells. A slot is
//! reused only after the watermark passes it; `issue` applies back-pressure
//! (spins) when more than `window` operations are in flight, bounding the
//! ring.

use mvkv_sync::sync::atomic::{AtomicU64, Ordering};

/// Default in-flight window (power of two).
pub const DEFAULT_WINDOW: usize = 1 << 16;

/// Issues version numbers and tracks the contiguous completion watermark.
///
/// Every mutation writes `issued` and `fc`. The alignment gives the clock a
/// cache line of its own, so those writes cannot slow the readers of
/// whatever a store keeps next to it (an index head, a pool pointer) — which
/// fields those are is otherwise up to the compiler's field order.
#[repr(align(64))]
pub struct VersionClock {
    /// Last issued version (0 = none issued yet).
    issued: AtomicU64,
    /// Watermark: all versions `1..=fc` have completed.
    fc: AtomicU64,
    /// `ring[v & mask] == v` once version `v` has completed.
    ring: Box<[AtomicU64]>,
    mask: u64,
}

impl VersionClock {
    /// A fresh clock starting at version 1 with the default window.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// A fresh clock with a custom in-flight window (rounded up to a power
    /// of two, minimum 2).
    pub fn with_window(window: usize) -> Self {
        Self::resume(0, window)
    }

    /// Resumes a clock after recovery: versions `1..=watermark` are deemed
    /// complete and the next issued version is `watermark + 1`.
    pub fn resume(watermark: u64, window: usize) -> Self {
        let window = window.next_power_of_two().max(2);
        let ring: Box<[AtomicU64]> = (0..window).map(|_| AtomicU64::new(0)).collect();
        VersionClock {
            issued: AtomicU64::new(watermark),
            fc: AtomicU64::new(watermark),
            ring,
            mask: window as u64 - 1,
        }
    }

    /// Claims the next version number. Spins (with yields) if the in-flight
    /// window is exhausted, providing back-pressure against stalled writers.
    pub fn issue(&self) -> u64 {
        loop {
            // ordering: this read is a hint only; the AcqRel CAS below
            // validates it before anything depends on the value.
            let issued = self.issued.load(Ordering::Relaxed);
            if issued.wrapping_sub(self.fc.load(Ordering::Acquire)) >= self.mask {
                mvkv_sync::hint::spin_loop();
                mvkv_sync::thread::yield_now();
                continue;
            }
            if self
                .issued
                // ordering: failure arm only retries with a fresh read.
                .compare_exchange_weak(issued, issued + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return issued + 1;
            }
        }
    }

    /// Marks version `v` complete and advances the watermark over any
    /// contiguously completed prefix.
    pub fn complete(&self, v: u64) {
        // ordering: debug sanity check; any stale read only weakens it.
        debug_assert!(v > self.fc.load(Ordering::Relaxed), "completing an already-passed version");
        self.ring[(v & self.mask) as usize].store(v, Ordering::Release);
        self.advance();
    }

    fn advance(&self) {
        loop {
            let f = self.fc.load(Ordering::Acquire);
            let next = f + 1;
            if self.ring[(next & self.mask) as usize].load(Ordering::Acquire) != next {
                return;
            }
            // Another thread may advance concurrently; both outcomes make
            // progress, so a failed CAS just retries the loop.
            let _ = self.fc.compare_exchange(f, next, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Current watermark: the highest version `v` such that all operations
    /// with versions `1..=v` have completed.
    #[inline]
    pub fn watermark(&self) -> u64 {
        self.fc.load(Ordering::Acquire)
    }

    /// Last issued version.
    #[inline]
    pub fn issued(&self) -> u64 {
        self.issued.load(Ordering::Acquire)
    }

    /// Spins until every issued version has completed. Call at phase
    /// barriers (all writers joined) before relying on `watermark()` ==
    /// `issued()`; the benchmarks use this exactly where the paper's phases
    /// synchronize threads.
    pub fn wait_all_complete(&self) {
        while self.watermark() != self.issued() {
            mvkv_sync::hint::spin_loop();
            mvkv_sync::thread::yield_now();
        }
    }
}

impl Default for VersionClock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for VersionClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionClock")
            .field("issued", &self.issued())
            .field("watermark", &self.watermark())
            .field("window", &(self.mask + 1))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_issue_complete_advances_watermark() {
        let clock = VersionClock::new();
        assert_eq!(clock.watermark(), 0);
        for expected in 1..=100u64 {
            let v = clock.issue();
            assert_eq!(v, expected);
            clock.complete(v);
            assert_eq!(clock.watermark(), expected);
        }
    }

    #[test]
    fn out_of_order_completion_holds_watermark() {
        let clock = VersionClock::new();
        let v1 = clock.issue();
        let v2 = clock.issue();
        let v3 = clock.issue();
        clock.complete(v3);
        clock.complete(v2);
        assert_eq!(clock.watermark(), 0, "v1 still outstanding");
        clock.complete(v1);
        assert_eq!(clock.watermark(), v3, "watermark jumps over the buffered completions");
    }

    #[test]
    fn resume_continues_numbering() {
        let clock = VersionClock::resume(500, 64);
        assert_eq!(clock.watermark(), 500);
        assert_eq!(clock.issue(), 501);
        clock.complete(501);
        assert_eq!(clock.watermark(), 501);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_issue_complete_is_gapless() {
        let clock = Arc::new(VersionClock::with_window(256));
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let clock = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        let v = clock.issue();
                        clock.complete(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        clock.wait_all_complete();
        assert_eq!(clock.watermark(), threads * per_thread);
        assert_eq!(clock.issued(), threads * per_thread);
    }

    #[test]
    fn window_backpressure_does_not_deadlock_two_phase() {
        // Issue a burst inside the window, then complete in reverse order.
        let clock = VersionClock::with_window(64);
        let versions: Vec<u64> = (0..32).map(|_| clock.issue()).collect();
        for &v in versions.iter().rev() {
            clock.complete(v);
        }
        assert_eq!(clock.watermark(), 32);
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn wait_all_complete_with_threads() {
        let clock = Arc::new(VersionClock::new());
        let c2 = clock.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                let v = c2.issue();
                std::hint::spin_loop();
                c2.complete(v);
            }
        });
        h.join().unwrap();
        clock.wait_all_complete();
        assert_eq!(clock.watermark(), 1000);
    }
}
