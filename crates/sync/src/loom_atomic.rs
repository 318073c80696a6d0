//! Scheduler-instrumented atomics for `--cfg loom` builds.
//!
//! Each wrapper is `#[repr(transparent)]` over the corresponding std atomic.
//! That layout guarantee is load-bearing: `mvkv-pmem` materializes atomics
//! *in place* over persistent-memory words (`&*(ptr as *const AtomicU64)`),
//! which only stays sound under the model checker if the facade type has
//! exactly the std atomic's size, alignment and validity invariants.
//!
//! Every operation enters the scheduler ([`crate::scheduler::yield_point`])
//! before executing, making it an interleaving point, and then executes with
//! `SeqCst` regardless of the caller's `Ordering`: the built-in checker
//! explores sequentially consistent interleavings only (see the crate docs
//! for what that does and does not catch). The caller's ordering argument is
//! still part of the audited API surface.
//!
//! Each wrapper has only the operations some crate or model calls; the std
//! types the normal build re-exports have the rest.

use crate::scheduler::yield_point;
use std::sync::atomic::Ordering;

macro_rules! int_atomic {
    ($name:ident, $t:ty) => {
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$name,
        }

        impl $name {
            pub const fn new(v: $t) -> Self {
                Self { inner: std::sync::atomic::$name::new(v) }
            }

            pub fn load(&self, _order: Ordering) -> $t {
                yield_point();
                self.inner.load(Ordering::SeqCst)
            }

            pub fn store(&self, v: $t, _order: Ordering) {
                yield_point();
                self.inner.store(v, Ordering::SeqCst)
            }

            pub fn compare_exchange(
                &self,
                current: $t,
                new: $t,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$t, $t> {
                yield_point();
                self.inner.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            /// Modeled as the strong variant: spurious failure is an
            /// allowed-but-not-required behavior, so schedules explored
            /// without it remain a sound subset.
            pub fn compare_exchange_weak(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$t, $t> {
                self.compare_exchange(current, new, success, failure)
            }

            pub fn fetch_add(&self, v: $t, _order: Ordering) -> $t {
                yield_point();
                self.inner.fetch_add(v, Ordering::SeqCst)
            }

            pub fn fetch_sub(&self, v: $t, _order: Ordering) -> $t {
                yield_point();
                self.inner.fetch_sub(v, Ordering::SeqCst)
            }

            pub fn fetch_and(&self, v: $t, _order: Ordering) -> $t {
                yield_point();
                self.inner.fetch_and(v, Ordering::SeqCst)
            }

            pub fn fetch_or(&self, v: $t, _order: Ordering) -> $t {
                yield_point();
                self.inner.fetch_or(v, Ordering::SeqCst)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
}

int_atomic!(AtomicU32, u32);
int_atomic!(AtomicU64, u64);
int_atomic!(AtomicUsize, usize);

#[repr(transparent)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    pub const fn new(p: *mut T) -> Self {
        Self { inner: std::sync::atomic::AtomicPtr::new(p) }
    }

    pub fn load(&self, _order: Ordering) -> *mut T {
        yield_point();
        self.inner.load(Ordering::SeqCst)
    }

    pub fn store(&self, p: *mut T, _order: Ordering) {
        yield_point();
        self.inner.store(p, Ordering::SeqCst)
    }

    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        yield_point();
        self.inner.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }
}

/// Memory fence: a scheduling point under the model (all modeled operations
/// are already SeqCst, so the fence contributes interleavings, not ordering).
pub fn fence(_order: Ordering) {
    yield_point();
    std::sync::atomic::fence(Ordering::SeqCst);
}
