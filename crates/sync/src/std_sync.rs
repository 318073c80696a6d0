//! Non-poisoning mutex for normal (not `--cfg loom`) builds.
//!
//! The store's locks guard in-memory index state that is rebuilt from
//! persistent memory on restart, so lock poisoning adds failure modes without
//! adding safety: a panicked writer's partial volatile state is discarded at
//! recovery, exactly as a crashed process's would be. Adopting the poisoned
//! state matches `parking_lot` semantics and keeps the loom and std builds
//! behaviorally identical.
//!
//! A debug build also checks the store's lock discipline on every path a
//! test runs. Each thread counts the facade guards it holds: `lock` panics
//! when the count is not 0, so facade locks never nest and no cycle among
//! them can deadlock, and [`assert_unlocked`] — which `PmemPool::fence`
//! calls — panics on any live guard, so no sfence runs under a lock (it
//! would serialize unrelated writers on the slowest PM operation).
//! A release build keeps no count: the guard is the std guard.

use std::sync::PoisonError;

pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Facade guards live on this thread.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Panics in a debug build when the calling thread holds a facade guard;
/// `what` names the operation that must not run under one.
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    assert!(HELD.with(std::cell::Cell::get) == 0, "{what} under a live mvkv_sync Mutex guard");
    #[cfg(not(debug_assertions))]
    let _ = what;
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self { inner: std::sync::Mutex::new(value) }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        assert_unlocked("Mutex::lock");
        MutexGuard::new(self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<'a, T> MutexGuard<'a, T> {
    fn new(inner: std::sync::MutexGuard<'a, T>) -> Self {
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(held.get() + 1));
        MutexGuard { inner }
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() - 1));
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
#[cfg(debug_assertions)]
mod tests {
    use super::*;

    fn held() -> usize {
        HELD.with(std::cell::Cell::get)
    }

    #[test]
    #[should_panic(expected = "Mutex::lock under a live mvkv_sync Mutex guard")]
    fn a_lock_under_a_live_guard_panics() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let _outer = a.lock();
        let _inner = b.lock();
    }

    #[test]
    fn dropped_guards_are_uncounted_and_the_lock_is_free_again() {
        let m = Mutex::new(0);
        let guard = m.lock();
        assert_eq!(held(), 1);
        drop(guard);
        assert_eq!(held(), 0);
        assert_unlocked("after the guard drops");
        *m.lock() += 1;
        assert_eq!(held(), 0);
        assert_eq!(*m.lock(), 1);
    }
}
