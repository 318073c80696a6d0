//! Scheduler-aware mutex for `--cfg loom` builds.
//!
//! The lock state (`held`) is a plain std atomic mutated only under the
//! scheduler's own lock while a model is active, so acquire-vs-block
//! decisions are race-free and lost wakeups are impossible. Contended
//! acquisition parks the model thread in the scheduler (`BlockedMutex`
//! status) instead of spinning, which is what makes lock-ordering deadlocks
//! detectable: a cycle leaves no thread runnable.

use crate::scheduler;
use std::cell::UnsafeCell;
use std::sync::atomic::AtomicBool;

pub struct Mutex<T> {
    held: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: Mutex provides exclusive access to `data` (the scheduler blocks
// all but one owner), so it is Send/Sync exactly when T is Send — the same
// bounds std::sync::Mutex uses.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: see above; `&Mutex<T>` only hands out `&mut T` through the guard,
// which the `held` protocol makes exclusive.
unsafe impl<T: Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
}

/// The std personality's debug-build guard check; a model finds lock-order
/// deadlocks itself (a cycle leaves no thread runnable), so this is a no-op.
pub fn assert_unlocked(_what: &str) {}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self { held: AtomicBool::new(false), data: UnsafeCell::new(value) }
    }

    fn key(&self) -> usize {
        &self.held as *const AtomicBool as usize
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        scheduler::mutex_acquire(&self.held, self.key());
        MutexGuard { lock: self }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        scheduler::mutex_release(&self.lock.held, self.lock.key());
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while this thread holds the lock
        // (held=true, set atomically with the scheduler decision), so no
        // other reference to `data` is live.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref — lock held, access is exclusive.
        unsafe { &mut *self.lock.data.get() }
    }
}
