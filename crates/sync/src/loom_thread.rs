//! Scheduler-registered threads for `--cfg loom` builds.
//!
//! Model threads are real OS threads, but they execute only when the
//! scheduler hands them the single run token, so every cross-thread
//! interaction funnels through recorded scheduling decisions. Only a model
//! thread may spawn: every loom model spawns inside `model`, and ordinary
//! tests spawn with `std::thread`.

use crate::scheduler;
use std::sync::{Arc, Mutex, PoisonError};

pub struct JoinHandle<T> {
    id: usize,
    slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
}

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        scheduler::join_wait(self.id);
        let result = self.slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        result.expect("joined model thread left no result")
    }
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    assert!(scheduler::current_tid().is_some(), "mvkv_sync::thread::spawn outside a model");
    let id = scheduler::register_thread();
    let slot: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
    let slot2 = slot.clone();
    let os = std::thread::spawn(move || scheduler::run_child(id, f, slot2));
    scheduler::store_os_handle(os);
    // A scheduling point right after registration lets the DFS explore
    // child-runs-first orders.
    yield_now();
    JoinHandle { id, slot }
}

/// A scheduling point; the model equivalent of `std::thread::yield_now`.
pub fn yield_now() {
    scheduler::yield_point();
}
