//! Cooperative model-checking scheduler for `--cfg loom` builds.
//!
//! ## How it works
//!
//! A model execution runs real OS threads, but exactly **one** is runnable at
//! any instant: every instrumented operation (atomic access, mutex op, spawn,
//! join, spin hint) is a *scheduling point* that hands control to a central
//! decision function. The decision function either replays a recorded prefix
//! of choices or extends it with a default policy, recording every choice.
//! After the execution finishes, [`advance`] computes the lexicographically
//! next unexplored schedule (depth-first search over the schedule tree) and
//! the model function is re-run under it — until the tree is exhausted or the
//! schedule cap is hit.
//!
//! ## Preemption bounding
//!
//! Exhaustive interleaving search is exponential in the trace length. The
//! search therefore bounds *preemptions* — context switches at a point where
//! the current thread could have continued — to [`PREEMPTION_BOUND`] (2).
//! Forced switches (current thread blocked or finished, or the
//! anti-starvation limit below) are always explored freely. Context-bounded
//! search with 2–3 preemptions is empirically sufficient to expose the vast
//! majority of real interleaving bugs while keeping runtime polynomial.
//!
//! ## Starvation and deadlock
//!
//! The default policy keeps running the current thread, which would spin
//! forever in CAS-retry loops that wait on another thread. After
//! [`FORCE_SWITCH_LIMIT`] consecutive same-thread decisions a switch is
//! forced (not billed to the preemption budget). If no thread is runnable
//! while some are blocked, the execution is declared deadlocked and the
//! model panics with the offending schedule.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Consecutive same-thread decisions before a switch is forced.
const FORCE_SWITCH_LIMIT: usize = 64;

/// Hard cap on scheduling points in a single execution (runaway guard).
const MAX_CHOICES_PER_RUN: usize = 1_000_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    Runnable,
    /// Blocked acquiring the mutex whose key (address) is given.
    BlockedMutex(usize),
    /// Blocked joining the thread with the given id.
    BlockedJoin(usize),
    Finished,
}

/// One recorded scheduling decision.
#[derive(Clone, Copy, Debug)]
struct Choice {
    /// Index chosen within the runnable-ordering for this point.
    rank: usize,
    /// Number of runnable threads at this point.
    n: usize,
    /// True if the switch was forced (current thread not runnable, or the
    /// anti-starvation limit fired); forced points are exempt from the
    /// preemption budget when the DFS advances through them.
    forced: bool,
    /// Preemptions consumed before this point (for budget checks in
    /// [`advance`]).
    preemptions_before: usize,
}

#[derive(Default)]
struct State {
    /// True while a model execution is in progress.
    active: bool,
    threads: Vec<Status>,
    /// Id of the thread currently allowed to run.
    cur: usize,
    /// Choice ranks replayed from the previous execution's [`advance`].
    prefix: Vec<usize>,
    cursor: usize,
    choices: Vec<Choice>,
    /// Consecutive decisions that kept the current thread running.
    consec: usize,
    preemptions: usize,
    failure: Option<String>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

struct Sched {
    mx: Mutex<State>,
    cv: Condvar,
}

fn sched() -> &'static Sched {
    static SCHED: OnceLock<Sched> = OnceLock::new();
    SCHED.get_or_init(|| Sched { mx: Mutex::new(State::default()), cv: Condvar::new() })
}

/// Serializes concurrent `model()` calls within one test process.
fn model_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

thread_local! {
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Marker panic payload used to unwind sibling threads after a failure has
/// already been recorded; recognized and swallowed by the thread wrappers.
struct Teardown;

fn teardown_panic() -> ! {
    std::panic::panic_any(Teardown)
}

fn lock_state() -> MutexGuard<'static, State> {
    sched().mx.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's index in the running model execution: 0 for the
/// thread that called [`model`], then spawn order. `None` outside a model.
/// The same on every schedule replay, so `shard::shard_id` can use it.
pub(crate) fn current_tid() -> Option<usize> {
    TID.with(|t| t.get())
}

fn record_failure(st: &mut State, msg: String) {
    if st.failure.is_none() {
        let ranks: Vec<usize> = st.choices.iter().map(|c| c.rank).collect();
        st.failure = Some(format!("{msg}\n  schedule (choice ranks): {ranks:?}"));
    }
}

fn has_runnable(st: &State) -> bool {
    st.threads.contains(&Status::Runnable)
}

fn all_finished(st: &State) -> bool {
    st.threads.iter().all(|t| *t == Status::Finished)
}

/// Picks the next thread to run and records the decision. Callers must have
/// verified at least one thread is runnable.
fn decide(st: &mut State) -> usize {
    let cur = st.cur;
    let cur_runnable = st.threads.get(cur) == Some(&Status::Runnable);
    let mut order: Vec<usize> = Vec::with_capacity(st.threads.len());
    if cur_runnable {
        order.push(cur);
    }
    for (i, t) in st.threads.iter().enumerate() {
        if i != cur && *t == Status::Runnable {
            order.push(i);
        }
    }
    let n = order.len();
    debug_assert!(n > 0, "decide() with no runnable thread");
    if st.choices.len() >= MAX_CHOICES_PER_RUN {
        record_failure(
            st,
            format!("model exceeded {MAX_CHOICES_PER_RUN} scheduling points; livelock?"),
        );
        sched().cv.notify_all();
        teardown_panic();
    }
    let forced = !cur_runnable || (st.consec >= FORCE_SWITCH_LIMIT && n > 1);
    let rank = if st.cursor < st.prefix.len() {
        // Replay. A well-formed model is deterministic under a fixed
        // schedule, so the recorded rank is always < n; clamp defensively.
        st.prefix[st.cursor].min(n - 1)
    } else if !cur_runnable {
        0
    } else if st.consec >= FORCE_SWITCH_LIMIT && n > 1 {
        1 // first non-current runnable: anti-starvation switch
    } else {
        0 // default: keep running the current thread
    };
    st.cursor += 1;
    st.choices.push(Choice { rank, n, forced, preemptions_before: st.preemptions });
    let chosen = order[rank];
    if cur_runnable && chosen != cur && !forced {
        st.preemptions += 1;
    }
    if cur_runnable && chosen == cur {
        st.consec += 1;
    } else {
        st.consec = 0;
    }
    chosen
}

/// Blocks until the scheduler hands control to `me`; teardown-unwinds if a
/// failure is recorded in the meantime.
fn wait_for_turn<'a>(mut st: MutexGuard<'a, State>, me: usize) -> MutexGuard<'a, State> {
    loop {
        if st.failure.is_some() {
            drop(st);
            teardown_panic();
        }
        if st.cur == me {
            return st;
        }
        st = sched().cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Marks the caller's status already updated by the caller (blocked), picks
/// another thread, and waits until rescheduled.
fn schedule_away<'a>(mut st: MutexGuard<'a, State>, me: usize) -> MutexGuard<'a, State> {
    if !has_runnable(&st) {
        let statuses: Vec<(usize, Status)> = st.threads.iter().copied().enumerate().collect();
        record_failure(&mut st, format!("deadlock: no runnable thread, statuses {statuses:?}"));
        sched().cv.notify_all();
        drop(st);
        teardown_panic();
    }
    let next = decide(&mut st);
    st.cur = next;
    sched().cv.notify_all();
    wait_for_turn(st, me)
}

/// A scheduling point: every instrumented operation calls this first.
/// Outside a model execution it is a no-op. Also a no-op while the calling
/// thread is unwinding: destructors that touch instrumented state (e.g.
/// `MutexGuard::drop`) must not start a second panic during teardown.
pub(crate) fn yield_point() {
    if std::thread::panicking() {
        return;
    }
    let Some(me) = current_tid() else { return };
    let mut st = lock_state();
    if st.failure.is_some() {
        drop(st);
        teardown_panic();
    }
    if !st.active {
        return;
    }
    let next = decide(&mut st);
    if next != me {
        st.cur = next;
        sched().cv.notify_all();
        let st = wait_for_turn(st, me);
        drop(st);
    }
}

/// Acquires a model mutex: the `held` flag is only mutated under the
/// scheduler lock while a model is active, so check-and-set is atomic with
/// the blocking decision (no lost wakeups).
pub(crate) fn mutex_acquire(held: &std::sync::atomic::AtomicBool, key: usize) {
    use std::sync::atomic::Ordering;
    if current_tid().is_none() || std::thread::panicking() {
        // Outside a model (fixtures built before `model()` is entered) or
        // while unwinding during failure teardown — where the scheduler's
        // one-runnable-thread invariant is already suspended and every
        // unwinding holder will release its lock: plain spin lock.
        while held.swap(true, Ordering::SeqCst) {
            std::thread::yield_now();
        }
        return;
    }
    let me = current_tid().expect("checked above");
    yield_point();
    let mut st = lock_state();
    loop {
        if st.failure.is_some() {
            drop(st);
            teardown_panic();
        }
        if !held.swap(true, Ordering::SeqCst) {
            return;
        }
        st.threads[me] = Status::BlockedMutex(key);
        st = schedule_away(st, me);
        // Rescheduled after an unlock; retry (another waiter may have won).
    }
}

/// Releases a model mutex and wakes its waiters; yields so a waiter can be
/// scheduled immediately (a distinct interleaving the DFS should explore).
pub(crate) fn mutex_release(held: &std::sync::atomic::AtomicBool, key: usize) {
    use std::sync::atomic::Ordering;
    if current_tid().is_none() || std::thread::panicking() {
        held.store(false, Ordering::SeqCst);
        return;
    }
    {
        let mut st = lock_state();
        held.store(false, Ordering::SeqCst);
        for t in st.threads.iter_mut() {
            if *t == Status::BlockedMutex(key) {
                *t = Status::Runnable;
            }
        }
    }
    yield_point();
}

/// Registers a new model thread (parent side of spawn). Returns its id.
pub(crate) fn register_thread() -> usize {
    let mut st = lock_state();
    let id = st.threads.len();
    st.threads.push(Status::Runnable);
    id
}

pub(crate) fn store_os_handle(h: std::thread::JoinHandle<()>) {
    lock_state().os_handles.push(h);
}

/// Child-thread entry: adopt the model identity and wait to be scheduled.
/// Returns normally once the scheduler first hands control to `id`.
pub(crate) fn child_enter(id: usize) {
    TID.with(|t| t.set(Some(id)));
    let st = lock_state();
    let st = wait_for_turn(st, id);
    drop(st);
}

/// Marks `me` finished, wakes joiners, and hands control onward. `panic_msg`
/// is `Some` for a real (non-teardown) panic in the thread body.
pub(crate) fn finish_thread(me: usize, panic_msg: Option<String>) {
    let mut st = lock_state();
    st.threads[me] = Status::Finished;
    if let Some(msg) = panic_msg {
        record_failure(&mut st, msg);
    }
    for t in st.threads.iter_mut() {
        if *t == Status::BlockedJoin(me) {
            *t = Status::Runnable;
        }
    }
    if st.failure.is_some() || all_finished(&st) {
        sched().cv.notify_all();
        return;
    }
    if has_runnable(&st) {
        let next = decide(&mut st);
        st.cur = next;
    } else {
        let statuses: Vec<(usize, Status)> = st.threads.iter().copied().enumerate().collect();
        record_failure(&mut st, format!("deadlock: no runnable thread, statuses {statuses:?}"));
    }
    sched().cv.notify_all();
}

/// Blocks the caller until thread `target` finishes.
pub(crate) fn join_wait(target: usize) {
    let me = current_tid().expect("join_wait outside model");
    yield_point();
    let mut st = lock_state();
    while st.threads[target] != Status::Finished {
        if st.failure.is_some() {
            drop(st);
            teardown_panic();
        }
        st.threads[me] = Status::BlockedJoin(target);
        st = schedule_away(st, me);
    }
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    if payload.downcast_ref::<Teardown>().is_some() {
        return None; // failure already recorded by the thread that caused it
    }
    Some(match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "thread panicked with a non-string payload".to_string(),
        },
    })
}

/// Runs the thread body under the standard model-thread wrapper; used by
/// `loom_thread::spawn`.
pub(crate) fn run_child<T, F>(
    id: usize,
    f: F,
    slot: std::sync::Arc<Mutex<Option<std::thread::Result<T>>>>,
) where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        child_enter(id);
        f()
    }));
    let msg = result.as_ref().err().and_then(|p| describe_panic(&**p));
    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    finish_thread(id, msg);
}

/// Computes the next unexplored schedule prefix, or `None` when the bounded
/// schedule tree is exhausted. A choice can be advanced past rank 0 only if
/// it was forced, is already a preemption, or the preemption budget before
/// it still has room.
fn advance(choices: &[Choice], bound: usize) -> Option<Vec<usize>> {
    for i in (0..choices.len()).rev() {
        let c = &choices[i];
        if c.rank + 1 < c.n && (c.forced || c.rank > 0 || c.preemptions_before < bound) {
            let mut p: Vec<usize> = choices[..i].iter().map(|c| c.rank).collect();
            p.push(c.rank + 1);
            return Some(p);
        }
    }
    None
}

/// Preemptions per explored schedule (see the module docs).
const PREEMPTION_BOUND: usize = 2;

/// Schedules explored per [`model`] call before exploration is truncated.
const MAX_SCHEDULES: usize = 10_000;

/// Explores `f` under bounded-exhaustive thread interleavings, then prints
/// the explored-schedule count to stderr. Panics with the failing schedule
/// on the first assertion failure, panic, or deadlock.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let _serial = model_lock().lock().unwrap_or_else(PoisonError::into_inner);

    let mut prefix: Vec<usize> = Vec::new();
    let mut explored = 0usize;
    loop {
        explored += 1;
        {
            let mut st = lock_state();
            *st = State {
                active: true,
                threads: vec![Status::Runnable],
                cur: 0,
                prefix: std::mem::take(&mut prefix),
                ..State::default()
            };
        }
        TID.with(|t| t.set(Some(0)));
        let result = catch_unwind(AssertUnwindSafe(&f));
        let panic_msg = result.err().and_then(|p| describe_panic(&*p));
        finish_thread(0, panic_msg);
        // Drain remaining threads (spawned-but-unjoined, or teardown).
        {
            let mut st = lock_state();
            while !all_finished(&st) {
                st = sched().cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        TID.with(|t| t.set(None));
        let (choices, failure, handles) = {
            let mut st = lock_state();
            st.active = false;
            (std::mem::take(&mut st.choices), st.failure.take(), std::mem::take(&mut st.os_handles))
        };
        for h in handles {
            let _ = h.join();
        }
        if let Some(fail) = failure {
            panic!("loom model failed on schedule #{explored}: {fail}");
        }
        match advance(&choices, PREEMPTION_BOUND) {
            Some(next) if explored < MAX_SCHEDULES => prefix = next,
            Some(_) => {
                eprintln!("mvkv-sync: schedule cap {MAX_SCHEDULES} reached; exploration truncated");
                break;
            }
            None => break,
        }
    }
    eprintln!("mvkv-sync: explored {explored} schedule(s)");
}

#[cfg(test)]
mod tests {
    use crate::sync::atomic::{AtomicU64, Ordering};
    use crate::sync::{Arc, Mutex};
    use std::collections::HashSet;

    /// The classic lost update: two threads perform a non-atomic
    /// read-modify-write. Exhaustive SC exploration must observe BOTH the
    /// correct outcome (2) and the lost-update outcome (1).
    #[test]
    fn finds_lost_update_interleaving() {
        let seen: Arc<std::sync::Mutex<HashSet<u64>>> = Arc::default();
        let seen2 = seen.clone();
        super::model(move || {
            let c = Arc::new(AtomicU64::new(0));
            let h: Vec<_> = (0..2)
                .map(|_| {
                    let c = c.clone();
                    crate::thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for t in h {
                t.join().unwrap();
            }
            seen2.lock().unwrap().insert(c.load(Ordering::SeqCst));
        });
        let outcomes = seen.lock().unwrap();
        assert!(outcomes.contains(&2), "sequential outcome missing: {outcomes:?}");
        assert!(outcomes.contains(&1), "lost-update interleaving not explored: {outcomes:?}");
    }

    /// Mutual exclusion actually holds: increments under a mutex never lose
    /// updates on any schedule.
    #[test]
    fn mutex_guarantees_exclusion() {
        super::model(|| {
            let c = Arc::new(Mutex::new(0u64));
            let h: Vec<_> = (0..2)
                .map(|_| {
                    let c = c.clone();
                    crate::thread::spawn(move || {
                        let mut g = c.lock();
                        let v = *g;
                        *g = v + 1;
                    })
                })
                .collect();
            for t in h {
                t.join().unwrap();
            }
            assert_eq!(*c.lock(), 2);
        });
    }

    /// The owner path of `shard::Counters` (the `mvkv-obs` instruments,
    /// `OpCounters`): a thread adds to its own shard's cell with a plain load
    /// and store, which loses no update only if no other thread writes that
    /// cell. Two model threads get distinct owned shards, so on every
    /// schedule the reader sees a partial sum and the joined total is exact.
    #[test]
    fn owned_shards_never_lose_a_load_store_bump() {
        use crate::shard::{shard_id, Counters, OVERFLOW_SHARD};
        super::model(|| {
            assert_eq!(shard_id(), 0, "the model's own thread");
            let counters: Arc<Counters<1>> = Arc::default();
            let h: Vec<_> = (0..2)
                .map(|_| {
                    let counters = counters.clone();
                    crate::thread::spawn(move || {
                        let id = shard_id();
                        assert!(id < OVERFLOW_SHARD, "an owned shard, got {id}");
                        for _ in 0..2 {
                            counters.add(0, 1);
                        }
                        id
                    })
                })
                .collect();
            assert!(counters.sum(0) <= 4);
            let ids: Vec<usize> = h.into_iter().map(|t| t.join().unwrap()).collect();
            assert_ne!(ids[0], ids[1], "two model threads share a shard");
            assert_eq!(counters.sum(0), 4, "a bump was lost");
        });
    }

    /// ABBA lock ordering must be reported as a deadlock.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn detects_abba_deadlock() {
        super::model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let t = crate::thread::spawn(move || {
                let _g1 = b2.lock();
                let _g2 = a2.lock();
            });
            let _g1 = a.lock();
            let _g2 = b.lock();
            drop(_g2);
            drop(_g1);
            t.join().unwrap();
        });
    }

    /// A broken publish protocol (flag stored before the payload) must be
    /// caught: some schedule lets the reader observe flag=1, data=0.
    #[test]
    #[should_panic(expected = "published flag visible before payload")]
    fn catches_broken_publish_protocol() {
        super::model(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let w = crate::thread::spawn(move || {
                f2.store(1, Ordering::Release); // bug: flag before payload
                d2.store(42, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(
                    data.load(Ordering::Relaxed),
                    42,
                    "published flag visible before payload"
                );
            }
            w.join().unwrap();
        });
    }

    /// The DFS terminates and explores more than one schedule for a racy
    /// model (sanity check on the advance() logic).
    #[test]
    fn exploration_is_bounded_and_multi_schedule() {
        let runs = Arc::new(AtomicU64::new(0));
        let r2 = runs.clone();
        super::model(move || {
            r2.fetch_add(1, Ordering::SeqCst);
            let c = Arc::new(AtomicU64::new(0));
            let c2 = c.clone();
            let t = crate::thread::spawn(move || c2.store(1, Ordering::SeqCst));
            let _ = c.load(Ordering::SeqCst);
            t.join().unwrap();
        });
        let n = runs.load(Ordering::SeqCst);
        assert!(n >= 2, "expected multiple schedules, got {n}");
        assert!(n <= 10_000, "expected bounded exploration, got {n}");
    }
}
