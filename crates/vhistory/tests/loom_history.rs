//! Bounded model checking of the version-history append/read protocol
//! (Algorithm 1) and of the coalesced persist schedule.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p mvkv-vhistory --release`
//!
//! Three groups of models:
//!
//! 1. Lazy-tail: the REAL `History<&EHistory>` with a writer appending while
//!    a reader extends the tail — the watermark rule must hold on every
//!    interleaving.
//! 2. Segment chain: concurrent `claim`s racing the segment-allocation CAS,
//!    and a reader's cursor racing the link of the next segment.
//! 3. Persist-schedule regression (PR-2's one-fence-per-append coalescing):
//!    the `TrackedSlots` wrapper checks, on the reader side, that no
//!    published (non-zero stamp) entry is ever observed whose payload flush was
//!    skipped or not fence-ordered before the publish.

#![cfg(loom)]

mod tracked;

use mvkv_sync::sync::Arc;
use mvkv_sync::{model, thread};
use mvkv_vhistory::{Cursor, EHistory, Entry, History, Slots};
use tracked::{TrackedSlots, FENCED};

// ---------------------------------------------------------------------------
// 1. Lazy tail vs. versioned reads
// ---------------------------------------------------------------------------

/// Writer appends versions 1 and 2; a concurrent reader bound to watermark
/// fc=1 must never observe version 2, on any interleaving of the entry
/// stores, stamp publishes, and tail CASes.
#[test]
fn lazy_tail_respects_the_watermark() {
    model(|| {
        let storage = Arc::new(EHistory::new());
        let h = History::new(&*storage);
        let s2 = storage.clone();
        let w = thread::spawn(move || {
            let h2 = History::new(&*s2);
            h2.append(1, 10);
            h2.append(2, 20);
        });
        // fc = 1: version 2 exists in the slots but is beyond the watermark.
        match h.find_raw(2, 1) {
            None => {}
            Some(v) => assert_eq!(v, 10, "watermark 1 must hide version 2"),
        }
        w.join().unwrap();
        assert_eq!(h.find_raw(1, 2), Some(10));
        assert_eq!(h.find_raw(2, 2), Some(20));
        assert_eq!(h.extend_tail(2), 2);
    });
}

/// Two concurrent tail extenders cooperate through the CAS-max: the tail
/// only moves forward and ends exactly at the published prefix.
#[test]
fn concurrent_extenders_keep_tail_monotone() {
    model(|| {
        let storage = Arc::new(EHistory::new());
        let h = History::new(&*storage);
        h.append(1, 11);
        h.append(2, 22);
        let s2 = storage.clone();
        let t = thread::spawn(move || History::new(&*s2).extend_tail(2));
        let a = h.extend_tail(2);
        let b = t.join().unwrap();
        assert!(a <= 2 && b <= 2);
        assert_eq!(h.tail(), 2, "both extenders done: tail must be fully advanced");
    });
}

// ---------------------------------------------------------------------------
// 2. Segment-chain allocation race
// ---------------------------------------------------------------------------

/// The inline slots are taken; two threads claim slots 3 and 4
/// concurrently: both land in segment 1, so both may race the CAS that links
/// it; the loser must free its segment and adopt the winner's, and both
/// entries must be usable.
#[test]
fn concurrent_claims_race_segment_allocation_safely() {
    use mvkv_sync::sync::atomic::Ordering;
    model(|| {
        let storage = Arc::new(EHistory::new());
        for inline in 0..3 {
            assert_eq!((&*storage).claim().0, inline);
        }
        let s2 = storage.clone();
        let t = thread::spawn(move || {
            let (idx, e) = (&*s2).claim();
            e.value.store(100 + idx, Ordering::Relaxed);
            e.crc_done.store(Entry::stamp(0, 100 + idx), Ordering::Release);
            idx
        });
        let h = &*storage;
        let (mine, e) = h.claim();
        e.value.store(100 + mine, Ordering::Relaxed);
        e.crc_done.store(Entry::stamp(0, 100 + mine), Ordering::Release);
        let theirs = t.join().unwrap();

        assert_ne!(mine, theirs, "slot claims must be unique");
        assert_eq!(h.pending(), 5);
        let mut cur = Cursor::new();
        h.fill(&mut cur, 5);
        for idx in [mine, theirs] {
            assert_eq!(
                cur.entry(idx).value.load(Ordering::Relaxed),
                100 + idx,
                "entry written through a raced segment must survive"
            );
        }
    });
}

/// Segment 0 is full, its last slot published but not yet under the
/// tail; a writer claims slot 3 — bumping `pending`, *then* linking segment
/// 1, then publishing into it — while a second extender and a reader each
/// resolve their cursor somewhere in between. A cursor filled before the
/// link covers three slots; when the reader's own tail CAS then loses to an
/// extender that advanced into segment 1, the length it adopts lies beyond
/// that cursor. On every interleaving the reader must re-resolve before
/// indexing (`Cursor::entry` panics on an unresolved level), and what it
/// returns must be a published value.
#[test]
fn reader_cursor_never_indexes_a_segment_linked_after_its_fill() {
    model(|| {
        let storage = Arc::new(EHistory::new());
        let h = History::new(&*storage);
        h.append(1, 10);
        h.append(2, 20);
        assert_eq!(h.extend_tail(2), 2);
        h.append(3, 30);
        let s2 = storage.clone();
        let writer = thread::spawn(move || History::new(&*s2).append(4, 40));
        let s3 = storage.clone();
        let extender = thread::spawn(move || History::new(&*s3).extend_tail(4));

        match h.find_raw(4, 4) {
            Some(30) | Some(40) => {}
            other => panic!("find must see version 3 or 4, got {other:?}"),
        }
        let records = h.records(4);
        assert!(records.len() == 3 || records.len() == 4, "a published prefix: {records:?}");

        writer.join().unwrap();
        assert!(extender.join().unwrap() <= 4);
        assert_eq!(h.find_raw(4, 4), Some(40));
        assert_eq!(h.tail(), 4);
    });
}

// ---------------------------------------------------------------------------
// 3. Persist-schedule regression for the coalesced (one-fence) append
// ---------------------------------------------------------------------------

/// Slots the persist-schedule models claim at most.
const TRACKED_SLOTS: usize = 4;

/// The coalesced batch schedule (prepare, prepare, ONE fence, publish,
/// publish) racing a reader: on every interleaving, any entry the reader
/// observes as published must have its payload flush fence-ordered — i.e.
/// the single shared fence is sufficient, not just the per-append fence.
#[test]
fn one_fence_batch_never_publishes_unflushed_payload() {
    use mvkv_sync::sync::atomic::Ordering;
    model(|| {
        // Leaked per schedule: the wrapper borrows the storage, and a
        // spawned thread needs both for 'static.
        let storage: &'static EHistory = Box::leak(Box::new(EHistory::new()));
        let h = Arc::new(History::new(TrackedSlots::new(storage, TRACKED_SLOTS)));
        let h2 = h.clone();
        let w = thread::spawn(move || {
            let a = h2.append_prepare(1, 10);
            let b = h2.append_prepare(2, 20);
            h2.publish_fence(); // ONE fence covers both prepares
            h2.append_publish(a, 1);
            h2.append_publish(b, 2);
        });
        // Reader: every slot visible through the lazy tail must be durable.
        let t = h.extend_tail(2);
        let mut cur = Cursor::new();
        h.slots().fill(&mut cur, t);
        for idx in 0..t {
            let e = cur.entry(idx);
            assert_ne!(e.crc_done.load(Ordering::Acquire), 0, "tail covers published slots only");
            assert_eq!(
                h.slots().slot_state(idx),
                FENCED,
                "reader observed published slot {idx} whose payload flush was skipped"
            );
        }
        w.join().unwrap();
        assert_eq!(h.extend_tail(2), 2);
    });
}

/// Seeded violation: publishing without the fence must be caught by the
/// model on its very first schedule — this is the regression tripwire for
/// anyone "optimizing away" the publish fence.
#[test]
#[should_panic(expected = "before its payload flush was fence-ordered")]
fn skipping_the_publish_fence_is_detected() {
    model(|| {
        let storage = EHistory::new();
        let h = History::new(TrackedSlots::new(&storage, TRACKED_SLOTS));
        let slot = h.append_prepare(1, 10);
        // BUG under test: no publish_fence() between prepare and publish.
        h.append_publish(slot, 1);
    });
}
