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
//! 4. Segment adoption at publish: the REAL `PHistory` on a volatile pool,
//!    two appenders that both need segment 1 and race its link, and a reader
//!    beside them; and two appenders crossing segments 2 → 3 beside a third
//!    claim, racing the link and the newest-segment word a claim starts from,
//!    or beside a reader's finds, which start at that word and walk back.

#![cfg(loom)]

mod tracked;

use mvkv_pmem::PmemPool;
use mvkv_sync::sync::Arc;
use mvkv_sync::{model, thread};
use mvkv_vhistory::pslots::SEG_BACK;
use mvkv_vhistory::slots::{seg_base, seg_capacity, SEG_HDR_SIZE};
use mvkv_vhistory::{Cursor, EHistory, Entry, History, PHistory, Slots, ENTRY_SIZE};
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

/// The inline slots are taken; two threads claim slots 2 and 3
/// concurrently: both land in segment 1, so both may race the CAS that links
/// it; the loser must free its segment and adopt the winner's, and both
/// entries must be usable.
#[test]
fn concurrent_claims_race_segment_allocation_safely() {
    use mvkv_sync::sync::atomic::Ordering;
    model(|| {
        let storage = Arc::new(EHistory::new());
        for inline in 0..2 {
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
        assert_eq!(h.pending(), 4);
        let mut cur = Cursor::new();
        h.fill(&mut cur, 4);
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
/// tail; a writer claims slot 2 — bumping `pending`, *then* linking segment
/// 1, then publishing into it — while a second extender and a reader each
/// resolve their cursor somewhere in between. A cursor filled before the
/// link covers two slots; when the reader's own tail CAS then loses to an
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
        assert_eq!(h.extend_tail(1), 1);
        h.append(2, 20);
        let s2 = storage.clone();
        let writer = thread::spawn(move || History::new(&*s2).append(3, 30));
        let s3 = storage.clone();
        let extender = thread::spawn(move || History::new(&*s3).extend_tail(3));

        match h.find_raw(3, 3) {
            Some(20) | Some(30) => {}
            other => panic!("find must see version 2 or 3, got {other:?}"),
        }
        let records = h.records(3);
        assert!(records.len() == 2 || records.len() == 3, "a published prefix: {records:?}");

        writer.join().unwrap();
        assert!(extender.join().unwrap() <= 3);
        assert_eq!(h.find_raw(3, 3), Some(30));
        assert_eq!(h.tail(), 3);
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

// ---------------------------------------------------------------------------
// 4. Segment adoption at publish, on a pool
// ---------------------------------------------------------------------------

/// A history with its two inline slots published; two appenders claim slots
/// 2 and 3. Slot 2's claim allocates segment 1 and leaves it for its
/// publish to link; slot 3's finds it missing and links one of its own
/// behind a fence — or adopts slot 2's, if that publish linked it first. A
/// lost CAS frees its segment: slot 2's publish then moves its entry into
/// the winner's. A reader extends the tail beside them. On every
/// interleaving: whatever the reader sees stamped lies in a linked segment
/// and holds its own entry, both entries end up readable at their slots, and
/// exactly one segment stays allocated.
#[test]
fn two_appenders_adopting_one_segment_link_it_once() {
    use mvkv_sync::sync::atomic::Ordering;
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        let h = History::new(PHistory::create(&pool).unwrap());
        h.append(1, 10);
        h.append(2, 20);
        let hdr = h.slots().pptr();
        // Two free blocks of segment 1's class on the shared list: the
        // appenders pop them instead of racing a refill.
        let seg1 = SEG_HDR_SIZE + seg_capacity(1) as usize * ENTRY_SIZE;
        let warm = [0; 2].map(|_| pool.alloc(seg1).unwrap());
        warm.into_iter().for_each(|block| pool.dealloc(block));
        let live = pool.alloc_stats().live_blocks;
        let appenders: Vec<_> = [3, 4]
            .map(|version| {
                let p = pool.clone();
                thread::spawn(move || {
                    History::new(PHistory::open(&p, hdr)).append(version, version * 10)
                })
            })
            .into_iter()
            .collect();

        // The reader: the tail covers stamped slots only, and a cursor
        // reaches them only through links.
        let t = h.extend_tail(u64::MAX);
        let mut cur = Cursor::new();
        assert_eq!(h.slots().fill(&mut cur, t), t, "every slot under the tail is linked");
        for idx in 0..t {
            let e = cur.entry(idx);
            assert!(e.crc_valid(), "slot {idx} is stamped over its own entry");
            assert_eq!(e.value.load(Ordering::Relaxed), e.version.load(Ordering::Relaxed) * 10);
        }

        for a in appenders {
            a.join().unwrap();
        }
        assert_eq!(pool.alloc_stats().live_blocks - live, 1, "one segment 1 stays allocated");
        let mut cur = Cursor::new();
        assert_eq!(h.slots().fill(&mut cur, 4), 4);
        let mut versions: Vec<u64> =
            (2..4).map(|idx| cur.entry(idx).load_if_done().expect("published").0).collect();
        versions.sort_unstable();
        assert_eq!(versions, [3, 4], "both entries are readable at their slots");
        for idx in 2..4 {
            assert!(cur.entry(idx).crc_valid());
        }
    });
}

/// The history's linked segments of levels 1 … 3, by the links alone (0
/// from the first one missing).
fn linked_segments(pool: &PmemPool, h: &PHistory<'_>) -> [u64; 3] {
    use mvkv_sync::sync::atomic::Ordering;
    let mut seg = h.raw_header().2;
    std::array::from_fn(|_| {
        let this = seg;
        if seg != 0 {
            seg = pool.atomic_u32(seg).load(Ordering::Acquire).into();
        }
        this
    })
}

/// A history whose last slot is segment 2's last: the word names segment 2.
/// Two appenders claim slots 24 and 25, segment 3's first two. Slot 24's
/// claim leaves segment 3 unlinked for its publish to link (`adopt`); slot
/// 25's links one of its own (`extend`) unless that link came first, and
/// either raises the word. Beside them a third claim, outside an append,
/// takes slot 26 and may link segment 3 itself. On every interleaving: the
/// word names a linked segment whenever it is read, it never names a lower
/// level than it did, and every claim resolves the slot a full walk of the
/// links resolves.
#[test]
fn appenders_crossing_a_segment_raise_the_newest_word_to_linked_segments_only() {
    use mvkv_sync::sync::atomic::Ordering;
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        let h = History::new(PHistory::create(&pool).unwrap());
        for version in 1..=seg_base(3) {
            h.append(version, version * 10);
        }
        let hdr = h.slots().pptr();
        // Three free blocks of segment 3's class on the shared list: the
        // claims pop them instead of racing a refill.
        let seg3 = SEG_HDR_SIZE + seg_capacity(3) as usize * ENTRY_SIZE;
        let warm = [0; 3].map(|_| pool.alloc(seg3).unwrap());
        warm.into_iter().for_each(|block| pool.dealloc(block));
        let appenders: Vec<_> = [seg_base(3) + 1, seg_base(3) + 2]
            .map(|version| {
                let p = pool.clone();
                thread::spawn(move || {
                    History::new(PHistory::open(&p, hdr)).append(version, version * 10)
                })
            })
            .into_iter()
            .collect();

        // The word's level among the linked segments, checked as it is read.
        let level = || {
            let newest = h.slots().raw_newest();
            let linked = linked_segments(&pool, h.slots());
            let at = linked.iter().position(|&seg| seg == newest);
            at.unwrap_or_else(|| panic!("the word {newest} names no linked segment: {linked:?}"))
        };
        let before = level();
        assert!(before >= 1, "segment 2, or 3 once linked");
        let (idx, slot) = h.slots().claim();
        let during = level();
        assert!(during >= before, "the word moved down");

        for a in appenders {
            a.join().unwrap();
        }
        assert_eq!(level(), 2, "segment 3, once linked, is the word's");
        let mut cur = Cursor::new();
        assert_eq!(h.slots().fill(&mut cur, seg_base(3) + 3), seg_base(3) + 3);
        assert!(std::ptr::eq(cur.entry(idx), &*slot), "the claim's slot is the walk's");
        let mut versions: Vec<u64> = (seg_base(3)..seg_base(3) + 3)
            .filter(|&i| i != idx)
            .map(|i| {
                let e = cur.entry(i);
                assert!(e.crc_valid(), "slot {i} is stamped over its own entry");
                e.version.load(Ordering::Relaxed)
            })
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, [seg_base(3) + 1, seg_base(3) + 2], "both appends at walked slots");
    });
}

/// The history of the model above, its tail moved over all 24 slots, and
/// slots 24 and 25 appended by two threads beside a reader's find instead of
/// a third claim. The find starts at the segment the newest-segment word
/// names and follows back links down; once either append has linked segment
/// 3, the word may name it, and the find of a segment-2 version walks back
/// through segment 3's back link. On every interleaving the segment the
/// word names has its back link in place when the reader sees the word (a
/// zero one would send the walk to offset 0, and only the checksum fallback
/// would save the answer), the find returns its version's value, and both
/// appends end up published in segment 3.
#[test]
fn a_find_walks_back_from_a_segment_two_appenders_are_linking() {
    use mvkv_sync::sync::atomic::Ordering;
    model(|| {
        let pool = Arc::new(PmemPool::create_volatile(1 << 16).unwrap());
        let h = History::new(PHistory::create(&pool).unwrap());
        for version in 1..=seg_base(3) {
            h.append(version, version * 10);
        }
        assert_eq!(h.extend_tail(u64::MAX), seg_base(3), "the finds extend nothing");
        let hdr = h.slots().pptr();
        // Three free blocks of segment 3's class on the shared list: the
        // appends pop them instead of racing a refill.
        let seg3 = SEG_HDR_SIZE + seg_capacity(3) as usize * ENTRY_SIZE;
        let warm = [0; 3].map(|_| pool.alloc(seg3).unwrap());
        warm.into_iter().for_each(|block| pool.dealloc(block));
        let appenders: Vec<_> = [seg_base(3) + 1, seg_base(3) + 2]
            .map(|version| {
                let p = pool.clone();
                thread::spawn(move || {
                    History::new(PHistory::open(&p, hdr)).append(version, version * 10)
                })
            })
            .into_iter()
            .collect();

        // What the find is about to do, checked as it goes: the word, then
        // the back link of the segment it names. (The find itself would
        // survive a missing back link, by its checksum fallback.)
        let newest = h.slots().raw_newest();
        if newest != 0 && newest == linked_segments(&pool, h.slots())[2] {
            let back = pool.atomic_u32(newest + SEG_BACK).load(Ordering::Acquire);
            assert_ne!(back, 0, "the word names segment 3 before its back link is in place");
        }
        assert_eq!(h.find_raw(seg_base(2) + 1, u64::MAX), Some((seg_base(2) + 1) * 10));

        for a in appenders {
            a.join().unwrap();
        }
        // The two appends race for their slots, so slot order need not be
        // version order there (same-key writes are the caller's to order).
        for version in [1, seg_base(2) + 1, seg_base(3)] {
            assert_eq!(h.find_raw(version, u64::MAX), Some(version * 10), "version {version}");
        }
        let mut cur = Cursor::new();
        assert_eq!(h.slots().fill(&mut cur, seg_base(3) + 2), seg_base(3) + 2);
        let mut newest = [seg_base(3), seg_base(3) + 1].map(|i| cur.entry(i).load_if_done());
        newest.sort_unstable();
        assert_eq!(newest, [Some((25, 250)), Some((26, 260))]);
    });
}
