//! The segment cursor, from outside the crate: every operation walks the
//! chain at most once, and cursor addressing is the deterministic geometry.

mod tracked;

use mvkv_pmem::PmemPool;
use mvkv_vhistory::slots::{locate, seg_base, seg_capacity};
use mvkv_vhistory::{Cursor, EHistory, Entry, History, PHistory, Slots};
use tracked::TrackedSlots;

/// Depth of the `read_deep` histories: slots 0..=255 span segments 0..=6.
const DEPTH: u64 = 256;

#[test]
fn each_operation_follows_the_chain_at_most_once() {
    let storage = EHistory::new();
    let h = History::new(TrackedSlots::new(&storage, DEPTH as usize + 2));
    for v in 1..=DEPTH {
        h.append(v, v * 2);
    }
    // Segment k is k links from the history block.
    let budget = locate(DEPTH - 1).0 as u64;
    assert_eq!(budget, 6);
    h.slots().take_links();

    // Nothing is visible yet: this find fills for tail = 0, extends the
    // tail over all 256 slots, then searches — on one cursor.
    assert_eq!(h.find(DEPTH / 3, DEPTH), Some(DEPTH / 3 * 2));
    assert_eq!(h.slots().take_links(), budget, "find with tail extension");

    // Steady state: the tail check, the segment pick and every probe of the
    // binary search share the walk.
    for version in [1, 2, 3, 7, 100, 127, 128, 255, 256, 1000] {
        assert_eq!(h.find(version, DEPTH), Some(version.min(DEPTH) * 2));
        let links = h.slots().take_links();
        assert!(links <= budget, "find({version}) followed {links} links, budget {budget}");
    }

    assert_eq!(h.records(DEPTH).len() as u64, DEPTH);
    assert_eq!(h.slots().take_links(), budget, "records");

    assert_eq!(h.latest(DEPTH).map(|r| r.version), Some(DEPTH));
    assert_eq!(h.slots().take_links(), budget, "latest");

    // Slot 256 is segment 6's eleventh: claim → write → persist → publish →
    // persist all use the address the claim's single walk resolved.
    h.append(DEPTH + 1, 0);
    assert_eq!(h.slots().take_links(), locate(DEPTH).0 as u64, "append");

    // A history of up to three entries — the paper's insert / remove /
    // insert — pays no link load at all: not to append, not to find.
    let small = EHistory::new();
    let three = History::new(TrackedSlots::new(&small, 3));
    for v in 1..=3 {
        three.append(v, v * 10);
        assert_eq!(three.find(v, v), Some(v * 10));
    }
    assert_eq!(three.records(3).len(), 3);
    assert_eq!(three.slots().take_links(), 0, "the inline slots are the history block");
}

/// Claims `n` slots, then checks that a cursor — filled in one go, and
/// resumed in uneven steps — addresses slot `idx` exactly where the claim
/// of `idx` (which walks to `locate(idx)`) put it.
fn cursor_agrees_with_claims<'s, S: Slots<Slot = &'s Entry>>(slots: &S, n: u64) {
    let claimed: Vec<&Entry> = (0..n)
        .map(|want| {
            let (idx, slot) = slots.claim();
            assert_eq!(idx, want);
            slot
        })
        .collect();

    let mut whole = Cursor::new();
    slots.fill(&mut whole, n);
    assert_eq!(whole.levels(), locate(n - 1).0 + 1);

    let mut stepped = Cursor::new();
    let mut step = 1;
    let mut asked = 0;
    while asked < n {
        asked = (asked + step).min(n);
        step = step * 3 + 1;
        slots.fill(&mut stepped, asked);
        assert!(stepped.covered() >= asked, "a fill covers what it was asked for");
        assert!(seg_base(stepped.levels() - 1) < asked, "and resolves no segment beyond it");
    }

    for (idx, &slot) in claimed.iter().enumerate() {
        let idx = idx as u64;
        assert!(std::ptr::eq(whole.entry(idx), slot), "slot {idx}, one fill");
        assert!(std::ptr::eq(stepped.entry(idx), slot), "slot {idx}, resumed fills");
        // The geometry, spelled out: `pos` entries past the segment's first.
        let (k, pos) = locate(idx);
        let first: *const Entry = whole.entry(seg_base(k));
        assert!(pos < seg_capacity(k));
        assert!(std::ptr::eq(first.wrapping_add(pos as usize), slot), "slot {idx} geometry");
    }
}

/// Two slots past the twelfth boundary: segments 0..=12 are all in play.
const ACROSS_TWELVE_BOUNDARIES: u64 = seg_base(12) + 2;

#[test]
#[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
fn cursor_addressing_agrees_with_locate_on_the_heap() {
    let storage = EHistory::new();
    cursor_agrees_with_claims(&&storage, ACROSS_TWELVE_BOUNDARIES);
}

#[test]
#[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
fn cursor_addressing_agrees_with_locate_in_a_pool() {
    let pool = PmemPool::create_volatile(1 << 22).unwrap();
    let h = PHistory::create(&pool).unwrap();
    cursor_agrees_with_claims(&h, ACROSS_TWELVE_BOUNDARIES);
    // The checked fill resolves the same addresses, validating as it goes.
    let mut checked = Cursor::new();
    h.fill_checked(&mut checked, ACROSS_TWELVE_BOUNDARIES);
    let mut plain = Cursor::new();
    h.fill(&mut plain, ACROSS_TWELVE_BOUNDARIES);
    assert_eq!(checked.levels(), 13);
    for idx in 0..ACROSS_TWELVE_BOUNDARIES {
        assert!(std::ptr::eq(checked.entry(idx), plain.entry(idx)));
    }
}

#[test]
#[should_panic(expected = "beyond the 2 resolved segments")]
fn indexing_past_the_resolved_segments_panics() {
    let storage = EHistory::new();
    let h = &storage;
    for _ in 0..10 {
        h.claim();
    }
    let mut cur = Cursor::new();
    h.fill(&mut cur, 10);
    let _ = cur.entry(9);
    let _ = cur.entry(10); // segment 2 was never linked, let alone resolved
}
