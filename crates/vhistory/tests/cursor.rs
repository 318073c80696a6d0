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
    // Segment k is k links from the history block, and the newest segment
    // is the history's deepest.
    let newest = locate(DEPTH - 1).0;
    let budget = newest as u64;
    assert_eq!(budget, 6);
    h.slots().take_links();

    // Nothing is visible yet: this find starts at the newest segment and
    // walks back to slot 0 for the tail extension over all 256 slots, then
    // searches — on one cursor, with no forward link.
    assert_eq!(h.find(DEPTH / 3, DEPTH), Some(DEPTH / 3 * 2));
    let taken = (h.slots().take_links(), h.slots().take_back_links());
    assert_eq!(taken, (0, budget - 1), "find with tail extension");

    // Steady state: the walk starts at the newest segment and follows back
    // links only down to the segment holding the version (slot `v − 1`) —
    // segment 1's predecessor, the history block, costs none. A find at or
    // beyond the newest segment's first version follows no link at all.
    for version in [1, 2, 3, 7, 9, 10, 24, 25, 100, 127, 128, 245, 246, 255, 256, 1000] {
        assert_eq!(h.find(version, DEPTH), Some(version.min(DEPTH) * 2));
        let target = locate(version.min(DEPTH) - 1).0;
        let links = (h.slots().take_links(), h.slots().take_back_links());
        assert_eq!(links, (0, (newest - target.max(1)) as u64), "find({version})");
    }
    assert!(locate(245).0 == newest && locate(244).0 == newest - 1);

    assert_eq!(h.records(DEPTH).len() as u64, DEPTH);
    assert_eq!(h.slots().take_links(), budget, "records");

    assert_eq!(h.latest(DEPTH).map(|r| r.version), Some(DEPTH));
    assert_eq!(h.slots().take_links(), budget, "latest");

    // Slot 256 is segment 6's twelfth: claim → write → persist → publish →
    // persist all use the address the claim's single walk resolved.
    h.append(DEPTH + 1, 0);
    assert_eq!(h.slots().take_links(), locate(DEPTH).0 as u64, "append");

    // A history of up to two entries — a key inserted and removed — pays
    // no link load at all: not to append, not to find.
    let small = EHistory::new();
    let two = History::new(TrackedSlots::new(&small, 2));
    for v in 1..=2 {
        two.append(v, v * 10);
        assert_eq!(two.find(v, v), Some(v * 10));
    }
    assert_eq!(two.records(2).len(), 2);
    assert_eq!(two.slots().take_links(), 0, "the inline slots are the history block");
}

/// Claims `n` slots, then checks that a cursor — filled in one go, and
/// resumed in uneven steps — addresses slot `idx` exactly where the claim
/// of `idx` (which walks to `locate(idx)`) put it.
fn cursor_agrees_with_claims<S: Slots>(slots: &S, n: u64) {
    let claimed: Vec<*const Entry> = (0..n)
        .map(|want| {
            let (idx, slot) = slots.claim();
            assert_eq!(idx, want);
            &*slot as *const Entry
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
    for _ in 0..9 {
        h.claim();
    }
    let mut cur = Cursor::new();
    h.fill(&mut cur, 9);
    let _ = cur.entry(8);
    let _ = cur.entry(9); // segment 2 was never linked, let alone resolved
}
