//! Restart-time recovery of persistent histories.
//!
//! The paper (§IV-B): *"on restart, it is enough to count the length of all
//! contiguous non-zero finished sequences of all keys to recover `fc`, then
//! prune all finished entries larger than `fc` and adjust `tail` and
//! `pending` accordingly for each key."*
//!
//! Recovery therefore runs in two passes driven by the owning store:
//!
//! 1. [`scan_published_prefix`] on every history collects the versions in
//!    its durable contiguous prefix; the store combines them into the global
//!    watermark (largest `v` with all of `1..=v` present).
//! 2. [`prune_to_watermark`] truncates each history to the prefix covered by
//!    that watermark, clearing orphaned `done` stamps so the slots can be
//!    reused safely.

use crate::pslots::PHistory;
use crate::slots::{Cursor, Slots};
use mvkv_sync::sync::atomic::Ordering;

/// Result of scanning one history's durable prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixScan {
    /// Length of the contiguous published prefix.
    pub len: u64,
    /// Versions of the prefix entries, in slot order (strictly increasing).
    pub versions: Vec<u64>,
}

/// Why a prefix scan stopped where it did — the checked scan's
/// classification, used by salvage recovery to distinguish ordinary torn
/// appends (expected after any crash) from media corruption (quarantined
/// and reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStop {
    /// Every claimed slot was published and valid.
    Exhausted,
    /// A slot had no `done` stamp — a torn append, the normal crash case.
    Unpublished,
    /// The backing segment was never linked, or its header failed
    /// validation (out-of-bounds link / torn or corrupt header). The
    /// prefix then ends exactly at that segment's first slot.
    Unlinked,
    /// A `done` stamp disagreed with its version, or versions broke
    /// monotonicity — torn metadata.
    TornStamp,
    /// The slot was fully published but its payload failed the CRC check —
    /// media corruption of a committed record.
    ChecksumInvalid,
}

/// Walks slots from 0 and returns the contiguous published prefix. Stops at
/// the first slot whose `done` stamp is missing, whose backing segment was
/// never linked, whose version breaks monotonicity (torn metadata), or
/// whose payload fails its CRC (media corruption).
pub fn scan_published_prefix(h: &PHistory<'_>) -> PrefixScan {
    scan_published_prefix_checked(h).0
}

/// [`scan_published_prefix`] plus the reason the walk stopped — salvage
/// recovery uses the classification to build its quarantine report.
pub fn scan_published_prefix_checked(h: &PHistory<'_>) -> (PrefixScan, ScanStop) {
    let pending = h.pending();
    let mut cur = Cursor::new();
    // `pending` is a word read from media: only the slots the checked fill
    // finds valid backing for exist.
    let backed = h.fill_checked(&mut cur, pending);
    let mut versions = Vec::new();
    let mut last = 0u64;
    let mut stop = if backed < pending { ScanStop::Unlinked } else { ScanStop::Exhausted };
    for idx in 0..backed {
        let e = cur.entry(idx);
        let done = e.done.load(Ordering::Acquire);
        if done == 0 {
            stop = ScanStop::Unpublished;
            break;
        }
        // ordering: `done` was Acquire-loaded above; the stamp check
        // below rejects any torn or unpublished value anyway.
        let version = e.version.load(Ordering::Relaxed);
        // checked_add: a scrambled version word can read u64::MAX, and
        // `version + 1` must classify as torn, not overflow.
        if version.checked_add(1) != Some(done) || (idx > 0 && version <= last) {
            stop = ScanStop::TornStamp;
            break;
        }
        if !e.crc_valid() {
            stop = ScanStop::ChecksumInvalid;
            break;
        }
        versions.push(version);
        last = version;
    }
    (PrefixScan { len: versions.len() as u64, versions }, stop)
}

/// Outcome of pruning one history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Slots kept (== new `pending` and `tail`).
    pub kept: u64,
    /// Slots discarded (beyond the watermark or torn).
    pub pruned: u64,
}

/// Truncates the history to the prefix whose versions are ≤ `watermark`,
/// resetting `pending`/`tail` and clearing any `done` stamps beyond the keep
/// point (so future appends can't mistake stale slots for published ones).
pub fn prune_to_watermark(h: &PHistory<'_>, watermark: u64) -> PruneOutcome {
    let (old_pending, old_tail, _) = h.raw_header();
    // Stop at the first unlinked slot: segments are reached by walking the
    // chain, so nothing beyond a missing link has storage — and a corrupt
    // `pending` counter can be astronomically large, so no loop below may
    // trust it as a real slot count.
    let mut cur = Cursor::new();
    let backed = h.fill_checked(&mut cur, old_pending);
    let mut keep = 0u64;
    for idx in 0..backed {
        let e = cur.entry(idx);
        let done = e.done.load(Ordering::Acquire);
        // A checksum-invalid slot is never kept, even below the watermark —
        // its version can't have contributed to the watermark (the checked
        // scan stopped at it), and keeping it would surface corrupt data.
        if done == 0 || done - 1 > watermark || !e.crc_valid() {
            break;
        }
        keep += 1;
    }
    // Clear orphaned done stamps on slots that still have backing storage.
    // persist_done is flush-only under the coalesced schedule, so close the
    // batch with one explicit fence before the slots can be reused.
    let mut cleared = false;
    for idx in keep..backed {
        let e = cur.entry(idx);
        if e.done.load(Ordering::Acquire) != 0 {
            e.done.store(0, Ordering::Release);
            h.persist_done(e);
            cleared = true;
        }
    }
    if cleared {
        h.publish_fence();
    }
    // A cleanly closed history already reads `pending == tail == keep`:
    // rewriting the same words would cost every key a persist and a fence
    // on every open.
    if (old_pending, old_tail) != (keep, keep) {
        h.force_counters(keep, keep);
    }
    // `pruned` counts slots that actually had backing storage: a corrupt
    // `pending` counter claims slots that never existed, and reporting
    // those would overflow downstream accumulators.
    PruneOutcome { kept: keep, pruned: backed - keep }
}

/// Computes the global watermark from per-history scans: the largest `v`
/// such that every version in `base+1..=v` appears in some scan. Versions
/// at or below `base` are deemed complete a priori — `base` is 0 for a
/// normal store and the compaction horizon for a compacted one (whose
/// collapsed entries keep their original, gappy version numbers).
pub fn compute_watermark<'a>(scans: impl Iterator<Item = &'a PrefixScan>, base: u64) -> u64 {
    let mut versions: Vec<u64> = scans
        .flat_map(|s| s.versions.iter().copied())
        .filter(|&v| v > base)
        .collect();
    versions.sort_unstable();
    let mut watermark = base;
    for v in versions {
        if v == watermark + 1 {
            watermark = v;
        } else if v > watermark + 1 {
            break;
        }
        // v <= watermark would be a duplicate version: impossible by
        // construction (each version tags exactly one operation).
    }
    watermark
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use mvkv_pmem::PmemPool;

    fn pool() -> PmemPool {
        PmemPool::create_volatile(1 << 22).unwrap()
    }

    #[test]
    fn scan_of_clean_history() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(2, 20);
        h.append(5, 50);
        let scan = scan_published_prefix(h.slots());
        assert_eq!(scan, PrefixScan { len: 2, versions: vec![2, 5] });
    }

    #[test]
    fn scan_stops_at_unpublished_slot() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        let _ = h.slots().claim(); // claimed, never published
        h.append(3, 30); // published after the gap
        let scan = scan_published_prefix(h.slots());
        assert_eq!(scan.versions, vec![1], "prefix must stop at the gap");
    }

    #[test]
    fn prune_drops_entries_beyond_watermark() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        h.append(4, 40);
        h.append(9, 90);
        let out = prune_to_watermark(h.slots(), 4);
        assert_eq!(out, PruneOutcome { kept: 2, pruned: 1 });
        assert_eq!(h.pending(), 2);
        assert_eq!(h.tail(), 2);
        // The pruned slot is reusable: a fresh append must succeed.
        h.append(10, 100);
        assert_eq!(h.find(10, 10), Some(100));
        assert_eq!(h.find(9, 10), Some(40), "pruned version must be gone");
    }

    #[test]
    fn prune_handles_torn_gap() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        let _ = h.slots().claim(); // gap
        h.append(3, 30);
        let out = prune_to_watermark(h.slots(), 100);
        assert_eq!(out.kept, 1);
        // Slot 2's done stamp must have been cleared.
        let scan = scan_published_prefix(h.slots());
        assert_eq!(scan.versions, vec![1]);
    }

    #[test]
    fn watermark_from_scans() {
        let a = PrefixScan { len: 3, versions: vec![1, 4, 5] };
        let b = PrefixScan { len: 2, versions: vec![2, 3] };
        let c = PrefixScan { len: 1, versions: vec![8] };
        assert_eq!(compute_watermark([&a, &b, &c].into_iter(), 0), 5, "8 is beyond the gap at 6/7");
        assert_eq!(compute_watermark([&c].into_iter(), 0), 0);
        assert_eq!(compute_watermark(std::iter::empty(), 0), 0);
    }

    #[test]
    fn watermark_with_base_ignores_collapsed_versions() {
        // A compacted store: collapsed entries keep gappy old versions
        // (2, 9); live range is contiguous from the base (horizon 10).
        let a = PrefixScan { len: 3, versions: vec![2, 11, 12] };
        let b = PrefixScan { len: 2, versions: vec![9, 13] };
        assert_eq!(compute_watermark([&a, &b].into_iter(), 10), 13);
        // With a gap above the base, the watermark stops before it.
        let c = PrefixScan { len: 1, versions: vec![15] };
        assert_eq!(compute_watermark([&a, &b, &c].into_iter(), 10), 13);
        // No versions above the base at all → watermark is the base.
        assert_eq!(compute_watermark([&PrefixScan { len: 1, versions: vec![4] }].into_iter(), 10), 10);
    }

    #[test]
    fn full_crash_cycle_on_crash_sim_pool() {
        // Write through a crash-sim pool, crash, reopen the image, recover.
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        let hdr;
        {
            let h = History::new(PHistory::create(&p).unwrap());
            hdr = h.slots().pptr();
            h.append(1, 11);
            h.append(2, 22);
            // Version 3 claims a slot and writes data but "crashes" before
            // publishing: emulate by claiming without the done stamp.
            let (_, e) = h.slots().claim();
            h.slots().persist_pending();
            e.version.store(3, std::sync::atomic::Ordering::Relaxed);
            e.value.store(33, std::sync::atomic::Ordering::Relaxed);
            h.slots().persist_entry(e);
            // no persist of done → lost in the crash image
        }
        let image = p.crash_image().unwrap();
        let rp = PmemPool::open_image(&image).unwrap();
        let h = History::new(PHistory::open(&rp, hdr));
        let scan = scan_published_prefix(h.slots());
        assert_eq!(scan.versions, vec![1, 2]);
        let wm = compute_watermark([&scan].into_iter(), 0);
        assert_eq!(wm, 2);
        let out = prune_to_watermark(h.slots(), wm);
        assert_eq!(out.kept, 2);
        assert_eq!(h.find(2, wm), Some(22));
        assert_eq!(h.find(3, wm), Some(22), "the torn version-3 write is gone");
    }

    #[test]
    fn damaged_segment_classifies_unlinked_at_its_first_slot() {
        use crate::slots::seg_base;
        // 40 published slots span segments 0..=4. Damage segment j in each
        // of the three ways a link can go bad; the prefix must end at
        // exactly seg_base(j), classified Unlinked, and prune must keep the
        // same prefix without touching anything beyond it.
        for j in 1..=4u32 {
            for damage in 0..3 {
                let p = pool();
                let h = History::new(PHistory::create(&p).unwrap());
                for v in 1..=40u64 {
                    h.append(v, v * 10);
                }
                let (_, _, mut prev) = h.slots().raw_header();
                for _ in 1..j {
                    prev = p.read_u64(prev);
                }
                let seg = p.read_u64(prev);
                match damage {
                    0 => p.write_u64(seg + 24, p.read_u64(seg + 24) ^ 0x5A5A), // header crc
                    1 => p.write_u64(prev, p.len() as u64 + 64),               // link out of bounds
                    _ => p.write_u64(prev, 0),                                 // link torn away
                }
                let (scan, stop) = scan_published_prefix_checked(h.slots());
                assert_eq!(stop, ScanStop::Unlinked, "segment {j}, damage {damage}");
                assert_eq!(scan.len, seg_base(j), "segment {j}, damage {damage}");
                let out = prune_to_watermark(h.slots(), 40);
                assert_eq!(out, PruneOutcome { kept: seg_base(j), pruned: 0 });
                assert_eq!(h.pending(), seg_base(j));
            }
        }
    }

    #[test]
    fn garbage_pending_is_bounded_by_the_backing() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        for v in 1..=5u64 {
            h.append(v, v);
        }
        // Slot 5 is the last of segment 1 and was never claimed: a `pending`
        // word of u64::MAX claims it and 2^64 more.
        h.slots().force_counters(u64::MAX, 0);
        let (scan, stop) = scan_published_prefix_checked(h.slots());
        assert_eq!((scan.versions, stop), (vec![1, 2, 3, 4, 5], ScanStop::Unpublished));
        let out = prune_to_watermark(h.slots(), 5);
        assert_eq!(out, PruneOutcome { kept: 5, pruned: 1 }, "only backed slots are counted");
        assert_eq!((h.pending(), h.tail()), (5, 5));
    }

    #[test]
    fn pruning_a_cleanly_closed_history_writes_nothing() {
        // Histories of several depths, every lazy tail moved (a store that
        // was read before it was closed), everything flushed: the state a
        // clean shutdown leaves. Reopening it must not fence or dirty the
        // media once per key.
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        let mut hdrs = Vec::new();
        let mut version = 0u64;
        for depth in [1u64, 2, 3, 7, 40, 256] {
            let h = History::new(PHistory::create(&p).unwrap());
            for _ in 0..depth {
                version += 1;
                h.append(version, version * 3);
            }
            hdrs.push((h.slots().pptr(), depth));
        }
        for &(hdr, depth) in &hdrs {
            assert_eq!(History::new(PHistory::open(&p, hdr)).extend_tail(version), depth);
        }
        p.sync_all();
        let image = p.crash_image().unwrap();
        let fences = p.fence_count().unwrap();

        let scans: Vec<PrefixScan> =
            hdrs.iter().map(|&(hdr, _)| scan_published_prefix(&PHistory::open(&p, hdr))).collect();
        let watermark = compute_watermark(scans.iter(), 0);
        assert_eq!(watermark, version);
        for &(hdr, depth) in &hdrs {
            let out = prune_to_watermark(&PHistory::open(&p, hdr), watermark);
            assert_eq!(out, PruneOutcome { kept: depth, pruned: 0 });
        }
        assert_eq!(p.fence_count().unwrap(), fences, "clean reopen must not fence per key");
        p.sync_all();
        assert!(p.crash_image().unwrap() == image, "clean reopen must leave the image untouched");

        // A lagging lazy tail is still repaired (and that does cost a fence).
        let late = History::new(PHistory::create(&p).unwrap());
        late.append(version + 1, 1);
        let fences = p.fence_count().unwrap();
        prune_to_watermark(late.slots(), version + 1);
        assert_eq!(late.tail(), 1);
        assert_eq!(p.fence_count().unwrap(), fences + 1);
    }
}
