//! Restart-time recovery of persistent histories.
//!
//! The paper (§IV-B): *"on restart, it is enough to count the length of all
//! contiguous non-zero finished sequences of all keys to recover `fc`, then
//! prune all finished entries larger than `fc` and adjust `tail` and
//! `pending` accordingly for each key."*
//!
//! Recovery therefore has two steps, driven by the owning store:
//!
//! 1. [`scan_published_prefix`] on every history reports the versions in
//!    its durable contiguous prefix to a [`VersionSink`]; each restart
//!    worker's sink is a [`VersionBits`], and [`VersionBits::watermark`]
//!    combines them into the global watermark (largest `v` with all of
//!    `1..=v` present).
//! 2. [`prune_to_watermark`] truncates a history to the prefix covered by
//!    that watermark, clearing orphaned stamps so the slots can be
//!    reused safely. The scan says which histories need it
//!    ([`PrefixScan::settled`]): for a cleanly closed store, none.

use crate::pslots::PHistory;
use crate::slots::{seg_base, Cursor, Entry, Slots, ENTRY_SIZE, MAX_SLOTS};
use mvkv_sync::sync::atomic::Ordering;

/// Result of scanning one history's durable prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixScan {
    /// Length of the contiguous published prefix.
    pub len: u64,
    /// Version of the prefix's last entry — its largest, versions being
    /// strictly increasing in slot order (0 for an empty prefix).
    pub last: u64,
    /// Why the prefix ended where it did.
    pub stop: ScanStop,
    /// Every claimed slot is published and valid, `pending` already equals
    /// the prefix length, the lazy tail is not beyond it, the chain ends in a
    /// zero link and segment 1's newest-segment word is 0 or names a segment
    /// on that chain: [`prune_to_watermark`] at any watermark ≥ `last` keeps
    /// everything and writes nothing. A tail that lags is no defect — it is
    /// where every unread history's stands, and the first reader moves it as
    /// it would have without the restart.
    pub settled: bool,
}

/// Why a prefix scan stopped where it did — used by the store's open to
/// distinguish ordinary torn appends (expected after any crash) from media
/// corruption (quarantined and reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStop {
    /// Every claimed slot was published and valid.
    Exhausted,
    /// A slot had no stamp, or the claims behind the chain's end are of
    /// one level and its link is zero — a torn append, the normal crash
    /// case.
    Unpublished,
    /// A claimed slot's segment is missing beyond a torn append's one level,
    /// or a header failed validation (out-of-bounds link / torn or corrupt
    /// header). The prefix then ends exactly at that segment's first slot.
    /// Segment 0 is the history block and needs no link: the prefix ends at
    /// slot 0 only when the block's own check word fails (a zeroed or
    /// overwritten block).
    Unlinked,
    /// A non-zero stamp was not a stamp (no `DONE` bit, or one of the bits
    /// 32–62 that are never set), or versions broke monotonicity — torn
    /// metadata.
    TornStamp,
    /// The stamp is well-formed but its CRC does not match the payload —
    /// media corruption of a committed record.
    ChecksumInvalid,
}

/// Where [`scan_published_prefix`] reports the versions it verified, in slot
/// order.
pub trait VersionSink {
    fn record(&mut self, version: u64);
}

/// The versions as a list, appended to.
impl VersionSink for Vec<u64> {
    #[inline]
    fn record(&mut self, version: u64) {
        self.push(version);
    }
}

/// One restart worker's versions as one bit each: bit `i` is version
/// `base + 1 + i`. Versions at or below `base` are deemed complete a priori
/// — `base` is 0 for a normal store and the compaction horizon for a
/// compacted one (whose collapsed entries keep their original, gappy
/// version numbers). A pool of `len` bytes holds at most `len / ENTRY_SIZE`
/// entries, so no gap-free run above `base` is longer than that: a version
/// beyond `base + len / ENTRY_SIZE` can never matter and is not recorded —
/// a corrupt one that still passes its CRC costs no memory. The words grow
/// to the largest version recorded.
#[derive(Debug)]
pub struct VersionBits {
    base: u64,
    bound: u64,
    words: Vec<u64>,
}

impl VersionBits {
    /// An empty set for the versions above `base` in a pool of `pool_len`
    /// bytes.
    pub fn new(base: u64, pool_len: usize) -> Self {
        VersionBits { base, bound: pool_len as u64 / ENTRY_SIZE as u64, words: Vec::new() }
    }

    /// The global watermark of the workers' `parts`, all made with the same
    /// `base`: the largest `v` such that every version in `base+1..=v` is in
    /// some part — the run of leading ones of their OR.
    pub fn watermark<'a>(base: u64, parts: impl Iterator<Item = &'a Self> + Clone) -> u64 {
        debug_assert!(parts.clone().all(|part| part.base == base));
        // Bits at and beyond a part's length are zero, so the run ends.
        let mut full = 0;
        loop {
            let word = parts.clone().fold(0, |acc, part| acc | part.words.get(full).unwrap_or(&0));
            if word != u64::MAX {
                return base + full as u64 * 64 + u64::from(word.trailing_ones());
            }
            full += 1;
        }
    }
}

impl VersionSink for VersionBits {
    #[inline]
    fn record(&mut self, version: u64) {
        if version <= self.base || version - self.base > self.bound {
            return;
        }
        let bit = version - self.base - 1;
        let word = (bit / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (bit % 64);
    }
}

/// Walks slots from 0 and reports the versions of the contiguous published
/// prefix to `versions`, in slot order — the paper's rule: the prefix is what
/// the stamps say, not what a counter says. Stops at the first slot whose
/// stamp is missing, whose backing segment was never linked, whose stamp is
/// malformed or whose version breaks monotonicity (torn metadata), or whose
/// payload fails its CRC (media corruption).
pub fn scan_published_prefix(h: &PHistory<'_>, versions: &mut impl VersionSink) -> PrefixScan {
    let (pending, tail, _) = h.raw_header();
    let mut cur = Cursor::new();
    // `pending` is a word read from media: too large it would claim slots
    // that never existed, too small (a zeroed or flipped word) it would hide
    // published ones. The slots are the ones the checked fill finds valid
    // backing for; `pending` only says which of them were claimed.
    // A find follows back links, so the walk rewrites each to the segment
    // it has just validated.
    let backed = h.fill_mended(&mut cur, u64::MAX).min(MAX_SLOTS);
    let (mut len, mut last) = (0u64, 0u64);
    let mut stop = if backed == 0 || backed < pending {
        unbacked_stop(h, &cur, pending, tail)
    } else {
        ScanStop::Exhausted
    };
    for idx in 0..backed {
        let e = cur.entry(idx);
        let stamp = e.crc_done.load(Ordering::Acquire);
        if stamp == 0 {
            stop = if idx < pending { ScanStop::Unpublished } else { ScanStop::Exhausted };
            break;
        }
        // ordering: the stamp was Acquire-loaded above; the CRC check
        // below rejects any torn or unpublished value anyway.
        let version = e.version.load(Ordering::Relaxed);
        if stamp >> 32 != Entry::DONE >> 32 || (idx > 0 && version <= last) {
            stop = ScanStop::TornStamp;
            break;
        }
        if !e.crc_valid() {
            stop = ScanStop::ChecksumInvalid;
            break;
        }
        versions.record(version);
        last = version;
        len += 1;
    }
    // A failed link behind slots nobody claimed yet loses nothing, nor does
    // a newest-segment word off the chain, but the prune has to cut both
    // before an append follows them.
    let settled = stop == ScanStop::Exhausted
        && pending == len
        && tail <= len
        && h.failed_link(&cur).is_none()
        && h.newest_reached(&cur);
    PrefixScan { len, last, stop, settled }
}

/// Why claimed slots lack backing, behind a checked walk into `cur` that
/// ended short of `pending`. No backing at all is a history block that
/// failed its own check word. Otherwise the one shape appends leave is a
/// torn append: a zero link that no fence ordered yet (DESIGN.md §13.3),
/// claims behind it of the next level only — one claim for a lone append,
/// more for a batch's chunk of one key or writers beside it, whose `pending`
/// may reach the media before the link — and a tail no further than the
/// chain's end: a reader moves the tail over a slot only through its link,
/// which the linking writer flushed before the slot's stamp (one writer's:
/// across two, §13.3's window loses the slot anyway). Anything more — a
/// failed link, claims reaching a level beyond, or a tail past the end — is
/// damage.
#[cold]
fn unbacked_stop(h: &PHistory<'_>, cur: &Cursor<'_>, pending: u64, tail: u64) -> ScanStop {
    let end = cur.covered();
    let torn = cur.levels() > 0
        && pending <= seg_base(cur.levels() + 1)
        && tail <= end
        && h.failed_link(cur).is_none();
    if torn {
        ScanStop::Unpublished
    } else {
        ScanStop::Unlinked
    }
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
/// resetting `pending`/`tail`, clearing any stamps beyond the keep
/// point (so future appends can't mistake stale slots for published ones),
/// and cutting the chain at a segment link that failed validation and
/// zeroing a newest-segment word that names a segment off the chain (so
/// they can't walk into whatever either points at).
pub fn prune_to_watermark(h: &PHistory<'_>, watermark: u64) -> PruneOutcome {
    let (old_pending, old_tail, _) = h.raw_header();
    // Every slot with valid backing, as in the scan: segments are reached by
    // walking the chain, so nothing beyond a missing link has storage — and
    // a corrupt `pending` counter can be astronomically large or hide
    // published slots, so no loop below may trust it as a slot count.
    let mut cur = Cursor::new();
    let backed = h.fill_checked(&mut cur, u64::MAX).min(MAX_SLOTS);
    if backed == 0 {
        // The block failed its own check word: zeroed or overwritten on the
        // media, counters and stamps included.
        h.reformat();
        return PruneOutcome { kept: 0, pruned: 0 };
    }
    let mut keep = 0u64;
    for idx in 0..backed {
        let e = cur.entry(idx);
        // A slot whose stamp is not the one its payload publishes with is
        // never kept, even below the watermark — its version can't have
        // contributed to the watermark (the checked scan stopped at it), and
        // keeping it would surface corrupt data.
        // ordering: the version word is covered by the Acquire stamp load.
        if e.crc_done.load(Ordering::Acquire) == 0
            || e.version.load(Ordering::Relaxed) > watermark
            || !e.crc_valid()
        {
            break;
        }
        keep += 1;
    }
    // Clear orphaned stamps on slots that still have backing storage,
    // and the link the backing ended at if it is a failed one — an append
    // would follow it unchecked. Both are flush-only, so close the batch with
    // one explicit fence before the slots can be reused.
    // `end` runs behind the last discarded slot: claimed, or stamped.
    let mut end = old_pending.min(backed).max(keep);
    h.cut_stray_newest(&cur);
    let mut cleared = h.cut_failed_link(&cur);
    for idx in keep..backed {
        let e = cur.entry(idx);
        if e.crc_done.load(Ordering::Acquire) != 0 {
            e.crc_done.store(0, Ordering::Release);
            h.persist_stamp(e);
            cleared = true;
            end = end.max(idx + 1);
        }
    }
    if cleared {
        h.publish_fence();
    }
    // A cleanly closed history already reads `pending == keep` with its lazy
    // tail at `keep` or, unread, behind it: rewriting the words, or moving
    // the tail for the first reader, would cost every key a persist, a fence
    // and a dirtied page on every open.
    if old_pending != keep || old_tail > keep {
        // `keep <= backed <= MAX_SLOTS`.
        h.force_counters(keep as u32, keep as u32);
    }
    // `pruned` counts slots that actually had backing storage: a corrupt
    // `pending` counter claims slots that never existed, and reporting
    // those would overflow downstream accumulators.
    PruneOutcome { kept: keep, pruned: end - keep }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::pslots::{HistoryHdr, SEG_CHECK};
    use crate::slots::ENTRY_SIZE;
    use mvkv_pmem::PmemPool;

    fn pool() -> PmemPool {
        PmemPool::create_volatile(1 << 22).unwrap()
    }

    /// One history's scan with the versions it found.
    fn scan(h: &PHistory<'_>) -> (PrefixScan, Vec<u64>) {
        let mut versions = Vec::new();
        let scan = scan_published_prefix(h, &mut versions);
        assert_eq!(scan.len, versions.len() as u64);
        assert_eq!(scan.last, versions.last().copied().unwrap_or(0));
        (scan, versions)
    }

    /// Pool length of the tests' bitmaps: room for 1024 entries, so a
    /// version more than 1024 above the base is past the bound.
    const POOL_LEN: usize = 1024 * ENTRY_SIZE;

    /// Each run recorded by a worker of its own.
    fn parts(runs: &[&[u64]], base: u64) -> Vec<VersionBits> {
        let record = |run: &&[u64]| {
            let mut bits = VersionBits::new(base, POOL_LEN);
            run.iter().for_each(|&v| bits.record(v));
            bits
        };
        runs.iter().map(record).collect()
    }

    fn watermark(runs: &[&[u64]], base: u64) -> u64 {
        VersionBits::watermark(base, parts(runs, base).iter())
    }

    /// The sort-based watermark the bitmap replaced, kept as the oracle.
    fn sorted_watermark(runs: &[&[u64]], base: u64) -> u64 {
        let mut versions: Vec<u64> = runs.concat().into_iter().filter(|&v| v > base).collect();
        versions.sort_unstable();
        let mut watermark = base;
        for v in versions {
            if v == watermark + 1 {
                watermark = v;
            } else if v > watermark + 1 {
                break;
            }
        }
        watermark
    }

    #[test]
    fn scan_of_clean_history() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(2, 20);
        h.append(5, 50);
        h.extend_tail(5);
        let (found, versions) = scan(h.slots());
        let clean = PrefixScan { len: 2, last: 5, stop: ScanStop::Exhausted, settled: true };
        assert_eq!((found, versions), (clean, vec![2, 5]));
        // Scans append: the caller's vector is one flat run of many histories.
        let mut flat = vec![9];
        scan_published_prefix(h.slots(), &mut flat);
        assert_eq!(flat, vec![9, 2, 5]);
    }

    #[test]
    fn only_a_history_the_prune_would_not_touch_is_settled() {
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        let h = History::new(PHistory::create(&p).unwrap());
        assert!(scan(h.slots()).0.settled, "an empty history has nothing to repair");
        h.append(3, 30);
        h.append(7, 70);
        // Settled means: pruning at any watermark >= last writes nothing —
        // with the lazy tail not moved yet (no defect: the first reader moves
        // it) and with it moved.
        for tail in [0, 2] {
            assert_eq!(h.extend_tail(if tail == 0 { 0 } else { 7 }), tail);
            let (settled, _) = scan(h.slots());
            assert_eq!((settled.stop, settled.settled), (ScanStop::Exhausted, true), "tail {tail}");
            p.sync_all();
            let (image, fences) = (p.crash_image().unwrap(), p.fence_count().unwrap());
            for watermark in [settled.last, settled.last + 1, u64::MAX] {
                let kept = PruneOutcome { kept: 2, pruned: 0 };
                assert_eq!(prune_to_watermark(h.slots(), watermark), kept);
            }
            p.sync_all();
            assert_eq!(p.fence_count().unwrap(), fences, "tail {tail}");
            assert!(p.crash_image().unwrap() == image, "tail {tail}");
            assert_eq!(h.tail(), tail);
        }
        // A tail beyond the prefix is a defect, and the prune's to repair.
        h.slots().force_counters(2, 3);
        assert!(!scan(h.slots()).0.settled);
        assert_eq!(prune_to_watermark(h.slots(), 7), PruneOutcome { kept: 2, pruned: 0 });
        assert_eq!(h.slots().raw_header(), (2, 2, 0));
        // ...and below `last` it is the caller's job to notice.
        assert_eq!(prune_to_watermark(h.slots(), 6), PruneOutcome { kept: 1, pruned: 1 });
        // A claimed slot that was never published unsettles it again.
        let _ = h.slots().claim();
        let (torn, _) = scan(h.slots());
        assert_eq!((torn.stop, torn.settled), (ScanStop::Unpublished, false));
    }

    #[test]
    fn scan_stops_at_unpublished_slot() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        let _ = h.slots().claim(); // claimed, never published
        h.append(3, 30); // published after the gap
        assert_eq!(scan(h.slots()).1, vec![1], "prefix must stop at the gap");
    }

    /// Both of a prune's fences: the one ordering the cleared stamps, the
    /// one rewriting the counters (DESIGN.md §13.3: at most two) — and
    /// every line the prune wrote flushed behind them.
    #[test]
    fn prune_drops_entries_beyond_watermark() {
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        h.append(4, 40);
        h.append(9, 90);
        let fences = p.fence_count().unwrap();
        let out = prune_to_watermark(h.slots(), 4);
        assert_eq!(out, PruneOutcome { kept: 2, pruned: 1 });
        assert_eq!(p.fence_count().unwrap() - fences, 2, "a stamp cleared, counters rewritten");
        assert_eq!(p.unflushed_lines().unwrap(), [], "both flushed");
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
        // Slot 2's stamp must have been cleared.
        assert_eq!(scan(h.slots()).1, vec![1]);
    }

    #[test]
    fn watermark_from_scans() {
        let (a, b, c) = ([1, 4, 5], [2, 3], [8]);
        assert_eq!(watermark(&[&a, &b, &c], 0), 5, "8 is beyond the gap at 6/7");
        assert_eq!(watermark(&[&c], 0), 0);
        assert_eq!(watermark(&[], 0), 0);
        // Exactly one full bitmap word, and one bit more.
        let word: Vec<u64> = (1..=64).rev().collect();
        assert_eq!(watermark(&[&word], 0), 64);
        assert_eq!(watermark(&[&word, &[65]], 0), 65);
    }

    #[test]
    fn watermark_with_base_ignores_collapsed_versions() {
        // A compacted store: collapsed entries keep gappy old versions
        // (2, 9); live range is contiguous from the base (horizon 10).
        let (a, b) = ([2, 11, 12], [9, 13]);
        assert_eq!(watermark(&[&a, &b], 10), 13);
        // With a gap above the base, the watermark stops before it.
        assert_eq!(watermark(&[&a, &b, &[15]], 10), 13);
        // No versions above the base at all → watermark is the base.
        assert_eq!(watermark(&[&[4]], 10), 10);
    }

    #[test]
    fn a_version_past_the_pool_bound_is_ignored_not_allocated_for() {
        let base = 10;
        let mut bits = VersionBits::new(base, POOL_LEN);
        // A CRC-valid stamp on corrupt media can carry any version.
        for v in [base + 1025, base + (1 << 40), u64::MAX] {
            bits.record(v);
        }
        assert!(bits.words.is_empty());
        assert_eq!(VersionBits::watermark(base, std::iter::once(&bits)), base);
        // Every version up to the bound is one: the whole pool full.
        (base + 1..=base + 1024).for_each(|v| bits.record(v));
        assert_eq!(bits.words.len(), 1024 / 64);
        assert_eq!(VersionBits::watermark(base, std::iter::once(&bits)), base + 1024);
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
            // publishing: emulate by claiming without the stamp.
            let (_, e) = h.slots().claim();
            h.slots().persist_pending();
            e.version.store(3, std::sync::atomic::Ordering::Relaxed);
            e.value.store(33, std::sync::atomic::Ordering::Relaxed);
            h.slots().persist_entry(&e);
            // no stamp → the durable payload is an unpublished slot
        }
        let image = p.crash_image().unwrap();
        let rp = PmemPool::open_image(&image).unwrap();
        let h = History::new(PHistory::open(&rp, hdr));
        let (found, versions) = scan(h.slots());
        assert_eq!(versions, vec![1, 2]);
        assert_eq!(found.stop, ScanStop::Unpublished, "a durable payload with stamp 0");
        let wm = watermark(&[&versions], 0);
        assert_eq!(wm, 2);
        let out = prune_to_watermark(h.slots(), wm);
        assert_eq!(out.kept, 2);
        assert_eq!(h.find(2, wm), Some(22));
        assert_eq!(h.find(3, wm), Some(22), "the torn version-3 write is gone");
    }

    #[test]
    fn a_stamp_that_is_not_the_payloads_is_never_read_as_a_version() {
        let good = Entry::stamp(2, 20);
        let forgeries = [
            (Entry::DONE | ((good ^ 1) & 0xFFFF_FFFF), ScanStop::ChecksumInvalid), // wrong CRC
            (good & !Entry::DONE, ScanStop::TornStamp), // the right CRC, not finished
            (good | 1 << 32, ScanStop::TornStamp),      // bits a stamp never has
            (good | 1 << 62, ScanStop::TornStamp),
        ];
        for (forged, stop) in forgeries {
            let p = pool();
            let h = History::new(PHistory::create(&p).unwrap());
            for v in 1..=3u64 {
                h.append(v, v * 10);
            }
            assert_eq!(h.extend_tail(3), 3);
            let mut cur = Cursor::new();
            h.slots().fill(&mut cur, 3);
            cur.entry(1).crc_done.store(forged, Ordering::Release);
            // Verify-on-read falls back to what still verifies.
            assert_eq!(h.find(2, 3), Some(10), "stamp {forged:#x}");
            assert_eq!(h.records(3).len(), 2, "stamp {forged:#x}");
            let (found, versions) = scan(h.slots());
            assert_eq!((versions, found.stop), (vec![1], stop), "stamp {forged:#x}");
            let kept = PruneOutcome { kept: 1, pruned: 2 };
            assert_eq!(prune_to_watermark(h.slots(), 3), kept, "stamp {forged:#x}");
            assert_eq!(scan(h.slots()).1, [1]);
        }
    }

    #[test]
    fn half_persisted_line_straddling_entry_recovers_to_the_prefix_before_it() {
        use mvkv_pmem::layout::CACHE_LINE;
        // 24-byte entries are not line-aligned: the history block is one line,
        // but segment 1 starts its entries 24 bytes into its first line, and
        // its second entry (slot 3) lies across the line boundary. Its
        // publish, cut by the power failure after either of its two lines
        // reached the media.
        for first_line_only in [true, false] {
            let p =
                PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
            let h = History::new(PHistory::create(&p).unwrap());
            let line = |off: u64| off / CACHE_LINE as u64;
            let mut version = 0u64;
            let (idx, e) = loop {
                let (idx, e) = h.slots().claim();
                h.slots().persist_pending();
                let off = h.slots().off_of(&e);
                if idx > 0 && line(off) != line(off + ENTRY_SIZE as u64 - 1) {
                    break (idx, e);
                }
                version += 1;
                e.version.store(version, Ordering::Relaxed);
                e.value.store(version * 10, Ordering::Relaxed);
                h.slots().persist_entry(&e);
                h.publish_fence();
                h.append_publish(e, version);
            };
            assert!(idx > 0, "the test needs a prefix");
            p.sync_all();
            let stamp_off = h.slots().off_of(&e) + std::mem::offset_of!(Entry, crc_done) as u64;
            e.version.store(version + 1, Ordering::Relaxed);
            e.value.store(77, Ordering::Relaxed);
            e.crc_done.store(Entry::stamp(version + 1, 77), Ordering::Release);
            // One line of the two: the one with the version word, or the one
            // with the stamp.
            p.persist(if first_line_only { h.slots().off_of(&e) } else { stamp_off }, 8);
            p.fence();

            let reopened = PmemPool::open_image(&p.crash_image().unwrap()).unwrap();
            let h = History::new(PHistory::open(&reopened, h.slots().pptr()));
            let (found, versions) = scan(h.slots());
            assert_eq!(versions, (1..=version).collect::<Vec<_>>(), "{first_line_only}");
            if first_line_only {
                assert_eq!(found.stop, ScanStop::Unpublished, "payload without a stamp");
            } else {
                assert_ne!(found.stop, ScanStop::Exhausted, "a stamp without its payload");
            }
            let out = prune_to_watermark(h.slots(), version + 1);
            assert_eq!(out, PruneOutcome { kept: idx, pruned: 1 });
            assert_eq!(h.find(version + 1, version + 1), Some(version * 10));
        }
    }

    /// Pool offset of the word linking segment `j ≥ 1`: the history's `next`
    /// for `j = 1`, the first word of segment `j − 1` after that.
    fn link_word(p: &PmemPool, h: &PHistory<'_>, j: u32) -> u64 {
        (1..j).fold(h.next_off(), |prev, _| link(p, prev))
    }

    /// The segment offset in the link word at `off`.
    fn link(p: &PmemPool, off: u64) -> u64 {
        p.atomic_u32(off).load(Ordering::Acquire).into()
    }

    fn set_link(p: &PmemPool, off: u64, to: u64) {
        p.atomic_u32(off).store(to as u32, Ordering::Release);
    }

    #[test]
    fn damaged_segment_classifies_unlinked_at_its_first_slot() {
        use crate::slots::seg_base;
        // 60 published slots span segments 0..=4. Damage segment j in each
        // of the three ways a link can go bad; the prefix must end at
        // exactly seg_base(j) — slot 2 when the link in the history block
        // itself goes — classified Unlinked, and prune must keep the same
        // prefix and cut the chain there: the appends that follow get a fresh
        // segment j, and a power cut later everything kept and everything new
        // reads back. The one exception is the last link torn away (j = 4,
        // damage 2): what is left — claims of one level behind a zero link,
        // the tail not past it — is exactly a torn append's shape, and reads
        // Unpublished (`a_torn_last_link_behind_the_tail_is_damage`).
        for j in 1..=4u32 {
            for damage in 0..3 {
                let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default())
                    .unwrap();
                let h = History::new(PHistory::create(&p).unwrap());
                for v in 1..=60u64 {
                    h.append(v, v * 10);
                }
                let prev = link_word(&p, h.slots(), j);
                let seg = link(&p, prev);
                match damage {
                    0 => p.write_u64(seg + SEG_CHECK, p.read_u64(seg + SEG_CHECK) ^ 0x5A5A), // crc
                    1 => set_link(&p, prev, p.len() as u64 + 64), // link out of bounds
                    _ => set_link(&p, prev, 0),                   // link torn away
                }
                p.sync_all(); // the damage is on the media
                let (found, _) = scan(h.slots());
                let torn = (j, damage) == (4, 2);
                let stop = if torn { ScanStop::Unpublished } else { ScanStop::Unlinked };
                assert_eq!(found.stop, stop, "segment {j}, damage {damage}");
                assert_eq!(found.len, seg_base(j), "segment {j}, damage {damage}");
                let out = prune_to_watermark(h.slots(), 60);
                assert_eq!(out, PruneOutcome { kept: seg_base(j), pruned: 0 });
                assert_eq!(h.pending(), seg_base(j));
                assert_eq!(link(&p, prev), 0, "segment {j}, damage {damage}: bad link stays");

                // Enough appends to fill the new segment j and start j + 1.
                let kept: Vec<u64> = (1..=seg_base(j)).collect();
                let new: Vec<u64> = (61..=61 + seg_base(j + 1) - seg_base(j)).collect();
                for &v in &new {
                    h.append(v, v * 10);
                }
                assert_ne!(link(&p, prev), seg, "the damaged segment is not linked again");
                let reopened = PmemPool::open_image(&p.crash_image().unwrap()).unwrap();
                let h = History::new(PHistory::open(&reopened, h.slots().pptr()));
                let (found, versions) = scan(h.slots());
                assert_eq!(found.stop, ScanStop::Exhausted, "segment {j}, damage {damage}");
                assert_eq!(versions, [kept, new].concat(), "segment {j}, damage {damage}");
                let newest = *versions.last().unwrap();
                for v in versions {
                    assert_eq!(h.find(v, newest), Some(v * 10), "segment {j}, damage {damage}");
                }
            }
        }
    }

    #[test]
    fn failed_link_behind_unclaimed_slots_is_cut_too() {
        use crate::slots::seg_base;
        // The history ends exactly where segment 2 would begin, every counter
        // in place — and the link word behind it is garbage. No slot is lost,
        // so the prefix is Exhausted; but the next append would follow the
        // word, so the history is not settled and the prune cuts it.
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        let h = History::new(PHistory::create(&p).unwrap());
        let full = seg_base(2);
        for v in 1..=full {
            h.append(v, v * 10);
        }
        h.extend_tail(full);
        assert!(scan(h.slots()).0.settled);
        set_link(&p, link_word(&p, h.slots(), 2), p.len() as u64 + 64);
        p.sync_all();
        let (found, _) = scan(h.slots());
        assert_eq!((found.len, found.stop, found.settled), (full, ScanStop::Exhausted, false));
        assert_eq!(prune_to_watermark(h.slots(), full), PruneOutcome { kept: full, pruned: 0 });
        assert_eq!(p.unflushed_lines().unwrap(), [], "the cut link is flushed");
        assert!(scan(h.slots()).0.settled);
        h.append(full + 1, 1);
        let reopened = PmemPool::open_image(&p.crash_image().unwrap()).unwrap();
        let h = History::new(PHistory::open(&reopened, h.slots().pptr()));
        assert_eq!(scan(h.slots()).1, (1..=full + 1).collect::<Vec<_>>());
    }

    #[test]
    fn garbage_pending_is_bounded_by_the_backing() {
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        for v in 1..=8u64 {
            h.append(v, v);
        }
        // Slot 8 is the last of segment 1 and was never claimed: a `pending`
        // word of all ones claims it and 2^32 more.
        h.slots().force_counters(u32::MAX, 0);
        let (found, versions) = scan(h.slots());
        assert_eq!((versions, found.stop), ((1..=8).collect(), ScanStop::Unpublished));
        let out = prune_to_watermark(h.slots(), 8);
        assert_eq!(out, PruneOutcome { kept: 8, pruned: 1 }, "only backed slots are counted");
        assert_eq!((h.pending(), h.tail()), (8, 8));
        // On a history that never left its block the same word stops at the
        // inline slots: nothing was linked, so nothing more is backed.
        let small = History::new(PHistory::create(&p).unwrap());
        small.append(10, 10);
        small.slots().force_counters(u32::MAX, 0);
        let (found, versions) = scan(small.slots());
        assert_eq!((versions, found.stop), (vec![10], ScanStop::Unpublished));
        let out = prune_to_watermark(small.slots(), 10);
        assert_eq!(out, PruneOutcome { kept: 1, pruned: 1 });
    }

    /// A flipped `pending` on a history of one level. With one version the
    /// scan stops at the unclaimed slot 1 whatever the word says. With both
    /// inline slots published, a word within the next level has a torn
    /// append's shape and reads Unpublished — no published slot is lost, and
    /// the prune puts the word back — and one beyond it is damage.
    #[test]
    fn a_flipped_pending_on_a_one_level_history() {
        for (written, bit, stop) in [
            (1, 1, ScanStop::Unpublished),
            (1, 2, ScanStop::Unpublished),
            (1, 3, ScanStop::Unpublished),
            (2, 0, ScanStop::Unpublished),
            (2, 2, ScanStop::Unpublished),
            (2, 3, ScanStop::Unlinked),
        ] {
            let p = pool();
            let h = History::new(PHistory::create(&p).unwrap());
            for v in 1..=written {
                h.append(v, v * 10);
            }
            let flipped = written ^ (1 << bit);
            h.slots().force_counters(flipped as u32, 0);
            let (found, versions) = scan(h.slots());
            let label = format!("{written} versions, pending {flipped}");
            assert_eq!((found.stop, versions), (stop, (1..=written).collect()), "{label}");
            prune_to_watermark(h.slots(), written);
            assert_eq!(h.pending(), written, "{label}");
        }
    }

    /// The last link torn away behind published slots: a torn append's shape
    /// while the tail is not past the chain's end, damage once a reader has
    /// moved it there — no torn append leaves such a tail.
    #[test]
    fn a_torn_last_link_behind_the_tail_is_damage() {
        use crate::slots::seg_base;
        let end = seg_base(4);
        for (tail, stop) in [(end, ScanStop::Unpublished), (end + 1, ScanStop::Unlinked)] {
            let p = pool();
            let h = History::new(PHistory::create(&p).unwrap());
            for v in 1..=60u64 {
                h.append(v, v * 10);
            }
            h.slots().force_counters(60, tail as u32);
            set_link(&p, link_word(&p, h.slots(), 4), 0);
            let (found, _) = scan(h.slots());
            assert_eq!((found.stop, found.len), (stop, end), "tail {tail}");
        }
    }

    #[test]
    fn zeroed_counters_hide_no_published_slot() {
        // `pending` and `tail` share a cache line that the entries may not:
        // a torn line (or a flipped bit) can zero the counters under
        // published entries. The stamps say what the prefix is.
        let p = pool();
        let h = History::new(PHistory::create(&p).unwrap());
        for v in 1..=5u64 {
            h.append(v, v * 10);
        }
        h.extend_tail(5);
        h.slots().force_counters(0, 0);
        let (found, versions) = scan(h.slots());
        assert_eq!(versions, [1, 2, 3, 4, 5]);
        assert_eq!((found.stop, found.settled), (ScanStop::Exhausted, false));
        assert_eq!(prune_to_watermark(h.slots(), 5), PruneOutcome { kept: 5, pruned: 0 });
        assert_eq!((h.pending(), h.tail()), (5, 5));
        assert!(scan(h.slots()).0.settled);
        // A counter that is merely short: the slots behind it were stamped,
        // so they are discarded as claimed ones would be.
        h.slots().force_counters(2, 2);
        assert_eq!(prune_to_watermark(h.slots(), 3), PruneOutcome { kept: 3, pruned: 2 });
        assert_eq!(scan(h.slots()).1, [1, 2, 3]);
    }

    #[test]
    fn wiped_history_block_is_unlinked_at_slot_zero() {
        // A block zeroed on the media reads, word for word, as a key that
        // was chained and never written — but for the check word.
        let p = PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default()).unwrap();
        let h = History::new(PHistory::create(&p).unwrap());
        h.append(1, 10);
        let off = h.slots().pptr().off();
        for word in 0..std::mem::size_of::<HistoryHdr>() as u64 / 8 {
            p.write_u64(off + word * 8, 0);
        }
        let (found, versions) = scan(h.slots());
        assert_eq!((versions, found.len, found.stop), (vec![], 0, ScanStop::Unlinked));
        assert!(!found.settled, "nothing claimed, nothing found — and nothing trusted");
        // The prune makes it an empty history again, with the one fence of
        // `reformat` and nothing after it: the key is writable, and what is
        // written survives the next scan.
        let fences = p.fence_count().unwrap();
        assert_eq!(prune_to_watermark(h.slots(), 1), PruneOutcome { kept: 0, pruned: 0 });
        assert_eq!(p.fence_count().unwrap() - fences, 1);
        assert!(scan(h.slots()).0.settled);
        h.append(2, 20);
        assert_eq!(scan(h.slots()).1, [2]);
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

        let mut versions = Vec::new();
        for &(hdr, _) in &hdrs {
            assert!(scan_published_prefix(&PHistory::open(&p, hdr), &mut versions).settled);
        }
        let watermark = watermark(&[&versions], 0);
        assert_eq!(watermark, version);
        for &(hdr, depth) in &hdrs {
            let out = prune_to_watermark(&PHistory::open(&p, hdr), watermark);
            assert_eq!(out, PruneOutcome { kept: depth, pruned: 0 });
        }
        assert_eq!(p.fence_count().unwrap(), fences, "clean reopen must not fence per key");
        p.sync_all();
        assert!(p.crash_image().unwrap() == image, "clean reopen must leave the image untouched");

        // Nor does a history nobody read: its lagging lazy tail is left to
        // the first reader, as it was before the restart.
        let late = History::new(PHistory::create(&p).unwrap());
        late.append(version + 1, 1);
        let fences = p.fence_count().unwrap();
        let out = prune_to_watermark(late.slots(), version + 1);
        assert_eq!((out, late.tail()), (PruneOutcome { kept: 1, pruned: 0 }, 0));
        assert_eq!(p.fence_count().unwrap(), fences);
        assert_eq!(late.find(version + 1, version + 1), Some(1));
        assert_eq!(late.tail(), 1);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The bitmap watermark is the sorted one: one to four workers, an
        /// empty run beside them, dense ranges with a few versions knocked
        /// out, versions in two workers' runs, a non-zero base, versions at
        /// and below the base, and versions past the pool's bound, for which
        /// no worker's bitmap grows.
        #[test]
        fn bitmap_watermark_equals_the_sorted_one(
            base in (0u64..3, 1u64..1000)
                .prop_map(|(kind, low)| [0, low, u64::MAX - 500][kind as usize]),
            dense in 0u64..400,
            gaps in proptest::collection::vec(1u64..400, 0..4),
            extra in proptest::collection::vec(
                (0u64..3, 0u64..450, 440u64..100_000)
                    .prop_map(|(kind, near, far)| [near, far, u64::MAX - near][kind as usize]),
                0..40,
            ),
            workers in 1usize..=4,
            empty in 0usize..2,
        ) {
            // `base + 1 ..= base + dense` minus the gaps, plus strays given
            // relative to the base (wrapping: some land at or below it).
            let mut versions: Vec<u64> = (1..=dense)
                .filter(|offset| !gaps.contains(offset))
                .map(|offset| base.saturating_add(offset))
                .chain(extra.iter().map(|&offset| base.wrapping_add(offset)))
                .chain((base > 0).then_some(base))
                .collect();
            // Scattered (scans arrive in chain order, not version order) over
            // the workers; every fifth version goes to a second worker too.
            versions.sort_by_key(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut runs = vec![Vec::new(); workers + empty];
            for &v in &versions {
                let hash = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                let worker = (hash % workers as u64) as usize;
                runs[worker].push(v);
                if hash % 5 == 0 {
                    runs[(worker + 1) % workers].push(v);
                }
            }
            let runs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            let parts = parts(&runs, base);
            let bitmap = VersionBits::watermark(base, parts.iter());
            prop_assert_eq!(bitmap, sorted_watermark(&runs, base));
            prop_assert!(parts.iter().all(|part| part.words.len() <= 1024 / 64));
        }
    }
}
