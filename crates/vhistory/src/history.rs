//! The version-history algorithm (paper Algorithm 1), generic over storage.

use crate::slots::{locate, seg_base, Cursor, Entry, Slots};
use crate::HistoryRecord;
use mvkv_sync::sync::atomic::Ordering;

/// A per-key version history: lock-free out-of-order appends, lazily
/// extended tail, binary-searched multi-version reads.
///
/// `fc` parameters are the store-wide completion watermark from
/// [`crate::VersionClock`]; entries with versions beyond it are invisible to
/// queries (the paper's consistency rule).
///
/// Every operation resolves the segment chain once, into a [`Cursor`] on
/// its stack, and addresses all the slots it touches through it.
///
/// # Examples
///
/// ```
/// use mvkv_vhistory::{EHistory, History};
///
/// let storage = EHistory::new();
/// let h = History::new(&storage);
/// h.append(1, 10);
/// h.append_tombstone(3);
/// assert_eq!(h.find(1, 3), Some(10));
/// assert_eq!(h.find(2, 3), Some(10)); // unchanged between versions
/// assert_eq!(h.find(3, 3), None);     // removed
/// ```
pub struct History<S: Slots> {
    slots: S,
}

impl<S: Slots> History<S> {
    pub fn new(slots: S) -> Self {
        History { slots }
    }

    /// The underlying storage (for recovery and audits).
    pub fn slots(&self) -> &S {
        &self.slots
    }

    /// Appends `(version, value)` — the paper's `insert` (Algorithm 1,
    /// lines 1–6). Claims a slot, writes the pair, persists it, then
    /// publishes the non-zero stamp.
    ///
    /// The persist schedule is **coalesced**: the pending-counter and entry
    /// flushes are issued unordered, a single fence separates them from the
    /// stamp publish, and the stamp flush itself is left to ride the next
    /// fence (an unfenced stamp at crash time just shrinks the recovered
    /// prefix — exactly the torn-append case recovery already prunes). One
    /// fence per append, versus the three of the naive schedule.
    ///
    /// The caller is responsible for reporting completion to the store's
    /// `VersionClock` *after* this returns.
    pub fn append(&self, version: u64, value: u64) {
        let slot = self.append_prepare(version, value);
        self.publish_fence();
        self.append_publish(slot, version);
    }

    /// First half of the coalesced append: claims a slot, writes the payload,
    /// and issues the pending/entry flushes with **no** ordering fence.
    /// Returns the resolved slot — the one address every later step of this
    /// append uses, so the chain is walked once per append (by the claim).
    ///
    /// Callers batching several appends invoke this per pair, then one
    /// [`History::publish_fence`], then [`History::append_publish`] per
    /// pair — amortizing the fence across the whole batch. Until the
    /// publish, the slot is claimed-but-unpublished: readers and recovery
    /// both stop at it, so a crash between prepare and publish loses only
    /// the tail, never consistency.
    pub fn append_prepare(&self, version: u64, value: u64) -> S::Slot {
        mvkv_obs::counter_inc_hot!("mvkv_vhistory_appends_total");
        let (_, slot) = self.slots.claim();
        self.slots.persist_pending();
        let e: &Entry = &slot;
        debug_assert_eq!(e.crc_done.load(Ordering::Acquire), 0, "slot reuse without recovery");
        // ordering: the payload is published by the
        // Release store of the stamp in append_publish; readers only touch
        // these words after an Acquire load of the stamp (or of `tail`, which
        // an extender CAS-released after Acquire-loading the stamp).
        e.version.store(version, Ordering::Relaxed);
        e.value.store(value, Ordering::Relaxed);
        self.slots.persist_entry(e);
        slot
    }

    /// The single ordering fence between prepared entries and their stamp
    /// publishes. Covers every [`History::append_prepare`] issued (by this
    /// thread) since the previous fence.
    pub fn publish_fence(&self) {
        mvkv_obs::counter_inc_hot!("mvkv_vhistory_publish_fences_total");
        self.slots.publish_fence();
    }

    /// Second half of the coalesced append: publishes the slot
    /// [`History::append_prepare`] returned by storing its stamp — the
    /// finished bit and the payload's integrity code in one word, so the
    /// checksum adds no store, flush or fence to the schedule. Must be
    /// ordered after the entry persists by a [`History::publish_fence`] in
    /// between.
    pub fn append_publish(&self, slot: S::Slot, version: u64) {
        // ordering: this thread's own store in append_prepare.
        let value = slot.value.load(Ordering::Relaxed);
        slot.crc_done.store(Entry::stamp(version, value), Ordering::Release);
        self.slots.persist_stamp(&slot);
    }

    /// Appends a tombstone — the paper's `remove` (Algorithm 1, line 7).
    pub fn append_tombstone(&self, version: u64) {
        self.append(version, crate::TOMBSTONE)
    }

    /// Advances the lazy tail over every slot that is locally published and
    /// whose version is covered by the watermark, then returns the visible
    /// length. Called by queries, never by appends (the "lazy" in lazy
    /// tail). Uses a CAS-max so concurrent extenders cooperate.
    pub fn extend_tail(&self, fc: u64) -> u64 {
        self.extend_tail_in(&mut Cursor::new(), fc)
    }

    /// [`History::extend_tail`] through the caller's cursor, which covers
    /// the returned length afterwards — for callers that go on to read the
    /// visible slots.
    pub fn extend_tail_in<'a>(&'a self, cur: &mut Cursor<'a>, fc: u64) -> u64 {
        let tail = self.slots.tail_ref();
        let start = tail.load(Ordering::Acquire) as u64;
        // A claim bumps `pending` before it links the slot's segment, so the
        // walk stops at the resolved backing: a slot without a linked
        // segment cannot have been published.
        let limit = self.slots.fill(cur, self.slots.pending());
        let mut next = start;
        while next < limit {
            let e = cur.entry(next);
            // A zero stamp means the write is not published.
            // ordering: the version word is covered by the Acquire stamp load.
            if e.crc_done.load(Ordering::Acquire) == 0 || e.version.load(Ordering::Relaxed) > fc {
                break;
            }
            next += 1;
        }
        if next == start {
            return start;
        }
        // Both are at most `pending`, a 32-bit counter.
        let (mut observed, goal) = (start as u32, next as u32);
        loop {
            match tail.compare_exchange_weak(observed, goal, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    let advanced = (goal - observed) as u64;
                    mvkv_obs::counter_add_hot!("mvkv_vhistory_tail_advances_total", advanced);
                    self.slots.persist_tail();
                    return next;
                }
                // Someone advanced at least as far — possibly into a segment
                // linked after our fill; every slot below the tail is
                // published, so its segment resolves.
                Err(current) if current >= goal => {
                    self.slots.fill(cur, current as u64);
                    return current as u64;
                }
                Err(current) => observed = current,
            }
        }
    }

    /// Number of slots currently visible without extension.
    pub fn tail(&self) -> u64 {
        self.slots.tail_ref().load(Ordering::Acquire) as u64
    }

    /// Number of claimed slots (including unpublished ones).
    pub fn pending(&self) -> u64 {
        self.slots.pending()
    }

    /// The paper's `find` (Algorithm 1, lines 8–26): returns the raw value
    /// of the entry with the highest version ≤ `version`, or `None` if the
    /// key had no entry at or before `version`. Tombstones are returned
    /// verbatim (callers map [`crate::TOMBSTONE`] to "absent").
    ///
    /// The tail is extended only if the query could be affected by slots
    /// beyond it — i.e. the last visible entry's version is below the
    /// requested version (the paper's lazy rule).
    pub fn find_raw(&self, version: u64, fc: u64) -> Option<u64> {
        let mut cur = Cursor::new();
        let mut t = self.tail();
        // Every slot below the tail is published, so the fill covers `t`.
        self.slots.fill(&mut cur, t);
        // ordering: slot t-1 is covered by the Acquire tail load in
        // tail(); a stale version only costs a redundant extension.
        if t == 0 || cur.entry(t - 1).version.load(Ordering::Relaxed) < version {
            t = self.extend_tail_in(&mut cur, fc);
            if t == 0 {
                return None;
            }
        }
        // Invariant of the search: slot `left - 1` (if any) was *observed*
        // at or below `version`, every slot from `right` on above it — so
        // the slot returned is one whose version word was actually read,
        // and a checksum-valid one cannot be from the future even when
        // damaged neighbours misled the search.
        // ordering: Relaxed entry loads are sound for every slot < t: the
        // Acquire load of `tail` synchronizes with the extender's AcqRel
        // CAS, which itself Acquire-loaded each slot's Release-stored
        // stamp — a transitive happens-before edge to the payload stores.
        let (mut left, mut right) = (0, t);
        // The segment first: the walk just read every linked segment's header
        // and a segment's first entry sits right behind it, so comparing
        // first versions from the newest segment down touches no new cache
        // line (segment 0 is what is left when none of them qualifies).
        for k in (1..=locate(t - 1).0).rev() {
            let base = seg_base(k);
            // ordering: base <= t - 1, see the block comment above.
            if cur.entry(base).version.load(Ordering::Relaxed) <= version {
                left = base + 1;
                break;
            }
            right = base;
        }
        // Then the entries: binary search for the highest version <=
        // requested within that segment's visible part.
        while left < right {
            let mid = left + (right - left) / 2;
            // ordering: mid < t, see the block comment above.
            if cur.entry(mid).version.load(Ordering::Relaxed) <= version {
                left = mid + 1;
            } else {
                right = mid;
            }
        }
        if left == 0 {
            return None; // even slot 0 is newer than `version`
        }
        let e = cur.entry(left - 1);
        // Verify-on-read: never surface a checksum-invalid payload; fall
        // back to a verified linear scan.
        if !e.crc_valid() {
            return Self::find_raw_verified(&cur, version, t);
        }
        // ordering: left - 1 < t, same argument as the block comment above.
        Some(e.value.load(Ordering::Relaxed))
    }

    /// Fallback for [`History::find_raw`] when the binary search lands on a
    /// checksum-invalid entry (latent media damage): a linear scan of the
    /// visible prefix that considers only checksum-valid records. Corrupt
    /// slots may also carry a corrupt *version* word, which breaks the
    /// sortedness the binary search relies on — the linear scan does not.
    #[cold]
    fn find_raw_verified(cur: &Cursor<'_>, version: u64, t: u64) -> Option<u64> {
        let mut best: Option<(u64, u64)> = None;
        for idx in 0..t {
            let e = cur.entry(idx);
            if !e.crc_valid() {
                mvkv_obs::counter_inc!("mvkv_vhistory_read_crc_rejects_total");
                continue;
            }
            // ordering: idx < t, covered by the Acquire tail load (see
            // find_raw's block comment).
            let v = e.version.load(Ordering::Relaxed);
            if v <= version && best.is_none_or(|(bv, _)| v >= bv) {
                // ordering: idx < t, same Acquire tail cover as `v` above.
                best = Some((v, e.value.load(Ordering::Relaxed)));
            }
        }
        best.map(|(_, value)| value)
    }

    /// Decoded `find`: `None` if absent **or** tombstoned at `version`.
    pub fn find(&self, version: u64, fc: u64) -> Option<u64> {
        match self.find_raw(version, fc) {
            Some(crate::TOMBSTONE) | None => None,
            Some(v) => Some(v),
        }
    }

    /// The visible, checksum-valid records, oldest first, over a cursor
    /// resolved to the extended tail. Checksum-invalid records (latent
    /// media damage) are counted and skipped, never surfaced.
    fn valid_records<'a>(
        cur: &'a Cursor<'a>,
        slots: impl Iterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = HistoryRecord> + 'a {
        slots.filter_map(move |i| {
            let e = cur.entry(i);
            if !e.crc_valid() {
                mvkv_obs::counter_inc!("mvkv_vhistory_read_crc_rejects_total");
                return None;
            }
            // ordering: i < t, covered by the Acquire tail load in
            // extend_tail (transitive happens-before via the stamp).
            Some(HistoryRecord::from_raw(
                e.version.load(Ordering::Relaxed),
                e.value.load(Ordering::Relaxed),
            ))
        })
    }

    /// The paper's `extract_history`: every visible record in version
    /// order. Checksum-invalid records are skipped.
    pub fn records(&self, fc: u64) -> Vec<HistoryRecord> {
        let mut cur = Cursor::new();
        let t = self.extend_tail_in(&mut cur, fc);
        let mut records = Vec::with_capacity(t as usize);
        records.extend(Self::valid_records(&cur, 0..t));
        records
    }

    /// The newest visible checksum-valid record, if any.
    pub fn latest(&self, fc: u64) -> Option<HistoryRecord> {
        let mut cur = Cursor::new();
        let t = self.extend_tail_in(&mut cur, fc);
        // Bound first: as a tail expression the iterator would outlive `cur`.
        let newest = Self::valid_records(&cur, (0..t).rev()).next();
        newest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eslots::EHistory;
    use crate::TOMBSTONE;

    #[test]
    fn find_on_empty_history() {
        let storage = EHistory::new();
        let h = History::new(&storage);
        assert_eq!(h.find_raw(0, 0), None);
        assert_eq!(h.find_raw(u64::MAX, u64::MAX), None);
    }

    #[test]
    fn paper_figure1_example() {
        // Key 7 in Figure 1: inserted at v0... we use 1-based versions:
        // inserted at v1, removed at v3, re-inserted at v4.
        let storage = EHistory::new();
        let h = History::new(&storage);
        h.append(1, 70);
        h.append_tombstone(3);
        h.append(4, 71);
        let fc = 4;
        assert_eq!(h.find(1, fc), Some(70));
        assert_eq!(h.find(2, fc), Some(70), "unchanged between snapshots");
        assert_eq!(h.find(3, fc), None, "removed");
        assert_eq!(h.find(4, fc), Some(71), "re-inserted");
        assert_eq!(h.find(100, fc), Some(71), "latest persists");
        assert_eq!(h.find_raw(3, fc), Some(TOMBSTONE));
    }

    #[test]
    fn watermark_gates_visibility() {
        let storage = EHistory::new();
        let h = History::new(&storage);
        h.append(1, 10);
        h.append(5, 50);
        // Watermark only reached 3: version-5 entry must stay invisible.
        assert_eq!(h.find(5, 3), Some(10));
        assert_eq!(h.find(9, 3), Some(10));
        // Once the watermark covers it, it becomes visible.
        assert_eq!(h.find(5, 5), Some(50));
    }

    #[test]
    fn unpublished_slot_blocks_tail() {
        let storage = EHistory::new();
        let h = History::new(&storage);
        h.append(1, 10);
        // Claim a slot manually but never publish it (simulates an in-flight
        // concurrent append).
        let (idx, _) = h.slots().claim();
        assert_eq!(idx, 1);
        assert_eq!(h.extend_tail(u64::MAX), 1, "tail must stop at the unpublished slot");
        assert_eq!(h.find(1, u64::MAX), Some(10));
    }

    #[test]
    fn tail_is_lazy() {
        let storage = EHistory::new();
        let h = History::new(&storage);
        h.append(1, 10);
        h.append(2, 20);
        assert_eq!(h.tail(), 0, "appends never advance the tail");
        // A find for version 1 needs the tail; it extends to cover v<=fc.
        assert_eq!(h.find(1, 2), Some(10));
        assert!(h.tail() >= 1);
        let t_after_first = h.tail();
        // A find for an already-covered version must not extend further.
        h.append(9, 90);
        assert_eq!(h.find(1, 9), Some(10));
        assert_eq!(h.tail(), t_after_first, "covered query must not extend the tail");
        // A find for a newer version extends.
        assert_eq!(h.find(9, 9), Some(90));
        assert_eq!(h.tail(), 3);
    }

    #[test]
    fn records_returns_full_visible_history() {
        let storage = EHistory::new();
        let h = History::new(&storage);
        h.append(2, 20);
        h.append_tombstone(4);
        h.append(7, 70);
        let recs = h.records(7);
        assert_eq!(
            recs,
            vec![
                HistoryRecord { version: 2, value: Some(20) },
                HistoryRecord { version: 4, value: None },
                HistoryRecord { version: 7, value: Some(70) },
            ]
        );
        // With a lower watermark the newest record is hidden.
        let storage2 = EHistory::new();
        let h2 = History::new(&storage2);
        h2.append(2, 20);
        h2.append(9, 90);
        assert_eq!(h2.records(5).len(), 1);
    }

    #[test]
    fn latest_tracks_watermark() {
        let storage = EHistory::new();
        let h = History::new(&storage);
        assert_eq!(h.latest(0), None);
        h.append(3, 30);
        assert_eq!(h.latest(3), Some(HistoryRecord { version: 3, value: Some(30) }));
        h.append_tombstone(5);
        assert_eq!(h.latest(5), Some(HistoryRecord { version: 5, value: None }));
    }

    #[test]
    fn binary_search_agrees_with_linear_scan() {
        // Deterministic pseudo-random history, exhaustive probe check.
        let storage = EHistory::new();
        let h = History::new(&storage);
        let mut versions = Vec::new();
        let mut v = 0u64;
        let mut state = 0x1234_5678u64;
        for i in 0..200u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v += 1 + (state >> 60); // strictly increasing, gaps of 1..16
            let value = if state.is_multiple_of(5) { TOMBSTONE } else { i * 3 };
            h.append(v, value);
            versions.push((v, value));
        }
        let fc = v;
        for probe in 0..=v + 5 {
            let expected = versions.iter().rev().find(|&&(ver, _)| ver <= probe).map(|&(_, val)| val);
            assert_eq!(h.find_raw(probe, fc), expected, "probe {probe}");
        }
    }

    #[test]
    fn works_identically_on_persistent_slots() {
        use crate::pslots::PHistory;
        let pool = mvkv_pmem::PmemPool::create_volatile(1 << 22).unwrap();
        let ph = History::new(PHistory::create(&pool).unwrap());
        ph.append(1, 100);
        ph.append_tombstone(2);
        ph.append(3, 300);
        assert_eq!(ph.find(1, 3), Some(100));
        assert_eq!(ph.find(2, 3), None);
        assert_eq!(ph.find(3, 3), Some(300));
        assert_eq!(ph.records(3).len(), 3);
    }

    #[test]
    fn coalesced_append_costs_at_most_one_fence() {
        use crate::pslots::PHistory;
        let p = mvkv_pmem::PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default())
            .unwrap();
        let h = History::new(PHistory::create(&p).unwrap());
        // The inline slots 0-2 need no warm-up: a fresh history's first
        // appends are already the steady-state path, one fence each.
        let before = p.fence_count().expect("crash-sim backend");
        for v in 1..=3u64 {
            h.append(v, v);
        }
        assert_eq!(p.fence_count().unwrap() - before, 3, "inline append must cost one fence");
        // Slot 3 allocates and links segment 1 (slots 3-9); past it the
        // appends are steady again.
        h.append(4, 40);
        let before = p.fence_count().unwrap();
        for v in 5..=7u64 {
            h.append(v, v * 10);
        }
        let after = p.fence_count().unwrap();
        assert_eq!(after - before, 3, "steady-state append must cost exactly one fence");
        // Batched form: N prepares share a single fence.
        let slot8 = h.append_prepare(8, 80);
        let slot9 = h.append_prepare(9, 90);
        let before = p.fence_count().unwrap();
        h.publish_fence();
        h.append_publish(slot8, 8);
        h.append_publish(slot9, 9);
        assert_eq!(p.fence_count().unwrap() - before, 1, "batch publish shares one fence");
        assert_eq!(h.find(9, 9), Some(90));
    }

    #[test]
    fn crash_between_prepare_and_publish_loses_only_the_tail() {
        use crate::pslots::PHistory;
        use crate::recovery::{compute_watermark, prune_to_watermark, scan_published_prefix};
        let p = mvkv_pmem::PmemPool::create_crash_sim(1 << 22, mvkv_pmem::CrashOptions::default())
            .unwrap();
        let hdr;
        {
            let h = History::new(PHistory::create(&p).unwrap());
            hdr = h.slots().pptr();
            h.append(1, 11);
            h.append(2, 22);
            // Prepared but never fenced or published — the crash hits here.
            let _ = h.append_prepare(3, 33);
        }
        let image = p.crash_image().unwrap();
        let rp = mvkv_pmem::PmemPool::open_image(&image).unwrap();
        let h = History::new(PHistory::open(&rp, hdr));
        let mut versions = Vec::new();
        let scan = scan_published_prefix(h.slots(), &mut versions);
        assert_eq!(versions, vec![1, 2], "prepared-only slot must not be recovered");
        assert!(!scan.settled, "a claimed, unpublished slot needs the prune");
        let wm = compute_watermark([&versions[..]].into_iter(), 0);
        let out = prune_to_watermark(h.slots(), wm);
        assert_eq!(out.kept, 2);
        assert_eq!(h.find(3, wm), Some(22), "torn version 3 is invisible");
    }

    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_readers_during_appends_see_consistent_prefixes() {
        use std::sync::atomic::{AtomicBool, Ordering as O};
        use std::sync::Arc;
        let storage = Arc::new(EHistory::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let storage = storage.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let h = History::new(&*storage);
                let mut v = 0;
                while !stop.load(O::Relaxed) {
                    v += 1;
                    h.append(v, v * 2);
                }
                v
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let storage = storage.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let h = History::new(&*storage);
                    while !stop.load(O::Relaxed) {
                        // A snapshot of the watermark: everything <= fc must
                        // be found exactly.
                        let fc = h.tail().max(1);
                        if let Some(val) = h.find(fc, fc) {
                            assert_eq!(val % 2, 0);
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, O::Relaxed);
        let total = writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(History::new(&*storage).find(total, total), Some(total * 2));
    }
}
