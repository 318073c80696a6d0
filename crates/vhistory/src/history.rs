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

    /// First half of the coalesced append: claims a slot (a segment it opens
    /// may stay unlinked, [`Slots::claim_unlinked`]), writes the payload, and
    /// issues the pending/entry flushes with **no** ordering fence. Returns
    /// the resolved slot — what every later step of this append uses, so the
    /// chain is walked once per append (by the claim).
    ///
    /// Callers batching several appends invoke this per pair, then one
    /// [`History::publish_fence`], then [`History::append_publish`] per
    /// pair — amortizing the fence across the whole batch. Until the
    /// publish, the slot is claimed-but-unpublished: readers and recovery
    /// both stop at it, so a crash between prepare and publish loses only
    /// the tail, never consistency.
    pub fn append_prepare(&self, version: u64, value: u64) -> S::Slot {
        mvkv_obs::counter_inc!("mvkv_vhistory_appends_total");
        let (_, slot) = self.slots.claim_unlinked();
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
        mvkv_obs::counter_inc!("mvkv_vhistory_publish_fences_total");
        self.slots.publish_fence();
    }

    /// Second half of the coalesced append: publishes the slot
    /// [`History::append_prepare`] returned by storing its stamp — the
    /// finished bit and the payload's integrity code in one word, so the
    /// checksum adds no store, flush or fence to the schedule. Must be
    /// ordered after the entry persists by a [`History::publish_fence`] in
    /// between. A segment the claim left unlinked is linked here, first
    /// ([`Slots::link`]): behind that same fence.
    pub fn append_publish(&self, slot: S::Slot, version: u64) {
        let slot = self.slots.link(slot);
        // ordering: this thread's own store in append_prepare (or in the
        // link that moved the entry).
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
    /// visible slots. An empty cursor is filled forward from the history
    /// block; a started one must resolve the tail's segment (or, the tail at
    /// 0, slot 0's) and is filled forward from where it stops.
    pub fn extend_tail_in<'a>(&'a self, cur: &mut Cursor<'a>, fc: u64) -> u64 {
        let tail = self.slots.tail_ref();
        let start = tail.load(Ordering::Acquire) as u64;
        // A claim bumps `pending` before it links the slot's segment, so the
        // walk stops at the resolved backing: a slot without a linked
        // segment cannot have been published.
        let limit = self.slots.fill(cur, self.slots.pending());
        debug_assert!(cur.levels() == 0 || cur.lowest() <= locate(start.saturating_sub(1)).0);
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
                    mvkv_obs::counter_add!("mvkv_vhistory_tail_advances_total", advanced);
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
    ///
    /// The walk starts at the newest segment ([`Slots::start`]), walks
    /// forward only when that one lies below the tail's, and follows back
    /// links down until a segment's first version is at most `version`; the
    /// search inside that segment is `aimed_search`.
    pub fn find_raw(&self, version: u64, fc: u64) -> Option<u64> {
        let mut cur = Cursor::new();
        let mut t = self.tail();
        // Every slot below the tail is published, so the walk reaches `t − 1`.
        if t > 0 {
            self.reach(&mut cur, t, t - 1);
        }
        // ordering: Relaxed entry loads are sound for every slot < t: the
        // Acquire load of `tail` synchronizes with the extender's AcqRel
        // CAS, which itself Acquire-loaded each slot's Release-stored
        // stamp — a transitive happens-before edge to the payload stores.
        let version_at = |cur: &Cursor<'_>, idx| cur.entry(idx).version.load(Ordering::Relaxed);
        // The tail's segment and its first version, on the header's line the
        // walk read. Slot `t − 1` matters only when that is at most
        // `version`: as the answer, or, below `version`, as the lazy rule's
        // trigger. A stale version only costs a redundant extension.
        let mut k = locate(t.saturating_sub(1)).0;
        let mut first = if t > 0 { version_at(&cur, seg_base(k)) } else { 0 };
        let mut newest = (t > 0 && first <= version).then(|| version_at(&cur, t - 1));
        if t == 0 || newest.is_some_and(|newest| newest < version) {
            if t == 0 {
                self.reach(&mut cur, self.slots.pending(), 0);
            }
            t = self.extend_tail_in(&mut cur, fc);
            if t == 0 {
                return None;
            }
            k = locate(t - 1).0;
            first = version_at(&cur, seg_base(k));
            newest = None;
        }
        // Then down the back links to the first segment whose first version
        // is at most `version`. Invariant of the search: slot `lo.0` was
        // *observed* at or below `version`, slot `hi.0` above it — so the
        // slot returned is one whose version word was actually read, and a
        // checksum-valid one cannot be from the future even when damaged
        // neighbours misled the search.
        let top = t - 1;
        let mut hi = None;
        while first > version {
            if k == 0 {
                return None; // even slot 0 is newer than `version`
            }
            hi = Some((seg_base(k), first));
            k -= 1;
            if k < cur.lowest() {
                self.slots.fill_back(&mut cur, seg_base(k));
            }
            first = version_at(&cur, seg_base(k));
        }
        let lo = (seg_base(k), first);
        // The tail's segment is bracketed by slot `t − 1`, every other one by
        // the first slot of the segment above it.
        let search = |hi| aimed_search(lo, hi, version, |idx| version_at(&cur, idx));
        let found = match hi {
            Some(hi) => search(hi),
            None if lo.0 == top => top,
            None => match newest.unwrap_or_else(|| version_at(&cur, top)) {
                newest if newest <= version => top,
                newest => search((top, newest)),
            },
        };
        let e = cur.entry(found);
        // Verify-on-read: never surface a checksum-invalid payload; fall
        // back to a verified linear scan.
        if !e.crc_valid() {
            return self.find_raw_verified(version, t);
        }
        // ordering: found < t, same argument as the version loads above.
        Some(e.value.load(Ordering::Relaxed))
    }

    /// Resolves into the empty `cur` the segments from slot `idx`'s up to
    /// slot `n − 1`'s, or to the end of the chain: from the newest segment,
    /// forward only when it lies below `n − 1`'s, then back down to `idx`'s.
    fn reach<'a>(&'a self, cur: &mut Cursor<'a>, n: u64, idx: u64) {
        if n == 0 {
            return;
        }
        self.slots.start(cur, n);
        if cur.covered() < n {
            self.slots.fill(cur, n);
        }
        self.slots.fill_back(cur, idx);
    }

    /// Fallback for [`History::find_raw`] when the search lands on a
    /// checksum-invalid entry (latent media damage): a linear scan of the
    /// visible prefix, resolved forward from the history block, that
    /// considers only checksum-valid records. Corrupt slots may also carry a
    /// corrupt *version* word, which breaks the sortedness the search relies
    /// on — the linear scan does not.
    #[cold]
    fn find_raw_verified(&self, version: u64, t: u64) -> Option<u64> {
        let mut cur = Cursor::new();
        // Every slot below the tail is published, so the fill covers `t`.
        self.slots.fill(&mut cur, t);
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

/// The search inside one segment: the highest slot in `[lo.0, hi.0)` whose
/// version is at most `version`, given the two bracket slots `(index,
/// version)` the walk has already read — `lo`'s version at most `version`,
/// `hi`'s above it. `version_at` reads a slot's version (one probe).
///
/// The first probe goes where linear interpolation between the brackets
/// puts `version`, and its neighbour on the far side guards it: versions
/// evenly spread over the slots (a store's round-robin writers) resolve in
/// one or two probes of one line. Whatever range is left is binary-searched,
/// so no history costs more than `⌈log₂ n⌉ + 2` probes for `n = hi.0 −
/// lo.0`. The slot returned is `lo.0` or one whose version a probe read at
/// most `version`.
#[inline]
pub(crate) fn aimed_search(
    lo: (u64, u64),
    hi: (u64, u64),
    version: u64,
    mut version_at: impl FnMut(u64) -> u64,
) -> u64 {
    let ((mut left, low), (mut right, high)) = (lo, hi);
    debug_assert!(left < right && low <= version && version < high);
    if right - left > 1 {
        // The fraction is below 1, so the aim stays in `[left, right)`; the
        // clamp only keeps the probe off the slot already read.
        let share = (version - low) as f64 / (high - low) as f64;
        let aim = left + (share * (right - left) as f64) as u64;
        let probe = aim.clamp(left + 1, right - 1);
        if version_at(probe) <= version {
            left = probe;
            if probe + 1 < right {
                if version_at(probe + 1) > version {
                    right = probe + 1;
                } else {
                    left = probe + 1;
                }
            }
        } else {
            right = probe;
            if probe - 1 > left {
                if version_at(probe - 1) <= version {
                    left = probe - 1;
                } else {
                    right = probe - 1;
                }
            }
        }
    }
    while right - left > 1 {
        let mid = left + (right - left) / 2;
        if version_at(mid) <= version {
            left = mid;
        } else {
            right = mid;
        }
    }
    left
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

    /// Appends `versions` (strictly increasing) to `h`, every fifth a
    /// tombstone, then checks `find_raw` against a linear scan at every
    /// version of `probes`.
    fn search_agrees_with_linear_scan<S: Slots>(
        h: &History<S>,
        versions: &[u64],
        probes: impl IntoIterator<Item = u64>,
    ) {
        let written: Vec<(u64, u64)> = versions
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, if i % 5 == 4 { TOMBSTONE } else { i as u64 * 3 }))
            .collect();
        for &(v, value) in &written {
            h.append(v, value);
        }
        let fc = *versions.last().unwrap();
        for probe in probes {
            let expected =
                written.iter().rev().find(|&&(ver, _)| ver <= probe).map(|&(_, val)| val);
            assert_eq!(h.find_raw(probe, fc), expected, "probe {probe}");
        }
    }

    /// A deterministic pseudo-random stream.
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        }
    }

    /// Strictly increasing versions from 1 on, the gap before each drawn by
    /// `gap` from its index.
    fn spaced(n: u64, mut gap: impl FnMut(u64) -> u64) -> Vec<u64> {
        (0..n).scan(0u64, |v, i| Some(*v + gap(i).max(1)).inspect(|&next| *v = next)).collect()
    }

    #[test]
    fn binary_search_agrees_with_linear_scan() {
        // Gaps of 1..16 on the heap.
        let mut next = lcg(0x1234_5678);
        let versions = spaced(200, |_| 1 + (next() >> 60));
        let fc = *versions.last().unwrap();
        search_agrees_with_linear_scan(&History::new(&EHistory::new()), &versions, 0..=fc + 5);
        // 2^12 versions in a pool, levels 0..=10, with skewed gaps: mostly
        // 1..8, one in sixteen up to 2^20, one in 512 up to 2^40 — the aim
        // lands far off, and the guarded binary search has to make up.
        use crate::pslots::PHistory;
        let pool = mvkv_pmem::PmemPool::create_volatile(1 << 22).unwrap();
        let mut next = lcg(0x9E37_79B9);
        let versions = spaced(1 << 12, |_| match next() {
            r if r % 512 == 0 => r >> 24,
            r if r % 16 == 0 => r >> 44,
            r => 1 + (r >> 61),
        });
        // Gaps too wide to sweep: every version, both its neighbours, the
        // middle of the gap above it and a random point in that gap.
        let fc = *versions.last().unwrap();
        let probes = versions
            .windows(2)
            .flat_map(|w| {
                let gap = w[1] - w[0];
                [w[0] - 1, w[0], w[0] + 1, w[0] + gap / 2, w[0] + next() % gap]
            })
            .chain([fc - 1, fc, fc + 5, u64::MAX])
            .collect::<Vec<_>>();
        let h = History::new(PHistory::create(&pool).unwrap());
        search_agrees_with_linear_scan(&h, &versions, probes);
    }

    /// The in-segment search against a linear scan, on one bracketed range
    /// of each of four histories: evenly spaced versions, geometric gaps, one
    /// burst then a long gap, and even gaps but one. Every version, both its
    /// neighbours and the midpoints between versions are searched, and no
    /// search costs more than `⌈log₂ n⌉ + 2` probes.
    #[test]
    fn the_aimed_probe_is_bounded() {
        let n = 1000u64;
        let histories: [(&str, Vec<u64>); 4] = [
            ("even", spaced(n, |_| 4096)),
            ("geometric", spaced(n, |i| 1.04f64.powi(i as i32) as u64)),
            ("burst", spaced(n, |i| if i == n / 10 { 1 << 40 } else { 1 })),
            ("one odd gap", spaced(n, |i| if i == n / 2 { 1 << 30 } else { 1000 })),
        ];
        for (name, versions) in histories {
            // Whole ranges and windows of it, as the walk brackets them.
            for (lo, hi) in [(0, n - 1), (0, 7), (n / 10 - 3, n / 10 + 60), (n / 2 - 15, n - 1)] {
                let (lo, hi) = (lo as usize, hi as usize);
                let bound = (hi - lo).next_power_of_two().trailing_zeros() + 2;
                let mut probes =
                    versions[lo..hi].iter().flat_map(|&v| [v, v + 1]).collect::<Vec<_>>();
                probes.extend(versions[lo..hi].windows(2).map(|w| w[0] + (w[1] - w[0]) / 2));
                probes.extend(versions[lo + 1..=hi].iter().map(|&v| v - 1));
                for version in probes.into_iter().filter(|&v| v < versions[hi]) {
                    let mut count = 0;
                    let found = aimed_search(
                        (lo as u64, versions[lo]),
                        (hi as u64, versions[hi]),
                        version,
                        |idx| {
                            count += 1;
                            versions[idx as usize]
                        },
                    );
                    let linear = versions.iter().rposition(|&v| v <= version).unwrap() as u64;
                    assert_eq!(found, linear, "{name} [{lo}, {hi}): version {version}");
                    assert!(
                        count <= bound,
                        "{name} [{lo}, {hi}): version {version}: {count} probes"
                    );
                }
            }
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
        // The inline slots 0-1 need no warm-up: a fresh history's first
        // appends are already the steady-state path, one fence each.
        let before = p.fence_count().expect("crash-sim backend");
        for v in 1..=2u64 {
            h.append(v, v);
        }
        assert_eq!(p.fence_count().unwrap() - before, 2, "inline append must cost one fence");
        // Slot 2 allocates and links segment 1 (slots 2-8); past it the
        // appends are steady again.
        h.append(3, 30);
        let before = p.fence_count().unwrap();
        for v in 4..=6u64 {
            h.append(v, v * 10);
        }
        let after = p.fence_count().unwrap();
        assert_eq!(after - before, 3, "steady-state append must cost exactly one fence");
        // Batched form: N prepares share a single fence.
        let slot7 = h.append_prepare(7, 70);
        let slot8 = h.append_prepare(8, 80);
        let before = p.fence_count().unwrap();
        h.publish_fence();
        h.append_publish(slot7, 7);
        h.append_publish(slot8, 8);
        assert_eq!(p.fence_count().unwrap() - before, 1, "batch publish shares one fence");
        assert_eq!(h.find(8, 8), Some(80));
    }

    #[test]
    fn crash_between_prepare_and_publish_loses_only_the_tail() {
        use crate::pslots::PHistory;
        use crate::recovery::{prune_to_watermark, scan_published_prefix, VersionBits};
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
        let mut bits = VersionBits::new(0, rp.len());
        scan_published_prefix(h.slots(), &mut bits);
        let wm = VersionBits::watermark(0, std::iter::once(&bits));
        assert_eq!(wm, 2);
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
