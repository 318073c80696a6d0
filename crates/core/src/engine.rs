//! The store engine: skip-list index + per-key [`History`] + [`VersionClock`],
//! written once.
//!
//! The paper's ESkipList is "identical algorithms, all state on the heap"
//! (§V-B); it exists to price persistence. So the algorithms live here, and
//! a store is an instantiation: [`Engine`] is generic over a [`Home`] —
//! *where a key's history lives*. [`crate::PSkipList`] is `Engine<u64,
//! PmHome>` (pool + key chain) and [`crate::ESkipList`] is `Engine<u64,
//! HeapHome>`. Whatever the two stores' figures differ by is the cost of the
//! home, not of drifted copies: where the histories live, what is fenced, and
//! how wide the index payload that names a history is (a 32-bit pool offset,
//! a 64-bit heap pointer). Both stores are word-keyed; the key type stays a
//! parameter only so that a test can count a write's index descents in key
//! comparisons (`tests::every_write_reaches_the_index_once`), which a `u64`
//! key cannot.
//!
//! A write reaches the index once: `SkipList::insert_with` is the lookup
//! (paper Algorithm 2 — one `FindSkip`, then append to the history it met or
//! link a new node where it stopped). A present key costs the descent a
//! `find` pays; only an absent one runs the home's `create`.
//!
//! Crash-consistency ordering on the first mutation of a key (PM home): the
//! history block is allocated and flushed, the key is linked into the
//! chain, and only then is the operation's version appended and completed.
//! A crash between any two steps leaks at most an unreferenced allocation
//! (auditable via [`mvkv_pmem::recovery::audit`]) and never produces a
//! visible half-operation: visibility requires the completion watermark to
//! cover the version, and the watermark only advances over fully persisted
//! operations.

use crate::api::{Labels, StoreSession, VersionedStore};
use crate::stats::{OpCounters, OpStats};
use crate::Pair;
use mvkv_skiplist::{InsertOutcome, Iter, SkipList};
use mvkv_vhistory::{History, HistoryRecord, Slots, VersionClock, TOMBSTONE};
use std::collections::VecDeque;

/// Where a key's history lives. The index maps a key to a payload; the home
/// turns payloads into histories and is told about the events a durable home
/// must record.
pub trait Home<K> {
    /// History storage, borrowed from the home.
    type Slots<'a>: Slots
    where
        Self: 'a;
    /// What the index stores per key to name its history. Every node holds
    /// one, so its width is part of the index's size per key.
    type Payload: Copy + Send + Sync;
    /// Benchmark-table name of the word-keyed store over this home.
    const NAME: &'static str;

    /// Allocates an empty history; returns its payload.
    fn create(&self) -> Self::Payload;
    /// The history behind `payload`.
    fn history(&self, payload: Self::Payload) -> History<Self::Slots<'_>>;
    /// Starts fetching the line [`history`](Self::history) reads first, for
    /// a walk that resolves it a few keys later.
    fn prefetch(&self, payload: Self::Payload);
    /// Reclaims a history created by a writer that then lost the
    /// duplicate-key race (paper §IV-B); it never became reachable.
    fn discard(&self, payload: Self::Payload);
    /// The index now maps `key` to `payload`. Runs before any of the key's
    /// operations can complete.
    fn key_linked(&self, key: K, payload: Self::Payload);
    /// The one ordering fence between a batch chunk's entry persists and its
    /// stamp publishes.
    fn batch_fence(&self);
    /// The store is being dropped; `payloads` are those of every indexed key.
    fn close(&mut self, payloads: impl Iterator<Item = Self::Payload>);
}

/// A multi-version ordered store: values are words, the top one reserved for
/// [`TOMBSTONE`].
pub struct Engine<K, H: Home<K>> {
    pub(crate) index: SkipList<K, H::Payload>,
    pub(crate) clock: VersionClock,
    /// The bindings of [`crate::LabeledTags`].
    pub(crate) tags: Labels,
    pub(crate) home: H,
    counters: OpCounters,
}

/// The value `hist` holds in snapshot `version` if its key is live there
/// (born and not tombstoned) — the one liveness filter of every extraction,
/// scan and delta. `fc` is the watermark the caller froze.
pub(crate) fn live_at<S: Slots>(hist: History<S>, version: u64, fc: u64) -> Option<u64> {
    hist.find_raw(version, fc).filter(|&value| value != TOMBSTONE)
}

/// Starts fetching the cache line at `addr` into every cache level. A hint:
/// it reads nothing the program sees and never faults, whatever `addr` is.
#[cfg(all(target_arch = "x86_64", not(any(loom, miri))))]
#[inline(always)]
pub(crate) fn prefetch_line(addr: *const u8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch dereferences nothing; any address is allowed.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(addr.cast()) }
}

/// No prefetch where there is no intrinsic, or a model checker runs.
#[cfg(not(all(target_arch = "x86_64", not(any(loom, miri)))))]
#[inline(always)]
pub(crate) fn prefetch_line(_: *const u8) {}

/// Pairs the snapshot walk holds between fetching a history's line and
/// resolving the history: the walk is in key order, the histories are where
/// their keys' first writes put them, so each resolution is a miss that the
/// ring overlaps with the next ones (EXPERIMENTS.md "Extraction").
const LOOKAHEAD: usize = 16;

/// Pairs per [`Engine::put_batch`] chunk: one clock reservation, one fence.
/// A chunk's versions are in flight together, so the clock's window must fit
/// one chunk; it fits four.
const BATCH_CHUNK: usize = 1024;
const _: () = assert!(4 * BATCH_CHUNK == mvkv_vhistory::clock::DEFAULT_WINDOW);

impl<K: Ord + Copy, H: Home<K>> Engine<K, H> {
    pub(crate) fn assemble(index: SkipList<K, H::Payload>, clock: VersionClock, home: H) -> Self {
        Engine { index, clock, tags: Labels::default(), home, counters: OpCounters::new() }
    }

    /// DRAM of the index: bytes it holds from the allocator, and how many of
    /// them are handed out to nodes ([`SkipList::memory`]).
    pub fn index_memory(&self) -> (usize, usize) {
        self.index.memory()
    }

    /// Nodes the index links at each level, from level 0 (every key) up
    /// ([`SkipList::levels`]: a walk of every level).
    pub fn index_levels(&self) -> Vec<u64> {
        self.index.levels()
    }

    /// The one index call of a write: a single descent that returns the
    /// history the key already has, or links the one created here.
    pub(crate) fn get_or_create_history(&self, key: K) -> H::Payload {
        match self.index.insert_with(key, || self.home.create()) {
            InsertOutcome::Inserted(payload) => {
                self.counters.new_key();
                self.home.key_linked(key, payload);
                payload
            }
            InsertOutcome::Lost { existing, yours } => {
                if let Some(mine) = yours {
                    self.counters.lost_key_race();
                    self.home.discard(mine);
                }
                existing
            }
        }
    }

    /// Inserts `key → value`, tagging a new snapshot; returns its version.
    /// (The generic operations are named apart from [`StoreSession`]'s: an
    /// inherent method would shadow the trait's on `&Engine`.)
    pub(crate) fn put(&self, key: K, value: u64) -> u64 {
        mvkv_obs::span!("mvkv_core_insert_ns");
        assert_ne!(value, TOMBSTONE, "value reserved for removal marker");
        self.counters.insert();
        self.mutate(key, value)
    }

    /// Removes `key`, tagging a new snapshot; returns its version.
    pub(crate) fn delete(&self, key: K) -> u64 {
        mvkv_obs::span!("mvkv_core_remove_ns");
        self.counters.remove();
        self.mutate(key, TOMBSTONE)
    }

    fn mutate(&self, key: K, value: u64) -> u64 {
        let hist = self.get_or_create_history(key);
        let version = self.clock.issue();
        self.home.history(hist).append(version, value);
        self.clock.complete(version);
        version
    }

    /// Batched insert with the coalesced persist schedule: a chunk reserves
    /// its versions in one clock call (pair `i` gets `first + i`), every pair
    /// is *prepared* (slot claimed, entry written and flushed — no fence),
    /// then a single ordering fence covers the whole chunk, then every stamp
    /// is published and the chunk is reported to the clock in one call. One
    /// fence and two writes of the clock's line per chunk instead of one per
    /// operation, and one segment-chain walk per pair: the slot the prepare
    /// resolved is what the publish stamps.
    ///
    /// A crash anywhere in the middle leaves a mix of published and
    /// prepared-only slots; recovery's watermark rule (§IV-B) prunes every
    /// version at or beyond the first unpublished one, so the recovered
    /// state is always a consistent prefix of the batch.
    pub(crate) fn put_batch(&self, pairs: &[(K, u64)]) -> Vec<u64> {
        mvkv_obs::span!("mvkv_core_insert_batch_ns");
        mvkv_obs::counter_add!("mvkv_core_insert_batch_pairs_total", pairs.len() as u64);
        // Up front: past this point every issued version must complete.
        let storable = pairs.iter().all(|&(_, value)| value != TOMBSTONE);
        assert!(storable, "value reserved for removal marker");
        let mut versions = Vec::with_capacity(pairs.len());
        let mut staged = Vec::with_capacity(pairs.len().min(BATCH_CHUNK));
        for chunk in pairs.chunks(BATCH_CHUNK) {
            staged.clear();
            let n = chunk.len() as u64;
            let first = self.clock.issue_range(n);
            for (version, &(key, value)) in (first..).zip(chunk) {
                self.counters.insert();
                let hist = self.get_or_create_history(key);
                let slot = self.home.history(hist).append_prepare(version, value);
                staged.push((hist, version, slot));
            }
            self.home.batch_fence();
            for &(hist, version, slot) in &staged {
                self.home.history(hist).append_publish(slot, version);
            }
            self.clock.complete_range(first, n);
            versions.extend(first..first + n);
        }
        versions
    }

    /// Value of `key` in snapshot `version` (`None` if absent or removed).
    pub(crate) fn get(&self, key: &K, version: u64) -> Option<u64> {
        mvkv_obs::span!("mvkv_core_find_ns");
        self.counters.find();
        let hist = self.index.get(key)?;
        let result = self.home.history(hist).find(version, self.clock.watermark());
        if result.is_some() {
            self.counters.find_hit();
        }
        result
    }

    pub(crate) fn records(&self, key: &K) -> Vec<HistoryRecord> {
        self.counters.history_query();
        match self.index.get(key) {
            Some(hist) => self.home.history(hist).records(self.clock.watermark()),
            None => Vec::new(),
        }
    }

    /// The snapshot walk, one step: advances `cursor` along level 0 to the
    /// next key below `hi` (exclusive; `None` = unbounded) that is live in
    /// snapshot `version`, resolving each history it passes once. `fc` is
    /// the watermark the caller froze when it took the cursor, so a whole
    /// walk resolves against one consistency frontier. The index is
    /// key-ordered: once a step returns `None`, every later one does.
    pub(crate) fn next_live<'a>(
        &'a self,
        cursor: &mut Iter<'a, K, H::Payload>,
        hi: Option<&K>,
        version: u64,
        fc: u64,
    ) -> Option<(&'a K, u64)> {
        cursor
            .take_while(|&(key, _)| hi.is_none_or(|hi| key < hi))
            .find_map(|(key, hist)| Some((key, live_at(self.home.history(hist), version, fc)?)))
    }

    /// The paper's `extract_snapshot`, on the caller's thread: freezes the
    /// watermark, seeks `lo` (`None` = the first key), walks level 0 and
    /// pushes every pair below `hi` (`None` = unbounded) that is live at the
    /// frozen watermark ([`live_at`]) into one vector, in key order. The walk
    /// runs [`LOOKAHEAD`] pairs ahead of the resolution and prefetches each
    /// history as its pair enters the ring. Only the unbounded snapshot is
    /// pre-sized (to the key count): a window's size is unknown until it has
    /// been walked.
    pub(crate) fn extract(&self, version: u64, lo: Option<&K>, hi: Option<&K>) -> Vec<(K, u64)> {
        mvkv_obs::span!("mvkv_core_extract_ns");
        let fc = self.clock.watermark();
        let cursor = lo.map_or_else(|| self.index.iter(), |lo| self.index.range_from(lo));
        let mut pairs = cursor
            .take_while(|&(key, _)| hi.is_none_or(|hi| key < hi))
            .inspect(|&(_, hist)| self.home.prefetch(hist));
        let mut ring: VecDeque<_> = pairs.by_ref().take(LOOKAHEAD).collect();
        let mut out = Vec::with_capacity(if hi.is_none() { self.index.len() as usize } else { 0 });
        while let Some((key, hist)) = ring.pop_front() {
            ring.extend(pairs.next());
            if let Some(value) = live_at(self.home.history(hist), version, fc) {
                out.push((*key, value));
            }
        }
        out
    }
}

impl<K, H: Home<K>> Drop for Engine<K, H> {
    fn drop(&mut self) {
        self.home.close(self.index.iter().map(|(_, payload)| payload));
    }
}

impl<H: Home<u64> + Send + Sync> VersionedStore for Engine<u64, H> {
    type Session<'a>
        = &'a Self
    where
        Self: 'a;

    fn session(&self) -> &Self {
        self
    }

    fn tag(&self) -> u64 {
        self.clock.watermark()
    }

    fn latest_version(&self) -> u64 {
        self.clock.issued()
    }

    fn key_count(&self) -> u64 {
        self.index.len()
    }

    fn wait_writes_complete(&self) {
        self.clock.wait_all_complete();
    }

    fn name(&self) -> &'static str {
        H::NAME
    }

    fn op_stats(&self) -> OpStats {
        self.counters.snapshot()
    }
}

impl<H: Home<u64>> StoreSession for &Engine<u64, H> {
    fn insert(&self, key: u64, value: u64) -> u64 {
        self.put(key, value)
    }

    fn remove(&self, key: u64) -> u64 {
        self.delete(key)
    }

    fn insert_batch(&self, pairs: &[Pair]) -> Vec<u64> {
        self.put_batch(pairs)
    }

    fn find(&self, key: u64, version: u64) -> Option<u64> {
        self.get(&key, version)
    }

    fn extract_history(&self, key: u64) -> Vec<HistoryRecord> {
        self.records(&key)
    }

    fn extract_snapshot(&self, version: u64) -> Vec<Pair> {
        self.counters.snapshot_extraction();
        self.extract(version, None, None)
    }

    fn extract_range(&self, version: u64, lo: u64, hi: u64) -> Vec<Pair> {
        self.extract(version, Some(&lo), Some(&hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ESkipList, HeapHome, PSkipList};

    // The engine paths both instantiations run. The semantics shared with
    // the other stores are in `tests/equivalence.rs`.

    fn insert_batch_matches_per_pair_inserts<S: VersionedStore>(store: S) {
        let s = store.session();
        s.insert(5, 50);
        let pairs: Vec<Pair> = (1..=40u64).map(|k| (k * 3, k * 7)).collect();
        let versions = s.insert_batch(&pairs);
        assert_eq!(versions, (2..=41).collect::<Vec<u64>>());
        store.wait_writes_complete();
        let tag = store.tag();
        for &(k, v) in &pairs {
            assert_eq!(s.find(k, tag), Some(v));
        }
        // Mid-batch snapshots behave exactly like per-pair inserts.
        assert_eq!(s.find(pairs[10].0, versions[10]), Some(pairs[10].1));
        assert_eq!(s.find(pairs[11].0, versions[10]), None);
    }

    #[test]
    fn insert_batch_matches_per_pair_inserts_on_both_stores() {
        insert_batch_matches_per_pair_inserts(PSkipList::create_volatile(1 << 24).unwrap());
        insert_batch_matches_per_pair_inserts(ESkipList::new());
    }

    /// Concurrent batchers at a window of two chunks: each chunk is one
    /// reservation taken while its caller holds no incomplete version, so
    /// every call returns, whatever the schedule. (Issued per pair, three
    /// callers each holding part of a chunk could fill the window and wait
    /// on each other for ever.)
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn concurrent_batchers_fit_a_two_chunk_window() {
        let store: ESkipList =
            Engine::assemble(SkipList::new(), VersionClock::with_window(2 * BATCH_CHUNK), HeapHome);
        let per_call = 2 * BATCH_CHUNK as u64;
        let mut versions: Vec<u64> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..3u64)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || {
                        let pairs: Vec<Pair> =
                            (0..per_call).map(|i| (t * per_call + i, i + 1)).collect();
                        store.put_batch(&pairs)
                    })
                })
                .collect();
            callers.into_iter().flat_map(|c| c.join().unwrap()).collect()
        });
        for chunk in versions.chunks(BATCH_CHUNK) {
            assert!(
                chunk.windows(2).all(|w| w[1] == w[0] + 1),
                "a chunk's versions are contiguous"
            );
        }
        versions.sort_unstable();
        assert_eq!(versions, (1..=3 * per_call).collect::<Vec<u64>>(), "gapless, none twice");
        assert_eq!(store.tag(), store.latest_version());
    }

    thread_local! {
        /// `Ord::cmp` calls on [`Probe`] keys made by this test's thread.
        static COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A key that counts how often the index compares it.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Probe(u64);

    impl PartialOrd for Probe {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Probe {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    /// Every write is one index descent. Counted in key comparisons, the
    /// index's only per-level work: a write makes exactly as many as an
    /// `index.get` of its key, taken on the same index just before it.
    #[test]
    fn every_write_reaches_the_index_once() {
        let store: Engine<Probe, crate::HeapHome> = Engine::new();
        // Keys 10, 20, .. 3000 in scattered order.
        for i in 0..300u64 {
            store.put(Probe((i * 211 % 300 + 1) * 10), i);
        }
        fn count<R>(f: impl FnOnce() -> R) -> usize {
            let before = COMPARISONS.with(|c| c.get());
            f();
            COMPARISONS.with(|c| c.get()) - before
        }
        let descent = |key| count(|| store.index.get(&Probe(key)));

        let one = descent(1505);
        assert_eq!(count(|| store.put(Probe(1505), 1)), one, "fresh insert");
        let one = descent(700);
        assert_eq!(count(|| store.put(Probe(700), 2)), one, "update");
        assert_eq!(count(|| store.delete(Probe(700))), one, "remove");
        // A remove of a key that was never inserted creates it — in one too.
        let one = descent(2995);
        assert_eq!(count(|| store.delete(Probe(2995))), one, "fresh remove");
        // The update first: it leaves the index as the second count found it.
        let two = descent(700) + descent(15);
        let pair = [(Probe(700), 3), (Probe(15), 4)];
        assert_eq!(count(|| store.put_batch(&pair)), two, "put_batch pair");
        assert_eq!(store.index.len(), 303);
    }

    fn snapshot_extraction_is_sorted_and_complete<S: VersionedStore>(store: S) {
        let s = store.session();
        // Shuffled insert order.
        let n = 6000u64;
        for i in 0..n {
            let key = (i * 2_654_435_761) % 100_000_000;
            s.insert(key, i + 1);
        }
        store.wait_writes_complete();
        let tag = store.tag();
        let snap = s.extract_snapshot(tag);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "snapshot must be strictly sorted");
        assert_eq!(snap.len() as u64, store.key_count());
        // Range extraction agrees with the filtered snapshot.
        let (lo, hi) = (1_000_000, 60_000_000);
        let range = s.extract_range(tag, lo, hi);
        let expect: Vec<Pair> = snap.iter().copied().filter(|&(k, _)| lo <= k && k < hi).collect();
        assert_eq!(range, expect);
    }

    #[test]
    fn snapshot_extraction_is_sorted_and_complete_on_both_stores() {
        snapshot_extraction_is_sorted_and_complete(PSkipList::create_volatile(1 << 24).unwrap());
        snapshot_extraction_is_sorted_and_complete(ESkipList::new());
    }
}
