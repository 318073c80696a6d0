//! PSkipList — the paper's core proposal (§IV, §V-B).
//!
//! A hybrid multi-version ordered store:
//!
//! * **Persistent state** (in a [`mvkv_pmem::PmemPool`]): per-key version
//!   histories with lazy tails ([`mvkv_vhistory`]) and the key block chain
//!   ([`mvkv_keychain`]) mapping each key to its history.
//! * **Ephemeral state**: the lock-free skip-list index
//!   ([`mvkv_skiplist`]) over the same keys, holding 32-bit history offsets
//!   as payloads, plus the version clock. A pool is therefore at most 4 GiB:
//!   creating or opening a store on a larger one is an error.
//!
//! The operations are the one store [`Engine`]'s; this module is what is
//! genuinely PM: the [`PmHome`] that puts histories and key links in a
//! pool, construction, recovery, scrub, compaction and the persistent tag
//! chain.
//!
//! On restart, [`PSkipList::open_file`] walks the block chain once, in
//! parallel (paper Fig 5a): every worker validates and scans the histories
//! of the blocks it claims and keeps their `(key, history)` pairs as a run.
//! The completion watermark comes from the scanned entry stamps, the index
//! is bulk-built from the sorted runs, and only the histories the scan
//! flagged are pruned — the paper's §IV-B recovery rule, one visit per key.

use crate::api::{Labels, VersionedStore};
use crate::engine::{Engine, Home};
use crate::recovery::{
    CorruptionClass, KeyQuarantine, QuarantineReport, RecoveryError, ScrubReport,
};
use mvkv_keychain::{
    try_fold_claimed, try_workers, ChainHdr, KeyChain, RepairStats, DEFAULT_BLOCK_CAP,
};
use mvkv_pmem::{CrashOptions, PPtr, PmemPool};
use mvkv_skiplist::{Fragment, SkipList};
use mvkv_vhistory::recovery::{prune_to_watermark, scan_published_prefix, ScanStop, VersionBits};
use mvkv_vhistory::{Cursor, History, PHistory, Slots, VersionClock, TOMBSTONE};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timings and counters of one restart (paper Fig 5), and what it
/// quarantined. The five times are the reopen's consecutive phases: open,
/// repair, scan, rebuild, prune.
#[derive(Debug, Clone, Default)]
pub struct RestartStats {
    /// Keys in the rebuilt index (distinct keys with a reachable history).
    pub rebuilt_keys: u64,
    /// Workers the chain walk ran, the opening thread among them (at least
    /// one); the index build and the prune run at most as many.
    pub rebuild_threads: usize,
    /// Recovered completion watermark.
    pub watermark: u64,
    /// History entries pruned beyond the watermark.
    pub pruned_entries: u64,
    /// Histories the prune visited: the ones the scan found torn or damaged
    /// and the ones ending above the watermark. 0 for a store that was
    /// closed cleanly, read or not (a lagging lazy tail is the first
    /// reader's to move, not the restart's).
    pub pruned_histories: u64,
    /// Opening the pool: mapping it, the heap walk and the free-list rebuild.
    pub open_time: Duration,
    /// Repairing the key and tag chains.
    pub repair_time: Duration,
    /// Index construction: sorting the workers' runs, bulk-building the
    /// skip list from them and stitching it (the Fig 5a metric).
    pub rebuild_time: Duration,
    /// The one claiming walk over the chain — history header validation
    /// and the published-prefix scan of every key — plus the watermark.
    pub scan_time: Duration,
    /// Pruning the flagged histories (see `pruned_histories`).
    pub prune_time: Duration,
    /// Chained histories by published length as the scan found it, in log2
    /// buckets: `[0]` the empty ones, `[k]` lengths in `[2^(k−1), 2^k)`, the
    /// last bucket everything longer.
    pub history_lengths: [u64; 32],
    /// Everything the open dropped because it failed to verify; empty when
    /// every record did.
    pub quarantine: QuarantineReport,
}

/// `(key, chain position, history)`: a key-chain pair as the restart sorts
/// it. Of two pairs with one key the position puts the earliest first. Both
/// fit 32 bits: a history offset is below [`MAX_POOL_LEN`], and a pool that
/// size holds fewer than 2^28 pairs of 16 bytes.
type ChainPair = (u64, u32, u32);

/// What one worker of the restart walk keeps from the blocks it claimed.
struct Claimed {
    /// Every reachable history: in chain order while the walk runs, sorted
    /// for the index build.
    pairs: Vec<ChainPair>,
    /// The versions of every published prefix.
    versions: VersionBits,
    /// `(history, largest version)` with `u64::MAX` for a history the scan
    /// did not find settled: the prune has work exactly where the second
    /// word exceeds the watermark.
    prune_above: Vec<(u32, u64)>,
    /// [`RestartStats::history_lengths`] of this worker's histories.
    lengths: [u64; 32],
    quarantined: Vec<KeyQuarantine>,
}

impl Claimed {
    /// Room for the `pairs` the claimed blocks can hold.
    fn new(pairs: usize, versions: VersionBits) -> Self {
        Claimed {
            pairs: Vec::with_capacity(pairs),
            versions,
            prune_above: Vec::with_capacity(pairs),
            lengths: [0; 32],
            quarantined: Vec::new(),
        }
    }
}

/// The keys that cut the sorted `runs` into `runs.len()` key ranges of
/// about equal size (fewer when there is nothing to cut): range `i` holds
/// the keys from cut `i - 1` up to, not including, cut `i`, so equal keys
/// always share a range.
fn splitters(runs: &[&[ChainPair]]) -> Vec<u64> {
    let parts = runs.len();
    let mut samples: Vec<u64> = runs
        .iter()
        .flat_map(|run| (1..parts).filter_map(move |j| run.get(j * run.len() / parts)))
        .map(|&(key, ..)| key)
        .collect();
    samples.sort_unstable();
    (1..parts).filter_map(|j| samples.get(j * samples.len() / parts).copied()).collect()
}

/// The part of a sorted run with keys in `[from, to)`; `None` is no bound.
fn key_range(run: &[ChainPair], from: Option<u64>, to: Option<u64>) -> &[ChainPair] {
    let at = |cut| run.partition_point(|&(key, ..)| key < cut);
    &run[from.map_or(0, at)..to.map_or(run.len(), at)]
}

/// Sorted runs merged into one sorted stream of `(key, history)`. Picking
/// the smallest head is linear in the number of runs: a handful of
/// compares per key, next to the node allocation that follows.
struct Merged<'a>(Vec<&'a [ChainPair]>);

impl Iterator for Merged<'_> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        let run = self.0.iter_mut().filter(|run| !run.is_empty()).min_by_key(|run| run[0])?;
        let (&(key, _, hist), rest) = run.split_first()?;
        *run = rest;
        Some((key, hist))
    }
}

/// Persistent root object: offsets of the store's top-level structures.
/// Field order is on-media layout (all u64 words):
/// `[keychain, tagchain, 0, 0, watermark_base, reserved]` — words 16 and 24
/// are written zero and never read.
const ROOT_SIZE: usize = 48;
const ROOT_KEYCHAIN: u64 = 0;
const ROOT_TAGCHAIN: u64 = 8;
/// Versions ≤ this are complete a priori (0 normally; the horizon for a
/// compacted store, whose collapsed entries keep gappy old versions).
const ROOT_WMBASE: u64 = 32;

/// The largest pool a store uses: a history is named by its 32-bit offset,
/// in the index and in its key-chain pair.
const MAX_POOL_LEN: u64 = 1 << 32;

/// Outcome of a [`PSkipList::compact_into`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Effective horizon (clamped to the watermark).
    pub horizon: u64,
    /// Keys carried into the compacted store.
    pub keys_kept: u64,
    /// Dead keys garbage-collected (absent at the horizon, never touched
    /// after it).
    pub keys_dropped: u64,
    /// Visible history entries before compaction.
    pub entries_before: u64,
    /// History entries written to the compacted store.
    pub entries_after: u64,
}

/// The persistent multi-version ordered key-value store: the store
/// [`Engine`] over histories that live in a pool.
///
/// # Examples
///
/// ```
/// use mvkv_core::{PSkipList, StoreSession, VersionedStore};
///
/// let store = PSkipList::create_volatile(16 << 20)?; // file pools for real use
/// let s = store.session();
/// let v1 = s.insert(7, 700);
/// s.remove(7);
/// assert_eq!(s.find(7, v1), Some(700)); // past snapshots stay addressable
/// assert_eq!(s.find(7, store.tag()), None);
/// assert_eq!(s.extract_history(7).len(), 2);
/// # Ok::<(), std::io::Error>(())
/// ```
pub type PSkipList = Engine<u64, PmHome>;

/// The PM home: a key's payload is the pool offset of its [`PHistory`], 32
/// bits wide like the offset in the key's chain pair; new keys are linked
/// into the key chain before any of their operations completes.
pub struct PmHome {
    pool: Arc<PmemPool>,
    chain: PPtr<ChainHdr>,
    /// Labeled tags: `(label, version + 1)` pairs (paper Table 1's
    /// `tag(version)` argument).
    tagchain: PPtr<ChainHdr>,
}

impl PmHome {
    fn new(pool: PmemPool, chain: PPtr<ChainHdr>, tagchain: PPtr<ChainHdr>) -> Self {
        PmHome { pool: Arc::new(pool), chain, tagchain }
    }
}

impl Home<u64> for PmHome {
    type Slots<'a> = PHistory<'a>;
    type Payload = u32;
    const NAME: &'static str = "PSkipList";

    #[inline]
    fn create(&self) -> u32 {
        let off = PHistory::create(&self.pool).expect("pmem pool exhausted").pptr().off();
        // Lossless: the pool is at most `MAX_POOL_LEN` bytes (`create` and
        // `try_attach` refuse a longer one).
        off as u32
    }

    #[inline]
    fn history(&self, off: u32) -> History<PHistory<'_>> {
        History::new(PHistory::open(&self.pool, PPtr::from_off(off.into())))
    }

    #[inline]
    fn prefetch(&self, off: u32) {
        crate::engine::prefetch_line(self.pool.base_ptr(off.into()));
    }

    #[inline]
    fn discard(&self, off: u32) {
        self.pool.dealloc(off.into());
    }

    #[inline]
    fn key_linked(&self, key: u64, off: u32) {
        KeyChain::open(&self.pool, self.chain)
            .append(key, off.into())
            .expect("pmem pool exhausted");
    }

    #[inline]
    fn batch_fence(&self) {
        self.pool.fence();
    }

    fn close(&mut self, _: impl Iterator<Item = u32>) {
        self.pool.sync_all();
    }
}

impl PSkipList {
    // -- construction --------------------------------------------------------

    /// Creates a fresh store in `pool` (any backend) of at most 4 GiB; a
    /// longer pool is an `InvalidInput` error.
    pub fn create(pool: PmemPool) -> std::io::Result<Self> {
        if pool.len() as u64 > MAX_POOL_LEN {
            let too_large = RecoveryError::PoolTooLarge { len: pool.len() as u64 };
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, too_large));
        }
        let chain = KeyChain::create(&pool, DEFAULT_BLOCK_CAP)?.pptr();
        let tagchain = KeyChain::create(&pool, 64)?.pptr();
        let root = pool.alloc(ROOT_SIZE)?;
        pool.write_u64(root + ROOT_KEYCHAIN, chain.off());
        pool.write_u64(root + ROOT_TAGCHAIN, tagchain.off());
        // The two unused words, then the watermark base.
        for word in [16, 24, ROOT_WMBASE] {
            pool.write_u64(root + word, 0);
        }
        pool.persist(root, ROOT_SIZE);
        pool.fence();
        pool.set_root(root);
        let home = PmHome::new(pool, chain, tagchain);
        Ok(Engine::assemble(SkipList::new(), VersionClock::new(), home))
    }

    /// Creates a fresh store in a pool file of `size` bytes. Place the file
    /// under `/dev/shm` to reproduce the paper's PM emulation.
    pub fn create_file<P: AsRef<Path>>(path: P, size: usize) -> std::io::Result<Self> {
        Self::create(PmemPool::create_file(path, size)?)
    }

    /// Creates a fresh store on heap memory (tests; no durability).
    pub fn create_volatile(size: usize) -> std::io::Result<Self> {
        Self::create(PmemPool::create_volatile(size)?)
    }

    /// Creates a fresh store on a crash-simulation pool; pair with
    /// [`PSkipList::crash_image`] and [`PSkipList::open_image`].
    pub fn create_crash_sim(size: usize, crash: CrashOptions) -> std::io::Result<Self> {
        Self::create(PmemPool::create_crash_sim(size, crash)?)
    }

    /// Reopens a persisted store: validates the pool, repairs the chain,
    /// reconstructs the index with `threads` workers, recovers the
    /// watermark and prunes torn suffixes. Localized media damage is
    /// quarantined and itemized in the returned stats' `quarantine` (see
    /// [`crate::recovery`]); only damage to the load-bearing structures
    /// (superblock, root, chain headers) is an error.
    pub fn open_file<P: AsRef<Path>>(
        path: P,
        threads: usize,
    ) -> Result<(Self, RestartStats), RecoveryError> {
        let opened = Instant::now();
        Self::try_attach(PmemPool::open_file(path)?, threads, opened)
    }

    /// Reopens from a crash image (or any serialized pool bytes), as
    /// [`PSkipList::open_file`] does. An image shorter than its recorded
    /// length is refused (`LengthMismatch`);
    /// [`mvkv_pmem::corrupt::pad_to_recorded_len`] makes it attachable.
    pub fn open_image(bytes: &[u8], threads: usize) -> Result<(Self, RestartStats), RecoveryError> {
        let opened = Instant::now();
        Self::try_attach(PmemPool::open_image(bytes)?, threads, opened)
    }

    /// Attaches the store to `pool`, whose opening started at `opened`.
    fn try_attach(
        pool: PmemPool,
        threads: usize,
        opened: Instant,
    ) -> Result<(Self, RestartStats), RecoveryError> {
        let mut stats = RestartStats { open_time: opened.elapsed(), ..RestartStats::default() };
        if pool.len() as u64 > MAX_POOL_LEN {
            return Err(RecoveryError::PoolTooLarge { len: pool.len() as u64 });
        }
        let repair = Instant::now();
        let root = pool.root();
        if root == 0 {
            return Err(RecoveryError::NoRoot);
        }
        if !root.is_multiple_of(8)
            || root.checked_add(ROOT_SIZE as u64).is_none_or(|end| end > pool.len() as u64)
        {
            return Err(RecoveryError::CorruptRoot);
        }
        let chain_ptr: PPtr<ChainHdr> = PPtr::from_off(pool.read_u64(root + ROOT_KEYCHAIN));
        let tagchain_ptr: PPtr<ChainHdr> = PPtr::from_off(pool.read_u64(root + ROOT_TAGCHAIN));
        let wm_base = pool.read_u64(root + ROOT_WMBASE);
        if chain_ptr.is_null() {
            return Err(RecoveryError::NoKeyChain);
        }
        let mut index = SkipList::new();
        let panicked = |phase| move |_| RecoveryError::WorkerPanicked { phase };
        {
            // Chain capacity words are self-checksummed; a failure here is
            // unrecoverable (every bounds computation depends on them).
            let chain = KeyChain::open_checked(&pool, chain_ptr)
                .ok_or(RecoveryError::CorruptChainHeader { chain: "keys" })?;
            let tags = KeyChain::open_checked(&pool, tagchain_ptr)
                .ok_or(RecoveryError::CorruptChainHeader { chain: "tags" })?;
            let absorb = |report: &mut QuarantineReport, r: RepairStats| {
                report.chain_quarantined_blocks += r.quarantined_blocks;
                report.chain_quarantined_pairs += r.quarantined_pairs;
                report.chain_truncated_links += r.truncated_links;
            };
            absorb(&mut stats.quarantine, chain.repair());
            absorb(&mut stats.quarantine, tags.repair());
            stats.repair_time = repair.elapsed();

            // The one walk over the chain (paper Fig 5a's claiming walk):
            // each worker visits the histories of its blocks once. A pair
            // whose history offset cannot hold the history block in-bounds is
            // quarantined — a bit-flipped offset must not poison the index
            // with a pointer every later read would chase out of bounds.
            // The checked scan classifies why each prefix ended; corruption
            // classes feed the quarantine report.
            let t0 = Instant::now();
            let visit = |acc: &mut Claimed, seq, key, hist| {
                let Some(h) = PHistory::open_checked(&pool, PPtr::from_off(hist)) else {
                    let class = CorruptionClass::UnreachableHistory;
                    acc.quarantined.push(KeyQuarantine { key, class, dropped_records: 0 });
                    return;
                };
                let scan = scan_published_prefix(&h, &mut acc.versions);
                let class = match scan.stop {
                    ScanStop::Exhausted | ScanStop::Unpublished => None,
                    ScanStop::ChecksumInvalid => Some(CorruptionClass::ChecksumInvalid),
                    ScanStop::TornStamp => Some(CorruptionClass::TornStamp),
                    ScanStop::Unlinked => Some(CorruptionClass::UnlinkedSegment),
                };
                if let Some(class) = class {
                    let dropped_records = h.pending().saturating_sub(scan.len);
                    acc.quarantined.push(KeyQuarantine { key, class, dropped_records });
                }
                // Lossless (see `ChainPair`): the pool passed the size check.
                let (seq, hist) = (seq as u32, hist as u32);
                acc.pairs.push((key, seq, hist));
                acc.lengths[(u64::BITS - scan.len.leading_zeros()).min(31) as usize] += 1;
                acc.prune_above.push((hist, if scan.settled { scan.last } else { u64::MAX }));
            };
            let init = |pairs| Claimed::new(pairs, VersionBits::new(wm_base, pool.len()));
            let (walked, mut claimed) =
                try_fold_claimed(&chain, threads, init, visit).map_err(panicked("scan"))?;
            stats.rebuild_threads = walked.threads;
            for (bucket, total) in stats.history_lengths.iter_mut().enumerate() {
                *total = claimed.iter().map(|c| c.lengths[bucket]).sum();
            }
            stats.watermark = VersionBits::watermark(wm_base, claimed.iter().map(|c| &c.versions));
            stats.scan_time = t0.elapsed();

            // The index: every worker sorts its own run, then builds the
            // skip-list fragment of one key range out of all the runs; the
            // fragments are stitched in order. Nothing is inserted, and
            // nobody else sees the list before this function returns it.
            let t1 = Instant::now();
            try_workers(claimed.iter_mut().map(|c| || c.pairs.sort_unstable()))
                .map_err(panicked("rebuild"))?;
            let runs: Vec<&[ChainPair]> = claimed.iter().map(|c| &c.pairs[..]).collect();
            let cuts = splitters(&runs);
            let (runs, cuts, list) = (&runs, &cuts, &index);
            let fragments: Vec<Fragment<u64, u32>> = try_workers((0..=cuts.len()).map(|part| {
                let (from, to) = (part.checked_sub(1).map(|p| cuts[p]), cuts.get(part).copied());
                move || {
                    list.fragment(Merged(runs.iter().map(|run| key_range(run, from, to)).collect()))
                }
            }))
            .map_err(panicked("rebuild"))?;
            stats.quarantine.chain_duplicate_keys = fragments.iter().map(Fragment::dropped).sum();
            index.adopt(fragments);
            stats.rebuilt_keys = index.len();
            stats.rebuild_time = t1.elapsed();

            // Prune beyond the watermark (§IV-B), which also drops
            // checksum-invalid slots below it — but only where the scan
            // left something to do. For a settled history ending at or
            // below the watermark the prune keeps every slot and finds the
            // counters already right: it is not visited.
            let t2 = Instant::now();
            let watermark = stats.watermark;
            let flagged: Vec<u32> = claimed
                .iter()
                .flat_map(|c| &c.prune_above)
                .filter(|&&(_, above)| above > watermark)
                .map(|&(hist, _)| hist)
                .collect();
            let pool = &pool;
            let share = flagged.len().div_ceil(walked.threads).max(1);
            let prune = |&hist: &u32| {
                let hist = PHistory::open(pool, PPtr::from_off(hist.into()));
                prune_to_watermark(&hist, watermark).pruned
            };
            let jobs = flagged.chunks(share).map(|part| move || part.iter().map(prune).sum());
            let pruned: Vec<u64> = try_workers(jobs).map_err(panicked("prune"))?;
            stats.pruned_histories = flagged.len() as u64;
            stats.pruned_entries = pruned.iter().sum();
            stats.prune_time = t2.elapsed();

            stats.quarantine.keys = claimed.into_iter().flat_map(|c| c.quarantined).collect();
            stats.quarantine.indeterminate_alloc_blocks = pool.indeterminate_blocks_at_open();
        }
        let home = PmHome::new(pool, chain_ptr, tagchain_ptr);
        let store = Engine::assemble(index, VersionClock::resume(stats.watermark), home);
        Ok((store, stats))
    }

    /// On-demand read-only integrity scrub: walks every indexed key's
    /// claimed slots and verifies the CRC of each published record.
    /// Mutates nothing.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (&_key, hist) in self.index.iter() {
            report.keys += 1;
            let h = PHistory::open(&self.home.pool, PPtr::from_off(hist.into()));
            // At least slot 0, which every history has: a block wiped on the
            // media reads `pending == 0` and fails its check word.
            let claimed = h.pending().max(1);
            let mut cur = Cursor::new();
            let backed = h.fill_checked(&mut cur, claimed);
            // A claimed slot without valid backing: an unlinked or damaged
            // segment.
            let mut key_corrupt = backed < claimed;
            for idx in 0..backed {
                let e = cur.entry(idx);
                if e.crc_done.load(mvkv_sync::sync::atomic::Ordering::Acquire) == 0 {
                    continue; // unpublished claim: nothing to verify
                }
                if e.crc_valid() {
                    report.valid_records += 1;
                } else {
                    report.corrupt_records += 1;
                    key_corrupt = true;
                }
            }
            if key_corrupt {
                report.corrupt_keys += 1;
            }
        }
        report
    }

    // -- accessors ------------------------------------------------------------

    /// The underlying pool (for audits and tests).
    pub fn pool(&self) -> &PmemPool {
        &self.home.pool
    }

    /// How full the key chain is: `(pairs, blocks, capacity)` — the pairs
    /// appended (exact when no writer runs), the blocks linked, and the pairs
    /// those blocks hold when full.
    pub fn key_chain_fill(&self) -> (u64, u64, u64) {
        let chain = KeyChain::open(&self.home.pool, self.home.chain);
        let blocks = chain.blocks().count() as u64;
        (chain.len(), blocks, blocks * chain.block_cap())
    }

    // -- compaction -----------------------------------------------------------

    /// Compacts the store into `pool` (a fresh pool of any backend): for
    /// every key, history entries with versions ≤ `horizon` collapse into at
    /// most one entry (the key's state at the horizon; dead keys are
    /// garbage-collected entirely), while all newer entries are preserved
    /// verbatim.
    ///
    /// Snapshots at versions ≥ `horizon` stay byte-for-byte addressable in
    /// the compacted store; queries below the horizon answer as of the
    /// horizon. This addresses the growth limitation the paper notes in
    /// §IV-B ("we can imagine garbage collection and/or aging mechanisms").
    /// Surviving values are copied verbatim.
    pub fn compact_into(
        &self,
        pool: PmemPool,
        horizon: u64,
    ) -> std::io::Result<(PSkipList, CompactStats)> {
        let fc = self.tag();
        let horizon = horizon.min(fc);
        let mut new = Self::create(pool)?;
        let new_pool = &new.home.pool;
        {
            let root = new_pool.root();
            new_pool.write_u64(root + ROOT_WMBASE, horizon);
            new_pool.persist(root + ROOT_WMBASE, 8);
            new_pool.fence();
        }

        let mut stats = CompactStats { horizon, ..Default::default() };
        let new_chain = KeyChain::open(new_pool, new.home.chain);
        for (&key, hist) in self.index.iter() {
            let h = self.home.history(hist);
            let mut cur = Cursor::new();
            let visible = h.extend_tail_in(&mut cur, fc);
            stats.entries_before += visible;
            let mut collapsed: Option<(u64, u64)> = None;
            let mut kept: Vec<(u64, u64)> = Vec::new();
            for i in 0..visible {
                let e = cur.entry(i);
                let v = e.version.load(mvkv_sync::sync::atomic::Ordering::Relaxed);
                let value = e.value.load(mvkv_sync::sync::atomic::Ordering::Relaxed);
                if v <= horizon {
                    collapsed = Some((v, value));
                } else {
                    kept.push((v, value));
                }
            }
            // A collapsed tombstone means "absent at the horizon": the same
            // semantics as no entry, so it is dropped — and a key with no
            // remaining entries is garbage-collected outright. Collapsed
            // values are written with version 0 so they are visible at
            // *every* query version: all pre-horizon snapshots answer as of
            // the horizon (version 0 never collides — real versions start
            // at 1, and recovery ignores versions at or below the base).
            if let Some((_, value)) = collapsed {
                if value != TOMBSTONE {
                    kept.insert(0, (0, value));
                }
            }
            if kept.is_empty() {
                stats.keys_dropped += 1;
                continue;
            }
            stats.keys_kept += 1;
            stats.entries_after += kept.len() as u64;
            // Lossless: the new pool passed `create`'s size check.
            let off = PHistory::create(new_pool)?.pptr().off() as u32;
            let outcome = new.index.insert_with(key, || off);
            debug_assert!(outcome.inserted(), "source index keys are unique");
            new_chain.append(key, off.into())?;
            let nh = new.home.history(off);
            for (v, value) in kept {
                nh.append(v, value);
            }
        }

        // Tags survive compaction (tags below the horizon now resolve to
        // horizon-collapsed state).
        {
            let src_tags = KeyChain::open(&self.home.pool, self.home.tagchain);
            let dst_tags = KeyChain::open(new_pool, new.home.tagchain);
            for (label, biased) in src_tags.iter() {
                dst_tags.append(label, biased)?;
            }
        }

        new.clock = VersionClock::resume(fc);
        new_pool.sync_all();
        Ok((new, stats))
    }

    /// On a crash-sim store, the bytes that survive a power failure now.
    pub fn crash_image(&self) -> Option<Vec<u8>> {
        self.home.pool.crash_image()
    }

    /// The engine's label list, extended with the tag-chain pairs it does
    /// not hold yet: a tag goes to the chain alone, and its first reader
    /// brings the list up to date. The chain is append-only, so the list
    /// stays a prefix of it in chain order, across restarts too; with nothing
    /// new a lookup costs one chain-length read, and a tag no list lock and
    /// no chain walk.
    fn labels_from_chain(&self) -> &Labels {
        let chain = KeyChain::open(&self.home.pool, self.home.tagchain);
        self.tags.extend_to(chain.len(), |held| {
            chain.iter().skip(held).map(|(label, biased)| (label, biased - 1))
        });
        &self.tags
    }
}

impl crate::api::LabeledTags for PSkipList {
    fn tag_labeled(&self, label: u64) -> u64 {
        mvkv_obs::span!("mvkv_core_tag_ns");
        let version = self.clock.watermark();
        // Chain pair payloads must be non-zero, so versions are stored
        // biased by one (version 0 = "empty store" is a valid tag target).
        KeyChain::open(&self.home.pool, self.home.tagchain)
            .append(label, version + 1)
            .expect("pmem pool exhausted");
        version
    }

    fn resolve_label(&self, label: u64) -> Option<u64> {
        self.labels_from_chain().resolve(label)
    }

    fn labels(&self) -> Vec<(u64, u64)> {
        self.labels_from_chain().copy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pair, StoreSession};

    const POOL: usize = 1 << 24;

    #[test]
    fn insert_batch_costs_one_fence_per_chunk() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        // Warm up: create every key and run its history past the inline
        // slots — the third round's slot 2 allocates segment 1 — so the
        // measured batch triggers no allocations (which fence on their own).
        let pairs: Vec<Pair> = (1..=16u64).map(|k| (k, k)).collect();
        for _ in 0..4 {
            s.insert_batch(&pairs);
        }
        let before = store.pool().fence_count().unwrap();
        s.insert_batch(&pairs);
        let after = store.pool().fence_count().unwrap();
        assert_eq!(after - before, 1, "16-pair batch must publish with a single fence");
    }

    #[test]
    fn fresh_key_insert_costs_one_fence() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        let fences = || store.pool().fence_count().unwrap();
        // Warm up: the first key allocates the first chain block, amortized
        // and fencing on its own. Its history block comes from the run the
        // store's root (a block of the same class) was carved from, whose
        // eight blocks serve the six fresh keys below too.
        s.insert(1, 10);
        let refills = store.pool().alloc_stats().shard_refills;
        // A fresh key is one block (history and first entries), one chain
        // pair in a block that has room and one entry: nothing is ordered
        // before the publish fence, and nothing after it needs one.
        for key in 2..=4u64 {
            let before = fences();
            s.insert(key, key * 10);
            assert_eq!(fences() - before, 1, "fresh key {key}");
        }
        // ...and the next version of a key stays in that block.
        let before = fences();
        s.insert(2, 21);
        s.remove(3);
        assert_eq!(fences() - before, 2, "inline appends");
        // A chunk of fresh keys shares the one fence too.
        let fresh: Vec<Pair> = (5..=7u64).map(|k| (k, k * 10)).collect();
        let before = fences();
        s.insert_batch(&fresh);
        assert_eq!(fences() - before, 1, "three fresh keys, one chunk");
        assert_eq!(store.pool().alloc_stats().shard_refills, refills, "served from the list");
        store.wait_writes_complete();
        assert_eq!(s.extract_snapshot(store.tag()).len(), 6);
    }

    #[test]
    fn restart_from_file_preserves_everything() {
        let path = std::env::temp_dir().join(format!("pskip-restart-{}.pool", std::process::id()));
        let tag;
        {
            let store = PSkipList::create_file(&path, POOL).unwrap();
            let s = store.session();
            for i in 1..=500u64 {
                s.insert(i, i * 2);
            }
            for i in 1..=100u64 {
                s.remove(i * 5);
            }
            store.wait_writes_complete();
            tag = store.tag();
        }
        {
            let (store, stats) = PSkipList::open_file(&path, 4).unwrap();
            assert_eq!(stats.rebuild_threads, 4);
            assert_eq!(stats.rebuilt_keys, 500);
            assert_eq!(stats.watermark, tag);
            assert_eq!(stats.pruned_entries, 0, "clean shutdown prunes nothing");
            let s = store.session();
            assert_eq!(store.key_count(), 500);
            assert_eq!(s.find(7, tag), Some(14));
            assert_eq!(s.find(5, tag), None, "5 was removed");
            assert_eq!(s.find(5, 500), Some(10), "pre-removal snapshot still visible");
            let snap = s.extract_snapshot(tag);
            assert_eq!(snap.len(), 400);
            // Writes continue seamlessly.
            let v = s.insert(10_000, 1);
            assert_eq!(v, tag + 1);
        }
        {
            // Zero workers is clamped: the rebuild ran on one, and says so.
            let (store, stats) = PSkipList::open_file(&path, 0).unwrap();
            assert_eq!(stats.rebuild_threads, 1);
            assert_eq!(store.key_count(), 501);
        }
        {
            // The five phases are disjoint parts of the reopen.
            let wall = Instant::now();
            let (_store, stats) = PSkipList::open_file(&path, 2).unwrap();
            let wall = wall.elapsed();
            let phases = [
                stats.open_time,
                stats.repair_time,
                stats.scan_time,
                stats.rebuild_time,
                stats.prune_time,
            ];
            assert!(stats.open_time > Duration::ZERO, "{stats:?}");
            assert!(phases.iter().sum::<Duration>() <= wall, "{phases:?} in {wall:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_recovery_keeps_contiguous_prefix_only() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        for i in 1..=50u64 {
            s.insert(i, i);
        }
        store.wait_writes_complete();
        let image = store.crash_image().unwrap();
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert_eq!(stats.watermark, 50);
        assert_eq!(stats.rebuilt_keys, 50);
        let rs = recovered.session();
        for i in 1..=50u64 {
            assert_eq!(rs.find(i, 50), Some(i));
        }
    }

    #[test]
    fn crash_mid_stream_recovers_consistent_snapshot() {
        // Writers complete versions 1..=N fully; then a torn write: a
        // version is issued and its history entry written but its done
        // stamp never persisted.
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        for i in 1..=20u64 {
            s.insert(i, i);
        }
        store.wait_writes_complete();
        // Torn op on key 21: manually create the key but skip publication.
        let hist_off = store.get_or_create_history(21);
        let h = PHistory::open(store.pool(), PPtr::from_off(hist_off.into()));
        let (_, e) = h.claim();
        h.persist_pending();
        e.version.store(21, std::sync::atomic::Ordering::Relaxed);
        e.value.store(2100, std::sync::atomic::Ordering::Relaxed);
        h.persist_entry(&e);
        // No stamp was ever stored → must not survive.

        let image = store.crash_image().unwrap();
        let (recovered, stats) = PSkipList::open_image(&image, 4).unwrap();
        assert_eq!(stats.watermark, 20);
        assert_eq!(stats.rebuilt_keys, 21, "key 21 was durably chained");
        let rs = recovered.session();
        assert_eq!(rs.find(21, 100), None, "torn op must be invisible");
        assert_eq!(rs.extract_snapshot(20).len(), 20);
        // The store keeps working after recovery.
        let v = rs.insert(21, 2101);
        assert_eq!(v, 21, "version numbering resumes at the watermark");
        assert_eq!(rs.find(21, v), Some(2101));
    }

    #[test]
    fn scrub_sees_a_wiped_history_block() {
        let store = PSkipList::create_volatile(POOL).unwrap();
        let s = store.session();
        for key in 1..=10u64 {
            s.insert(key, key);
        }
        store.wait_writes_complete();
        assert!(store.scrub().is_clean());
        // Zeroed, the block reads as a key nobody wrote — but for its check
        // word, which the scrub asks for even where nothing is claimed.
        let hist = u64::from(store.get_or_create_history(4));
        for word in 0..std::mem::size_of::<mvkv_vhistory::pslots::HistoryHdr>() as u64 / 8 {
            store.pool().write_u64(hist + word * 8, 0);
        }
        let report = store.scrub();
        assert_eq!((report.keys, report.corrupt_keys, report.corrupt_records), (10, 1, 0));
    }

    #[test]
    fn scrub_counts_a_stamp_that_is_not_its_payloads() {
        use mvkv_vhistory::Entry;
        let store = PSkipList::create_volatile(POOL).unwrap();
        let s = store.session();
        for key in 1..=4u64 {
            s.insert(key, key * 10);
        }
        store.wait_writes_complete();
        let good = Entry::stamp(3, 30);
        let forgeries =
            [Entry::DONE | ((good ^ 1) & 0xFFFF_FFFF), good & !Entry::DONE, good | 1 << 40];
        for forged in forgeries {
            let hist = store.get_or_create_history(3).into();
            let h = PHistory::open(store.pool(), PPtr::from_off(hist));
            let mut cur = Cursor::new();
            h.fill(&mut cur, 1);
            cur.entry(0).crc_done.store(forged, std::sync::atomic::Ordering::Release);
            let report = store.scrub();
            let counted = (report.valid_records, report.corrupt_records, report.corrupt_keys);
            assert_eq!(counted, (3, 1, 1), "stamp {forged:#x}");
            assert_eq!(s.find(3, 4), None, "stamp {forged:#x}: never read as a version");
        }
    }

    /// The key ranges the build workers take, merged and laid end to end,
    /// are all the pairs in `(key, chain position)` order — however the
    /// keys are spread over the runs, with equal keys inside one range.
    #[test]
    fn key_ranges_of_the_runs_merge_into_one_sorted_stream() {
        let spread = |pair: &ChainPair| pair.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 3;
        let by_worker = |pair: &ChainPair| u64::from(pair.1 % 3);
        let all_in_one = |_: &ChainPair| 0;
        let pairs: Vec<ChainPair> =
            (0..600u32).map(|seq| ((seq * 7 % 150).into(), seq, 1000 + seq)).collect(); // 4 a key
        for place in [spread, by_worker, all_in_one] {
            let mut runs = vec![Vec::new(); 3];
            pairs.iter().for_each(|pair| runs[place(pair) as usize].push(*pair));
            runs.iter_mut().for_each(|run| run.sort_unstable());
            let runs: Vec<&[ChainPair]> = runs.iter().map(|run| &run[..]).collect();
            let cuts = splitters(&runs);
            assert!(cuts.len() <= 2 && cuts.is_sorted());
            let mut stream = Vec::new();
            for part in 0..=cuts.len() {
                let (from, to) = (part.checked_sub(1).map(|p| cuts[p]), cuts.get(part).copied());
                stream.extend(Merged(runs.iter().map(|run| key_range(run, from, to)).collect()));
            }
            let mut sorted = pairs.clone();
            sorted.sort_unstable();
            assert!(stream.into_iter().eq(sorted.into_iter().map(|(key, _, hist)| (key, hist))));
        }
        assert_eq!(splitters(&[&[], &[]]), [0u64; 0], "nothing to cut");
    }

    /// `(pending, tail)` of every indexed history.
    fn counters(store: &PSkipList) -> Vec<(u64, u64)> {
        let header = |(_, hist): (_, u32)| {
            PHistory::open(store.pool(), PPtr::from_off(hist.into())).raw_header()
        };
        store.index.iter().map(header).map(|(pending, tail, _)| (pending, tail)).collect()
    }

    #[test]
    fn store_closed_unread_reopens_without_touching_a_history() {
        let path = std::env::temp_dir().join(format!("pskip-unread-{}.pool", std::process::id()));
        {
            let store = PSkipList::create_file(&path, POOL).unwrap();
            let s = store.session();
            for round in 0..3u64 {
                for key in 1..=300u64 {
                    s.insert(key, key + round);
                }
            }
            store.wait_writes_complete();
            assert!(counters(&store).iter().all(|&(pending, tail)| (pending, tail) == (3, 0)));
        } // closed without a single read: every lazy tail lags
        let (store, stats) = PSkipList::open_file(&path, 3).unwrap();
        assert_eq!((stats.rebuilt_keys, stats.watermark), (300, 900));
        // A lagging tail is no damage: nothing is visited, nothing written,
        // and the first read of a key moves its tail as it would have before.
        assert_eq!((stats.pruned_histories, stats.pruned_entries), (0, 0));
        assert!(counters(&store).iter().all(|&(pending, tail)| (pending, tail) == (3, 0)));
        assert_eq!(store.session().find(7, 900), Some(9));
        assert_eq!(counters(&store).iter().filter(|&&counters| counters == (3, 3)).count(), 1);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fully_read_clean_store_reopens_without_touching_a_history() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        for i in 0..2000u64 {
            s.insert(i % 700, i);
        }
        // One deep key: its segments of levels 2 … 6 carry back links.
        for i in 0..300u64 {
            s.insert(1, i);
        }
        for key in (0..700u64).step_by(3) {
            s.remove(key);
        }
        store.wait_writes_complete();
        let tag = store.tag();
        assert_eq!(s.extract_snapshot(tag).len(), 700 - 234); // moves every lazy tail
        store.pool().sync_all();
        let image = store.crash_image().unwrap();
        for threads in [1, 4] {
            let (reopened, stats) = PSkipList::open_image(&image, threads).unwrap();
            assert_eq!((stats.rebuilt_keys, stats.watermark), (700, tag));
            assert_eq!((stats.pruned_histories, stats.pruned_entries), (0, 0));
            // No history was repaired, so none was written: the heap is the
            // image's, byte for byte — but for the claim counters of full
            // chain blocks, which the chain repair clamps back to capacity
            // (an append that found its block full had bumped them past it).
            let pool = reopened.pool();
            let chain = KeyChain::open(pool, reopened.home.chain);
            let clamped: Vec<u64> = chain.blocks().map(|(block, _)| block + 8).collect();
            let heap = mvkv_pmem::layout::HEAP_START;
            let written: Vec<u64> = (heap..image.len() as u64)
                .step_by(8)
                .filter(|&off| pool.read_u64(off).to_le_bytes() != image[off as usize..][..8])
                .filter(|off| !clamped.contains(off))
                .collect();
            assert_eq!(written, [0u64; 0], "a clean reopen at {threads} thread(s) wrote");
        }
    }

    /// `key`'s newest-segment word (the segment a claim starts from) and
    /// its pool offset in segment 1.
    fn newest_word(store: &PSkipList, key: u64) -> (u64, u64) {
        let hist = PPtr::from_off(store.get_or_create_history(key).into());
        let hist = PHistory::open(store.pool(), hist);
        (hist.raw_newest(), hist.raw_header().2 + mvkv_vhistory::pslots::SEG_NEWEST)
    }

    /// Every `(key, version, value)` reads back at its version.
    fn all_readable(store: &PSkipList, written: &[(u64, u64, u64)]) {
        let s = store.session();
        for &(key, version, value) in written {
            assert_eq!(s.find(key, version), Some(value), "key {key} at version {version}");
        }
    }

    /// A restart does not trust segment 1's newest-segment word: flipped to
    /// another key's segment of the same level — a valid header, off the
    /// chain — it opens with nothing quarantined, every version readable and
    /// the word at 0, and the next deep append sets it again, without
    /// writing into the other key's segment.
    #[test]
    fn a_newest_word_off_the_chain_is_zeroed_at_open() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        let mut written = Vec::new();
        for value in 0..300u64 {
            for key in [1, 2] {
                written.push((key, s.insert(key, value), value));
            }
        }
        let (own, word) = newest_word(&store, 1);
        let (other, _) = newest_word(&store, 2);
        assert!(own != 0 && other != 0 && own != other);
        store.pool().atomic_u32(word).store(other as u32, std::sync::atomic::Ordering::Release);
        store.pool().sync_all();

        let (reopened, stats) = PSkipList::open_image(&store.crash_image().unwrap(), 2).unwrap();
        assert!(stats.quarantine.is_empty(), "{:?}", stats.quarantine);
        all_readable(&reopened, &written);
        assert_eq!((newest_word(&reopened, 1).0, newest_word(&reopened, 2).0), (0, other));
        written.push((1, reopened.session().insert(1, 300), 300));
        assert_eq!(newest_word(&reopened, 1).0, own, "the next deep append sets it again");
        all_readable(&reopened, &written);
    }

    /// The word is flushed and never fenced, so a power cut can leave it on
    /// the media ahead of the link it follows. A claim outside an append
    /// finds key 1's segment 3 missing and links one behind a fence of its
    /// own (`PHistory::extend`); the image is the one at that fence, with
    /// the word's line evicted to the media after the link's CAS: the word
    /// names a headered, allocated segment 3 that no link reaches. The
    /// restart zeroes it, and the next append links a new one.
    #[test]
    fn a_newest_word_on_the_media_ahead_of_its_link_is_zeroed_at_open() {
        use mvkv_vhistory::slots::{seg_base, seg_capacity, SEG_HDR_SIZE};
        use mvkv_vhistory::ENTRY_SIZE;
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        let written: Vec<_> =
            (0..seg_base(3)).map(|value| (1, s.insert(1, value), value)).collect();
        // A free block of segment 3's class: the claim refills nothing.
        let pool = store.pool();
        pool.dealloc(pool.alloc(SEG_HDR_SIZE + seg_capacity(3) as usize * ENTRY_SIZE).unwrap());
        let fences = pool.fence_count().unwrap();
        pool.capture_at_fence(fences + 1);
        store.home.history(store.get_or_create_history(1)).slots().claim();
        assert_eq!(pool.fence_count().unwrap() - fences, 1, "the link's fence alone");
        let (seg3, word) = newest_word(&store, 1);
        assert_ne!(seg3, 0);
        let mut image = pool.captured_image().unwrap();
        image[word as usize..][..4].copy_from_slice(&(seg3 as u32).to_le_bytes());

        let (reopened, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert!(stats.quarantine.is_empty(), "{:?}", stats.quarantine);
        assert_eq!(stats.watermark, seg_base(3));
        all_readable(&reopened, &written);
        assert_eq!(newest_word(&reopened, 1).0, 0);
        let version = reopened.session().insert(1, 77);
        let (relinked, _) = newest_word(&reopened, 1);
        assert!(relinked != 0 && relinked != seg3, "a new segment 3, named");
        assert_eq!(reopened.session().find(1, version), Some(77));
        all_readable(&reopened, &written);
    }

    /// `key`'s linked segments of levels 1 … by the forward links alone.
    fn segments(store: &PSkipList, key: u64) -> Vec<u64> {
        let hist = PPtr::from_off(store.get_or_create_history(key).into());
        let pool = store.pool();
        let first = PHistory::open(pool, hist).raw_header().2;
        let next = |&seg: &u64| {
            Some(u64::from(pool.atomic_u32(seg).load(std::sync::atomic::Ordering::Acquire)))
        };
        std::iter::successors(Some(first), next).take_while(|&seg| seg != 0).collect()
    }

    /// A find follows back links, and a restart does not trust them: the
    /// checked walk rewrites one that disagrees with the chain. Segment 4's,
    /// flipped to another segment, is rewritten to segment 3 at open with
    /// nothing quarantined and every version readable; so is every back link
    /// of an image that has them all zeroed, as a pool written before back
    /// links were reads. (An image whose back links agree is not written:
    /// `fully_read_clean_store_reopens_without_touching_a_history`.)
    #[test]
    fn a_back_link_that_disagrees_with_the_chain_is_rewritten_at_open() {
        use mvkv_vhistory::pslots::SEG_BACK;
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        let mut written = Vec::new();
        for value in 0..300u64 {
            for key in [1, 2] {
                written.push((key, s.insert(key, value), value));
            }
        }
        store.wait_writes_complete();
        store.pool().sync_all();
        let image = store.crash_image().unwrap();
        let chains = [segments(&store, 1), segments(&store, 2)];
        assert_eq!(chains[0].len(), 6, "segments 1 … 6");
        let back = |image: &[u8], seg: u64| {
            let at = (seg + SEG_BACK) as usize;
            u64::from(u32::from_le_bytes(image[at..at + 4].try_into().unwrap()))
        };
        let set_back = |image: &mut Vec<u8>, seg: u64, to: u64| {
            let at = (seg + SEG_BACK) as usize;
            image[at..at + 4].copy_from_slice(&(to as u32).to_le_bytes());
        };
        let flipped = {
            let mut image = image.clone();
            set_back(&mut image, chains[0][3], chains[1][2]);
            image
        };
        let zeroed = {
            let mut image = image.clone();
            for chain in &chains {
                chain[1..].iter().for_each(|&seg| set_back(&mut image, seg, 0));
            }
            image
        };
        for (name, image) in [("flipped", flipped), ("zeroed", zeroed)] {
            let (reopened, stats) = PSkipList::open_image(&image, 2).unwrap();
            assert!(stats.quarantine.is_empty(), "{name}: {:?}", stats.quarantine);
            assert_eq!(reopened.pool().unflushed_lines().unwrap(), [], "{name}: flushed");
            let mended = reopened.pool().crash_image().unwrap();
            for chain in &chains {
                for k in 1..chain.len() {
                    assert_eq!(back(&mended, chain[k]), chain[k - 1], "{name}: segment {}", k + 1);
                }
            }
            all_readable(&reopened, &written);
        }
    }

    #[test]
    fn settled_history_ending_above_the_watermark_is_still_pruned() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        for i in 1..=20u64 {
            s.insert(i, i);
        }
        store.wait_writes_complete();
        s.extract_snapshot(20);
        // Version 21 never reached the media; version 22 did, completely:
        // published, CRC-valid, the lazy tail moved over it. Key 5's history
        // is in perfect order — only the watermark says its end must go.
        let h = store.home.history(store.get_or_create_history(5));
        h.append(22, 2200);
        assert_eq!(h.extend_tail(22), 2);
        store.pool().sync_all();
        let image = store.crash_image().unwrap();
        let hist = store.get_or_create_history(5).into();
        let hist = PHistory::open(store.pool(), PPtr::from_off(hist));
        assert!(scan_published_prefix(&hist, &mut Vec::new()).settled);

        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert_eq!(stats.watermark, 20);
        assert_eq!((stats.pruned_histories, stats.pruned_entries), (1, 1));
        let rs = recovered.session();
        assert_eq!(rs.find(5, u64::MAX), Some(5), "the entry beyond the gap must be gone");
        assert_eq!(rs.insert(5, 55), 21, "version numbering resumes at the watermark");
    }

    #[test]
    fn chain_pair_with_a_key_already_chained_is_dropped_and_reported() {
        let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let s = store.session();
        // Three chain blocks: two full ones and a third the duplicates join.
        let keys = 2 * DEFAULT_BLOCK_CAP + 76;
        for key in 1..=keys {
            s.insert(key, key * 10);
        }
        store.wait_writes_complete();
        // Two more pairs for keys that are chained already, each with a
        // valid (empty) history of its own: key 2's first pair sits two
        // blocks back, the last key's in the block the duplicate lands in.
        let chain = KeyChain::open(store.pool(), store.home.chain);
        for key in [2u64, keys] {
            chain.append(key, PHistory::create(store.pool()).unwrap().pptr().off()).unwrap();
        }
        store.pool().sync_all();
        let image = store.crash_image().unwrap();
        for threads in [1, 4] {
            let (store, stats) = PSkipList::open_image(&image, threads).unwrap();
            assert_eq!(stats.rebuilt_keys, keys, "threads={threads}");
            assert_eq!(store.key_count(), keys);
            assert_eq!(stats.quarantine.chain_duplicate_keys, 2);
            assert_eq!(stats.quarantine.total(), 2);
            // The earliest pair is the key's: its history, not the empty one.
            let rs = store.session();
            assert_eq!(rs.find(2, keys), Some(20), "threads={threads}");
            assert_eq!(rs.find(keys, keys), Some(keys * 10), "threads={threads}");
        }
    }

    /// A bit flipped in a pool file is quarantined by the file's own open,
    /// and the prune's repair reaches the file: the next open finds nothing.
    #[test]
    fn a_payload_bit_flipped_in_the_file_is_quarantined_once() {
        let path = std::env::temp_dir().join(format!("pskip-flip-{}.pool", std::process::id()));
        let at = {
            let store = PSkipList::create_file(&path, POOL).unwrap();
            let s = store.session();
            for key in 1..=20u64 {
                s.insert(key, key * 10);
            }
            assert_eq!(s.insert(7, 71), 21, "the newest version is key 7's second entry");
            store.wait_writes_complete();
            let hist = store.get_or_create_history(7).into();
            let hist = PHistory::open(store.pool(), PPtr::from_off(hist));
            let mut cur = Cursor::new();
            hist.fill(&mut cur, 2);
            &cur.entry(1).value as *const _ as usize - store.pool().base_ptr(0) as usize
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at] ^= 1 << 3;
        std::fs::write(&path, bytes).unwrap();

        let (store, stats) = PSkipList::open_file(&path, 2).unwrap();
        let class = CorruptionClass::ChecksumInvalid;
        assert_eq!(stats.quarantine.keys, [KeyQuarantine { key: 7, class, dropped_records: 1 }]);
        assert_eq!(stats.quarantine.total(), 1);
        assert_eq!(stats.watermark, 20, "the watermark stops below the damaged version");
        let s = store.session();
        for key in 1..=20u64 {
            assert_eq!(s.find(key, u64::MAX), Some(key * 10), "key {key}");
        }
        drop(store);
        let (_, stats) = PSkipList::open_file(&path, 2).unwrap();
        assert!(stats.quarantine.is_empty(), "{:?}", stats.quarantine);
        assert_eq!(stats.watermark, 20);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opening_an_empty_image_is_an_error() {
        assert!(PSkipList::open_image(&[], 1).is_err());
    }

    #[test]
    fn rebuild_thread_counts_agree() {
        let path = std::env::temp_dir().join(format!("pskip-threads-{}.pool", std::process::id()));
        {
            let store = PSkipList::create_file(&path, POOL).unwrap();
            let s = store.session();
            for i in 0..2000u64 {
                s.insert(i * 13 + 1, i);
            }
            store.wait_writes_complete();
        }
        let mut snapshots = Vec::new();
        for threads in [1, 2, 8] {
            let (store, stats) = PSkipList::open_file(&path, threads).unwrap();
            assert_eq!(stats.rebuilt_keys, 2000);
            snapshots.push(store.session().extract_snapshot(store.tag()));
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[1], snapshots[2]);
        std::fs::remove_file(&path).unwrap();
    }

    /// A history is named by a 32-bit offset, so a pool past 4 GiB is
    /// refused where a store is made and where one is opened — not accepted
    /// until the first history allocated above 4 GiB. The file is sparse: no
    /// test touches more than its first pages.
    #[test]
    fn a_pool_longer_than_4_gib_is_an_error() {
        let path = std::env::temp_dir().join(format!("pskip-4gib-{}.pool", std::process::id()));
        let at_limit = PSkipList::create_file(&path, MAX_POOL_LEN as usize).unwrap();
        assert_eq!(at_limit.pool().len() as u64, MAX_POOL_LEN, "exactly 4 GiB is fine");
        drop(at_limit);

        let len = MAX_POOL_LEN + 4096;
        let refused = PSkipList::create_file(&path, len as usize).err().expect("refused");
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        assert!(refused.to_string().contains("2^32 bytes (4 GiB)"), "{refused}");
        // The pool itself was made before the store refused it: the open
        // refuses it too, before it reads the root.
        match PSkipList::open_file(&path, 1) {
            Err(e @ RecoveryError::PoolTooLarge { .. }) => {
                assert!(e.to_string().contains(&format!("a pool of {len} bytes")), "{e}")
            }
            other => panic!("expected PoolTooLarge, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The size of a reopened index, as a count. With 32-bit payloads a node
    /// of height h is `ceil8(12 + 4h)` bytes: 16 at height 1, 24 at heights 2
    /// and 3, 32 at 4 and 5, … A reopen bulk-builds the index with heights by
    /// rank — 3/4 of the nodes one level high, 3/16 two, … (p = 1/4) — so it
    /// holds little beyond its nodes: 3/4·16 + 3/16·24 + 3/64·24 + … ≈ 18.1
    /// bytes expected.
    #[test]
    fn a_reopened_index_holds_under_18_5_bytes_a_key() {
        let path = std::env::temp_dir().join(format!("pskip-index-{}.pool", std::process::id()));
        {
            let store = PSkipList::create_file(&path, 32 << 20).unwrap();
            let pairs: Vec<Pair> = (0..1u64 << 16).map(|k| (k * 7919, k)).collect();
            store.session().insert_batch(&pairs);
        }
        let (store, _) = PSkipList::open_file(&path, 2).unwrap();
        assert_eq!(store.key_count(), 1 << 16);
        let per_key = store.index_memory().1 as f64 / store.key_count() as f64;
        assert!(per_key <= 18.5, "{per_key:.2} bytes a key");
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_key_races_reclaim_history_allocations() {
        let store = std::sync::Arc::new(PSkipList::create_volatile(1 << 24).unwrap());
        for round in 0..10u64 {
            let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let store = store.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        // All threads hammer the same small key set.
                        let s = store.session();
                        for k in 0..10u64 {
                            // Distinct-key writes per thread after racing on
                            // creation: first a read (may create), then write
                            // own key.
                            let _ = s.find(round * 10 + k, u64::MAX);
                            if k % 8 == t {
                                s.insert(round * 10 + k, t);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        store.wait_writes_complete();
        // Allocator stats must balance: every lost-race history was freed.
        let audit = mvkv_pmem::recovery::audit(store.pool());
        assert_eq!(audit.indeterminate_blocks, 0);
        // Live blocks: chain hdr/blocks + history headers + segments; the
        // exact count varies, but no unbounded growth: 100 keys → bounded.
        assert!(store.key_count() <= 100);
    }
}
