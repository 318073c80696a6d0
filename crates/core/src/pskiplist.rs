//! PSkipList — the paper's core proposal (§IV, §V-B).
//!
//! A hybrid multi-version ordered store:
//!
//! * **Persistent state** (in a [`mvkv_pmem::PmemPool`]): per-key version
//!   histories with lazy tails ([`mvkv_vhistory`]) and the key block chain
//!   ([`mvkv_keychain`]) mapping each key to its history.
//! * **Ephemeral state**: the lock-free skip-list index
//!   ([`mvkv_skiplist`]) over the same keys, holding history offsets as
//!   payloads, plus the version clock.
//!
//! The operations are the one store [`Engine`]'s; this module is what is
//! genuinely PM: the [`PmHome`] that puts histories, key links and the
//! changelog in a pool, construction, recovery, scrub, compaction and the
//! persistent tag chain.
//!
//! On restart, [`PSkipList::open_file`] walks the block chain once, in
//! parallel (paper Fig 5a): every worker validates and scans the histories
//! of the blocks it claims and keeps their `(key, history)` pairs as a run.
//! The completion watermark comes from the scanned entry stamps, the index
//! is bulk-built from the sorted runs, and only the histories the scan
//! flagged are pruned — the paper's §IV-B recovery rule, one visit per key.

use crate::api::VersionedStore;
use crate::engine::{live_at, Engine, Home};
use crate::recovery::{
    CorruptionClass, KeyQuarantine, QuarantineReport, RecoveryError, RecoveryStatus, ScrubReport,
};
use mvkv_keychain::{
    try_fold_claimed, try_workers, ChainHdr, KeyChain, RepairStats, DEFAULT_BLOCK_CAP,
};
use mvkv_pmem::{CrashOptions, PPtr, PmemError, PmemPool};
use mvkv_skiplist::{Fragment, SkipList};
use mvkv_vhistory::recovery::{
    compute_watermark, prune_to_watermark, scan_published_prefix, ScanStop,
};
use mvkv_vhistory::{Cursor, History, PHistory, Slots, VersionClock, TOMBSTONE};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timings and counters of one restart (paper Fig 5). The five times are
/// the reopen's consecutive phases: open, repair, scan, rebuild, prune.
#[derive(Debug, Clone, Copy, Default)]
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
    /// Repairing the key, tag and changelog chains.
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
}

/// `(key, chain position, history)`: a key-chain pair as the restart sorts
/// it. Of two pairs with one key the position puts the earliest first.
type ChainPair = (u64, u64, u64);

/// What one worker of the restart walk keeps from the blocks it claimed.
#[derive(Default)]
struct Claimed {
    /// Every reachable history: in chain order while the walk runs, sorted
    /// for the index build.
    pairs: Vec<ChainPair>,
    /// The versions of every published prefix, as one flat run.
    versions: Vec<u64>,
    /// `(history, largest version)` with `u64::MAX` for a history the scan
    /// did not find settled: the prune has work exactly where the second
    /// word exceeds the watermark.
    prune_above: Vec<(u64, u64)>,
    /// [`RestartStats::history_lengths`] of this worker's histories.
    lengths: [u64; 32],
    quarantined: Vec<KeyQuarantine>,
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
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let run = self.0.iter_mut().filter(|run| !run.is_empty()).min_by_key(|run| run[0])?;
        let (&(key, _, hist), rest) = run.split_first()?;
        *run = rest;
        Some((key, hist))
    }
}

/// Everything a salvage open produces: the recovered store, restart
/// timings, the overall verdict, and the itemized quarantine report.
pub struct SalvageOpen {
    pub store: PSkipList,
    pub stats: RestartStats,
    pub status: RecoveryStatus,
    pub report: QuarantineReport,
}

/// Store construction options.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Pairs per key-chain block (the paper's fixed block arrays).
    pub block_cap: u64,
    /// Maintain a persistent changelog of `(version, key)` mutations,
    /// enabling O(changes) delta extraction (`extract_delta`) between snapshots
    /// (an implementation of the paper's §VI future-work direction:
    /// answering version-scoped queries without traversing every key).
    /// Costs one extra chain append per mutation; off by default to match
    /// the paper's evaluated configuration.
    pub changelog: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { block_cap: DEFAULT_BLOCK_CAP, changelog: false }
    }
}

/// Persistent root object: offsets of the store's top-level structures.
/// Field order is on-media layout (all u64 words):
/// `[keychain, tagchain, changelog, options, watermark_base, reserved]`.
const ROOT_SIZE: usize = 48;
const ROOT_KEYCHAIN: u64 = 0;
const ROOT_TAGCHAIN: u64 = 8;
const ROOT_CHANGELOG: u64 = 16;
const ROOT_OPTIONS: u64 = 24;
/// Versions ≤ this are complete a priori (0 normally; the horizon for a
/// compacted store, whose collapsed entries keep gappy old versions).
const ROOT_WMBASE: u64 = 32;
const OPT_CHANGELOG_BIT: u64 = 1;

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

/// The PM home: a key's payload is the pool offset of its [`PHistory`]; new
/// keys are linked into the key chain and, when enabled, every mutation is
/// appended to the changelog — durably, before the operation completes.
pub struct PmHome {
    pool: Arc<PmemPool>,
    chain: PPtr<ChainHdr>,
    /// Optional mutation log: `(key, version)` pairs.
    changelog: Option<PPtr<ChainHdr>>,
    /// Labeled tags: `(label, version)` pairs (paper Table 1's
    /// `tag(version)` argument).
    tagchain: PPtr<ChainHdr>,
    /// Memoized decode of the tag chain, already un-biased. The chain is
    /// append-only, so the cached list stays a valid prefix forever; label
    /// lookups extend it with only the pairs appended since the last scan
    /// instead of re-reading the whole chain every call.
    tag_cache: parking_lot::Mutex<Vec<(u64, u64)>>,
}

impl PmHome {
    fn new(
        pool: PmemPool,
        chain: PPtr<ChainHdr>,
        tagchain: PPtr<ChainHdr>,
        changelog: Option<PPtr<ChainHdr>>,
    ) -> Self {
        let tag_cache = parking_lot::Mutex::new(Vec::new());
        PmHome { pool: Arc::new(pool), chain, changelog, tagchain, tag_cache }
    }
}

impl Home<u64> for PmHome {
    type Slots<'a> = PHistory<'a>;
    type Logged = u64;
    const NAME: &'static str = "PSkipList";

    #[inline]
    fn logged(key: &u64) -> u64 {
        *key
    }

    #[inline]
    fn create(&self) -> u64 {
        PHistory::create(&self.pool).expect("pmem pool exhausted").pptr().off()
    }

    #[inline]
    fn history(&self, off: u64) -> History<PHistory<'_>> {
        History::new(PHistory::open(&self.pool, PPtr::from_off(off)))
    }

    #[inline]
    fn discard(&self, off: u64) {
        self.pool.dealloc(off);
    }

    #[inline]
    fn key_linked(&self, key: u64, off: u64) {
        KeyChain::open(&self.pool, self.chain).append(key, off).expect("pmem pool exhausted");
    }

    #[inline]
    fn mutated(&self, key: u64, version: u64) {
        if let Some(cl) = self.changelog {
            KeyChain::open(&self.pool, cl).append(key, version).expect("pmem pool exhausted");
        }
    }

    #[inline]
    fn batch_fence(&self) {
        self.pool.fence();
    }

    fn close(&mut self, _: impl Iterator<Item = u64>) {
        self.pool.mark_clean_shutdown();
    }
}

impl PSkipList {
    // -- construction --------------------------------------------------------

    /// Creates a fresh store in `pool` (any backend).
    pub fn create(pool: PmemPool, options: StoreOptions) -> std::io::Result<Self> {
        let chain = KeyChain::create(&pool, options.block_cap)?.pptr();
        let tagchain = KeyChain::create(&pool, 64)?.pptr();
        let changelog = if options.changelog {
            Some(KeyChain::create(&pool, options.block_cap)?.pptr())
        } else {
            None
        };
        let root = pool.alloc(ROOT_SIZE)?;
        pool.write_u64(root + ROOT_KEYCHAIN, chain.off());
        pool.write_u64(root + ROOT_TAGCHAIN, tagchain.off());
        pool.write_u64(root + ROOT_CHANGELOG, changelog.map_or(0, PPtr::off));
        pool.write_u64(root + ROOT_OPTIONS, if options.changelog { OPT_CHANGELOG_BIT } else { 0 });
        pool.write_u64(root + ROOT_WMBASE, 0);
        pool.persist(root, ROOT_SIZE);
        pool.fence();
        pool.set_root(root);
        let home = PmHome::new(pool, chain, tagchain, changelog);
        Ok(Engine::assemble(SkipList::new(), VersionClock::new(), home))
    }

    /// Creates a fresh store in a pool file of `size` bytes. Place the file
    /// under `/dev/shm` to reproduce the paper's PM emulation.
    pub fn create_file<P: AsRef<Path>>(path: P, size: usize) -> std::io::Result<Self> {
        Self::create(PmemPool::create_file(path, size)?, StoreOptions::default())
    }

    /// Creates a fresh store on heap memory (tests; no durability).
    pub fn create_volatile(size: usize) -> std::io::Result<Self> {
        Self::create(PmemPool::create_volatile(size)?, StoreOptions::default())
    }

    /// Creates a fresh store on a crash-simulation pool; pair with
    /// [`PSkipList::crash_image`] and [`PSkipList::open_image`].
    pub fn create_crash_sim(size: usize, crash: CrashOptions) -> std::io::Result<Self> {
        Self::create(PmemPool::create_crash_sim(size, crash)?, StoreOptions::default())
    }

    /// Reopens a persisted store: validates the pool, repairs the chain,
    /// reconstructs the index with `threads` workers, recovers the
    /// watermark and prunes torn suffixes. Any detected corruption is
    /// quarantined silently; use [`PSkipList::open_file_salvage`] to get
    /// the itemized report.
    pub fn open_file<P: AsRef<Path>>(
        path: P,
        threads: usize,
    ) -> std::io::Result<(Self, RestartStats)> {
        let opened = Instant::now();
        let (store, stats, _) = Self::try_attach(PmemPool::open_file(path)?, threads, opened)?;
        Ok((store, stats))
    }

    /// Reopens from a crash image (or any serialized pool bytes).
    pub fn open_image(bytes: &[u8], threads: usize) -> std::io::Result<(Self, RestartStats)> {
        let opened = Instant::now();
        let (store, stats, _) = Self::try_attach(PmemPool::open_image(bytes)?, threads, opened)?;
        Ok((store, stats))
    }

    /// Salvage open from a pool file: tolerates localized media corruption
    /// by quarantining damaged records (see [`crate::recovery`]) instead of
    /// panicking or failing outright. Only damage to the load-bearing
    /// structures (superblock, root, chain headers) is a hard error.
    pub fn open_file_salvage<P: AsRef<Path>>(
        path: P,
        threads: usize,
    ) -> Result<SalvageOpen, RecoveryError> {
        let opened = Instant::now();
        let pool = PmemPool::open_file(path)?;
        Self::salvage(pool, threads, 0, opened)
    }

    /// Salvage open from an image. An image shorter than its recorded
    /// length (truncated media) is re-padded with zeros first: the padding
    /// never verifies as data — records it swallowed fail their CRCs and
    /// are quarantined rather than surfaced.
    pub fn open_image_salvage(bytes: &[u8], threads: usize) -> Result<SalvageOpen, RecoveryError> {
        let opened = Instant::now();
        match PmemPool::open_image(bytes) {
            Ok(pool) => Self::salvage(pool, threads, 0, opened),
            Err(PmemError::LengthMismatch { .. }) => {
                let mut image = bytes.to_vec();
                let padded = mvkv_pmem::corrupt::pad_to_recorded_len(&mut image) as u64;
                let pool = PmemPool::open_image(&image)?;
                Self::salvage(pool, threads, padded, opened)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn salvage(
        pool: PmemPool,
        threads: usize,
        padded_bytes: u64,
        opened: Instant,
    ) -> Result<SalvageOpen, RecoveryError> {
        let (store, stats, mut report) = Self::try_attach(pool, threads, opened)?;
        report.padded_bytes = padded_bytes;
        let status = if report.is_empty() {
            RecoveryStatus::Clean
        } else {
            RecoveryStatus::Degraded {
                recovered: stats.rebuilt_keys,
                quarantined: report.total(),
            }
        };
        Ok(SalvageOpen { store, stats, status, report })
    }

    /// Attaches the store to `pool`, whose opening started at `opened`.
    fn try_attach(
        pool: PmemPool,
        threads: usize,
        opened: Instant,
    ) -> Result<(Self, RestartStats, QuarantineReport), RecoveryError> {
        let mut stats = RestartStats { open_time: opened.elapsed(), ..RestartStats::default() };
        let repair = Instant::now();
        let mut report = QuarantineReport::default();
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
        let changelog_off = pool.read_u64(root + ROOT_CHANGELOG);
        let changelog_ptr =
            (changelog_off != 0).then_some(PPtr::<ChainHdr>::from_off(changelog_off));
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
            absorb(&mut report, chain.repair());
            absorb(&mut report, tags.repair());
            if let Some(cl) = changelog_ptr {
                let cl = KeyChain::open_checked(&pool, cl)
                    .ok_or(RecoveryError::CorruptChainHeader { chain: "changelog" })?;
                absorb(&mut report, cl.repair());
            }
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
                acc.pairs.push((key, seq, hist));
                acc.lengths[(u64::BITS - scan.len.leading_zeros()).min(31) as usize] += 1;
                acc.prune_above.push((hist, if scan.settled { scan.last } else { u64::MAX }));
            };
            let (walked, mut claimed) =
                try_fold_claimed(&chain, threads, visit).map_err(panicked("scan"))?;
            stats.rebuild_threads = walked.threads;
            for (bucket, total) in stats.history_lengths.iter_mut().enumerate() {
                *total = claimed.iter().map(|c| c.lengths[bucket]).sum();
            }
            stats.watermark = compute_watermark(claimed.iter().map(|c| &c.versions[..]), wm_base);
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
            let fragments: Vec<Fragment<u64>> = try_workers((0..=cuts.len()).map(|part| {
                let (from, to) = (part.checked_sub(1).map(|p| cuts[p]), cuts.get(part).copied());
                move || {
                    list.fragment(Merged(runs.iter().map(|run| key_range(run, from, to)).collect()))
                }
            }))
            .map_err(panicked("rebuild"))?;
            report.chain_duplicate_keys = fragments.iter().map(Fragment::dropped).sum();
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
            let flagged: Vec<u64> = claimed
                .iter()
                .flat_map(|c| &c.prune_above)
                .filter(|&&(_, above)| above > watermark)
                .map(|&(hist, _)| hist)
                .collect();
            let pool = &pool;
            let share = flagged.len().div_ceil(walked.threads).max(1);
            let prune = |&hist: &u64| {
                prune_to_watermark(&PHistory::open(pool, PPtr::from_off(hist)), watermark).pruned
            };
            let jobs = flagged.chunks(share).map(|part| move || part.iter().map(prune).sum());
            let pruned: Vec<u64> = try_workers(jobs).map_err(panicked("prune"))?;
            stats.pruned_histories = flagged.len() as u64;
            stats.pruned_entries = pruned.iter().sum();
            stats.prune_time = t2.elapsed();

            report.keys = claimed.into_iter().flat_map(|c| c.quarantined).collect();
            report.indeterminate_alloc_blocks = pool.indeterminate_blocks_at_open();
        }
        mvkv_obs::counter_add!(
            "mvkv_recovery_corrupt_records_total",
            report.keys.len() as u64
        );
        mvkv_obs::gauge_set!("mvkv_recovery_quarantined_total", report.total());
        mvkv_obs::gauge_set!(
            "mvkv_recovery_chain_quarantined_blocks",
            report.chain_quarantined_blocks
        );
        let home = PmHome::new(pool, chain_ptr, tagchain_ptr, changelog_ptr);
        let store = Engine::assemble(index, VersionClock::resume(stats.watermark, 1 << 16), home);
        Ok((store, stats, report))
    }

    /// On-demand read-only integrity scrub: walks every indexed key's
    /// claimed slots and verifies the CRC of each published record.
    /// Mutates nothing; updates the scrub gauges.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (&_key, hist) in self.index.iter() {
            report.keys += 1;
            let h = PHistory::open(&self.home.pool, PPtr::from_off(hist));
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
        mvkv_obs::gauge_set!("mvkv_scrub_corrupt_records", report.corrupt_records);
        mvkv_obs::gauge_set!("mvkv_scrub_corrupt_keys", report.corrupt_keys);
        report
    }

    // -- accessors ------------------------------------------------------------

    /// The underlying pool (for audits and tests).
    pub fn pool(&self) -> &PmemPool {
        &self.home.pool
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
        let options = StoreOptions {
            block_cap: KeyChain::open(&self.home.pool, self.home.chain).block_cap(),
            changelog: self.home.changelog.is_some(),
        };
        let mut new = Self::create(pool, options)?;
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
            let ph = PHistory::create(new_pool)?;
            let off = ph.pptr().off();
            let outcome = new.index.insert_with(key, || off);
            debug_assert!(outcome.inserted(), "source index keys are unique");
            new_chain.append(key, off)?;
            let nh = History::new(ph);
            for (v, value) in kept {
                nh.append(v, value);
            }
        }

        // Tags survive compaction (tags below the horizon now resolve to
        // horizon-collapsed state); the changelog keeps post-horizon range.
        {
            let src_tags = KeyChain::open(&self.home.pool, self.home.tagchain);
            let dst_tags = KeyChain::open(new_pool, new.home.tagchain);
            for (label, biased) in src_tags.iter() {
                dst_tags.append(label, biased)?;
            }
        }
        if let (Some(src), Some(dst)) = (self.home.changelog, new.home.changelog) {
            let src = KeyChain::open(&self.home.pool, src);
            let dst = KeyChain::open(new_pool, dst);
            for (key, version) in src.iter() {
                if version > horizon && version <= fc {
                    dst.append(key, version)?;
                }
            }
        }

        new.clock = VersionClock::resume(fc, 1 << 16);
        new_pool.sync_all();
        Ok((new, stats))
    }

    /// On a crash-sim store, the bytes that survive a power failure now.
    pub fn crash_image(&self) -> Option<Vec<u8>> {
        self.home.pool.crash_image()
    }

    /// Runs `f` over the up-to-date tag bindings. The cache is extended
    /// (never rescanned from the start) while the lock is held, so a lookup
    /// after `n` unchanged calls costs one chain-length read, not a full
    /// chain walk per call.
    fn with_tag_cache<R>(&self, f: impl FnOnce(&[(u64, u64)]) -> R) -> R {
        let chain = KeyChain::open(&self.home.pool, self.home.tagchain);
        let mut cache = self.home.tag_cache.lock();
        if (cache.len() as u64) < chain.len() {
            let skip = cache.len();
            cache.extend(chain.iter().skip(skip).map(|(label, biased)| (label, biased - 1)));
        }
        f(&cache)
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
        self.with_tag_cache(|tags| {
            tags.iter().rev().find(|&&(l, _)| l == label).map(|&(_, v)| v)
        })
    }

    fn labels(&self) -> Vec<(u64, u64)> {
        self.with_tag_cache(<[(u64, u64)]>::to_vec)
    }
}

impl crate::api::DeltaExtract for PSkipList {
    fn extract_delta(&self, v1: u64, v2: u64) -> Vec<(u64, Option<u64>)> {
        assert!(v1 <= v2, "delta requires v1 <= v2");
        let fc = self.clock.watermark();
        let Some(cl) = self.home.changelog else {
            return crate::api::delta_by_snapshots(&self.session(), v1, v2);
        };
        // O(changes): collect the keys touched in (v1, v2], then compare
        // their visible state at the two snapshots.
        let chain = KeyChain::open(&self.home.pool, cl);
        let mut keys: Vec<u64> = chain
            .iter()
            .filter(|&(_, version)| version > v1 && version <= v2 && version <= fc)
            .map(|(key, _)| key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(hist) = self.index.get(&key) else { continue };
            let live = |version| live_at(self.home.history(hist), version, fc);
            let (a, b) = (live(v1), live(v2));
            if a != b {
                out.push((key, b));
            }
        }
        out
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
        // slots — the fourth round's slot 3 allocates segment 1 — so the
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
        // Warm up: the first key allocates the first chain block and refills
        // the allocator's class-128 list, both amortized and both fencing on
        // their own; the refill parks at least seven more blocks.
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
        // ...and the next two versions of a key stay in that block.
        for round in 1..=2u64 {
            let before = fences();
            s.insert(2, round);
            s.remove(3);
            assert_eq!(fences() - before, 2, "inline append, round {round}");
        }
        // A chunk of fresh keys shares the one fence too.
        let fresh: Vec<Pair> = (5..=8u64).map(|k| (k, k * 10)).collect();
        let before = fences();
        s.insert_batch(&fresh);
        assert_eq!(fences() - before, 1, "four fresh keys, one chunk");
        assert_eq!(store.pool().alloc_stats().shard_refills, refills, "served from the list");
        store.wait_writes_complete();
        assert_eq!(s.extract_snapshot(store.tag()).len(), 7);
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
        let h = PHistory::open(store.pool(), PPtr::from_off(hist_off));
        let (_, e) = h.claim();
        h.persist_pending();
        e.version.store(21, std::sync::atomic::Ordering::Relaxed);
        e.value.store(2100, std::sync::atomic::Ordering::Relaxed);
        h.persist_entry(e);
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
        let hist = store.get_or_create_history(4);
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
            let h = PHistory::open(store.pool(), PPtr::from_off(store.get_or_create_history(3)));
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
        let by_worker = |pair: &ChainPair| pair.1 % 3;
        let all_in_one = |_: &ChainPair| 0;
        let pairs: Vec<ChainPair> =
            (0..600u64).map(|seq| (seq * 7 % 150, seq, 1000 + seq)).collect(); // 4 pairs per key
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
        let header = |(_, hist)| PHistory::open(store.pool(), PPtr::from_off(hist)).raw_header();
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
        let hist = PHistory::open(store.pool(), PPtr::from_off(store.get_or_create_history(5)));
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
        let pool = PmemPool::create_crash_sim(POOL, CrashOptions::default()).unwrap();
        let options = StoreOptions { block_cap: 4, changelog: false };
        let store = PSkipList::create(pool, options).unwrap();
        let s = store.session();
        for key in 1..=40u64 {
            s.insert(key, key * 10);
        }
        store.wait_writes_complete();
        // Two more pairs for keys that are chained already, each with a
        // valid (empty) history of its own: key 2's first pair sits many
        // blocks back, key 40's in the block the duplicate lands in or the
        // one before.
        let chain = KeyChain::open(store.pool(), store.home.chain);
        for key in [2u64, 40] {
            chain.append(key, PHistory::create(store.pool()).unwrap().pptr().off()).unwrap();
        }
        store.pool().sync_all();
        let image = store.crash_image().unwrap();
        for threads in [1, 4] {
            let out = PSkipList::open_image_salvage(&image, threads).unwrap();
            assert_eq!(out.stats.rebuilt_keys, 40, "threads={threads}");
            assert_eq!(out.store.key_count(), 40);
            assert_eq!(out.report.chain_duplicate_keys, 2);
            assert_eq!(out.report.total(), 2);
            assert_eq!(out.status, RecoveryStatus::Degraded { recovered: 40, quarantined: 2 });
            // The earliest pair is the key's: its history, not the empty one.
            let rs = out.store.session();
            assert_eq!(rs.find(2, 40), Some(20), "threads={threads}");
            assert_eq!(rs.find(40, 40), Some(400), "threads={threads}");
        }
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
