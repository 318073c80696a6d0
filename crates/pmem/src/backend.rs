//! The media a [`crate::PmemPool`] lives on.
//!
//! The set is closed, so it is one private enum, `Media`, that the pool
//! matches on in `persist`, `fence` and `sync_all`; the pool keeps the
//! region's base and length itself, so a word access makes no call. Three
//! variants:
//!
//! * `File` — `mmap` of a regular file. Pointing the file at `/dev/shm`
//!   reproduces the paper's PM emulation exactly (§V-A). On a DAX-mounted
//!   PM namespace it is durable only on an eADR platform, whose caches are
//!   in the persistence domain: on ADR hardware a store reaches the media
//!   only through `clwb` / `clflushopt` + `sfence`, which this variant does
//!   not issue yet. A persist mode chosen at create or open (ROADMAP.md,
//!   "Persist for real") is a field of this variant, decided once.
//! * `Heap` — a zeroed heap region for unit tests and for the ephemeral
//!   store variants: no durability.
//! * `CrashSim` — [`CrashSim`]: a volatile front region plus a durable
//!   shadow. Only explicitly persisted cache lines (and, optionally,
//!   randomly "evicted" ones) reach the shadow; [`CrashSim::crash_image`]
//!   returns what would survive a power failure.

use crate::layout::{CACHE_LINE, MIN_POOL_LEN};
use crate::{PmemError, Result};
use mvkv_sync::sync::atomic::{fence, AtomicU64, Ordering};
use mvkv_sync::sync::Mutex;
use std::fs::OpenOptions;
use std::path::Path;

/// The region a pool lives on, and how its persistence primitives reach
/// the media.
pub(crate) enum Media {
    /// A mapped file. Its `persist` is a release fence and nothing more
    /// (module docs); on a regular file system only `sync_all`, an `msync`
    /// of the whole map, reaches the disk.
    File(memmap2::MmapMut),
    /// Heap memory: no durability.
    Heap(AlignedRegion),
    /// The crash simulator.
    CrashSim(CrashSim),
}

impl Media {
    /// Creates (truncating) a file of `len` bytes and maps it.
    pub(crate) fn create_file(path: &Path, len: usize) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.set_len(len as u64)?;
        // SAFETY: we own the file; len matches set_len.
        Ok(Media::File(unsafe { memmap2::MmapMut::map_mut(&file)? }))
    }

    /// Maps an existing pool file read-write; one too short to hold a
    /// superblock is refused before it is mapped.
    pub(crate) fn open_file(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() < MIN_POOL_LEN as u64 {
            return Err(PmemError::BadMagic);
        }
        // SAFETY: mapping length tracks the file length.
        Ok(Media::File(unsafe { memmap2::MmapMut::map_mut(&file)? }))
    }

    /// Base address and length of the region.
    pub(crate) fn region(&self) -> (*mut u8, usize) {
        match self {
            Media::File(map) => (map.as_ptr() as *mut u8, map.len()),
            Media::Heap(region) => (region.ptr, region.len),
            Media::CrashSim(sim) => (sim.front.ptr, sim.front.len),
        }
    }

    /// Flushes `[offset, offset+len)` to the durable media (cache-line
    /// granularity; may flush more than requested, never less).
    #[inline]
    pub(crate) fn persist(&self, offset: usize, len: usize) {
        match self {
            // tmpfs, or DAX on eADR: stores are durable once globally visible.
            Media::File(_) => fence(Ordering::Release),
            Media::Heap(_) => {}
            Media::CrashSim(sim) => sim.persist(offset, len),
        }
    }

    /// Store-ordering fence between persists (sfence analogue).
    #[inline]
    pub(crate) fn fence(&self) {
        match self {
            Media::CrashSim(sim) => sim.fence(),
            Media::File(_) | Media::Heap(_) => fence(Ordering::SeqCst),
        }
    }

    /// Flushes everything and synchronizes with the media (close path).
    pub(crate) fn sync_all(&self) {
        match self {
            Media::File(map) => _ = map.flush(),
            Media::Heap(_) => {}
            Media::CrashSim(sim) => sim.propagate(0, sim.front.len),
        }
    }
}

/// Page-aligned, zero-initialized heap region with manual lifetime.
pub(crate) struct AlignedRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is an owned, fixed allocation; callers synchronize
// access to its bytes (the pool layers atomics on top).
unsafe impl Send for AlignedRegion {}
// SAFETY: same as Send — raw bytes carry no thread affinity.
unsafe impl Sync for AlignedRegion {}

impl AlignedRegion {
    /// # Panics
    /// When `len` is 0: the pool constructors refuse that length first.
    pub(crate) fn zeroed(len: usize) -> Self {
        assert!(len > 0, "a zero-length region");
        let layout = std::alloc::Layout::from_size_align(len, 4096).expect("valid layout");
        // SAFETY: layout has non-zero size, asserted above.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "allocation of {len} bytes failed");
        AlignedRegion { ptr, len }
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        let region = Self::zeroed(bytes.len());
        // SAFETY: freshly allocated, exclusive access.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), region.ptr, bytes.len()) };
        region
    }
}

impl Drop for AlignedRegion {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::from_size_align(self.len, 4096).expect("valid layout");
        // SAFETY: allocated with the identical layout in `zeroed`.
        unsafe { std::alloc::dealloc(self.ptr, layout) };
    }
}

/// Options controlling the crash simulator.
#[derive(Debug, Clone, Copy)]
pub struct CrashOptions {
    /// Probability (0..=1) that each `persist` call also evicts one random
    /// unrelated cache line into the shadow, modelling hardware cache
    /// eviction (PM may persist *more* than what was flushed, never less).
    pub eviction_rate: f64,
    /// Seed for the eviction RNG (deterministic tests).
    pub seed: u64,
}

impl Default for CrashOptions {
    fn default() -> Self {
        CrashOptions { eviction_rate: 0.0, seed: 0xC4A5_0DE5 }
    }
}

/// A cached front region + durable shadow. Only persisted (or randomly
/// evicted) cache lines propagate to the shadow; `crash_image` returns the
/// shadow contents, i.e. the post-power-failure state of the media.
pub struct CrashSim {
    front: AlignedRegion,
    shadow: AlignedRegion,
    options: CrashOptions,
    rng_state: AtomicU64,
    /// Serializes shadow writes (the copy loop itself is atomic-per-word).
    shadow_lock: Mutex<()>,
    /// Lifetime counts of `fence` calls, of non-empty `persist` calls and of
    /// the 64-byte lines those persists covered (one `clwb` each on real
    /// PM) — what `tests/cost_ledger.rs` charges each operation.
    fences: AtomicU64,
    persists: AtomicU64,
    lines: AtomicU64,
    /// When non-zero, the N-th fence (1-based) snapshots the shadow into
    /// `captured` — "crash exactly at this fence boundary" for the
    /// exhaustive crash-matrix tests.
    capture_at: AtomicU64,
    captured: Mutex<Option<Vec<u8>>>,
}

impl CrashSim {
    pub fn new(len: usize, options: CrashOptions) -> Self {
        let len = (len + CACHE_LINE - 1) & !(CACHE_LINE - 1);
        CrashSim {
            front: AlignedRegion::zeroed(len),
            shadow: AlignedRegion::zeroed(len),
            options,
            rng_state: AtomicU64::new(options.seed | 1),
            shadow_lock: Mutex::new(()),
            fences: AtomicU64::new(0),
            persists: AtomicU64::new(0),
            lines: AtomicU64::new(0),
            capture_at: AtomicU64::new(0),
            captured: Mutex::new(None),
        }
    }

    /// A simulator whose caches and media both hold `bytes`: a crash image
    /// re-attached ([`crate::PmemPool::open_image`]), so that recovery's
    /// persists and fences are counted like any other operation's.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut sim = CrashSim::new(CACHE_LINE, CrashOptions::default());
        let region = || AlignedRegion::from_bytes(bytes);
        (sim.front, sim.shadow) = (region(), region());
        sim
    }

    /// Arms the fence trap: the `n`-th fence call (1-based, counted from
    /// construction) snapshots the durable shadow as if power failed right
    /// at that ordering point. Pass 0 to disarm. The snapshot is retrieved
    /// with [`CrashSim::captured_image`]; re-arming clears it.
    pub fn capture_at_fence(&self, n: u64) {
        *self.captured.lock() = None;
        // ordering: the arming thread issues the fences itself in tests;
        // no cross-thread publication rides on this trap counter.
        self.capture_at.store(n, Ordering::Relaxed);
    }

    /// The image captured by an armed fence trap, if that fence has fired.
    pub fn captured_image(&self) -> Option<Vec<u8>> {
        self.captured.lock().clone()
    }

    /// Number of `fence` calls issued against this simulator so far.
    /// (Relaxed: a monitoring counter, never synchronized against.)
    pub fn fence_count(&self) -> u64 {
        self.fences.load(Ordering::Relaxed) // ordering: stat read
    }

    /// Number of non-empty `persist` calls so far (Relaxed, as above).
    pub fn persist_count(&self) -> u64 {
        self.persists.load(Ordering::Relaxed) // ordering: stat read
    }

    /// 64-byte lines covered by those `persist` calls, summed over the calls
    /// (a line flushed twice counts twice). Relaxed, as above.
    pub fn lines_flushed(&self) -> u64 {
        self.lines.load(Ordering::Relaxed) // ordering: stat read
    }

    /// Offsets of the 64-byte lines whose cached bytes differ from the
    /// media: stores that no persist (nor an eviction) has carried there
    /// yet, which a power failure now would drop.
    pub fn unflushed_lines(&self) -> Vec<u64> {
        let _guard = self.shadow_lock.lock();
        let word = |region: &AlignedRegion, off: usize| {
            // SAFETY: in-bounds and 8-aligned; both regions have one length.
            unsafe { (*(region.ptr.add(off) as *const AtomicU64)).load(Ordering::Acquire) }
        };
        let differs = |line: usize| {
            (line..line + CACHE_LINE)
                .step_by(8)
                .any(|o| word(&self.front, o) != word(&self.shadow, o))
        };
        (0..self.front.len).step_by(CACHE_LINE).filter(|&l| differs(l)).map(|l| l as u64).collect()
    }

    fn next_rand(&self) -> u64 {
        // splitmix64 over an atomic counter: deterministic given a seed and
        // the sequence of persist calls.
        // ordering: the RNG stream only needs atomicity of the counter;
        // determinism comes from the seed, not from inter-thread order.
        let x = self.rng_state.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Copies `[start, end)` (cache-line aligned) from front to shadow using
    /// word-sized atomic accesses, so concurrent writers racing with the
    /// copy are observed without undefined behaviour.
    fn propagate(&self, start: usize, end: usize) {
        debug_assert_eq!(start % 8, 0);
        debug_assert_eq!(end % 8, 0);
        let _guard = self.shadow_lock.lock();
        let mut off = start;
        while off < end {
            // SAFETY: offsets are in-bounds and 8-aligned; both regions are
            // page-aligned allocations of identical length.
            unsafe {
                let src = &*(self.front.ptr.add(off) as *const AtomicU64);
                let dst = &*(self.shadow.ptr.add(off) as *const AtomicU64);
                dst.store(src.load(Ordering::Acquire), Ordering::Release);
            }
            off += 8;
        }
    }

    /// Returns the bytes that would survive a power failure right now.
    pub fn crash_image(&self) -> Vec<u8> {
        let _guard = self.shadow_lock.lock();
        let mut out = vec![0u8; self.shadow.len];
        for off in (0..self.shadow.len).step_by(8) {
            // SAFETY: in-bounds, aligned.
            let word = unsafe {
                (*(self.shadow.ptr.add(off) as *const AtomicU64)).load(Ordering::Acquire)
            };
            out[off..off + 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn persist(&self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let start = offset & !(CACHE_LINE - 1);
        let end = ((offset + len + CACHE_LINE - 1) & !(CACHE_LINE - 1)).min(self.front.len);
        // ordering: test counters, as `fences` below; exact counts live here
        // rather than in the pool wrapper, which production keeps a
        // two-instruction inline.
        self.persists.fetch_add(1, Ordering::Relaxed);
        self.lines.fetch_add(((end - start) / CACHE_LINE) as u64, Ordering::Relaxed);
        self.propagate(start, end);

        if self.options.eviction_rate > 0.0 {
            let roll = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
            if roll < self.options.eviction_rate {
                let lines = self.front.len / CACHE_LINE;
                let victim = (self.next_rand() % lines as u64) as usize * CACHE_LINE;
                self.propagate(victim, victim + CACHE_LINE);
            }
        }
    }

    fn fence(&self) {
        // ordering: the SeqCst fence below is the real ordering point;
        // these counters are test plumbing around it.
        let count = self.fences.fetch_add(1, Ordering::Relaxed) + 1;
        fence(Ordering::SeqCst);
        if count == self.capture_at.load(Ordering::Relaxed) {
            // Everything persisted before this fence has already propagated
            // to the shadow, so the image is exactly the post-power-failure
            // media state at this ordering point.
            *self.captured.lock() = Some(self.crash_image());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(media: &Media, off: usize, byte: u8) {
        let (base, len) = media.region();
        assert!(off < len);
        // SAFETY: in bounds, asserted above; tests access the region from
        // one thread.
        unsafe { *base.add(off) = byte };
    }

    fn load(media: &Media, off: usize) -> u8 {
        let (base, len) = media.region();
        assert!(off < len);
        // SAFETY: as in `store`.
        unsafe { *base.add(off) }
    }

    fn crash_sim(len: usize, options: CrashOptions) -> Media {
        Media::CrashSim(CrashSim::new(len, options))
    }

    fn sim(media: &Media) -> &CrashSim {
        match media {
            Media::CrashSim(sim) => sim,
            _ => panic!("not a crash simulator"),
        }
    }

    #[test]
    fn heap_is_zeroed_and_writable() {
        let heap = Media::Heap(AlignedRegion::zeroed(8192));
        assert_eq!(heap.region().1, 8192);
        assert_eq!(load(&heap, 0), 0);
        store(&heap, 100, 42);
        heap.persist(100, 1);
        heap.fence();
        heap.sync_all();
        assert_eq!(load(&heap, 100), 42);
    }

    #[test]
    fn crash_sim_from_bytes_holds_them_in_caches_and_media() {
        let data: Vec<u8> = (0..=255u8).collect();
        let media = Media::CrashSim(CrashSim::from_bytes(&data));
        let (base, len) = media.region();
        // SAFETY: base..base+len is the region's own allocation.
        let view = unsafe { std::slice::from_raw_parts(base, len) };
        assert_eq!((view, &sim(&media).crash_image()[..]), (&data[..], &data[..]));
    }

    #[test]
    fn a_mapped_file_persists_across_reopen() {
        let path = std::env::temp_dir().join(format!("mvkv-backend-{}.pool", std::process::id()));
        {
            let file = Media::create_file(&path, 16384).unwrap();
            store(&file, 5000, 0xAB);
            file.persist(5000, 1);
            file.fence();
            file.sync_all();
        }
        {
            let file = Media::open_file(&path).unwrap();
            assert_eq!(file.region().1, 16384);
            assert_eq!(load(&file, 5000), 0xAB);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_file_errors() {
        assert!(Media::open_file(Path::new("/definitely/not/a/real/path.pool")).is_err());
    }

    #[test]
    fn crash_sim_drops_unpersisted_writes() {
        let media = crash_sim(4096, CrashOptions::default());
        store(&media, 0, 1); // persisted below
        store(&media, 256, 2); // never persisted
        media.persist(0, 1);
        let image = sim(&media).crash_image();
        assert_eq!(image[0], 1);
        assert_eq!(image[256], 0, "unpersisted write must not survive the crash");
    }

    #[test]
    fn crash_sim_persist_is_cache_line_granular() {
        let media = crash_sim(4096, CrashOptions::default());
        store(&media, 64, 7);
        store(&media, 127, 9); // same cache line as 64..128
        store(&media, 128, 5); // next line
        media.persist(64, 1);
        let image = sim(&media).crash_image();
        assert_eq!(image[64], 7);
        assert_eq!(image[127], 9, "whole cache line flushes together");
        assert_eq!(image[128], 0);
    }

    #[test]
    fn crash_sim_sync_all_flushes_everything() {
        let media = crash_sim(4096, CrashOptions::default());
        store(&media, 1000, 3);
        media.sync_all();
        assert_eq!(sim(&media).crash_image()[1000], 3);
    }

    #[test]
    fn crash_sim_counts_fences() {
        let media = crash_sim(4096, CrashOptions::default());
        assert_eq!(sim(&media).fence_count(), 0);
        media.persist(0, 8); // persists alone don't count
        assert_eq!(sim(&media).fence_count(), 0);
        media.fence();
        media.fence();
        assert_eq!(sim(&media).fence_count(), 2);
    }

    #[test]
    fn crash_sim_counts_persists_and_the_lines_they_cover() {
        let media = crash_sim(4096, CrashOptions::default());
        media.persist(60, 8); // straddles lines 0 and 1
        media.persist(64, 64);
        media.persist(100, 0); // flushes nothing
        media.persist(4000, 500); // clipped at the region's end
        let sim = sim(&media);
        assert_eq!((sim.persist_count(), sim.lines_flushed()), (3, 2 + 1 + 2));
    }

    #[test]
    fn crash_sim_reports_the_lines_a_persist_has_not_covered() {
        let media = crash_sim(4096, CrashOptions::default());
        assert!(sim(&media).unflushed_lines().is_empty());
        store(&media, 70, 1);
        store(&media, 200, 2);
        store(&media, 4095, 3);
        assert_eq!(sim(&media).unflushed_lines(), [64, 192, 4032]);
        media.persist(64, 1);
        assert_eq!(sim(&media).unflushed_lines(), [192, 4032]);
        // A store of the value the media already holds leaves nothing behind.
        store(&media, 200, 0);
        assert_eq!(sim(&media).unflushed_lines(), [4032]);
        media.sync_all();
        assert!(sim(&media).unflushed_lines().is_empty());
    }

    #[test]
    fn fence_trap_captures_the_exact_boundary() {
        let media = crash_sim(4096, CrashOptions::default());
        let sim = sim(&media);
        sim.capture_at_fence(2);
        store(&media, 0, 1);
        media.persist(0, 1);
        media.fence(); // boundary 1 — trap not yet sprung
        assert!(sim.captured_image().is_none());
        store(&media, 64, 2);
        media.persist(64, 1);
        media.fence(); // boundary 2 — captured here
        let at_two = sim.captured_image().expect("trap fired");
        assert_eq!((at_two[0], at_two[64]), (1, 2));
        // Later writes must not leak into the captured image.
        store(&media, 128, 3);
        media.persist(128, 1);
        media.fence();
        assert_eq!(sim.captured_image().expect("still armed")[128], 0);
        // Re-arming clears the previous capture.
        sim.capture_at_fence(1000);
        assert!(sim.captured_image().is_none());
    }

    #[test]
    fn crash_sim_eviction_is_deterministic() {
        let run = |seed| {
            let media = crash_sim(8192, CrashOptions { eviction_rate: 0.9, seed });
            for i in 0..16usize {
                store(&media, i * 320, i as u8 + 1);
            }
            // Persist only line 0; evictions may pull others in.
            for _ in 0..32 {
                media.persist(0, 8);
            }
            sim(&media).crash_image()
        };
        assert_eq!(run(7), run(7));
    }
}
