//! Storage backends for [`crate::PmemPool`].
//!
//! A backend supplies the mapped byte region plus the persistence primitives
//! (`persist` = flush-to-media, `fence` = ordering). Three implementations:
//!
//! * [`FileBacked`] — `mmap` of a regular file. Pointing the file at
//!   `/dev/shm` reproduces the paper's PM emulation exactly (§V-A). On a
//!   DAX-mounted PM namespace it is durable only on an eADR platform, whose
//!   caches are in the persistence domain: on ADR hardware a store reaches
//!   the media only through `clwb` / `clflushopt` + `sfence`, which this
//!   backend does not issue yet (ROADMAP.md, "Persist for real").
//! * [`Volatile`] — anonymous heap memory for unit tests and for the
//!   ephemeral store variants.
//! * [`CrashSim`] — volatile front region plus a durable shadow. Only
//!   explicitly persisted cache lines (and, optionally, randomly "evicted"
//!   ones) reach the shadow; [`CrashSim::crash_image`] returns what would
//!   survive a power failure.

use crate::layout::CACHE_LINE;
use crate::{PmemError, Result};
use mvkv_sync::sync::atomic::{fence, AtomicU64, Ordering};
use mvkv_sync::sync::Mutex;
use std::fs::OpenOptions;
use std::path::Path;

/// A byte region with persistence primitives. All methods must be safe to
/// call concurrently from many threads.
pub trait Backend: Send + Sync {
    /// Base address of the mapped region.
    fn base(&self) -> *mut u8;
    /// Region length in bytes.
    fn len(&self) -> usize;
    /// True if the region is empty (present for clippy's sake; pools never are).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Flushes `[offset, offset+len)` to the durable media (cache-line
    /// granularity; may flush more than requested, never less).
    fn persist(&self, offset: usize, len: usize);
    /// Store-ordering fence between persists (sfence analogue).
    fn fence(&self) {
        fence(Ordering::SeqCst);
    }
    /// Flushes everything and synchronizes with the media (close path).
    fn sync_all(&self) {}
    /// Downcast hook for crash-simulation-specific APIs.
    fn as_crash_sim(&self) -> Option<&CrashSim> {
        None
    }
}

// ---------------------------------------------------------------------------
// Aligned heap region shared by Volatile and CrashSim.
// ---------------------------------------------------------------------------

/// Page-aligned, zero-initialized heap region with manual lifetime.
struct AlignedRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is an owned, fixed allocation; callers synchronize
// access to its bytes (the pool layers atomics on top).
unsafe impl Send for AlignedRegion {}
// SAFETY: same as Send — raw bytes carry no thread affinity.
unsafe impl Sync for AlignedRegion {}

impl AlignedRegion {
    fn zeroed(len: usize) -> Self {
        let layout = std::alloc::Layout::from_size_align(len, 4096).expect("valid layout");
        // SAFETY: layout has non-zero size (callers validate len > 0).
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

// ---------------------------------------------------------------------------
// FileBacked
// ---------------------------------------------------------------------------

/// Memory-mapped file backend — the production persistence path.
///
/// File pools assume tmpfs (`/dev/shm`, the paper's emulation): `persist`
/// is a no-op beyond a release fence, because there is no media behind the
/// caches, exactly like the paper's setup. A DAX mount gets the same
/// guarantee only on an eADR platform, where a store is durable once it
/// leaves the store buffer; on ADR hardware it needs a `clwb` /
/// `clflushopt` per line and an `sfence`, which `persist` and `fence` do
/// not issue yet (ROADMAP.md, "Persist for real"). On a regular file
/// system only `sync_all` (an `msync` of the whole map) reaches the disk.
pub struct FileBacked {
    map: memmap2::MmapMut,
}

impl FileBacked {
    /// Creates (truncating) a file of `len` bytes and maps it.
    pub fn create<P: AsRef<Path>>(path: P, len: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(len as u64)?;
        // SAFETY: we own the file; len matches set_len.
        let map = unsafe { memmap2::MmapMut::map_mut(&file)? };
        Ok(FileBacked { map })
    }

    /// Maps an existing pool file read-write.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let meta = file.metadata()?;
        if meta.len() == 0 {
            return Err(PmemError::BadMagic);
        }
        // SAFETY: mapping length tracks the file length.
        let map = unsafe { memmap2::MmapMut::map_mut(&file)? };
        Ok(FileBacked { map })
    }
}

impl Backend for FileBacked {
    fn base(&self) -> *mut u8 {
        self.map.as_ptr() as *mut u8
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn persist(&self, _offset: usize, _len: usize) {
        // tmpfs, or DAX on eADR: stores are durable once globally visible.
        // DAX on ADR needs a clwb per line here (ROADMAP.md, "Persist for real").
        fence(Ordering::Release);
    }

    fn sync_all(&self) {
        let _ = self.map.flush();
    }
}

// ---------------------------------------------------------------------------
// Volatile
// ---------------------------------------------------------------------------

/// Plain heap backend: no durability, used by tests and ephemeral variants.
pub struct Volatile {
    region: AlignedRegion,
}

impl Volatile {
    pub fn new(len: usize) -> Self {
        Volatile { region: AlignedRegion::zeroed(len) }
    }
}

impl Backend for Volatile {
    fn base(&self) -> *mut u8 {
        self.region.ptr
    }

    fn len(&self) -> usize {
        self.region.len
    }

    fn persist(&self, _offset: usize, _len: usize) {}
}

// ---------------------------------------------------------------------------
// CrashSim
// ---------------------------------------------------------------------------

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

/// Volatile front region + durable shadow. Only persisted (or randomly
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

    /// Number of `fence` calls issued against this backend so far.
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
}

impl Backend for CrashSim {
    fn base(&self) -> *mut u8 {
        self.front.ptr
    }

    fn len(&self) -> usize {
        self.front.len
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

    fn sync_all(&self) {
        self.propagate(0, self.front.len);
    }

    fn as_crash_sim(&self) -> Option<&CrashSim> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_is_zeroed_and_writable() {
        let v = Volatile::new(8192);
        assert_eq!(v.len(), 8192);
        // SAFETY: exclusive access in test.
        unsafe {
            assert_eq!(*v.base(), 0);
            *v.base().add(100) = 42;
            assert_eq!(*v.base().add(100), 42);
        }
    }

    #[test]
    fn crash_sim_from_bytes_holds_them_in_caches_and_media() {
        let data: Vec<u8> = (0..=255u8).collect();
        let sim = CrashSim::from_bytes(&data);
        // SAFETY: base()..base()+len() is the region's own mapping.
        let view = unsafe { std::slice::from_raw_parts(sim.base(), sim.len()) };
        assert_eq!((view, &sim.crash_image()[..]), (&data[..], &data[..]));
    }

    #[test]
    fn file_backed_persists_across_reopen() {
        let path = std::env::temp_dir().join(format!("mvkv-backend-{}.pool", std::process::id()));
        {
            let f = FileBacked::create(&path, 16384).unwrap();
            // SAFETY: 5000 < 16384, inside the freshly created mapping.
            unsafe { *f.base().add(5000) = 0xAB };
            f.persist(5000, 1);
            f.sync_all();
        }
        {
            let f = FileBacked::open(&path).unwrap();
            assert_eq!(f.len(), 16384);
            // SAFETY: 5000 < 16384, inside the reopened mapping.
            unsafe { assert_eq!(*f.base().add(5000), 0xAB) };
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_file_errors() {
        let r = FileBacked::open("/definitely/not/a/real/path.pool");
        assert!(r.is_err());
    }

    #[test]
    fn crash_sim_drops_unpersisted_writes() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        // SAFETY: both offsets are < 4096, inside the simulated region.
        unsafe {
            *sim.base().add(0) = 1; // persisted below
            *sim.base().add(256) = 2; // never persisted
        }
        sim.persist(0, 1);
        let image = sim.crash_image();
        assert_eq!(image[0], 1);
        assert_eq!(image[256], 0, "unpersisted write must not survive the crash");
    }

    #[test]
    fn crash_sim_persist_is_cache_line_granular() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        // SAFETY: all offsets are < 4096, inside the simulated region.
        unsafe {
            *sim.base().add(64) = 7;
            *sim.base().add(127) = 9; // same cache line as 64..128
            *sim.base().add(128) = 5; // next line
        }
        sim.persist(64, 1);
        let image = sim.crash_image();
        assert_eq!(image[64], 7);
        assert_eq!(image[127], 9, "whole cache line flushes together");
        assert_eq!(image[128], 0);
    }

    #[test]
    fn crash_sim_sync_all_flushes_everything() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        // SAFETY: 1000 < 4096, inside the simulated region.
        unsafe { *sim.base().add(1000) = 3 };
        sim.sync_all();
        assert_eq!(sim.crash_image()[1000], 3);
    }

    #[test]
    fn crash_sim_counts_fences() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        assert_eq!(sim.fence_count(), 0);
        sim.persist(0, 8); // persists alone don't count
        assert_eq!(sim.fence_count(), 0);
        sim.fence();
        sim.fence();
        assert_eq!(sim.fence_count(), 2);
    }

    #[test]
    fn crash_sim_counts_persists_and_the_lines_they_cover() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        sim.persist(60, 8); // straddles lines 0 and 1
        sim.persist(64, 64);
        sim.persist(100, 0); // flushes nothing
        sim.persist(4000, 500); // clipped at the region's end
        assert_eq!((sim.persist_count(), sim.lines_flushed()), (3, 2 + 1 + 2));
    }

    #[test]
    fn crash_sim_reports_the_lines_a_persist_has_not_covered() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        assert!(sim.unflushed_lines().is_empty());
        // SAFETY: all offsets are < 4096, inside the simulated region.
        unsafe {
            *sim.base().add(70) = 1;
            *sim.base().add(200) = 2;
            *sim.base().add(4095) = 3;
        }
        assert_eq!(sim.unflushed_lines(), [64, 192, 4032]);
        sim.persist(64, 1);
        assert_eq!(sim.unflushed_lines(), [192, 4032]);
        // A store of the value the media already holds leaves nothing behind.
        // SAFETY: as above.
        unsafe { *sim.base().add(200) = 0 };
        assert_eq!(sim.unflushed_lines(), [4032]);
        sim.sync_all();
        assert!(sim.unflushed_lines().is_empty());
    }

    #[test]
    fn fence_trap_captures_the_exact_boundary() {
        let sim = CrashSim::new(4096, CrashOptions::default());
        sim.capture_at_fence(2);
        // SAFETY: offset 0 is inside the simulated region.
        unsafe { *sim.base().add(0) = 1 };
        sim.persist(0, 1);
        sim.fence(); // boundary 1 — trap not yet sprung
        assert!(sim.captured_image().is_none());
        // SAFETY: offset 64 is inside the simulated region.
        unsafe { *sim.base().add(64) = 2 };
        sim.persist(64, 1);
        sim.fence(); // boundary 2 — captured here
        let at_two = sim.captured_image().expect("trap fired");
        assert_eq!((at_two[0], at_two[64]), (1, 2));
        // Later writes must not leak into the captured image.
        // SAFETY: offset 128 is inside the simulated region.
        unsafe { *sim.base().add(128) = 3 };
        sim.persist(128, 1);
        sim.fence();
        assert_eq!(sim.captured_image().expect("still armed")[128], 0);
        // Re-arming clears the previous capture.
        sim.capture_at_fence(1000);
        assert!(sim.captured_image().is_none());
    }

    #[test]
    fn crash_sim_eviction_is_deterministic() {
        let run = |seed| {
            let sim = CrashSim::new(8192, CrashOptions { eviction_rate: 0.9, seed });
            for i in 0..16usize {
                // SAFETY: 15 * 320 < 8192, inside the simulated region.
                unsafe { *sim.base().add(i * 320) = i as u8 + 1 };
            }
            // Persist only line 0; evictions may pull others in.
            for _ in 0..32 {
                sim.persist(0, 8);
            }
            sim.crash_image()
        };
        assert_eq!(run(7), run(7));
    }
}
