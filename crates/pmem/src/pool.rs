//! [`PmemPool`] — the central pool abstraction.

use crate::backend::{AlignedRegion, CrashOptions, CrashSim, Media};
use crate::layout::*;
use crate::{alloc::Allocator, PmemError, Result};
use mvkv_sync::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::path::Path;

/// A fixed-size pool of (emulated) persistent memory.
///
/// A pool owns one region — a mapped file, a heap region or a
/// [`CrashSim`] — laid out per [`crate::layout`]: a validated superblock
/// followed by a walkable heap managed by a thread-safe allocator. All
/// addressing is pool-relative (`u64` offsets / [`crate::PPtr`]), so a pool
/// re-opened at a different base address stays valid.
///
/// # Examples
///
/// ```
/// use mvkv_pmem::PmemPool;
///
/// let pool = PmemPool::create_volatile(1 << 20)?; // create_file for durability
/// let off = pool.alloc(64)?;
/// pool.write_u64(off, 42);
/// pool.persist(off, 8); // the clwb analogue
/// pool.set_root(off);   // application entry point
/// assert_eq!(pool.read_u64(pool.root()), 42);
/// # Ok::<(), mvkv_pmem::PmemError>(())
/// ```
pub struct PmemPool {
    /// The region's base address and length, read by every access without
    /// a call or a match.
    base: *mut u8,
    len: usize,
    /// What the region is, and how `persist` and `fence` reach its media.
    media: Media,
    pub(crate) allocator: Allocator,
}

// SAFETY: `base` points into `media`'s region, which the pool owns and which
// never moves (a mapping or a heap allocation held by address); its bytes
// are shared through atomics or under the contracts of the `unsafe` methods.
unsafe impl Send for PmemPool {}
// SAFETY: as for `Send`.
unsafe impl Sync for PmemPool {}

impl PmemPool {
    // -- constructors -------------------------------------------------------

    /// Creates a new pool in a file of `len` bytes (truncates any existing
    /// content). Place the file under `/dev/shm` to reproduce the paper's
    /// persistent-memory emulation.
    pub fn create_file<P: AsRef<Path>>(path: P, len: usize) -> Result<Self> {
        Self::format(len, || Media::create_file(path.as_ref(), len))
    }

    /// Opens an existing pool file, validating its superblock and re-deriving
    /// the allocator's free lists by scanning the heap.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::attach(Media::open_file(path.as_ref())?)
    }

    /// Creates a heap-backed pool (no durability) — tests, ephemeral stores.
    pub fn create_volatile(len: usize) -> Result<Self> {
        Self::format(len, || Ok(Media::Heap(AlignedRegion::zeroed(len))))
    }

    /// Creates a crash-simulation pool; pair with [`PmemPool::crash_image`]
    /// and [`PmemPool::open_image`].
    pub fn create_crash_sim(len: usize, options: CrashOptions) -> Result<Self> {
        Self::format(len, || Ok(Media::CrashSim(CrashSim::new(len, options))))
    }

    /// Re-attaches to a crash image (or any serialized pool bytes), running
    /// the same validation + heap scan as a file reopen. The pool is a
    /// crash-simulation pool holding `bytes` as its durable state, so a
    /// recovery's fences can be counted and its result crashed again.
    pub fn open_image(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MIN_POOL_LEN {
            return Err(PmemError::BadMagic);
        }
        Self::attach(Media::CrashSim(CrashSim::from_bytes(bytes)))
    }

    fn new(media: Media) -> Self {
        let (base, len) = media.region();
        PmemPool { base, len, media, allocator: Allocator::new() }
    }

    /// Formats a new region of `len` bytes, which `media` makes only once
    /// `len` is known to hold a superblock.
    fn format(len: usize, media: impl FnOnce() -> Result<Media>) -> Result<Self> {
        if len < MIN_POOL_LEN {
            return Err(PmemError::PoolTooSmall { requested: len, minimum: MIN_POOL_LEN });
        }
        let pool = Self::new(media()?);
        let len = pool.len;
        pool.write_u64(OFF_POOL_LEN, len as u64);
        pool.write_u64(OFF_ROOT, 0);
        pool.write_u64(OFF_BUMP, HEAP_START);
        pool.write_u64(OFF_VERSION, LAYOUT_VERSION);
        pool.persist(OFF_VERSION, (HEAP_START - OFF_VERSION) as usize);
        pool.fence();
        // Magic is persisted last: a crash mid-format leaves an unopenable
        // (rather than half-formatted) pool.
        pool.write_u64(OFF_MAGIC, MAGIC);
        pool.persist(OFF_MAGIC, 8);
        pool.fence();
        Ok(pool)
    }

    /// Validates the superblock of a region its caller has checked holds
    /// one, and rebuilds the allocator's free lists.
    fn attach(media: Media) -> Result<Self> {
        let pool = Self::new(media);
        let len = pool.len;
        if pool.read_u64(OFF_MAGIC) != MAGIC {
            return Err(PmemError::BadMagic);
        }
        let version = pool.read_u64(OFF_VERSION);
        if version != LAYOUT_VERSION {
            return Err(PmemError::BadLayoutVersion { found: version, expected: LAYOUT_VERSION });
        }
        let recorded = pool.read_u64(OFF_POOL_LEN);
        if recorded != len as u64 {
            return Err(PmemError::LengthMismatch { recorded, mapped: len as u64 });
        }
        pool.allocator.rebuild_from_heap(&pool);
        Ok(pool)
    }

    // -- superblock ----------------------------------------------------------

    /// User-defined entry-point offset (0 = unset). Applications store the
    /// offset of their top-level structure here.
    pub fn root(&self) -> u64 {
        self.atomic_u64(OFF_ROOT).load(Ordering::Acquire)
    }

    /// Atomically publishes the root offset (persisted).
    pub fn set_root(&self, off: u64) {
        self.atomic_u64(OFF_ROOT).store(off, Ordering::Release);
        self.persist(OFF_ROOT, 8);
        self.fence();
    }

    // -- allocation ----------------------------------------------------------

    /// Allocates `len` bytes of 16-aligned persistent memory; returns the
    /// payload offset. The block's run header (or large-block header) is
    /// persisted before return.
    pub fn alloc(&self, len: usize) -> Result<u64> {
        self.allocator.alloc(self, len)
    }

    /// Returns a previously allocated block to the pool. `off` must be a
    /// payload offset obtained from [`PmemPool::alloc`]; freeing any other
    /// offset, or a block twice, panics (see [`Allocator::dealloc`]).
    ///
    /// [`Allocator::dealloc`]: crate::alloc::Allocator::dealloc
    pub fn dealloc(&self, off: u64) {
        self.allocator.dealloc(self, off);
    }

    /// Usable payload capacity of the block at payload offset `off`: its
    /// size class, or a large block's payload. Panics if `off` starts no
    /// block.
    pub fn block_capacity(&self, off: u64) -> usize {
        self.allocator.block_capacity(self, off)
    }

    /// Offset of the durable word that says whether the block at `off` is
    /// allocated: its run's occupancy word (shared with up to 31 other
    /// blocks) for a class block, its header's state word for a large one.
    /// For tools and fault-injection tests. Panics if `off` starts no block.
    pub fn state_word(&self, off: u64) -> u64 {
        self.allocator.state_word(self, off)
    }

    /// Allocator counters (bump position, live blocks, …).
    pub fn alloc_stats(&self) -> crate::alloc::AllocStats {
        self.allocator.stats(self)
    }

    /// Payload bytes of the free class blocks on the allocator's shared
    /// list, and on each shard's lists ([`crate::alloc::num_shards`]
    /// entries); free large blocks are on one global list, counted in none.
    pub fn free_list_bytes(&self) -> (u64, Vec<u64>) {
        self.allocator.free_list_bytes()
    }

    /// Heap blocks whose state word was torn or corrupt when this pool was
    /// opened — [`crate::recovery::audit`]'s `indeterminate_blocks` for the
    /// pool as opened, counted by the heap walk every open does anyway.
    pub fn indeterminate_blocks_at_open(&self) -> u64 {
        self.allocator.indeterminate_at_open()
    }

    // -- persistence primitives ----------------------------------------------

    /// Flushes `[off, off+len)` to the durable media.
    ///
    /// Deliberately *not* counted on the obs registry: persist is called
    /// ~13x per insert from the innermost write loops, and even a buffered
    /// per-call bump here measured ~5% of single-thread insert throughput
    /// (it defeats inlining of this two-instruction wrapper). Fences carry
    /// the architectural signal and are counted; exact persist and flushed
    /// line counts are kept by the crash simulator, which pays per-line
    /// costs anyway ([`PmemPool::persist_count`], [`PmemPool::lines_flushed`]).
    #[inline]
    pub fn persist(&self, off: u64, len: usize) {
        debug_assert!(off as usize + len <= self.len);
        self.media.persist(off as usize, len);
    }

    /// Store-ordering fence between dependent persists.
    ///
    /// Counted process-wide on the obs registry (`mvkv_pmem_fences_total`);
    /// the crash simulator additionally keeps its own per-pool count
    /// ([`PmemPool::fence_count`]) for tests that assert exact per-operation
    /// fence budgets.
    ///
    /// # Panics
    /// In a debug build, when the calling thread holds an `mvkv_sync` mutex
    /// guard: a fence under a lock serializes unrelated writers on it.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn fence(&self) {
        mvkv_sync::sync::assert_unlocked("PmemPool::fence");
        mvkv_obs::counter_inc!("mvkv_pmem_fences_total");
        self.media.fence();
    }

    /// Full flush + media synchronization (close path).
    pub fn sync_all(&self) {
        self.media.sync_all();
    }

    // -- raw access ----------------------------------------------------------

    /// Total mapped length of the pool in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Pools are never zero-length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A word-atomic view of the 8 bytes at `off` (must be 8-aligned).
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        debug_assert_eq!(off % 8, 0, "atomic access must be 8-aligned");
        debug_assert!(off as usize + 8 <= self.len);
        // SAFETY: in-bounds, aligned; AtomicU64 has no invalid bit patterns;
        // the backing region lives as long as `self`.
        unsafe { &*(self.base.add(off as usize) as *const AtomicU64) }
    }

    /// A word-atomic view of the 4 bytes at `off` (must be 4-aligned).
    #[inline]
    pub fn atomic_u32(&self, off: u64) -> &AtomicU32 {
        debug_assert_eq!(off % 4, 0, "atomic access must be 4-aligned");
        debug_assert!(off as usize + 4 <= self.len);
        // SAFETY: in-bounds, aligned; AtomicU32 has no invalid bit patterns;
        // the backing region lives as long as `self`.
        unsafe { &*(self.base.add(off as usize) as *const AtomicU32) }
    }

    /// Reads the plain (non-atomic) u64 at `off`.
    #[inline]
    pub fn read_u64(&self, off: u64) -> u64 {
        self.atomic_u64(off).load(Ordering::Acquire)
    }

    /// Writes the plain u64 at `off` (not persisted — callers batch flushes).
    #[inline]
    pub fn write_u64(&self, off: u64, val: u64) {
        self.atomic_u64(off).store(val, Ordering::Release);
    }

    /// Immutable byte view of `[off, off+len)`.
    ///
    /// # Safety
    /// Caller must ensure no thread mutates the range for the lifetime of the
    /// returned slice.
    pub unsafe fn bytes(&self, off: u64, len: usize) -> &[u8] {
        assert!(
            (off as usize).checked_add(len).is_some_and(|end| end <= self.len),
            "bytes({off}, {len}) out of bounds"
        );
        // SAFETY: range bounds-checked above; immutability is the
        // caller's contract (see # Safety).
        unsafe { std::slice::from_raw_parts(self.base.add(off as usize), len) }
    }

    /// Copies `data` into the pool at `off` (not persisted).
    ///
    /// # Safety
    /// Caller must ensure exclusive access to the destination range.
    pub unsafe fn write_bytes(&self, off: u64, data: &[u8]) {
        assert!(
            (off as usize).checked_add(data.len()).is_some_and(|end| end <= self.len),
            "write_bytes({off}, {}) out of bounds",
            data.len()
        );
        // SAFETY: range bounds-checked above; exclusive access is the
        // caller's contract (see # Safety).
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.base.add(off as usize), data.len())
        };
    }

    /// Zero-fills `[off, off+len)` in place (not persisted).
    ///
    /// # Safety
    /// Caller must ensure exclusive access to the range.
    pub unsafe fn zero_bytes(&self, off: u64, len: usize) {
        assert!(
            (off as usize).checked_add(len).is_some_and(|end| end <= self.len),
            "zero_bytes({off}, {len}) out of bounds"
        );
        // SAFETY: range bounds-checked above; exclusive access is the
        // caller's contract (see # Safety).
        unsafe { std::slice::from_raw_parts_mut(self.base.add(off as usize), len) }.fill(0);
    }

    /// Typed reference to a `T` at `off`.
    ///
    /// # Safety
    /// `off` must point at a properly aligned, initialized `T` inside the
    /// pool, and aliasing rules (`&T` vs concurrent mutation) must be upheld
    /// by the caller. `T` should contain only position-independent data
    /// (offsets, not absolute pointers).
    #[inline]
    pub unsafe fn typed<T>(&self, off: u64) -> &T {
        debug_assert_eq!(off as usize % std::mem::align_of::<T>(), 0);
        debug_assert!(off as usize + std::mem::size_of::<T>() <= self.len);
        // SAFETY: alignment/bounds debug-checked above; initialization
        // and aliasing are the caller's contract (see # Safety).
        unsafe { &*(self.base.add(off as usize) as *const T) }
    }

    /// Raw pointer to `off` — escape hatch for interior-atomic structs.
    #[inline]
    pub fn base_ptr(&self, off: u64) -> *mut u8 {
        debug_assert!((off as usize) < self.len);
        // SAFETY: the add stays in bounds, asserted above.
        unsafe { self.base.add(off as usize) }
    }

    // -- crash simulation ----------------------------------------------------

    fn crash_sim(&self) -> Option<&CrashSim> {
        match &self.media {
            Media::CrashSim(sim) => Some(sim),
            Media::File(_) | Media::Heap(_) => None,
        }
    }

    /// On a crash-sim pool, returns the power-failure image; `None` otherwise.
    pub fn crash_image(&self) -> Option<Vec<u8>> {
        self.crash_sim().map(CrashSim::crash_image)
    }

    /// On a crash-sim pool, the lifetime count of ordering fences issued;
    /// `None` otherwise. Used by tests asserting per-operation fence cost.
    pub fn fence_count(&self) -> Option<u64> {
        self.crash_sim().map(CrashSim::fence_count)
    }

    /// On a crash-sim pool, the lifetime count of non-empty persists.
    pub fn persist_count(&self) -> Option<u64> {
        self.crash_sim().map(CrashSim::persist_count)
    }

    /// On a crash-sim pool, the 64-byte lines those persists covered.
    pub fn lines_flushed(&self) -> Option<u64> {
        self.crash_sim().map(CrashSim::lines_flushed)
    }

    /// On a crash-sim pool, the lines written but not yet persisted
    /// ([`CrashSim::unflushed_lines`]).
    pub fn unflushed_lines(&self) -> Option<Vec<u64>> {
        self.crash_sim().map(CrashSim::unflushed_lines)
    }

    /// On a crash-sim pool, arms the fence trap: the `n`-th fence (1-based)
    /// snapshots the durable state as if power failed at that boundary.
    /// Returns false on non-crash-sim pools. See [`CrashSim::capture_at_fence`].
    pub fn capture_at_fence(&self, n: u64) -> bool {
        self.crash_sim().map(|sim| sim.capture_at_fence(n)).is_some()
    }

    /// The image captured by an armed fence trap, if it has fired.
    pub fn captured_image(&self) -> Option<Vec<u8>> {
        self.crash_sim().and_then(CrashSim::captured_image)
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("len", &self.len())
            .field("root", &self.root())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "PmemPool::fence under a live mvkv_sync Mutex guard")]
    fn a_fence_under_a_facade_guard_panics() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        pool.fence();
        let lock = mvkv_sync::sync::Mutex::new(());
        let _guard = lock.lock();
        pool.fence();
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "mvkv-pool-{}-{}-{}.pool",
            tag,
            std::process::id(),
            std::time::SystemTime::now().elapsed().map(|d| d.subsec_nanos()).unwrap_or(0)
        ))
    }

    #[test]
    fn create_and_reopen_file_pool() {
        let path = temp_path("reopen");
        {
            let pool = PmemPool::create_file(&path, 1 << 20).unwrap();
            let off = pool.alloc(64).unwrap();
            pool.write_u64(off, 0xDEAD_BEEF);
            pool.persist(off, 8);
            pool.set_root(off);
            pool.sync_all();
        }
        {
            let pool = PmemPool::open_file(&path).unwrap();
            let off = pool.root();
            assert_ne!(off, 0);
            assert_eq!(pool.read_u64(off), 0xDEAD_BEEF);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn volatile_pool_basics() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        assert_eq!(pool.root(), 0);
        let a = pool.alloc(100).unwrap();
        let b = pool.alloc(100).unwrap();
        assert_ne!(a, b);
        assert_eq!(a % BLOCK_ALIGN, 0);
        assert_eq!(b % BLOCK_ALIGN, 0);
        pool.write_u64(a, 1);
        pool.write_u64(b, 2);
        assert_eq!(pool.read_u64(a), 1);
        assert_eq!(pool.read_u64(b), 2);
    }

    #[test]
    fn too_small_pool_is_rejected() {
        match PmemPool::create_volatile(100) {
            Err(PmemError::PoolTooSmall { .. }) => {}
            other => panic!("expected PoolTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_length_region_is_refused_before_it_is_allocated() {
        let too_small = |r: Result<PmemPool>| matches!(r, Err(PmemError::PoolTooSmall { .. }));
        assert!(too_small(PmemPool::create_volatile(0)));
        assert!(too_small(PmemPool::create_crash_sim(0, CrashOptions::default())));
        assert!(matches!(PmemPool::open_image(&[]), Err(PmemError::BadMagic)));
    }

    #[test]
    fn crash_sim_accessors_are_none_on_file_and_volatile_pools() {
        let path = temp_path("accessors");
        let pools = [PmemPool::create_file(&path, 1 << 20), PmemPool::create_volatile(1 << 20)];
        for pool in pools.map(Result::unwrap) {
            pool.fence();
            assert!(pool.crash_image().is_none());
            assert!(pool.fence_count().is_none());
            assert!(pool.persist_count().is_none());
            assert!(pool.lines_flushed().is_none());
            assert!(pool.unflushed_lines().is_none());
            assert!(!pool.capture_at_fence(1));
            assert!(pool.captured_image().is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_garbage_image_is_rejected() {
        let garbage = vec![0xFFu8; MIN_POOL_LEN];
        match PmemPool::open_image(&garbage) {
            Err(PmemError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn open_wrong_version_is_rejected() {
        let pool = PmemPool::create_volatile(MIN_POOL_LEN).unwrap();
        pool.write_u64(OFF_VERSION, 999);
        // SAFETY: [0, len) is in bounds; no writer races the snapshot.
        let bytes = unsafe { pool.bytes(0, pool.len()).to_vec() };
        match PmemPool::open_image(&bytes) {
            Err(PmemError::BadLayoutVersion { found: 999, .. }) => {}
            other => panic!("expected BadLayoutVersion, got {other:?}"),
        }
    }

    #[test]
    fn previous_layout_version_is_refused() {
        // The previous layout's histories have entries, headers and blocks
        // of other sizes: read as the current one they would be garbage.
        // There is no migration and no second read path.
        let previous = LAYOUT_VERSION - 1;
        let pool = PmemPool::create_volatile(MIN_POOL_LEN).unwrap();
        pool.write_u64(OFF_VERSION, previous);
        // SAFETY: [0, len) is in bounds; no writer races the snapshot.
        let bytes = unsafe { pool.bytes(0, pool.len()).to_vec() };
        match PmemPool::open_image(&bytes) {
            Err(PmemError::BadLayoutVersion { found, expected })
                if (found, expected) == (previous, LAYOUT_VERSION) => {}
            other => panic!("expected BadLayoutVersion for v{previous}, got {other:?}"),
        }
    }

    #[test]
    fn root_roundtrip() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        pool.set_root(4096);
        assert_eq!(pool.root(), 4096);
    }

    #[test]
    fn crash_sim_pool_recovers_persisted_root() {
        let pool = PmemPool::create_crash_sim(1 << 20, CrashOptions::default()).unwrap();
        let off = pool.alloc(32).unwrap();
        pool.write_u64(off, 777);
        pool.persist(off, 8);
        pool.set_root(off);

        let image = pool.crash_image().expect("crash-sim pool");
        let recovered = PmemPool::open_image(&image).unwrap();
        assert_eq!(recovered.root(), off);
        assert_eq!(recovered.read_u64(off), 777);
    }

    #[test]
    fn crash_sim_pool_drops_unpersisted_data() {
        let pool = PmemPool::create_crash_sim(1 << 20, CrashOptions::default()).unwrap();
        let off = pool.alloc(32).unwrap();
        pool.write_u64(off, 123);
        // No persist of the payload.
        let image = pool.crash_image().unwrap();
        let recovered = PmemPool::open_image(&image).unwrap();
        assert_eq!(recovered.read_u64(off), 0, "unpersisted payload must be lost");
    }

    #[test]
    fn bytes_roundtrip() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        let off = pool.alloc(256).unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();
        // SAFETY: `off` is a fresh 256-byte allocation; the read view
        // covers the same block with no concurrent writer.
        unsafe { pool.write_bytes(off, &payload) };
        // SAFETY: same block, still no concurrent writer.
        let view = unsafe { pool.bytes(off, 256) };
        assert_eq!(view, &payload[..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bytes_out_of_bounds_panics() {
        let pool = PmemPool::create_volatile(MIN_POOL_LEN).unwrap();
        // SAFETY: deliberately out of bounds — the call must panic.
        let _ = unsafe { pool.bytes(MIN_POOL_LEN as u64 - 4, 16) };
    }
}
