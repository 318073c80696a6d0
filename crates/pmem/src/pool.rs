//! [`PmemPool`] — the central pool abstraction.

use crate::backend::{Backend, CrashOptions, CrashSim, FileBacked, Volatile};
use crate::layout::*;
use crate::{alloc::Allocator, PmemError, Result};
use mvkv_sync::sync::atomic::{AtomicU64, Ordering};
use mvkv_sync::sync::Mutex;
use std::path::Path;

/// A fixed-size pool of (emulated) persistent memory.
///
/// A pool owns one [`Backend`] region laid out per [`crate::layout`]: a
/// validated superblock followed by a walkable heap managed by a thread-safe
/// allocator. All addressing is pool-relative (`u64` offsets / [`crate::PPtr`]),
/// so a pool re-opened at a different base address stays valid.
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
    backend: Box<dyn Backend>,
    pub(crate) allocator: Allocator,
    /// Serializes undo-log transactions (see [`crate::txn`]).
    txn_lock: Mutex<()>,
}

impl PmemPool {
    // -- constructors -------------------------------------------------------

    /// Creates a new pool in a file of `len` bytes (truncates any existing
    /// content). Place the file under `/dev/shm` to reproduce the paper's
    /// persistent-memory emulation.
    pub fn create_file<P: AsRef<Path>>(path: P, len: usize) -> Result<Self> {
        let backend = Box::new(FileBacked::create(path, len)?);
        Self::format(backend)
    }

    /// Opens an existing pool file, validating its superblock and re-deriving
    /// the allocator's free lists by scanning the heap.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Self> {
        let backend = Box::new(FileBacked::open(path)?);
        Self::attach(backend)
    }

    /// Creates a heap-backed pool (no durability) — tests, ephemeral stores.
    pub fn create_volatile(len: usize) -> Result<Self> {
        Self::format(Box::new(Volatile::new(len)))
    }

    /// Creates a crash-simulation pool; pair with [`PmemPool::crash_image`]
    /// and [`PmemPool::open_image`].
    pub fn create_crash_sim(len: usize, options: CrashOptions) -> Result<Self> {
        Self::format(Box::new(CrashSim::new(len, options)))
    }

    /// Re-attaches to a crash image (or any serialized pool bytes), running
    /// the same validation + heap scan as a file reopen.
    pub fn open_image(bytes: &[u8]) -> Result<Self> {
        Self::attach(Box::new(Volatile::from_bytes(bytes)))
    }

    fn format(backend: Box<dyn Backend>) -> Result<Self> {
        let len = backend.len();
        if len < MIN_POOL_LEN {
            return Err(PmemError::PoolTooSmall { requested: len, minimum: MIN_POOL_LEN });
        }
        let pool = PmemPool {
            backend,
            allocator: Allocator::new(),
            txn_lock: Mutex::new(()),
        };
        pool.write_u64(OFF_POOL_LEN, len as u64);
        pool.write_u64(OFF_ROOT, 0);
        pool.write_u64(OFF_BUMP, HEAP_START);
        pool.write_u64(OFF_CLEAN_SHUTDOWN, 0);
        pool.write_u64(OFF_TXN_LOG, 0);
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

    fn attach(backend: Box<dyn Backend>) -> Result<Self> {
        let len = backend.len();
        if len < MIN_POOL_LEN {
            return Err(PmemError::BadMagic);
        }
        let pool = PmemPool {
            backend,
            allocator: Allocator::new(),
            txn_lock: Mutex::new(()),
        };
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
        // Roll back any transaction that was open at crash time *before*
        // the heap scan (the log block itself is a normal allocation).
        crate::txn::recover(&pool);
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
    /// the architectural signal and are counted; exact persist counts are
    /// available from the crash-sim backend, which pays per-line costs
    /// anyway (`mvkv_pmem_crash_sim_persists_total`).
    pub fn persist(&self, off: u64, len: usize) {
        debug_assert!(off as usize + len <= self.backend.len());
        self.backend.persist(off as usize, len);
    }

    /// Store-ordering fence between dependent persists.
    ///
    /// Counted process-wide on the obs registry (`mvkv_pmem_fences_total`);
    /// the crash simulator additionally keeps its own per-pool count
    /// ([`PmemPool::fence_count`]) for tests that assert exact per-operation
    /// fence budgets.
    pub fn fence(&self) {
        mvkv_obs::counter_inc_hot!("mvkv_pmem_fences_total");
        self.backend.fence();
    }

    /// Full flush + media synchronization (close path).
    pub fn sync_all(&self) {
        self.backend.sync_all();
    }

    // -- raw access ----------------------------------------------------------

    /// Total mapped length of the pool in bytes.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Pools are never zero-length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A word-atomic view of the 8 bytes at `off` (must be 8-aligned).
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        debug_assert_eq!(off % 8, 0, "atomic access must be 8-aligned");
        debug_assert!(off as usize + 8 <= self.backend.len());
        // SAFETY: in-bounds, aligned; AtomicU64 has no invalid bit patterns;
        // the backing region lives as long as `self`.
        unsafe { &*(self.backend.base().add(off as usize) as *const AtomicU64) }
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
            (off as usize).checked_add(len).is_some_and(|end| end <= self.backend.len()),
            "bytes({off}, {len}) out of bounds"
        );
        // SAFETY: range bounds-checked above; immutability is the
        // caller's contract (see # Safety).
        unsafe { std::slice::from_raw_parts(self.backend.base().add(off as usize), len) }
    }

    /// Copies `data` into the pool at `off` (not persisted).
    ///
    /// # Safety
    /// Caller must ensure exclusive access to the destination range.
    pub unsafe fn write_bytes(&self, off: u64, data: &[u8]) {
        assert!(
            (off as usize).checked_add(data.len()).is_some_and(|end| end <= self.backend.len()),
            "write_bytes({off}, {}) out of bounds",
            data.len()
        );
        // SAFETY: range bounds-checked above; exclusive access is the
        // caller's contract (see # Safety).
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.backend.base().add(off as usize),
                data.len(),
            )
        };
    }

    /// Zero-fills `[off, off+len)` in place (not persisted).
    ///
    /// # Safety
    /// Caller must ensure exclusive access to the range.
    pub unsafe fn zero_bytes(&self, off: u64, len: usize) {
        assert!(
            (off as usize).checked_add(len).is_some_and(|end| end <= self.backend.len()),
            "zero_bytes({off}, {len}) out of bounds"
        );
        // SAFETY: range bounds-checked above; exclusive access is the
        // caller's contract (see # Safety).
        unsafe { std::slice::from_raw_parts_mut(self.backend.base().add(off as usize), len) }
            .fill(0);
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
        debug_assert!(off as usize + std::mem::size_of::<T>() <= self.backend.len());
        // SAFETY: alignment/bounds debug-checked above; initialization
        // and aliasing are the caller's contract (see # Safety).
        unsafe { &*(self.backend.base().add(off as usize) as *const T) }
    }

    /// Raw pointer to `off` — escape hatch for interior-atomic structs.
    #[inline]
    pub fn base_ptr(&self, off: u64) -> *mut u8 {
        debug_assert!((off as usize) < self.backend.len());
        // SAFETY: the add stays in bounds, asserted above.
        unsafe { self.backend.base().add(off as usize) }
    }

    /// The transaction serialization lock (used by [`crate::txn`]).
    pub(crate) fn txn_lock(&self) -> &Mutex<()> {
        &self.txn_lock
    }

    /// Begins an undo-log transaction (see [`crate::txn`]).
    pub fn begin_txn(&self) -> crate::Result<crate::txn::Txn<'_>> {
        crate::txn::begin(self)
    }

    // -- crash simulation ----------------------------------------------------

    /// On a crash-sim pool, returns the power-failure image; `None` otherwise.
    pub fn crash_image(&self) -> Option<Vec<u8>> {
        self.backend.as_crash_sim().map(CrashSim::crash_image)
    }

    /// On a crash-sim pool, the lifetime count of ordering fences issued;
    /// `None` otherwise. Used by tests asserting per-operation fence cost.
    pub fn fence_count(&self) -> Option<u64> {
        self.backend.as_crash_sim().map(CrashSim::fence_count)
    }

    /// On a crash-sim pool, arms the fence trap: the `n`-th fence (1-based)
    /// snapshots the durable state as if power failed at that boundary.
    /// Returns false on non-crash-sim pools. See [`CrashSim::capture_at_fence`].
    pub fn capture_at_fence(&self, n: u64) -> bool {
        match self.backend.as_crash_sim() {
            Some(sim) => {
                sim.capture_at_fence(n);
                true
            }
            None => false,
        }
    }

    /// The image captured by an armed fence trap, if it has fired.
    pub fn captured_image(&self) -> Option<Vec<u8>> {
        self.backend.as_crash_sim().and_then(CrashSim::captured_image)
    }

    /// Marks an orderly shutdown (informational; recovery never requires it).
    pub fn mark_clean_shutdown(&self) {
        self.write_u64(OFF_CLEAN_SHUTDOWN, 1);
        self.persist(OFF_CLEAN_SHUTDOWN, 8);
        self.sync_all();
    }

    /// True if the previous session called [`PmemPool::mark_clean_shutdown`].
    pub fn was_clean_shutdown(&self) -> bool {
        self.read_u64(OFF_CLEAN_SHUTDOWN) == 1
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
    fn clean_shutdown_flag_roundtrip() {
        let path = temp_path("clean");
        {
            let pool = PmemPool::create_file(&path, 1 << 20).unwrap();
            assert!(!pool.was_clean_shutdown());
            pool.mark_clean_shutdown();
        }
        {
            let pool = PmemPool::open_file(&path).unwrap();
            assert!(pool.was_clean_shutdown());
        }
        std::fs::remove_file(&path).unwrap();
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
