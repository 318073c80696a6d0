//! # mvkv-pmem — persistent-memory substrate
//!
//! The paper stores its compact multi-version representation in persistent
//! memory via Intel PMDK's `libpmemobj-cpp`, emulated over `/dev/shm`
//! (paper §V-A). No production-grade PMDK binding exists for Rust, so this
//! crate implements the required substrate from scratch:
//!
//! * [`PmemPool`] — a fixed-size pool of byte-addressable persistent memory
//!   with a validated superblock, a designated *root* offset, and a
//!   thread-safe persistent allocator.
//! * [`PPtr`] — an 8-byte, pool-relative persistent pointer that stays valid
//!   when the pool is re-mapped at a different base address.
//! * Backends: [`backend::FileBacked`] (mmap over `/dev/shm` or any file
//!   system — the same PM emulation the paper uses), [`backend::Volatile`]
//!   (heap, for tests), and [`backend::CrashSim`] (volatile front + durable
//!   shadow that only receives explicitly persisted cache lines — used to
//!   test crash-consistency invariants).
//!
//! ## Persistence model
//!
//! The pool exposes the PM programming primitives the paper's algorithms
//! rely on: 8-byte atomic stores ([`PmemPool::atomic_u64`]), explicit
//! flushes ([`PmemPool::persist`], the `clwb` analogue) and ordering fences
//! ([`PmemPool::fence`]). On the crash-simulation backend only data that was
//! explicitly persisted (plus, optionally, randomly "evicted" cache lines —
//! real PM may persist more than requested, never less) survives a crash.
//!
//! ## Allocator crash invariants
//!
//! Headers are written and persisted *before* user data; the heap is a
//! contiguous walkable stream of `[size, state]`-headed blocks — runs of
//! headerless class blocks with their occupancy words, and large blocks — so
//! [`PmemPool::open_file`] re-derives free lists by scanning. A crash in the
//! middle of an allocation leaks at most the in-flight run (audited by
//! [`recovery::HeapAudit`]).
//!
//! ## PM-resident types (the `pm-resident` convention)
//!
//! Any struct whose bytes live *inside* a pool — cast onto pool memory or
//! addressed through a [`PPtr`] — must carry a doc comment containing the
//! marker `pm-resident`. The marker seeds `cargo run -p xtask -- analyze`,
//! which then:
//!
//! * walks field types transitively, so everything reachable from a marked
//!   root is audited too;
//! * requires `#[repr(C)]` or `#[repr(transparent)]` (default repr has no
//!   layout guarantee across compiler versions — fatal for bytes that
//!   outlive the process);
//! * rejects ephemeral or platform-dependent field types (`Vec`, `String`,
//!   `Box`, references, bare `usize`, …) — persistent state links blocks by
//!   [`PPtr`]/offset and uses fixed-width integers or atomics;
//! * fingerprints the declaration shape into `crates/xtask/pm_layout.lock`.
//!   A fingerprint diff means a reopened pool image would be misread:
//!   either revert the layout change, or bump [`layout::LAYOUT_VERSION`]
//!   with a migration story and re-bless via `analyze --bless`.
//!
//! A type that intentionally breaks the rules (e.g. a volatile shadow of a
//! persistent header) can opt out with `pm-layout-exempt(<why>)` in its doc
//! comment; the reason is mandatory and the type is still fingerprinted.

pub mod alloc;
pub mod backend;
pub mod corrupt;
pub mod crc;
pub mod layout;
pub mod pool;
pub mod pptr;
pub mod recovery;
pub mod txn;

pub use backend::{Backend, CrashOptions, CrashSim, FileBacked, Volatile};
pub use corrupt::{CorruptOptions, FaultKind, InjectedFault};
pub use crc::{crc32c, crc32c_u64s};
pub use pool::PmemPool;
pub use pptr::PPtr;
pub use recovery::HeapAudit;

/// Errors reported by the persistent-memory substrate.
#[derive(Debug)]
pub enum PmemError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// Pool image is not a valid mvkv pool (bad magic / truncated).
    BadMagic,
    /// Pool was created by an incompatible layout version.
    BadLayoutVersion { found: u64, expected: u64 },
    /// Recorded pool length disagrees with the mapped length.
    LengthMismatch { recorded: u64, mapped: u64 },
    /// The pool has no space left for the requested allocation.
    OutOfMemory { requested: usize },
    /// An offset/length pair fell outside the pool.
    OutOfBounds { offset: u64, len: usize },
    /// Requested pool size is too small to hold the superblock.
    PoolTooSmall { requested: usize, minimum: usize },
}

impl std::fmt::Display for PmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmemError::Io(e) => write!(f, "pmem I/O error: {e}"),
            PmemError::BadMagic => write!(f, "not a valid mvkv pmem pool (bad magic)"),
            PmemError::BadLayoutVersion { found, expected } => {
                write!(f, "incompatible pool layout version {found} (expected {expected})")
            }
            PmemError::LengthMismatch { recorded, mapped } => {
                write!(f, "pool length mismatch: superblock says {recorded}, mapped {mapped}")
            }
            PmemError::OutOfMemory { requested } => {
                write!(f, "pmem pool out of memory (requested {requested} bytes)")
            }
            PmemError::OutOfBounds { offset, len } => {
                write!(f, "pmem access out of bounds: offset {offset} len {len}")
            }
            PmemError::PoolTooSmall { requested, minimum } => {
                write!(f, "pool size {requested} below minimum {minimum}")
            }
        }
    }
}

impl std::error::Error for PmemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmemError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Lets `?` carry a pool error out of functions that return
/// `std::io::Result` (kind `Other`, same message).
impl From<PmemError> for std::io::Error {
    fn from(e: PmemError) -> Self {
        std::io::Error::other(e)
    }
}

impl From<std::io::Error> for PmemError {
    fn from(e: std::io::Error) -> Self {
        PmemError::Io(e)
    }
}

/// Convenience result alias for pmem operations.
pub type Result<T> = std::result::Result<T, PmemError>;
