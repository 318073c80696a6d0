//! [`PPtr`] — typed, pool-relative persistent pointers.

use crate::pool::PmemPool;
use std::marker::PhantomData;

/// An 8-byte persistent pointer: a pool-relative offset tagged with the
/// pointee type. Unlike a raw pointer it remains valid when the pool is
/// re-mapped at a different base address (process restart), which is the
/// whole reason the paper's persistent structures link blocks by offsets.
///
/// `PPtr` is `Copy` and has the same representation as `u64`, so it can be
/// stored *inside* persistent memory.
///
/// pm-resident: the root of every persistent link; audited by
/// `xtask analyze` against `pm_layout.lock`.
#[repr(transparent)]
pub struct PPtr<T> {
    off: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> PPtr<T> {
    /// The null persistent pointer (offset 0 — the superblock magic, never a
    /// valid payload).
    pub const NULL: PPtr<T> = PPtr { off: 0, _marker: PhantomData };

    /// Wraps a payload offset obtained from [`PmemPool::alloc`].
    #[inline]
    pub const fn from_off(off: u64) -> Self {
        PPtr { off, _marker: PhantomData }
    }

    /// The raw pool-relative offset.
    #[inline]
    pub const fn off(self) -> u64 {
        self.off
    }

    #[inline]
    pub const fn is_null(self) -> bool {
        self.off == 0
    }

    /// Resolves to a shared reference inside `pool`.
    ///
    /// # Safety
    /// Same contract as [`PmemPool::typed`]: the offset must designate an
    /// initialized, properly aligned `T`, and the caller upholds aliasing.
    #[inline]
    pub unsafe fn as_ref(self, pool: &PmemPool) -> &T {
        debug_assert!(!self.is_null(), "dereferencing null PPtr");
        // SAFETY: forwarded contract — the caller upholds `typed`'s
        // initialization, alignment and aliasing requirements.
        unsafe { pool.typed::<T>(self.off) }
    }

    /// Resolves to a raw pointer (for interior-atomic initialization).
    #[inline]
    pub fn as_ptr(self, pool: &PmemPool) -> *mut T {
        debug_assert!(!self.is_null(), "dereferencing null PPtr");
        pool.base_ptr(self.off) as *mut T
    }

    /// Reinterprets the pointee type (offset unchanged).
    #[inline]
    pub fn cast<U>(self) -> PPtr<U> {
        PPtr::from_off(self.off)
    }
}

// Manual impls: derive would bound them on `T`.
impl<T> Clone for PPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PPtr<T> {}
impl<T> PartialEq for PPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.off == other.off
    }
}
impl<T> Eq for PPtr<T> {}
impl<T> std::hash::Hash for PPtr<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.off.hash(state);
    }
}
impl<T> std::fmt::Debug for PPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PPtr<{}>({:#x})", std::any::type_name::<T>(), self.off)
    }
}
impl<T> Default for PPtr<T> {
    fn default() -> Self {
        Self::NULL
    }
}

const _: () = assert!(std::mem::size_of::<PPtr<u64>>() == 8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_semantics() {
        let p: PPtr<u64> = PPtr::NULL;
        assert!(p.is_null());
        assert_eq!(p.off(), 0);
        assert_eq!(p, PPtr::<u64>::default());
    }

    #[test]
    fn resolve_roundtrip() {
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        let off = pool.alloc(8).unwrap();
        pool.write_u64(off, 424242);
        let p: PPtr<u64> = PPtr::from_off(off);
        // SAFETY: `off` holds an initialized u64 written just above.
        assert_eq!(unsafe { *p.as_ref(&pool) }, 424242);
    }

    #[test]
    fn cast_keeps_the_offset() {
        let p: PPtr<u64> = PPtr::from_off(100);
        let q: PPtr<u32> = p.cast();
        assert_eq!(q.off(), 100);
    }

    #[test]
    fn survives_remap_at_different_base() {
        // Persist a pointer-bearing structure, reopen as an image (new base),
        // and resolve the same offsets.
        let pool = PmemPool::create_volatile(1 << 20).unwrap();
        let a = pool.alloc(8).unwrap();
        let b = pool.alloc(8).unwrap();
        pool.write_u64(a, b); // a stores a "pointer" to b
        pool.write_u64(b, 7);
        // SAFETY: [0, len) is in bounds; no writer races the snapshot.
        let image = unsafe { pool.bytes(0, pool.len()).to_vec() };

        let reopened = PmemPool::open_image(&image).unwrap();
        let pa: PPtr<u64> = PPtr::from_off(a);
        // SAFETY: offsets `a` and `b` hold initialized u64s persisted
        // before the snapshot; the image preserves them.
        let pb: PPtr<u64> = PPtr::from_off(unsafe { *pa.as_ref(&reopened) });
        // SAFETY: `b` likewise holds an initialized, persisted u64.
        assert_eq!(unsafe { *pb.as_ref(&reopened) }, 7);
    }

    #[test]
    fn is_copy_and_hashable() {
        use std::collections::HashSet;
        let p: PPtr<u64> = PPtr::from_off(16);
        let q = p; // Copy
        let mut set = HashSet::new();
        set.insert(p);
        assert!(set.contains(&q));
    }
}
