//! B+tree over pages, keyed by the composite `(key, version)` — minidb's
//! multi-column index. Leaves are linked left-to-right for ordered scans.
//!
//! All mutation runs under the engine's writer lock, so the tree code is
//! single-writer by construction; read paths work off immutable page
//! snapshots supplied by a fetch closure.

use crate::page::{PageBuf, PAGE_SIZE};

/// Composite row key: `(key, version)`, lexicographic.
pub type Composite = (u64, u64);

const LEAF: u8 = 1;
const INTERNAL: u8 = 2;
const HDR: usize = 16;
const ENTRY: usize = 24;
/// Max entries per node; an insert may momentarily reach this count, after
/// which the node splits. `HDR + MAX * ENTRY` must fit a page.
const MAX_ENTRIES: usize = (PAGE_SIZE - HDR) / ENTRY; // 170

const _: () = assert!(HDR + MAX_ENTRIES * ENTRY <= PAGE_SIZE);

/// Mutable page access used by inserts (single writer).
pub trait PageSource {
    fn read(&mut self, id: u64) -> PageBuf;
    fn write(&mut self, id: u64, buf: PageBuf);
    fn allocate(&mut self) -> u64;
}

// -- node field helpers ------------------------------------------------------

fn node_type(p: &PageBuf) -> u8 {
    p.get_u8(0)
}

fn n_entries(p: &PageBuf) -> usize {
    p.get_u16(2) as usize
}

fn set_n(p: &mut PageBuf, n: usize) {
    p.put_u16(2, n as u16);
}

fn right_sibling(p: &PageBuf) -> u64 {
    p.get_u64(8)
}

fn set_right_sibling(p: &mut PageBuf, id: u64) {
    p.put_u64(8, id);
}

fn leaf_key(p: &PageBuf, i: usize) -> Composite {
    (p.get_u64(HDR + i * ENTRY), p.get_u64(HDR + i * ENTRY + 8))
}

fn leaf_value(p: &PageBuf, i: usize) -> u64 {
    p.get_u64(HDR + i * ENTRY + 16)
}

fn put_leaf_entry(p: &mut PageBuf, i: usize, k: Composite, v: u64) {
    p.put_u64(HDR + i * ENTRY, k.0);
    p.put_u64(HDR + i * ENTRY + 8, k.1);
    p.put_u64(HDR + i * ENTRY + 16, v);
}

fn child0(p: &PageBuf) -> u64 {
    p.get_u64(8)
}

fn set_child0(p: &mut PageBuf, id: u64) {
    p.put_u64(8, id);
}

fn sep_key(p: &PageBuf, i: usize) -> Composite {
    (p.get_u64(HDR + i * ENTRY), p.get_u64(HDR + i * ENTRY + 8))
}

fn sep_child(p: &PageBuf, i: usize) -> u64 {
    p.get_u64(HDR + i * ENTRY + 16)
}

fn put_sep(p: &mut PageBuf, i: usize, k: Composite, child: u64) {
    p.put_u64(HDR + i * ENTRY, k.0);
    p.put_u64(HDR + i * ENTRY + 8, k.1);
    p.put_u64(HDR + i * ENTRY + 16, child);
}

fn init_leaf(p: &mut PageBuf) {
    p.put_u8(0, LEAF);
    set_n(p, 0);
    set_right_sibling(p, 0);
}

fn init_internal(p: &mut PageBuf) {
    p.put_u8(0, INTERNAL);
    set_n(p, 0);
    set_child0(p, 0);
}

/// First index in the leaf with key ≥ `k` (lower bound).
fn leaf_lower_bound(p: &PageBuf, k: Composite) -> usize {
    let (mut lo, mut hi) = (0usize, n_entries(p));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(p, mid) < k {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index in the leaf with key > `k` (upper bound).
fn leaf_upper_bound(p: &PageBuf, k: Composite) -> usize {
    let (mut lo, mut hi) = (0usize, n_entries(p));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(p, mid) <= k {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Child page to descend into for target `k`.
fn descend_child(p: &PageBuf, k: Composite) -> u64 {
    // First separator > k bounds the child on its left.
    let n = n_entries(p);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if sep_key(p, mid) <= k {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        child0(p)
    } else {
        sep_child(p, lo - 1)
    }
}

// -- public API ---------------------------------------------------------------

/// Allocates an empty tree; returns the root page id.
pub fn create_empty(src: &mut impl PageSource) -> u64 {
    let root = src.allocate();
    let mut page = PageBuf::zeroed();
    init_leaf(&mut page);
    src.write(root, page);
    root
}

/// Inserts (or overwrites) `key → value`. Returns the (possibly new) root.
pub fn insert(src: &mut impl PageSource, root: u64, key: Composite, value: u64) -> u64 {
    match insert_rec(src, root, key, value) {
        None => root,
        Some((sep, right)) => {
            let new_root = src.allocate();
            let mut page = PageBuf::zeroed();
            init_internal(&mut page);
            set_child0(&mut page, root);
            put_sep(&mut page, 0, sep, right);
            set_n(&mut page, 1);
            src.write(new_root, page);
            new_root
        }
    }
}

fn insert_rec(
    src: &mut impl PageSource,
    id: u64,
    key: Composite,
    value: u64,
) -> Option<(Composite, u64)> {
    let mut page = src.read(id);
    if node_type(&page) == LEAF {
        let pos = leaf_lower_bound(&page, key);
        let n = n_entries(&page);
        if pos < n && leaf_key(&page, pos) == key {
            put_leaf_entry(&mut page, pos, key, value);
            src.write(id, page);
            return None;
        }
        page.shift(HDR + pos * ENTRY, HDR + (pos + 1) * ENTRY, (n - pos) * ENTRY);
        put_leaf_entry(&mut page, pos, key, value);
        set_n(&mut page, n + 1);
        if n + 1 < MAX_ENTRIES {
            src.write(id, page);
            return None;
        }
        // Split the full leaf.
        let keep = n.div_ceil(2);
        let move_count = (n + 1) - keep;
        let right_id = src.allocate();
        let mut right = PageBuf::zeroed();
        init_leaf(&mut right);
        for i in 0..move_count {
            let (k, v) = (leaf_key(&page, keep + i), leaf_value(&page, keep + i));
            put_leaf_entry(&mut right, i, k, v);
        }
        set_n(&mut right, move_count);
        set_right_sibling(&mut right, right_sibling(&page));
        set_right_sibling(&mut page, right_id);
        set_n(&mut page, keep);
        let sep = leaf_key(&right, 0);
        src.write(right_id, right);
        src.write(id, page);
        Some((sep, right_id))
    } else {
        let child = descend_child(&page, key);
        let split = insert_rec(src, child, key, value)?;
        // Re-read: the recursive call may have rewritten pages, and `page`
        // predates the child update (only this node's content matters here,
        // which the recursion never touches — but re-reading keeps the
        // single-source-of-truth discipline cheap and obvious).
        let mut page = src.read(id);
        let (sep, right_child) = split;
        let n = n_entries(&page);
        // Position = number of separators <= sep.
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if sep_key(&page, mid) <= sep {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        page.shift(HDR + lo * ENTRY, HDR + (lo + 1) * ENTRY, (n - lo) * ENTRY);
        put_sep(&mut page, lo, sep, right_child);
        set_n(&mut page, n + 1);
        if n + 1 < MAX_ENTRIES {
            src.write(id, page);
            return None;
        }
        // Split the full internal node: median moves up.
        let mid = n.div_ceil(2);
        let up = sep_key(&page, mid);
        let right_id = src.allocate();
        let mut right = PageBuf::zeroed();
        init_internal(&mut right);
        set_child0(&mut right, sep_child(&page, mid));
        let move_count = n - mid; // separators strictly after the median
        for i in 0..move_count {
            put_sep(&mut right, i, sep_key(&page, mid + 1 + i), sep_child(&page, mid + 1 + i));
        }
        set_n(&mut right, move_count);
        set_n(&mut page, mid);
        src.write(right_id, right);
        src.write(id, page);
        Some((up, right_id))
    }
}

/// Largest entry with composite key ≤ `key` (the engine's point lookup).
pub fn seek_le(
    fetch: &mut impl FnMut(u64) -> PageBuf,
    root: u64,
    key: Composite,
) -> Option<(Composite, u64)> {
    let mut page = fetch(root);
    while node_type(&page) == INTERNAL {
        page = fetch(descend_child(&page, key));
    }
    let pos = leaf_upper_bound(&page, key);
    // pos = first entry > key, so pos-1 is the candidate.
    if pos == 0 {
        return None;
    }
    let k = leaf_key(&page, pos - 1);
    debug_assert!(k <= key);
    Some((k, leaf_value(&page, pos - 1)))
}

/// All `(version, value)` rows of `key`, in version order.
pub fn scan_key(fetch: &mut impl FnMut(u64) -> PageBuf, root: u64, key: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    scan_from(fetch, root, (key, 0), |(k, version), value| {
        if k == key {
            out.push((version, value));
        }
        k == key
    });
    out
}

/// Visits entries in composite order starting at the first entry ≥ `from`,
/// until `visit` returns `false` or the table ends.
pub fn scan_from(
    fetch: &mut impl FnMut(u64) -> PageBuf,
    root: u64,
    from: Composite,
    mut visit: impl FnMut(Composite, u64) -> bool,
) {
    let mut page = fetch(root);
    while node_type(&page) == INTERNAL {
        page = fetch(descend_child(&page, from));
    }
    let mut pos = leaf_lower_bound(&page, from);
    loop {
        while pos < n_entries(&page) {
            if !visit(leaf_key(&page, pos), leaf_value(&page, pos)) {
                return;
            }
            pos += 1;
        }
        let next = right_sibling(&page);
        if next == 0 {
            return;
        }
        page = fetch(next);
        pos = 0;
    }
}

/// The largest composite key in the tree (rightmost leaf entry).
pub fn max_key(fetch: &mut impl FnMut(u64) -> PageBuf, root: u64) -> Option<(Composite, u64)> {
    let mut page = fetch(root);
    while node_type(&page) == INTERNAL {
        let n = n_entries(&page);
        let child = if n == 0 { child0(&page) } else { sep_child(&page, n - 1) };
        page = fetch(child);
    }
    let n = n_entries(&page);
    if n == 0 {
        None
    } else {
        Some((leaf_key(&page, n - 1), leaf_value(&page, n - 1)))
    }
}

/// Visits every entry in composite order (full table scan).
pub fn scan_all(
    fetch: &mut impl FnMut(u64) -> PageBuf,
    root: u64,
    mut visit: impl FnMut(Composite, u64),
) {
    scan_from(fetch, root, (0, 0), |key, value| {
        visit(key, value);
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    struct MemSource {
        pages: Vec<PageBuf>,
    }

    impl MemSource {
        fn new() -> Self {
            MemSource { pages: Vec::new() }
        }

        fn fetch(&mut self) -> impl FnMut(u64) -> PageBuf + '_ {
            |id| self.pages[id as usize].clone()
        }
    }

    impl PageSource for MemSource {
        fn read(&mut self, id: u64) -> PageBuf {
            self.pages[id as usize].clone()
        }

        fn write(&mut self, id: u64, buf: PageBuf) {
            self.pages[id as usize] = buf;
        }

        fn allocate(&mut self) -> u64 {
            self.pages.push(PageBuf::zeroed());
            (self.pages.len() - 1) as u64
        }
    }

    #[test]
    fn empty_tree_seek() {
        let mut src = MemSource::new();
        let root = create_empty(&mut src);
        assert_eq!(seek_le(&mut src.fetch(), root, (5, 5)), None);
        assert!(scan_key(&mut src.fetch(), root, 1).is_empty());
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        for k in [(3u64, 1u64), (1, 1), (2, 1), (2, 5), (2, 3)] {
            root = insert(&mut src, root, k, k.0 * 100 + k.1);
        }
        assert_eq!(seek_le(&mut src.fetch(), root, (2, 4)), Some(((2, 3), 203)));
        assert_eq!(seek_le(&mut src.fetch(), root, (2, 3)), Some(((2, 3), 203)));
        assert_eq!(seek_le(&mut src.fetch(), root, (2, 9)), Some(((2, 5), 205)));
        assert_eq!(seek_le(&mut src.fetch(), root, (0, 9)), None);
    }

    #[test]
    fn overwrite_same_composite() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        root = insert(&mut src, root, (1, 1), 10);
        root = insert(&mut src, root, (1, 1), 20);
        assert_eq!(seek_le(&mut src.fetch(), root, (1, 1)), Some(((1, 1), 20)));
        let mut count = 0;
        scan_all(&mut src.fetch(), root, |_, _| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn splits_preserve_order_and_lookups() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        let mut model = BTreeMap::new();
        let mut state = 0xBEEFu64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (state % 3000, (state >> 32) % 50);
            let v = state >> 17;
            root = insert(&mut src, root, k, v);
            model.insert(k, v);
        }
        // Full-scan order equals the model.
        let mut scanned = Vec::new();
        scan_all(&mut src.fetch(), root, |k, v| scanned.push((k, v)));
        let expected: Vec<(Composite, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scanned, expected);
        // Random point lookups match the model's floor semantics.
        for probe in 0..2000u64 {
            let target = (probe * 7 % 3000, probe % 60);
            let want = model.range(..=target).next_back().map(|(&k, &v)| (k, v));
            assert_eq!(seek_le(&mut src.fetch(), root, target), want, "probe {target:?}");
        }
    }

    #[test]
    fn scan_key_collects_versions_in_order() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        // Interleave keys so key 42's rows straddle leaf boundaries.
        for v in 0..500u64 {
            root = insert(&mut src, root, (42, v), v * 2);
            root = insert(&mut src, root, (41, v), 1);
            root = insert(&mut src, root, (43, v), 1);
        }
        let rows = scan_key(&mut src.fetch(), root, 42);
        assert_eq!(rows.len(), 500);
        for (i, &(v, val)) in rows.iter().enumerate() {
            assert_eq!(v, i as u64);
            assert_eq!(val, v * 2);
        }
        assert!(scan_key(&mut src.fetch(), root, 40).is_empty());
    }

    #[test]
    fn scan_from_starts_and_stops_correctly() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        for i in 0..1000u64 {
            root = insert(&mut src, root, (i, 0), i);
        }
        let mut seen = Vec::new();
        scan_from(&mut src.fetch(), root, (250, 0), |(k, _), v| {
            if k >= 260 {
                return false;
            }
            seen.push(v);
            true
        });
        assert_eq!(seen, (250..260).collect::<Vec<u64>>());
        // From beyond the end: nothing visited.
        scan_from(&mut src.fetch(), root, (5000, 0), |_, _| panic!("no entries expected"));
    }

    #[test]
    fn max_key_finds_rightmost() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        assert_eq!(max_key(&mut src.fetch(), root), None);
        for i in 0..5000u64 {
            root = insert(&mut src, root, (i % 997, i), i);
        }
        // Largest first component is 996; its largest second component is
        // the last i ≡ 996 (mod 997) below 5000, i.e. 996 + 4·997 = 4984.
        assert_eq!(max_key(&mut src.fetch(), root), Some(((996, 4984), 4984)));
    }

    #[test]
    fn sequential_ascending_inserts() {
        let mut src = MemSource::new();
        let mut root = create_empty(&mut src);
        for i in 0..10_000u64 {
            root = insert(&mut src, root, (i, 0), i);
        }
        assert_eq!(seek_le(&mut src.fetch(), root, (9_999, 0)), Some(((9_999, 0), 9_999)));
        assert_eq!(seek_le(&mut src.fetch(), root, (5_000, u64::MAX)), Some(((5_000, 0), 5_000)));
        let mut n = 0u64;
        scan_all(&mut src.fetch(), root, |_, _| n += 1);
        assert_eq!(n, 10_000);
    }
}
