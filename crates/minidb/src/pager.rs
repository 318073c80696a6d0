//! Page caching.
//!
//! `DbReg` connections each own a private cache (SQLite keeps a separate
//! page cache per connection); `DbMem` uses one shared cache behind a lock,
//! reproducing the shared-cache contention the paper measures for
//! SQLiteMem (§V-E). Caches are invalidated wholesale when the database's
//! commit counter moves past the cache's tag (the moral equivalent of
//! SQLite's file change counter check).

use crate::page::PageBuf;
use std::collections::HashMap;

/// A bounded page cache with approximate-LRU eviction.
pub struct PageCache {
    map: HashMap<u64, (PageBuf, u64)>,
    capacity: usize,
    clock: u64,
    /// Commit-counter value this cache's contents are valid for.
    tag: u64,
}

impl PageCache {
    pub fn new(capacity: usize) -> Self {
        PageCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            capacity: capacity.max(8),
            clock: 0,
            tag: 0,
        }
    }

    /// Clears the cache if the database has committed since it was filled.
    pub fn validate(&mut self, commit_counter: u64) {
        if self.tag != commit_counter {
            self.map.clear();
            self.tag = commit_counter;
        }
    }

    pub fn get(&mut self, id: u64) -> Option<PageBuf> {
        self.clock += 1;
        match self.map.get_mut(&id) {
            Some((buf, used)) => {
                *used = self.clock;
                mvkv_obs::counter_inc!("mvkv_minidb_page_cache_hits_total");
                Some(buf.clone())
            }
            None => {
                mvkv_obs::counter_inc!("mvkv_minidb_page_cache_misses_total");
                None
            }
        }
    }

    pub fn insert(&mut self, id: u64, buf: PageBuf) {
        if self.map.len() >= self.capacity {
            // Evict the least recently used entry (linear scan: eviction is
            // rare at benchmark working-set sizes; capacity bounds the cost).
            if let Some(&victim) =
                self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k)
            {
                self.map.remove(&victim);
            }
        }
        self.clock += 1;
        self.map.insert(id, (buf, self.clock));
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(v: u64) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.put_u64(0, v);
        p
    }

    #[test]
    fn hit_and_miss() {
        let mut c = PageCache::new(16);
        assert!(c.get(1).is_none());
        c.insert(1, page(10));
        assert_eq!(c.get(1).unwrap().get_u64(0), 10);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn eviction_respects_lru() {
        let mut c = PageCache::new(8);
        for i in 0..8u64 {
            c.insert(i, page(i));
        }
        // Touch 0 so it is most recently used, then overflow.
        assert!(c.get(0).is_some());
        c.insert(100, page(100));
        assert_eq!(c.len(), 8);
        assert!(c.get(0).is_some(), "recently used page must survive");
        assert!(c.get(1).is_none(), "LRU page must be evicted");
    }

    #[test]
    fn validate_clears_on_new_commits() {
        let mut c = PageCache::new(8);
        c.validate(1);
        c.insert(1, page(1));
        c.validate(1);
        assert!(c.get(1).is_some(), "same tag keeps entries");
        c.validate(2);
        assert!(c.get(1).is_none(), "tag change clears the cache");
    }
}
