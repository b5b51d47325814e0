//! A small buffer cache.
//!
//! Models the page/buffer cache above the disk: repeated reads of hot
//! blocks cost no disk time (this is why the paper's read-intensive web
//! workload shows ~1.00 overhead for every ixt3 variant — Table 6). The
//! cache holds *clean* copies only; dirty metadata lives in the running
//! journal transaction until checkpoint.

use std::collections::{BTreeMap, HashMap};

use iron_core::{Block, BlockAddr};

struct Entry {
    block: Block,
    last_used: u64,
    /// This entry's key in the recency index (≤ `last_used`).
    indexed: u64,
}

/// A capacity-bounded read cache with exact-LRU eviction.
pub struct BufferCache {
    map: HashMap<u64, Entry>,
    /// Recency index, tick → address, one key per entry. Every operation
    /// takes a fresh tick, so keys are unique. A hit only bumps the
    /// entry's `last_used`; eviction re-files entries whose key went
    /// stale until the first key is current, which makes it the exact
    /// least-recently-used entry without scanning the map.
    index: BTreeMap<u64, u64>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// A cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BufferCache {
            map: HashMap::new(),
            index: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a block, refreshing its recency.
    pub fn get(&mut self, addr: BlockAddr) -> Option<Block> {
        self.tick += 1;
        match self.map.get_mut(&addr.0) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(e.block.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a block, evicting the least-recently-used entry
    /// if over capacity.
    pub fn insert(&mut self, addr: BlockAddr, block: Block) {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&addr.0) {
            e.block = block;
            e.last_used = self.tick;
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let entry = Entry {
            block,
            last_used: self.tick,
            indexed: self.tick,
        };
        self.map.insert(addr.0, entry);
        self.index.insert(self.tick, addr.0);
    }

    fn evict_lru(&mut self) {
        while let Some((key, addr)) = self.index.pop_first() {
            let e = self.map.get_mut(&addr).expect("indexed entry is cached");
            if e.last_used == key {
                self.map.remove(&addr);
                return;
            }
            e.indexed = e.last_used;
            self.index.insert(e.last_used, addr);
        }
    }

    /// Drop one block (e.g. after it was invalidated by recovery).
    pub fn invalidate(&mut self, addr: BlockAddr) {
        if let Some(e) = self.map.remove(&addr.0) {
            self.index.remove(&e.indexed);
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.index.clear();
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = BufferCache::new(4);
        assert!(c.get(BlockAddr(1)).is_none());
        c.insert(BlockAddr(1), Block::filled(9));
        assert_eq!(c.get(BlockAddr(1)), Some(Block::filled(9)));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn eviction_removes_lru() {
        let mut c = BufferCache::new(2);
        c.insert(BlockAddr(1), Block::filled(1));
        c.insert(BlockAddr(2), Block::filled(2));
        let _ = c.get(BlockAddr(1)); // 1 is now more recent than 2
        c.insert(BlockAddr(3), Block::filled(3));
        assert!(c.get(BlockAddr(2)).is_none(), "LRU entry evicted");
        assert!(c.get(BlockAddr(1)).is_some());
        assert!(c.get(BlockAddr(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = BufferCache::new(4);
        c.insert(BlockAddr(1), Block::filled(1));
        c.insert(BlockAddr(2), Block::filled(2));
        c.invalidate(BlockAddr(1));
        assert!(c.get(BlockAddr(1)).is_none());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_updates_content() {
        let mut c = BufferCache::new(2);
        c.insert(BlockAddr(1), Block::filled(1));
        c.insert(BlockAddr(1), Block::filled(2));
        assert_eq!(c.get(BlockAddr(1)), Some(Block::filled(2)));
        assert_eq!(c.len(), 1);
    }

    /// The recency index evicts exactly what a full scan for the least
    /// recently used entry would, over a long mixed get/insert/invalidate
    /// sequence that keeps the cache full.
    #[test]
    fn eviction_matches_a_full_scan_model() {
        let mut c = BufferCache::new(8);
        // Model: addr → last-used tick, the victim found by scanning.
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut tick = 0u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % 24;
            tick += 1;
            match (x >> 32) % 8 {
                0..=3 => {
                    let hit = c.get(BlockAddr(addr)).is_some();
                    assert_eq!(hit, model.contains_key(&addr), "get {addr}");
                    if let Some(t) = model.get_mut(&addr) {
                        *t = tick;
                    }
                }
                4..=6 => {
                    if model.len() >= 8 && !model.contains_key(&addr) {
                        let (&victim, _) = model.iter().min_by_key(|(_, &t)| t).unwrap();
                        model.remove(&victim);
                    }
                    model.insert(addr, tick);
                    c.insert(BlockAddr(addr), Block::filled(addr as u8));
                }
                _ => {
                    model.remove(&addr);
                    c.invalidate(BlockAddr(addr));
                }
            }
            assert_eq!(c.len(), model.len());
        }
        for addr in 0..24 {
            let expect = model.contains_key(&addr).then(|| Block::filled(addr as u8));
            assert_eq!(c.get(BlockAddr(addr)), expect, "final {addr}");
        }
    }
}
