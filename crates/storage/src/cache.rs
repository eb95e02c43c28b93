//! The server-side storage cache.
//!
//! Each I/O node maintains a storage cache with I/O prefetching (the paper
//! models this with AccuSim's two-tier cache hierarchy; Table II gives
//! 64 MB per node). The cache operates on node-local blocks — one block per
//! stripe stored on the node — with LRU replacement, write-through writes
//! and sequential read-ahead.

use crate::error::StorageError;
use crate::lru::LruCache;
use crate::striping::FileId;

/// A node-local block address: the `index`-th stripe of `file` stored on
/// this node.
pub type BlockKey = (FileId, u64);

/// Storage-cache configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache capacity in bytes (Table II: 64 MB per I/O node).
    pub capacity_bytes: u64,
    /// Block (stripe) size in bytes.
    pub block_bytes: u64,
    /// How many subsequent blocks to read ahead on a read miss.
    pub prefetch_depth: u64,
}

impl CacheConfig {
    /// Table II defaults: 64 MB capacity, 64 KB blocks, with a modest
    /// sequential read-ahead.
    pub fn paper_defaults() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
            block_bytes: 64 * 1024,
            prefetch_depth: 2,
        }
    }

    /// Checks that the cache can hold at least one whole block.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::CacheCapacity`] if `block_bytes` is zero or
    /// the capacity is smaller than one block.
    pub fn validate(&self) -> Result<(), StorageError> {
        if self.block_bytes == 0 || self.capacity_bytes / self.block_bytes == 0 {
            return Err(StorageError::CacheCapacity {
                capacity_bytes: self.capacity_bytes,
                block_bytes: self.block_bytes,
            });
        }
        Ok(())
    }
}

/// The outcome of offering an access to the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The access was served from the cache with no disk involvement.
    pub hit: bool,
    /// The hit consumed a block that was brought in by read-ahead (set
    /// only together with `hit`; used for telemetry).
    pub prefetched_hit: bool,
    /// Blocks that must be read from the disks (the missed block itself,
    /// for read misses).
    pub demand_fetches: Vec<BlockKey>,
    /// Blocks to read ahead opportunistically (not on the access's critical
    /// path).
    pub prefetches: Vec<BlockKey>,
    /// Blocks to write to the disks (write-through).
    pub writebacks: Vec<BlockKey>,
    /// The block this access displaced from the cache, if the insert
    /// evicted one (used for telemetry).
    pub evicted: Option<BlockKey>,
}

impl CacheOutcome {
    fn hit(prefetched_hit: bool) -> Self {
        CacheOutcome {
            hit: true,
            prefetched_hit,
            demand_fetches: Vec::new(),
            prefetches: Vec::new(),
            writebacks: Vec::new(),
            evicted: None,
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses served from the cache.
    pub read_hits: u64,
    /// Read accesses requiring a disk fetch.
    pub read_misses: u64,
    /// Write accesses (always written through).
    pub writes: u64,
    /// Prefetched blocks that were later hit.
    pub useful_prefetches: u64,
    /// Blocks fetched ahead of demand.
    pub issued_prefetches: u64,
}

impl CacheStats {
    /// Read hit ratio in `[0, 1]`, or 0 with no reads.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

/// Per-block cache metadata.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    prefetched: bool,
}

/// A per-I/O-node storage cache with LRU replacement and sequential
/// prefetch.
///
/// The cache is a *decision* structure: it tells the I/O node which disk
/// operations an access requires, and the node performs them and calls
/// [`StorageCache::fill`] when fetched blocks arrive.
///
/// # Example
///
/// ```
/// use sdds_storage::{CacheConfig, FileId, StorageCache};
///
/// let mut cache = StorageCache::new(CacheConfig::paper_defaults()).expect("paper defaults are valid");
/// let key = (FileId(0), 7);
/// let miss = cache.read(key);
/// assert!(!miss.hit);
/// assert_eq!(miss.demand_fetches, vec![key]);
/// cache.fill(key, false);
/// assert!(cache.read(key).hit);
/// ```
#[derive(Debug)]
pub struct StorageCache {
    config: CacheConfig,
    blocks: LruCache<BlockKey, BlockMeta>,
    stats: CacheStats,
}

impl StorageCache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::CacheCapacity`] if the configuration yields
    /// zero blocks of capacity.
    pub fn new(config: CacheConfig) -> Result<Self, StorageError> {
        config.validate()?;
        let capacity = (config.capacity_bytes / config.block_bytes) as usize;
        Ok(StorageCache {
            config,
            blocks: LruCache::new(capacity),
            stats: CacheStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Offers a read of `key` to the cache.
    pub fn read(&mut self, key: BlockKey) -> CacheOutcome {
        if let Some(meta) = self.blocks.get(&key) {
            let prefetched_hit = meta.prefetched;
            if prefetched_hit {
                self.stats.useful_prefetches += 1;
                // Count the prefetch benefit only once.
                if let Some(m) = self.blocks.get(&key) {
                    let mut m = *m;
                    m.prefetched = false;
                    self.blocks.insert(key, m);
                }
            }
            self.stats.read_hits += 1;
            return CacheOutcome::hit(prefetched_hit);
        }
        self.stats.read_misses += 1;
        let mut prefetches = Vec::new();
        for ahead in 1..=self.config.prefetch_depth {
            let next = (key.0, key.1 + ahead);
            if !self.blocks.contains(&next) {
                prefetches.push(next);
            }
        }
        self.stats.issued_prefetches += prefetches.len() as u64;
        CacheOutcome {
            hit: false,
            prefetched_hit: false,
            demand_fetches: vec![key],
            prefetches,
            writebacks: Vec::new(),
            evicted: None,
        }
    }

    /// Offers a write of `key` to the cache (write-through: the block is
    /// cached for subsequent readers and also written to disk).
    pub fn write(&mut self, key: BlockKey) -> CacheOutcome {
        self.stats.writes += 1;
        let evicted = self
            .blocks
            .insert(key, BlockMeta { prefetched: false })
            .map(|(k, _)| k);
        CacheOutcome {
            hit: false,
            prefetched_hit: false,
            demand_fetches: Vec::new(),
            prefetches: Vec::new(),
            writebacks: vec![key],
            evicted,
        }
    }

    /// Installs a block fetched from disk (`prefetched` marks read-ahead
    /// fills, used only for statistics). Returns the block the fill
    /// evicted, if any (used for telemetry).
    pub fn fill(&mut self, key: BlockKey, prefetched: bool) -> Option<BlockKey> {
        self.blocks
            .insert(key, BlockMeta { prefetched })
            .map(|(k, _)| k)
    }

    /// Returns `true` if `key` is cached (no recency update).
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.blocks.contains(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> BlockKey {
        (FileId(0), i)
    }

    fn small_cache(blocks: u64, depth: u64) -> StorageCache {
        StorageCache::new(CacheConfig {
            capacity_bytes: blocks * 64 * 1024,
            block_bytes: 64 * 1024,
            prefetch_depth: depth,
        })
        .unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(16, 0);
        let out = c.read(key(1));
        assert!(!out.hit);
        assert_eq!(out.demand_fetches, vec![key(1)]);
        c.fill(key(1), false);
        assert!(c.read(key(1)).hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn prefetch_requests_sequential_blocks() {
        let mut c = small_cache(16, 2);
        let out = c.read(key(5));
        assert_eq!(out.prefetches, vec![key(6), key(7)]);
        // Already-cached successors are not re-requested.
        c.fill(key(6), true);
        let out2 = c.read(key(9));
        assert_eq!(out2.prefetches, vec![key(10), key(11)]);
        let out3 = c.read(key(5)); // now a miss? no: 5 was never filled
        assert!(!out3.hit);
    }

    #[test]
    fn useful_prefetch_counted_once() {
        let mut c = small_cache(16, 1);
        c.read(key(0)); // miss; prefetch 1
        c.fill(key(0), false);
        c.fill(key(1), true);
        assert!(c.read(key(1)).hit);
        assert!(c.read(key(1)).hit);
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn outcome_reports_eviction_and_prefetched_hit() {
        let mut c = small_cache(2, 1);
        c.fill(key(0), false);
        assert_eq!(c.fill(key(1), true), None);
        // First hit on a read-ahead block is flagged, later hits are not.
        let out = c.read(key(1));
        assert!(out.hit && out.prefetched_hit);
        let out2 = c.read(key(1));
        assert!(out2.hit && !out2.prefetched_hit);
        // At capacity, a fill reports the LRU block it displaced.
        assert_eq!(c.fill(key(2), false), Some(key(0)));
        // A write-through insert reports its eviction too.
        let w = c.write(key(3));
        assert_eq!(w.evicted, Some(key(1)));
    }

    #[test]
    fn write_through() {
        let mut c = small_cache(16, 0);
        let out = c.write(key(3));
        assert_eq!(out.writebacks, vec![key(3)]);
        // The written block now serves reads.
        assert!(c.read(key(3)).hit);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut c = small_cache(2, 0);
        c.fill(key(1), false);
        c.fill(key(2), false);
        c.fill(key(3), false); // evicts 1
        assert!(!c.contains(&key(1)));
        assert!(c.contains(&key(2)));
        assert!(c.contains(&key(3)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn distinct_files_do_not_collide() {
        let mut c = small_cache(8, 0);
        c.fill((FileId(1), 0), false);
        assert!(!c.read((FileId(2), 0)).hit);
        assert!(c.read((FileId(1), 0)).hit);
    }

    #[test]
    fn hit_ratio() {
        let mut c = small_cache(8, 0);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.read(key(0));
        c.fill(key(0), false);
        c.read(key(0));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_defaults_hold_1024_blocks() {
        let cfg = CacheConfig::paper_defaults();
        assert_eq!(cfg.capacity_bytes / cfg.block_bytes, 1_024);
    }
}
