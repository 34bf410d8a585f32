//! The DAM-model cost accountant.
//!
//! [`IoModel`] charges block transfers for accesses to a simulated,
//! byte-granular address space: internal memory holds `memory_blocks` blocks
//! of `block_size` bytes under LRU replacement, and every access to a
//! non-resident block costs one transfer. Dirty blocks are written back when
//! evicted (counted separately as writes; the paper's bounds count transfers
//! in either direction, which is `reads + writes`).

use crate::detmap::DetSet;
use crate::lru::LruCache;
use std::fmt;

/// A degenerate [`IoConfig`] rejected by [`IoConfig::validate`].
///
/// The fields are `pub`, so a struct literal can bypass the `assert` in
/// [`IoConfig::new`]; consumers that accept configs from outside (the
/// dictionary builder, CLI parsers) call [`IoConfig::validate`] to turn the
/// degenerate cases into a proper error instead of a panic deep inside the
/// model (`block_size == 0` divides by zero in block arithmetic,
/// `memory_blocks == 0` models a machine with no memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoConfigError {
    /// `block_size == 0`: no transfer unit.
    ZeroBlockSize,
    /// `memory_blocks == 0`: no internal memory to cache blocks in.
    ZeroMemoryBlocks,
}

impl fmt::Display for IoConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoConfigError::ZeroBlockSize => write!(f, "IoConfig.block_size must be positive"),
            IoConfigError::ZeroMemoryBlocks => {
                write!(f, "IoConfig.memory_blocks must be positive")
            }
        }
    }
}

impl std::error::Error for IoConfigError {}

/// Configuration of the simulated memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Block (transfer unit) size in bytes — the DAM model's `B`.
    pub block_size: usize,
    /// Number of blocks that fit in internal memory — the DAM model's `M/B`.
    pub memory_blocks: usize,
}

impl IoConfig {
    /// A configuration with block size `block_size` bytes and memory for
    /// `memory_blocks` blocks.
    pub fn new(block_size: usize, memory_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            memory_blocks,
        }
    }

    /// Rejects degenerate configurations (see [`IoConfigError`]).
    pub fn validate(&self) -> Result<(), IoConfigError> {
        if self.block_size == 0 {
            return Err(IoConfigError::ZeroBlockSize);
        }
        if self.memory_blocks == 0 {
            return Err(IoConfigError::ZeroMemoryBlocks);
        }
        Ok(())
    }
}

impl Default for IoConfig {
    /// Defaults to `B = 4096` bytes and `M = 4 MiB` (1024 blocks), a
    /// deliberately small cache so that I/O effects are visible at
    /// laptop-scale input sizes.
    fn default() -> Self {
        Self {
            block_size: 4096,
            memory_blocks: 1024,
        }
    }
}

/// Transfer counters accumulated by an [`IoModel`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Blocks fetched from disk (cache misses).
    pub reads: u64,
    /// Dirty blocks written back on eviction or flush.
    pub writes: u64,
    /// Individual accesses issued by the data structures (not I/Os).
    pub accesses: u64,
}

impl IoStats {
    /// Total block transfers (reads plus write-backs) — the DAM model's cost.
    pub fn transfers(&self) -> u64 {
        self.reads + self.writes
    }

    /// Difference `self − earlier`, saturating at zero.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            accesses: self.accesses.saturating_sub(earlier.accesses),
        }
    }
}

/// The DAM-model cost accountant: an LRU cache of blocks plus counters.
#[derive(Debug, Clone)]
pub struct IoModel {
    config: IoConfig,
    cache: LruCache,
    // Deterministic set: membership-only bookkeeping, and `DetSet` exposes
    // no iteration, so write-back accounting cannot silently start depending
    // on a process-random hasher.
    dirty: DetSet,
    stats: IoStats,
}

impl IoModel {
    /// Creates a model with the given configuration and a cold cache.
    pub fn new(config: IoConfig) -> Self {
        Self {
            config,
            cache: LruCache::new(config.memory_blocks),
            dirty: DetSet::new(),
            stats: IoStats::default(),
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> IoConfig {
        self.config
    }

    /// Current counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the counters but keeps the cache contents (for measuring a
    /// warm-cache operation).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Empties the cache and resets the counters (cold-cache measurement).
    pub fn reset_cold(&mut self) {
        self.cache.clear();
        self.dirty.clear();
        self.stats = IoStats::default();
    }

    /// Block id containing byte address `addr`.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr / self.config.block_size as u64
    }

    /// Records a read of `len` bytes starting at byte address `addr`.
    pub fn read(&mut self, addr: u64, len: u64) {
        self.access(addr, len, false);
    }

    /// Records a write of `len` bytes starting at byte address `addr`.
    pub fn write(&mut self, addr: u64, len: u64) {
        self.access(addr, len, true);
    }

    /// Charges `reads` fetches and `writes` write-backs directly, without
    /// touching the cache — for structures that pre-compute their own
    /// DAM-model cost (see [`crate::Tracer::charge`]).
    pub fn charge(&mut self, reads: u64, writes: u64) {
        self.stats.reads += reads;
        self.stats.writes += writes;
    }

    /// Flushes all dirty blocks, charging one write per dirty block. Models a
    /// shutdown/sync; the benches call it so write-back costs are attributed
    /// to the workload that dirtied the blocks.
    pub fn flush(&mut self) {
        self.stats.writes += self.dirty.len() as u64;
        self.dirty.clear();
    }

    fn access(&mut self, addr: u64, len: u64, write: bool) {
        self.stats.accesses += 1;
        if len == 0 {
            // A zero-length access moves no bytes: zero transfers, and
            // nothing becomes dirty or cached.
            return;
        }
        let first = self.block_of(addr);
        // `addr + len - 1` is the last byte touched; saturate instead of
        // wrapping when a caller's range runs past the end of the address
        // space, which would otherwise charge for block 0 and panic the
        // `first..=last` iteration in debug builds.
        let last = self.block_of(addr.saturating_add(len - 1));
        for block in first..=last {
            let hit = self.cache.touch(block);
            if !hit {
                self.stats.reads += 1;
                // If the block we evicted was dirty it has already been
                // accounted for lazily: we approximate write-back accounting
                // by charging a write the moment a dirty block leaves the
                // dirty set due to eviction. Because `LruCache` does not
                // report evict victims, dirty blocks are charged at flush()
                // or when re-dirtied after falling out of cache.
                if write && self.dirty.remove(block) {
                    // Block fell out of the cache while dirty: charge the
                    // write-back that must have happened.
                    self.stats.writes += 1;
                }
            }
            if write {
                self.dirty.insert(block);
            }
        }
    }
}

impl Default for IoModel {
    fn default() -> Self {
        Self::new(IoConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(block: usize, blocks: usize) -> IoModel {
        IoModel::new(IoConfig::new(block, blocks))
    }

    #[test]
    fn sequential_scan_costs_len_over_b() {
        let mut m = model(64, 16);
        // Read 1024 bytes one byte at a time: 1024/64 = 16 block fetches.
        for i in 0..1024u64 {
            m.read(i, 1);
        }
        assert_eq!(m.stats().reads, 16);
        assert_eq!(m.stats().accesses, 1024);
    }

    #[test]
    fn repeated_access_is_cached() {
        let mut m = model(64, 16);
        m.read(0, 8);
        m.read(0, 8);
        m.read(32, 8);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn range_read_spanning_blocks() {
        let mut m = model(100, 16);
        m.read(50, 200); // touches blocks 0, 1, 2
        assert_eq!(m.stats().reads, 3);
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut m = model(64, 4);
        m.read(10, 0);
        assert_eq!(m.stats().reads, 0);
        assert_eq!(m.stats().accesses, 1);
    }

    #[test]
    fn zero_length_write_charges_zero_transfers() {
        // A zero-length write must not fetch, dirty, or cache anything:
        // flush() afterwards has no write-backs to charge.
        let mut m = model(64, 4);
        m.write(100, 0);
        assert_eq!(m.stats().reads, 0);
        m.flush();
        assert_eq!(m.stats().writes, 0);
        // And it must not have warmed the cache for the block either.
        m.read(100, 1);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn boundary_straddling_write_charges_one_transfer_per_distinct_block() {
        // An 8-byte write at offset 60 with B = 64 touches bytes 60..68,
        // i.e. exactly blocks 0 and 1: two fetches, and two write-backs at
        // flush — never one, never three.
        let mut m = model(64, 16);
        m.write(60, 8);
        assert_eq!(m.stats().reads, 2);
        m.flush();
        assert_eq!(m.stats().writes, 2);
        // A one-byte access ending exactly on a boundary stays one block.
        let mut m = model(64, 16);
        m.read(63, 1);
        assert_eq!(m.stats().reads, 1);
        m.read(64, 1);
        assert_eq!(m.stats().reads, 2);
    }

    #[test]
    fn access_at_the_end_of_the_address_space_saturates() {
        // addr + len overflowing u64 must not wrap around to block 0 (which
        // would iterate the whole address space); it clamps to the last
        // block.
        let mut m = model(64, 4);
        m.read(u64::MAX - 1, 16);
        assert_eq!(m.stats().reads, 1);
        assert_eq!(m.stats().accesses, 1);
    }

    #[test]
    fn since_saturates_when_baseline_postdates_a_reset() {
        // Snapshot, then reset_stats(): the baseline now exceeds the live
        // counters, and since() must return zeros, not underflow.
        let mut m = model(64, 16);
        m.read(0, 256);
        let baseline = m.stats();
        m.reset_stats();
        m.read(0, 64);
        let delta = m.stats().since(&baseline);
        assert_eq!(delta, IoStats::default());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let zero_block = IoConfig {
            block_size: 0,
            memory_blocks: 8,
        };
        assert_eq!(zero_block.validate(), Err(IoConfigError::ZeroBlockSize));
        let zero_memory = IoConfig {
            block_size: 4096,
            memory_blocks: 0,
        };
        assert_eq!(zero_memory.validate(), Err(IoConfigError::ZeroMemoryBlocks));
        assert_eq!(IoConfig::new(4096, 8).validate(), Ok(()));
    }

    #[test]
    fn cache_too_small_causes_thrashing() {
        let mut m = model(64, 2);
        // Cyclic scan over 4 blocks with room for 2: every access misses.
        for _ in 0..10 {
            for b in 0..4u64 {
                m.read(b * 64, 1);
            }
        }
        assert_eq!(m.stats().reads, 40);
    }

    #[test]
    fn flush_charges_dirty_blocks_once() {
        let mut m = model(64, 16);
        m.write(0, 64);
        m.write(64, 64);
        m.write(0, 8); // same block as first write
        assert_eq!(m.stats().writes, 0);
        m.flush();
        assert_eq!(m.stats().writes, 2);
        m.flush();
        assert_eq!(m.stats().writes, 2);
    }

    #[test]
    fn transfers_sums_reads_and_writes() {
        let mut m = model(64, 16);
        m.write(0, 128);
        m.flush();
        let s = m.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.transfers(), 4);
    }

    #[test]
    fn reset_cold_clears_cache() {
        let mut m = model(64, 16);
        m.read(0, 64);
        m.reset_cold();
        assert_eq!(m.stats().reads, 0);
        m.read(0, 64);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn reset_stats_keeps_cache_warm() {
        let mut m = model(64, 16);
        m.read(0, 64);
        m.reset_stats();
        m.read(0, 64);
        assert_eq!(m.stats().reads, 0, "block should still be cached");
    }

    #[test]
    fn stats_since() {
        let mut m = model(64, 16);
        m.read(0, 64);
        let before = m.stats();
        m.read(4096, 64);
        let delta = m.stats().since(&before);
        assert_eq!(delta.reads, 1);
    }

    #[test]
    fn block_of_maps_addresses() {
        let m = model(4096, 4);
        assert_eq!(m.block_of(0), 0);
        assert_eq!(m.block_of(4095), 0);
        assert_eq!(m.block_of(4096), 1);
    }
}
