//! A simulation of history-independent allocation (Naor–Teague).
//!
//! The paper uses history-independent allocation as a black box (§2.1) and
//! relies on it for the external-memory skip list: "each array is allocated
//! in blocks of size Θ(B) history-independently" (§6.3). The essential
//! property is that the *addresses* at which objects live reveal nothing
//! about the order in which they were allocated: conditioned on the multiset
//! of live allocation sizes, the placement is drawn from a canonical
//! distribution.
//!
//! [`HiAllocator`] simulates this over a block-granular virtual disk: an
//! allocation of `b` blocks is placed uniformly at random over **all** free
//! positions that can hold it (every free run of length `ℓ ≥ b` contributes
//! `ℓ − b + 1` candidate offsets). Freed runs are coalesced with their
//! neighbours. The disk grows geometrically when no free run is large
//! enough, and the occupancy therefore stays within a constant factor of the
//! live data, mirroring the `O(N)` space guarantees in the paper.

use rand::Rng;

/// A live allocation handle: a contiguous run of whole blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First block of the run.
    pub start_block: u64,
    /// Length of the run in blocks.
    pub blocks: u64,
}

impl Allocation {
    /// Byte address of the first byte, given the allocator's block size.
    pub fn byte_addr(&self, block_size: u64) -> u64 {
        self.start_block * block_size
    }

    /// Length in bytes, given the allocator's block size.
    pub fn byte_len(&self, block_size: u64) -> u64 {
        self.blocks * block_size
    }
}

/// A free run of blocks `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeRun {
    start: u64,
    len: u64,
}

/// History-independent block allocator over a simulated virtual disk.
#[derive(Debug, Clone)]
pub struct HiAllocator {
    block_size: u64,
    disk_blocks: u64,
    live_blocks: u64,
    /// Free runs, kept sorted by start block and coalesced.
    free: Vec<FreeRun>,
}

impl HiAllocator {
    /// Creates an allocator with the given block size (bytes) and an initial
    /// disk of `initial_blocks` blocks (all free).
    pub fn new(block_size: u64, initial_blocks: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let initial_blocks = initial_blocks.max(1);
        Self {
            block_size,
            disk_blocks: initial_blocks,
            live_blocks: 0,
            free: vec![FreeRun {
                start: 0,
                len: initial_blocks,
            }],
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Current simulated disk size in blocks.
    pub fn disk_blocks(&self) -> u64 {
        self.disk_blocks
    }

    /// Number of blocks currently allocated.
    pub fn live_blocks(&self) -> u64 {
        self.live_blocks
    }

    /// Number of blocks needed to hold `bytes` bytes.
    pub fn blocks_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_size).max(1)
    }

    /// Allocates a run of `blocks` blocks at a uniformly random free
    /// position, growing the disk if necessary.
    pub fn allocate<R: Rng + ?Sized>(&mut self, blocks: u64, rng: &mut R) -> Allocation {
        assert!(blocks > 0, "cannot allocate zero blocks");
        loop {
            let candidates: u64 = self
                .free
                .iter()
                .filter(|r| r.len >= blocks)
                .map(|r| r.len - blocks + 1)
                .sum();
            if candidates == 0 {
                self.grow(blocks);
                continue;
            }
            let mut pick = rng.gen_range(0..candidates);
            let mut chosen: Option<(usize, u64)> = None;
            for (i, run) in self.free.iter().enumerate() {
                if run.len < blocks {
                    continue;
                }
                let options = run.len - blocks + 1;
                if pick < options {
                    chosen = Some((i, run.start + pick));
                    break;
                }
                pick -= options;
            }
            #[expect(
                clippy::expect_used,
                reason = "candidates is the sum of per-run options, so pick < candidates always lands in a run"
            )]
            let (idx, start) = chosen.expect("candidate accounting is consistent");
            self.carve(idx, start, blocks);
            self.live_blocks += blocks;
            return Allocation {
                start_block: start,
                blocks,
            };
        }
    }

    /// Allocates enough blocks to hold `bytes` bytes.
    pub fn allocate_bytes<R: Rng + ?Sized>(&mut self, bytes: u64, rng: &mut R) -> Allocation {
        let blocks = self.blocks_for(bytes);
        self.allocate(blocks, rng)
    }

    /// Frees a previously returned allocation.
    ///
    /// # Panics
    ///
    /// Panics if the run overlaps a free run (double free) or lies outside
    /// the disk.
    pub fn free(&mut self, alloc: Allocation) {
        assert!(
            alloc.start_block + alloc.blocks <= self.disk_blocks,
            "allocation outside the simulated disk"
        );
        let run = FreeRun {
            start: alloc.start_block,
            len: alloc.blocks,
        };
        // Find insertion point by start block.
        let pos = self.free.partition_point(|r| r.start < run.start);
        if pos > 0 {
            let prev = &self.free[pos - 1];
            assert!(
                prev.start + prev.len <= run.start,
                "double free / overlap with preceding free run"
            );
        }
        if pos < self.free.len() {
            let next = &self.free[pos];
            assert!(
                run.start + run.len <= next.start,
                "double free / overlap with following free run"
            );
        }
        self.free.insert(pos, run);
        self.coalesce_around(pos);
        self.live_blocks -= alloc.blocks;
    }

    /// Fraction of the disk currently allocated.
    pub fn utilization(&self) -> f64 {
        if self.disk_blocks == 0 {
            0.0
        } else {
            self.live_blocks as f64 / self.disk_blocks as f64
        }
    }

    fn grow(&mut self, at_least: u64) {
        let old = self.disk_blocks;
        let grow_by = old.max(at_least).max(1);
        self.free.push(FreeRun {
            start: old,
            len: grow_by,
        });
        self.disk_blocks = old + grow_by;
        // The appended run may touch the previous last free run.
        let idx = self.free.len() - 1;
        self.coalesce_around(idx);
    }

    fn carve(&mut self, idx: usize, start: u64, blocks: u64) {
        let run = self.free[idx];
        debug_assert!(start >= run.start && start + blocks <= run.start + run.len);
        let left = FreeRun {
            start: run.start,
            len: start - run.start,
        };
        let right = FreeRun {
            start: start + blocks,
            len: (run.start + run.len) - (start + blocks),
        };
        self.free.remove(idx);
        let mut insert_at = idx;
        if left.len > 0 {
            self.free.insert(insert_at, left);
            insert_at += 1;
        }
        if right.len > 0 {
            self.free.insert(insert_at, right);
        }
    }

    fn coalesce_around(&mut self, idx: usize) {
        // Merge with the following run if adjacent.
        if idx + 1 < self.free.len() {
            let (cur, next) = (self.free[idx], self.free[idx + 1]);
            if cur.start + cur.len == next.start {
                self.free[idx].len += next.len;
                self.free.remove(idx + 1);
            }
        }
        // Merge with the preceding run if adjacent.
        if idx > 0 {
            let (prev, cur) = (self.free[idx - 1], self.free[idx]);
            if prev.start + prev.len == cur.start {
                self.free[idx - 1].len += cur.len;
                self.free.remove(idx);
            }
        }
    }

    #[cfg(test)]
    fn free_blocks(&self) -> u64 {
        self.free.iter().map(|r| r.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn allocate_within_disk() {
        let mut a = HiAllocator::new(4096, 64);
        let mut r = rng(0);
        let al = a.allocate(8, &mut r);
        assert!(al.start_block + al.blocks <= a.disk_blocks());
        assert_eq!(a.live_blocks(), 8);
    }

    #[test]
    fn accounting_is_conserved() {
        let mut a = HiAllocator::new(512, 16);
        let mut r = rng(1);
        let mut live = Vec::new();
        for i in 0..200u64 {
            if i % 3 != 2 || live.is_empty() {
                live.push(a.allocate(1 + i % 5, &mut r));
            } else {
                let al: Allocation = live.swap_remove((i as usize * 7) % live.len());
                a.free(al);
            }
            assert_eq!(
                a.live_blocks() + a.free_blocks(),
                a.disk_blocks(),
                "free + live must equal disk size"
            );
        }
    }

    #[test]
    fn grows_when_needed() {
        let mut a = HiAllocator::new(512, 4);
        let mut r = rng(2);
        let al = a.allocate(32, &mut r);
        assert!(a.disk_blocks() >= 32);
        assert_eq!(al.blocks, 32);
    }

    #[test]
    fn free_coalesces() {
        let mut a = HiAllocator::new(512, 64);
        let mut r = rng(3);
        let x = a.allocate(10, &mut r);
        let y = a.allocate(10, &mut r);
        a.free(x);
        a.free(y);
        assert_eq!(a.live_blocks(), 0);
        assert_eq!(
            a.free.len(),
            1,
            "all free space should coalesce: {:?}",
            a.free
        );
        assert_eq!(a.free_blocks(), a.disk_blocks());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = HiAllocator::new(512, 64);
        let mut r = rng(4);
        let x = a.allocate(4, &mut r);
        a.free(x);
        a.free(x);
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn zero_allocation_panics() {
        let mut a = HiAllocator::new(512, 64);
        let mut r = rng(5);
        a.allocate(0, &mut r);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let a = HiAllocator::new(4096, 4);
        assert_eq!(a.blocks_for(1), 1);
        assert_eq!(a.blocks_for(4096), 1);
        assert_eq!(a.blocks_for(4097), 2);
        assert_eq!(a.blocks_for(0), 1);
    }

    #[test]
    fn placement_is_random_not_first_fit() {
        // Allocate one block on an empty 256-block disk many times with fresh
        // randomness; a first-fit allocator would always return block 0.
        let mut seen_nonzero = false;
        for seed in 0..50 {
            let mut a = HiAllocator::new(512, 256);
            let mut r = rng(1000 + seed);
            let al = a.allocate(1, &mut r);
            if al.start_block != 0 {
                seen_nonzero = true;
            }
        }
        assert!(seen_nonzero, "placements look deterministic (first-fit?)");
    }

    #[test]
    fn placement_distribution_is_uniform() {
        // Single-block allocations on a 16-block empty disk should land on
        // each block with equal probability.
        let trials = 16_000;
        let mut counts = vec![0u64; 16];
        for seed in 0..trials {
            let mut a = HiAllocator::new(512, 16);
            let mut r = rng(5_000 + seed);
            let al = a.allocate(1, &mut r);
            counts[al.start_block as usize] += 1;
        }
        let outcome = hi_common::stats::chi2_gof_uniform(&counts);
        assert!(
            outcome.p_value > 1e-4,
            "placement not uniform: {:?}",
            counts
        );
    }

    #[test]
    fn utilization_tracks_live_fraction() {
        let mut a = HiAllocator::new(512, 100);
        let mut r = rng(9);
        assert_eq!(a.utilization(), 0.0);
        a.allocate(50, &mut r);
        assert!((a.utilization() - 0.5).abs() < 1e-9);
    }
}
