//! Deterministic fault injection: the full fault universe for [`BlockFile`].
//!
//! A [`FaultPlan`] is a scripted universe of storage failures, all of them
//! pure functions of the plan's parameters (counters and seeds, never clocks
//! or OS entropy), so every chaos cell is replayable. The crash batteries'
//! "kill the write stream after `n` blocks" is one plan kind,
//! `FaultPlan::new([Fault::TornWrite { at: n }])`:
//!
//! | fault | models | surfaces as |
//! |---|---|---|
//! | [`Fault::TornWrite`] | power loss at a block boundary | [`FileError::Crashed`], handle poisoned |
//! | [`Fault::ShortWrite`] | power loss **inside** a block | half a block on disk, then [`FileError::Crashed`] |
//! | [`Fault::WriteTransient`] | flaky bus: `EIO` that goes away | retried; [`FileError::Transient`] if it persists |
//! | [`Fault::ReadTransient`] | flaky bus on the read path | retried; [`FileError::Transient`] if it persists |
//! | [`Fault::ReadError`] | an unreadable (pending-reallocation) sector | a permanent injected `EIO` |
//! | [`Fault::ShortRead`] | a file that ends before the requested bytes | [`FileError::ShortRead`] |
//! | [`Fault::NoSpace`] | disk full mid-commit | [`FileError::NoSpace`] |
//! | [`Fault::BitRot`] | media decay discovered at read time | flipped bits; checksums turn them into [`FileError::Corrupt`] |
//!
//! Clones share one state (counters, remaining transient failures), so a
//! single plan armed on a store's data and journal files together indexes
//! the *global* write stream — the injection site lands wherever the commit
//! protocol happens to be. An armed plan is also the one thing that turns
//! [`BlockFile`]'s contiguous run transfers back into per-block ones, so
//! every block boundary stays a kill point.
//!
//! [`BlockFile`]: crate::BlockFile
//! [`FileError::Crashed`]: crate::FileError::Crashed
//! [`FileError::Transient`]: crate::FileError::Transient
//! [`FileError::ShortRead`]: crate::FileError::ShortRead
//! [`FileError::NoSpace`]: crate::FileError::NoSpace
//! [`FileError::Corrupt`]: crate::FileError::Corrupt

use std::sync::{Arc, Mutex, PoisonError};

/// One scripted storage fault. Indices count *logical* block transfers
/// (retries of the same block re-use the index), separately for writes and
/// reads, shared across every file the plan is armed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every block write with index `>= at` fails before any byte lands and
    /// poisons the handle: a crash torn at a block boundary.
    TornWrite {
        /// First failing write index.
        at: u64,
    },
    /// The write with index `at` puts *half* the block on disk, then fails
    /// and poisons the handle: a crash torn inside a block.
    ShortWrite {
        /// The one failing write index.
        at: u64,
    },
    /// The write with index `at` fails `times` attempts with a transient
    /// error, then succeeds. With `times` below the retry budget the caller
    /// never notices; at or above it the op fails typed.
    WriteTransient {
        /// The affected write index.
        at: u64,
        /// Failures before the fault clears.
        times: u32,
    },
    /// The read with index `at` fails `times` attempts, then succeeds.
    ReadTransient {
        /// The affected read index.
        at: u64,
        /// Failures before the fault clears.
        times: u32,
    },
    /// Every read touching this absolute block id fails permanently — an
    /// unreadable sector.
    ReadError {
        /// The unreadable block id.
        block: u64,
    },
    /// The read with index `at` reports end-of-file before the requested
    /// bytes.
    ShortRead {
        /// The one failing read index.
        at: u64,
    },
    /// Every block write with index `>= at` fails with disk-full. Unlike a
    /// torn write this does not poison the handle: `ENOSPC` is an
    /// environment condition, not evidence of a torn stream.
    NoSpace {
        /// First failing write index.
        at: u64,
    },
    /// Seeded bit rot: roughly one in `one_in` block reads comes back with
    /// one bit flipped, chosen by hashing `(seed, block id)` — the same
    /// blocks rot on every run with the same seed.
    BitRot {
        /// Seed for the rot pattern.
        seed: u64,
        /// Rot frequency (a block rots when the hash of `(seed, block)` is
        /// `0 mod one_in`); `0` behaves as `1` (every block).
        one_in: u64,
    },
}

/// What the plan decided for one write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteEffect {
    /// Perform the write normally.
    Allow,
    /// Fail this attempt with a transient error (retryable).
    Transient,
    /// Crash at the block boundary: no bytes land, handle poisons.
    Torn,
    /// Crash inside the block: half the bytes land, handle poisons.
    Short,
    /// Fail with disk-full.
    NoSpace,
}

/// What the plan decided for one read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadEffect {
    /// Perform the read normally.
    Allow,
    /// Fail this attempt with a transient error (retryable).
    Transient,
    /// Report end-of-file before the requested bytes.
    Short,
    /// Fail permanently (unreadable sector).
    Permanent,
}

#[derive(Debug)]
struct PlanState {
    faults: Vec<Fault>,
    /// Remaining failures for each fault (meaningful for the transient
    /// kinds; parallel to `faults`).
    left: Vec<u32>,
    writes: u64,
    reads: u64,
}

/// A deterministic, shareable script of storage faults for [`BlockFile`].
///
/// The default plan is inert and costs one branch per transfer. Clones
/// share state; see the module docs for the fault taxonomy.
///
/// [`BlockFile`]: crate::BlockFile
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    shared: Option<Arc<Mutex<PlanState>>>,
}

impl FaultPlan {
    /// The inert plan: no faults, near-zero overhead.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan injecting the given faults. When several faults match one
    /// transfer, the first match in `faults` order wins.
    pub fn new(faults: impl IntoIterator<Item = Fault>) -> Self {
        let faults: Vec<Fault> = faults.into_iter().collect();
        let left = faults
            .iter()
            .map(|f| match f {
                Fault::WriteTransient { times, .. } | Fault::ReadTransient { times, .. } => *times,
                _ => 0,
            })
            .collect();
        Self {
            shared: Some(Arc::new(Mutex::new(PlanState {
                faults,
                left,
                writes: 0,
                reads: 0,
            }))),
        }
    }

    /// `true` when the plan can inject anything (drives the fast path).
    pub fn is_armed(&self) -> bool {
        self.shared.is_some()
    }

    /// Logical block reads begun so far across all shared clones.
    pub fn reads_begun(&self) -> u64 {
        self.state().map_or(0, |s| s.reads)
    }

    /// Writes left before the first [`Fault::TornWrite`] fires (`None` when
    /// the plan has no torn write).
    pub fn write_budget_remaining(&self) -> Option<u64> {
        let state = self.state()?;
        state
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::TornWrite { at } => Some(at.saturating_sub(state.writes)),
                _ => None,
            })
            .min()
    }

    fn state(&self) -> Option<std::sync::MutexGuard<'_, PlanState>> {
        // Plan state is per-attempt bookkeeping (counters), consistent
        // after every mutation, so recovering a poisoned guard is sound.
        self.shared
            .as_ref()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Claims the next logical write index. Retries of the same block must
    /// re-use the claimed index rather than claim a new one.
    pub(crate) fn begin_write(&self) -> u64 {
        self.state().map_or(0, |mut s| {
            let i = s.writes;
            s.writes += 1;
            i
        })
    }

    /// Claims the next logical read index.
    pub(crate) fn begin_read(&self) -> u64 {
        self.state().map_or(0, |mut s| {
            let i = s.reads;
            s.reads += 1;
            i
        })
    }

    /// The effect on one attempt of write `index`.
    pub(crate) fn write_effect(&self, index: u64) -> WriteEffect {
        let Some(mut state) = self.state() else {
            return WriteEffect::Allow;
        };
        for k in 0..state.faults.len() {
            match state.faults[k] {
                Fault::TornWrite { at } if index >= at => return WriteEffect::Torn,
                Fault::ShortWrite { at } if index == at => return WriteEffect::Short,
                Fault::NoSpace { at } if index >= at => return WriteEffect::NoSpace,
                Fault::WriteTransient { at, .. } if index == at && state.left[k] > 0 => {
                    state.left[k] -= 1;
                    return WriteEffect::Transient;
                }
                _ => {}
            }
        }
        WriteEffect::Allow
    }

    /// The effect on one attempt of read `index` touching `block`.
    pub(crate) fn read_effect(&self, index: u64, block: u64) -> ReadEffect {
        let Some(mut state) = self.state() else {
            return ReadEffect::Allow;
        };
        for k in 0..state.faults.len() {
            match state.faults[k] {
                Fault::ReadError { block: b } if block == b => return ReadEffect::Permanent,
                Fault::ShortRead { at } if index == at => return ReadEffect::Short,
                Fault::ReadTransient { at, .. } if index == at && state.left[k] > 0 => {
                    state.left[k] -= 1;
                    return ReadEffect::Transient;
                }
                _ => {}
            }
        }
        ReadEffect::Allow
    }

    /// Applies seeded bit rot to a block image that was just read.
    pub(crate) fn rot(&self, block: u64, buf: &mut [u8]) {
        let Some(state) = self.state() else {
            return;
        };
        for f in &state.faults {
            if let Fault::BitRot { seed, one_in } = *f {
                let h = mix(seed ^ mix(block.wrapping_add(1)));
                if h.is_multiple_of(one_in.max(1)) && !buf.is_empty() {
                    let bit = mix(h) % (buf.len() as u64 * 8);
                    buf[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
            }
        }
    }
}

/// SplitMix64 finalizer: the workspace's stand-in for a seeded hash where a
/// full RNG would be overkill. Pure function of its input — no entropy.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_allows_everything() {
        let p = FaultPlan::none();
        assert!(!p.is_armed());
        assert_eq!(p.write_effect(p.begin_write()), WriteEffect::Allow);
        assert_eq!(p.read_effect(p.begin_read(), 7), ReadEffect::Allow);
        assert_eq!(p.write_budget_remaining(), None);
    }

    #[test]
    fn clones_share_counters_and_budgets() {
        let a = FaultPlan::new([Fault::TornWrite { at: 2 }]);
        let b = a.clone();
        assert_eq!(a.write_effect(a.begin_write()), WriteEffect::Allow);
        assert_eq!(b.write_effect(b.begin_write()), WriteEffect::Allow);
        assert_eq!(a.write_budget_remaining(), Some(0));
        assert_eq!(b.write_effect(b.begin_write()), WriteEffect::Torn);
    }

    #[test]
    fn transient_faults_clear_after_their_quota() {
        let p = FaultPlan::new([Fault::WriteTransient { at: 0, times: 2 }]);
        let i = p.begin_write();
        assert_eq!(p.write_effect(i), WriteEffect::Transient);
        assert_eq!(p.write_effect(i), WriteEffect::Transient);
        assert_eq!(p.write_effect(i), WriteEffect::Allow);
    }

    #[test]
    fn first_matching_fault_wins() {
        let p = FaultPlan::new([Fault::NoSpace { at: 5 }, Fault::TornWrite { at: 5 }]);
        for _ in 0..5 {
            assert_eq!(p.write_effect(p.begin_write()), WriteEffect::Allow);
        }
        assert_eq!(p.write_effect(p.begin_write()), WriteEffect::NoSpace);
    }

    #[test]
    fn bit_rot_is_deterministic_per_block() {
        let p = FaultPlan::new([Fault::BitRot {
            seed: 42,
            one_in: 1,
        }]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        p.rot(3, &mut a);
        p.rot(3, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|x| x.count_ones()).sum::<u32>(), 1);
        let mut c = vec![0u8; 64];
        p.rot(4, &mut c);
        assert_ne!(a, c, "different blocks rot differently");
    }
}
