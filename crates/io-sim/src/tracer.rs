//! The access-tracing handle shared by all data structures.
//!
//! A [`Tracer`] is either disabled (the default; all methods are no-ops that
//! the optimizer removes) or connected to a shared [`IoModel`]. Structures
//! hold a `Tracer` and report the byte ranges they touch; benchmark harnesses
//! construct one `IoModel`, hand clones of the connected tracer to every
//! structure under test, and read the transfer counts per operation.
//!
//! Cache-oblivious structures stay oblivious: they only know *addresses*,
//! never the block size.
//!
//! The handle is `Send + Sync` (an `Arc<Mutex<_>>` around the model), so a
//! traced engine can be moved onto the sharded service layer's worker
//! threads; a disabled tracer stays a no-op with zero synchronization cost.

use crate::model::{IoConfig, IoModel, IoStats};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks the shared model, recovering the guard if a panicking thread
/// poisoned it. The model is an accounting ledger (counters plus an LRU
/// residency set) that is consistent after every individual mutation, so
/// taking it back and continuing to count is always sound — and one
/// thread's panic never cascades through every engine sharing the ledger.
fn locked(m: &Mutex<IoModel>) -> MutexGuard<'_, IoModel> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cloneable handle for reporting memory accesses into a shared [`IoModel`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    model: Option<Arc<Mutex<IoModel>>>,
}

impl Tracer {
    /// A disabled tracer: every call is a no-op.
    pub fn disabled() -> Self {
        Self { model: None }
    }

    /// A tracer connected to a fresh [`IoModel`] with the given config.
    pub fn enabled(config: IoConfig) -> Self {
        Self {
            model: Some(Arc::new(Mutex::new(IoModel::new(config)))),
        }
    }

    /// Returns `true` when connected to a model.
    pub fn is_enabled(&self) -> bool {
        self.model.is_some()
    }

    /// Records a read of `len` bytes at `addr`.
    #[inline]
    pub fn read(&self, addr: u64, len: u64) {
        if let Some(m) = &self.model {
            locked(m).read(addr, len);
        }
    }

    /// Records a write of `len` bytes at `addr`.
    #[inline]
    pub fn write(&self, addr: u64, len: u64) {
        if let Some(m) = &self.model {
            locked(m).write(addr, len);
        }
    }

    /// Charges `reads` block fetches and `writes` write-backs directly,
    /// bypassing the cache simulation.
    ///
    /// Structures that do their own DAM-model accounting (the baseline
    /// B-tree charges one transfer per node it touches, the skip lists
    /// charge per padded leaf array) report their per-operation cost here so
    /// that every structure's I/O shows up in one uniform [`IoStats`] ledger
    /// regardless of how the cost was derived.
    #[inline]
    pub fn charge(&self, reads: u64, writes: u64) {
        if let Some(m) = &self.model {
            locked(m).charge(reads, writes);
        }
    }

    /// Current transfer counters (zeros when disabled).
    pub fn stats(&self) -> IoStats {
        self.model
            .as_ref()
            .map(|m| locked(m).stats())
            .unwrap_or_default()
    }

    /// The model configuration, if enabled.
    pub fn config(&self) -> Option<IoConfig> {
        self.model.as_ref().map(|m| locked(m).config())
    }

    /// Resets counters, keeping the cache warm.
    pub fn reset_stats(&self) {
        if let Some(m) = &self.model {
            locked(m).reset_stats();
        }
    }

    /// Empties the cache and resets counters.
    pub fn reset_cold(&self) {
        if let Some(m) = &self.model {
            locked(m).reset_cold();
        }
    }

    /// Flushes dirty blocks (charging write-backs).
    pub fn flush(&self) {
        if let Some(m) = &self.model {
            locked(m).flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_is_send_and_sync() {
        // Compile-time audit: traced engines cross thread boundaries in the
        // sharded service layer, so the handle must be thread-safe.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer>();
    }

    #[test]
    fn disabled_tracer_is_noop() {
        let t = Tracer::disabled();
        t.read(0, 100);
        t.write(0, 100);
        t.flush();
        assert_eq!(t.stats(), IoStats::default());
        assert!(!t.is_enabled());
        assert!(t.config().is_none());
    }

    #[test]
    fn enabled_tracer_counts() {
        let t = Tracer::enabled(IoConfig::new(64, 8));
        t.read(0, 128);
        assert_eq!(t.stats().reads, 2);
        assert!(t.is_enabled());
        assert_eq!(t.config().unwrap().block_size, 64);
    }

    #[test]
    fn clones_share_a_model() {
        let t = Tracer::enabled(IoConfig::new(64, 8));
        let u = t.clone();
        t.read(0, 64);
        u.read(0, 64); // cached because t already fetched it
        assert_eq!(t.stats().reads, 1);
        assert_eq!(u.stats().reads, 1);
    }

    #[test]
    fn reset_cold_and_warm() {
        let t = Tracer::enabled(IoConfig::new(64, 8));
        t.read(0, 64);
        t.reset_stats();
        t.read(0, 64);
        assert_eq!(t.stats().reads, 0);
        t.reset_cold();
        t.read(0, 64);
        assert_eq!(t.stats().reads, 1);
    }
}
