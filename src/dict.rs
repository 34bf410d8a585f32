//! One builder, every dictionary engine: runtime backend selection.
//!
//! The paper's thesis is that a history-independent structure can be
//! *swapped in* for a conventional B-tree without the caller noticing. This
//! module makes the swap a one-word change (or a runtime value): a single
//! [`DictBuilder`] constructs any of the workspace's six backends, and the
//! [`DynDict`] facade dispatches the whole [`Dictionary`] surface over them,
//! so benchmarks, workloads and examples select engines with data instead of
//! per-type code paths.
//!
//! | [`Backend`] | Engine | Paper role |
//! |---|---|---|
//! | [`Backend::BTree`] | [`btree::BTree`] | the conventional baseline |
//! | [`Backend::HiSkipList`] | [`skiplist::ExternalSkipList`] (HI params) | Theorem 3 |
//! | [`Backend::FolkloreSkipList`] | [`skiplist::ExternalSkipList`] (1/B) | Lemma 15 baseline |
//! | [`Backend::InMemorySkipList`] | [`skiplist::ExternalSkipList`] (1/2) | RAM baseline on disk |
//! | [`Backend::HiPma`] | [`pma::HiPma`] behind [`RankedDict`] ([`HiDict`]) | Theorems 1 and 2: the HI cache-oblivious B-tree, keyed by one value-tree descent |
//! | [`Backend::ClassicPma`] | [`pma::ClassicPma`] behind [`RankedDict`] | density-band baseline, keyed by binary search |
//!
//! Every backend built here shares one [`SharedCounters`] ledger and one
//! [`Tracer`], so instrumentation is uniform: enable an [`IoConfig`] on the
//! builder and read [`DynDict::io_stats`] afterwards, whichever engine is
//! underneath.
//!
//! ```
//! use anti_persistence::dict::{Backend, Dict};
//! use anti_persistence::prelude::*;
//!
//! // Identical call-site code for every backend.
//! for backend in Backend::ALL {
//!     let mut index: DynDict<u64, u64> = Dict::builder().backend(backend).seed(7).build();
//!     index.insert(2, 20);
//!     index.insert(1, 10);
//!     assert_eq!(index.get(&2), Some(20));
//!     assert_eq!(index.range(&1, &2).len(), 2);
//! }
//! ```

use std::fmt;
use std::hash::Hash;
use std::io;
use std::ops::{Deref, DerefMut, RangeBounds};
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

use block_store::{BlockStore, StoreOptions};
use btree::BTree;
use hi_common::counters::{OpCounters, SharedCounters};
use hi_common::rng::RngSource;
use hi_common::traits::{Dictionary, Occupancy, RankedDict};
use io_sim::{IoConfig, IoStats, Tracer};
use pma::persist::{verify_layout, PersistError};
use pma::{ClassicPma, DensityBands, HiPma};
use shard::{Instrumented, ShardRouter, ShardedDict};
use skiplist::{ExternalSkipList, SkipParams};

/// The dictionary engines a [`DictBuilder`] can construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The conventional external-memory B+-tree baseline.
    BTree,
    /// The history-independent external skip list (Theorem 3).
    HiSkipList,
    /// The folklore B-skip list (promotion `1/B`, Lemma 15 baseline).
    FolkloreSkipList,
    /// An in-memory (Pugh) skip list run in external memory.
    InMemorySkipList,
    /// The history-independent PMA (Theorem 1) behind a keyed adapter: the
    /// HI cache-oblivious B-tree (Theorem 2), and the engine served.
    HiPma,
    /// The classic density-band PMA behind a keyed adapter.
    ClassicPma,
}

impl Backend {
    /// Every backend, in the order the comparison tables print them.
    pub const ALL: [Backend; 6] = [
        Backend::BTree,
        Backend::HiSkipList,
        Backend::FolkloreSkipList,
        Backend::InMemorySkipList,
        Backend::HiPma,
        Backend::ClassicPma,
    ];

    /// Stable, machine-friendly name (accepted back by [`FromStr`]).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::BTree => "btree",
            Backend::HiSkipList => "hi-skiplist",
            Backend::FolkloreSkipList => "folklore-skiplist",
            Backend::InMemorySkipList => "in-memory-skiplist",
            Backend::HiPma => "hi-pma",
            Backend::ClassicPma => "classic-pma",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Backend::ALL.iter().map(Backend::name).collect();
                format!("unknown backend {s:?}; expected one of {names:?}")
            })
    }
}

/// Complete configuration of a dictionary: the backend plus every tuning and
/// instrumentation knob any engine understands. Knobs an engine does not use
/// are simply ignored by it, which is what lets one config drive all six.
#[derive(Debug, Clone)]
pub struct DictConfig {
    /// Which engine to construct. `dict-server` serves [`Backend::HiPma`]
    /// only, and refuses a config naming any other.
    pub backend: Backend,
    /// Secret coins for the randomized (history-independent) engines.
    pub seed: u64,
    /// Fanout `B` of the conventional B-tree (`≥ 4`).
    pub fanout: usize,
    /// Elements per disk block for the skip lists (`≥ 2`).
    pub block_elems: usize,
    /// Range/search trade-off `ε ∈ (0, 1)` of the HI skip list.
    pub epsilon: f64,
    /// Bytes per record for the PMA-backed engines' simulated disk layout.
    pub elem_size: u64,
    /// When set, the structure reports into a fresh [`Tracer`] with this
    /// cache configuration; when `None`, tracing is disabled (zero cost).
    pub io: Option<IoConfig>,
    /// Shard count for [`DictBuilder::build_sharded`] (`1..=64`). Ignored by
    /// the single-shard [`DictBuilder::build`]. A [`ShardedDict`] runs each
    /// batch shard by shard on the calling thread, so this is the only
    /// sharding knob.
    pub shards: usize,
    /// Epoch group-commit and backpressure knobs for the network front-end
    /// (`dict-server`). Ignored by the in-process builders.
    pub server: ServerConfig,
}

/// Epoch group-commit and backpressure knobs consumed by the `dict-server`
/// front-end, which serves shards of [`HiDict`] (the config's `backend`
/// must be [`Backend::HiPma`]): a connection applies the queued
/// operations — every connection's, as leader of an epoch — when it is
/// about to block or holds `epoch_ops` of its own (there is no timer and
/// no engine thread), and each shard queue sheds load (typed `Overloaded`
/// response) beyond `queue_bound` waiting operations.
///
/// The knobs live here — not as server CLI flags alone — so
/// [`DictConfig::validate`] can reject the degenerate values *before* a
/// thread is spawned: a 0-op epoch budget would hand over nothing, and a
/// queue bound of 0 sheds every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Epoch budget in operations (`≥ 1`): the most operations one
    /// connection queues before it leads an epoch, even when more of its
    /// requests have already arrived.
    pub epoch_ops: usize,
    /// Per-shard queue bound (`≥ 1`): operations beyond this shed with a
    /// typed overload response instead of queueing unboundedly.
    pub queue_bound: usize,
    /// Accept-loop thread count (`≥ 1`).
    pub acceptors: usize,
    /// Largest frame the server will read, in bytes (`≥ 1`, envelope
    /// included). A hostile or corrupt length prefix beyond this refuses
    /// typed before a single body byte is staged.
    pub max_frame: usize,
    /// Per-client idempotency dedup window (`≥ 1`): how many recent
    /// mutating-request tokens the server retains per HELLO-bound client.
    /// A retry whose token is still inside the window replays the retained
    /// response instead of re-applying the write.
    pub dedup_window: usize,
    /// Per-connection answer-ring bound (`≥ 1` slots): the most requests a
    /// connection parses ahead of its answers. At the bound it applies what
    /// is queued and writes its answers before it parses on, so a slow
    /// client backpressures its own TCP stream — never an epoch.
    pub inflight_bound: usize,
    /// Socket write timeout (nonzero): bounds a connection thread's write of
    /// its own answers, outside any epoch. A client that stops draining
    /// responses for this long is shed (disconnected), not waited on.
    pub write_timeout: Duration,
    /// Idle-connection bound (nonzero): a connection that sends no bytes —
    /// not even a PING — for this long is reaped. Enforced as a
    /// count-based budget of read-poll intervals, so the reap decision is
    /// a frame count, not a wall-clock read.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            epoch_ops: 512,
            queue_bound: 4096,
            acceptors: 2,
            max_frame: 4096,
            dedup_window: 1024,
            inflight_bound: 1024,
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl Default for DictConfig {
    fn default() -> Self {
        Self {
            backend: Backend::HiPma,
            seed: 0,
            fanout: 64,
            block_elems: 64,
            epsilon: 0.5,
            elem_size: 16,
            io: None,
            shards: 1,
            server: ServerConfig::default(),
        }
    }
}

/// A [`DictConfig`] value no engine can run on, reported by
/// [`DictConfig::validate`] / [`DictBuilder::try_build`].
///
/// `IoConfig`'s fields are `pub` (struct literals bypass the constructor
/// assert), so without this gate a degenerate config — `block_size == 0`,
/// `memory_blocks == 0` — would panic deep inside the I/O model on the
/// first traced access instead of failing at build time with a message
/// naming the knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DictConfigError {
    /// The embedded [`IoConfig`] is degenerate.
    Io(io_sim::IoConfigError),
    /// B-tree fanout below the minimum of 4.
    FanoutTooSmall(usize),
    /// Skip-list block size below the minimum of 2 elements.
    BlockElemsTooSmall(usize),
    /// HI skip-list `ε` outside the open interval `(0, 1)`.
    EpsilonOutOfRange(f64),
    /// PMA record size of zero bytes.
    ZeroElemSize,
    /// Shard count outside `1..=64`.
    ShardsOutOfRange(usize),
    /// Epoch budget of 0 operations: every epoch would close before
    /// admitting a single request.
    ZeroEpochOps,
    /// Per-shard queue bound of 0: every request would shed as overloaded.
    ZeroQueueBound,
    /// Accept-loop thread count of 0: the server could never accept a
    /// connection.
    ZeroAcceptors,
    /// Frame bound of 0 bytes: every frame would refuse as oversized.
    ZeroMaxFrame,
    /// Dedup window of 0 tokens: every retry would re-apply, so the
    /// exactly-once contract would silently not exist.
    ZeroDedupWindow,
    /// Response-buffer bound of 0 slots: the reader could never admit a
    /// request.
    ZeroInflightBound,
    /// Write timeout of zero: every response write would time out before
    /// a byte left the socket.
    ZeroWriteTimeout,
    /// Idle timeout of zero: every connection would reap on its first
    /// read poll.
    ZeroIdleTimeout,
    /// Client retry budget of 0 attempts: no request could ever be sent.
    ZeroRetryBudget,
    /// Client read timeout of zero: every response wait would expire
    /// before the server could answer.
    ZeroReadTimeout,
    /// A HI-PMA-only builder ([`DictBuilder::try_build_hi_sharded`], which
    /// is what `dict-server` serves) was configured with another backend.
    NotHiPma(Backend),
}

impl fmt::Display for DictConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DictConfigError::Io(e) => write!(f, "{e}"),
            DictConfigError::FanoutTooSmall(v) => {
                write!(f, "fanout must be at least 4, got {v}")
            }
            DictConfigError::BlockElemsTooSmall(v) => {
                write!(f, "block_elems must be at least 2, got {v}")
            }
            DictConfigError::EpsilonOutOfRange(v) => {
                write!(f, "epsilon must lie strictly between 0 and 1, got {v}")
            }
            DictConfigError::ZeroElemSize => write!(f, "elem_size must be positive"),
            DictConfigError::ShardsOutOfRange(v) => {
                write!(f, "shards must lie in 1..=64, got {v}")
            }
            DictConfigError::ZeroEpochOps => {
                write!(f, "server.epoch_ops must be at least 1")
            }
            DictConfigError::ZeroQueueBound => {
                write!(f, "server.queue_bound must be at least 1")
            }
            DictConfigError::ZeroAcceptors => {
                write!(f, "server.acceptors must be at least 1")
            }
            DictConfigError::ZeroMaxFrame => {
                write!(f, "server.max_frame must be at least 1 byte")
            }
            DictConfigError::ZeroDedupWindow => {
                write!(f, "server.dedup_window must be at least 1 token")
            }
            DictConfigError::ZeroInflightBound => {
                write!(f, "server.inflight_bound must be at least 1 slot")
            }
            DictConfigError::ZeroWriteTimeout => {
                write!(f, "server.write_timeout must be nonzero")
            }
            DictConfigError::ZeroIdleTimeout => {
                write!(f, "server.idle_timeout must be nonzero")
            }
            DictConfigError::ZeroRetryBudget => {
                write!(f, "client retry_budget must be at least 1 attempt")
            }
            DictConfigError::ZeroReadTimeout => {
                write!(f, "client read_timeout must be nonzero")
            }
            DictConfigError::NotHiPma(b) => write!(f, "{b} is not served: hi-pma only"),
        }
    }
}

impl std::error::Error for DictConfigError {}

impl DictConfig {
    /// Rejects configurations no engine can run on (see
    /// [`DictConfigError`]). Called by [`DictBuilder::try_build`] and
    /// friends, so panics never originate below the builder.
    pub fn validate(&self) -> Result<(), DictConfigError> {
        if let Some(io) = &self.io {
            io.validate().map_err(DictConfigError::Io)?;
        }
        if self.fanout < 4 {
            return Err(DictConfigError::FanoutTooSmall(self.fanout));
        }
        if self.block_elems < 2 {
            return Err(DictConfigError::BlockElemsTooSmall(self.block_elems));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(DictConfigError::EpsilonOutOfRange(self.epsilon));
        }
        if self.elem_size == 0 {
            return Err(DictConfigError::ZeroElemSize);
        }
        if self.shards == 0 || self.shards > 64 {
            return Err(DictConfigError::ShardsOutOfRange(self.shards));
        }
        if self.server.epoch_ops == 0 {
            return Err(DictConfigError::ZeroEpochOps);
        }
        if self.server.queue_bound == 0 {
            return Err(DictConfigError::ZeroQueueBound);
        }
        if self.server.acceptors == 0 {
            return Err(DictConfigError::ZeroAcceptors);
        }
        if self.server.max_frame == 0 {
            return Err(DictConfigError::ZeroMaxFrame);
        }
        if self.server.dedup_window == 0 {
            return Err(DictConfigError::ZeroDedupWindow);
        }
        if self.server.inflight_bound == 0 {
            return Err(DictConfigError::ZeroInflightBound);
        }
        if self.server.write_timeout.is_zero() {
            return Err(DictConfigError::ZeroWriteTimeout);
        }
        if self.server.idle_timeout.is_zero() {
            return Err(DictConfigError::ZeroIdleTimeout);
        }
        Ok(())
    }

    /// A tracer with this config's cache model, or a disabled one.
    fn tracer(&self) -> Tracer {
        match self.io {
            Some(io) => Tracer::enabled(io),
            None => Tracer::disabled(),
        }
    }

    /// The HI-PMA behind the keyed adapter, seeded and instrumented as
    /// configured: [`Backend::HiPma`]'s engine, whether a [`DynDict`] wraps
    /// it or a served shard is it.
    fn hi_dict<K: Ord + Clone + Default, V: Clone + Default>(
        &self,
        counters: &SharedCounters,
        tracer: &Tracer,
    ) -> RankedDict<HiPma<(K, V)>, K, V> {
        let pma = HiPma::with_parts(
            RngSource::from_seed(self.seed),
            counters.clone(),
            tracer.clone(),
            self.elem_size,
        );
        RankedDict::with_counters(pma, counters.clone())
    }
}

/// The dictionary `dict-server` shards and serves: the HI-PMA (Theorem 1)
/// behind the keyed adapter, one concrete type. It is the paper's
/// history-independent cache-oblivious B-tree (Theorem 2): §5 augments the
/// PMA with a value tree, which lives inside [`HiPma`], and reads descend
/// it. [`DynDict`] and its enum dispatch stay for the baselines, the
/// conformance suite and embedded use.
pub type HiDict = RankedDict<HiPma<(u64, u64)>, u64, u64>;

/// Fluent constructor for any backend — the single entry point the README
/// and the examples teach:
///
/// ```
/// use anti_persistence::dict::{Backend, Dict};
/// use anti_persistence::prelude::*;
///
/// let mut index: DynDict<u64, String> = Dict::builder()
///     .seed(0xC0115)
///     .block_elems(64)
///     .epsilon(0.5)
///     .io(IoConfig::new(4096, 1024))
///     .backend(Backend::HiSkipList)
///     .build();
/// index.insert(1, "one".into());
/// assert!(index.io_stats().transfers() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DictBuilder {
    config: DictConfig,
}

impl DictBuilder {
    /// Starts from the default [`DictConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an explicit config (e.g. parsed from a CLI or a file).
    pub fn from_config(config: DictConfig) -> Self {
        Self { config }
    }

    /// Selects the engine.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the secret coins of the randomized engines.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the conventional B-tree's fanout.
    pub fn fanout(mut self, fanout: usize) -> Self {
        self.config.fanout = fanout;
        self
    }

    /// Sets the skip lists' block size in elements.
    pub fn block_elems(mut self, block_elems: usize) -> Self {
        self.config.block_elems = block_elems;
        self
    }

    /// Sets the HI skip list's `ε` trade-off parameter.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the PMA engines' per-record on-disk size in bytes.
    pub fn elem_size(mut self, elem_size: u64) -> Self {
        self.config.elem_size = elem_size;
        self
    }

    /// Enables I/O tracing with the given cache configuration.
    pub fn io(mut self, io: IoConfig) -> Self {
        self.config.io = Some(io);
        self
    }

    /// Sets the shard count consumed by [`Self::build_sharded`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the network front-end's epoch/backpressure knobs (consumed by
    /// `dict-server`; validated by [`DictConfig::validate`]).
    pub fn server(mut self, server: ServerConfig) -> Self {
        self.config.server = server;
        self
    }

    /// The accumulated configuration.
    pub fn config(&self) -> &DictConfig {
        &self.config
    }

    /// Constructs the configured backend, panicking on a degenerate config
    /// (see [`Self::try_build`] for the fallible form).
    #[expect(
        clippy::panic,
        reason = "documented contract: this constructor panics on invalid config; validate() is the non-panicking path"
    )]
    pub fn build<K: Ord + Clone + Default, V: Clone + Default>(self) -> DynDict<K, V> {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid dictionary config: {e}"))
    }

    /// Constructs the configured backend, rejecting degenerate configs
    /// (`IoConfig` with a zero block size or zero memory blocks, zero
    /// element sizes, out-of-range `ε`, …) with a [`DictConfigError`]
    /// instead of panicking deep inside an engine or the I/O model.
    pub fn try_build<K: Ord + Clone + Default, V: Clone + Default>(
        self,
    ) -> Result<DynDict<K, V>, DictConfigError> {
        self.config.validate()?;
        let c = self.config;
        let counters = SharedCounters::new();
        let tracer = c.tracer();
        let inner = match c.backend {
            Backend::BTree => Inner::BTree(BTree::with_instrumentation(
                c.fanout,
                counters.clone(),
                tracer.clone(),
            )),
            Backend::HiSkipList => Inner::SkipList(ExternalSkipList::with_instrumentation(
                SkipParams::history_independent(c.block_elems, c.epsilon),
                c.seed,
                counters.clone(),
                tracer.clone(),
            )),
            Backend::FolkloreSkipList => Inner::SkipList(ExternalSkipList::with_instrumentation(
                SkipParams::folklore_b(c.block_elems),
                c.seed,
                counters.clone(),
                tracer.clone(),
            )),
            Backend::InMemorySkipList => Inner::SkipList(ExternalSkipList::with_instrumentation(
                SkipParams::in_memory(),
                c.seed,
                counters.clone(),
                tracer.clone(),
            )),
            Backend::HiPma => Inner::HiPma(c.hi_dict(&counters, &tracer)),
            Backend::ClassicPma => Inner::ClassicPma(RankedDict::with_counters(
                ClassicPma::with_parts(
                    DensityBands::standard(),
                    counters.clone(),
                    tracer.clone(),
                    c.elem_size,
                ),
                counters.clone(),
            )),
        };
        Ok(DynDict {
            backend: c.backend,
            counters,
            tracer,
            inner,
        })
    }

    /// Constructs a hash-partitioned service of [`Self::shards`] independent
    /// copies of the configured backend behind a seeded
    /// [`ShardRouter`] — the scale-out form of [`Self::build`].
    ///
    /// Every stream of randomness derives from the builder's one seed: the
    /// router hashes keys with it, and shard `i`'s engine draws its layout
    /// coins from [`ShardRouter::shard_seed`]`(i)`. The sharded map's full
    /// observable state — key-to-shard assignment plus every shard's layout
    /// — is therefore a pure function of *(contents, seed, shard count)*:
    /// `tests/determinism.rs` pins it across batch partitionings, and
    /// `tests/shard_history_independence.rs` holds every shard to Lemma 9's
    /// representation function across histories.
    ///
    /// ```
    /// use anti_persistence::dict::{Backend, Dict};
    /// use anti_persistence::prelude::*;
    ///
    /// let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
    ///     .backend(Backend::HiPma)
    ///     .seed(7)
    ///     .shards(4)
    ///     .build_sharded();
    /// service.multi_put((0..1_000u64).map(|k| (k, k)));
    /// assert_eq!(service.len(), 1_000);
    /// assert_eq!(service.multi_get(&[3, 2_000])[0], Some(3));
    /// assert_eq!(service.range_iter(10..20).count(), 10);
    /// ```
    #[expect(
        clippy::panic,
        reason = "documented contract: this constructor panics on invalid config; validate() is the non-panicking path"
    )]
    pub fn build_sharded<K, V>(self) -> ShardedDict<DynDict<K, V>>
    where
        K: Ord + Clone + Default + Hash,
        V: Clone + Default,
    {
        self.try_build_sharded()
            .unwrap_or_else(|e| panic!("invalid dictionary config: {e}"))
    }

    /// Fallible form of [`Self::build_sharded`]: the config is validated
    /// once up front, so no shard constructor can panic.
    pub fn try_build_sharded<K, V>(self) -> Result<ShardedDict<DynDict<K, V>>, DictConfigError>
    where
        K: Ord + Clone + Default + Hash,
        V: Clone + Default,
    {
        self.sharded(|c| DictBuilder::from_config(c).build())
    }

    /// [`Self::try_build_sharded`] for the one type `dict-server` serves:
    /// shards of [`HiDict`] directly, with no [`DynDict`] enum in between.
    /// The shards are the ones `try_build_sharded` builds for
    /// [`Backend::HiPma`], coin for coin. Any other backend is refused
    /// ([`DictConfigError::NotHiPma`]) rather than built as a HI-PMA anyway.
    pub fn try_build_hi_sharded(self) -> Result<ShardedDict<HiDict>, DictConfigError> {
        if self.config.backend != Backend::HiPma {
            return Err(DictConfigError::NotHiPma(self.config.backend));
        }
        self.sharded(|c| c.hi_dict(&SharedCounters::new(), &c.tracer()))
    }

    /// Validates once, then builds `shards` shards with `build`, each from
    /// this config with the shard's derived seed.
    fn sharded<D>(self, build: impl Fn(DictConfig) -> D) -> Result<ShardedDict<D>, DictConfigError>
    where
        D: Dictionary,
        D::Key: Hash,
    {
        self.config.validate()?;
        let c = self.config;
        let router = ShardRouter::new(c.seed, c.shards);
        Ok(ShardedDict::build_with(router, |_, seed| {
            build(DictConfig { seed, ..c.clone() })
        }))
    }

    /// Opens (or creates) a file-backed [`PersistentDict`] at `path`. The
    /// configured backend must be [`Backend::HiPma`], the one engine
    /// persisted; any other is refused (`InvalidInput`) before the file is
    /// touched.
    ///
    /// On a fresh file the dictionary starts empty with the builder's seed.
    /// On an existing file the *stored* seed wins (the builder's is
    /// ignored): the committed bitmap must be the canonical one for the
    /// stored *(len, seed)*, and only then are the records bulk-loaded under
    /// that seed. A reopened dictionary is therefore the pure function
    /// `f(contents, seed)` regardless of the history that produced the
    /// file.
    ///
    /// When the builder carries an [`IoConfig`], its `block_size` is used as
    /// the store's real write granularity; otherwise 4096 bytes.
    pub fn build_persistent(self, path: impl AsRef<Path>) -> io::Result<PersistentDict> {
        let block_size = self.config.io.as_ref().map_or(4096, |io| io.block_size);
        self.build_persistent_with(path, StoreOptions::new(block_size))
    }

    /// Like [`Self::build_persistent`] with explicit [`StoreOptions`] —
    /// e.g. [`StoreOptions::no_sync`] for crash-injection tests, where the
    /// process survives and write *ordering* is all that matters.
    pub fn build_persistent_with(
        self,
        path: impl AsRef<Path>,
        options: StoreOptions,
    ) -> io::Result<PersistentDict> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        self.config.validate().map_err(|e| invalid(e.to_string()))?;
        if self.config.backend != Backend::HiPma {
            let other = self.config.backend;
            return Err(invalid(format!(
                "backend {other} is not persisted: hi-pma only"
            )));
        }
        let mut store = BlockStore::open(path, options).map_err(PersistError::from)?;
        let fresh_seed = self.config.seed;
        let mut dict: DynDict<u64, u64> = self.build();
        let seed = match store.meta() {
            Some(_) => reload(&mut store, &mut dict)?,
            None => fresh_seed,
        };
        dict.counters().reset();
        Ok(PersistentDict { dict, store, seed })
    }
}

/// The one way a committed image becomes an in-RAM dictionary. The image is
/// checked before anything is built: its bitmap must be
/// [`HiPma::canonical_occupancy`] of the stored *(len, seed)*
/// ([`verify_layout`]), so what is on disk is `f(contents, seed)`. Only
/// then are the records bulk-loaded under the stored seed, which is
/// returned.
fn reload(store: &mut BlockStore, dict: &mut DynDict<u64, u64>) -> Result<u64, PersistError> {
    let (meta, _words, records) = store.load::<(u64, u64)>()?;
    let (slots, words) = HiPma::<(u64, u64)>::canonical_occupancy(meta.len as usize, meta.seed);
    verify_layout(&words, slots, &meta)?;
    dict.bulk_load(records, meta.seed);
    Ok(meta.seed)
}

/// The one way contents become a committed image: the occupancy
/// `bulk_load(contents, seed)` would draw, computed from `(len, seed)`, and
/// the `records` streamed behind it. Keys are checked strictly ascending
/// as they pass: records out of order would reopen cleanly once `bulk_load`
/// sorts them, and the bytes would no longer be `f(contents, seed)`.
fn commit_sorted(
    store: &mut BlockStore,
    seed: u64,
    len: usize,
    records: impl IntoIterator<Item = (u64, u64)>,
) -> Result<u64, PersistError> {
    let (slots, words) = HiPma::<(u64, u64)>::canonical_occupancy(len, seed);
    let len = len as u64;
    let (mut taken, mut prev, mut disorder) = (0u64, None, None);
    // Disorder ends the stream: the encoder comes up short and refuses
    // before anything is written. Past `len` the stream is too long anyway,
    // which the encoder can only refuse if it sees the record.
    let ascending = records.into_iter().map_while(|(k, v)| {
        if disorder.is_none() && prev.is_some_and(|p| p >= k) {
            disorder = Some(taken);
        }
        prev = Some(k);
        taken += 1;
        (disorder.is_none() || taken > len).then_some((k, v))
    });
    let committed = store.commit(&words, slots, len, ascending, seed);
    match disorder {
        Some(rank) => Err(PersistError::SourceOutOfOrder { rank }),
        None => Ok(committed?),
    }
}

/// The engine behind a [`DynDict`]. One variant per concrete type; the three
/// skip-list backends share a variant (they differ only in parameters).
enum Inner<K: Ord + Clone + Default, V: Clone + Default> {
    BTree(BTree<K, V>),
    SkipList(ExternalSkipList<K, V>),
    HiPma(RankedDict<HiPma<(K, V)>, K, V>),
    ClassicPma(RankedDict<ClassicPma<(K, V)>, K, V>),
}

/// A dictionary whose engine is chosen at runtime.
///
/// Implements the full [`Dictionary`] trait by enum dispatch — including the
/// zero-copy surface (`get_ref`, `iter`, `range_iter`), which goes through a
/// small enum iterator rather than a `Box`, so the no-allocation property of
/// the underlying engines is preserved.
pub struct DynDict<K: Ord + Clone + Default, V: Clone + Default> {
    backend: Backend,
    counters: SharedCounters,
    tracer: Tracer,
    inner: Inner<K, V>,
}

/// Dispatches `$body` over every engine variant, binding the engine to `$d`.
macro_rules! dispatch {
    ($self:expr, $d:ident => $body:expr) => {
        match &$self.inner {
            Inner::BTree($d) => $body,
            Inner::SkipList($d) => $body,
            Inner::HiPma($d) => $body,
            Inner::ClassicPma($d) => $body,
        }
    };
}

/// Like [`dispatch!`], with a mutable binding.
macro_rules! dispatch_mut {
    ($self:expr, $d:ident => $body:expr) => {
        match &mut $self.inner {
            Inner::BTree($d) => $body,
            Inner::SkipList($d) => $body,
            Inner::HiPma($d) => $body,
            Inner::ClassicPma($d) => $body,
        }
    };
}

impl<K: Ord + Clone + Default, V: Clone + Default> DynDict<K, V> {
    /// Starts a [`DictBuilder`] (see the module docs for the full tour).
    pub fn builder() -> DictBuilder {
        DictBuilder::new()
    }

    /// Which engine this dictionary runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The shared operation ledger every engine reports into.
    pub fn counters(&self) -> &SharedCounters {
        &self.counters
    }

    /// The I/O tracer (disabled unless the builder got an [`IoConfig`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Block-transfer totals from the tracer (zeros when tracing is off).
    pub fn io_stats(&self) -> IoStats {
        self.tracer.stats()
    }

    /// Verifies the engine's structural invariants. Intended for tests;
    /// cost is at least linear in the structure size.
    pub fn check_invariants(&self)
    where
        V: PartialEq,
    {
        match &self.inner {
            Inner::BTree(d) => d.check_invariants(),
            Inner::SkipList(d) => d.check_invariants(),
            Inner::HiPma(d) => d.seq().check_invariants(),
            Inner::ClassicPma(d) => d.seq().check_invariants(),
        }
    }

    /// The engine's packed slot-occupancy words (the [`Occupancy`] view),
    /// for backends whose representation is a slot array: the PMA-backed
    /// engines. `None` for the node-based engines (B-tree, skip lists),
    /// whose layout observables are exposed by their own crates instead. The
    /// HI-PMA engine computes the words from its leaf counts on each call.
    ///
    /// This is the fingerprint the history-independence and determinism
    /// batteries hash — per shard — to pin a [`ShardedDict`]'s layout.
    pub fn occupancy_words(&self) -> Option<Vec<u64>> {
        match &self.inner {
            Inner::HiPma(d) => Some(d.seq().occupancy_words()),
            Inner::ClassicPma(d) => Some(d.seq().occupancy_words()),
            Inner::BTree(_) | Inner::SkipList(_) => None,
        }
    }

    /// One `bool` per slot of the backing array (allocating convenience
    /// form of [`Self::occupancy_words`]).
    pub fn occupancy(&self) -> Option<Vec<bool>> {
        match &self.inner {
            Inner::HiPma(d) => Some(d.seq().occupancy()),
            Inner::ClassicPma(d) => Some(d.seq().occupancy()),
            Inner::BTree(_) | Inner::SkipList(_) => None,
        }
    }

    /// Number of slots in the backing array, for the slot-array backends
    /// (the domain of [`Self::occupancy_words`]); `None` otherwise.
    pub fn slot_count(&self) -> Option<usize> {
        match &self.inner {
            Inner::HiPma(d) => Some(d.seq().slot_count()),
            Inner::ClassicPma(d) => Some(d.seq().slot_count()),
            Inner::BTree(_) | Inner::SkipList(_) => None,
        }
    }
}

/// Lets a [`ShardedDict`] of `DynDict` shards roll its per-shard tracers
/// and counter ledgers up into one aggregated view.
impl<K: Ord + Clone + Default, V: Clone + Default> Instrumented for DynDict<K, V> {
    fn io_stats(&self) -> IoStats {
        self.tracer.stats()
    }

    fn op_counters(&self) -> OpCounters {
        self.counters.snapshot()
    }
}

/// Lazy iterator over a [`DynDict`]: one variant per engine iterator type,
/// so dispatch costs a jump instead of a heap allocation.
enum DynIter<A, B, C, D> {
    BTree(A),
    SkipList(B),
    HiPma(C),
    ClassicPma(D),
}

impl<T, A, B, C, D> Iterator for DynIter<A, B, C, D>
where
    A: Iterator<Item = T>,
    B: Iterator<Item = T>,
    C: Iterator<Item = T>,
    D: Iterator<Item = T>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            DynIter::BTree(it) => it.next(),
            DynIter::SkipList(it) => it.next(),
            DynIter::HiPma(it) => it.next(),
            DynIter::ClassicPma(it) => it.next(),
        }
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> Dictionary for DynDict<K, V> {
    type Key = K;
    type Value = V;

    fn len(&self) -> usize {
        dispatch!(self, d => d.len())
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        dispatch_mut!(self, d => d.insert(key, value))
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        dispatch_mut!(self, d => d.remove(key))
    }

    fn get_ref(&self, key: &K) -> Option<&V> {
        dispatch!(self, d => d.get_ref(key))
    }

    fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        match &self.inner {
            Inner::BTree(d) => DynIter::BTree(d.range_iter(range)),
            Inner::SkipList(d) => DynIter::SkipList(d.range_iter(range)),
            Inner::HiPma(d) => DynIter::HiPma(d.range_iter(range)),
            Inner::ClassicPma(d) => DynIter::ClassicPma(d.range_iter(range)),
        }
    }

    fn successor(&self, key: &K) -> Option<(K, V)> {
        dispatch!(self, d => d.successor(key))
    }

    fn predecessor(&self, key: &K) -> Option<(K, V)> {
        dispatch!(self, d => d.predecessor(key))
    }

    fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        dispatch_mut!(self, d => d.bulk_load(pairs, seed))
    }

    /// One enum dispatch for the whole batch, then the engine's own
    /// `apply_batch` (the arrival-order loop for the PMA-backed engines,
    /// finger insertion for the B-tree and skip lists).
    fn apply_batch(&mut self, ops: Vec<hi_common::batch::BatchOp<K, V>>) -> usize {
        dispatch_mut!(self, d => d.apply_batch(ops))
    }

    /// Sorted-probe batched lookups with per-engine descent fingers.
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        dispatch!(self, d => d.get_many(keys))
    }
}

/// A HI-PMA dictionary mapped onto a real file: the paper's
/// anti-persistence guarantee made literal. Every [`Self::flush`]
/// commits the image of the layout `bulk_load(contents, seed)` draws,
/// through the [`BlockStore`]'s journaled two-phase protocol, so
///
/// * the bytes on disk after any flush are the pure function
///   `f(contents, seed)` — no deleted key, no insertion order, nothing
///   about the operation history survives on the platter;
/// * a crash at any write leaves the file recoverable to either the
///   previous or the new canonical image, never a torn mixture
///   (`tests/block_store_crash.rs` kills the process at every write).
///
/// That layout is never built on the write side: its bitmap is a function
/// of *(len, seed)* ([`HiPma::canonical_occupancy`]) and its records are
/// the contents in key order, so a flush computes the one and streams the
/// other ([`Self::flush_from`]) and leaves the in-RAM layout as it is.
/// Reopening computes the same bitmap and refuses an image whose committed
/// one differs, before it loads a record.
///
/// Built by [`DictBuilder::build_persistent`]; between flushes it is an
/// ordinary in-RAM [`DynDict<u64, u64>`] (this type [`Deref`]s to it).
/// `dict-server` serves its own shards instead: it boots them from this
/// dictionary's contents and empties it, so the served contents exist
/// once.
///
/// ```
/// use anti_persistence::dict::{Backend, Dict};
/// use anti_persistence::prelude::*;
///
/// let path = block_store::temp_path("doc-persistent");
/// let mut dict = Dict::builder()
///     .backend(Backend::HiPma)
///     .seed(42)
///     .build_persistent(&path)?;
/// dict.insert(1, 100);
/// dict.insert(2, 200);
/// dict.flush()?;
///
/// // A different process (seed ignored: the stored one wins) sees the data.
/// let reopened = Dict::builder().backend(Backend::HiPma).build_persistent(&path)?;
/// assert_eq!(reopened.get(&2), Some(200));
/// assert_eq!(reopened.seed(), 42);
/// # std::fs::remove_file(reopened.store().path())?;
/// # std::fs::remove_file(reopened.store().journal_path())?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct PersistentDict {
    dict: DynDict<u64, u64>,
    store: BlockStore,
    seed: u64,
}

impl PersistentDict {
    /// Commits the canonical image of this dictionary's contents to the
    /// file: [`Self::flush_from`] its own in-RAM dictionary, which is read
    /// and not redrawn. Returns the committed generation.
    ///
    /// The store's commit reuses its staging buffers and is allocation-free
    /// in the steady state (`tests/alloc_regression.rs` pins that); the
    /// occupancy computation allocates a unit-element structure of O(leaf
    /// count) and frees it before the commit starts.
    ///
    /// Errors are typed ([`PersistError`]): corruption, a transient fault
    /// that outlived the retry budget, and disk-full each get their own
    /// variant, and all of them still fold into [`io::Error`] for callers
    /// on the facade's `io::Result` surface.
    pub fn flush(&mut self) -> Result<u64, PersistError> {
        let records = self.dict.iter().map(|(&k, &v)| (k, v));
        commit_sorted(&mut self.store, self.seed, self.dict.len(), records)
    }

    /// Commits the canonical image of `len` records under this
    /// dictionary's seed — the bytes [`Self::flush`] would write had they
    /// been loaded here first — in one pass over `records`, copying
    /// nothing. The in-RAM dictionary is neither read nor changed; the
    /// served `FLUSH` streams the shards' merged leaves through here.
    ///
    /// The source promises what a [`Dictionary`] does of its `len()` and
    /// `iter()`: `len` exact and `records` strictly ascending by key. Both
    /// are checked before the first byte is written; a source that breaks
    /// either is refused ([`PersistError::SourceOutOfOrder`], or the
    /// store's record-count error) with the file and the store as they
    /// were.
    pub fn flush_from(
        &mut self,
        len: usize,
        records: impl IntoIterator<Item = (u64, u64)>,
    ) -> Result<u64, PersistError> {
        commit_sorted(&mut self.store, self.seed, len, records)
    }

    /// Sweeps the committed image's integrity chain block by block and
    /// reports every block that fails its checksum (see
    /// [`BlockStore::scrub`]).
    pub fn scrub(&mut self) -> Result<block_store::ScrubReport, PersistError> {
        Ok(self.store.scrub()?)
    }

    /// Strict form of [`Self::scrub`]: `Ok(())` only when every block of
    /// the committed image verifies.
    pub fn verify(&mut self) -> Result<(), PersistError> {
        Ok(self.store.verify_all()?)
    }

    /// Repairs this dictionary's file from a replica holding the same
    /// committed contents (history independence makes any such replica
    /// byte-identical); returns the number of blocks rewritten. The in-RAM
    /// dictionary is rebuilt from the repaired image.
    pub fn repair_from(&mut self, source: &mut PersistentDict) -> Result<u64, PersistError> {
        let repaired = self.store.repair_from(&mut source.store)?;
        self.seed = reload(&mut self.store, &mut self.dict)?;
        Ok(repaired)
    }

    /// The secret coins this dictionary's layouts are drawn with (for a
    /// reopened file, the stored seed — not the builder's).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The backing block store (file paths, I/O statistics).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the backing store (fault plans, raw image
    /// reads).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }
}

impl Deref for PersistentDict {
    type Target = DynDict<u64, u64>;

    fn deref(&self) -> &Self::Target {
        &self.dict
    }
}

impl DerefMut for PersistentDict {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.dict
    }
}

/// Entry-point namespace for the builder: `Dict::builder()…build()` reads
/// like the docs, and the engine type (`DynDict<K, V>`) is pinned at the
/// binding site. Equivalent to [`DynDict::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Dict;

impl Dict {
    /// Starts a [`DictBuilder`].
    pub fn builder() -> DictBuilder {
        DictBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard::RunMerge;

    #[test]
    fn every_backend_builds_and_serves_identical_call_sites() {
        for backend in Backend::ALL {
            let mut d: DynDict<u64, u64> = Dict::builder().backend(backend).seed(99).build();
            assert_eq!(d.backend(), backend);
            assert!(d.is_empty());
            for k in 0..500u64 {
                assert_eq!(d.insert(k * 3, k), None, "{backend}");
            }
            assert_eq!(d.insert(3, 777), Some(1), "{backend}");
            assert_eq!(d.len(), 500, "{backend}");
            assert_eq!(d.get(&3), Some(777), "{backend}");
            assert_eq!(d.get_ref(&6), Some(&2), "{backend}");
            assert_eq!(d.get(&4), None, "{backend}");
            assert_eq!(d.range(&0, &9).len(), 4, "{backend}");
            assert_eq!(
                d.range_iter(3..=9).map(|(k, _)| *k).collect::<Vec<_>>(),
                vec![3, 6, 9],
                "{backend}"
            );
            assert_eq!(d.successor(&4), Some((6, 2)), "{backend}");
            assert_eq!(d.predecessor(&5), Some((3, 777)), "{backend}");
            assert_eq!(d.iter().count(), 500, "{backend}");
            assert_eq!(d.remove(&3), Some(777), "{backend}");
            assert_eq!(d.remove(&3), None, "{backend}");
            d.check_invariants();
        }
    }

    #[test]
    fn every_backend_bulk_loads() {
        for backend in Backend::ALL {
            let mut d: DynDict<u64, u64> = Dict::builder().backend(backend).seed(5).build();
            d.insert(424242, 1); // must be discarded by the load
            d.bulk_load((0..300u64).rev().map(|k| (k, k * 2)), 0xFEED);
            assert_eq!(d.len(), 300, "{backend}");
            assert_eq!(d.get(&299), Some(598), "{backend}");
            assert_eq!(d.get(&424242), None, "{backend}");
            d.check_invariants();
        }
    }

    #[test]
    fn io_tracing_is_uniform_across_backends() {
        for backend in Backend::ALL {
            let mut d: DynDict<u64, u64> = Dict::builder()
                .backend(backend)
                .seed(3)
                .io(IoConfig::new(4096, 1 << 12))
                .build();
            for k in 0..2_000u64 {
                d.insert(k, k);
            }
            d.tracer().reset_cold();
            for k in (0..2_000u64).step_by(37) {
                d.get(&k);
            }
            assert!(
                d.io_stats().transfers() > 0,
                "{backend}: searches must show up in the uniform I/O ledger"
            );
            assert!(d.counters().snapshot().queries > 0, "{backend}");
        }
    }

    #[test]
    fn every_backend_is_send_and_sync() {
        // Compile-time audit for the sharded service layer: connection
        // threads share one served dictionary, so all six engines, the
        // served type and the sharded facade over them must be `Send + Sync`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynDict<u64, u64>>();
        assert_send_sync::<DynDict<String, Vec<u8>>>();
        assert_send_sync::<ShardedDict<DynDict<u64, u64>>>();
        assert_send_sync::<HiDict>();
        assert_send_sync::<ShardedDict<HiDict>>();
    }

    #[test]
    fn every_backend_builds_sharded_and_serves_batches() {
        for backend in Backend::ALL {
            let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
                .backend(backend)
                .seed(23)
                .shards(3)
                .build_sharded();
            assert_eq!(service.shard_count(), 3, "{backend}");
            service.multi_put((0..600u64).map(|k| (k * 2, k)));
            assert_eq!(service.len(), 600, "{backend}");
            // Every key landed on the shard the router names, and nowhere
            // else.
            for k in (0..1_200u64).step_by(100) {
                let home = service.shard_of(&k);
                for (i, s) in service.shards().iter().enumerate() {
                    assert_eq!(
                        s.contains(&k),
                        i == home && k % 2 == 0,
                        "{backend}: key {k} misplaced on shard {i}"
                    );
                }
            }
            let got = service.multi_get(&[0, 2, 1_198, 1_199]);
            assert_eq!(got, vec![Some(0), Some(1), Some(599), None], "{backend}");
            assert_eq!(
                service.range_iter(..).map(|(k, _)| *k).collect::<Vec<_>>(),
                (0..600u64).map(|k| k * 2).collect::<Vec<_>>(),
                "{backend}: merged scan must be the sorted union"
            );
            assert_eq!(
                service.multi_remove((0..10u64).collect::<Vec<_>>()),
                5,
                "{backend}"
            );
            assert_eq!(service.len(), 595, "{backend}");
            for s in service.shards() {
                s.check_invariants();
            }
        }
    }

    #[test]
    fn the_served_shards_are_the_hi_pma_backends_shards_and_nothing_else() {
        let config = |backend| DictConfig {
            backend,
            seed: 31,
            shards: 3,
            ..DictConfig::default()
        };
        let mut served = DictBuilder::from_config(config(Backend::HiPma))
            .try_build_hi_sharded()
            .unwrap();
        let mut dynamic = DictBuilder::from_config(config(Backend::HiPma))
            .try_build_sharded::<u64, u64>()
            .unwrap();
        let pairs = (0..3_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i));
        served.multi_put(pairs.clone());
        dynamic.multi_put(pairs);
        for (s, d) in served.shards().iter().zip(dynamic.shards()) {
            assert_eq!(Some(s.seq().occupancy_words()), d.occupancy_words());
        }
        assert_eq!(served.to_sorted_vec(), dynamic.to_sorted_vec());
        // No silent fallback: another backend is refused, not served as a
        // HI-PMA.
        for backend in Backend::ALL.into_iter().filter(|&b| b != Backend::HiPma) {
            let refused = DictBuilder::from_config(config(backend)).try_build_hi_sharded();
            assert_eq!(refused.map(|_| ()), Err(DictConfigError::NotHiPma(backend)));
        }
    }

    #[test]
    fn sharded_instrumentation_rolls_up() {
        let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
            .backend(Backend::BTree)
            .io(IoConfig::new(4096, 1 << 10))
            .shards(4)
            .build_sharded();
        service.multi_put((0..2_000u64).map(|k| (k, k)));
        assert_eq!(service.op_counters().inserts, 2_000);
        assert!(service.io_stats().transfers() > 0);
        // The roll-up is the sum of the per-shard ledgers.
        let per_shard: u64 = service
            .shards()
            .iter()
            .map(|s| s.counters().snapshot().inserts)
            .sum();
        assert_eq!(per_shard, 2_000);
    }

    #[test]
    fn occupancy_is_exposed_for_slot_array_backends() {
        for backend in Backend::ALL {
            let mut d: DynDict<u64, u64> = Dict::builder().backend(backend).seed(4).build();
            for k in 0..200u64 {
                d.insert(k, k);
            }
            let words = d.occupancy_words();
            let slot_backed = matches!(backend, Backend::HiPma | Backend::ClassicPma);
            assert_eq!(words.is_some(), slot_backed, "{backend}");
            if let (Some(words), Some(bits)) = (words, d.occupancy()) {
                let popcount: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                assert_eq!(popcount, 200, "{backend}: occupied slots");
                assert_eq!(bits.iter().filter(|&&b| b).count(), 200, "{backend}");
            }
        }
    }

    #[test]
    fn try_build_rejects_degenerate_configs() {
        let bad_io = IoConfig {
            block_size: 0,
            memory_blocks: 64,
        };
        let err = Dict::builder()
            .io(bad_io)
            .try_build::<u64, u64>()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, DictConfigError::Io(_)), "{err}");

        assert!(matches!(
            Dict::builder()
                .fanout(2)
                .try_build::<u64, u64>()
                .map(|_| ()),
            Err(DictConfigError::FanoutTooSmall(2))
        ));
        assert!(matches!(
            Dict::builder()
                .epsilon(1.0)
                .try_build::<u64, u64>()
                .map(|_| ()),
            Err(DictConfigError::EpsilonOutOfRange(_))
        ));
        assert!(matches!(
            Dict::builder()
                .shards(0)
                .try_build_sharded::<u64, u64>()
                .map(|_| ()),
            Err(DictConfigError::ShardsOutOfRange(0))
        ));
        // The happy path still works through the fallible doors.
        assert!(Dict::builder().try_build::<u64, u64>().is_ok());
    }

    #[test]
    fn try_build_rejects_degenerate_server_knobs() {
        // Degenerate epoch/backpressure knobs are refused before the server
        // could stall (0-op budget) or shed every request (0-length queues).
        for (server, expected) in [
            (
                ServerConfig {
                    epoch_ops: 0,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroEpochOps,
            ),
            (
                ServerConfig {
                    queue_bound: 0,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroQueueBound,
            ),
            (
                ServerConfig {
                    acceptors: 0,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroAcceptors,
            ),
            (
                ServerConfig {
                    max_frame: 0,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroMaxFrame,
            ),
            (
                ServerConfig {
                    dedup_window: 0,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroDedupWindow,
            ),
            (
                ServerConfig {
                    inflight_bound: 0,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroInflightBound,
            ),
            (
                ServerConfig {
                    write_timeout: Duration::ZERO,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroWriteTimeout,
            ),
            (
                ServerConfig {
                    idle_timeout: Duration::ZERO,
                    ..ServerConfig::default()
                },
                DictConfigError::ZeroIdleTimeout,
            ),
        ] {
            let err = Dict::builder()
                .server(server)
                .try_build_sharded::<u64, u64>()
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, expected, "{server:?}");
            assert!(!err.to_string().is_empty());
        }
        // Defaults remain valid end to end.
        assert!(Dict::builder()
            .server(ServerConfig::default())
            .try_build_sharded::<u64, u64>()
            .is_ok());
    }

    #[test]
    fn persistent_dict_round_trips_and_reopens_canonically() {
        let path = block_store::temp_path("dict-persist");
        let mut dict = Dict::builder()
            .backend(Backend::HiPma)
            .seed(0xBEEF)
            .build_persistent(&path)
            .unwrap();
        for k in (0..1_000u64).rev() {
            dict.insert(k, k * 7);
        }
        for k in (0..1_000u64).step_by(3) {
            dict.remove(&k);
        }
        let generation = dict.flush().unwrap();
        assert_eq!(generation, 1);
        let (_, committed_words, _) = dict.store_mut().load::<(u64, u64)>().unwrap();
        assert_eq!(
            committed_words,
            HiPma::<(u64, u64)>::canonical_occupancy(dict.len(), 0xBEEF).1
        );

        // Reopen with a *different* builder seed: the stored seed must win
        // and the committed layout must come back bit for bit.
        let reopened = Dict::builder()
            .backend(Backend::HiPma)
            .seed(12345)
            .build_persistent(&path)
            .unwrap();
        assert_eq!(reopened.seed(), 0xBEEF);
        assert_eq!(reopened.len(), dict.len());
        assert_eq!(reopened.occupancy_words().unwrap(), &committed_words[..]);
        assert_eq!(reopened.get(&1), Some(7));
        assert_eq!(reopened.get(&3), None);

        std::fs::remove_file(reopened.store().path()).unwrap();
        let _ = std::fs::remove_file(reopened.store().journal_path());
    }

    #[test]
    fn persistent_dict_flush_image_is_history_independent() {
        // Two different operation histories with the same final contents
        // and seed must leave byte-identical files.
        let final_contents: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 2, k)).collect();

        let raw_of = |tag: &str, build: &dyn Fn(&mut PersistentDict)| {
            let path = block_store::temp_path(tag);
            let mut dict = Dict::builder()
                .backend(Backend::HiPma)
                .seed(77)
                .build_persistent(&path)
                .unwrap();
            build(&mut dict);
            dict.flush().unwrap();
            let (data, journal) = dict.store().raw_bytes().unwrap();
            std::fs::remove_file(dict.store().path()).unwrap();
            let _ = std::fs::remove_file(dict.store().journal_path());
            (data, journal)
        };

        let contents = final_contents.clone();
        let (data_a, journal_a) = raw_of("hist-a", &move |d| {
            for (k, v) in &contents {
                d.insert(*k, *v);
            }
        });
        let contents = final_contents.clone();
        let (data_b, journal_b) = raw_of("hist-b", &move |d| {
            // Insert extra keys, overwrite, delete, flush mid-way: a
            // completely different history with the same endpoint.
            for k in 0..2_000u64 {
                d.insert(k, 999);
            }
            d.flush().unwrap();
            for k in 0..2_000u64 {
                d.remove(&k);
            }
            for (k, v) in contents.iter().rev() {
                d.insert(*k, *v);
            }
        });
        assert_eq!(data_a, data_b, "on-disk image must be f(contents, seed)");
        assert_eq!(
            journal_a, journal_b,
            "journal must be the image's zeros at rest"
        );
    }

    #[test]
    fn flush_never_touches_the_in_ram_layout() {
        let contents: Vec<(u64, u64)> = (0..800u64).map(|k| (k * 3, k)).collect();
        type Build<'a> = &'a dyn Fn(&mut PersistentDict);
        let histories: [(&str, Build<'_>); 3] = [
            ("dict-flush-inserts", &|p| {
                for &(k, v) in contents.iter().rev() {
                    p.insert(k, v);
                }
            }),
            ("dict-flush-own-seed", &|p| p.bulk_load(contents.clone(), 5)),
            ("dict-flush-foreign-seed", &|p| {
                p.bulk_load(contents.clone(), 6)
            }),
        ];
        let mut images = Vec::new();
        for (tag, build) in histories {
            let path = block_store::temp_path(tag);
            let mut p = Dict::builder()
                .backend(Backend::HiPma)
                .seed(5)
                .build_persistent_with(&path, StoreOptions::new(512).no_sync())
                .unwrap();
            build(&mut p);
            // Every redraw counts one resize.
            let resizes = p.counters().snapshot().resizes;
            let words = p.occupancy_words().unwrap().to_vec();
            assert_eq!(p.flush().unwrap(), 1);
            assert_eq!(p.counters().snapshot().resizes, resizes, "{tag}");
            assert_eq!(p.occupancy_words().unwrap(), &words[..], "{tag}");
            images.push(p.store().raw_bytes().unwrap().0);
            std::fs::remove_file(p.store().path()).unwrap();
            let _ = std::fs::remove_file(p.store().journal_path());
        }
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "image must be f(contents, store seed)"
        );
    }

    #[test]
    fn flush_from_refuses_a_source_that_breaks_its_contract_and_writes_nothing() {
        let path = block_store::temp_path("dict-lying-source");
        let mut p = Dict::builder()
            .backend(Backend::HiPma)
            .seed(9)
            .build_persistent_with(&path, StoreOptions::new(512).no_sync())
            .unwrap();
        let honest: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 2, k)).collect();
        p.bulk_load(honest.clone(), 9);
        assert_eq!(p.flush().unwrap(), 1);
        let committed = p.store().raw_bytes().unwrap();

        // The served FLUSH's source: a run merge over leaf-sized runs. With
        // one input it hands the runs on as they stand, so a lie in them
        // reaches the commit at the rank it was told at.
        let pairs = |edit: fn(&mut [(u64, u64)])| {
            let mut pairs = honest.clone();
            pairs.push((600, 0));
            edit(&mut pairs);
            pairs
        };
        fn runs(pairs: &[(u64, u64)]) -> impl Iterator<Item = (u64, u64)> + '_ {
            RunMerge::new([pairs.chunks(17)], |r: &(u64, u64)| r.0)
        }
        // Out of order mid-stream, a repeated key, and disorder in the one
        // record past `len` that only the encoder's last look sees.
        for (len, lying, rank) in [
            (301, pairs(|p| p.swap(100, 101)), 101),
            (301, pairs(|p| p[7].0 = p[6].0), 7),
            (300, pairs(|p| p[300].0 = 0), 300),
        ] {
            match p.flush_from(len, runs(&lying)) {
                Err(PersistError::SourceOutOfOrder { rank: r }) => assert_eq!(r, rank),
                other => panic!("expected a source-out-of-order refusal, got {other:?}"),
            }
            assert!(!p.store().is_poisoned());
            assert_eq!(p.store().raw_bytes().unwrap(), committed);
        }
        // In order and the wrong length, either way.
        let sorted = pairs(|_| ());
        for len in [302, 300] {
            let err = p.flush_from(len, runs(&sorted)).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { block: 0 }), "{err}");
            assert!(!p.store().is_poisoned());
            assert_eq!(p.store().raw_bytes().unwrap(), committed);
        }
        // The store took no harm: an honest source commits the next
        // generation, and it reopens.
        assert_eq!(p.flush_from(301, runs(&sorted)).unwrap(), 2);
        drop(p);
        let reopened = Dict::builder()
            .backend(Backend::HiPma)
            .build_persistent_with(&path, StoreOptions::new(512).no_sync())
            .unwrap();
        assert_eq!(reopened.len(), 301);
        assert_eq!(reopened.get(&600), Some(0));
        std::fs::remove_file(reopened.store().path()).unwrap();
        let _ = std::fs::remove_file(reopened.store().journal_path());
    }

    #[test]
    fn flush_from_an_empty_source_writes_the_canonical_empty_image() {
        let image_of = |tag: &str, write: &dyn Fn(&mut PersistentDict)| {
            let path = block_store::temp_path(tag);
            let mut p = Dict::builder()
                .backend(Backend::HiPma)
                .seed(3)
                .build_persistent_with(&path, StoreOptions::new(512).no_sync())
                .unwrap();
            write(&mut p);
            let image = p.store().raw_bytes().unwrap().0;
            drop(p);
            let reopened = Dict::builder()
                .backend(Backend::HiPma)
                .build_persistent_with(&path, StoreOptions::new(512).no_sync())
                .unwrap();
            assert!(reopened.is_empty());
            assert_eq!(reopened.seed(), 3);
            std::fs::remove_file(reopened.store().path()).unwrap();
            let _ = std::fs::remove_file(reopened.store().journal_path());
            image
        };
        let streamed = image_of("dict-empty-from", &|p| {
            // The handle's own dictionary is not the source and is not read.
            p.insert(1, 1);
            assert_eq!(p.flush_from(0, []).unwrap(), 1);
        });
        let own = image_of("dict-empty-own", &|p| {
            p.insert(1, 1);
            p.remove(&1);
            assert_eq!(p.flush().unwrap(), 1);
        });
        assert!(!streamed.is_empty());
        assert_eq!(streamed, own);
    }

    #[test]
    fn a_flush_that_keeps_len_writes_no_bitmap_block() {
        // The canonical layout's coins are drawn by rank, so the bitmap is a
        // function of (len, seed): a churn that removes as many keys as it
        // inserts leaves it — and only it — clean.
        const B: u64 = 512;
        let path = block_store::temp_path("dict-balanced");
        let mut dict = Dict::builder()
            .backend(Backend::HiPma)
            .seed(0xBA1A)
            .build_persistent_with(&path, StoreOptions::new(B as usize).no_sync())
            .unwrap();
        for k in 0..2_000u64 {
            dict.insert(k * 4, k);
        }
        dict.flush().unwrap();
        let committed_words =
            |d: &mut PersistentDict| d.store_mut().load::<(u64, u64)>().unwrap().1;
        let words = committed_words(&mut dict);
        let image_blocks = std::fs::metadata(&path).unwrap().len() / B;

        // Every fourth key moves up by one: same ranks, same len, and a
        // changed record in each of the 63 record blocks (32 to a block).
        for k in (0..2_000u64).step_by(4) {
            dict.remove(&(k * 4));
            dict.insert(k * 4 + 1, k);
        }
        let before = dict.store().stats();
        dict.flush().unwrap();
        let after = dict.store().stats();
        assert_eq!(std::fs::metadata(&path).unwrap().len() / B, image_blocks);

        let bitmap = (words.len() as u64 * 8).div_ceil(B);
        let records = (2_000u64 * 16).div_ceil(B);
        let checksums = ((bitmap + records) * 8).div_ceil(B);
        assert_eq!(image_blocks, 1 + checksums + bitmap + records);
        // Header, checksum region and records go to the data file; the
        // journal holds their ids and images and its header, and the zeros
        // that retire them are as many blocks again.
        let dirty = 1 + checksums + records;
        assert_eq!(
            after.data.blocks_written - before.data.blocks_written,
            dirty
        );
        let journaled = 1 + (dirty * 8).div_ceil(B) + dirty;
        assert_eq!(
            after.blocks_written() - before.blocks_written(),
            dirty + 2 * journaled
        );

        // Nothing changed: nothing is written.
        dict.flush().unwrap();
        assert_eq!(dict.store().stats(), after);
        assert_eq!(committed_words(&mut dict), words);
        std::fs::remove_file(dict.store().path()).unwrap();
        std::fs::remove_file(dict.store().journal_path()).unwrap();
    }

    /// Rewrites one header field of the store file at `path` and re-signs
    /// the header, as a writer that knows the format would.
    fn resign_header(path: &std::path::Path, field: usize, value: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[field * 8..][..8].copy_from_slice(&value.to_le_bytes());
        let sum = bytes[..80].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        bytes[80..88].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    /// A flushed 500-key store; returns its path and committed fingerprint.
    fn flushed_store(tag: &str) -> (PersistentDict, std::path::PathBuf, u64) {
        let path = block_store::temp_path(tag);
        let mut dict = Dict::builder()
            .backend(Backend::HiPma)
            .seed(7)
            .build_persistent_with(&path, StoreOptions::new(512).no_sync())
            .unwrap();
        dict.bulk_load((0..500u64).map(|k| (k * 3, k)), 7);
        dict.flush().unwrap();
        let fingerprint = dict.store().meta().unwrap().fingerprint;
        (dict, path, fingerprint)
    }

    /// What reopening `path` fails with, typed, through the `io::Result`
    /// surface.
    fn reopen_error(path: &std::path::Path) -> (io::ErrorKind, PersistError) {
        let err = Dict::builder()
            .backend(Backend::HiPma)
            .build_persistent_with(path, StoreOptions::new(512).no_sync())
            .map(|_| ())
            .unwrap_err();
        let kind = err.kind();
        let typed = err.into_inner().unwrap().downcast::<PersistError>();
        (kind, *typed.expect("reopen errors carry a PersistError"))
    }

    #[test]
    fn reopen_refuses_an_image_that_does_not_reproduce_typed() {
        let (dict, path, committed) = flushed_store("dict-mismatch");
        drop(dict);
        // An intact image whose seed is not the one its layout was drawn
        // with: every checksum holds, the canonical bitmap differs.
        resign_header(&path, 6, 8);
        match reopen_error(&path) {
            (
                io::ErrorKind::InvalidData,
                PersistError::FingerprintMismatch {
                    committed: c,
                    rebuilt,
                },
            ) => assert!(c == committed && rebuilt != committed),
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        // The fingerprint word itself never gets that far: the store checks
        // it against the bitmap beside it, and calls the difference rot.
        resign_header(&path, 6, 7);
        resign_header(&path, 8, committed ^ 1);
        assert!(matches!(
            reopen_error(&path),
            (io::ErrorKind::InvalidData, PersistError::Corrupt { .. })
        ));
        // And an intact header of the previous format is refused by name.
        resign_header(&path, 8, committed);
        resign_header(&path, 1, 3);
        assert!(matches!(
            reopen_error(&path),
            (
                io::ErrorKind::Unsupported,
                PersistError::UnsupportedVersion {
                    found: 3,
                    supported: 4
                }
            )
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repair_from_refuses_an_image_that_does_not_reproduce_typed() {
        // A replica with the same contents whose header is re-signed with
        // another seed: a clean source, block for block, whose bitmap is
        // not the canonical one for its (len, seed). Opening it through the
        // builder would refuse, so the handle is assembled by hand.
        let (mut target, path, _) = flushed_store("dict-repair-target");
        let (source, source_path, committed) = flushed_store("dict-repair-source");
        let contents = source.to_sorted_vec();
        drop(source);
        resign_header(&source_path, 6, 8);
        let mut source = PersistentDict {
            dict: Dict::builder().backend(Backend::HiPma).build(),
            store: BlockStore::open(&source_path, StoreOptions::new(512).no_sync()).unwrap(),
            seed: 8,
        };
        match target.repair_from(&mut source) {
            Err(PersistError::FingerprintMismatch {
                committed: c,
                rebuilt,
            }) => assert!(c == committed && rebuilt != committed),
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        // Nothing was loaded: the next flush writes this dictionary's own
        // contents under its own seed.
        target.flush().unwrap();
        drop(target);
        let reopened = Dict::builder()
            .backend(Backend::HiPma)
            .build_persistent_with(&path, StoreOptions::new(512).no_sync())
            .unwrap();
        assert_eq!(reopened.seed(), 7);
        assert_eq!(reopened.to_sorted_vec(), contents);
        for p in [path, source_path] {
            std::fs::remove_file(&p).unwrap();
        }
    }

    #[test]
    fn build_persistent_rejects_node_based_backends() {
        // Every backend but the HI-PMA, the classic PMA's slot array
        // included, is refused before the file is created.
        let path = block_store::temp_path("dict-reject");
        for backend in Backend::ALL.into_iter().filter(|&b| b != Backend::HiPma) {
            let err = Dict::builder()
                .backend(backend)
                .build_persistent(&path)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{backend}");
            assert!(!path.exists(), "{backend}");
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(backend.name().parse::<Backend>().unwrap(), backend);
        }
        assert!("no-such-engine".parse::<Backend>().is_err());
    }
}
