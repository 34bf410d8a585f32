//! The TCP front-end: one thread per connection on `std::net`, and
//! **leader-based epoch group commit** — the connection about to block
//! applies everything queued, by every connection, itself.
//!
//! # Architecture
//!
//! ```text
//! acceptor threads ──▶ connection thread ──▶ bounded per-shard queues
//!   (one listener,       (parse every buffered   (seq-stamped tickets,
//!    N acceptors)         frame, route by shard)  shed when full)
//!                              │ about to block: release()       │
//!                              ▼                                 │
//!                        take the engine mutex ◀─────────────────┘
//!                        drain *all* queues, merge by seq,
//!                        segment walk, multi_apply, fill cells
//!                              │ unlock
//!                              ▼
//!                        pop own ring's filled prefix, encode,
//!                        one write ──▶ then, and only then, read
//! ```
//!
//! There is no engine thread and no writer thread: a synchronous request is
//! client → connection thread → client, two context switches and no wake.
//!
//! ## The answer ring
//!
//! Each connection owns one `Conn`: a mutex over a `ConnState` — a
//! `VecDeque` of at most `inflight_bound` cells `(token, Option<Response>)`
//! in arrival order, plus `base`, the request number of the head cell. The
//! connection thread appends an empty cell per frame; a `Ticket` carries
//! `(Arc<Conn>, n)`; shed, inline admin and whichever leader applies the
//! ticket all answer through one `ConnState::fill`; the connection thread
//! pops the whole filled prefix under one lock, encodes it into one buffer
//! and writes it once. Responses leave in request order by construction
//! (only the head is ever popped), and a request costs no allocation, no
//! sync object and no hand-off of its own. Nobody ever waits on a ring, so
//! it has no condition variable.
//!
//! ## What closes an epoch
//!
//! No timer does, and no dedicated thread either.
//!
//! **The release rule: a connection never blocks while holding unreleased
//! tickets or unwritten answers.** It parses every frame already in its
//! buffer and queues them without touching the engine; it *releases* only
//!
//! - before a `read` that reaches the socket — the buffer is short of the
//!   next prefix or body, so the peer decides how long that read takes;
//! - when its ring is full (`inflight_bound` requests parsed ahead of
//!   their answers);
//! - when it holds `epoch_ops` tickets, the one pacing bound;
//! - on every way out of the connection, unwinding included (a drop guard).
//!
//! `release` leads an epoch if tickets are held — engine mutex, every queue
//! lock at once, drain, apply, fill — then drops the engine mutex and
//! writes the filled prefix of its own ring. The write comes after the
//! unlock, so a peer that will not read stalls its own connection (for at
//! most `write_timeout`) and never an epoch.
//!
//! **Answered on return: when `release` returns, every ticket this
//! connection queued has been answered.** Epochs are serialized by the
//! engine mutex and a drain holds every queue lock, so once this thread
//! holds the mutex each of its tickets is either still queued — and its
//! own drain takes it — or was taken by an earlier epoch, which filled
//! every cell it took before it unlocked. Hence nothing is ever left for
//! another thread to write, a connection blocked in `read` has an empty
//! ring, and liveness needs no wake. Batching is what it was: a pipelined
//! burst that arrived together is applied together, and under load a
//! leader applies what other connections queued while the previous epoch
//! ran. The rule keys on a property of the input — which bytes have
//! already arrived — not on a clock or a setting, so there is no
//! idle-latency/throughput knob.
//!
//! A leader merges the drained tickets by their global arrival sequence
//! number and walks them in that one order: point writes
//! accumulate into a batch (plus a this-epoch overlay so a pipelined `GET`
//! after a `PUT` on one connection observes its own write), point reads
//! answer from the overlay or from one batched [`ShardedDict::multi_get`]
//! against the pre-batch state, and order-sensitive operations (`SUCC`,
//! `PRED`, `LEN`, `FLUSH`) are *barriers*: the pending batch commits
//! through [`ShardedDict::multi_apply`] first, then the barrier runs on the
//! committed state.
//!
//! ## Why this preserves both correctness and history independence
//!
//! Neither argument mentions *when* an epoch closes or *which thread* runs
//! it.
//!
//! *Correctness*: no response is issued until a leader fills its cell, so
//! every operation in an epoch is concurrent in real time and any single
//! serial order is a valid linearization; the epoch's order is global
//! arrival (seq) order, which also embeds each connection's program order,
//! so pipelined streams read their own writes (the oracle battery in
//! `tests/server_protocol.rs` pins this against `BTreeMap`).
//!
//! *History independence*: an epoch only ever touches the dictionary
//! through `multi_get`/`multi_apply`/`bulk_load`, and `multi_apply` applies
//! each shard's share of a batch in arrival order, so the layout is
//! invariant under batch partitioning (pinned in `tests/determinism.rs`).
//! Scheduling decides only *where epoch boundaries fall*, i.e. how the one
//! arrival-ordered stream is partitioned into batches — exactly the degree
//! of freedom the layout is invariant under — so client count, how clients
//! cut their sends, which connection leads, and `epoch_ops` cannot leak
//! into the at-rest bytes. The determinism battery
//! (`tests/server_determinism.rs`) verifies the flushed image byte-for-byte
//! against a single-threaded rebuild of the same contents: after a
//! concurrent multi-client run, and at the two extreme partitions (every
//! epoch one operation; one burst in few, full epochs).
//!
//! *Degradation*: a quarantined shard refuses typed — reads and writes
//! that route to it answer `DEGRADED`, navigation that it could own goes
//! through [`ShardedDict::try_successor`] and
//! [`ShardedDict::try_predecessor`], and `FLUSH`
//! refuses rather than persist partial contents. Never a silent wrong
//! answer. A ticket dropped unanswered (a panic unwinding out of an epoch)
//! answers `UNAVAILABLE` from its `Drop`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use anti_persistence::dict::{DictBuilder, DictConfig, HiDict, PersistentDict, ServerConfig};
use hi_common::batch::BatchOp;
use hi_common::sync::locked;
use hi_common::traits::Dictionary;
use shard::{RunMerge, ShardError, ShardRouter, ShardedDict};

use crate::protocol::{decode_request, encode_response_into, envelope_token, Request, Response};

/// What this front-end serves: HI-PMA shards, with no enum dispatch.
pub type ServedDict = ShardedDict<HiDict>;

/// How long a blocked socket read waits before re-checking the shutdown
/// flag. Latency of *shutdown*, not of requests — reads that have data
/// return immediately.
const READ_POLL: Duration = Duration::from_millis(25);

/// A connection's read buffer. An epoch runs at every read that reaches the
/// socket, so the buffer has to hold one default `epoch_ops` burst (512
/// point requests are 19 KiB) or it, not the budget, cuts the epochs.
const READ_BUF: usize = 32 * 1024;

/// Hard bound on distinct HELLO-bound clients with live dedup windows.
/// Beyond it the least-recently-used client's window is evicted whole —
/// a count-based bound, so the registry can never grow with client churn.
const MAX_DEDUP_CLIENTS: usize = 1024;

/// Everything the server hands to [`Server::spawn`] besides the address.
pub struct ServerOptions {
    /// Dictionary + epoch/backpressure configuration (validated up front;
    /// see `DictConfig::validate`), over [`Backend::HiPma`], the one engine
    /// served.
    ///
    /// [`Backend::HiPma`]: anti_persistence::dict::Backend::HiPma
    pub config: DictConfig,
    /// When present, the server boots from this store's contents, and
    /// `FLUSH` canonicalizes the served contents into it; when `None`,
    /// `FLUSH` answers `UNAVAILABLE`. Its seed must be the config's.
    /// Passing the dictionary in (rather than a path) lets crash batteries
    /// arm a `block_store::FaultPlan` before the server starts.
    pub persist: Option<PersistentDict>,
}

/// One connection's in-flight requests, oldest first. Plain data — no
/// socket, no lock, no thread — so the type that runs is the type a model
/// checker can drive step by step.
#[derive(Default)]
struct ConnState {
    /// Most cells that may be outstanding (`inflight_bound`).
    bound: usize,
    /// Request number of the head cell: cell `n` sits at index `n - base`.
    base: u64,
    /// `(token, response)` per request, in arrival order; a cell is filled
    /// exactly once, by whoever answers, and only the head leaves.
    cells: VecDeque<(u64, Option<Response>)>,
}

impl ConnState {
    fn new(bound: usize) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }

    /// Appends an empty cell for a frame carrying `token` and returns its
    /// request number; `None` when `bound` cells are outstanding.
    fn push(&mut self, token: u64) -> Option<u64> {
        if self.cells.len() >= self.bound {
            return None;
        }
        self.cells.push_back((token, None));
        Some(self.base + self.cells.len() as u64 - 1)
    }

    /// Stores the answer to request `n` — the one way a response enters
    /// the ring, for shed, inline admin and an epoch alike.
    fn fill(&mut self, n: u64, resp: Response) {
        let cell = n
            .checked_sub(self.base)
            .and_then(|at| self.cells.get_mut(at as usize));
        debug_assert!(
            matches!(cell, Some((_, None))),
            "request {n} answered twice, or after it left"
        );
        if let Some(cell) = cell {
            cell.1 = Some(resp);
        }
    }

    /// Moves the filled prefix to `out` in request order.
    fn pop_filled(&mut self, out: &mut Vec<(u64, Response)>) {
        while matches!(self.cells.front(), Some((_, Some(_)))) {
            if let Some((token, Some(resp))) = self.cells.pop_front() {
                out.push((token, resp));
                self.base += 1;
            }
        }
    }
}

/// One connection's answer ring: the state under one lock. Its connection
/// thread appends and pops; that thread and the leader of an epoch fill.
type Conn = Mutex<ConnState>;

/// Where one request's answer goes: cell `n` of its connection's ring.
/// Dropped unanswered — a panic unwinding out of an epoch — it answers
/// `UNAVAILABLE`, so no connection is left waiting on a cell nobody holds.
struct Reply {
    conn: Arc<Conn>,
    n: u64,
    answered: bool,
}

impl Reply {
    fn fill(mut self, resp: Response) {
        self.answered = true;
        locked(&self.conn).fill(self.n, resp);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let lost = Response::Unavailable("the request was dropped unanswered".into());
            locked(&self.conn).fill(self.n, lost);
        }
    }
}

/// A queued operation: its global arrival sequence number, the request,
/// the ring cell its connection will emit it from, and — for mutating
/// requests from a HELLO-bound client — the `(client, token)` idempotency
/// identity an epoch dedups on.
struct Ticket {
    seq: u64,
    req: Request,
    reply: Reply,
    idem: Option<Idem>,
}

/// One bounded shard queue (the last queue holds the order-sensitive
/// operations that need the global view).
struct Queue {
    ops: VecDeque<Ticket>,
    /// Set by the closing epoch: no ticket enqueued after this is owed a
    /// drain, so enqueue refuses instead.
    closed: bool,
}

/// What an epoch works with, owned by whoever holds `Shared::engine`: the
/// exactly-once ledger, and scratch that every epoch leaves empty for the
/// next to reuse.
struct Engine {
    dedup: DedupRegistry,
    epoch: Vec<Ticket>,
    segment: Segment,
}

struct Shared {
    dict: RwLock<ServedDict>,
    /// `None` once [`Server::into_persist`] has taken it back (or when the
    /// server was started without persistence) — `FLUSH` answers
    /// `UNAVAILABLE` then.
    persist: Mutex<Option<PersistentDict>>,
    /// `shard_count + 1` queues: one per shard, plus the barrier queue.
    queues: Vec<Mutex<Queue>>,
    /// A copy of the dictionary's router (`ShardRouter` is `Copy` and
    /// fixed for the server's lifetime), so connections route without the
    /// service lock a leader holds for the whole of an epoch.
    router: ShardRouter,
    seq: AtomicU64,
    /// Held for the whole of an epoch: epochs are serialized, and the
    /// thread that holds it is the leader.
    engine: Mutex<Engine>,
    shutdown: AtomicBool,
    /// Non-empty epochs processed and tickets drained into them. RAM-only
    /// statistics: read by [`Server::epoch_stats`], never persisted.
    epochs: AtomicU64,
    tickets: AtomicU64,
    cfg: ServerConfig,
}

fn degraded(err: ShardError) -> Response {
    let ShardError::Degraded { shard, reason } = err;
    Response::Degraded {
        shard: shard as u64,
        reason,
    }
}

/// `RwLock` variants of [`hi_common::sync::locked`], same policy: shard
/// panics are already contained (the quarantine ledger marks the shard
/// down before the panic unwinds out of `multi_apply`), so a poisoned
/// service lock carries no torn state worth cascading over.
fn read_locked<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_locked<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Queue index for a data operation on `key`.
    fn shard_queue(&self, key: u64) -> usize {
        self.router.route(&key)
    }

    /// Queue index for order-sensitive (barrier) operations.
    fn barrier_queue(&self) -> usize {
        self.queues.len() - 1
    }

    /// Stamps, bounds-checks and enqueues one operation; answers it
    /// immediately with the typed shed/refusal response when the queue is
    /// full or closed. Returns the ticket's arrival stamp if one was queued
    /// — the connection then owes it a release (see [`Unreleased::enqueue`]).
    fn enqueue(&self, queue: usize, req: Request, reply: Reply, idem: Option<Idem>) -> Option<u64> {
        let mut q = locked(&self.queues[queue]);
        if q.closed {
            reply.fill(Response::Unavailable("server is shutting down".into()));
            return None;
        }
        if q.ops.len() >= self.cfg.queue_bound {
            reply.fill(Response::Overloaded);
            return None;
        }
        // The global sequence is drawn under the queue lock, so each
        // queue's tickets are seq-sorted and an epoch's merge by seq
        // reconstructs one total arrival order.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        q.ops.push_back(Ticket {
            seq,
            req,
            reply,
            idem,
        });
        Some(seq)
    }

    /// Runs `epoch` as the leader: alone, under the engine mutex. If it
    /// unwinds, whatever it left in the scratch is dropped — each ticket
    /// answering `UNAVAILABLE` — before the mutex is let go, so the next
    /// leader finds the engine as clean as a finished epoch leaves it.
    fn lead(&self, epoch: impl FnOnce(&mut Engine)) {
        let mut engine = locked(&self.engine);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| epoch(&mut engine))) {
            engine.epoch.clear();
            engine.segment = Segment::default();
            drop(engine);
            resume_unwind(panic);
        }
    }

    /// Drains one epoch and, if it holds anything, counts and applies it.
    fn run_epoch(&self, closing: bool) {
        self.lead(|engine| {
            drain_epoch(self, closing, &mut engine.epoch);
            if engine.epoch.is_empty() {
                return;
            }
            self.epochs.fetch_add(1, Ordering::Relaxed);
            self.tickets
                .fetch_add(engine.epoch.len() as u64, Ordering::Relaxed);
            process_epoch(self, engine);
        });
    }
}

/// A connection thread's half of the pipeline: the tickets it has queued
/// but not yet released, and the answers it has not yet written.
///
/// The release rule: **a connection never blocks while holding either.**
/// It releases before a socket read, on a full ring, when `epoch_ops`
/// tickets are held, and — through `Drop` — on every exit path, unwinding
/// included, so that a refusal still reaches the peer before the close.
struct Unreleased<'a, W: Write> {
    shared: &'a Shared,
    conn: Arc<Conn>,
    held: usize,
    /// The peer, unbuffered: `frames` is the buffer.
    sink: W,
    /// A write failed or timed out: the peer is gone, or will not read.
    /// Answers are dropped from here on and the connection winds up.
    severed: bool,
    /// Buffers reused by every release.
    ready: Vec<(u64, Response)>,
    frames: Vec<u8>,
}

impl<'a, W: Write> Unreleased<'a, W> {
    fn new(shared: &'a Shared, sink: W) -> Self {
        Self {
            shared,
            conn: Arc::new(Mutex::new(ConnState::new(shared.cfg.inflight_bound))),
            held: 0,
            sink,
            severed: false,
            ready: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Leads an epoch if tickets are held, then writes every answer this
    /// connection is owed. On return the ring is empty: each of its cells
    /// was filled inline or by an epoch that has finished (module docs,
    /// "Answered on return").
    fn release(&mut self) {
        if std::mem::take(&mut self.held) > 0 {
            self.shared.run_epoch(false);
        }
        let mut ring = locked(&self.conn);
        ring.pop_filled(&mut self.ready);
        debug_assert!(ring.cells.is_empty(), "released, and a cell is unanswered");
        drop(ring);
        if self.ready.is_empty() {
            return;
        }
        self.frames.clear();
        for (token, resp) in self.ready.drain(..) {
            encode_response_into(&mut self.frames, token, &resp);
        }
        // One write per burst, after the engine mutex is dropped: a peer
        // that will not read costs itself the connection, never an epoch.
        // The send timeout bounds the whole call, so a short write is
        // `write_timeout` run out: sever, rather than wait again.
        if !self.severed
            && !matches!(self.sink.write(&self.frames), Ok(n) if n == self.frames.len())
        {
            self.severed = true;
        }
    }

    /// Appends a ring cell for a frame carrying `token`; a full ring is
    /// released — which empties it — first. `None` once the peer is gone.
    fn push(&mut self, token: u64) -> Option<u64> {
        let cell = locked(&self.conn).push(token);
        if cell.is_some() {
            return cell;
        }
        self.release();
        if self.severed {
            return None;
        }
        locked(&self.conn).push(token)
    }

    /// [`Shared::enqueue`] for request number `n`, counting the ticket if
    /// one was queued and releasing once the op budget is held.
    fn enqueue(&mut self, queue: usize, n: u64, req: Request, idem: Option<Idem>) -> Option<u64> {
        let reply = Reply {
            conn: Arc::clone(&self.conn),
            n,
            answered: false,
        };
        let seq = self.shared.enqueue(queue, req, reply, idem)?;
        self.held += 1;
        if self.held >= self.shared.cfg.epoch_ops {
            self.release();
        }
        Some(seq)
    }
}

impl<W: Write> Drop for Unreleased<'_, W> {
    fn drop(&mut self) {
        // A panic in this last epoch is kept in: the drop may itself be
        // part of an unwind, and a second panic would abort the process.
        let _ = catch_unwind(AssertUnwindSafe(|| self.release()));
    }
}

/// A handle to a running server: its bound address and the threads behind
/// it. [`Server::shutdown`] (also run on drop) drains queued work, answers
/// every in-flight request, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl Server {
    /// Validates the configuration, builds the sharded dictionary, boots it
    /// from `persist`, binds `addr` (port 0: ephemeral) and spawns the
    /// acceptors.
    ///
    /// A backend other than [`Backend::HiPma`], or a `persist` store whose
    /// seed is not the config's, is `InvalidInput` before the listener
    /// binds. A store's contents are bulk-loaded into the shards under that
    /// one seed, so a restart serves the last committed image, and the
    /// store's own dictionary is emptied: the shards are the one copy.
    ///
    /// [`Backend::HiPma`]: anti_persistence::dict::Backend::HiPma
    pub fn spawn(addr: impl ToSocketAddrs, mut opts: ServerOptions) -> io::Result<Server> {
        let cfg = opts.config.server;
        let seed = opts.config.seed;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let mut dict: ServedDict = DictBuilder::from_config(opts.config)
            .try_build_hi_sharded()
            .map_err(|e| invalid(e.to_string()))?;
        if let Some(p) = opts.persist.as_mut() {
            if p.seed() != seed {
                let stored = p.seed();
                return Err(invalid(format!(
                    "the store holds seed {stored}, the config names seed {seed}"
                )));
            }
            dict.bulk_load(p.iter().map(|(&k, &v)| (k, v)), seed);
            p.bulk_load([], seed);
        }
        let shard_count = dict.shard_count();
        let router = *dict.router();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            dict: RwLock::new(dict),
            persist: Mutex::new(opts.persist),
            queues: (0..=shard_count)
                .map(|_| {
                    Mutex::new(Queue {
                        ops: VecDeque::new(),
                        closed: false,
                    })
                })
                .collect(),
            router,
            seq: AtomicU64::new(0),
            engine: Mutex::new(Engine {
                dedup: DedupRegistry::new(cfg.dedup_window),
                epoch: Vec::new(),
                segment: Segment::default(),
            }),
            shutdown: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            tickets: AtomicU64::new(0),
            cfg,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut acceptors = Vec::with_capacity(cfg.acceptors);
        for _ in 0..cfg.acceptors {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(&shared, &listener, &conns)
            }));
        }
        Ok(Server {
            addr: local,
            shared,
            acceptors,
            conns,
            stopped: false,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(epochs, tickets)`: how many non-empty epochs have been led and how
    /// many tickets they held in total — the observable form of the
    /// batching the release rule produces.
    pub fn epoch_stats(&self) -> (u64, u64) {
        (
            self.shared.epochs.load(Ordering::Relaxed),
            self.shared.tickets.load(Ordering::Relaxed),
        )
    }

    /// How many connection threads (one per connection) the server still
    /// holds a handle to. Finished ones are reaped each time a connection
    /// is accepted, so this follows the live connections, not the
    /// connections ever made. RAM-only, never persisted.
    pub fn conn_threads(&self) -> usize {
        locked(&self.conns).len()
    }

    /// Stops accepting, drains and answers everything queued, and joins
    /// every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // One nudge connection per acceptor unblocks every accept() call.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        // The closing epoch: `closed` is set under every queue lock, so
        // whatever was queued is answered here and nothing can slip in
        // behind it. Each connection writes its own answers on its way out.
        self.shared.run_epoch(true);
        let handles: Vec<JoinHandle<()>> = locked(&self.conns).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Takes the persistence layer back out of a stopped server — the
    /// crash batteries reopen the store to assert whole-old/whole-new. Its
    /// store holds the last `FLUSH`; its in-RAM dictionary is empty (spawn
    /// moved the contents into the shards).
    pub fn into_persist(mut self) -> Option<PersistentDict> {
        self.shutdown();
        locked(&self.shared.persist).take()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Accept loop and connection threads
// ---------------------------------------------------------------------------

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                // The thread is the containment: a panic in one
                // connection's plumbing ends that connection only, its
                // drop guard releasing what it had queued on the way out.
                let connection = {
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || connection(&shared, &stream))
                };
                let mut guard = locked(conns);
                // Reap the threads of connections that have ended, so the
                // list follows the live connections and not their churn.
                let mut at = 0;
                while at < guard.len() {
                    if guard[at].is_finished() {
                        let _ = guard.swap_remove(at).join();
                    } else {
                        at += 1;
                    }
                }
                guard.push(connection);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                std::thread::sleep(READ_POLL);
            }
        }
    }
}

/// What one attempt to read a full frame observed.
enum Wire {
    /// The requested bytes arrived (for [`read_wire_frame`]: a whole body,
    /// in the connection's body buffer).
    Body,
    /// Clean close between frames.
    Eof,
    /// The peer vanished with a partial prefix or body on the wire.
    MidFrameCut,
    /// Length prefix of zero or beyond the configured `max_frame`; body
    /// unread.
    Oversized(u32),
    /// The server is shutting down.
    Shutdown,
    /// The idle budget ran out: the peer sent nothing — not even a PING —
    /// for `idle_timeout` worth of read polls. Reap the connection.
    Idle,
    /// Hard socket error, or a write of answers that failed or timed out.
    Dead,
}

/// Fills `buf` completely, tolerating read timeouts (used to poll the
/// shutdown flag) and preserving partial progress across them. Releases
/// first unless the bytes are already buffered — the only case in which no
/// `read` reaches the socket and nothing can block — and then, once shutdown
/// is flagged, reads no more: a peer that never stops sending never lets a
/// read time out, so the flag is checked before the socket is, not only
/// when it is quiet.
/// `idle` counts consecutive empty read polls across calls — any received
/// byte resets it, `budget` exhausts it. The reap decision is therefore a
/// *count* of poll intervals, not a wall-clock read: determinism-hygiene
/// keeps clocks out of the reaper the same way it keeps them out of the
/// retry budget.
fn fill_buf(
    stream: &mut BufReader<&TcpStream>,
    buf: &mut [u8],
    unreleased: &mut Unreleased<'_, &TcpStream>,
    at_boundary: bool,
    idle: &mut usize,
    budget: usize,
) -> Wire {
    let shared = unreleased.shared;
    if stream.buffer().len() < buf.len() {
        unreleased.release();
        if unreleased.severed {
            return Wire::Dead;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Wire::Shutdown;
        }
    }
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && at_boundary {
                    Wire::Eof
                } else {
                    Wire::MidFrameCut
                }
            }
            Ok(n) => {
                filled += n;
                *idle = 0;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Wire::Shutdown;
                }
                *idle += 1;
                if *idle >= budget {
                    return Wire::Idle;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Wire::Dead,
        }
    }
    Wire::Body
}

/// Reads one frame's body into `body`, the one buffer a connection reads
/// every frame into (its length is bounded by `max_frame` before a byte of
/// it is staged).
fn read_wire_frame(
    stream: &mut BufReader<&TcpStream>,
    body: &mut Vec<u8>,
    unreleased: &mut Unreleased<'_, &TcpStream>,
    idle: &mut usize,
    budget: usize,
) -> Wire {
    let mut prefix = [0u8; 4];
    match fill_buf(stream, &mut prefix, unreleased, true, idle, budget) {
        Wire::Body => {}
        other => return other,
    }
    let len = u32::from_be_bytes(prefix);
    if len == 0 || len as usize > unreleased.shared.cfg.max_frame {
        return Wire::Oversized(len);
    }
    body.clear();
    body.resize(len as usize, 0);
    fill_buf(stream, body, unreleased, false, idle, budget)
}

fn connection(shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // A peer that stops draining responses is shed after `write_timeout`
    // (the write errors and the connection winds up): a slow client costs
    // itself the connection, never an epoch.
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut unreleased = Unreleased::new(shared, stream);
    let mut stream = BufReader::with_capacity(READ_BUF, stream);
    let mut body = Vec::new();
    // Idle reaper: a count-based budget of consecutive empty read polls.
    // Any received byte — a PING included — resets it.
    let budget = ((shared.cfg.idle_timeout.as_millis() / READ_POLL.as_millis()).max(1)) as usize;
    let mut idle = 0usize;
    // The client identity bound by HELLO; 0 until then (anonymous — no
    // dedup protection).
    let mut client = 0u64;
    loop {
        let wire = read_wire_frame(&mut stream, &mut body, &mut unreleased, &mut idle, budget);
        // Whether the frame is served or refused, its answer takes the next
        // cell of the ring.
        let (token, parsed) = match wire {
            Wire::Body => match decode_request(&body) {
                Ok((token, req)) => (token, Ok(req)),
                // Echo whatever token prefix arrived so a retrying client
                // can correlate the refusal.
                Err(e) => (envelope_token(&body), Err(e.0)),
            },
            // Refused before a single body byte is read: a hostile prefix
            // cannot make the server stage memory.
            Wire::Oversized(len) => (
                0,
                Err(format!(
                    "frame length {len} outside 1..={}",
                    shared.cfg.max_frame
                )),
            ),
            // A clean close, a mid-frame disconnect, a dead socket, or a
            // reaped idler all end the connection silently — there is no
            // peer left (or entitled) to tell. Tickets already queued are
            // released on the way out and still apply.
            Wire::Eof | Wire::MidFrameCut | Wire::Dead | Wire::Shutdown | Wire::Idle => return,
        };
        let Some(n) = unreleased.push(token) else {
            // The peer stopped reading; no point parsing more.
            return;
        };
        let req = match parsed {
            Ok(req) => req,
            Err(why) => {
                // Refuse, then close: after an oversized prefix or a
                // checksum mismatch the stream offset can no longer be
                // trusted.
                locked(&unreleased.conn).fill(n, Response::BadRequest(why));
                return;
            }
        };
        // Mutating requests from a HELLO-bound client with a nonzero token
        // carry an idempotency identity the epoch dedups on.
        let idem = match (client, token, &req) {
            (0, _, _) | (_, 0, _) => None,
            (c, t, Request::Put { .. } | Request::Del { .. } | Request::Flush) => Some((c, t)),
            _ => None,
        };
        let inline = match req {
            // Data operations ride the epoch pipeline, routed by shard.
            Request::Get { key } | Request::Put { key, .. } | Request::Del { key } => {
                unreleased.enqueue(shared.shard_queue(key), n, req, idem);
                continue;
            }
            // Order-sensitive operations are barriers in the epoch.
            Request::Succ { .. } | Request::Pred { .. } | Request::Len | Request::Flush => {
                unreleased.enqueue(shared.barrier_queue(), n, req, idem);
                continue;
            }
            // Health management answers inline under a *read* lock: the
            // quarantine ledger is interior-mutable and both transitions
            // take `&self`, so re-admitting a repaired shard never needs
            // exclusive ownership of the service (satellite contract —
            // see ShardedDict::restore_shard).
            Request::Health => {
                let dict = read_locked(&shared.dict);
                let degraded_shards = dict
                    .health()
                    .into_iter()
                    .flatten()
                    .map(|e| {
                        let ShardError::Degraded { shard, reason } = e;
                        (shard as u64, reason)
                    })
                    .collect();
                Response::Health {
                    shards: dict.shard_count() as u64,
                    degraded: degraded_shards,
                }
            }
            Request::Quarantine { shard, .. } | Request::Restore { shard }
                if shard >= shared.router.shard_count() as u64 =>
            {
                let shards = shared.router.shard_count();
                Response::BadRequest(format!("shard {shard} out of range ({shards} shards)"))
            }
            Request::Quarantine { shard, reason } => {
                read_locked(&shared.dict).quarantine_shard(shard as usize, reason);
                Response::Done
            }
            Request::Restore { shard } => {
                read_locked(&shared.dict).restore_shard(shard as usize);
                Response::Done
            }
            Request::Ping => Response::Done,
            Request::Hello { client: id } => {
                client = id;
                Response::Done
            }
        };
        locked(&unreleased.conn).fill(n, inline);
    }
}

// ---------------------------------------------------------------------------
// The epoch engine
// ---------------------------------------------------------------------------

/// One client's retained responses, keyed by idempotency token, with
/// FIFO token order for window eviction and a logical-use tick for LRU
/// client eviction. Both bounds are counts — no clock is consulted.
struct DedupWindow {
    retained: BTreeMap<u64, Response>,
    order: VecDeque<u64>,
    last_use: u64,
}

/// The exactly-once ledger: per HELLO-bound client, the last
/// `dedup_window` successfully-applied mutating tokens and their retained
/// responses. Part of the [`Engine`], so only ever touched by the leader of
/// an epoch: consulted before a mutating ticket joins a segment and
/// appended to when its write commits healthy.
///
/// Memory bound: at most [`MAX_DEDUP_CLIENTS`] clients × `dedup_window`
/// retained responses, each a small fixed-size variant (`Done` /
/// `Generation`) — both factors are configuration constants, so the ledger
/// cannot grow with traffic, churn, or time.
struct DedupRegistry {
    clients: BTreeMap<u64, DedupWindow>,
    window: usize,
    tick: u64,
}

impl DedupRegistry {
    fn new(window: usize) -> Self {
        Self {
            clients: BTreeMap::new(),
            window,
            tick: 0,
        }
    }

    /// The retained response for `(client, token)`, if the token is still
    /// inside the client's window. Bumps the client's LRU tick.
    fn lookup(&mut self, client: u64, token: u64) -> Option<Response> {
        self.tick += 1;
        let w = self.clients.get_mut(&client)?;
        w.last_use = self.tick;
        w.retained.get(&token).cloned()
    }

    /// Retains `resp` for `(client, token)`, evicting the oldest token
    /// beyond the window and the least-recently-used client beyond
    /// [`MAX_DEDUP_CLIENTS`].
    fn record(&mut self, client: u64, token: u64, resp: Response) {
        self.tick += 1;
        if !self.clients.contains_key(&client) && self.clients.len() >= MAX_DEDUP_CLIENTS {
            let lru = self
                .clients
                .iter()
                .min_by_key(|(_, w)| w.last_use)
                .map(|(id, _)| *id);
            if let Some(id) = lru {
                self.clients.remove(&id);
            }
        }
        let w = self.clients.entry(client).or_insert_with(|| DedupWindow {
            retained: BTreeMap::new(),
            order: VecDeque::new(),
            last_use: 0,
        });
        w.last_use = self.tick;
        if w.retained.insert(token, resp).is_none() {
            w.order.push_back(token);
            while w.order.len() > self.window {
                if let Some(old) = w.order.pop_front() {
                    w.retained.remove(&old);
                }
            }
        }
    }
}

/// Drains every queue into `epoch` (empty on entry) and merges the tickets
/// into one global arrival-ordered stream. During shutdown the queues are closed under
/// their locks first, so no later enqueue can be stranded unanswered.
///
/// Every queue lock is held at once, so the epoch is a *prefix* of the
/// arrival order: a stamp is drawn under a queue lock, hence no ticket with
/// a smaller stamp than a drained one can still be on its way into a queue
/// already passed — and, with epochs serialized, no ticket queued before the
/// drain can be left behind it, which is what "answered on return" rests on.
/// Draining the queues one lock at a time let a connection slip
/// a `PUT` into a shard queue the drain had just emptied and the `LEN`
/// behind it into the barrier queue it had not reached yet, and the barrier
/// then ran an epoch before the write it follows. (`enqueue` takes one queue
/// lock and nothing else takes two, so holding all of them cannot deadlock.)
fn drain_epoch(shared: &Shared, closing: bool, epoch: &mut Vec<Ticket>) {
    let mut queues: Vec<_> = shared.queues.iter().map(locked).collect();
    for q in &mut queues {
        if closing {
            q.closed = true;
        }
        epoch.extend(q.ops.drain(..));
    }
    drop(queues);
    // Each queue was seq-sorted (stamps drawn under the queue lock); the
    // merge re-establishes the one total arrival order.
    epoch.sort_by_key(|t| t.seq);
}

/// An idempotency identity: `(client id, token)`.
type Idem = (u64, u64);

/// One epoch's worth of point operations between two barriers: the batch
/// in arrival order plus an overlay so later reads in the same segment
/// observe earlier writes, and the deferred reads that missed the overlay.
#[derive(Default)]
struct Segment {
    overlay: BTreeMap<u64, Option<u64>>,
    /// `(key, reply, idem)` of every write, in arrival order.
    writes: Vec<(u64, Reply, Option<Idem>)>,
    batch: Vec<BatchOp<u64, u64>>,
    /// Idempotency identities already writing in this segment — a
    /// duplicate arriving in the *same* epoch (registry not yet updated)
    /// is caught here instead.
    pending: BTreeSet<Idem>,
    /// Same-segment duplicates: `(key, reply)` answered at commit exactly
    /// like their originals (same shard-health check), without a second
    /// application.
    dups: Vec<(u64, Reply)>,
    /// Reads that hit the overlay: `(key, observed value, reply)` —
    /// answered only after the batch commits, so a shard that panics
    /// mid-apply degrades them instead of letting them claim an
    /// uncommitted write.
    overlay_reads: Vec<(u64, Option<u64>, Reply)>,
    /// Reads that missed the overlay, answered from the pre-batch state.
    deferred_reads: Vec<(u64, Reply)>,
    /// The keys of `deferred_reads`, as `multi_get` wants them.
    deferred_keys: Vec<u64>,
    /// Per-shard health as of the last point it could have changed. The
    /// leader holds the dictionary's write lock for the whole epoch, so
    /// that is the start of the epoch and each `multi_get` / `multi_apply`
    /// (a contained panic quarantines its shard): one snapshot there
    /// instead of a lock round trip per ticket and per response.
    health: Vec<Option<ShardError>>,
}

/// The typed refusal for `key` if its shard was down at the last snapshot.
fn refusal(health: &[Option<ShardError>], dict: &ServedDict, key: u64) -> Option<Response> {
    health[dict.shard_of(&key)].clone().map(degraded)
}

impl Segment {
    fn push_read(&mut self, key: u64, reply: Reply) {
        match self.overlay.get(&key) {
            Some(v) => self.overlay_reads.push((key, *v, reply)),
            None => {
                self.deferred_keys.push(key);
                self.deferred_reads.push((key, reply));
            }
        }
    }

    fn push_write(&mut self, key: u64, value: Option<u64>, reply: Reply, idem: Option<Idem>) {
        // A duplicate of a write already in this segment joins as a
        // *waiter*, not a second application — exactly-once holds even
        // when the retry lands in the same epoch as the original.
        if let Some(id) = idem {
            if !self.pending.insert(id) {
                self.dups.push((key, reply));
                return;
            }
        }
        self.overlay.insert(key, value);
        self.batch.push(match value {
            Some(v) => BatchOp::Put(key, v),
            None => BatchOp::Remove(key),
        });
        self.writes.push((key, reply, idem));
    }

    fn is_empty(&self) -> bool {
        self.batch.is_empty()
            && self.overlay_reads.is_empty()
            && self.deferred_reads.is_empty()
            && self.dups.is_empty()
    }

    /// Commits the segment: deferred reads answer from the pre-batch
    /// state, the batch drains through `multi_apply`, and every response
    /// is checked against post-apply shard health so nothing a quarantined
    /// shard owned is reported as a clean answer. Healthy tokened writes
    /// are recorded in the dedup registry — degraded ones are *not*, so a
    /// retry after repair re-attempts instead of replaying the refusal.
    /// Leaves the segment empty, its buffers' capacity kept for the next.
    fn commit(&mut self, dict: &mut ServedDict, dedup: &mut DedupRegistry) {
        if self.is_empty() {
            return;
        }
        let values = dict.multi_get(&self.deferred_keys);
        self.deferred_keys.clear();
        dict.multi_apply(self.batch.drain(..));
        dict.health_into(&mut self.health);
        let health = &self.health;
        let deferred = self
            .deferred_reads
            .drain(..)
            .zip(values)
            .map(|((key, reply), value)| (key, value, reply));
        for (key, value, reply) in deferred.chain(self.overlay_reads.drain(..)) {
            reply.fill(refusal(health, dict, key).unwrap_or(match value {
                Some(v) => Response::Value(v),
                None => Response::NotFound,
            }));
        }
        for (key, reply, idem) in self.writes.drain(..) {
            match refusal(health, dict, key) {
                Some(resp) => reply.fill(resp),
                None => {
                    if let Some((client, token)) = idem {
                        dedup.record(client, token, Response::Done);
                    }
                    reply.fill(Response::Done);
                }
            }
        }
        for (key, reply) in self.dups.drain(..) {
            reply.fill(refusal(health, dict, key).unwrap_or(Response::Done));
        }
        self.pending.clear();
        self.overlay.clear();
    }
}

/// Applies one epoch in arrival order, leaving `epoch` and `segment` empty.
fn process_epoch(shared: &Shared, engine: &mut Engine) {
    let Engine {
        dedup,
        epoch,
        segment,
    } = engine;
    let mut dict = write_locked(&shared.dict);
    dict.health_into(&mut segment.health);
    for ticket in epoch.drain(..) {
        // Exactly-once: a mutating retry whose token is still inside its
        // client's window replays the retained response — the write is
        // not re-applied, so `PUT a; DEL a; retry PUT a` cannot resurrect
        // the key.
        if let Some((client, token)) = ticket.idem {
            if let Some(retained) = dedup.lookup(client, token) {
                ticket.reply.fill(retained);
                continue;
            }
        }
        // A point operation on a quarantined shard refuses before joining
        // the segment — `multi_get`'s silent omission never becomes a
        // silent NOT_FOUND.
        if let Request::Get { key } | Request::Put { key, .. } | Request::Del { key } = ticket.req {
            if let Some(resp) = refusal(&segment.health, &dict, key) {
                ticket.reply.fill(resp);
                continue;
            }
        }
        match ticket.req {
            Request::Get { key } => segment.push_read(key, ticket.reply),
            Request::Put { key, value } => {
                segment.push_write(key, Some(value), ticket.reply, ticket.idem)
            }
            Request::Del { key } => segment.push_write(key, None, ticket.reply, ticket.idem),
            barrier => {
                segment.commit(&mut dict, dedup);
                let resp = barrier_response(shared, &mut dict, barrier);
                // FLUSH is the one mutating barrier: retain its success
                // (the committed generation) so a retried FLUSH replays
                // the same generation instead of committing twice.
                if let Some((client, token)) = ticket.idem {
                    if matches!(resp, Response::Generation(_)) {
                        dedup.record(client, token, resp.clone());
                    }
                }
                ticket.reply.fill(resp);
            }
        }
    }
    segment.commit(&mut dict, dedup);
}

fn barrier_response(shared: &Shared, dict: &mut ServedDict, req: Request) -> Response {
    match req {
        Request::Succ { key } => match dict.try_successor(&key) {
            Ok(Some((k, v))) => Response::Entry(k, v),
            Ok(None) => Response::NotFound,
            Err(err) => degraded(err),
        },
        Request::Pred { key } => match dict.try_predecessor(&key) {
            Ok(Some((k, v))) => Response::Entry(k, v),
            Ok(None) => Response::NotFound,
            Err(err) => degraded(err),
        },
        Request::Len => Response::Count(dict.len() as u64),
        Request::Flush => flush_response(shared, dict),
        // Admin and data ops never reach the barrier path (connections
        // answer admin inline and route data ops by shard); refuse
        // defensively instead of panicking inside the epoch.
        _ => Response::BadRequest("operation is not a barrier".into()),
    }
}

/// Commits the canonical image of the served contents to the persistent
/// store. Refuses typed while any shard is quarantined: the quarantined
/// shard's entries are unreadable, and flushing without them would persist
/// a silently partial image.
fn flush_response(shared: &Shared, dict: &ServedDict) -> Response {
    if let Some(err) = dict.health().into_iter().flatten().next() {
        return degraded(err);
    }
    let mut guard = locked(&shared.persist);
    let Some(p) = guard.as_mut() else {
        return Response::Unavailable("no persistent store configured (--persist)".into());
    };
    // The shards' leaves are merged once, straight into the record encoder.
    let records = RunMerge::new(
        dict.shards().iter().map(|s| s.seq().leaves()),
        |r: &(u64, u64)| r.0,
    );
    match p.flush_from(dict.len(), records) {
        Ok(generation) => Response::Generation(generation),
        Err(e) => Response::Unavailable(format!("flush failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, read_frame, Frame};
    use anti_persistence::dict::Backend;

    fn serve_with(server: ServerConfig) -> Server {
        let config = DictConfig {
            backend: Backend::HiPma,
            seed: 0xD1C7,
            shards: 4,
            server,
            ..DictConfig::default()
        };
        let opts = ServerOptions {
            config,
            persist: None,
        };
        Server::spawn("127.0.0.1:0", opts).expect("bind loopback")
    }

    fn serve() -> Server {
        serve_with(ServerConfig::default())
    }

    fn bounded(inflight_bound: usize) -> ServerConfig {
        ServerConfig {
            inflight_bound,
            ..ServerConfig::default()
        }
    }

    /// Only the HI-PMA is served, and only under the seed its store was
    /// committed with. Another backend in the config, or a store under
    /// another seed, is refused typed before the listener binds: the
    /// address below is taken, and binding it would fail otherwise.
    #[test]
    fn another_backend_is_refused_before_the_server_binds() {
        let taken = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = taken.local_addr().expect("bound address");
        let config = |backend| DictConfig {
            backend,
            ..DictConfig::default()
        };
        let mut foreign = DictBuilder::from_config(config(Backend::HiPma))
            .seed(1)
            .build_persistent(anti_persistence::block_store::temp_path(
                "served-foreign-seed",
            ))
            .expect("a HI-PMA store opens");
        foreign.insert(1, 1);
        foreign.flush().expect("the store commits under seed 1");
        let (data, journal) = (
            foreign.store().path().to_path_buf(),
            foreign.store().journal_path().to_path_buf(),
        );
        for (opts, why) in [
            (
                ServerOptions {
                    config: config(Backend::BTree),
                    persist: None,
                },
                "hi-pma only",
            ),
            (
                ServerOptions {
                    config: config(Backend::HiPma),
                    persist: Some(foreign),
                },
                "the store holds seed 1, the config names seed 0",
            ),
        ] {
            let err = Server::spawn(addr, opts).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
        for path in [data, journal] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn readers_route_with_a_copy_of_the_dictionary_router() {
        let server = serve();
        let shared = &server.shared;
        assert_eq!(shared.router, *read_locked(&shared.dict).router());
    }

    #[test]
    fn cells_filled_out_of_order_are_emitted_in_order() {
        let mut ring = ConnState::new(8);
        for token in 10..14 {
            assert_eq!(ring.push(token), Some(token - 10));
        }
        let mut out = Vec::new();
        ring.fill(2, Response::Value(2));
        ring.fill(1, Response::Value(1));
        ring.pop_filled(&mut out);
        assert!(out.is_empty(), "the head is unanswered: nothing may leave");
        ring.fill(0, Response::Value(0));
        ring.pop_filled(&mut out);
        assert_eq!(
            out,
            [
                (10, Response::Value(0)),
                (11, Response::Value(1)),
                (12, Response::Value(2))
            ]
        );
        assert_eq!((ring.base, ring.cells.len()), (3, 1));
        // Request numbers keep counting across pops.
        assert_eq!(ring.push(14), Some(4));
        ring.fill(4, Response::Done);
        ring.fill(3, Response::NotFound);
        out.clear();
        ring.pop_filled(&mut out);
        assert_eq!(out, [(13, Response::NotFound), (14, Response::Done)]);
    }

    // The connection's half of the pipeline with no socket anywhere: the
    // listener of `serve()` is never dialled, the tests queue and release
    // the way `connection` does, and the peer is a sink they can read back.

    /// The `(token, response)` frames a sink received, in order.
    fn answers(mut bytes: &[u8]) -> Vec<(u64, Response)> {
        let mut out = Vec::new();
        while let Frame::Body(body) = read_frame(&mut bytes).expect("whole frames") {
            out.push(decode_response(&body).expect("a response"));
        }
        out
    }

    /// A peer that has gone away: every write fails.
    struct Gone;

    impl Write for Gone {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Queues `PUT key → key` under token `key` the way `connection` does;
    /// `None` once the peer is gone.
    fn queue_put<W: Write>(unreleased: &mut Unreleased<'_, W>, key: u64) -> Option<u64> {
        let n = unreleased.push(key)?;
        let queue = unreleased.shared.shard_queue(key);
        unreleased.enqueue(queue, n, Request::Put { key, value: key }, None);
        Some(n)
    }

    #[test]
    fn an_append_with_room_neither_releases_nor_parks() {
        let server = serve_with(bounded(2));
        let mut peer = Vec::new();
        let mut unreleased = Unreleased::new(&server.shared, &mut peer);
        assert_eq!(unreleased.push(7), Some(0));
        assert_eq!(unreleased.push(8), Some(1));
        locked(&unreleased.conn).fill(1, Response::Done);
        locked(&unreleased.conn).fill(0, Response::NotFound);
        assert!(
            unreleased.sink.is_empty(),
            "nothing is written before a release"
        );
        assert_eq!(server.epoch_stats(), (0, 0));
        drop(unreleased);
        assert_eq!(
            answers(&peer),
            [(7, Response::NotFound), (8, Response::Done)]
        );
    }

    /// `3 × inflight_bound + 1` requests parsed before a byte is read back. The ring never holds more than the
    /// bound, because a full ring is released — and its own answers are the
    /// room. Bounds 1 and 2 are the tight cases.
    #[test]
    fn a_full_ring_releases_and_its_own_answers_make_the_room() {
        for bound in [1usize, 2, 16] {
            let server = serve_with(bounded(bound));
            let mut peer = Vec::new();
            let mut unreleased = Unreleased::new(&server.shared, &mut peer);
            let sent = 3 * bound as u64 + 1;
            for key in 0..sent {
                assert_eq!(queue_put(&mut unreleased, key), Some(key), "bound {bound}");
                let cells = locked(&unreleased.conn).cells.len();
                assert!(cells <= bound, "bound {bound}: {cells} cells outstanding");
            }
            drop(unreleased);
            let want: Vec<(u64, Response)> = (0..sent).map(|key| (key, Response::Done)).collect();
            assert_eq!(answers(&peer), want, "bound {bound}");
            assert_eq!(server.epoch_stats(), (4, sent), "bound {bound}");
        }
    }

    #[test]
    fn a_whole_burst_leaves_in_one_write() {
        /// Records each `write` call.
        struct Writes(Vec<Vec<u8>>);

        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }

            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let server = serve();
        let mut unreleased = Unreleased::new(&server.shared, Writes(Vec::new()));
        for key in 0..3 {
            queue_put(&mut unreleased, key).expect("room");
        }
        // Inline answers ride the same write as the epoch's.
        let n = unreleased.push(3).expect("room");
        locked(&unreleased.conn).fill(n, Response::Done);
        unreleased.release();
        assert_eq!(unreleased.sink.0.len(), 1);
        let want: Vec<(u64, Response)> = (0..4).map(|key| (key, Response::Done)).collect();
        assert_eq!(answers(&unreleased.sink.0[0]), want);
        // Nothing owed, nothing written — `held == 0` still emits, though.
        unreleased.release();
        assert_eq!(unreleased.sink.0.len(), 1);
        let n = unreleased.push(4).expect("room");
        locked(&unreleased.conn).fill(n, Response::Overloaded);
        unreleased.release();
        assert_eq!(answers(&unreleased.sink.0[1]), [(4, Response::Overloaded)]);
        assert_eq!(server.epoch_stats(), (1, 3));
    }

    #[test]
    fn a_connection_that_panics_still_has_its_tickets_applied_and_answered() {
        let server = serve();
        let shared = &server.shared;
        let mut peer = Vec::new();
        let died = catch_unwind(AssertUnwindSafe(|| {
            let mut unreleased = Unreleased::new(shared, &mut peer);
            for key in 0..4 {
                queue_put(&mut unreleased, key).expect("room");
            }
            // Dies holding four unreleased tickets (`resume_unwind`: a
            // panic without the hook's stderr report).
            resume_unwind(Box::new("connection dies"));
        }));
        assert!(died.is_err());
        let want: Vec<(u64, Response)> = (0..4).map(|key| (key, Response::Done)).collect();
        assert_eq!(answers(&peer), want);
        let dict = read_locked(&shared.dict);
        for key in 0..4u64 {
            assert_eq!(dict.get(&key), Some(key));
        }
    }

    #[test]
    fn a_write_that_fails_still_lets_the_connection_exit_and_its_tickets_apply() {
        let server = serve_with(bounded(2));
        let mut unreleased = Unreleased::new(&server.shared, Gone);
        let mut queued = 0u64;
        while queue_put(&mut unreleased, queued).is_some() {
            queued += 1;
        }
        // The third append found the ring full, released, and the write of
        // the two answers failed: the append is refused and the connection
        // leaves. What it had queued was applied all the same.
        assert_eq!(queued, 2);
        assert!(unreleased.severed);
        drop(unreleased);
        let dict = read_locked(&server.shared.dict);
        for key in 0..queued {
            assert_eq!(dict.get(&key), Some(key));
        }
        assert_eq!(dict.len() as u64, queued);
    }

    #[test]
    fn a_ticket_dropped_unanswered_answers_unavailable() {
        let conn = Arc::new(Mutex::new(ConnState::new(2)));
        let n = locked(&conn).push(9).expect("room");
        let ticket = Ticket {
            seq: 0,
            req: Request::Len,
            reply: Reply {
                conn: Arc::clone(&conn),
                n,
                answered: false,
            },
            idem: None,
        };
        drop(ticket);
        let mut out = Vec::new();
        locked(&conn).pop_filled(&mut out);
        assert!(
            matches!(out[..], [(9, Response::Unavailable(_))]),
            "{out:?}"
        );
    }

    #[test]
    fn an_epoch_that_panics_answers_its_tickets_and_leaves_a_clean_engine() {
        let server = serve();
        let shared = &server.shared;
        let mut peer = Vec::new();
        let mut unreleased = Unreleased::new(shared, &mut peer);
        for key in 0..4 {
            queue_put(&mut unreleased, key).expect("room");
        }
        // An epoch that dies with one ticket in the segment and three still
        // in the epoch.
        let died = catch_unwind(AssertUnwindSafe(|| {
            shared.lead(|engine| {
                drain_epoch(shared, false, &mut engine.epoch);
                let first = engine.epoch.remove(0);
                engine.segment.push_write(0, Some(0), first.reply, None);
                resume_unwind(Box::new("epoch dies"));
            })
        }));
        assert!(died.is_err());
        {
            let engine = shared
                .engine
                .lock()
                .expect("not poisoned: the leader cleaned up");
            assert!(engine.epoch.is_empty());
            assert!(engine.segment.is_empty() && engine.segment.writes.is_empty());
            assert!(engine.segment.overlay.is_empty());
        }
        // The next leader — this same connection — finds nothing of it, and
        // every one of the four requests has its (typed) answer.
        queue_put(&mut unreleased, 4).expect("room");
        drop(unreleased);
        let got = answers(&peer);
        assert_eq!(got.len(), 5);
        for (key, (token, resp)) in got.iter().enumerate().take(4) {
            assert_eq!(*token, key as u64);
            assert!(matches!(resp, Response::Unavailable(_)), "{resp:?}");
        }
        assert_eq!(got[4], (4, Response::Done));
        let dict = read_locked(&shared.dict);
        assert_eq!((dict.len(), dict.get(&4)), (1, Some(4)));
    }

    /// Eight connections race to lead on one `Shared`. Whoever wins, every `release` returns with its own ring
    /// answered and written, and the answers are those of one serial
    /// execution in `seq` order.
    #[test]
    fn racing_leaders_answer_everything_before_release_returns() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 200;
        let server = serve_with(bounded(4));
        let shared = &server.shared;
        let start = std::sync::Barrier::new(THREADS as usize);
        let mut log: Vec<(u64, Request, Response)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        let mut log = Vec::new();
                        let mut unreleased = Unreleased::new(shared, Vec::new());
                        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                        start.wait();
                        for round in 0..ROUNDS {
                            let mut sent = Vec::new();
                            // One to three requests a round, on sixteen keys
                            // every thread fights over, and `LEN`.
                            for i in 0..=(round + t) % 3 {
                                state = state
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                let key = (state >> 33) % 16;
                                let req = match (state >> 40) % 4 {
                                    0 => Request::Put {
                                        key,
                                        value: t << 32 | round << 2 | i,
                                    },
                                    1 => Request::Del { key },
                                    2 => Request::Get { key },
                                    _ => Request::Len,
                                };
                                let n = unreleased.push(round).expect("a Vec takes every write");
                                // A barrier goes to its own queue, so a
                                // drain that was not a prefix of the
                                // arrival order would show in its count.
                                let queue = match req {
                                    Request::Len => shared.barrier_queue(),
                                    _ => shared.shard_queue(key),
                                };
                                let seq = unreleased
                                    .enqueue(queue, n, req.clone(), None)
                                    .expect("queue_bound is far away");
                                sent.push((seq, req));
                            }
                            unreleased.release();
                            assert!(locked(&unreleased.conn).cells.is_empty());
                            let got = answers(&unreleased.sink);
                            unreleased.sink.clear();
                            assert_eq!(got.len(), sent.len(), "thread {t} round {round}");
                            for ((seq, req), (token, resp)) in sent.into_iter().zip(got) {
                                assert_eq!(token, round);
                                log.push((seq, req, resp));
                            }
                        }
                        log
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("leader"))
                .collect()
        });
        log.sort_by_key(|(seq, ..)| *seq);
        let mut oracle = BTreeMap::new();
        for (at, (seq, req, resp)) in log.iter().enumerate() {
            assert_eq!(*seq, at as u64, "stamps are dense");
            let want = match *req {
                Request::Put { key, value } => {
                    oracle.insert(key, value);
                    Response::Done
                }
                Request::Del { key } => {
                    oracle.remove(&key);
                    Response::Done
                }
                Request::Get { key } => match oracle.get(&key) {
                    Some(&v) => Response::Value(v),
                    None => Response::NotFound,
                },
                Request::Len => Response::Count(oracle.len() as u64),
                _ => panic!("no other request was sent, got {req:?}"),
            };
            assert_eq!(*resp, want, "seq {seq}: {req:?}");
        }
        let (epochs, tickets) = server.epoch_stats();
        assert_eq!(tickets, log.len() as u64);
        assert!(
            epochs <= THREADS * ROUNDS,
            "{epochs} non-empty epochs for {} releases",
            THREADS * ROUNDS
        );
        let dict = read_locked(&shared.dict);
        let served: Vec<(u64, u64)> = (0..16).filter_map(|k| Some((k, dict.get(&k)?))).collect();
        assert_eq!(served, oracle.into_iter().collect::<Vec<_>>());
    }

    /// A peer that never stops sending does not hold `shutdown` up: once the
    /// flag is set its connection reads no more, answers what it parsed and
    /// ends, so `shutdown` returns within `READ_POLL` + `write_timeout`.
    /// Back-to-back PINGs never let a read time out, so noticing the flag
    /// cannot wait for one.
    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the wall clock bounds the streaming peer and times `shutdown`; the server under test reads none"
    )]
    fn shutdown_returns_within_read_poll_and_write_timeout_while_a_peer_streams() {
        use std::time::Instant;
        let mut server = serve();
        let mut client = crate::Client::connect(server.addr()).expect("connect");
        let answered = Arc::new(AtomicU64::new(0));
        let streaming = {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                // Bounded, so that a server which waits for the peer to stop
                // fails the assertion below instead of hanging the test.
                let until = Instant::now() + Duration::from_secs(10);
                while Instant::now() < until {
                    for _ in 0..64 {
                        if client.send(&Request::Ping).is_err() {
                            return;
                        }
                    }
                    if client.flush().is_err() {
                        return;
                    }
                    for _ in 0..64 {
                        match client.recv() {
                            Ok(Response::Done) => answered.fetch_add(1, Ordering::Relaxed),
                            _ => return,
                        };
                    }
                }
            })
        };
        while answered.load(Ordering::Relaxed) < 4_096 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        streaming
            .join()
            .expect("the client ends when the server closes");
        let bound = READ_POLL + server.shared.cfg.write_timeout;
        assert!(
            took <= bound,
            "shutdown took {took:?} against a streaming peer (bound {bound:?}, {} PINGs answered)",
            answered.load(Ordering::Relaxed)
        );
    }

    /// Shutdown leads the closing epoch itself, so
    /// tickets a connection has parsed but not yet released are answered by
    /// it, and whatever arrives afterwards is refused typed.
    #[test]
    fn shutdown_answers_tickets_that_were_parsed_but_not_released() {
        let mut server = serve();
        let shared = Arc::clone(&server.shared);
        let mut peer = Vec::new();
        let mut unreleased = Unreleased::new(&shared, &mut peer);
        for key in 0..5 {
            queue_put(&mut unreleased, key).expect("room");
        }
        server.shutdown();
        assert_eq!(server.epoch_stats(), (1, 5));
        assert!(
            locked(&unreleased.conn)
                .cells
                .iter()
                .all(|(_, resp)| *resp == Some(Response::Done)),
            "the closing epoch answered what was queued"
        );
        queue_put(&mut unreleased, 5).expect("room");
        drop(unreleased);
        let got = answers(&peer);
        let want: Vec<(u64, Response)> = (0..5).map(|key| (key, Response::Done)).collect();
        assert_eq!(got[..5], want);
        assert!(
            matches!(got[5..], [(5, Response::Unavailable(_))]),
            "{got:?}"
        );
        assert_eq!(read_locked(&shared.dict).len(), 5);
    }
}
