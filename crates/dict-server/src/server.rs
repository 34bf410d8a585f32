//! The TCP front-end: thread-per-connection framing on `std::net` around a
//! **work-conserving epoch group-commit pipeline**.
//!
//! # Architecture
//!
//! ```text
//! acceptor threads ──▶ per-connection reader ──▶ bounded per-shard queues
//!   (one listener,        (parse every buffered      (seq-stamped tickets,
//!    N acceptors)          frame, route by shard,     shed when full)
//!                          release before blocking)        │
//!                                                          ▼ epoch boundary
//! per-connection writer ◀── completion ring ◀── engine thread (drain all
//!   (pops the filled prefix,  (one per connection,  queues, merge by seq,
//!    flushes before parking)   one cell per request) segment walk, apply_batch)
//! ```
//!
//! ## The completion ring
//!
//! Each connection owns one `Conn`: a mutex over a `ConnState` — a
//! `VecDeque` of at most `inflight_bound` cells `(token, Option<Response>)`
//! in arrival order, plus `base`, the request number of the head cell — and
//! two condvars. The reader appends an empty cell per frame and parks on
//! `space` only when `inflight_bound` cells are outstanding; a `Ticket`
//! carries `(Arc<Conn>, n)`; reader shed, inline admin and the engine all
//! answer through one `Conn::fill`; the writer pops the whole filled
//! prefix under one lock, encodes it into its `BufWriter`, and flushes only
//! before it parks on `filled`. Responses therefore leave in request order
//! by construction (only the head is ever popped), and a request costs no
//! allocation, no sync object and no channel hop of its own.
//!
//! **A wake happens only when someone is parked.** `fill` notifies only if
//! its cell is the head *and* the writer has recorded that it is parked.
//! The wake cannot be lost: the writer sets that flag and re-checks the
//! head under the same lock `fill` takes, so a `fill` either runs before
//! the re-check (the writer sees the response and does not park) or after
//! the flag is set (it notifies). The reader's `space` wait is the mirror
//! image, against the writer's pop.
//!
//! ## What closes an epoch
//!
//! No timer does. The engine sleeps until some reader *releases* the
//! tickets it has queued, then drains *every* queue; whatever is released
//! while it is busy is the next epoch. An idle server answers a lone
//! request at once, and a loaded one commits in groups that follow the
//! load.
//!
//! **The release rule: a reader never blocks while holding unreleased
//! tickets.** A reader parses every frame already in its buffer and queues
//! them without waking the engine; it releases (one `notify`) only
//!
//! - before a `read` that reaches the socket — the buffer is short of the
//!   next prefix or body, so the peer decides how long that read takes;
//! - before it parks on a full ring (`inflight_bound` cells outstanding) —
//!   the writer it would wait for may itself be waiting on one of those
//!   tickets;
//! - when it holds `epoch_ops` tickets, the one pacing bound;
//! - on every way out of the reader, unwinding included (a drop guard).
//!
//! That gives liveness (a queued ticket is released before its connection
//! can wait on anything) and batching (a pipelined burst that arrived
//! together is applied together, in one `multi_apply`). The rule keys on a
//! property of the input — which bytes have already arrived — not on a
//! clock or a setting, so there is no idle-latency/throughput knob: no
//! trade is left to make. The writer mirrors it, flushing its buffer only
//! before it would park.
//!
//! The engine merges the drained tickets by their global arrival sequence
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
//! Neither argument mentions *when* an epoch closes, so neither changed
//! when the timer went away.
//!
//! *Correctness*: no response is issued until the engine fills its cell, so
//! every operation in an epoch is concurrent in real time and any single
//! serial order is a valid linearization; the engine's order is global
//! arrival (seq) order, which also embeds each connection's program order,
//! so pipelined streams read their own writes (the oracle battery in
//! `tests/server_protocol.rs` pins this against `BTreeMap`).
//!
//! *History independence*: the engine only ever touches the dictionary
//! through `multi_get`/`multi_apply`/`bulk_load`, and `multi_apply` applies
//! each shard's share of a batch in arrival order, so the layout is
//! invariant under batch partitioning (pinned in `tests/determinism.rs`).
//! Scheduling decides only *where epoch boundaries fall*, i.e. how the one
//! arrival-ordered stream is partitioned into batches — exactly the degree
//! of freedom the layout is invariant under — so client count, how clients
//! cut their sends, and `epoch_ops` cannot leak into the at-rest bytes. The
//! determinism battery (`tests/server_determinism.rs`) verifies the flushed
//! image byte-for-byte against a single-threaded rebuild of the same
//! contents: after a concurrent multi-client run, and at the two extreme
//! partitions (every epoch one operation; one burst in few, full epochs).
//!
//! *Degradation*: a quarantined shard refuses typed — reads and writes
//! that route to it answer `DEGRADED`, navigation that it could own goes
//! through [`ShardedDict::try_successor`] and
//! [`ShardedDict::try_predecessor`], and `FLUSH`
//! refuses rather than persist partial contents. Never a silent wrong
//! answer.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use anti_persistence::dict::{DictBuilder, DictConfig, DynDict, PersistentDict, ServerConfig};
use hi_common::batch::BatchOp;
use hi_common::sync::locked;
use hi_common::traits::Dictionary;
use shard::{ShardError, ShardRouter, ShardedDict};

use crate::protocol::{decode_request, encode_response_into, envelope_token, Request, Response};

/// The concrete dictionary this front-end serves.
pub type ServedDict = ShardedDict<DynDict<u64, u64>>;

/// How long a blocked socket read waits before re-checking the shutdown
/// flag. Latency of *shutdown*, not of requests — reads that have data
/// return immediately.
const READ_POLL: Duration = Duration::from_millis(25);

/// Hard bound on distinct HELLO-bound clients with live dedup windows.
/// Beyond it the least-recently-used client's window is evicted whole —
/// a count-based bound, so the registry can never grow with client churn.
const MAX_DEDUP_CLIENTS: usize = 1024;

/// Everything the server hands to [`Server::spawn`] besides the address.
pub struct ServerOptions {
    /// Dictionary + epoch/backpressure configuration (validated up front;
    /// see `DictConfig::validate`).
    pub config: DictConfig,
    /// When present, `FLUSH` canonicalizes the served contents into this
    /// store; when `None`, `FLUSH` answers `UNAVAILABLE`. Passing the
    /// dictionary in (rather than a path) lets crash batteries arm a
    /// `block_store::FaultPlan` before the server starts.
    pub persist: Option<PersistentDict>,
}

/// One connection's in-flight requests, oldest first. Plain data — no
/// socket, no lock, no thread — and every transition is a method that
/// *returns* whether the other half has to be woken, so the type that runs
/// is the type a model checker can drive step by step.
#[derive(Default)]
struct ConnState {
    /// Most cells that may be outstanding (`inflight_bound`).
    bound: usize,
    /// Request number of the head cell: cell `n` sits at index `n - base`.
    base: u64,
    /// `(token, response)` per request, in arrival order; a cell is filled
    /// exactly once, by whichever stage answers, and only the head leaves.
    cells: VecDeque<(u64, Option<Response>)>,
    /// The writer has found its head cell unfilled and is waiting on
    /// `filled`. Set by the writer, taken by whoever wakes it.
    writer_parked: bool,
    /// The reader has found `bound` cells outstanding and is waiting on
    /// `space`. Set by the reader, taken by whoever wakes it.
    reader_parked: bool,
    /// The reader has exited: no cell will be appended again.
    reader_gone: bool,
    /// The writer has exited: no cell will be emitted again, so appends
    /// refuse and fills are dropped.
    writer_gone: bool,
}

/// What [`ConnState::push`] did with a frame.
#[derive(Debug, PartialEq, Eq)]
enum Push {
    /// Appended as request number `n`.
    Cell(u64),
    /// `bound` cells are outstanding: release, then park on `space`.
    Full,
    /// The writer is gone; the reader has nothing left to do.
    Closed,
}

impl ConnState {
    fn new(bound: usize) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }

    fn push(&mut self, token: u64) -> Push {
        if self.writer_gone {
            return Push::Closed;
        }
        if self.cells.len() >= self.bound {
            return Push::Full;
        }
        self.cells.push_back((token, None));
        Push::Cell(self.base + self.cells.len() as u64 - 1)
    }

    /// Stores the answer to request `n`; returns whether the writer must be
    /// woken — only when this cell is the head and the writer is parked. A
    /// fill after the writer has exited finds no cell and is dropped.
    fn fill(&mut self, n: u64, resp: Response) -> bool {
        let Some(at) = n.checked_sub(self.base) else {
            return false;
        };
        let Some(cell) = self.cells.get_mut(at as usize) else {
            return false;
        };
        debug_assert!(cell.1.is_none(), "request {n} answered twice");
        cell.1 = Some(resp);
        at == 0 && std::mem::take(&mut self.writer_parked)
    }

    /// Moves the filled prefix to `out` in request order; returns whether
    /// the reader must be woken (it was parked on a full ring and a cell
    /// has come free).
    fn pop_filled(&mut self, out: &mut Vec<(u64, Response)>) -> bool {
        let before = self.cells.len();
        while matches!(self.cells.front(), Some((_, Some(_)))) {
            if let Some((token, Some(resp))) = self.cells.pop_front() {
                out.push((token, resp));
            }
        }
        self.base += (before - self.cells.len()) as u64;
        self.cells.len() < before && std::mem::take(&mut self.reader_parked)
    }

    /// Nothing is queued and nothing will be: the writer may exit.
    fn is_over(&self) -> bool {
        self.reader_gone && self.cells.is_empty()
    }
}

/// One connection's completion ring: the state under one lock, `filled`
/// for the writer to wait on its head cell, `space` for the reader to wait
/// on a free one.
struct Conn {
    state: Mutex<ConnState>,
    filled: Condvar,
    space: Condvar,
    /// How many times `filled` has been notified by a `fill`.
    #[cfg(test)]
    fill_wakes: AtomicU64,
}

impl Conn {
    fn new(inflight_bound: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(ConnState::new(inflight_bound)),
            filled: Condvar::new(),
            space: Condvar::new(),
            #[cfg(test)]
            fill_wakes: AtomicU64::new(0),
        })
    }

    /// Reader side: appends an empty cell for a frame carrying `token` and
    /// returns its request number, or `None` once the writer is gone. Parks
    /// only on a full ring, and runs `release` before each wait — the writer
    /// it waits for may be waiting on one of this reader's own tickets.
    fn push(&self, token: u64, mut release: impl FnMut()) -> Option<u64> {
        let mut st = locked(&self.state);
        loop {
            match st.push(token) {
                Push::Cell(n) => return Some(n),
                Push::Closed => return None,
                Push::Full => {}
            }
            release();
            st.reader_parked = true;
            st = self.space.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Answers request `n` — the one way a response enters the ring, for
    /// reader shed, inline admin and the engine alike. The writer is
    /// notified only if it is parked on exactly this cell; the flag is read
    /// under the lock the writer set it under, so the wake cannot be lost.
    fn fill(&self, n: u64, resp: Response) {
        let wake = locked(&self.state).fill(n, resp);
        if wake {
            #[cfg(test)]
            self.fill_wakes.fetch_add(1, Ordering::Relaxed);
            self.filled.notify_one();
        }
    }

    /// Writer side: moves the filled prefix to `out`. With `park`, waits
    /// until there is one; `out` is then left empty only when the
    /// connection is over (reader gone, nothing queued).
    fn pop_filled(&self, out: &mut Vec<(u64, Response)>, park: bool) {
        let mut st = locked(&self.state);
        loop {
            if st.pop_filled(out) {
                drop(st);
                self.space.notify_one();
                return;
            }
            if !out.is_empty() || !park || st.is_over() {
                return;
            }
            st.writer_parked = true;
            st = self.filled.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The reader has exited (any way out, unwinding included): a writer
    /// parked on an empty ring has nothing left to wait for.
    fn reader_gone(&self) {
        let mut st = locked(&self.state);
        st.reader_gone = true;
        st.writer_parked = false;
        drop(st);
        self.filled.notify_one();
    }

    /// The writer has exited (any way out, unwinding included): whatever is
    /// queued can no longer be emitted, later fills are dropped, and a
    /// reader parked on a full ring is let go.
    fn writer_gone(&self) {
        let mut st = locked(&self.state);
        st.writer_gone = true;
        st.reader_parked = false;
        st.cells.clear();
        drop(st);
        self.space.notify_one();
    }
}

/// Runs one half of a connection, contained and announced: a panic in
/// `half` ends this half only, and on every way out — the unwind included
/// — `gone` tells the ring, which lets the other half drain out. The
/// engine and every other connection keep serving.
fn run_half(gone: impl FnOnce(), half: impl FnOnce()) {
    // Bound, not discarded: a panic's payload is dropped after `gone` runs.
    let _contained = catch_unwind(AssertUnwindSafe(half));
    gone();
}

/// Where one request's answer goes: cell `n` of its connection's ring.
struct Reply {
    conn: Arc<Conn>,
    n: u64,
}

impl Reply {
    fn fill(&self, resp: Response) {
        self.conn.fill(self.n, resp);
    }
}

/// A queued operation: its global arrival sequence number, the request,
/// the ring cell its connection's writer will emit it from, and — for
/// mutating requests from a HELLO-bound client — the `(client, token)`
/// idempotency identity the engine dedups on.
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
    /// Set by the engine's final drain: no ticket enqueued after this can
    /// ever be drained, so enqueue refuses instead.
    closed: bool,
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
    /// fixed for the server's lifetime), so readers route without the
    /// service lock the engine holds for the whole of an epoch.
    router: ShardRouter,
    seq: AtomicU64,
    /// Whether a reader has released tickets since the engine last drained
    /// — the one condition the engine sleeps on (with `wake`).
    released: Mutex<bool>,
    wake: Condvar,
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
    /// full or closed. Returns whether a ticket was queued — the reader
    /// then owes the engine a release (see [`Unreleased::enqueue`]).
    fn enqueue(&self, queue: usize, req: Request, reply: Reply, idem: Option<Idem>) -> bool {
        let mut q = locked(&self.queues[queue]);
        if q.closed {
            reply.fill(Response::Unavailable("server is shutting down".into()));
            return false;
        }
        if q.ops.len() >= self.cfg.queue_bound {
            reply.fill(Response::Overloaded);
            return false;
        }
        // The global sequence is drawn under the queue lock, so each
        // queue's tickets are seq-sorted and the engine's merge by seq
        // reconstructs one total arrival order.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        q.ops.push_back(Ticket {
            seq,
            req,
            reply,
            idem,
        });
        true
    }
}

/// The tickets one reader has queued but not yet released to the engine.
///
/// The release rule: **a reader never blocks while holding unreleased
/// tickets.** It releases (one `notify`) before a socket read, before it
/// parks on a full completion ring, when `epoch_ops` tickets are held, and
/// — through `Drop` — on every exit path, unwinding included.
struct Unreleased<'a> {
    shared: &'a Shared,
    held: usize,
}

impl Unreleased<'_> {
    fn release(&mut self) {
        if self.held == 0 {
            return;
        }
        self.held = 0;
        *locked(&self.shared.released) = true;
        self.shared.wake.notify_one();
    }

    /// [`Shared::enqueue`], counting the ticket if one was queued and
    /// releasing once the op budget is held.
    fn enqueue(&mut self, queue: usize, req: Request, reply: Reply, idem: Option<Idem>) {
        if self.shared.enqueue(queue, req, reply, idem) {
            self.held += 1;
            if self.held >= self.shared.cfg.epoch_ops {
                self.release();
            }
        }
    }
}

impl Drop for Unreleased<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// A handle to a running server: its bound address and the threads behind
/// it. [`Server::shutdown`] (also run on drop) drains queued work, answers
/// every in-flight request, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine: Option<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), validates the
    /// configuration, builds the sharded dictionary, and spawns the accept
    /// loop and the epoch engine.
    pub fn spawn(addr: impl ToSocketAddrs, opts: ServerOptions) -> io::Result<Server> {
        opts.config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let cfg = opts.config.server;
        let dict: ServedDict = DictBuilder::from_config(opts.config)
            .try_build_sharded()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
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
            released: Mutex::new(false),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            tickets: AtomicU64::new(0),
            cfg,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let engine = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || engine_loop(&shared))
        };
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
            engine: Some(engine),
            acceptors,
            conns,
            stopped: false,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(epochs, tickets)`: how many non-empty epochs the engine has
    /// processed and how many tickets they held in total — the observable
    /// form of the batching the release rule produces.
    pub fn epoch_stats(&self) -> (u64, u64) {
        (
            self.shared.epochs.load(Ordering::Relaxed),
            self.shared.tickets.load(Ordering::Relaxed),
        )
    }

    /// How many connection threads (a reader and a writer per connection)
    /// the server still holds a handle to. Finished ones are reaped each
    /// time a connection is accepted, so this follows the live connections,
    /// not the connections ever made. RAM-only, never persisted.
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
        // Stored under the engine's mutex: the engine tests the flag under
        // it before every untimed wait, so the notify cannot fall between
        // the test and the wait.
        {
            let _released = locked(&self.shared.released);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.wake.notify_one();
        // One nudge connection per acceptor unblocks every accept() call.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
        let handles: Vec<JoinHandle<()>> = locked(&self.conns).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Takes the persistence layer back out of a stopped server — the
    /// crash batteries reopen the store to assert whole-old/whole-new. Its
    /// store holds the last `FLUSH`; its in-RAM dictionary is whatever it
    /// was at spawn (the server never served from it).
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
// Accept loop and per-connection threads
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
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                // At most `inflight_bound` cells: once that many responses
                // are outstanding the *reader* parks admitting new frames
                // (its TCP window fills and the slow client backpressures
                // itself). The engine fills cells and never waits on one.
                let conn = Conn::new(shared.cfg.inflight_bound);
                let write_timeout = shared.cfg.write_timeout;
                let reader = {
                    let shared = Arc::clone(shared);
                    let conn = Arc::clone(&conn);
                    std::thread::spawn(move || {
                        run_half(
                            || conn.reader_gone(),
                            || connection_reader(&shared, stream, &conn),
                        );
                    })
                };
                let writer = std::thread::spawn(move || {
                    run_half(
                        || conn.writer_gone(),
                        || connection_writer(write_half, &conn, write_timeout),
                    );
                });
                let mut guard = locked(conns);
                // Reap the halves of connections that have ended, so the
                // list follows the live connections and not their churn.
                let mut at = 0;
                while at < guard.len() {
                    if guard[at].is_finished() {
                        let _ = guard.swap_remove(at).join();
                    } else {
                        at += 1;
                    }
                }
                guard.push(reader);
                guard.push(writer);
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
    /// Hard socket error.
    Dead,
}

/// Fills `buf` completely, tolerating read timeouts (used to poll the
/// shutdown flag) and preserving partial progress across them. Releases
/// the reader's tickets first unless the bytes are already buffered — the
/// only case in which no `read` reaches the socket and nothing can block.
/// `idle` counts consecutive empty read polls across calls — any received
/// byte resets it, `budget` exhausts it. The reap decision is therefore a
/// *count* of poll intervals, not a wall-clock read: determinism-hygiene
/// keeps clocks out of the reaper the same way it keeps them out of the
/// retry budget.
fn fill_buf(
    stream: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    unreleased: &mut Unreleased<'_>,
    at_boundary: bool,
    idle: &mut usize,
    budget: usize,
) -> Wire {
    if stream.buffer().len() < buf.len() {
        unreleased.release();
    }
    let shared = unreleased.shared;
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
    stream: &mut BufReader<TcpStream>,
    body: &mut Vec<u8>,
    unreleased: &mut Unreleased<'_>,
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

fn connection_reader(shared: &Arc<Shared>, stream: TcpStream, conn: &Arc<Conn>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut stream = BufReader::new(stream);
    let mut body = Vec::new();
    let mut unreleased = Unreleased { shared, held: 0 };
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
        let Some(n) = conn.push(token, || unreleased.release()) else {
            // Writer died (peer stopped reading); no point parsing more.
            return;
        };
        let req = match parsed {
            Ok(req) => req,
            Err(why) => {
                // Refuse, then close: after an oversized prefix or a
                // checksum mismatch the stream offset can no longer be
                // trusted.
                conn.fill(n, Response::BadRequest(why));
                return;
            }
        };
        // Mutating requests from a HELLO-bound client with a nonzero token
        // carry an idempotency identity the engine dedups on.
        let idem = match (client, token, &req) {
            (0, _, _) | (_, 0, _) => None,
            (c, t, Request::Put { .. } | Request::Del { .. } | Request::Flush) => Some((c, t)),
            _ => None,
        };
        let reply = || Reply {
            conn: Arc::clone(conn),
            n,
        };
        let inline = match req {
            // Data operations ride the epoch pipeline, routed by shard.
            Request::Get { key } | Request::Put { key, .. } | Request::Del { key } => {
                unreleased.enqueue(shared.shard_queue(key), req, reply(), idem);
                continue;
            }
            // Order-sensitive operations are barriers in the engine.
            Request::Succ { .. } | Request::Pred { .. } | Request::Len | Request::Flush => {
                unreleased.enqueue(shared.barrier_queue(), req, reply(), idem);
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
            Request::Quarantine { shard, reason } => {
                let dict = read_locked(&shared.dict);
                if (shard as usize) < dict.shard_count() {
                    dict.quarantine_shard(shard as usize, reason);
                    Response::Done
                } else {
                    Response::BadRequest(format!(
                        "shard {shard} out of range ({} shards)",
                        dict.shard_count()
                    ))
                }
            }
            Request::Restore { shard } => {
                let dict = read_locked(&shared.dict);
                if (shard as usize) < dict.shard_count() {
                    dict.restore_shard(shard as usize);
                    Response::Done
                } else {
                    Response::BadRequest(format!(
                        "shard {shard} out of range ({} shards)",
                        dict.shard_count()
                    ))
                }
            }
            Request::Ping => Response::Done,
            Request::Hello { client: id } => {
                client = id;
                Response::Done
            }
        };
        conn.fill(n, inline);
    }
}

fn connection_writer(stream: TcpStream, conn: &Conn, write_timeout: Duration) {
    // A peer that stops draining responses is shed after `write_timeout`
    // (the write errors, the writer exits, the reader's next append is
    // refused): slow clients cost themselves the connection, never an
    // engine stall.
    let _ = stream.set_write_timeout(Some(write_timeout));
    let mut out = BufWriter::new(stream);
    let mut ready: Vec<(u64, Response)> = Vec::new();
    let mut frame = Vec::new();
    loop {
        // The mirror of the reader's release rule: every response already
        // filled behind the head shares one buffer, flushed only before the
        // writer would park on an unfilled (or absent) head cell.
        conn.pop_filled(&mut ready, false);
        if ready.is_empty() {
            if out.flush().is_err() {
                return;
            }
            conn.pop_filled(&mut ready, true);
            if ready.is_empty() {
                return;
            }
        }
        for (token, resp) in ready.drain(..) {
            frame.clear();
            encode_response_into(&mut frame, token, &resp);
            if out.write_all(&frame).is_err() {
                return;
            }
        }
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

/// The engine-owned exactly-once ledger: per HELLO-bound client, the last
/// `dedup_window` successfully-applied mutating tokens and their retained
/// responses. Owned by the engine thread alone (no lock), consulted before
/// a mutating ticket joins a segment and appended to when its write
/// commits healthy.
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

fn engine_loop(shared: &Arc<Shared>) {
    let mut dedup = DedupRegistry::new(shared.cfg.dedup_window);
    // Engine-owned scratch, emptied by every epoch and reused by the next.
    let mut epoch: Vec<Ticket> = Vec::new();
    let mut segment = Segment::default();
    loop {
        let shutting = wait_for_epoch(shared);
        run_epoch(shared, shutting, &mut epoch, &mut segment, &mut dedup);
        if shutting {
            // Final sweep: `closed` is now set under every queue lock, so
            // nothing can slip in after this drain.
            run_epoch(shared, true, &mut epoch, &mut segment, &mut dedup);
            return;
        }
    }
}

/// Drains one epoch and, if it holds anything, counts and applies it.
fn run_epoch(
    shared: &Arc<Shared>,
    closing: bool,
    epoch: &mut Vec<Ticket>,
    segment: &mut Segment,
    dedup: &mut DedupRegistry,
) {
    drain_epoch(shared, closing, epoch);
    if epoch.is_empty() {
        return;
    }
    shared.epochs.fetch_add(1, Ordering::Relaxed);
    shared
        .tickets
        .fetch_add(epoch.len() as u64, Ordering::Relaxed);
    process_epoch(shared, epoch, segment, dedup);
}

/// Blocks until a reader has released tickets or shutdown begins — never
/// on a deadline. Whatever is released while the engine is busy with one
/// epoch is the next epoch, so the batch size follows the load. Returns
/// whether the server is shutting down.
fn wait_for_epoch(shared: &Arc<Shared>) -> bool {
    let mut released = locked(&shared.released);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return true;
        }
        if std::mem::take(&mut *released) {
            return false;
        }
        released = shared
            .wake
            .wait(released)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Drains every queue into `epoch` (empty on entry) and merges the tickets
/// into one global arrival-ordered stream. During shutdown the queues are closed under
/// their locks first, so no later enqueue can be stranded unanswered.
///
/// Every queue lock is held at once, so the epoch is a *prefix* of the
/// arrival order: a stamp is drawn under a queue lock, hence no ticket with
/// a smaller stamp than a drained one can still be on its way into a queue
/// already passed. Draining the queues one lock at a time let a reader slip
/// a `PUT` into a shard queue the engine had just emptied and the `LEN`
/// behind it into the barrier queue it had not reached yet, and the barrier
/// then ran an epoch before the write it follows. (`enqueue` takes one queue
/// lock and nothing else takes two, so holding all of them cannot deadlock.)
fn drain_epoch(shared: &Arc<Shared>, closing: bool, epoch: &mut Vec<Ticket>) {
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
    /// engine holds the dictionary's write lock for the whole epoch, so
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
fn process_epoch(
    shared: &Arc<Shared>,
    epoch: &mut Vec<Ticket>,
    segment: &mut Segment,
    dedup: &mut DedupRegistry,
) {
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
        match ticket.req {
            // A read on a quarantined shard refuses before joining the
            // segment — `multi_get`'s silent omission never becomes a
            // silent NOT_FOUND.
            Request::Get { key } => match refusal(&segment.health, &dict, key) {
                Some(resp) => ticket.reply.fill(resp),
                None => segment.push_read(key, ticket.reply),
            },
            Request::Put { key, value } => match refusal(&segment.health, &dict, key) {
                Some(resp) => ticket.reply.fill(resp),
                None => segment.push_write(key, Some(value), ticket.reply, ticket.idem),
            },
            Request::Del { key } => match refusal(&segment.health, &dict, key) {
                Some(resp) => ticket.reply.fill(resp),
                None => segment.push_write(key, None, ticket.reply, ticket.idem),
            },
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
        // Admin and data ops never reach the barrier path (readers answer
        // admin inline and route data ops by shard); refuse defensively
        // instead of panicking inside the engine.
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
    // The shard merge is consumed once, by the store's record encoder.
    match p.flush_from(dict) {
        Ok(generation) => Response::Generation(generation),
        Err(e) => Response::Unavailable(format!("flush failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve() -> Server {
        let config = DictConfig {
            seed: 0xD1C7,
            shards: 4,
            ..DictConfig::default()
        };
        let opts = ServerOptions {
            config,
            persist: None,
        };
        Server::spawn("127.0.0.1:0", opts).expect("bind loopback")
    }

    #[test]
    fn readers_route_with_a_copy_of_the_dictionary_router() {
        let server = serve();
        let shared = &server.shared;
        assert_eq!(shared.router, *read_locked(&shared.dict).router());
    }

    // The ring, with no socket anywhere: the tests play reader, engine and
    // writer themselves. Where a test needs another thread to have parked,
    // it waits for the flag that thread sets under the ring's lock — a
    // condition, not a sleep.

    fn wait_until(conn: &Conn, parked: impl Fn(&ConnState) -> bool) {
        while !parked(&locked(&conn.state)) {
            std::thread::yield_now();
        }
    }

    fn fill_wakes(conn: &Conn) -> u64 {
        conn.fill_wakes.load(Ordering::Relaxed)
    }

    /// Pops with `park` until the connection is over; what a writer emits.
    fn drain_ring(conn: &Conn) -> Vec<(u64, Response)> {
        let mut emitted = Vec::new();
        let mut ready = Vec::new();
        loop {
            conn.pop_filled(&mut ready, true);
            if ready.is_empty() {
                return emitted;
            }
            emitted.append(&mut ready);
        }
    }

    #[test]
    fn cells_filled_out_of_order_are_emitted_in_order() {
        let mut ring = ConnState::new(8);
        for token in 10..14 {
            assert_eq!(ring.push(token), Push::Cell(token - 10));
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
        assert_eq!(ring.push(14), Push::Cell(4));
        ring.fill(4, Response::Done);
        ring.fill(3, Response::NotFound);
        out.clear();
        ring.pop_filled(&mut out);
        assert_eq!(out, [(13, Response::NotFound), (14, Response::Done)]);
    }

    #[test]
    fn only_a_fill_of_the_head_with_the_writer_parked_wakes() {
        let conn = Conn::new(8);
        for token in 0..4 {
            conn.push(token, || ()).expect("room");
        }
        // Head, writer not parked (it is encoding, or flushing).
        conn.fill(0, Response::Done);
        assert_eq!(fill_wakes(&conn), 0);
        let mut out = Vec::new();
        conn.pop_filled(&mut out, false);
        assert_eq!(out.len(), 1);
        // Writer parked, but on cell 1: cells 3 and 2 are not its business.
        locked(&conn.state).writer_parked = true;
        conn.fill(3, Response::Done);
        conn.fill(2, Response::Done);
        assert_eq!(fill_wakes(&conn), 0);
        assert!(locked(&conn.state).writer_parked);
        // The head, with the writer parked: the one wake.
        conn.fill(1, Response::Done);
        assert_eq!(fill_wakes(&conn), 1);
        assert!(
            !locked(&conn.state).writer_parked,
            "the waker takes the flag"
        );
    }

    #[test]
    fn a_parked_writer_is_woken_once_for_a_whole_burst() {
        let conn = Conn::new(8);
        let writer = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                conn.pop_filled(&mut out, true);
                out
            })
        };
        wait_until(&conn, |st| st.writer_parked);
        // Parked on an *empty* ring: appends alone do not wake it.
        for token in 0..3 {
            conn.push(token, || ()).expect("room");
        }
        conn.fill(2, Response::Value(2));
        conn.fill(1, Response::Value(1));
        assert_eq!(fill_wakes(&conn), 0);
        conn.fill(0, Response::Value(0));
        let out = writer.join().expect("writer");
        assert_eq!(
            out,
            [
                (0, Response::Value(0)),
                (1, Response::Value(1)),
                (2, Response::Value(2))
            ]
        );
        assert_eq!(fill_wakes(&conn), 1);
    }

    #[test]
    fn a_full_ring_releases_before_it_parks_and_its_own_head_unblocks_it() {
        // The deadlock the release rule exists to prevent: the reader waits
        // for room, the writer for the head cell, and the head's ticket sits
        // unreleased with the reader. Bounds 1 and 2 are the tight cases.
        for bound in [1u64, 2] {
            let conn = Conn::new(bound as usize);
            let released = Arc::new(AtomicBool::new(false));
            let reader = {
                let conn = Arc::clone(&conn);
                let released = Arc::clone(&released);
                std::thread::spawn(move || {
                    (0..=bound)
                        .map(|token| conn.push(token, || released.store(true, Ordering::SeqCst)))
                        .collect::<Vec<_>>()
                })
            };
            wait_until(&conn, |st| st.reader_parked);
            assert!(
                released.load(Ordering::SeqCst),
                "bound {bound}: parked holding unreleased tickets"
            );
            assert_eq!(locked(&conn.state).cells.len() as u64, bound);
            // The engine answers the head — one of this reader's own
            // tickets — and the writer emits it, which is the room.
            conn.fill(0, Response::Done);
            let mut out = Vec::new();
            conn.pop_filled(&mut out, true);
            assert_eq!(out, [(0, Response::Done)]);
            let numbers = reader.join().expect("reader");
            let want: Vec<Option<u64>> = (0..=bound).map(Some).collect();
            assert_eq!(numbers, want, "bound {bound}");
        }
    }

    #[test]
    fn an_append_with_room_neither_releases_nor_parks() {
        let conn = Conn::new(2);
        assert_eq!(
            conn.push(7, || panic!("released with room to spare")),
            Some(0)
        );
        assert!(!locked(&conn.state).reader_parked);
    }

    #[test]
    fn writer_gone_refuses_the_next_push_and_a_later_fill_is_harmless() {
        let conn = Conn::new(2);
        let reader = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || {
                (0..3)
                    .map(|token| conn.push(token, || ()))
                    .collect::<Vec<_>>()
            })
        };
        // The reader is parked on a full ring when the writer dies.
        wait_until(&conn, |st| st.reader_parked);
        conn.writer_gone();
        assert_eq!(
            reader.join().expect("reader"),
            [Some(0), Some(1), None],
            "the parked append is refused, and the reader exits on it"
        );
        assert_eq!(conn.push(9, || panic!("nothing to wait for")), None);
        // The engine still answers the tickets it holds: dropped, no wake.
        conn.fill(1, Response::Done);
        conn.fill(0, Response::Done);
        assert_eq!(fill_wakes(&conn), 0);
        let mut out = Vec::new();
        conn.pop_filled(&mut out, false);
        assert!(out.is_empty());
    }

    #[test]
    fn reader_gone_lets_the_writer_drain_what_is_queued_and_then_exit() {
        let conn = Conn::new(8);
        for token in 0..3 {
            conn.push(token, || ()).expect("room");
        }
        conn.fill(0, Response::Value(0));
        conn.reader_gone();
        let writer = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || drain_ring(&conn))
        };
        // Cell 0 leaves; cells 1 and 2 are queued with the engine, so the
        // writer waits for them rather than exit.
        wait_until(&conn, |st| st.writer_parked && st.base == 1);
        assert!(!writer.is_finished());
        conn.fill(2, Response::Value(2));
        conn.fill(1, Response::Value(1));
        assert_eq!(
            writer.join().expect("writer"),
            [
                (0, Response::Value(0)),
                (1, Response::Value(1)),
                (2, Response::Value(2))
            ]
        );
        // And a writer parked on an empty ring is let go by the exit itself.
        let conn = Conn::new(8);
        let writer = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || drain_ring(&conn))
        };
        wait_until(&conn, |st| st.writer_parked);
        conn.reader_gone();
        assert!(writer.join().expect("writer").is_empty());
    }

    /// Queues `PUT key → key` the way a reader does; `None` once the ring
    /// refuses the append.
    fn queue_put(conn: &Arc<Conn>, unreleased: &mut Unreleased<'_>, key: u64) -> Option<u64> {
        let n = conn.push(key, || unreleased.release())?;
        let reply = Reply {
            conn: Arc::clone(conn),
            n,
        };
        let queue = unreleased.shared.shard_queue(key);
        unreleased.enqueue(queue, Request::Put { key, value: key }, reply, None);
        Some(n)
    }

    #[test]
    fn a_reader_that_panics_still_has_its_tickets_applied_and_its_writer_exit() {
        // The real engine, no connection: the listener is never dialled.
        let server = serve();
        let shared = &server.shared;
        let conn = Conn::new(8);
        let writer = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || {
                let mut emitted = Vec::new();
                run_half(|| conn.writer_gone(), || emitted = drain_ring(&conn));
                emitted
            })
        };
        run_half(
            || conn.reader_gone(),
            || {
                let mut unreleased = Unreleased { shared, held: 0 };
                for key in 0..4 {
                    queue_put(&conn, &mut unreleased, key).expect("room");
                }
                // Dies holding four unreleased tickets (`resume_unwind`: a
                // panic without the hook's stderr report).
                std::panic::resume_unwind(Box::new("reader half dies"));
            },
        );
        let want: Vec<(u64, Response)> = (0..4).map(|key| (key, Response::Done)).collect();
        assert_eq!(writer.join().expect("writer"), want);
        let dict = read_locked(&shared.dict);
        for key in 0..4u64 {
            assert_eq!(dict.get(&key), Some(key));
        }
    }

    #[test]
    fn a_writer_that_panics_still_lets_its_reader_exit_and_its_tickets_apply() {
        let mut server = serve();
        let shared = Arc::clone(&server.shared);
        let conn = Conn::new(2);
        let reader = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || {
                let mut queued = 0u64;
                run_half(
                    || conn.reader_gone(),
                    || {
                        let mut unreleased = Unreleased {
                            shared: &shared,
                            held: 0,
                        };
                        while queue_put(&conn, &mut unreleased, queued).is_some() {
                            queued += 1;
                        }
                    },
                );
                queued
            })
        };
        run_half(
            || conn.writer_gone(),
            || {
                let mut out = Vec::new();
                conn.pop_filled(&mut out, true);
                assert_eq!(out.first(), Some(&(0, Response::Done)));
                std::panic::resume_unwind(Box::new("writer half dies"));
            },
        );
        // The reader's next append is refused and it leaves, releasing what
        // it had queued; the engine applies all of it, answered or not.
        let queued = reader.join().expect("reader");
        assert!(queued >= 1);
        server.shutdown();
        let dict = read_locked(&server.shared.dict);
        for key in 0..queued {
            assert_eq!(dict.get(&key), Some(key), "{queued} queued");
        }
        assert_eq!(dict.len() as u64, queued);
    }
}
