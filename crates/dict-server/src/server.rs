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
//! per-connection writer ◀── response slots ◀── engine thread (drain all
//!   (emits responses in      (one per request)    queues, merge by seq,
//!    arrival order, flushes                        segment walk, apply_batch)
//!    before blocking)
//! ```
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
//! - before a send into a full `inflight_bound` channel — the writer it
//!   would wait for may itself be waiting on one of those tickets;
//! - when it holds `epoch_ops` tickets, the one pacing bound;
//! - on every way out of the reader, unwinding included (a drop guard).
//!
//! That gives liveness (a queued ticket is released before its connection
//! can wait on anything) and batching (a pipelined burst that arrived
//! together is applied together, in one `multi_apply`). The rule keys on a
//! property of the input — which bytes have already arrived — not on a
//! clock or a setting, so there is no idle-latency/throughput knob: no
//! trade is left to make. The writer mirrors it, flushing its buffer only
//! before it would block.
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
//! *Correctness*: no response is issued until the engine fills its slot, so
//! every operation in an epoch is concurrent in real time and any single
//! serial order is a valid linearization; the engine's order is global
//! arrival (seq) order, which also embeds each connection's program order,
//! so pipelined streams read their own writes (the oracle battery in
//! `tests/server_protocol.rs` pins this against `BTreeMap`).
//!
//! *History independence*: the engine only ever touches the dictionary
//! through `multi_get`/`multi_apply`/`bulk_load` — the batch engine whose
//! layout is invariant under batch partitioning (PR 5's pinned property).
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
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use anti_persistence::dict::{DictBuilder, DictConfig, DynDict, PersistentDict, ServerConfig};
use hi_common::batch::BatchOp;
use hi_common::sync::locked;
use hi_common::traits::Dictionary;
use shard::{ShardError, ShardRouter, ShardedDict};

use crate::protocol::{
    decode_request, encode_response, envelope_token, write_frame, Request, Response,
};

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

/// One in-flight request's response cell: filled exactly once by whichever
/// stage answers (reader shed, inline admin, or the engine), awaited by the
/// connection's writer in arrival order.
struct Slot {
    resp: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            resp: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, resp: Response) {
        *locked(&self.resp) = Some(resp);
        self.ready.notify_all();
    }

    /// The response, if the slot is already filled — never blocks.
    fn try_take(&self) -> Option<Response> {
        locked(&self.resp).take()
    }

    fn wait(&self) -> Response {
        let mut guard = locked(&self.resp);
        loop {
            if let Some(resp) = guard.take() {
                return resp;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A queued operation: its global arrival sequence number, the request,
/// the response slot its connection's writer is waiting on, and — for
/// mutating requests from a HELLO-bound client — the `(client, token)`
/// idempotency identity the engine dedups on.
struct Ticket {
    seq: u64,
    req: Request,
    slot: Arc<Slot>,
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

    /// Stamps, bounds-checks and enqueues one operation; fills the slot
    /// immediately with the typed shed/refusal response when the queue is
    /// full or closed. Returns whether a ticket was queued — the reader
    /// then owes the engine a release (see [`Unreleased::enqueue`]).
    fn enqueue(&self, queue: usize, req: Request, slot: &Arc<Slot>, idem: Option<Idem>) -> bool {
        let mut q = locked(&self.queues[queue]);
        if q.closed {
            slot.fill(Response::Unavailable("server is shutting down".into()));
            return false;
        }
        if q.ops.len() >= self.cfg.queue_bound {
            slot.fill(Response::Overloaded);
            return false;
        }
        // The global sequence is drawn under the queue lock, so each
        // queue's tickets are seq-sorted and the engine's merge by seq
        // reconstructs one total arrival order.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        q.ops.push_back(Ticket {
            seq,
            req,
            slot: Arc::clone(slot),
            idem,
        });
        true
    }
}

/// The tickets one reader has queued but not yet released to the engine.
///
/// The release rule: **a reader never blocks while holding unreleased
/// tickets.** It releases (one `notify`) before a socket read, before a
/// send into a full response channel, when `epoch_ops` tickets are held,
/// and — through `Drop` — on every exit path, unwinding included.
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
    fn enqueue(&mut self, queue: usize, req: Request, slot: &Arc<Slot>, idem: Option<Idem>) {
        if self.shared.enqueue(queue, req, slot, idem) {
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
                // Bounded response buffer: once `inflight_bound` responses
                // are queued for this connection's writer, the *reader*
                // blocks admitting new frames (its TCP window fills and the
                // slow client backpressures itself). The engine fills slots
                // through independent `Arc`s and never touches this channel.
                let (tx, rx) = mpsc::sync_channel::<(u64, Arc<Slot>)>(shared.cfg.inflight_bound);
                let write_timeout = shared.cfg.write_timeout;
                let reader = {
                    let shared = Arc::clone(shared);
                    // A panic in either half is contained to its connection:
                    // the unwind drops `tx`/`rx`, the peer half drains out,
                    // and the engine and every other connection keep serving.
                    std::thread::spawn(move || {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            connection_reader(&shared, stream, &tx);
                        }));
                    })
                };
                let writer = std::thread::spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        connection_writer(write_half, &rx, write_timeout);
                    }));
                });
                let mut guard = locked(conns);
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
    Body(Vec<u8>),
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
    Wire::Body(Vec::new())
}

fn read_wire_frame(
    stream: &mut BufReader<TcpStream>,
    unreleased: &mut Unreleased<'_>,
    idle: &mut usize,
    budget: usize,
) -> Wire {
    let mut prefix = [0u8; 4];
    match fill_buf(stream, &mut prefix, unreleased, true, idle, budget) {
        Wire::Body(_) => {}
        other => return other,
    }
    let len = u32::from_be_bytes(prefix);
    if len == 0 || len as usize > unreleased.shared.cfg.max_frame {
        return Wire::Oversized(len);
    }
    let mut body = vec![0u8; len as usize];
    match fill_buf(stream, &mut body, unreleased, false, idle, budget) {
        Wire::Body(_) => Wire::Body(body),
        other => other,
    }
}

/// Hands one response slot to the connection's writer. Blocks only when
/// the `inflight_bound` channel is full, and releases first when it is —
/// the writer may be waiting on one of this reader's own tickets. Returns
/// `false` when the writer is gone.
fn send_slot(
    tx: &SyncSender<(u64, Arc<Slot>)>,
    unreleased: &mut Unreleased<'_>,
    item: (u64, Arc<Slot>),
) -> bool {
    match tx.try_send(item) {
        Ok(()) => true,
        Err(TrySendError::Full(item)) => {
            unreleased.release();
            tx.send(item).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

fn connection_reader(shared: &Arc<Shared>, stream: TcpStream, tx: &SyncSender<(u64, Arc<Slot>)>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut stream = BufReader::new(stream);
    let mut unreleased = Unreleased { shared, held: 0 };
    // Idle reaper: a count-based budget of consecutive empty read polls.
    // Any received byte — a PING included — resets it.
    let budget = ((shared.cfg.idle_timeout.as_millis() / READ_POLL.as_millis()).max(1)) as usize;
    let mut idle = 0usize;
    // The client identity bound by HELLO; 0 until then (anonymous — no
    // dedup protection).
    let mut client = 0u64;
    loop {
        let body = match read_wire_frame(&mut stream, &mut unreleased, &mut idle, budget) {
            Wire::Body(body) => body,
            // A clean close, a mid-frame disconnect, a dead socket, or a
            // reaped idler all end the connection silently — there is no
            // peer left (or entitled) to tell. Tickets already queued are
            // released on the way out and still apply.
            Wire::Eof | Wire::MidFrameCut | Wire::Dead | Wire::Shutdown | Wire::Idle => return,
            Wire::Oversized(len) => {
                // Refuse before reading a single body byte, then close:
                // a hostile prefix cannot make the server stage memory.
                let slot = Slot::new();
                slot.fill(Response::BadRequest(format!(
                    "frame length {len} outside 1..={}",
                    shared.cfg.max_frame
                )));
                send_slot(tx, &mut unreleased, (0, slot));
                return;
            }
        };
        let (token, req) = match decode_request(&body) {
            Ok(pair) => pair,
            Err(e) => {
                // Echo whatever token prefix arrived so a retrying client
                // can correlate the refusal, then close: after a checksum
                // mismatch the stream offset can no longer be trusted.
                let slot = Slot::new();
                slot.fill(Response::BadRequest(e.0));
                send_slot(tx, &mut unreleased, (envelope_token(&body), slot));
                return;
            }
        };
        let slot = Slot::new();
        // Mutating requests from a HELLO-bound client with a nonzero token
        // carry an idempotency identity the engine dedups on.
        let idem = match (client, token, &req) {
            (0, _, _) | (_, 0, _) => None,
            (c, t, Request::Put { .. } | Request::Del { .. } | Request::Flush) => Some((c, t)),
            _ => None,
        };
        match req {
            // Data operations ride the epoch pipeline, routed by shard.
            Request::Get { key } | Request::Put { key, .. } | Request::Del { key } => {
                unreleased.enqueue(shared.shard_queue(key), req, &slot, idem);
            }
            // Order-sensitive operations are barriers in the engine.
            Request::Succ { .. } | Request::Pred { .. } | Request::Len | Request::Flush => {
                unreleased.enqueue(shared.barrier_queue(), req, &slot, idem);
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
                slot.fill(Response::Health {
                    shards: dict.shard_count() as u64,
                    degraded: degraded_shards,
                });
            }
            Request::Quarantine { shard, reason } => {
                let dict = read_locked(&shared.dict);
                if (shard as usize) < dict.shard_count() {
                    dict.quarantine_shard(shard as usize, reason);
                    slot.fill(Response::Done);
                } else {
                    slot.fill(Response::BadRequest(format!(
                        "shard {shard} out of range ({} shards)",
                        dict.shard_count()
                    )));
                }
            }
            Request::Restore { shard } => {
                let dict = read_locked(&shared.dict);
                if (shard as usize) < dict.shard_count() {
                    dict.restore_shard(shard as usize);
                    slot.fill(Response::Done);
                } else {
                    slot.fill(Response::BadRequest(format!(
                        "shard {shard} out of range ({} shards)",
                        dict.shard_count()
                    )));
                }
            }
            Request::Ping => slot.fill(Response::Done),
            Request::Hello { client: id } => {
                client = id;
                slot.fill(Response::Done);
            }
        }
        if !send_slot(tx, &mut unreleased, (token, slot)) {
            // Writer died (peer stopped reading); no point parsing more.
            return;
        }
    }
}

fn connection_writer(stream: TcpStream, rx: &Receiver<(u64, Arc<Slot>)>, write_timeout: Duration) {
    // A peer that stops draining responses is shed after `write_timeout`
    // (the write errors, the writer exits, the reader's next send fails):
    // slow clients cost themselves the connection, never an engine stall.
    let _ = stream.set_write_timeout(Some(write_timeout));
    let mut out = BufWriter::new(stream);
    loop {
        // The mirror of the reader's release rule: responses whose slots
        // are already filled share one buffer, flushed only before the
        // writer would block — on an empty channel or an unfilled slot.
        let queued = rx.try_recv().ok();
        let filled = queued.as_ref().and_then(|(_, slot)| slot.try_take());
        if filled.is_none() && out.flush().is_err() {
            return;
        }
        let Some((token, slot)) = queued.or_else(|| rx.recv().ok()) else {
            return;
        };
        let resp = filled.unwrap_or_else(|| slot.wait());
        if write_frame(&mut out, &encode_response(token, &resp)).is_err() {
            return;
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
    loop {
        let shutting = wait_for_epoch(shared);
        let epoch = drain_epoch(shared, shutting);
        if !epoch.is_empty() {
            shared.epochs.fetch_add(1, Ordering::Relaxed);
            shared
                .tickets
                .fetch_add(epoch.len() as u64, Ordering::Relaxed);
            process_epoch(shared, epoch, &mut dedup);
        }
        if shutting {
            // Final sweep: `closed` is now set under every queue lock, so
            // nothing can slip in after this drain.
            let tail = drain_epoch(shared, true);
            if !tail.is_empty() {
                process_epoch(shared, tail, &mut dedup);
            }
            return;
        }
    }
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

/// Drains every queue and merges the tickets into one global
/// arrival-ordered stream. During shutdown the queues are closed under
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
fn drain_epoch(shared: &Arc<Shared>, closing: bool) -> Vec<Ticket> {
    let mut epoch: Vec<Ticket> = Vec::new();
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
    epoch
}

/// An idempotency identity: `(client id, token)`.
type Idem = (u64, u64);

/// One epoch's worth of point operations between two barriers: the batch
/// in arrival order plus an overlay so later reads in the same segment
/// observe earlier writes, and the deferred reads that missed the overlay.
#[derive(Default)]
struct Segment {
    overlay: BTreeMap<u64, Option<u64>>,
    /// `(key, slot, idem)` of every write, in arrival order.
    writes: Vec<(u64, Arc<Slot>, Option<Idem>)>,
    batch: Vec<BatchOp<u64, u64>>,
    /// Idempotency identities already writing in this segment — a
    /// duplicate arriving in the *same* epoch (registry not yet updated)
    /// is caught here instead.
    pending: BTreeSet<Idem>,
    /// Same-segment duplicates: `(key, slot)` answered at commit exactly
    /// like their originals (same shard-health check), without a second
    /// application.
    dups: Vec<(u64, Arc<Slot>)>,
    /// Reads that hit the overlay: `(key, observed value, slot)` — answered
    /// only after the batch commits, so a shard that panics mid-apply
    /// degrades them instead of letting them claim an uncommitted write.
    overlay_reads: Vec<(u64, Option<u64>, Arc<Slot>)>,
    /// Reads that missed the overlay, answered from the pre-batch state.
    deferred_reads: Vec<(u64, Arc<Slot>)>,
}

impl Segment {
    fn push_read(&mut self, key: u64, slot: Arc<Slot>) {
        match self.overlay.get(&key) {
            Some(v) => self.overlay_reads.push((key, *v, slot)),
            None => self.deferred_reads.push((key, slot)),
        }
    }

    fn push_write(&mut self, key: u64, value: Option<u64>, slot: Arc<Slot>, idem: Option<Idem>) {
        // A duplicate of a write already in this segment joins as a
        // *waiter*, not a second application — exactly-once holds even
        // when the retry lands in the same epoch as the original.
        if let Some(id) = idem {
            if !self.pending.insert(id) {
                self.dups.push((key, slot));
                return;
            }
        }
        self.overlay.insert(key, value);
        self.batch.push(match value {
            Some(v) => BatchOp::Put(key, v),
            None => BatchOp::Remove(key),
        });
        self.writes.push((key, slot, idem));
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
    fn commit(&mut self, dict: &mut ServedDict, dedup: &mut DedupRegistry) {
        if self.is_empty() {
            return;
        }
        let keys: Vec<u64> = self.deferred_reads.iter().map(|(k, _)| *k).collect();
        let values = dict.multi_get(&keys);
        let deferred: Vec<(u64, Option<u64>, Arc<Slot>)> = self
            .deferred_reads
            .drain(..)
            .zip(values)
            .map(|((key, slot), value)| (key, value, slot))
            .collect();
        dict.multi_apply(std::mem::take(&mut self.batch));
        for (key, value, slot) in deferred.into_iter().chain(self.overlay_reads.drain(..)) {
            match dict.shard_status(dict.shard_of(&key)) {
                Some(err) => slot.fill(degraded(err)),
                None => slot.fill(match value {
                    Some(v) => Response::Value(v),
                    None => Response::NotFound,
                }),
            }
        }
        for (key, slot, idem) in self.writes.drain(..) {
            match dict.shard_status(dict.shard_of(&key)) {
                Some(err) => slot.fill(degraded(err)),
                None => {
                    if let Some((client, token)) = idem {
                        dedup.record(client, token, Response::Done);
                    }
                    slot.fill(Response::Done);
                }
            }
        }
        for (key, slot) in self.dups.drain(..) {
            match dict.shard_status(dict.shard_of(&key)) {
                Some(err) => slot.fill(degraded(err)),
                None => slot.fill(Response::Done),
            }
        }
        self.pending.clear();
        self.overlay.clear();
    }
}

fn process_epoch(shared: &Arc<Shared>, epoch: Vec<Ticket>, dedup: &mut DedupRegistry) {
    let mut dict = write_locked(&shared.dict);
    let mut segment = Segment::default();
    for ticket in epoch {
        // Exactly-once: a mutating retry whose token is still inside its
        // client's window replays the retained response — the write is
        // not re-applied, so `PUT a; DEL a; retry PUT a` cannot resurrect
        // the key.
        if let Some((client, token)) = ticket.idem {
            if let Some(retained) = dedup.lookup(client, token) {
                ticket.slot.fill(retained);
                continue;
            }
        }
        match ticket.req {
            Request::Get { key } => {
                // A read on a quarantined shard refuses before joining the
                // segment — `multi_get`'s silent omission never becomes a
                // silent NOT_FOUND.
                match dict.shard_status(dict.shard_of(&key)) {
                    Some(err) => ticket.slot.fill(degraded(err)),
                    None => segment.push_read(key, ticket.slot),
                }
            }
            Request::Put { key, value } => match dict.shard_status(dict.shard_of(&key)) {
                Some(err) => ticket.slot.fill(degraded(err)),
                None => segment.push_write(key, Some(value), ticket.slot, ticket.idem),
            },
            Request::Del { key } => match dict.shard_status(dict.shard_of(&key)) {
                Some(err) => ticket.slot.fill(degraded(err)),
                None => segment.push_write(key, None, ticket.slot, ticket.idem),
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
                ticket.slot.fill(resp);
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

    #[test]
    fn readers_route_with_a_copy_of_the_dictionary_router() {
        let config = DictConfig {
            seed: 0xD1C7,
            shards: 4,
            ..DictConfig::default()
        };
        let opts = ServerOptions {
            config,
            persist: None,
        };
        let server = Server::spawn("127.0.0.1:0", opts).expect("bind loopback");
        let shared = &server.shared;
        assert_eq!(shared.router, *read_locked(&shared.dict).router());
    }
}
