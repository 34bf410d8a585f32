//! A small blocking client: one TCP connection, synchronous
//! request/response plus a split send/recv surface for pipelining (the
//! load generator and the protocol batteries both drive it).
//!
//! # Exactly-once retries
//!
//! Every frame carries a client-drawn correlation token (protocol v2).
//! The synchronous helpers ([`Client::get`], [`Client::put`], …) run
//! through [`Client::roundtrip`]: one token per *logical* operation,
//! reused verbatim across every retry attempt, so a server that already
//! applied the first attempt recognizes the resend inside its dedup
//! window and replays the retained response instead of applying twice.
//! That protection requires a client identity — construct with
//! [`ClientConfig::client_id`] ≠ 0 and the client binds it via `HELLO` on
//! every (re)connect. Identity 0 is anonymous: correlation still works,
//! dedup does not, so retried mutations may double-apply (fine for
//! idempotent value-overwrite workloads, wrong for anything counting).
//!
//! Failure handling is typed ([`ClientError`]) and the retry budget is
//! count-based — a fixed number of attempts with a doubling backoff
//! `Duration`, no deadline arithmetic — so the client stays inside the
//! workspace's determinism-hygiene rules (no `Instant` anywhere in this
//! crate).

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use anti_persistence::dict::DictConfigError;

use crate::protocol::{
    decode_response, encode_request_into, read_frame_limit, Frame, Request, Response, MAX_FRAME,
};

/// How many consecutive non-matching (stale or duplicated) response
/// frames the client skips while hunting for one token before declaring
/// the stream desynchronized.
const STALE_SKIP_BOUND: usize = 256;

/// Client-side knobs, validated at [`Client::connect_with`] time through
/// the same [`DictConfigError`] surface the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// The identity bound via `HELLO` on every (re)connect. `0` means
    /// anonymous: no HELLO is sent and the server never dedups this
    /// client's retries. Pick distinct nonzero ids per logical client.
    pub client_id: u64,
    /// Socket read timeout (nonzero): how long one [`Client::recv`] waits
    /// for a response frame before surfacing [`ClientError::Timeout`].
    pub read_timeout: Duration,
    /// Retry budget in *attempts* (`≥ 1`) for the synchronous helpers —
    /// count-based, so exhaustion is a deterministic function of the
    /// fault sequence, not of scheduling luck.
    pub retry_budget: usize,
    /// Backoff slept before the second attempt; doubles per attempt.
    pub backoff: Duration,
    /// Largest response frame accepted (`≥ 1` bytes, envelope included).
    pub max_frame: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            client_id: 0,
            read_timeout: Duration::from_secs(10),
            retry_budget: 1,
            backoff: Duration::from_millis(20),
            max_frame: MAX_FRAME,
        }
    }
}

impl ClientConfig {
    /// Rejects degenerate knob values with the named-knob errors the rest
    /// of the workspace uses.
    pub fn validate(&self) -> Result<(), DictConfigError> {
        if self.retry_budget == 0 {
            return Err(DictConfigError::ZeroRetryBudget);
        }
        if self.read_timeout.is_zero() {
            return Err(DictConfigError::ZeroReadTimeout);
        }
        if self.max_frame == 0 {
            return Err(DictConfigError::ZeroMaxFrame);
        }
        Ok(())
    }
}

/// Everything that can go wrong on the client side of the wire, typed.
#[derive(Debug)]
pub enum ClientError {
    /// The [`ClientConfig`] was degenerate (named knob inside).
    Config(DictConfigError),
    /// A transport error that is none of the recognized shapes below.
    Io(io::Error),
    /// No response arrived within the configured read timeout.
    Timeout,
    /// The server (or the path to it) closed or reset the connection.
    ServerReset,
    /// The response frame failed to decode — checksum mismatch, torn
    /// body, or an unknown status byte. The value inside is the typed
    /// decode message; the connection is dropped, never trusted further.
    Decode(String),
    /// The response stream no longer lines up with the requests sent:
    /// a response for `got` arrived while `expected` was still owed.
    Desync { expected: u64, got: u64 },
    /// The server announced a frame larger than the configured bound.
    Oversized(u32),
    /// The retry budget ran out; `last` is the final attempt's error.
    RetryExhausted {
        attempts: usize,
        last: Box<ClientError>,
    },
    /// The server answered, but not with a shape this call can use
    /// (degraded shard, overload shed, refusal, …) — the typed response
    /// is carried whole.
    Unexpected(Response),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Config(e) => write!(f, "client configuration rejected: {e}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for a response"),
            ClientError::ServerReset => write!(f, "server closed or reset the connection"),
            ClientError::Decode(msg) => write!(f, "response failed to decode: {msg}"),
            ClientError::Desync { expected, got } => write!(
                f,
                "response stream desynchronized: expected token {expected}, got {got}"
            ),
            ClientError::Oversized(len) => {
                write!(f, "server sent an oversized frame ({len} bytes)")
            }
            ClientError::RetryExhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempt(s): {last}"
                )
            }
            ClientError::Unexpected(resp) => write!(f, "server answered {resp:?}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Config(e) => Some(e),
            ClientError::Io(e) => Some(e),
            ClientError::RetryExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected => ClientError::ServerReset,
            _ => ClientError::Io(e),
        }
    }
}

impl ClientError {
    /// Whether a fresh attempt (reconnect + resend under the same token)
    /// can plausibly succeed. Everything transport-shaped retries; config
    /// errors and typed server answers do not.
    fn retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Timeout
                | ClientError::ServerReset
                | ClientError::Io(_)
                | ClientError::Decode(_)
                | ClientError::Desync { .. }
                | ClientError::Oversized(_)
        )
    }
}

/// Whether a typed server answer is a transient refusal worth retrying
/// (the shed path and the corrupt-frame path), as opposed to a durable
/// state the caller must see (degraded shard, unavailable flush).
fn transient_refusal(resp: &Response) -> bool {
    matches!(resp, Response::Overloaded | Response::BadRequest(_))
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A connected client. Requests may be pipelined: `send` any number of
/// requests, then `recv` exactly that many responses — the server answers
/// in arrival order per connection, and the client matches them back up
/// by token.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_token: u64,
    /// Tokens sent but not yet answered, in send order (the server
    /// answers per-connection in arrival order, so this is a FIFO).
    pending: VecDeque<u64>,
    /// The one buffer every request frame is encoded into.
    frame: Vec<u8>,
}

impl Client {
    /// Connects with the default [`ClientConfig`] (anonymous, 10 s read
    /// timeout, no retries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Validates `cfg`, resolves `addr`, connects, and — when
    /// `cfg.client_id` is nonzero — binds the identity via `HELLO`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: ClientConfig,
    ) -> Result<Client, ClientError> {
        cfg.validate().map_err(ClientError::Config)?;
        let addr = addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                ))
            })?;
        let mut client = Client {
            addr,
            cfg,
            conn: None,
            next_token: 0,
            pending: VecDeque::new(),
            frame: Vec::new(),
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// The next correlation token: a simple counter, unique per client
    /// lifetime. Zero is reserved (no correlation), so draws start at 1.
    fn draw_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Opens the TCP connection if none is live, re-binding the client
    /// identity via `HELLO` so the dedup window survives reconnects.
    fn ensure_conn(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.read_timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some(Conn {
            reader,
            writer: BufWriter::new(stream),
        });
        self.pending.clear();
        if self.cfg.client_id != 0 {
            let hello_token = self.draw_token();
            let hello = Request::Hello {
                client: self.cfg.client_id,
            };
            self.write_framed(hello_token, &hello)?;
            self.flush_conn()?;
            match self.read_matching(hello_token) {
                Ok(Response::Done) => {}
                Ok(other) => {
                    self.drop_conn();
                    return Err(ClientError::Unexpected(other));
                }
                Err(e) => {
                    self.drop_conn();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.pending.clear();
    }

    fn write_framed(&mut self, token: u64, req: &Request) -> Result<(), ClientError> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(ClientError::ServerReset);
        };
        self.frame.clear();
        encode_request_into(&mut self.frame, token, req);
        conn.writer.write_all(&self.frame).map_err(|e| {
            self.drop_conn();
            ClientError::from(e)
        })
    }

    fn flush_conn(&mut self) -> Result<(), ClientError> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(ClientError::ServerReset);
        };
        conn.writer.flush().map_err(|e| {
            self.drop_conn();
            ClientError::from(e)
        })
    }

    /// Reads one enveloped response frame off the live connection.
    fn read_one(&mut self) -> Result<(u64, Response), ClientError> {
        let max_frame = self.cfg.max_frame;
        let Some(conn) = self.conn.as_mut() else {
            return Err(ClientError::ServerReset);
        };
        let frame = read_frame_limit(&mut conn.reader, max_frame);
        let parsed = match frame {
            Ok(Frame::Body(body)) => decode_response(&body).map_err(|e| ClientError::Decode(e.0)),
            Ok(Frame::Eof) => Err(ClientError::ServerReset),
            Ok(Frame::Oversized(len)) => Err(ClientError::Oversized(len)),
            Err(e) => Err(ClientError::from(e)),
        };
        parsed.inspect_err(|_| self.drop_conn())
    }

    /// Reads frames until one carries `token`, skipping a bounded number
    /// of stale frames (responses whose ops already concluded — e.g. a
    /// duplicated frame injected on the wire). A frame for a *different
    /// still-pending* token means the stream lost a response: typed
    /// desync, connection dropped.
    fn read_matching(&mut self, token: u64) -> Result<Response, ClientError> {
        for _ in 0..STALE_SKIP_BOUND {
            let (got, resp) = self.read_one()?;
            if got == token {
                return Ok(resp);
            }
            if self.pending.contains(&got) {
                self.drop_conn();
                return Err(ClientError::Desync {
                    expected: token,
                    got,
                });
            }
            // Stale (already-answered or duplicated) frame: skip it.
        }
        self.drop_conn();
        Err(ClientError::Desync {
            expected: token,
            got: 0,
        })
    }

    /// Writes one request frame into the send buffer (pipelining form —
    /// call [`Self::flush`] or [`Self::recv`] to push it out) and returns
    /// its correlation token.
    pub fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        self.ensure_conn()?;
        let token = self.draw_token();
        self.write_framed(token, req)?;
        self.pending.push_back(token);
        Ok(token)
    }

    /// Flushes buffered request frames to the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.flush_conn()
    }

    /// Reads the response to the *oldest* unanswered [`Self::send`]
    /// (flushing pending sends first, so a plain send/recv pair never
    /// deadlocks on a buffered request).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.flush_conn()?;
        let Some(&expected) = self.pending.front() else {
            return Err(ClientError::Desync {
                expected: 0,
                got: 0,
            });
        };
        self.pending.pop_front();
        let mut skips = 0;
        loop {
            let (got, resp) = self.read_one()?;
            if got == expected {
                return Ok(resp);
            }
            if self.pending.contains(&got) {
                self.drop_conn();
                return Err(ClientError::Desync { expected, got });
            }
            skips += 1;
            if skips >= STALE_SKIP_BOUND {
                self.drop_conn();
                return Err(ClientError::Desync { expected, got });
            }
        }
    }

    /// One synchronous round trip, *without* retries (the pipelined
    /// surface's pairing of one send and one recv).
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// One logical operation with the configured retry budget: the token
    /// is drawn once and resent verbatim on every attempt, so a
    /// HELLO-bound client's retried mutation is applied exactly once no
    /// matter which attempt's frames survived the wire.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let token = self.draw_token();
        let mut backoff = self.cfg.backoff;
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.cfg.retry_budget {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            let outcome = self.attempt(token, req);
            match outcome {
                Ok(resp) => {
                    if transient_refusal(&resp) && attempt + 1 < self.cfg.retry_budget {
                        self.drop_conn();
                        last = Some(ClientError::Unexpected(resp));
                        continue;
                    }
                    return Ok(resp);
                }
                Err(e) if e.retryable() && attempt + 1 < self.cfg.retry_budget => {
                    last = Some(e);
                }
                Err(e) if e.retryable() => {
                    return Err(ClientError::RetryExhausted {
                        attempts: self.cfg.retry_budget,
                        last: Box::new(e),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetryExhausted {
            attempts: self.cfg.retry_budget,
            last: Box::new(last.unwrap_or(ClientError::Timeout)),
        })
    }

    /// One attempt of [`Self::roundtrip`]: (re)connect, send under
    /// `token`, wait for the matching response.
    fn attempt(&mut self, token: u64, req: &Request) -> Result<Response, ClientError> {
        self.ensure_conn()?;
        self.write_framed(token, req)?;
        self.flush_conn()?;
        self.read_matching(token)
    }

    /// Point lookup: `Ok(Some(v))` on a hit, `Ok(None)` on a miss; any
    /// non-answer (degraded, overloaded, …) surfaces as
    /// [`ClientError::Unexpected`] carrying the typed response.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
        match self.roundtrip(&Request::Get { key })? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Upsert.
    pub fn put(&mut self, key: u64, value: u64) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Put { key, value })? {
            Response::Done => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Delete (acknowledged whether or not the key existed).
    pub fn del(&mut self, key: u64) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Del { key })? {
            Response::Done => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Smallest entry with key ≥ `key`.
    pub fn successor(&mut self, key: u64) -> Result<Option<(u64, u64)>, ClientError> {
        match self.roundtrip(&Request::Succ { key })? {
            Response::Entry(k, v) => Ok(Some((k, v))),
            Response::NotFound => Ok(None),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Largest entry with key ≤ `key`.
    pub fn predecessor(&mut self, key: u64) -> Result<Option<(u64, u64)>, ClientError> {
        match self.roundtrip(&Request::Pred { key })? {
            Response::Entry(k, v) => Ok(Some((k, v))),
            Response::NotFound => Ok(None),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Number of entries.
    pub fn len(&mut self) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Len)? {
            Response::Count(n) => Ok(n),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Whether the served dictionary is empty.
    pub fn is_empty(&mut self) -> Result<bool, ClientError> {
        Ok(self.len()? == 0)
    }

    /// Commits the at-rest image; returns the committed generation. A
    /// retried `FLUSH` from a HELLO-bound client replays the retained
    /// generation instead of committing a second image.
    pub fn flush_store(&mut self) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Flush)? {
            Response::Generation(g) => Ok(g),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Shard-health snapshot: `(shard_count, [(shard, reason)…])`.
    #[allow(
        clippy::type_complexity,
        reason = "the wire reply's shape, spelled out once"
    )]
    pub fn health(&mut self) -> Result<(u64, Vec<(u64, String)>), ClientError> {
        match self.roundtrip(&Request::Health)? {
            Response::Health { shards, degraded } => Ok((shards, degraded)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Liveness probe (also what keeps an otherwise-idle connection from
    /// the server's idle reaper).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Done => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
