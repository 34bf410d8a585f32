//! The wire format: length-prefixed binary frames, hand-rolled on
//! `std::io` — no serde, no crates.io.
//!
//! # Frame grammar (protocol v2)
//!
//! ```text
//! frame    := len:u32be envelope
//! envelope := token:u64be sum:u32be body
//! body     := request | response          (direction decides which)
//!
//! request  := 0x01 key:u64be              GET
//!           | 0x02 key:u64be val:u64be    PUT
//!           | 0x03 key:u64be              DEL
//!           | 0x04 key:u64be              SUCC
//!           | 0x05 key:u64be              PRED
//!           | 0x06                        LEN
//!           | 0x07                        FLUSH
//!           | 0x08                        HEALTH
//!           | 0x09 shard:u64be reason:…   QUARANTINE (reason = rest of body, utf-8)
//!           | 0x0A shard:u64be            RESTORE
//!           | 0x0B                        PING
//!           | 0x0C client:u64be           HELLO (bind a client identity)
//!
//! response := 0x00                        DONE
//!           | 0x01 val:u64be              VALUE
//!           | 0x02                        NOT_FOUND
//!           | 0x03 key:u64be val:u64be    ENTRY
//!           | 0x04 n:u64be                COUNT
//!           | 0x05 gen:u64be              GENERATION
//!           | 0x06 shards:u64be k:u64be (shard:u64be rlen:u32be reason)*k   HEALTH
//!           | 0x10 shard:u64be reason:…   DEGRADED   (reason = rest of body)
//!           | 0x11                        OVERLOADED
//!           | 0x12 msg:…                  BAD_REQUEST
//!           | 0x13 msg:…                  UNAVAILABLE
//! ```
//!
//! `len` counts the envelope only and must lie in `1..=MAX_FRAME` (servers
//! may narrow the cap via configuration); a peer that announces more is told
//! `BAD_REQUEST` and disconnected before any byte of the oversized body is
//! read, so a hostile length prefix cannot reserve memory. Every numeric
//! field is big-endian. Strings are UTF-8 and always the *last* field of
//! their body, so their length is `len` minus the fixed prefix — no separate
//! count to cross-validate (the one exception is the HEALTH reason list,
//! whose entries carry an explicit `rlen` each).
//!
//! # The envelope: correlation, exactly-once, and integrity
//!
//! Every frame in *both* directions opens with a 12-byte envelope:
//!
//! * `token` — a client-drawn correlation id. The server echoes it verbatim
//!   on the response, so a pipelined client can match answers to requests
//!   even when a chaotic network duplicates or delays response frames. On
//!   mutating requests (`PUT`/`DEL`/`FLUSH`) from a `HELLO`-bound client it
//!   doubles as an **idempotency token**: the server's dedup window
//!   suppresses re-application of a token it has already answered and
//!   replays the retained response, making retries exactly-once.
//! * `sum` — a seeded checksum over `(token, body)` ([`frame_sum`]). TCP's
//!   16-bit checksum is famously porous; a flipped bit in a `PUT` value
//!   would otherwise be *applied* and acked. A sum mismatch decodes to a
//!   typed error — refused as `BAD_REQUEST` server-side, surfaced as a
//!   decode failure (and retried over a fresh connection) client-side —
//!   never a silently wrong value.
//!
//! Token 0 is reserved for "no correlation" (servers answer it but never
//! dedup it); `HELLO` with client id 0 is the anonymous default.

use std::io::{self, Read, Write};

/// Upper bound on a frame body in bytes. Requests are ≤ 17 bytes except
/// QUARANTINE's free-text reason; responses are small except HEALTH, whose
/// size is bounded by 64 shards × (bounded reason). 4 KiB covers both with
/// slack and caps what a hostile length prefix can make the server stage.
pub const MAX_FRAME: usize = 4096;

/// A client-to-server operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get { key: u64 },
    /// Upsert.
    Put { key: u64, value: u64 },
    /// Delete.
    Del { key: u64 },
    /// Smallest entry with key ≥ `key`.
    Succ { key: u64 },
    /// Largest entry with key ≤ `key`.
    Pred { key: u64 },
    /// Number of entries.
    Len,
    /// Canonicalize and commit the at-rest image; answers the committed
    /// generation.
    Flush,
    /// Shard-health snapshot.
    Health,
    /// Administratively quarantine a shard (health-management surface).
    Quarantine { shard: u64, reason: String },
    /// Re-admit a repaired shard.
    Restore { shard: u64 },
    /// Liveness probe; also a pure ordering marker in pipelined streams.
    Ping,
    /// Binds this connection to a client identity. The server keys its
    /// idempotency dedup window by this id, so a client that reconnects
    /// and re-HELLOs with the same id keeps its retry protection across
    /// connections. Id 0 is anonymous: answered, never deduped.
    Hello { client: u64 },
}

/// A server-to-client answer. Every variant is self-describing: a client
/// can always distinguish success, absence, degradation, shedding, and
/// protocol errors without out-of-band context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Acknowledged (PUT, DEL, PING, admin ops).
    Done,
    /// GET hit.
    Value(u64),
    /// GET/SUCC/PRED miss.
    NotFound,
    /// SUCC/PRED hit.
    Entry(u64, u64),
    /// LEN answer.
    Count(u64),
    /// FLUSH answer: the committed generation.
    Generation(u64),
    /// HEALTH answer: total shard count plus each quarantined shard's
    /// index and reason.
    Health {
        shards: u64,
        degraded: Vec<(u64, String)>,
    },
    /// The operation routed to (or could be answered by) a quarantined
    /// shard; refused rather than silently wrong.
    Degraded { shard: u64, reason: String },
    /// Shed by backpressure: the target shard's queue is full. Retry later.
    Overloaded,
    /// The peer's frame was malformed; the connection closes after this.
    BadRequest(String),
    /// The server cannot serve the request (shutting down, no persistence
    /// configured, storage error).
    Unavailable(String),
}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_SUCC: u8 = 0x04;
const OP_PRED: u8 = 0x05;
const OP_LEN: u8 = 0x06;
const OP_FLUSH: u8 = 0x07;
const OP_HEALTH: u8 = 0x08;
const OP_QUARANTINE: u8 = 0x09;
const OP_RESTORE: u8 = 0x0A;
const OP_PING: u8 = 0x0B;
const OP_HELLO: u8 = 0x0C;

const ST_DONE: u8 = 0x00;
const ST_VALUE: u8 = 0x01;
const ST_NOT_FOUND: u8 = 0x02;
const ST_ENTRY: u8 = 0x03;
const ST_COUNT: u8 = 0x04;
const ST_GENERATION: u8 = 0x05;
const ST_HEALTH: u8 = 0x06;
const ST_DEGRADED: u8 = 0x10;
const ST_OVERLOADED: u8 = 0x11;
const ST_BAD_REQUEST: u8 = 0x12;
const ST_UNAVAILABLE: u8 = 0x13;

/// Why a body failed to decode. The server folds this into a
/// [`Response::BadRequest`] whose text names the defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

/// Little cursor over a frame body; every read is bounds-checked so a
/// truncated body decodes to a typed error, never a panic or a wrap.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.at)
            .ok_or_else(|| err("body truncated: expected u8"))?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let end = self
            .at
            .checked_add(4)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err("body truncated: expected u32"))?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.buf[self.at..end]);
        self.at = end;
        Ok(u32::from_be_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self
            .at
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err("body truncated: expected u64"))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.at..end]);
        self.at = end;
        Ok(u64::from_be_bytes(raw))
    }

    fn rest_utf8(&mut self) -> Result<String, DecodeError> {
        let s = std::str::from_utf8(&self.buf[self.at..])
            .map_err(|_| err("trailing string is not utf-8"))?
            .to_string();
        self.at = self.buf.len();
        Ok(s)
    }

    fn take_utf8(&mut self, n: usize) -> Result<String, DecodeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err("body truncated: expected string bytes"))?;
        let s = std::str::from_utf8(&self.buf[self.at..end])
            .map_err(|_| err("string is not utf-8"))?
            .to_string();
        self.at = end;
        Ok(s)
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(err(format!(
                "{} trailing byte(s) after a complete body",
                self.buf.len() - self.at
            )))
        }
    }
}

impl Request {
    /// Serializes the request body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        self.encode_into(&mut out);
        out
    }

    /// Appends the request body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Get { key } => {
                out.push(OP_GET);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Request::Put { key, value } => {
                out.push(OP_PUT);
                out.extend_from_slice(&key.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
            }
            Request::Del { key } => {
                out.push(OP_DEL);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Request::Succ { key } => {
                out.push(OP_SUCC);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Request::Pred { key } => {
                out.push(OP_PRED);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Request::Len => out.push(OP_LEN),
            Request::Flush => out.push(OP_FLUSH),
            Request::Health => out.push(OP_HEALTH),
            Request::Quarantine { shard, reason } => {
                out.push(OP_QUARANTINE);
                out.extend_from_slice(&shard.to_be_bytes());
                out.extend_from_slice(reason.as_bytes());
            }
            Request::Restore { shard } => {
                out.push(OP_RESTORE);
                out.extend_from_slice(&shard.to_be_bytes());
            }
            Request::Ping => out.push(OP_PING),
            Request::Hello { client } => {
                out.push(OP_HELLO);
                out.extend_from_slice(&client.to_be_bytes());
            }
        }
    }

    /// Parses a request body (no length prefix).
    pub fn decode(body: &[u8]) -> Result<Self, DecodeError> {
        let mut c = Cursor::new(body);
        let op = c.u8()?;
        let req = match op {
            OP_GET => Request::Get { key: c.u64()? },
            OP_PUT => Request::Put {
                key: c.u64()?,
                value: c.u64()?,
            },
            OP_DEL => Request::Del { key: c.u64()? },
            OP_SUCC => Request::Succ { key: c.u64()? },
            OP_PRED => Request::Pred { key: c.u64()? },
            OP_LEN => Request::Len,
            OP_FLUSH => Request::Flush,
            OP_HEALTH => Request::Health,
            OP_QUARANTINE => Request::Quarantine {
                shard: c.u64()?,
                reason: c.rest_utf8()?,
            },
            OP_RESTORE => Request::Restore { shard: c.u64()? },
            OP_PING => Request::Ping,
            OP_HELLO => Request::Hello { client: c.u64()? },
            other => return Err(err(format!("unknown request opcode 0x{other:02X}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        self.encode_into(&mut out);
        out
    }

    /// Appends the response body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Done => out.push(ST_DONE),
            Response::Value(v) => {
                out.push(ST_VALUE);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Response::NotFound => out.push(ST_NOT_FOUND),
            Response::Entry(k, v) => {
                out.push(ST_ENTRY);
                out.extend_from_slice(&k.to_be_bytes());
                out.extend_from_slice(&v.to_be_bytes());
            }
            Response::Count(n) => {
                out.push(ST_COUNT);
                out.extend_from_slice(&n.to_be_bytes());
            }
            Response::Generation(g) => {
                out.push(ST_GENERATION);
                out.extend_from_slice(&g.to_be_bytes());
            }
            Response::Health { shards, degraded } => {
                out.push(ST_HEALTH);
                out.extend_from_slice(&shards.to_be_bytes());
                out.extend_from_slice(&(degraded.len() as u64).to_be_bytes());
                for (shard, reason) in degraded {
                    out.extend_from_slice(&shard.to_be_bytes());
                    out.extend_from_slice(&(reason.len() as u32).to_be_bytes());
                    out.extend_from_slice(reason.as_bytes());
                }
            }
            Response::Degraded { shard, reason } => {
                out.push(ST_DEGRADED);
                out.extend_from_slice(&shard.to_be_bytes());
                out.extend_from_slice(reason.as_bytes());
            }
            Response::Overloaded => out.push(ST_OVERLOADED),
            Response::BadRequest(msg) => {
                out.push(ST_BAD_REQUEST);
                out.extend_from_slice(msg.as_bytes());
            }
            Response::Unavailable(msg) => {
                out.push(ST_UNAVAILABLE);
                out.extend_from_slice(msg.as_bytes());
            }
        }
    }

    /// Parses a response body (no length prefix).
    pub fn decode(body: &[u8]) -> Result<Self, DecodeError> {
        let mut c = Cursor::new(body);
        let st = c.u8()?;
        let resp = match st {
            ST_DONE => Response::Done,
            ST_VALUE => Response::Value(c.u64()?),
            ST_NOT_FOUND => Response::NotFound,
            ST_ENTRY => Response::Entry(c.u64()?, c.u64()?),
            ST_COUNT => Response::Count(c.u64()?),
            ST_GENERATION => Response::Generation(c.u64()?),
            ST_HEALTH => {
                let shards = c.u64()?;
                let k = c.u64()?;
                if k > shards {
                    return Err(err("health: more degraded entries than shards"));
                }
                let mut degraded = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    let shard = c.u64()?;
                    let rlen = c.u32()? as usize;
                    degraded.push((shard, c.take_utf8(rlen)?));
                }
                Response::Health { shards, degraded }
            }
            ST_DEGRADED => Response::Degraded {
                shard: c.u64()?,
                reason: c.rest_utf8()?,
            },
            ST_OVERLOADED => Response::Overloaded,
            ST_BAD_REQUEST => Response::BadRequest(c.rest_utf8()?),
            ST_UNAVAILABLE => Response::Unavailable(c.rest_utf8()?),
            other => return Err(err(format!("unknown response status 0x{other:02X}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Bytes the v2 envelope prepends to every body: `token:u64be sum:u32be`.
pub const ENVELOPE_BYTES: usize = 12;

/// SplitMix64 finalizer — the workspace's stand-in for a seeded hash.
/// Pure function of its input; no entropy.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The envelope checksum: a splitmix64 fold over the token, the body
/// length and every body word. Deterministic, dependency-free, and strong
/// enough that any single flipped bit (the fault model's unit of wire
/// corruption) changes the sum.
pub fn frame_sum(token: u64, body: &[u8]) -> u32 {
    let mut acc = mix(token ^ (body.len() as u64));
    for chunk in body.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = mix(acc ^ u64::from_be_bytes(word));
    }
    (acc ^ (acc >> 32)) as u32
}

fn encode_envelope(token: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES + body.len());
    out.extend_from_slice(&token.to_be_bytes());
    out.extend_from_slice(&frame_sum(token, body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

fn decode_envelope(framed: &[u8]) -> Result<(u64, &[u8]), DecodeError> {
    if framed.len() < ENVELOPE_BYTES {
        return Err(err(format!(
            "envelope truncated: {} byte(s), need at least {ENVELOPE_BYTES}",
            framed.len()
        )));
    }
    let mut t = [0u8; 8];
    t.copy_from_slice(&framed[..8]);
    let token = u64::from_be_bytes(t);
    let mut s = [0u8; 4];
    s.copy_from_slice(&framed[8..ENVELOPE_BYTES]);
    let sum = u32::from_be_bytes(s);
    let body = &framed[ENVELOPE_BYTES..];
    if frame_sum(token, body) != sum {
        return Err(err("frame checksum mismatch"));
    }
    Ok((token, body))
}

/// Best-effort token extraction for error replies: the first 8 bytes of
/// the envelope when present, 0 otherwise. Used to echo a token back on a
/// frame whose body (or checksum) failed to decode.
pub fn envelope_token(framed: &[u8]) -> u64 {
    match framed.get(..8) {
        Some(raw) => {
            let mut t = [0u8; 8];
            t.copy_from_slice(raw);
            u64::from_be_bytes(t)
        }
        None => 0,
    }
}

/// Serializes one enveloped request frame body (no length prefix).
pub fn encode_request(token: u64, req: &Request) -> Vec<u8> {
    encode_envelope(token, &req.encode())
}

/// Parses one enveloped request frame body, validating the checksum.
pub fn decode_request(framed: &[u8]) -> Result<(u64, Request), DecodeError> {
    let (token, body) = decode_envelope(framed)?;
    Ok((token, Request::decode(body)?))
}

/// Serializes one enveloped response frame body (no length prefix).
pub fn encode_response(token: u64, resp: &Response) -> Vec<u8> {
    encode_envelope(token, &resp.encode())
}

/// Appends one whole frame — length prefix, envelope, body — to `out`,
/// the body written in place by `body` and the prefix and checksum patched
/// in behind it: the same bytes as [`write_frame`] of the enveloped body,
/// with no buffer of its own.
fn encode_frame_into(out: &mut Vec<u8>, token: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&token.to_be_bytes());
    out.extend_from_slice(&[0u8; 4]);
    let body_at = out.len();
    body(out);
    let sum = frame_sum(token, &out[body_at..]);
    out[body_at - 4..body_at].copy_from_slice(&sum.to_be_bytes());
    let len = out.len() - start - 4;
    debug_assert!(len <= MAX_FRAME);
    out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Appends one request frame, length prefix included, to `out` — what
/// [`write_frame`] emits for [`encode_request`], without a `Vec` per frame.
pub fn encode_request_into(out: &mut Vec<u8>, token: u64, req: &Request) {
    encode_frame_into(out, token, |body| req.encode_into(body));
}

/// Appends one response frame, length prefix included, to `out` — what
/// [`write_frame`] emits for [`encode_response`], without a `Vec` per frame.
pub fn encode_response_into(out: &mut Vec<u8>, token: u64, resp: &Response) {
    encode_frame_into(out, token, |body| resp.encode_into(body));
}

/// Parses one enveloped response frame body, validating the checksum.
pub fn decode_response(framed: &[u8]) -> Result<(u64, Response), DecodeError> {
    let (token, body) = decode_envelope(framed)?;
    Ok((token, Response::decode(body)?))
}

/// What [`read_frame`] observed on the wire.
#[derive(Debug)]
pub enum Frame {
    /// A complete body within bounds.
    Body(Vec<u8>),
    /// The peer closed cleanly between frames.
    Eof,
    /// The length prefix exceeded the reader's bound ([`MAX_FRAME`] by
    /// default) or was zero. The body was *not* read; the connection
    /// should answer `BAD_REQUEST` and close.
    Oversized(u32),
}

/// Reads one length-prefixed frame with the default [`MAX_FRAME`] bound.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Frame> {
    read_frame_limit(stream, MAX_FRAME)
}

/// Reads one length-prefixed frame, bounding the body at `max_frame`
/// bytes. A disconnect *inside* a frame (after some prefix or body bytes
/// arrived) is an `UnexpectedEof` error — distinct from the clean
/// between-frames [`Frame::Eof`].
pub fn read_frame_limit(stream: &mut impl Read, max_frame: usize) -> io::Result<Frame> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match stream.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(Frame::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "disconnect inside a length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len == 0 || len as usize > max_frame {
        return Ok(Frame::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(Frame::Body(body))
}

/// Writes one length-prefixed frame.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
    stream.write_all(&(body.len() as u32).to_be_bytes())?;
    stream.write_all(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `Request` variant, with the edge values of its fields.
    fn every_request() -> Vec<Request> {
        vec![
            Request::Get { key: 0 },
            Request::Get { key: u64::MAX },
            Request::Put { key: 7, value: 9 },
            Request::Del { key: 3 },
            Request::Succ { key: 1 },
            Request::Pred { key: 2 },
            Request::Len,
            Request::Flush,
            Request::Health,
            Request::Quarantine {
                shard: 5,
                reason: "scrub: checksum mismatch".into(),
            },
            Request::Quarantine {
                shard: 0,
                reason: String::new(),
            },
            Request::Restore { shard: 5 },
            Request::Ping,
            Request::Hello { client: 0 },
            Request::Hello { client: u64::MAX },
        ]
    }

    /// Every `Response` variant.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Done,
            Response::Value(42),
            Response::NotFound,
            Response::Entry(1, 2),
            Response::Count(0),
            Response::Generation(u64::MAX),
            Response::Health {
                shards: 8,
                degraded: vec![(2, "panicked".into()), (5, String::new())],
            },
            Response::Degraded {
                shard: 3,
                reason: "storage".into(),
            },
            Response::Overloaded,
            Response::BadRequest("why".into()),
            Response::Unavailable("shutting down".into()),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for r in every_request() {
            assert_eq!(Request::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn every_response_round_trips() {
        for r in every_response() {
            assert_eq!(Response::decode(&r.encode()), Ok(r));
        }
    }

    /// The buffer-reusing encoders emit, byte for byte, what `write_frame`
    /// emits for the allocating ones — appended behind whatever the buffer
    /// already holds, so one buffer can take a whole burst.
    #[test]
    fn the_into_encoders_emit_the_bytes_of_the_allocating_ones() {
        let tokens = [0u64, 1, 0xDEAD_BEEF, u64::MAX];
        let mut old = Vec::new();
        let mut new = Vec::new();
        for (i, req) in every_request().iter().enumerate() {
            let token = tokens[i % tokens.len()];
            write_frame(&mut old, &encode_request(token, req)).expect("vec write");
            encode_request_into(&mut new, token, req);
            assert_eq!(old, new, "{req:?}");
        }
        for (i, resp) in every_response().iter().enumerate() {
            let token = tokens[i % tokens.len()];
            write_frame(&mut old, &encode_response(token, resp)).expect("vec write");
            encode_response_into(&mut new, token, resp);
            assert_eq!(old, new, "{resp:?}");
        }
    }

    #[test]
    fn truncated_bodies_decode_to_typed_errors() {
        // Fixed-size bodies: every proper prefix must fail with a typed
        // error (never panic, never mis-decode as something shorter).
        for body in [
            Request::Put { key: 7, value: 9 }.encode(),
            Request::Get { key: 3 }.encode(),
            Request::Restore { shard: 2 }.encode(),
        ] {
            for cut in 0..body.len() {
                assert!(Request::decode(&body[..cut]).is_err(), "cut at {cut}");
            }
        }
        for body in [
            Response::Entry(1, 2).encode(),
            Response::Value(9).encode(),
            Response::Health {
                shards: 4,
                degraded: vec![(1, "x".into())],
            }
            .encode(),
        ] {
            for cut in 0..body.len() {
                assert!(Response::decode(&body[..cut]).is_err(), "cut at {cut}");
            }
        }
        // Variable-length tails legally shrink, but every cut must still
        // decode cleanly — to an error or to a shorter valid body, never a
        // panic.
        let body = Request::Quarantine {
            shard: 1,
            reason: "reason".into(),
        }
        .encode();
        for cut in 0..body.len() {
            let _ = Request::decode(&body[..cut]);
        }
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Response::decode(&[0xFF]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = Request::Len.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        let mut body = Response::Value(1).encode();
        body.push(9);
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn health_with_inflated_count_is_rejected() {
        // k > shards would otherwise drive a huge with_capacity from 16
        // attacker bytes.
        let mut body = vec![ST_HEALTH];
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn envelope_round_trips_and_rejects_every_single_bit_corruption() {
        let req = Request::Put { key: 7, value: 9 };
        let framed = encode_request(0xDEAD_BEEF_u64, &req);
        assert_eq!(decode_request(&framed), Ok((0xDEAD_BEEF_u64, req.clone())));
        assert_eq!(envelope_token(&framed), 0xDEAD_BEEF_u64);

        let resp = Response::Value(42);
        let framed_resp = encode_response(3, &resp);
        assert_eq!(decode_response(&framed_resp), Ok((3, resp)));

        // Any single flipped bit anywhere in the envelope — token, sum,
        // or body — must surface as a typed decode error, never a
        // different (token, request) pair.
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut hurt = framed.clone();
                hurt[byte] ^= 1 << bit;
                match decode_request(&hurt) {
                    Err(_) => {}
                    Ok((t, r)) => panic!("bit {bit} of byte {byte} flipped silently: ({t}, {r:?})"),
                }
            }
        }
        // Every proper prefix of the enveloped frame is typed-rejected.
        for cut in 0..framed.len() {
            assert!(decode_request(&framed[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(envelope_token(&[1, 2, 3]), 0);
    }

    #[test]
    fn frame_reader_respects_a_custom_limit() {
        let body = vec![7u8; 64];
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).expect("vec write");
        let mut rd: &[u8] = &framed;
        assert!(matches!(
            read_frame_limit(&mut rd, 32),
            Ok(Frame::Oversized(64))
        ));
        let mut rd: &[u8] = &framed;
        assert!(matches!(read_frame_limit(&mut rd, 64), Ok(Frame::Body(b)) if b == body));
    }

    #[test]
    fn frame_reader_distinguishes_eof_oversize_and_midframe_cut() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(Frame::Eof)));

        let mut partial_prefix: &[u8] = &[0, 0];
        assert_eq!(
            read_frame(&mut partial_prefix)
                .expect_err("cut inside prefix")
                .kind(),
            io::ErrorKind::UnexpectedEof
        );

        let mut oversized: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut oversized),
            Ok(Frame::Oversized(0xFFFF_FFFF))
        ));
        let mut zero: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(read_frame(&mut zero), Ok(Frame::Oversized(0))));

        let mut cut_body: &[u8] = &[0, 0, 0, 9, 1, 2];
        assert_eq!(
            read_frame(&mut cut_body)
                .expect_err("cut inside body")
                .kind(),
            io::ErrorKind::UnexpectedEof
        );

        let mut ok = Vec::new();
        write_frame(&mut ok, &Request::Ping.encode()).expect("vec write");
        let mut rd: &[u8] = &ok;
        match read_frame(&mut rd).expect("well-formed") {
            Frame::Body(b) => assert_eq!(Request::decode(&b), Ok(Request::Ping)),
            other => panic!("expected a body, got {other:?}"),
        }
    }
}
