//! Protocol battery for the `dict-server` front-end.
//!
//! Three layers of abuse, all against a live server on a loopback port:
//!
//! * **wire fuzz** — truncated frames, oversized length prefixes, garbage
//!   opcodes, and mid-frame disconnects must each produce a typed
//!   `BAD_REQUEST` (or a clean connection close), never a panic, a hang, or
//!   damage to *other* connections;
//! * **oracle** — pipelined mixed get/put/del streams, plus the barrier
//!   operations (`SUCC`/`PRED`/`LEN`), are replayed against a `BTreeMap`
//!   and every response must match — including reads of writes earlier in
//!   the same pipeline;
//! * **degradation** — a quarantined shard answers `DEGRADED` for point
//!   ops it owns and navigation it *could* own (the `try_successor` /
//!   `try_predecessor` routing), and recovers after `RESTORE`; a saturated
//!   queue sheds with `OVERLOADED`. Typed refusals, never silent wrong
//!   answers.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use anti_persistence::dict::{Backend, DictConfig, ServerConfig};
use dict_server::protocol::{decode_response, encode_request, encode_response, frame_sum};
use dict_server::{Client, ClientConfig, Request, Response, Server, ServerOptions, MAX_FRAME};

fn config() -> DictConfig {
    DictConfig {
        backend: Backend::HiPma,
        seed: 0xD1C7,
        shards: 4,
        ..DictConfig::default()
    }
}

fn spawn(config: DictConfig) -> Server {
    Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config,
            persist: None,
        },
    )
    .expect("bind loopback")
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Reads everything until EOF; the server must close, not hang.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read to EOF");
    buf
}

/// A raw frame: length prefix plus enveloped body (valid checksum), so
/// arbitrary `body` bytes reach the request decoder itself.
fn frame(token: u64, body: &[u8]) -> Vec<u8> {
    let mut enveloped = token.to_be_bytes().to_vec();
    enveloped.extend_from_slice(&frame_sum(token, body).to_be_bytes());
    enveloped.extend_from_slice(body);
    let mut out = (enveloped.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&enveloped);
    out
}

/// A request frame ready for the wire: length prefix plus envelope.
fn request_frame(token: u64, req: &Request) -> Vec<u8> {
    let enveloped = encode_request(token, req);
    let mut out = (enveloped.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&enveloped);
    out
}

/// Parses the first enveloped response out of raw reply bytes.
fn parse_reply(reply: &[u8]) -> (u64, Response) {
    assert!(reply.len() >= 4, "no length prefix in {reply:?}");
    let len = u32::from_be_bytes([reply[0], reply[1], reply[2], reply[3]]) as usize;
    assert!(reply.len() >= 4 + len, "torn reply frame {reply:?}");
    decode_response(&reply[4..4 + len]).expect("reply decodes")
}

/// Reads exactly one response frame off a raw stream.
fn read_reply(stream: &mut TcpStream) -> (u64, Response) {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("reply prefix");
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("reply body");
    decode_response(&body).expect("reply decodes")
}

/// The malformed-input sweep: every abusive byte stream gets its own fresh
/// connection; afterwards a well-formed client still works, proving the
/// abuse never took the server down.
#[test]
fn wire_fuzz_never_panics_and_never_poisons_other_connections() {
    let mut server = spawn(config());
    let addr = server.addr();

    // Mid-frame disconnects: cut a valid PUT frame at every byte boundary.
    let put = request_frame(7, &Request::Put { key: 9, value: 9 });
    for cut in 0..put.len() {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&put[..cut]).expect("partial write");
        drop(s); // disconnect mid-frame
    }

    // Single-byte corruption of a valid frame: every flipped byte past the
    // length prefix must refuse typed (the envelope checksum catches what
    // the opcode grammar alone would let through).
    for hurt_at in 4..put.len() {
        let mut hurt = put.clone();
        hurt[hurt_at] ^= 0x40;
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&hurt).expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let reply = drain(&mut s);
        let (_, resp) = parse_reply(&reply);
        assert!(
            matches!(resp, Response::BadRequest(_)),
            "byte {hurt_at} corrupt, got {resp:?}"
        );
    }

    // Truncated body: the length prefix promises more bytes than ever
    // arrive, then the write side shuts down. The server must give up on
    // the connection (EOF/close), not block forever waiting for the rest.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&frame(1, &[0x01u8; 32])[..20]).expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        drain(&mut s);
    }

    // Oversized length prefix: rejected typed *without* reading the body.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&((MAX_FRAME as u32) * 16).to_be_bytes())
            .expect("write");
        let reply = drain(&mut s);
        let (_, resp) = parse_reply(&reply);
        assert!(matches!(resp, Response::BadRequest(_)), "got {resp:?}");
    }

    // Garbage opcodes and malformed bodies (wrapped in a *valid* envelope
    // so they reach the request decoder): typed BAD_REQUEST, then close.
    let mut state = 0xF00Du64;
    for len in [0usize, 1, 2, 7, 9, 17, 64] {
        let body: Vec<u8> = (0..len).map(|_| (lcg(&mut state) | 0x40) as u8).collect();
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&frame(9, &body)).expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let reply = drain(&mut s);
        let (token, resp) = parse_reply(&reply);
        assert!(
            matches!(resp, Response::BadRequest(_)),
            "body {body:?} got {resp:?}"
        );
        // The refusal echoes the offending frame's token for correlation.
        assert_eq!(token, 9, "body {body:?}");
    }

    // The server survived all of it.
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("ping after fuzz");
    c.put(1, 2).expect("put after fuzz");
    assert_eq!(c.get(1).expect("get after fuzz"), Some(2));
    server.shutdown();
}

/// Pipelined mixed streams vs a `BTreeMap` oracle, one connection: the
/// responses must arrive in request order and every read must observe all
/// earlier writes on the same connection, across epoch boundaries.
#[test]
fn pipelined_mixed_stream_matches_btreemap_oracle() {
    let mut cfg = config();
    // Each 512-deep drain arrives as one burst, so the connection applies
    // it in epochs of `epoch_ops`: many ops share a batch, and the
    // oracle checks reads-of-this-epoch-writes through the overlay path.
    cfg.server = ServerConfig {
        epoch_ops: 64,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    let mut c = Client::connect(server.addr()).expect("connect");

    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut expected: Vec<Response> = Vec::new();
    let mut state = 0x5EEDu64;
    for i in 0..4_000u64 {
        let k = lcg(&mut state) % 257;
        let req = match lcg(&mut state) % 10 {
            0..=4 => {
                expected.push(match oracle.get(&k) {
                    Some(&v) => Response::Value(v),
                    None => Response::NotFound,
                });
                Request::Get { key: k }
            }
            5..=7 => {
                oracle.insert(k, i);
                expected.push(Response::Done);
                Request::Put { key: k, value: i }
            }
            8 => {
                oracle.remove(&k);
                expected.push(Response::Done);
                Request::Del { key: k }
            }
            _ => {
                // Barriers mixed into the pipeline: SUCC/PRED/LEN commit
                // the pending batch first, so they see every prior write.
                // successor = smallest key ≥ probe, predecessor = largest ≤.
                match lcg(&mut state) % 3 {
                    0 => {
                        expected.push(match oracle.range(k..).next() {
                            Some((&sk, &sv)) => Response::Entry(sk, sv),
                            None => Response::NotFound,
                        });
                        Request::Succ { key: k }
                    }
                    1 => {
                        expected.push(match oracle.range(..=k).next_back() {
                            Some((&pk, &pv)) => Response::Entry(pk, pv),
                            None => Response::NotFound,
                        });
                        Request::Pred { key: k }
                    }
                    _ => {
                        expected.push(Response::Count(oracle.len() as u64));
                        Request::Len
                    }
                }
            }
        };
        c.send(&req).expect("send");
        // Partial drains keep the pipeline deep but bounded.
        if i % 512 == 511 {
            c.flush().expect("flush");
            for (j, want) in expected.drain(..).enumerate() {
                let got = c.recv().expect("recv");
                assert_eq!(got, want, "op {} of this drain", j);
            }
        }
    }
    c.flush().expect("flush");
    for want in expected.drain(..) {
        assert_eq!(c.recv().expect("recv"), want);
    }
    server.shutdown();
}

/// A barrier never overtakes the write it follows, wherever the epoch
/// boundaries fall. `PUT new; LEN` pairs put consecutive stamps into a
/// shard queue and the barrier queue, and a small `epoch_ops` cuts an
/// epoch in the middle of every burst. A connection drains its own queues;
/// the race between a drain and *another* connection's enqueue is driven
/// by `server::tests::racing_leaders_answer_everything_before_release_returns`.
#[test]
fn a_barrier_never_overtakes_the_write_before_it() {
    let mut cfg = config();
    cfg.server = ServerConfig {
        epoch_ops: 2,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    let mut c = Client::connect(server.addr()).expect("connect");
    const WINDOW: u64 = 256;
    const PAIRS: u64 = 120 * WINDOW;
    for k in 0..PAIRS {
        c.send(&Request::Put { key: k, value: k }).expect("send");
        c.send(&Request::Len).expect("send");
        if (k + 1) % WINDOW == 0 {
            c.flush().expect("flush");
            for j in k + 1 - WINDOW..=k {
                assert_eq!(c.recv().expect("recv"), Response::Done, "put {j}");
                assert_eq!(c.recv().expect("recv"), Response::Count(j + 1), "len {j}");
            }
        }
    }
    server.shutdown();
}

/// Quarantine semantics over the wire: point ops on the down shard refuse
/// typed, navigation that could land there refuses typed, exact hits and
/// provably-complete answers still flow, and `RESTORE` heals it — all via
/// protocol ops, exercising the `&self` restore path under the server's
/// read lock.
#[test]
fn quarantined_shard_refuses_typed_over_the_wire_and_restores() {
    let mut server = spawn(config());
    let mut c = Client::connect(server.addr()).expect("connect");

    // Keys 0, 10, …, 630 spread over 4 shards by ShardRouter. The gaps
    // let navigation probes distinguish exact hits (provably complete even
    // with a shard down) from between-key probes (the down shard could own
    // the true answer).
    for k in 0..64u64 {
        c.put(k * 10, k + 100).expect("put");
    }

    let quarantine = |c: &mut Client, shard: u64| {
        let resp = c
            .request(&Request::Quarantine {
                shard,
                reason: "battery".to_string(),
            })
            .expect("quarantine");
        assert_eq!(resp, Response::Done);
    };
    let restore = |c: &mut Client, shard: u64| {
        assert_eq!(
            c.request(&Request::Restore { shard }).expect("restore"),
            Response::Done
        );
    };

    quarantine(&mut c, 2);
    let (shards, down) = c.health().expect("health");
    assert_eq!(shards, 4);
    assert_eq!(down.len(), 1);
    assert_eq!(down[0].0, 2);
    assert!(down[0].1.contains("battery"), "{:?}", down[0].1);

    let mut degraded_gets = 0usize;
    let mut exact_hits = 0usize;
    let mut degraded_navs = 0usize;
    for k in 0..64u64 {
        match c.request(&Request::Get { key: k * 10 }).expect("get") {
            Response::Degraded { reason, .. } => {
                degraded_gets += 1;
                assert!(reason.contains("battery"), "{reason}");
                // Writes to the same key must refuse too — a dropped write
                // would be a silent wrong answer later.
                match c
                    .request(&Request::Put {
                        key: k * 10,
                        value: 0,
                    })
                    .expect("put")
                {
                    Response::Degraded { .. } => {}
                    other => panic!("put on down shard answered {other:?}"),
                }
            }
            Response::Value(v) => assert_eq!(v, k + 100),
            other => panic!("get({k}) answered {other:?}"),
        }
        // An exact hit on a healthy shard is provably complete (each key
        // lives on exactly one shard); it must flow even while shard 2 is
        // down. A hit owned by the down shard, or a between-key probe (the
        // true answer could live on the down shard), must refuse.
        match c.request(&Request::Succ { key: k * 10 }).expect("succ") {
            Response::Entry(sk, sv) => {
                assert_eq!((sk, sv), (k * 10, k + 100), "probe {k}");
                exact_hits += 1;
            }
            Response::Degraded { .. } => degraded_navs += 1,
            other => panic!("succ({}) answered {other:?}", k * 10),
        }
        match c.request(&Request::Succ { key: k * 10 + 5 }).expect("succ") {
            Response::Degraded { .. } => degraded_navs += 1,
            other => panic!(
                "between-key succ({}) must refuse while a shard is down, got {other:?}",
                k * 10 + 5
            ),
        }
    }
    assert!(degraded_gets > 0, "shard 2 owned no probed key");
    assert!(exact_hits > 0, "no exact-hit navigation flowed");
    assert!(
        degraded_navs > 0,
        "no navigation could have landed on shard 2"
    );
    // Past-the-end and between-key pred probes could be owned by the down
    // shard: both must refuse.
    assert!(matches!(
        c.request(&Request::Succ { key: 1 << 40 }).expect("succ"),
        Response::Degraded { .. }
    ));
    assert!(matches!(
        c.request(&Request::Pred { key: 5 }).expect("pred"),
        Response::Degraded { .. }
    ));

    restore(&mut c, 2);
    assert!(c.health().expect("health").1.is_empty());
    for k in 0..64u64 {
        assert_eq!(c.get(k * 10).expect("get"), Some(k + 100), "after restore");
    }

    // Out-of-range shard indices refuse typed instead of panicking.
    assert!(matches!(
        c.request(&Request::Quarantine {
            shard: 99,
            reason: "x".to_string()
        })
        .expect("quarantine"),
        Response::BadRequest(_)
    ));
    server.shutdown();
}

/// Backpressure: a queue bound of 1 sheds pipelined requests with
/// `OVERLOADED` — a typed refusal the client can retry — while everything
/// admitted is answered correctly. No timer holds the epoch back: the N
/// frames leave in one `write`, so the connection finds them in one buffer
/// and queues them all before it releases any. The first is
/// always admitted (the queue is empty); how the kernel cuts the bytes
/// into reads is not ours to fix, so the count of the rest is not pinned.
#[test]
fn saturated_queues_shed_typed_overloaded() {
    let mut cfg = config();
    cfg.shards = 1;
    cfg.server = ServerConfig {
        queue_bound: 1,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    let mut s = TcpStream::connect(server.addr()).expect("connect");

    const N: u64 = 50;
    let burst: Vec<u8> = (0..N)
        .flat_map(|k| request_frame(k + 1, &Request::Put { key: k, value: k }))
        .collect();
    s.write_all(&burst).expect("one write");
    let mut done = 0usize;
    let mut shed = 0usize;
    for k in 0..N {
        let (token, resp) = read_reply(&mut s);
        assert_eq!(token, k + 1, "responses in arrival order");
        match resp {
            Response::Done => done += 1,
            Response::Overloaded => {
                assert!(k > 0, "the first put found an empty queue");
                shed += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        shed > 0,
        "bound-1 queue never shed across {N} pipelined puts"
    );
    assert!(done > 0, "admitted requests must still complete");
    // Exactly the admitted puts applied.
    let mut c = Client::connect(server.addr()).expect("connect");
    assert_eq!(
        c.request(&Request::Len).expect("len"),
        Response::Count(done as u64)
    );
    server.shutdown();
}

/// A raw connection with a read timeout, so a liveness failure in the
/// release rule surfaces as a failed read rather than a hung test.
fn raw(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s
}

/// Release rule, liveness: whole frames followed by the first half of
/// another are answered *before* the second half is sent — the connection
/// releases what it has queued when its buffer runs short of the next
/// frame, because the read that follows may block for as long as the peer
/// likes.
#[test]
fn whole_frames_before_a_split_frame_are_answered_before_the_rest_arrives() {
    let mut server = spawn(config());
    let mut s = raw(&server);
    let split = request_frame(3, &Request::Put { key: 2, value: 20 });
    for cut in [2, 4, 10, split.len() - 1] {
        let mut first = request_frame(1, &Request::Put { key: 1, value: 10 });
        first.extend(request_frame(2, &Request::Get { key: 1 }));
        first.extend_from_slice(&split[..cut]);
        s.write_all(&first).expect("first write");
        assert_eq!(read_reply(&mut s), (1, Response::Done), "cut {cut}");
        assert_eq!(read_reply(&mut s), (2, Response::Value(10)), "cut {cut}");
        s.write_all(&split[cut..]).expect("second write");
        assert_eq!(read_reply(&mut s), (3, Response::Done), "cut {cut}");
    }
    server.shutdown();
}

/// Release rule, liveness: with room for one response in flight the
/// connection finds its ring full at every second frame, and must release
/// — apply and write the one answer it owes — before it parses on. A
/// 256-deep pipeline still completes with every answer right.
#[test]
fn inflight_bound_of_one_still_drains_a_deep_pipeline() {
    let mut cfg = config();
    cfg.server = ServerConfig {
        inflight_bound: 1,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    let mut c = Client::connect(server.addr()).expect("connect");
    for i in 0..256u64 {
        let req = match i % 2 {
            0 => Request::Put { key: i, value: i },
            _ => Request::Get { key: i - 1 },
        };
        c.send(&req).expect("send");
    }
    c.flush().expect("flush");
    for i in 0..256u64 {
        let want = match i % 2 {
            0 => Response::Done,
            _ => Response::Value(i - 1),
        };
        assert_eq!(c.recv().expect("recv"), want, "op {i}");
    }
    server.shutdown();
}

/// The open-loop shape: one thread sends without ever pausing while another
/// receives. A connection is one thread, so it must keep applying and writing
/// between its reads; a small `inflight_bound` makes it do so mid-buffer too.
#[test]
fn a_sender_that_never_pauses_is_answered_in_order() {
    const N: u64 = 20_000;
    let mut cfg = config();
    cfg.server = ServerConfig {
        inflight_bound: 64,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    let mut s = raw(&server);
    let mut sender = s.try_clone().expect("clone");
    let sending = std::thread::spawn(move || {
        for k in 0..N {
            let req = match k % 2 {
                0 => Request::Put { key: k, value: k },
                _ => Request::Get { key: k - 1 },
            };
            sender.write_all(&request_frame(k + 1, &req)).expect("send");
        }
    });
    for k in 0..N {
        let want = match k % 2 {
            0 => Response::Done,
            _ => Response::Value(k - 1),
        };
        assert_eq!(read_reply(&mut s), (k + 1, want));
    }
    sending.join().expect("sender");
    assert_eq!(server.epoch_stats().1, N);
    server.shutdown();
}

/// Release rule, every exit path: a connection that has queued tickets and
/// then leaves — peer gone mid-frame, oversized prefix, bad checksum —
/// releases them on the way out, so they are applied and answered.
#[test]
fn tickets_queued_before_a_reader_exits_are_still_applied() {
    let mut server = spawn(config());
    let mut bad_sum = request_frame(99, &Request::Ping);
    let last = bad_sum.len() - 1;
    bad_sum[last] ^= 0x40;
    let exits: [(&str, Vec<u8>, bool); 3] = [
        (
            "mid-frame cut",
            request_frame(99, &Request::Ping)[..7].to_vec(),
            false,
        ),
        (
            "oversized prefix",
            ((MAX_FRAME as u32) * 16).to_be_bytes().to_vec(),
            true,
        ),
        ("bad checksum", bad_sum, true),
    ];
    let mut want_len = 0u64;
    for (case, (name, tail, refused)) in exits.into_iter().enumerate() {
        let base = case as u64 * 100;
        let mut bytes: Vec<u8> = (0..8u64)
            .flat_map(|k| {
                request_frame(
                    k + 1,
                    &Request::Put {
                        key: base + k,
                        value: k,
                    },
                )
            })
            .collect();
        bytes.extend(tail);
        let mut s = raw(&server);
        s.write_all(&bytes).expect("one write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        for k in 0..8u64 {
            assert_eq!(read_reply(&mut s), (k + 1, Response::Done), "{name}");
        }
        if refused {
            let (_, resp) = read_reply(&mut s);
            assert!(matches!(resp, Response::BadRequest(_)), "{name}: {resp:?}");
        }
        assert!(drain(&mut s).is_empty(), "{name}: the server closes");
        want_len += 8;

        let mut c = Client::connect(server.addr()).expect("second connection");
        for k in 0..8u64 {
            assert_eq!(c.get(base + k).expect("get"), Some(k), "{name}");
        }
        assert_eq!(
            c.request(&Request::Len).expect("len"),
            Response::Count(want_len),
            "{name}"
        );
    }
    server.shutdown();
}

/// Release rule, batching: a burst that arrives in one `write` is applied
/// a buffer at a time, not a frame at a time, while
/// synchronous requests get an epoch each. This is the property the
/// pipelined throughput rests on, pinned by counting epochs — no timer.
#[test]
fn a_burst_shares_epochs_and_synchronous_requests_do_not() {
    let mut server = spawn(config());
    assert_eq!(server.epoch_stats(), (0, 0), "idle server");

    const N: u64 = 512;
    let mut s = raw(&server);
    let burst: Vec<u8> = (0..N)
        .flat_map(|k| request_frame(k + 1, &Request::Put { key: k, value: k }))
        .collect();
    s.write_all(&burst).expect("one write");
    for k in 0..N {
        assert_eq!(read_reply(&mut s), (k + 1, Response::Done));
    }
    let (epochs, tickets) = server.epoch_stats();
    assert_eq!(tickets, N);
    assert!(
        (1..=4).contains(&epochs),
        "{N} puts in one write took {epochs} epochs"
    );

    let mut c = Client::connect(server.addr()).expect("connect");
    for k in 0..N {
        c.put(k, k + 1).expect("put");
    }
    let (epochs_after, tickets_after) = server.epoch_stats();
    assert_eq!(tickets_after - tickets, N);
    assert_eq!(
        epochs_after - epochs,
        N,
        "a synchronous request is alone in its epoch"
    );
    server.shutdown();
}

/// Connection churn does not grow the server: the acceptor reaps the
/// finished threads of past connections each time it accepts, so the
/// handles it holds follow the live connections. Four hundred
/// open-ping-close connections in a row — never more than one alive — must
/// leave a handful of handles, not four hundred.
#[test]
fn connection_churn_does_not_accumulate_thread_handles() {
    let mut server = spawn(config());
    let mut most = 0usize;
    for _ in 0..400 {
        let mut c = Client::connect(server.addr()).expect("connect");
        c.ping().expect("ping");
        drop(c);
        most = most.max(server.conn_threads());
    }
    assert!(
        most <= 32,
        "{most} connection-thread handles held with one connection alive at a time"
    );
    server.shutdown();
    assert_eq!(server.conn_threads(), 0, "shutdown joins the rest");
}

/// A peer that pipelines past the socket buffers and never reads blocks its
/// own connection thread, in a write that holds no lock, and is severed
/// once that write has waited `write_timeout`: a second connection is
/// answered while the first is stuck, and the first is cut off (reset)
/// within `write_timeout` of the moment its buffers filled.
#[test]
fn a_peer_that_never_reads_is_severed_within_write_timeout_and_stalls_no_one() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    const WRITE_TIMEOUT: Duration = Duration::from_millis(1_500);
    let mut cfg = config();
    cfg.server = ServerConfig {
        write_timeout: WRITE_TIMEOUT,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    // 2^20 PINGs: 21 MiB of answers, several times what the loopback send
    // and receive buffers of one connection hold.
    let ping = request_frame(1, &Request::Ping);
    let burst: Vec<u8> = ping
        .iter()
        .copied()
        .cycle()
        .take(ping.len() << 20)
        .collect();
    let mut hog = TcpStream::connect(server.addr()).expect("connect");
    let sent = Arc::new(AtomicUsize::new(0));
    let sending = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            for chunk in burst.chunks(64 << 10) {
                if hog.write_all(chunk).is_err() {
                    return Some(Instant::now());
                }
                sent.fetch_add(chunk.len(), Ordering::Relaxed);
            }
            None
        })
    };
    // Stuck: nothing more has left the sender for 200 ms.
    let stuck = loop {
        let before = sent.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(200));
        if sent.load(Ordering::Relaxed) == before {
            break Instant::now();
        }
    };
    assert!(
        !sending.is_finished(),
        "the whole burst was taken: no backpressure"
    );

    let mut c = Client::connect(server.addr()).expect("second connection");
    for k in 0..200u64 {
        c.put(k, k + 1).expect("put");
        assert_eq!(c.get(k).expect("get"), Some(k + 1));
    }
    assert!(
        !sending.is_finished(),
        "the second connection was served only after the first was severed"
    );

    let severed = sending
        .join()
        .expect("sender")
        .expect("a peer that never reads is severed, so its sends fail");
    let waited = severed.saturating_duration_since(stuck);
    assert!(
        waited <= WRITE_TIMEOUT + Duration::from_millis(500),
        "severed {waited:?} after the buffers filled (write_timeout {WRITE_TIMEOUT:?})"
    );
    assert_eq!(c.get(7).expect("still served"), Some(8));
    server.shutdown();
}

/// Shutdown answers every in-flight request: a pipeline cut off by server
/// shutdown receives only typed responses (possibly `UNAVAILABLE`), and the
/// stream ends with EOF rather than a hang or a torn frame.
#[test]
fn shutdown_answers_or_refuses_every_inflight_request() {
    let mut server = spawn(config());
    let mut c = Client::connect(server.addr()).expect("connect");
    for k in 0..256u64 {
        c.send(&Request::Put { key: k, value: k }).expect("send");
    }
    c.flush().expect("flush");
    server.shutdown();
    let mut answered = 0usize;
    loop {
        match c.recv() {
            Ok(Response::Done) | Ok(Response::Unavailable(_)) => answered += 1,
            Ok(other) => panic!("unexpected {other:?}"),
            Err(_) => break, // clean EOF once the server finishes draining
        }
        if answered == 256 {
            break;
        }
    }
    // Anything unanswered must be due to the connection closing — never a
    // wrong answer; and the server must not leave the writer mid-frame.
}

/// The response-direction mirror of the wire fuzz: a fake server answers a
/// real client's GET with every truncation and every single-byte
/// corruption of a valid `VALUE` frame. Each abuse must surface as a
/// *typed* client error — never `Ok` with a wrong value, never a panic,
/// never a hang.
#[test]
fn response_truncation_and_corruption_surface_typed_on_the_client() {
    // The canonical response a fresh anonymous client would be owed for
    // its first request (token 1 — the client's counter starts there).
    let canonical = {
        let enveloped = encode_response(1, &Response::Value(42));
        let mut out = (enveloped.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&enveloped);
        out
    };

    // Every proper prefix, plus every single-byte corruption.
    let mut abuses: Vec<Vec<u8>> = (0..canonical.len())
        .map(|cut| canonical[..cut].to_vec())
        .collect();
    for hurt_at in 0..canonical.len() {
        let mut hurt = canonical.clone();
        hurt[hurt_at] ^= 0x10;
        abuses.push(hurt);
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let total = abuses.len();
    let fake = std::thread::spawn(move || {
        for abuse in abuses {
            let (mut s, _) = listener.accept().expect("accept");
            // Read the client's one request frame, then answer abusively
            // and close.
            let mut prefix = [0u8; 4];
            s.read_exact(&mut prefix).expect("request prefix");
            let len = u32::from_be_bytes(prefix) as usize;
            let mut body = vec![0u8; len];
            s.read_exact(&mut body).expect("request body");
            s.write_all(&abuse).expect("write abuse");
        }
    });

    let cfg = ClientConfig {
        read_timeout: Duration::from_millis(300),
        ..ClientConfig::default()
    };
    for case in 0..total {
        let mut c = Client::connect_with(addr, cfg).expect("connect");
        match c.request(&Request::Get { key: 1 }) {
            Err(_) => {} // typed: Decode, Timeout, ServerReset, Desync, …
            Ok(resp) => panic!("abuse case {case} produced an answer: {resp:?}"),
        }
    }
    fake.join().expect("fake server");
}

/// Dedup-window eviction over the wire: with a window of 4, a token reused
/// five mutations later has been evicted (the resend re-applies), while a
/// token still inside the window is suppressed and its retained response
/// replayed.
#[test]
fn dedup_window_suppresses_inside_and_evicts_past_the_window() {
    let mut cfg = config();
    cfg.server = ServerConfig {
        dedup_window: 4,
        ..cfg.server
    };
    let mut server = spawn(cfg);
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let roundtrip = |s: &mut TcpStream, token: u64, req: &Request| -> Response {
        let enveloped = encode_request(token, req);
        let mut out = (enveloped.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&enveloped);
        s.write_all(&out).expect("write");
        let (got, resp) = read_reply(s);
        assert_eq!(got, token, "response correlates");
        resp
    };

    // Bind an identity, then burn tokens 2..=6 on five distinct PUTs —
    // token 2 falls out of the 4-deep window when token 6 lands.
    assert_eq!(
        roundtrip(&mut s, 1, &Request::Hello { client: 77 }),
        Response::Done
    );
    for t in 2..=6u64 {
        assert_eq!(
            roundtrip(
                &mut s,
                t,
                &Request::Put {
                    key: t,
                    value: 100 + t
                }
            ),
            Response::Done
        );
    }

    // Token 2 was evicted: its "retry" with a different payload applies.
    assert_eq!(
        roundtrip(&mut s, 2, &Request::Put { key: 2, value: 999 }),
        Response::Done
    );
    assert_eq!(
        roundtrip(&mut s, 100, &Request::Get { key: 2 }),
        Response::Value(999),
        "evicted token re-applied"
    );

    // Token 6 is still inside the window: the retained response replays
    // and the conflicting payload is NOT applied.
    assert_eq!(
        roundtrip(&mut s, 6, &Request::Put { key: 6, value: 0 }),
        Response::Done
    );
    assert_eq!(
        roundtrip(&mut s, 101, &Request::Get { key: 6 }),
        Response::Value(106),
        "in-window token suppressed"
    );

    // Anonymous connections (no HELLO) get no dedup: the same token
    // re-applies freely.
    let mut anon = TcpStream::connect(server.addr()).expect("connect anon");
    anon.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert_eq!(
        roundtrip(&mut anon, 5, &Request::Put { key: 50, value: 1 }),
        Response::Done
    );
    assert_eq!(
        roundtrip(&mut anon, 5, &Request::Put { key: 50, value: 2 }),
        Response::Done
    );
    assert_eq!(
        roundtrip(&mut anon, 6, &Request::Get { key: 50 }),
        Response::Value(2),
        "anonymous retries are not deduped"
    );
    server.shutdown();
}
