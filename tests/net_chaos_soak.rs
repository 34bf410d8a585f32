//! Network chaos soak: every deterministic wire-fault kind, injected on
//! both relay directions through a [`ChaosProxy`], against a retrying
//! exactly-once client.
//!
//! Each cell spawns a fresh persistent server, runs a two-pass mutation
//! script through the proxy with a HELLO-bound retrying client, then
//! checks the **exactly-once oracle** over a clean direct connection:
//!
//! 1. every *acked* write is present exactly once — its effect is the
//!    final state of its key, never resurrected by a late duplicate and
//!    never double-applied;
//! 2. every *failed* write (retry budget exhausted) is whole-or-absent —
//!    the key holds exactly the before-state or exactly the after-state,
//!    never a mixture, and later acked ops override either;
//! 3. the post-chaos `FLUSH` image is **byte-identical** to a fault-free
//!    single-threaded rebuild of the read-back contents — chaos must not
//!    leak arrival history into the at-rest layout.
//!
//! Satellite batteries pin the sharper edges: FLUSH-generation replay
//! (same token, same generation), PUT non-resurrection across a DEL,
//! pipelined arrival-order under frame duplication, the idle-connection
//! reaper (and PING as its keepalive), and pipelined bursts through a
//! tiny in-flight bound.
//!
//! Setting `CHAOS_SMOKE=1` shrinks the sweep for CI; every fault index
//! and seed is fixed either way, so each cell replays bit-identically.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use anti_persistence::dict::{Backend, Dict, DictConfig, ServerConfig};
use anti_persistence::prelude::*;
use block_store::temp_path;
use dict_server::protocol::{decode_response, encode_request, read_frame, Frame};
use dict_server::{
    ChaosProxy, Client, ClientConfig, NetFault, NetFaultPlan, Request, Response, Server,
    ServerOptions,
};

const SEED: u64 = 0xC4A05;
const BLOCK: usize = 512;
/// Keys touched by each cell's script (two passes over `0..KEYS`).
const KEYS: u64 = 40;

fn smoke() -> bool {
    std::env::var("CHAOS_SMOKE").is_ok()
}

fn config() -> DictConfig {
    DictConfig {
        backend: Backend::HiPma,
        seed: SEED,
        shards: 4,
        ..DictConfig::default()
    }
}

fn open(path: &std::path::Path) -> PersistentDict {
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(SEED)
        .build_persistent_with(path, StoreOptions::new(BLOCK).no_sync())
        .unwrap()
}

fn drop_paths(data: &std::path::Path, journal: &std::path::Path) {
    let _ = std::fs::remove_file(data);
    let _ = std::fs::remove_file(journal);
}

/// A client armed for chaos: HELLO-bound identity, short deadline, a
/// count-based retry budget. Connecting itself races the armed fault
/// (HELLO is frame 0), so the helper retries the connect a few times —
/// one-shot faults burn their frame index on the first attempt.
fn chaos_client(addr: SocketAddr, id: u64) -> Option<Client> {
    let cfg = ClientConfig {
        client_id: id,
        read_timeout: Duration::from_millis(150),
        retry_budget: 5,
        backoff: Duration::from_millis(5),
        ..ClientConfig::default()
    };
    for _ in 0..3 {
        if let Ok(c) = Client::connect_with(addr, cfg) {
            return Some(c);
        }
    }
    None
}

/// The value pass A writes to key `k`.
fn pass_a_value(k: u64) -> u64 {
    1_000 + k
}

/// Pass B's op on key `k`: delete every third key, overwrite the rest.
fn pass_b(k: u64) -> Request {
    if k.is_multiple_of(3) {
        Request::Del { key: k }
    } else {
        Request::Put {
            key: k,
            value: 2_000 + k,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Acked,
    Failed,
    /// Never attempted: a previous op exhausted its budget and the script
    /// stopped (the supervised-client give-up).
    Skipped,
}

/// What `op` leaves behind at its key when applied.
fn apply(op: &Request) -> Option<u64> {
    match *op {
        Request::Put { value, .. } => Some(value),
        Request::Del { .. } => None,
        _ => unreachable!("script ops are writes"),
    }
}

/// The exactly-once candidate set for one key, given the outcomes of its
/// two script ops: acked ops collapse the set (definitely applied exactly
/// once), failed ops fork it (whole-or-absent), skipped ops leave it.
fn candidates(k: u64, a: Outcome, b: Outcome) -> Vec<Option<u64>> {
    let mut set: Vec<Option<u64>> = vec![None];
    for (op, out) in [
        (
            Request::Put {
                key: k,
                value: pass_a_value(k),
            },
            a,
        ),
        (pass_b(k), b),
    ] {
        match out {
            Outcome::Acked => set = vec![apply(&op)],
            Outcome::Failed => {
                let forked = apply(&op);
                if !set.contains(&forked) {
                    set.push(forked);
                }
            }
            Outcome::Skipped => {}
        }
    }
    set
}

/// One chaos cell: `fault` armed on one direction. Returns
/// `(acked, failed)` write counts for the battery-wide tally.
fn run_cell(name: &str, fault: NetFault, client_to_server: bool) -> (usize, usize) {
    let path = temp_path(&format!("net-chaos-{name}"));
    let dict = open(&path);
    let (data, journal) = (
        dict.store().path().to_path_buf(),
        dict.store().journal_path().to_path_buf(),
    );
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: config(),
            persist: Some(dict),
        },
    )
    .expect("bind loopback");

    let plan = NetFaultPlan::new(vec![fault]);
    let (c2s, s2c) = if client_to_server {
        (plan.clone(), NetFaultPlan::none())
    } else {
        (NetFaultPlan::none(), plan.clone())
    };
    let mut proxy = ChaosProxy::spawn(server.addr(), c2s, s2c).expect("proxy spawns");

    // The chaos phase: two write passes over the keyspace, each op
    // retried under its budget. The script stops at the first exhausted
    // op (a supervised client gives up rather than queueing blind).
    let mut a = vec![Outcome::Skipped; KEYS as usize];
    let mut b = vec![Outcome::Skipped; KEYS as usize];
    'chaos: {
        let Some(mut c) = chaos_client(proxy.addr(), 0xC11E47) else {
            break 'chaos; // connect lost the race with a sticky fault
        };
        for k in 0..KEYS {
            a[k as usize] = match c.put(k, pass_a_value(k)) {
                Ok(()) => Outcome::Acked,
                Err(_) => Outcome::Failed,
            };
            if a[k as usize] == Outcome::Failed {
                break 'chaos;
            }
            // Interleaved reads keep response frames flowing on the s2c
            // direction; their answers are checked at readback instead.
            if k % 5 == 0 && c.get(k).is_err() {
                break 'chaos;
            }
        }
        for k in 0..KEYS {
            b[k as usize] = match c.roundtrip(&pass_b(k)) {
                Ok(Response::Done) => Outcome::Acked,
                Ok(other) => panic!("{name}: write acked {other:?}"),
                Err(_) => Outcome::Failed,
            };
            if b[k as usize] == Outcome::Failed {
                break 'chaos;
            }
        }
    }
    assert!(
        plan.frames_seen() > 0,
        "{name}: the chaos direction relayed no frames"
    );
    proxy.shutdown();
    // A delayed frame can still be in flight between the relay's EOF
    // flush and the server's epoch engine; let it land before snapshotting.
    std::thread::sleep(Duration::from_millis(100));

    // Readback over a clean direct connection: every key must hold one of
    // its exactly-once candidates.
    let mut direct = Client::connect(server.addr()).expect("direct connect");
    let mut observed = BTreeMap::new();
    let mut acked = 0usize;
    let mut failed = 0usize;
    for k in 0..KEYS {
        let got = direct.get(k).expect("direct get");
        let set = candidates(k, a[k as usize], b[k as usize]);
        assert!(
            set.contains(&got),
            "{name}: key {k} holds {got:?}, outside its exactly-once \
             candidate set {set:?}"
        );
        if let Some(v) = got {
            observed.insert(k, v);
        }
        for out in [a[k as usize], b[k as usize]] {
            match out {
                Outcome::Acked => acked += 1,
                Outcome::Failed => failed += 1,
                Outcome::Skipped => {}
            }
        }
    }

    // Byte-identity: the post-chaos FLUSH image equals a fault-free
    // single-threaded rebuild of the observed contents.
    let generation = direct.flush_store().expect("post-chaos flush");
    assert!(generation > 0);
    server.shutdown();
    drop(server);
    let served_bytes = std::fs::read(&data).expect("read served image");

    let ref_path = temp_path(&format!("net-chaos-ref-{name}"));
    let mut reference = open(&ref_path);
    for (&k, &v) in &observed {
        reference.insert(k, v);
    }
    reference.flush().expect("reference flush");
    let (ref_data, ref_journal) = (
        reference.store().path().to_path_buf(),
        reference.store().journal_path().to_path_buf(),
    );
    drop(reference);
    let reference_bytes = std::fs::read(&ref_data).expect("read reference image");
    assert_eq!(
        served_bytes, reference_bytes,
        "{name}: chaos leaked into the at-rest layout"
    );

    drop_paths(&data, &journal);
    drop_paths(&ref_data, &ref_journal);
    (acked, failed)
}

/// The fault matrix: every kind, at a spread of frame indexes. Smoke mode
/// keeps one site per kind.
fn fault_cells() -> Vec<(String, NetFault)> {
    let sites: &[u64] = if smoke() { &[6] } else { &[1, 6, 33] };
    let mut cells = Vec::new();
    for &at in sites {
        cells.push((format!("drop-{at}"), NetFault::Drop { at }));
        cells.push((format!("dup-{at}"), NetFault::Duplicate { at }));
        cells.push((
            format!("trunc-prefix-{at}"),
            NetFault::Truncate { at, bytes: 2 },
        ));
        cells.push((
            format!("trunc-envelope-{at}"),
            NetFault::Truncate { at, bytes: 9 },
        ));
        cells.push((
            format!("trunc-body-{at}"),
            NetFault::Truncate { at, bytes: 14 },
        ));
        cells.push((format!("delay-{at}"), NetFault::Delay { at, hold: 3 }));
        cells.push((format!("reset-{at}"), NetFault::Reset { at }));
        cells.push((format!("stall-{at}"), NetFault::Stall { at }));
    }
    cells.push((
        "bitflip".into(),
        NetFault::BitFlip {
            seed: 0xB17,
            one_in: 9,
        },
    ));
    if !smoke() {
        cells.push((
            "bitflip-dense".into(),
            NetFault::BitFlip {
                seed: 0x5EED,
                one_in: 4,
            },
        ));
    }
    cells
}

/// The main soak: every fault kind × injection site × both directions,
/// each cell checked against the exactly-once oracle and the byte-identity
/// invariant.
#[test]
fn every_wire_fault_cell_preserves_exactly_once() {
    let mut acked = 0usize;
    let mut failed = 0usize;
    for (name, fault) in fault_cells() {
        for (dir, c2s) in [("c2s", true), ("s2c", false)] {
            let (a, f) = run_cell(&format!("{name}-{dir}"), fault, c2s);
            acked += a;
            failed += f;
        }
    }
    // The battery must exercise both arms of the oracle: retries converge
    // through one-shot faults (acked), and sticky stalls exhaust budgets
    // (failed) — a sweep where either never happens tests nothing.
    assert!(acked > 0, "no write survived chaos anywhere");
    assert!(failed > 0, "no cell exhausted a retry budget");
}

/// Raw-frame helpers for the token-level batteries (the `Client` would
/// draw fresh tokens, which is exactly what these tests must not do).
fn send_raw(s: &mut TcpStream, token: u64, req: &Request) {
    let enveloped = encode_request(token, req);
    let mut out = (enveloped.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&enveloped);
    s.write_all(&out).expect("write frame");
}

fn read_raw(s: &mut TcpStream) -> (u64, Response) {
    let mut reader = std::io::BufReader::new(s.try_clone().expect("clone"));
    match read_frame(&mut reader).expect("read frame") {
        Frame::Body(body) => decode_response(&body).expect("decode response"),
        other => panic!("server answered {other:?} instead of a frame"),
    }
}

fn roundtrip_raw(s: &mut TcpStream, token: u64, req: &Request) -> Response {
    send_raw(s, token, req);
    let (got, resp) = read_raw(s);
    assert_eq!(got, token, "response correlates with its request");
    resp
}

/// A retried FLUSH replays its committed generation instead of committing
/// a second time; a *new* token commits fresh.
#[test]
fn retried_flush_replays_the_same_generation() {
    let path = temp_path("net-chaos-flush-replay");
    let dict = open(&path);
    let (data, journal) = (
        dict.store().path().to_path_buf(),
        dict.store().journal_path().to_path_buf(),
    );
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: config(),
            persist: Some(dict),
        },
    )
    .expect("bind loopback");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    assert_eq!(
        roundtrip_raw(&mut s, 1, &Request::Hello { client: 7 }),
        Response::Done
    );
    assert_eq!(
        roundtrip_raw(&mut s, 2, &Request::Put { key: 1, value: 10 }),
        Response::Done
    );
    let g1 = match roundtrip_raw(&mut s, 3, &Request::Flush) {
        Response::Generation(g) => g,
        other => panic!("flush answered {other:?}"),
    };
    // The retry (same token) replays; the dedup window must not commit.
    assert_eq!(
        roundtrip_raw(&mut s, 3, &Request::Flush),
        Response::Generation(g1),
        "a retried FLUSH re-committed instead of replaying"
    );
    // Even after the contents change, the retained response — not a fresh
    // commit — answers the old token.
    assert_eq!(
        roundtrip_raw(&mut s, 4, &Request::Put { key: 2, value: 20 }),
        Response::Done
    );
    assert_eq!(
        roundtrip_raw(&mut s, 3, &Request::Flush),
        Response::Generation(g1),
        "a retried FLUSH after new writes re-committed instead of replaying"
    );
    // A fresh token commits the new contents under a fresh generation.
    let g2 = match roundtrip_raw(&mut s, 5, &Request::Flush) {
        Response::Generation(g) => g,
        other => panic!("second flush answered {other:?}"),
    };
    assert!(g2 > g1, "a fresh FLUSH token did not commit ({g1} → {g2})");
    server.shutdown();
    drop(server);
    drop_paths(&data, &journal);
}

/// A duplicated PUT arriving after a DEL of the same key must not
/// resurrect the value: the dedup window suppresses the re-application.
#[test]
fn retried_put_does_not_resurrect_across_a_del() {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: config(),
            persist: None,
        },
    )
    .expect("bind loopback");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    assert_eq!(
        roundtrip_raw(&mut s, 1, &Request::Hello { client: 9 }),
        Response::Done
    );
    assert_eq!(
        roundtrip_raw(&mut s, 2, &Request::Put { key: 5, value: 55 }),
        Response::Done
    );
    assert_eq!(
        roundtrip_raw(&mut s, 3, &Request::Del { key: 5 }),
        Response::Done
    );
    // The network replays the PUT (same client, same token): suppressed.
    assert_eq!(
        roundtrip_raw(&mut s, 2, &Request::Put { key: 5, value: 55 }),
        Response::Done,
        "the replayed PUT should get its retained ack"
    );
    assert_eq!(
        roundtrip_raw(&mut s, 4, &Request::Get { key: 5 }),
        Response::NotFound,
        "a replayed PUT resurrected a deleted key"
    );
    server.shutdown();
}

/// Pipelined responses stay arrival-ordered even when the proxy
/// duplicates frames on both directions: the client skips stale
/// duplicates and every answer matches the oracle in order.
#[test]
fn pipelined_responses_stay_arrival_ordered_under_duplication() {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: config(),
            persist: None,
        },
    )
    .expect("bind loopback");
    // Frame 0 on c2s is the HELLO; duplicate ops and responses mid-stream.
    let c2s = NetFaultPlan::new(vec![
        NetFault::Duplicate { at: 3 },
        NetFault::Duplicate { at: 17 },
    ]);
    let s2c = NetFaultPlan::new(vec![
        NetFault::Duplicate { at: 5 },
        NetFault::Duplicate { at: 23 },
    ]);
    let mut proxy = ChaosProxy::spawn(server.addr(), c2s, s2c).expect("proxy spawns");
    let mut c = Client::connect_with(
        proxy.addr(),
        ClientConfig {
            client_id: 0xD0B1E,
            read_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
    .expect("connect via proxy");

    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut state = 0x0D0Au64;
    let lcg = |state: &mut u64| {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    };
    let mut script = Vec::new();
    for i in 0..400u64 {
        let k = lcg(&mut state) % 64;
        match lcg(&mut state) % 4 {
            0 => script.push(Request::Get { key: k }),
            1 => script.push(Request::Del { key: k }),
            _ => script.push(Request::Put { key: k, value: i }),
        }
    }
    for batch in script.chunks(50) {
        for op in batch {
            c.send(op).expect("send");
        }
        c.flush().expect("flush");
        for op in batch {
            let got = c.recv().expect("recv");
            let want = match op {
                Request::Get { key } => match oracle.get(key) {
                    Some(&v) => Response::Value(v),
                    None => Response::NotFound,
                },
                Request::Put { key, value } => {
                    oracle.insert(*key, *value);
                    Response::Done
                }
                Request::Del { key } => {
                    oracle.remove(key);
                    Response::Done
                }
                _ => unreachable!(),
            };
            assert_eq!(got, want, "pipelined answer out of order for {op:?}");
        }
    }
    proxy.shutdown();
    server.shutdown();
}

/// The idle reaper closes a silent connection after the idle budget, while
/// a connection that PINGs inside the window stays alive indefinitely.
#[test]
fn idle_connections_are_reaped_but_ping_keeps_them_alive() {
    let mut cfg = config();
    cfg.server = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..cfg.server
    };
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: cfg,
            persist: None,
        },
    )
    .expect("bind loopback");

    // A silent connection: the reaper must close it (EOF), not hang.
    let mut silent = TcpStream::connect(server.addr()).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 1];
    match silent.read(&mut buf) {
        Ok(0) => {} // reaped: clean close
        Ok(n) => panic!("silent connection received {n} bytes"),
        Err(e) => panic!("silent connection saw {e} instead of EOF"),
    }

    // A chatty connection: PINGs spaced inside the idle window hold it
    // open across many multiples of the timeout.
    let mut chatty = Client::connect(server.addr()).expect("connect");
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(100));
        chatty.ping().expect("ping keeps the connection alive");
    }
    server.shutdown();
}

/// A tiny in-flight bound still answers a deep pipelined burst completely
/// and in order — the connection parses no further ahead of its answers
/// than the bound, and nothing is lost or reordered.
#[test]
fn bounded_inflight_answers_deep_pipelines_in_order() {
    let mut cfg = config();
    cfg.server = ServerConfig {
        inflight_bound: 2,
        ..cfg.server
    };
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: cfg,
            persist: None,
        },
    )
    .expect("bind loopback");
    let mut c = Client::connect(server.addr()).expect("connect");
    let n: u64 = if smoke() { 200 } else { 600 };
    for i in 0..n {
        c.send(&Request::Put {
            key: i % 32,
            value: i,
        })
        .expect("send");
    }
    c.flush().expect("flush");
    for i in 0..n {
        assert_eq!(
            c.recv().expect("recv"),
            Response::Done,
            "pipelined op {i} lost or reordered under a tight bound"
        );
    }
    // The final state is the last write per key.
    for k in 0..32u64 {
        let want = (0..n).rev().find(|i| i % 32 == k);
        assert_eq!(c.get(k).expect("get"), want, "key {k}");
    }
    server.shutdown();
}
