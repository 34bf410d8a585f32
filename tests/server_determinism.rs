//! Determinism and crash batteries for the `dict-server` front-end.
//!
//! The network pipeline adds scheduling, epoch timing, client interleaving
//! and backpressure between the wire and the dictionary — none of which may
//! reach the at-rest bytes. Two batteries pin that:
//!
//! * **flush determinism** — after a concurrent multi-client run, the
//!   flushed on-disk image is *byte-identical* to a fresh single-threaded
//!   dictionary holding the same final contents, flushed at the same seed
//!   and block size. Epoch boundaries only partition the arrival-ordered
//!   stream into batches, the exact degree of freedom the sharded
//!   dictionary's layout is invariant under, so the image is
//!   `f(contents, seed)` no matter how many clients raced.
//! * **the two extreme partitions** — the same write stream driven once as
//!   synchronous single requests (every epoch holds one operation) and
//!   once as a single burst (every epoch is as full as the connection's
//!   `epoch_ops` budget and read buffer make it) flushes the same
//!   bytes, equal to the single-threaded rebuild. The server closes an
//!   epoch when a connection is about to block, so *where* epochs close is
//!   set by how the client sends; this names the two ends of that range.
//! * **restart** — a server spawned on a flushed store serves every flushed
//!   key, and its first `FLUSH` of those unchanged contents rewrites the
//!   same bytes and no data block.
//! * **kill-the-server-mid-flush** — a torn-write `FaultPlan` armed on the
//!   persistent store trips partway through a client-initiated `FLUSH`.
//!   The client sees a typed `UNAVAILABLE` (never a fake generation), and
//!   a server restarted on the file serves *whole-old or whole-new*
//!   contents — the journaled commit's atomicity holds when the flush is
//!   driven over the network.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use anti_persistence::dict::{Backend, Dict, DictConfig, ServerConfig};
use anti_persistence::prelude::*;
use block_store::temp_path;
use dict_server::protocol::{decode_response, encode_request, read_frame, write_frame};
use dict_server::{Client, Frame, Request, Response, Server, ServerOptions};

const SEED: u64 = 0x5E4E4;
const CLIENTS: u64 = 4;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
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
    // 512-byte blocks keep flush write counts small (fast fuse sweeps);
    // no_sync because the process survives the injected crash.
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(SEED)
        .build_persistent_with(path, StoreOptions::new(512).no_sync())
        .unwrap()
}

fn drop_paths(data: &std::path::Path, journal: &std::path::Path) {
    let _ = std::fs::remove_file(data);
    let _ = std::fs::remove_file(journal);
}

/// Serves `persist` under the test config on an ephemeral port.
fn serve(persist: PersistentDict) -> Server {
    Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: config(),
            persist: Some(persist),
        },
    )
    .expect("bind loopback")
}

/// What a server restarted on the store at `path` serves, asked over the
/// wire for each of `keys`. Its `LEN` must count exactly the keys found:
/// the store holds nothing outside `keys`.
fn served_after_restart(path: &std::path::Path, keys: &BTreeSet<u64>) -> BTreeMap<u64, u64> {
    let server = serve(open(path));
    let mut c = Client::connect(server.addr()).expect("connect");
    let served: BTreeMap<u64, u64> = keys
        .iter()
        .filter_map(|&k| c.get(k).expect("get").map(|v| (k, v)))
        .collect();
    assert_eq!(
        c.len().expect("len"),
        served.len() as u64,
        "a key outside the candidates"
    );
    served
}

/// Client `c`'s deterministic op script over its private residue class
/// (keys ≡ c mod CLIENTS, so concurrent scripts commute and the final
/// contents are known in advance).
fn script(c: u64) -> Vec<Request> {
    let mut state = (c + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut ops = Vec::new();
    for i in 0..600u64 {
        let k = c + CLIENTS * (lcg(&mut state) % 500);
        match lcg(&mut state) % 10 {
            0..=5 => ops.push(Request::Put {
                key: k,
                value: i * CLIENTS + c,
            }),
            6..=7 => ops.push(Request::Del { key: k }),
            // Reads exercise the overlay/batch split concurrently with the
            // writes; their answers don't affect the final image.
            _ => ops.push(Request::Get { key: k }),
        }
    }
    ops
}

/// The final contents all four scripts leave behind, computed sequentially.
fn oracle() -> BTreeMap<u64, u64> {
    let mut map = BTreeMap::new();
    for c in 0..CLIENTS {
        for op in script(c) {
            match op {
                Request::Put { key, value } => {
                    map.insert(key, value);
                }
                Request::Del { key } => {
                    map.remove(&key);
                }
                _ => {}
            }
        }
    }
    map
}

fn run_script(addr: SocketAddr, c: u64) {
    let mut client = Client::connect(addr).expect("connect");
    let ops = script(c);
    let mut pending = 0usize;
    for op in &ops {
        client.send(op).expect("send");
        pending += 1;
        if pending == 64 {
            client.flush().expect("flush");
            for _ in 0..pending {
                match client.recv().expect("recv") {
                    Response::Done | Response::Value(_) | Response::NotFound => {}
                    other => panic!("client {c}: unexpected {other:?}"),
                }
            }
            pending = 0;
        }
    }
    client.flush().expect("flush");
    for _ in 0..pending {
        client.recv().expect("recv");
    }
}

/// What one served run left behind.
struct Served {
    /// The flushed image, byte for byte.
    image: Vec<u8>,
    /// The contents recovered by reopening it.
    contents: Vec<(u64, u64)>,
    /// The engine's `(epochs, tickets)` once `drive` returned.
    epoch_stats: (u64, u64),
}

/// Serves a fresh store under `config`, lets `drive` load it over the
/// wire, and flushes through one more client.
fn serve_and_flush(name: &str, config: DictConfig, drive: impl FnOnce(SocketAddr)) -> Served {
    let path = temp_path(name);
    let served = open(&path);
    let (data, journal) = (
        served.store().path().to_path_buf(),
        served.store().journal_path().to_path_buf(),
    );
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config,
            persist: Some(served),
        },
    )
    .expect("bind loopback");
    drive(server.addr());
    let epoch_stats = server.epoch_stats();
    let mut c = Client::connect(server.addr()).expect("connect");
    let generation = c.flush_store().expect("server flush");
    assert!(generation > 0);
    server.shutdown();
    drop(server);

    let image = std::fs::read(&data).expect("read served image");
    let reopened = open(&path);
    let contents = reopened.iter().map(|(k, v)| (*k, *v)).collect();
    drop(reopened);
    drop_paths(&data, &journal);
    Served {
        image,
        contents,
        epoch_stats,
    }
}

/// The single-threaded equivalent: what `PersistentDict::flush()` commits,
/// at the same seed and block size, for a dictionary that reached
/// `contents` by a history no served run shares — decoy keys, a flush of
/// them, their removal, then the real pairs in descending key order.
fn reference_image(name: &str, contents: &BTreeMap<u64, u64>) -> Vec<u8> {
    let path = temp_path(name);
    let mut reference = open(&path);
    for k in 0..700u64 {
        reference.insert(k * 3 + 1, !k);
    }
    reference.flush().expect("decoy flush");
    for k in 0..700u64 {
        reference.remove(&(k * 3 + 1));
    }
    for (&k, &v) in contents.iter().rev() {
        reference.insert(k, v);
    }
    reference.flush().expect("reference flush");
    let (data, journal) = (
        reference.store().path().to_path_buf(),
        reference.store().journal_path().to_path_buf(),
    );
    drop(reference);
    let bytes = std::fs::read(&data).expect("read reference image");
    drop_paths(&data, &journal);
    bytes
}

#[test]
fn concurrent_multi_client_run_flushes_the_single_threaded_image() {
    let expected = oracle();
    assert!(expected.len() > 100, "scripts left too little behind");
    let reference = reference_image("server-det-reference", &expected);
    let want: Vec<(u64, u64)> = expected.iter().map(|(&k, &v)| (k, v)).collect();

    // Concurrent run: four pipelined clients race their scripts, then one
    // more asks the server to flush — which streams the merge of however
    // many shards there are (one: no merge at all) into the store, and
    // never builds the dictionary the reference flushed from.
    for shards in [1, 2, 4, 8] {
        let config = DictConfig { shards, ..config() };
        let served = serve_and_flush(&format!("server-det-served-{shards}"), config, |addr| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| std::thread::spawn(move || run_script(addr, c)))
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });
        assert_eq!(
            served.image, reference,
            "{shards} shards: the concurrent run's flushed image differs from \
             the single-threaded rebuild: the pipeline leaked history into layout"
        );
        // And the recovered contents are exactly the oracle.
        assert_eq!(served.contents, want, "{shards} shards");
    }
}

/// One connection's 4096 writes: puts and deletes over 1500 keys.
fn write_stream() -> Vec<Request> {
    let mut state = 0xB0057u64;
    (0..4096u64)
        .map(|i| {
            let key = lcg(&mut state) % 1500;
            match lcg(&mut state) % 4 {
                0 => Request::Del { key },
                _ => Request::Put { key, value: i },
            }
        })
        .collect()
}

#[test]
fn one_op_epochs_and_full_epochs_flush_the_same_image() {
    let ops = write_stream();
    let mut expected = BTreeMap::new();
    for op in &ops {
        match *op {
            Request::Put { key, value } => expected.insert(key, value),
            Request::Del { key } => expected.remove(&key),
            _ => unreachable!("write_stream only writes"),
        };
    }
    assert!(expected.len() > 500, "stream left too little behind");
    let n = ops.len() as u64;

    // One extreme: synchronous requests, so every epoch holds one op.
    let sync = serve_and_flush("server-det-sync", config(), |addr| {
        let mut c = Client::connect(addr).expect("connect");
        for op in &ops {
            assert_eq!(c.request(op).expect("request"), Response::Done);
        }
    });
    assert_eq!(sync.epoch_stats, (n, n), "one epoch per request");

    // The other: the whole stream in one burst (a second thread writes so
    // that the answers can be read meanwhile). The connection applies
    // `epoch_ops` at a time for as long as its buffer holds that many, so
    // the burst lands in few, large epochs.
    let mut burst_cfg = config();
    burst_cfg.server = ServerConfig {
        epoch_ops: 64,
        ..burst_cfg.server
    };
    let burst = serve_and_flush("server-det-burst", burst_cfg, |addr| {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            write_frame(&mut bytes, &encode_request(i as u64 + 1, op)).expect("frame");
        }
        let mut w = s.try_clone().expect("clone");
        let writer = std::thread::spawn(move || w.write_all(&bytes).expect("burst"));
        for i in 0..ops.len() {
            let Frame::Body(body) = read_frame(&mut s).expect("reply") else {
                panic!("reply {i} of the burst never arrived");
            };
            let reply = decode_response(&body).expect("reply decodes");
            assert_eq!(reply, (i as u64 + 1, Response::Done));
        }
        writer.join().expect("writer thread");
    });
    let (epochs, tickets) = burst.epoch_stats;
    assert_eq!(tickets, n);
    assert!(
        epochs * 16 <= n,
        "a {n}-op burst was cut into {epochs} epochs"
    );

    let want: Vec<(u64, u64)> = expected.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(sync.contents, want);
    assert_eq!(burst.contents, want);
    assert_eq!(
        sync.image, burst.image,
        "one-op epochs and full epochs flushed different images"
    );
    assert_eq!(
        sync.image,
        reference_image("server-det-extremes-reference", &expected),
        "the served image differs from the single-threaded rebuild"
    );
}

#[test]
fn a_restarted_server_serves_the_flushed_image_and_reflushes_it_unchanged() {
    let path = temp_path("server-restart");
    let mut flushed = BTreeMap::new();
    let server = serve(open(&path));
    let mut c = Client::connect(server.addr()).expect("connect");
    let mut state = 0x2E57_A271u64;
    for i in 0..400u64 {
        let key = lcg(&mut state);
        c.put(key, i).expect("put");
        flushed.insert(key, i);
    }
    assert_eq!(c.flush_store().expect("first flush"), 1);
    drop(c);
    let store = server.into_persist().expect("the store comes back");
    let (data, journal) = (
        store.store().path().to_path_buf(),
        store.store().journal_path().to_path_buf(),
    );
    drop(store);
    let image = std::fs::read(&data).expect("read the first image");

    // A new process: reopen the path and serve it.
    let server = serve(open(&path));
    let mut c = Client::connect(server.addr()).expect("connect");
    for (&key, &value) in &flushed {
        assert_eq!(c.get(key).expect("get"), Some(value), "key {key}");
    }
    assert_eq!(c.len().expect("len"), flushed.len() as u64);
    // Unchanged contents make a no-op commit: the reopened store's
    // generation, 0, stands.
    assert_eq!(c.flush_store().expect("second flush"), 0);
    drop(c);
    let store = server.into_persist().expect("the store comes back");
    assert!(store.is_empty(), "the shards hold the one copy");
    let written = store.store().stats();
    assert_eq!(
        written.data.blocks_written, 0,
        "the second FLUSH wrote data"
    );
    assert_eq!(written.blocks_written(), 0, "the second FLUSH journaled");
    drop(store);
    assert_eq!(
        std::fs::read(&data).expect("read the second image"),
        image,
        "the restarted FLUSH changed the image"
    );
    drop_paths(&data, &journal);
}

#[test]
fn kill_mid_flush_over_the_network_recovers_whole_old_or_whole_new() {
    let mut rollbacks = 0usize;
    let mut replays = 0usize;

    // Sweep fuse budgets; each trial is a fresh store, server, and client.
    for fuse in 1..=24u64 {
        let path = temp_path(&format!("server-crash-{fuse}"));
        let mut dict = open(&path);

        // Base image, flushed cleanly before the server starts.
        let mut base = BTreeMap::new();
        for k in 0..200u64 {
            dict.insert(k * 3, k);
            base.insert(k * 3, k);
        }
        dict.flush().expect("base flush");

        // Arm the plan, then hand the dictionary to the server.
        dict.store_mut()
            .set_fault_plan(FaultPlan::new([Fault::TornWrite { at: fuse }]));
        let (data, journal) = (
            dict.store().path().to_path_buf(),
            dict.store().journal_path().to_path_buf(),
        );
        let mut server = serve(dict);

        // The server boots from the base image, so the new contents are
        // the base overlaid with the delta the client writes.
        let mut new = base.clone();
        let mut c = Client::connect(server.addr()).expect("connect");
        for k in 0..150u64 {
            c.put(k * 5, k + 1_000).expect("put");
            new.insert(k * 5, k + 1_000);
        }

        let crashed = match c.request(&Request::Flush).expect("flush request") {
            Response::Generation(_) => false, // fuse budget outlasted the flush
            Response::Unavailable(msg) => {
                assert!(
                    msg.contains("poison") || msg.contains("crash") || !msg.is_empty(),
                    "{msg}"
                );
                true
            }
            other => panic!("fuse {fuse}: flush answered {other:?}"),
        };
        if crashed {
            // A tripped fuse poisons the store: retrying must refuse typed,
            // not touch the file again.
            assert!(matches!(
                c.request(&Request::Flush).expect("retry"),
                Response::Unavailable(_)
            ));
        }
        server.shutdown();
        drop(server); // the simulated process death drops the store handle

        // Whole-old or whole-new, never a torn mixture, as a restarted
        // server serves it.
        let keys = new.keys().copied().collect();
        let recovered = served_after_restart(&path, &keys);
        if crashed {
            if recovered == base {
                rollbacks += 1;
            } else if recovered == new {
                replays += 1;
            } else {
                panic!(
                    "fuse {fuse}: recovered a torn image ({} records; \
                     expected whole-old {} or whole-new {})",
                    recovered.len(),
                    base.len(),
                    new.len()
                );
            }
        } else {
            assert_eq!(recovered, new, "fuse {fuse}: completed flush lost data");
        }
        drop_paths(&data, &journal);
    }

    assert!(rollbacks > 0, "no fuse budget exercised rollback");
    assert!(replays > 0, "no fuse budget exercised roll-forward");
}
