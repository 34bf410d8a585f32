//! The four workload executors: run one repetition of a script against the
//! program under test, time every chunk, check every answer.
//!
//! Everything timed here goes through the public API a user would call:
//! `dict_server::Client` against an in-process `dict_server::Server` for the
//! wire workloads, the `DynDict` facade for `embedded`. Sample vectors are
//! sized before the clock starts.

use std::io::Read;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use anti_persistence::prelude::*;
use dict_server::{Client, ClientError, Request, Response, Server, ServerOptions};

use crate::report::{Chunk, Phase, RepReport, Tally};
use crate::script::{
    self, index_of, key, value, Live, Op, Scale, Workload, COIN_SEED, FLUSH_WINDOW, HALF_WINDOW,
    PRELOAD_WINDOW, READS_PER_CHUNK, SCANS_PER_CHUNK, SCAN_LEN, STEPS_PER_CHUNK, WRITES_PER_CHUNK,
};
use crate::trace::{Recorder, SpanId};

/// A transport failure ends the repetition: the script cannot continue on
/// a dead connection, and the harness reports the run as failed.
fn wire(e: ClientError) -> String {
    format!("client error: {e}")
}

fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

fn chunk(phase: Phase, reads: usize, writes: usize) -> Chunk {
    Chunk {
        phase,
        dur_ns: 0.0,
        ops: 0,
        reads: Vec::with_capacity(reads),
        writes: Vec::with_capacity(writes),
    }
}

/// HI-PMA shards behind the default epoch engine (200 µs / 512 ops).
pub fn server_config() -> DictConfig {
    DictConfig {
        backend: Backend::HiPma,
        seed: COIN_SEED,
        shards: 2,
        ..DictConfig::default()
    }
}

pub fn spawn_server(persist: Option<PersistentDict>) -> Result<Server, String> {
    Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: server_config(),
            persist,
        },
    )
    .map_err(|e| format!("server spawn: {e}"))
}

/// The durable store `wire_flush` serves: 4096-byte blocks, sync on.
pub fn open_image(path: &Path) -> Result<PersistentDict, String> {
    DictBuilder::new()
        .backend(Backend::HiPma)
        .seed(COIN_SEED)
        .build_persistent_with(path, StoreOptions::new(4096))
        .map_err(|e| format!("open {}: {e}", path.display()))
}

/// Sends `ops`, flushes, and receives and checks every response.
fn pipelined_window(client: &mut Client, ops: &[Op], tally: &mut Tally) -> Result<(), String> {
    for op in ops {
        client.send(&op.req).map_err(wire)?;
    }
    client.flush().map_err(wire)?;
    for op in ops {
        let resp = client.recv().map_err(wire)?;
        tally.check(resp == op.expect);
    }
    Ok(())
}

/// Preloads the data set over one pipelined connection, one set-up chunk
/// per `wire_keys / wire_setup_chunks` keys.
pub fn preload(
    client: &mut Client,
    seed: u64,
    scale: &Scale,
    chunks: &mut Vec<Chunk>,
    tally: &mut Tally,
) -> Result<(), String> {
    let per_chunk = scale.wire_keys / scale.wire_setup_chunks;
    let mut window = Vec::with_capacity(PRELOAD_WINDOW);
    for c in 0..scale.wire_setup_chunks {
        let mut out = chunk(Phase::Setup, 0, 0);
        let t0 = Instant::now();
        let mut i = c * per_chunk;
        while i < (c + 1) * per_chunk {
            let end = (i + PRELOAD_WINDOW as u64).min((c + 1) * per_chunk);
            window.clear();
            window.extend((i..end).map(|i| script::preload_op(i, seed)));
            pipelined_window(client, &window, tally)?;
            i = end;
        }
        out.dur_ns = ns(t0);
        out.ops = per_chunk;
        chunks.push(out);
    }
    Ok(())
}

/// Set-up shared by the wire workloads: spawn, connect (one set-up chunk),
/// preload (`wire_setup_chunks` more).
fn wire_setup(
    persist: Option<PersistentDict>,
    seed: u64,
    scale: &Scale,
    chunks: &mut Vec<Chunk>,
    tally: &mut Tally,
) -> Result<(Server, Client), String> {
    let mut ready = chunk(Phase::Setup, 0, 0);
    let t0 = Instant::now();
    let server = spawn_server(persist)?;
    let mut client = Client::connect(server.addr()).map_err(wire)?;
    ready.dur_ns = ns(t0);
    chunks.push(ready);
    preload(&mut client, seed, scale, chunks, tally)?;
    Ok((server, client))
}

fn check_len(client: &mut Client, expect: u64, tally: &mut Tally) -> Result<(), String> {
    let resp = client.request(&Request::Len).map_err(wire)?;
    tally.check(resp == Response::Count(expect));
    Ok(())
}

/// One synchronous request under a `request` span, its latency filed under
/// reads or writes.
fn sync_request(
    client: &mut Client,
    op: &Op,
    id: u64,
    out: &mut Chunk,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<(), String> {
    let t = Instant::now();
    let span = rec.open("request", 0, id);
    let s = rec.open("client.send", span, id);
    client.send(&op.req).map_err(wire)?;
    rec.close(s);
    let s = rec.open("client.flush", span, id);
    client.flush().map_err(wire)?;
    rec.close(s);
    let s = rec.open("client.recv", span, id);
    let resp = client.recv().map_err(wire)?;
    rec.close(s);
    rec.close(span);
    let lat = ns(t);
    tally.check(resp == op.expect);
    if op.is_write() {
        out.writes.push(lat);
    } else {
        out.reads.push(lat);
    }
    out.ops += 1;
    Ok(())
}

/// One closed-loop client stream: `chunk_ops` synchronous requests per
/// chunk.
fn closed_stream(
    client: &mut Client,
    stream: u8,
    ops: &[Op],
    chunk_ops: usize,
    rec: &mut Recorder,
) -> Result<(Vec<Chunk>, Tally), String> {
    let mut tally = Tally::default();
    let mut chunks: Vec<Chunk> = ops
        .chunks(chunk_ops)
        .map(|_| chunk(Phase::Measured(stream), chunk_ops, chunk_ops))
        .collect();
    for (c, (out, ops)) in chunks.iter_mut().zip(ops.chunks(chunk_ops)).enumerate() {
        let t0 = Instant::now();
        for (j, op) in ops.iter().enumerate() {
            let id = (u64::from(stream) << 32) | (c * chunk_ops + j) as u64;
            sync_request(client, op, id, out, &mut tally, rec)?;
        }
        out.dur_ns = ns(t0);
    }
    Ok((chunks, tally))
}

fn wire_closed(seed: u64, scale: &Scale, rec: &mut Recorder) -> Result<RepReport, String> {
    let mut report = RepReport::default();
    let streams = script::closed_streams(seed, scale);
    let (mut server, first) = wire_setup(None, seed, scale, &mut report.chunks, &mut report.tally)?;
    let mut ready = chunk(Phase::Setup, 0, 0);
    let t0 = Instant::now();
    let second = Client::connect(server.addr()).map_err(wire)?;
    ready.dur_ns = ns(t0);
    report.chunks.push(ready);

    let start = Barrier::new(2);
    let spans = 4 * streams[0].len();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .zip(&streams)
            .enumerate()
            .map(|(s, (mut client, ops))| {
                let mut thread_rec = match rec.is_on() {
                    true => Recorder::on(rec.origin(), spans),
                    false => Recorder::off(),
                };
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let out = closed_stream(
                        &mut client,
                        s as u8,
                        ops,
                        scale.closed_chunk_ops,
                        &mut thread_rec,
                    );
                    (out, thread_rec, client)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut last_client = None;
    for joined in results {
        let (out, thread_rec, client) = joined.map_err(|_| "client thread panicked")?;
        let (chunks, stream_tally) = out?;
        report.chunks.extend(chunks);
        report.tally.absorb(stream_tally);
        rec.absorb(thread_rec);
        last_client = Some(client);
    }
    let mut client = last_client.ok_or("no client stream ran")?;
    check_len(&mut client, scale.wire_keys, &mut report.tally)?;
    drop(client);
    server.shutdown();
    Ok(report)
}

/// What [`pipelined`] measured.
pub struct Pipelined {
    pub chunks: Vec<Chunk>,
    /// Per half window: its flush to its first response, ns.
    pub window_rtt_ns: Vec<f64>,
}

/// The `wire_pipelined` loop: 256 requests in flight on one connection,
/// stepped by half windows (receive 128, send 128, flush). A request's
/// latency runs from the flush of its half window to the receipt of its
/// response; a chunk is [`STEPS_PER_CHUNK`] steps and holds the samples of
/// the responses received inside it.
pub fn pipelined(
    client: &mut Client,
    ops: &[Op],
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<Pipelined, String> {
    let windows: Vec<&[Op]> = ops.chunks(HALF_WINDOW).collect();
    let n_chunks = windows.len() / STEPS_PER_CHUNK;
    let per_chunk = (STEPS_PER_CHUNK + 2) * HALF_WINDOW;
    let mut chunks: Vec<Chunk> = (0..n_chunks)
        .map(|_| chunk(Phase::Measured(0), per_chunk, per_chunk))
        .collect();
    let mut flushed_at = vec![Instant::now(); windows.len()];
    let mut window_rtt_ns = Vec::with_capacity(windows.len());
    let mut request_spans: Vec<SpanId> = vec![0; if rec.is_on() { ops.len() } else { 0 }];

    for (c, out) in chunks.iter_mut().enumerate() {
        let t0 = Instant::now();
        // The last chunk also drains the two half windows still in flight.
        let end = match c + 1 == n_chunks {
            true => windows.len() + 2,
            false => (c + 1) * STEPS_PER_CHUNK,
        };
        for step in c * STEPS_PER_CHUNK..end {
            if let Some(w) = step.checked_sub(2) {
                for (j, op) in windows[w].iter().enumerate() {
                    let id = w * HALF_WINDOW + j;
                    let parent = request_spans.get(id).copied().unwrap_or(0);
                    let s = rec.open("client.recv", parent, id as u64);
                    let resp = client.recv().map_err(wire)?;
                    rec.close(s);
                    rec.close(parent);
                    let lat = ns(flushed_at[w]);
                    if j == 0 {
                        window_rtt_ns.push(lat);
                    }
                    tally.check(resp == op.expect);
                    if op.is_write() {
                        out.writes.push(lat);
                    } else {
                        out.reads.push(lat);
                    }
                    out.ops += 1;
                }
            }
            let Some(window) = windows.get(step) else {
                continue;
            };
            let window_span = rec.open("window", 0, step as u64);
            for (j, op) in window.iter().enumerate() {
                let id = step * HALF_WINDOW + j;
                let span = rec.open("request", 0, id as u64);
                if let Some(slot) = request_spans.get_mut(id) {
                    *slot = span;
                }
                let s = rec.open("client.send", span, id as u64);
                client.send(&op.req).map_err(wire)?;
                rec.close(s);
            }
            let s = rec.open("client.flush", window_span, step as u64);
            client.flush().map_err(wire)?;
            rec.close(s);
            rec.close(window_span);
            flushed_at[step] = Instant::now();
        }
        out.dur_ns = ns(t0);
    }
    Ok(Pipelined {
        chunks,
        window_rtt_ns,
    })
}

fn wire_pipelined(seed: u64, scale: &Scale, rec: &mut Recorder) -> Result<RepReport, String> {
    let mut report = RepReport::default();
    let (ops, live) = script::pipelined_stream(seed, scale);
    let (mut server, mut client) =
        wire_setup(None, seed, scale, &mut report.chunks, &mut report.tally)?;
    let measured = pipelined(&mut client, &ops, &mut report.tally, rec)?;
    report.chunks.extend(measured.chunks);
    check_len(&mut client, live.len(), &mut report.tally)?;
    drop(client);
    server.shutdown();
    Ok(report)
}

/// One timed FLUSH round trip; the answer must be generation `expect`.
fn flush_store(client: &mut Client, expect: u64, tally: &mut Tally) -> Result<f64, String> {
    let t = Instant::now();
    let resp = client.request(&Request::Flush).map_err(wire)?;
    let lat = ns(t);
    tally.check(resp == Response::Generation(expect));
    Ok(lat)
}

/// Word-folded hash of a file, streamed so the child's peak RSS does not
/// grow by the image size.
pub fn hash_file(path: &Path) -> Result<u64, String> {
    let fail = |e| format!("{}: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(fail)?;
    let mut block = Vec::with_capacity(1 << 16);
    let mut acc = 0u64;
    loop {
        block.clear();
        let n = file
            .by_ref()
            .take(1 << 16)
            .read_to_end(&mut block)
            .map_err(fail)?;
        if n == 0 {
            return Ok(acc);
        }
        for word in block.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            acc = script::splitmix64(acc ^ u64::from_le_bytes(w));
        }
    }
}

fn wire_flush(
    seed: u64,
    scale: &Scale,
    image: &Path,
    rec: &mut Recorder,
) -> Result<RepReport, String> {
    let mut report = RepReport::default();
    let (rounds, live) = script::flush_rounds(seed, scale);
    let persist = open_image(image)?;
    let (server, mut client) = wire_setup(
        Some(persist),
        seed,
        scale,
        &mut report.chunks,
        &mut report.tally,
    )?;
    let mut first = chunk(Phase::Setup, 0, 0);
    first.dur_ns = flush_store(&mut client, 1, &mut report.tally)?;
    first.ops = 1;
    report.chunks.push(first);

    // Three chunks per round (writes, FLUSH, GETs), so the composite can
    // take each from a different repetition.
    for (r, round) in rounds.iter().enumerate() {
        let r = r as u64;
        let span = rec.open("round", 0, r);

        let mut out = chunk(Phase::Measured(0), 0, 0);
        let t0 = Instant::now();
        let s = rec.open("client.writes", span, r);
        for window in round.writes.chunks(FLUSH_WINDOW) {
            pipelined_window(&mut client, window, &mut report.tally)?;
        }
        rec.close(s);
        out.dur_ns = ns(t0);
        out.ops = round.writes.len() as u64;
        report.chunks.push(out);

        let mut out = chunk(Phase::Measured(0), 0, 1);
        let s = rec.open("client.flush_store", span, r);
        out.dur_ns = flush_store(&mut client, r + 2, &mut report.tally)?;
        rec.close(s);
        out.ops = 1;
        out.writes.push(out.dur_ns);
        report.chunks.push(out);

        let mut out = chunk(Phase::Measured(0), round.gets.len(), 0);
        let t0 = Instant::now();
        for (j, op) in round.gets.iter().enumerate() {
            sync_request(
                &mut client,
                op,
                (r << 32) | j as u64,
                &mut out,
                &mut report.tally,
                rec,
            )?;
        }
        out.dur_ns = ns(t0);
        report.chunks.push(out);
        rec.close(span);
    }
    check_len(&mut client, live.len(), &mut report.tally)?;
    drop(client);
    // Shutdown and the image hash are outside every timed chunk.
    let persist = server.into_persist().ok_or("server lost its store")?;
    let path = persist.store().path().to_path_buf();
    drop(persist);
    report.image_hash = hash_file(&path)?;
    Ok(report)
}

/// Checks one scan: [`SCAN_LEN`] entries, ascending from `start`, each an
/// authentic live pair.
fn scan_ok(d: &DynDict<u64, u64>, start: u64, live: &Live, seed: u64) -> bool {
    let mut prev = None;
    let mut n = 0;
    let mut ok = true;
    for (k, v) in d.range_iter(start..).take(SCAN_LEN) {
        let i = index_of(*v, seed);
        ok &= *k >= start && prev < Some(*k) && live.contains(i) && key(i) == *k;
        prev = Some(*k);
        n += 1;
    }
    ok && n == SCAN_LEN
}

/// The `embedded` script against the facade, no server and no sockets.
/// Returns the dictionary too, so the layer probes can read its counters
/// and carry on from its final state.
pub fn embedded(
    seed: u64,
    scale: &Scale,
    rec: &mut Recorder,
) -> Result<(RepReport, DynDict<u64, u64>), String> {
    let mut report = RepReport::default();
    let (rounds, end) = script::embedded_rounds(seed, scale);
    let per_chunk = scale.embedded_keys / scale.embedded_setup_chunks;

    let t0 = Instant::now();
    let mut d: DynDict<u64, u64> = DictBuilder::new()
        .backend(Backend::HiPma)
        .seed(COIN_SEED)
        .build();
    let mut t0 = Some(t0);
    for c in 0..scale.embedded_setup_chunks {
        let mut out = chunk(Phase::Setup, 0, 0);
        // The first chunk's clock started before the build.
        let start = t0.take().unwrap_or_else(Instant::now);
        let span = rec.open("dict.load", 0, c);
        let mut bad = 0;
        for i in c * per_chunk..(c + 1) * per_chunk {
            bad += u64::from(d.insert(key(i), value(i, seed)).is_some());
        }
        rec.close(span);
        out.dur_ns = ns(start);
        out.ops = per_chunk;
        report.tally.attempted += per_chunk;
        report.tally.failed += bad;
        report.chunks.push(out);
    }

    let mut live = Live::preloaded(scale.embedded_keys);
    for (r, round) in rounds.iter().enumerate() {
        let r = r as u64;
        let results = (READS_PER_CHUNK + SCANS_PER_CHUNK * SCAN_LEN) as u64;
        let mut out = chunk(Phase::Measured(0), 1, 0);
        let t0 = Instant::now();
        let span = rec.open("chunk.read", 0, r);
        let s = rec.open("dict.get_ref", span, r);
        let mut bad = 0;
        for &i in &round.reads {
            bad += u64::from(d.get_ref(&key(i)) != Some(&value(i, seed)));
        }
        rec.close(s);
        let s = rec.open("dict.range_iter", span, r);
        for &start in &round.scan_starts {
            bad += u64::from(!scan_ok(&d, start, &live, seed));
        }
        rec.close(s);
        rec.close(span);
        out.dur_ns = ns(t0);
        out.ops = results;
        out.reads.push(out.dur_ns / results as f64);
        report.tally.attempted += (READS_PER_CHUNK + SCANS_PER_CHUNK) as u64;
        report.tally.failed += bad;
        report.chunks.push(out);

        let writes = WRITES_PER_CHUNK as u64;
        let mut out = chunk(Phase::Measured(0), 0, 1);
        let t0 = Instant::now();
        let span = rec.open("chunk.write", 0, r);
        let s = rec.open("dict.insert", span, r);
        let mut bad = 0;
        for i in live.next..live.next + writes {
            bad += u64::from(d.insert(key(i), value(i, seed)).is_some());
        }
        rec.close(s);
        let s = rec.open("dict.remove", span, r);
        for i in live.oldest..live.oldest + writes {
            bad += u64::from(d.remove(&key(i)) != Some(value(i, seed)));
        }
        rec.close(s);
        rec.close(span);
        out.dur_ns = ns(t0);
        out.ops = 2 * writes;
        out.writes.push(out.dur_ns / out.ops as f64);
        report.tally.attempted += 2 * writes;
        report.tally.failed += bad;
        report.chunks.push(out);
        live.oldest += writes;
        live.next += writes;
    }
    debug_assert_eq!(live, end);

    report.tally.check(d.len() as u64 == live.len());
    let mut prev = None;
    let mut count = 0u64;
    let mut sorted = true;
    for (k, _) in d.iter() {
        sorted &= prev < Some(*k);
        prev = Some(*k);
        count += 1;
    }
    report.tally.check(sorted && count == live.len());
    Ok((report, d))
}

/// The process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Runs one repetition of `workload`. `image` is where `wire_flush` keeps
/// its store; the caller owns the file.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    image: &Path,
    rec: &mut Recorder,
) -> Result<RepReport, String> {
    let mut report = match workload {
        Workload::WireClosed => wire_closed(seed, scale, rec)?,
        Workload::WirePipelined => wire_pipelined(seed, scale, rec)?,
        Workload::WireFlush => wire_flush(seed, scale, image, rec)?,
        Workload::Embedded => embedded(seed, scale, rec)?.0,
    };
    report.rss_kb = peak_rss_kb();
    Ok(report)
}
