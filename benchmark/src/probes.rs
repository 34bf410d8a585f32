//! Per-layer probes: the traced run's in-process replays.
//!
//! Each probe times calls into one layer's public functions, from outside,
//! on the operations of the script that stresses that layer (the `on`
//! column of the README's table): `protocol`, `client`, `server` and
//! `shard` on `wire_pipelined`'s stream, `dict` and `pma` on `embedded`'s,
//! `persist` and `block_store` on `wire_flush`'s churn. Counts marked
//! *exact* come from single-threaded replays and repeat exactly for a seed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use anti_persistence::hi_common::batch::BatchOp;
use anti_persistence::prelude::*;
use dict_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use dict_server::{Client, Request, Response};

use crate::report::{median, Metric, Tally};
use crate::script::{
    self, key, value, Live, Op, Scale, COIN_SEED, HALF_WINDOW, PRELOAD_WINDOW, READS_PER_CHUNK,
    SCANS_PER_CHUNK, SCAN_LEN, STEPS_PER_CHUNK, WRITES_PER_CHUNK,
};
use crate::trace::Recorder;
use crate::workloads;

/// Operations per `apply_batch` / `multi_apply` / `multi_get` call.
const BATCH: usize = 256;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Fastest of `passes` runs of `f` (each returns its own elapsed time).
fn best_of(passes: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..passes).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// The next `pairs` PUT-new/DEL-oldest pairs of the data set, as batch ops.
fn churn(live: &mut Live, pairs: usize, seed: u64) -> Vec<BatchOp<u64, u64>> {
    let mut ops = Vec::with_capacity(2 * pairs);
    for _ in 0..pairs {
        ops.push(BatchOp::Put(key(live.next), value(live.next, seed)));
        ops.push(BatchOp::Remove(key(live.oldest)));
        live.next += 1;
        live.oldest += 1;
    }
    ops
}

/// `protocol`: encode and decode of `wire_pipelined`'s own frames,
/// checksum included.
fn protocol(ops: &[Op], out: &mut Vec<Metric>, tally: &mut Tally) {
    let ops = &ops[..ops.len().min(1 << 15)];
    let n = ops.len() as f64;
    let per_frame = |t: Instant| t.elapsed().as_nanos() as f64 / n;
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    let encode_request_ns = best_of(5, || {
        let t = Instant::now();
        requests = ops
            .iter()
            .enumerate()
            .map(|(j, op)| encode_request(j as u64 + 1, &op.req))
            .collect();
        per_frame(t)
    });
    let encode_response_ns = best_of(5, || {
        let t = Instant::now();
        responses = ops
            .iter()
            .enumerate()
            .map(|(j, op)| encode_response(j as u64 + 1, &op.expect))
            .collect();
        per_frame(t)
    });
    let decode_request_ns = best_of(5, || {
        let t = Instant::now();
        for frame in &requests {
            black_box(decode_request(black_box(frame)).ok());
        }
        per_frame(t)
    });
    let decode_response_ns = best_of(5, || {
        let t = Instant::now();
        for frame in &responses {
            black_box(decode_response(black_box(frame)).ok());
        }
        per_frame(t)
    });
    for (j, op) in ops.iter().enumerate() {
        let token = j as u64 + 1;
        tally.check(decode_request(&requests[j]) == Ok((token, op.req.clone())));
        tally.check(decode_response(&responses[j]) == Ok((token, op.expect.clone())));
    }
    let frames = ops.len() as u64;
    out.extend([
        Metric::new(
            "protocol.encode_request_ns",
            encode_request_ns,
            "ns",
            frames,
        ),
        Metric::new(
            "protocol.decode_request_ns",
            decode_request_ns,
            "ns",
            frames,
        ),
        Metric::new(
            "protocol.encode_response_ns",
            encode_response_ns,
            "ns",
            frames,
        ),
        Metric::new(
            "protocol.decode_response_ns",
            decode_response_ns,
            "ns",
            frames,
        ),
    ]);
}

/// `dict` and `pma`: the `embedded` script replayed in this process with
/// spans on, then `apply_batch`, `bulk_load` and the HI/classic ratio.
fn dict_and_pma(
    seed: u64,
    scale: &Scale,
    out: &mut Vec<Metric>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut rec = Recorder::on(Instant::now(), 8 * scale.embedded_rounds + 64);
    let (report, mut d) = workloads::embedded(seed, scale, &mut rec)?;
    tally.absorb(report.tally);
    let st = rec.self_times();
    let per_op = |name: &str, per_span: usize| {
        let s = st.get(name).copied().unwrap_or_default();
        let n = s.count * per_span as u64;
        (s.self_ns as f64 / n.max(1) as f64, n)
    };
    let (get_ns, gets) = per_op("dict.get_ref", READS_PER_CHUNK);
    let (scan_ns, scanned) = per_op("dict.range_iter", SCANS_PER_CHUNK * SCAN_LEN);
    let (insert_ns, inserts) = per_op("dict.insert", WRITES_PER_CHUNK);
    let (remove_ns, removes) = per_op("dict.remove", WRITES_PER_CHUNK);

    // Counter deltas over the whole replay (set-up and measured rounds).
    let replay = d.counters().snapshot();
    let updates = replay.updates().max(1);
    let slots = d.slot_count().unwrap_or(0);
    let len = d.len();

    // Comparisons per query, over queries only.
    let churned = (scale.embedded_rounds * WRITES_PER_CHUNK) as u64;
    let mut live = Live {
        oldest: churned,
        next: churned + scale.embedded_keys,
    };
    let before = d.counters().snapshot();
    let mut rand = script::Rand::new(seed, 0xC03F);
    for _ in 0..4 * READS_PER_CHUNK {
        let i = live.oldest + rand.below(live.len());
        tally.check(d.get_ref(&key(i)) == Some(&value(i, seed)));
    }
    let queries = d.counters().snapshot().since(&before);

    // `apply_batch` at batch 256, continuing the data set's churn.
    let batches: Vec<_> = (0..scale.embedded_rounds.min(100))
        .map(|_| churn(&mut live, BATCH / 2, seed))
        .collect();
    let n_batches = batches.len() as u64;
    let before = d.counters().snapshot();
    let t = Instant::now();
    let mut removed = 0;
    for batch in batches {
        removed += d.apply_batch(batch);
    }
    let apply_ns = t.elapsed().as_nanos() as f64 / (n_batches * BATCH as u64) as f64;
    let batched = d.counters().snapshot().since(&before);
    tally.check(removed as u64 == n_batches * BATCH as u64 / 2);
    tally.check(d.len() as u64 == live.len());

    // Canonical rebuild of the same contents.
    let contents = d.to_sorted_vec();
    let mut fresh: DynDict<u64, u64> = DictBuilder::new()
        .backend(Backend::HiPma)
        .seed(COIN_SEED)
        .build();
    let bulk_ms = best_of(3, || {
        let t = Instant::now();
        fresh.bulk_load(contents.iter().copied(), COIN_SEED);
        ms(t)
    });
    tally.check(fresh.len() == contents.len());

    // HI-PMA against the classic PMA through the same facade, on the same
    // keys, in interleaved chunks so that host speed cancels.
    let mut hi: DynDict<u64, u64> = DictBuilder::new()
        .backend(Backend::HiPma)
        .seed(COIN_SEED)
        .build();
    let mut classic: DynDict<u64, u64> = DictBuilder::new().backend(Backend::ClassicPma).build();
    let ratio_keys = scale.embedded_keys / 4;
    let (mut hi_ns, mut classic_ns) = (0.0, 0.0);
    for c in 0..10 {
        let range = c * ratio_keys / 10..(c + 1) * ratio_keys / 10;
        let t = Instant::now();
        for i in range.clone() {
            hi.insert(key(i), value(i, seed));
        }
        hi_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for i in range {
            classic.insert(key(i), value(i, seed));
        }
        classic_ns += t.elapsed().as_nanos() as f64;
    }
    tally.check(hi.len() == classic.len());

    out.extend([
        Metric::new("dict.insert_ns", insert_ns, "ns", inserts),
        Metric::new("dict.remove_ns", remove_ns, "ns", removes),
        Metric::new("dict.get_ns", get_ns, "ns", gets),
        Metric::new("dict.scan_ns_per_key", scan_ns, "ns", scanned),
        Metric::new(
            "dict.apply_batch_ns_per_op",
            apply_ns,
            "ns",
            n_batches * BATCH as u64,
        ),
        Metric::new("dict.bulk_load_ms", bulk_ms, "ms", contents.len() as u64),
        Metric::new(
            "pma.moves_per_update",
            replay.element_moves as f64 / updates as f64,
            "count",
            updates,
        ),
        Metric::new(
            "pma.rebuild_slots_per_update",
            replay.rebuild_slots as f64 / updates as f64,
            "count",
            updates,
        ),
        Metric::new(
            "pma.comparisons_per_query",
            queries.comparisons as f64 / queries.queries.max(1) as f64,
            "count",
            queries.queries,
        ),
        Metric::new(
            "pma.batch_gathers_per_batch",
            batched.batch_gathers as f64 / n_batches as f64,
            "count",
            n_batches,
        ),
        Metric::new("pma.resizes", replay.resizes as f64, "count", updates),
        Metric::new(
            "pma.slots_per_element",
            slots as f64 / len as f64,
            "ratio",
            len as u64,
        ),
        Metric::new(
            "ratio.hi_over_classic_insert",
            hi_ns / classic_ns,
            "ratio",
            ratio_keys,
        ),
    ]);
    Ok(())
}

/// `shard`, `persist` and `block_store`: the server's own calls, made
/// directly. `multi_get`/`multi_apply` replay `wire_pipelined`'s stream in
/// 256-op batches against two HI-PMA shards; the same sharded dictionary
/// then feeds `wire_flush`'s canonicalise-and-commit path on a fresh file.
fn shard_and_storage(
    ops: &[Op],
    seed: u64,
    scale: &Scale,
    image: &Path,
    out: &mut Vec<Metric>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut sd = DictBuilder::from_config(workloads::server_config())
        .try_build_sharded::<u64, u64>()
        .map_err(|e| e.to_string())?;
    for start in (0..scale.wire_keys).step_by(PRELOAD_WINDOW) {
        let end = (start + PRELOAD_WINDOW as u64).min(scale.wire_keys);
        sd.multi_apply((start..end).map(|i| BatchOp::Put(key(i), value(i, seed))));
    }
    let mut live = Live::preloaded(scale.wire_keys);

    let (mut get_ns, mut apply_ns) = (0.0, 0.0);
    let (mut gets, mut applies) = (0u64, 0u64);
    for batch in ops.chunks(BATCH).take(200) {
        let mut keys = Vec::with_capacity(BATCH);
        let mut expect = Vec::with_capacity(BATCH);
        let mut writes = Vec::with_capacity(BATCH);
        for op in batch {
            match (&op.req, &op.expect) {
                (Request::Get { key }, Response::Value(v)) => {
                    keys.push(*key);
                    expect.push(Some(*v));
                }
                (Request::Put { key, value }, _) => {
                    writes.push(BatchOp::Put(*key, *value));
                    live.next += 1;
                }
                (Request::Del { key }, _) => {
                    writes.push(BatchOp::Remove(*key));
                    live.oldest += 1;
                }
                _ => return Err("unexpected operation in the pipelined stream".into()),
            }
        }
        let t = Instant::now();
        let got = sd.multi_get(&keys);
        get_ns += t.elapsed().as_nanos() as f64;
        gets += keys.len() as u64;
        // The server answers a GET of a key written earlier in the same
        // epoch from its overlay; here such a read sees the older state.
        for ((k, got), want) in keys.iter().zip(got).zip(expect) {
            tally.check(got == want || writes.iter().any(|w| w.key() == k));
        }
        applies += writes.len() as u64;
        let t = Instant::now();
        sd.multi_apply(writes);
        apply_ns += t.elapsed().as_nanos() as f64;
    }
    tally.check(sd.len() as u64 == live.len());

    let mut p = workloads::open_image(image)?;
    let coin = p.seed();
    let mut sorted_ms = Vec::new();
    let mut canonicalize_ms = Vec::new();
    let mut flush_ms = Vec::new();
    let mut blocks = Vec::new();
    // Round 0 is the first, full commit; the rest are steady-state.
    for round in 0..4 {
        sd.multi_apply(churn(&mut live, scale.flush_round_writes / 2, seed));
        let t = Instant::now();
        let contents = sd.to_sorted_vec();
        sorted_ms.push(ms(t));
        let t = Instant::now();
        p.bulk_load(contents.iter().copied(), coin);
        let canonicalize = ms(t);
        let before = p.store().stats().blocks_written();
        let t = Instant::now();
        let generation = p.flush().map_err(|e| format!("flush: {e}"))?;
        let flush = ms(t);
        tally.check(generation == round + 1);
        if round > 0 {
            canonicalize_ms.push(canonicalize);
            flush_ms.push(flush);
            blocks.push((p.store().stats().blocks_written() - before) as f64);
        }
    }

    // One more round with the block store's commit timed on its own: the
    // steps of `PersistentDict::flush`, made by hand.
    sd.multi_apply(churn(&mut live, scale.flush_round_writes / 2, seed));
    let contents = sd.to_sorted_vec();
    p.bulk_load(contents.iter().copied(), coin);
    let words = p
        .occupancy_words()
        .ok_or("HI-PMA exposes occupancy")?
        .to_vec();
    let slots = p.slot_count().ok_or("HI-PMA exposes its slot count")? as u64;
    let len = p.len() as u64;
    let t = Instant::now();
    p.store_mut()
        .commit(&words, slots, len, contents.iter().copied(), coin)
        .map_err(|e| format!("commit: {e}"))?;
    let commit_ms = ms(t);

    let file_bytes = std::fs::metadata(image)
        .map_err(|e| format!("{}: {e}", image.display()))?
        .len();
    let t = Instant::now();
    let scrub = p.scrub().map_err(|e| format!("scrub: {e}"))?;
    let scrub_s = t.elapsed().as_secs_f64();
    tally.check(scrub.is_clean());
    drop(p);
    let t = Instant::now();
    let mut reopened = workloads::open_image(image)?;
    let reopen_ms = ms(t);
    tally.check(reopened.len() as u64 == len);
    tally.check(reopened.verify().is_ok());
    tally.check(reopened.to_sorted_vec() == contents);

    out.extend([
        Metric::new(
            "shard.multi_apply_ns_per_op",
            apply_ns / applies.max(1) as f64,
            "ns",
            applies,
        ),
        Metric::new(
            "shard.multi_get_ns_per_op",
            get_ns / gets.max(1) as f64,
            "ns",
            gets,
        ),
        Metric::new("shard.to_sorted_vec_ms", median(&sorted_ms), "ms", 4),
        Metric::new("persist.canonicalize_ms", median(&canonicalize_ms), "ms", 3),
        Metric::new("persist.flush_ms", median(&flush_ms), "ms", 3),
        Metric::new("persist.reopen_ms", reopen_ms, "ms", 1),
        Metric::new("block_store.commit_ms", commit_ms, "ms", 1),
        Metric::new(
            "block_store.blocks_written_per_flush",
            median(&blocks),
            "count",
            3,
        ),
        Metric::new(
            "block_store.file_bytes_per_user_byte",
            file_bytes as f64 / (len * 16) as f64,
            "B/B",
            len,
        ),
        Metric::new(
            "block_store.scrub_mb_per_s",
            file_bytes as f64 / 1e6 / scrub_s,
            "MB/s",
            scrub.blocks_checked,
        ),
    ]);
    Ok(())
}

/// `server` and `client`: a live in-process server, one idle connection.
/// PING is answered inline by the connection reader and never queued, so
/// GET p50 − PING p50 is what the queue, the epoch wait and the engine add.
fn server_and_client(
    ops: &[Op],
    seed: u64,
    scale: &Scale,
    out: &mut Vec<Metric>,
    tally: &mut Tally,
) -> Result<(), String> {
    let wire = |e| format!("client error: {e}");
    let t = Instant::now();
    let mut server = workloads::spawn_server(None)?;
    let spawn_ms = ms(t);
    let mut client = Client::connect(server.addr()).map_err(wire)?;
    workloads::preload(&mut client, seed, scale, &mut Vec::new(), tally)?;

    let probes = scale.closed_chunks * scale.closed_chunk_ops / 2;
    let mut rand = script::Rand::new(seed, 0x5E4F);
    let mut ping_ns = Vec::with_capacity(probes);
    let mut get_ns = Vec::with_capacity(probes);
    for _ in 0..probes {
        let t = Instant::now();
        let resp = client.request(&Request::Ping).map_err(wire)?;
        ping_ns.push(t.elapsed().as_nanos() as f64);
        tally.check(resp == Response::Done);
    }
    for _ in 0..probes {
        let i = rand.below(scale.wire_keys);
        let t = Instant::now();
        let resp = client
            .request(&Request::Get { key: key(i) })
            .map_err(wire)?;
        get_ns.push(t.elapsed().as_nanos() as f64);
        tally.check(resp == Response::Value(value(i, seed)));
    }
    let ping_us = median(&ping_ns) / 1e3;
    let get_us = median(&get_ns) / 1e3;

    let steps = ops.len().min(3 * STEPS_PER_CHUNK * HALF_WINDOW);
    let mut rec = Recorder::on(Instant::now(), 4 * steps);
    let piped = workloads::pipelined(&mut client, &ops[..steps], tally, &mut rec)?;
    let st = rec.self_times();
    let self_ns = |name: &str| st.get(name).copied().unwrap_or_default();
    let (send, flush, recv) = (
        self_ns("client.send"),
        self_ns("client.flush"),
        self_ns("client.recv"),
    );
    drop(client);
    let t = Instant::now();
    server.shutdown();
    let shutdown_ms = ms(t);

    let requests = steps as u64;
    out.extend([
        Metric::new("client.send_ns", send.mean_ns(), "ns", send.count),
        // One flush per half window, spread over the requests it carries.
        Metric::new(
            "client.flush_ns",
            flush.self_ns as f64 / requests as f64,
            "ns",
            flush.count,
        ),
        Metric::new("client.recv_ns", recv.mean_ns(), "ns", recv.count),
        Metric::new("server.spawn_ms", spawn_ms, "ms", 1),
        Metric::new("server.shutdown_ms", shutdown_ms, "ms", 1),
        Metric::new("server.ping_p50_us", ping_us, "us", probes as u64),
        Metric::new(
            "server.queue_epoch_us",
            get_us - ping_us,
            "us",
            probes as u64,
        ),
        Metric::new(
            "server.window_rtt_us",
            median(&piped.window_rtt_ns) / 1e3,
            "us",
            piped.window_rtt_ns.len() as u64,
        ),
    ]);
    Ok(())
}

/// Runs every probe. `image` is a path for the storage probe's store; the
/// caller owns the file.
pub fn run_all(seed: u64, scale: &Scale, image: &Path) -> Result<(Vec<Metric>, Tally), String> {
    let mut out = Vec::new();
    let mut tally = Tally::default();
    let (ops, _) = script::pipelined_stream(seed, scale);
    protocol(&ops, &mut out, &mut tally);
    server_and_client(&ops, seed, scale, &mut out, &mut tally)?;
    shard_and_storage(&ops, seed, scale, image, &mut out, &mut tally)?;
    dict_and_pma(seed, scale, &mut out, &mut tally)?;
    Ok((out, tally))
}
