//! `dict-loadgen`: drive a running `dict-server` with a seeded 95/5
//! get/put mix and report latency percentiles and saturation throughput.
//!
//! Two modes per run:
//!
//! - **closed-loop** — `C` connections, each a thread issuing one
//!   synchronous request at a time. Throughput here *is* the saturation
//!   number: every client always has exactly one request in flight, so
//!   total ops/s is what the server sustains at that concurrency.
//! - **open-loop** — one connection, a sender pacing pipelined requests at
//!   a target arrival rate while a receiver timestamps responses; latency
//!   is measured from the *scheduled* send time, so queueing delay under
//!   load is visible (the coordinated-omission-free number).
//!
//! Every key and mix decision derives from splitmix64 over a fixed salt,
//! so two runs against equal-seeded servers issue identical streams.
//! Rows land in `AP_BENCH_JSON` (gated by `json_check` in CI) and a
//! snapshot is appended to `BENCH_baseline.json`; `--smoke` shrinks the
//! sweep to a seconds-long CI gate. `--addr HOST:PORT` (required) names
//! the server.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ap_bench::{emit, env_usize, mix_op, preload, Row};
use dict_server::protocol::{decode_response, encode_request, read_frame, write_frame, Frame};
use dict_server::{Client, ClientError, Response};

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64
}

struct Measured {
    /// Sorted per-op latencies in microseconds.
    latencies: Vec<u64>,
    /// Total completed ops divided by wall time.
    throughput: f64,
    shed: usize,
}

/// `C` synchronous clients, `ops` requests each.
fn closed_loop(addr: SocketAddr, clients: usize, ops: usize, keyspace: u64) -> Measured {
    let start = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        handles.push(std::thread::spawn(move || -> Result<_, ClientError> {
            let mut client = Client::connect(addr)?;
            let salt = 0xC105_ED00 + c as u64;
            let mut lat = Vec::with_capacity(ops);
            let mut shed = 0usize;
            for i in 0..ops {
                let req = mix_op(i as u64, salt, keyspace);
                let t0 = Instant::now();
                let resp = client.request(&req)?;
                lat.push(t0.elapsed().as_micros() as u64);
                if matches!(resp, Response::Overloaded) {
                    shed += 1;
                }
            }
            Ok((lat, shed))
        }));
    }
    let mut latencies = Vec::with_capacity(clients * ops);
    let mut shed = 0;
    for h in handles {
        let (lat, s) = h
            .join()
            .expect("loadgen client thread panicked")
            .expect("loadgen client I/O failed");
        latencies.extend(lat);
        shed += s;
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let throughput = latencies.len() as f64 / elapsed;
    latencies.sort_unstable();
    Measured {
        latencies,
        throughput,
        shed,
    }
}

/// One pipelined connection paced at `rate` ops/s; latency measured from
/// each op's *scheduled* send time. The send and receive halves are the
/// two clones of one socket, driven by separate threads.
fn open_loop(addr: SocketAddr, rate: f64, ops: usize, keyspace: u64) -> Measured {
    let stream = TcpStream::connect(addr).expect("loadgen connect failed");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = BufWriter::new(stream.try_clone().expect("socket clone"));
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    let producer = std::thread::spawn(move || -> std::io::Result<()> {
        for i in 0..ops {
            let due = Duration::from_secs_f64(i as f64 / rate);
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            // Raw enveloped frames (token = i + 1, anonymous connection):
            // correlation without dedup, so the open loop measures the
            // untokened fast path.
            write_frame(
                &mut writer,
                &encode_request(i as u64 + 1, &mix_op(i as u64, 0x0FE2_10AD, keyspace)),
            )?;
            writer.flush()?;
        }
        Ok(())
    });
    let mut latencies = Vec::with_capacity(ops);
    let mut shed = 0usize;
    for i in 0..ops {
        let resp = match read_frame(&mut reader).expect("loadgen recv failed") {
            Frame::Body(body) => decode_response(&body).expect("response decodes").1,
            other => panic!("server hung up mid-run: {other:?}"),
        };
        if matches!(resp, Response::Overloaded) {
            shed += 1;
        }
        let due = Duration::from_secs_f64(i as f64 / rate);
        latencies.push(start.elapsed().saturating_sub(due).as_micros() as u64);
    }
    producer
        .join()
        .expect("loadgen sender thread panicked")
        .expect("loadgen send failed");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let throughput = ops as f64 / elapsed;
    latencies.sort_unstable();
    Measured {
        latencies,
        throughput,
        shed,
    }
}

fn push_rows(rows: &mut Vec<Row>, series: &str, x: f64, m: &Measured) {
    for (metric, p) in [
        ("latency_p50_us", 0.50),
        ("latency_p99_us", 0.99),
        ("latency_p999_us", 0.999),
    ] {
        rows.push(Row::new(series, x, percentile(&m.latencies, p), metric));
    }
    rows.push(Row::new(series, x, m.throughput, "ops/sec"));
}

fn report(series: &str, m: &Measured) {
    println!(
        "{series:<38} p50={:>7.0}us p99={:>7.0}us p999={:>7.0}us {:>9.0} ops/s{}",
        percentile(&m.latencies, 0.50),
        percentile(&m.latencies, 0.99),
        percentile(&m.latencies, 0.999),
        m.throughput,
        if m.shed > 0 {
            format!("  ({} shed)", m.shed)
        } else {
            String::new()
        }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let addr: SocketAddr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .expect("--addr HOST:PORT is required")
        .parse()
        .expect("--addr must be HOST:PORT");

    let (ops, keyspace, client_counts, rates): (usize, u64, Vec<usize>, Vec<f64>) = if smoke {
        (2_000, 4_096, vec![1, 2], vec![20_000.0])
    } else {
        (
            env_usize("AP_BENCH_LOADGEN_OPS", 20_000),
            env_usize("AP_BENCH_LOADGEN_KEYSPACE", 65_536) as u64,
            vec![1, 2, 4, 8],
            vec![50_000.0, 150_000.0],
        )
    };

    preload(addr, keyspace).expect("preload failed");

    let mut rows: Vec<Row> = Vec::new();
    println!("## dict-server 95/5 get/put mix, {ops} ops per client, keyspace {keyspace}\n");
    for &clients in &client_counts {
        let m = closed_loop(addr, clients, ops, keyspace);
        let series = format!("dict-server closed-loop 95/5 c={clients}");
        push_rows(&mut rows, &series, clients as f64, &m);
        report(&series, &m);
    }
    for &rate in &rates {
        let m = open_loop(addr, rate, ops, keyspace);
        let series = format!("dict-server open-loop 95/5 rate={}", rate as u64);
        push_rows(&mut rows, &series, rate, &m);
        report(&series, &m);
    }

    emit("dict-server latency/throughput (95/5 get/put mix)", &rows);
}
