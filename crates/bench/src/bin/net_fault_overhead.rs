//! `net_fault_overhead`: what exactly-once costs on the healthy path.
//!
//! Protocol v2 makes every mutating request carry an idempotency token,
//! and a HELLO-bound connection makes the server record each success in
//! its per-client dedup window. That machinery only pays off when the
//! network misbehaves — this harness measures what it costs when the
//! network is fine, by running the same seeded 95/5 closed-loop script
//! twice against one in-process server:
//!
//! * **anonymous** — no HELLO, client id 0: tokens correlate but are
//!   never recorded, the server's dedup registry stays untouched;
//! * **tokened** — each connection HELLOs a distinct client id, so every
//!   PUT lands in the dedup window and every retry knob is armed.
//!
//! The headline row is `overhead_pct`: the tokened mode's throughput
//! deficit relative to anonymous (the PR 9 `dict-loadgen` baseline shape).
//! Rows land in `AP_BENCH_JSON` (gated by `json_check` in CI) and a
//! snapshot is appended to `BENCH_baseline.json`; `--smoke` shrinks the
//! sweep to a seconds-long CI gate.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use anti_persistence::dict::{Backend, DictConfig};
use ap_bench::{emit, env_usize, mix_op, preload, Row};
use dict_server::{Client, ClientConfig, ClientError, Server, ServerOptions};

/// `clients` synchronous connections, `ops` requests each; returns ops/s.
/// `tokened` switches between the anonymous fast path and HELLO-bound
/// identities with the full retry/dedup machinery armed.
fn closed_loop(addr: SocketAddr, clients: usize, ops: usize, keyspace: u64, tokened: bool) -> f64 {
    let start = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        handles.push(std::thread::spawn(move || -> Result<(), ClientError> {
            let cfg = ClientConfig {
                client_id: if tokened { c as u64 + 1 } else { 0 },
                read_timeout: Duration::from_secs(10),
                retry_budget: 4,
                backoff: Duration::from_millis(10),
                ..ClientConfig::default()
            };
            let mut client = Client::connect_with(addr, cfg)?;
            let salt = 0x0F_F10AD + c as u64;
            for i in 0..ops {
                client.roundtrip(&mix_op(i as u64, salt, keyspace))?;
            }
            Ok(())
        }));
    }
    for h in handles {
        h.join()
            .expect("bench client thread panicked")
            .expect("bench client I/O failed");
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (clients * ops) as f64 / elapsed
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ops, keyspace, client_counts): (usize, u64, Vec<usize>) = if smoke {
        (2_000, 4_096, vec![2])
    } else {
        (
            env_usize("AP_BENCH_NETFAULT_OPS", 20_000),
            env_usize("AP_BENCH_NETFAULT_KEYSPACE", 65_536) as u64,
            vec![1, 4],
        )
    };

    let server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: DictConfig {
                backend: Backend::HiPma,
                seed: 7,
                shards: 4,
                ..DictConfig::default()
            },
            persist: None,
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    preload(addr, keyspace).expect("preload failed");

    let mut rows: Vec<Row> = Vec::new();
    println!("## exactly-once overhead, {ops} ops per client, keyspace {keyspace}\n");
    for &clients in &client_counts {
        // Anonymous first warms the page cache identically for both modes.
        let anon = closed_loop(addr, clients, ops, keyspace, false);
        let tokened = closed_loop(addr, clients, ops, keyspace, true);
        let overhead_pct = (anon - tokened) / anon.max(1e-9) * 100.0;
        rows.push(Row::new(
            "dict-server anonymous 95/5",
            clients as f64,
            anon,
            "ops/sec",
        ));
        rows.push(Row::new(
            "dict-server tokened+dedup 95/5",
            clients as f64,
            tokened,
            "ops/sec",
        ));
        rows.push(Row::new(
            "exactly-once overhead",
            clients as f64,
            overhead_pct,
            "overhead_pct",
        ));
        println!(
            "c={clients:<2} anonymous {anon:>9.0} ops/s   tokened {tokened:>9.0} ops/s   \
             overhead {overhead_pct:>5.1}%"
        );
    }
    emit("exactly-once token/dedup overhead (95/5 mix)", &rows);
}
