//! Mixed insert/delete/query throughput across every backend and workload.
//!
//! This is the repo's standing update-path performance trajectory: it
//! measures wall-clock operations per second for
//!
//! 1. the **rank-addressed engines** (`HiPma`, `ClassicPma`) under uniform
//!    random ranks, sequential appends and front-skewed (Zipf-like) ranks —
//!    the acceptance workload for the allocation-free rebalance engine is
//!    the 1M-key `u64` uniform insert phase of the HI PMA;
//! 2. the **seven keyed backends** behind the `DynDict` facade under
//!    uniform-mixed, sequential-insert and Zipf-skewed traces.
//!
//! A snapshot of these rows is committed as `BENCH_baseline.json` at the
//! repo root so later PRs are held to the recorded numbers (see
//! EXPERIMENTS.md). Scale with `AP_BENCH_SCALE`, dump rows with
//! `AP_BENCH_JSON=out.json`, or pass `--smoke` for a seconds-long CI run.

use std::hint::black_box;

use anti_persistence::dict::{Backend, Dict, DynDict};
use anti_persistence::prelude::Dictionary;
use ap_bench::{emit, env_usize, scramble, timed, Row};
use hi_common::RankedSequence;
use pma::{ClassicPma, HiPma};
use workloads::{mixed, sequential_inserts, zipf_inserts, Op, Trace};

/// Pre-generated rank sequence so generation cost never pollutes the timing.
/// `skew` 0 = uniform over the legal range; otherwise ranks are squashed
/// toward the front (a Zipf-like hot-spot for rank-addressed updates).
fn rank_trace(ops: usize, skew: bool, salt: u64) -> Vec<u64> {
    (0..ops as u64)
        .map(|i| {
            let r = scramble(i ^ salt);
            if skew {
                // Square the unit sample: mass concentrates near rank 0.
                let u = (r >> 11) as f64 / (1u64 << 53) as f64;
                ((u * u) * u64::MAX as f64) as u64
            } else {
                r
            }
        })
        .collect()
}

/// Runs `ops` inserts against a rank engine, ranks drawn from `ranks`
/// (reduced modulo the current length), returning ops/sec.
fn rank_insert_phase<S: RankedSequence<Item = u64>>(seq: &mut S, ranks: &[u64]) -> f64 {
    let (_, secs) = timed(|| {
        for (i, &r) in ranks.iter().enumerate() {
            let rank = (r % (seq.len() as u64 + 1)) as usize;
            seq.insert_at(rank, i as u64).expect("rank in range");
        }
    });
    ranks.len() as f64 / secs.max(1e-9)
}

/// Runs a 50/30/20 insert/delete/point-query mix, returning ops/sec.
fn rank_mixed_phase<S: RankedSequence<Item = u64>>(seq: &mut S, ranks: &[u64]) -> f64 {
    let mut sink = 0u64;
    let (_, secs) = timed(|| {
        for (i, &r) in ranks.iter().enumerate() {
            let len = seq.len();
            match i % 10 {
                0..=4 => {
                    let rank = (r % (len as u64 + 1)) as usize;
                    seq.insert_at(rank, i as u64).expect("rank in range");
                }
                5..=7 if len > 0 => {
                    let rank = (r % len as u64) as usize;
                    seq.delete_at(rank).expect("rank in range");
                }
                _ if len > 0 => {
                    let rank = (r % len as u64) as usize;
                    sink ^= *seq.get_ref(rank).expect("rank in range");
                }
                _ => {}
            }
        }
    });
    black_box(sink);
    ranks.len() as f64 / secs.max(1e-9)
}

fn run_rank_engines(rows: &mut Vec<Row>, insert_n: usize, mixed_n: usize) {
    println!("## rank-addressed engines (native Insert/Delete/Query API)\n");
    for (workload, skew) in [("uniform", false), ("sequential", false), ("zipf", true)] {
        // Append-only for "sequential"; otherwise pre-generated random ranks.
        let ranks: Vec<u64> = if workload == "sequential" {
            Vec::new()
        } else {
            rank_trace(insert_n, skew, 0xA11CE)
        };
        // HI PMA.
        let mut hi: HiPma<u64> = HiPma::new(7);
        let ops_per_sec = if workload == "sequential" {
            let (_, secs) = timed(|| {
                for i in 0..insert_n {
                    hi.insert_at(i, i as u64).expect("append rank");
                }
            });
            insert_n as f64 / secs.max(1e-9)
        } else {
            rank_insert_phase(&mut hi, &ranks)
        };
        println!("hi-pma      {workload:<11} insert x{insert_n:>8}: {ops_per_sec:>12.0} ops/s");
        rows.push(Row::new(
            &format!("hi-pma insert/{workload}"),
            insert_n as f64,
            ops_per_sec,
            "ops/sec",
        ));
        // Mixed phase continues from the loaded state.
        let mix = rank_trace(mixed_n, skew, 0xBEEF);
        let mixed_ops = rank_mixed_phase(&mut hi, &mix);
        println!("hi-pma      {workload:<11} mixed  x{mixed_n:>8}: {mixed_ops:>12.0} ops/s");
        rows.push(Row::new(
            &format!("hi-pma mixed/{workload}"),
            mixed_n as f64,
            mixed_ops,
            "ops/sec",
        ));

        // Classic PMA baseline.
        let mut classic: ClassicPma<u64> = ClassicPma::new();
        let ops_per_sec = if workload == "sequential" {
            let (_, secs) = timed(|| {
                for i in 0..insert_n {
                    classic.insert_at(i, i as u64).expect("append rank");
                }
            });
            insert_n as f64 / secs.max(1e-9)
        } else {
            rank_insert_phase(&mut classic, &ranks)
        };
        println!("classic-pma {workload:<11} insert x{insert_n:>8}: {ops_per_sec:>12.0} ops/s");
        rows.push(Row::new(
            &format!("classic-pma insert/{workload}"),
            insert_n as f64,
            ops_per_sec,
            "ops/sec",
        ));
        let mixed_ops = rank_mixed_phase(&mut classic, &mix);
        println!("classic-pma {workload:<11} mixed  x{mixed_n:>8}: {mixed_ops:>12.0} ops/s");
        rows.push(Row::new(
            &format!("classic-pma mixed/{workload}"),
            mixed_n as f64,
            mixed_ops,
            "ops/sec",
        ));
    }
}

/// Replays a keyed trace, folding query results into a sink so the optimizer
/// cannot discard them. Returns operations applied.
fn replay_keyed(trace: &Trace, dict: &mut DynDict<u64, u64>) -> u64 {
    let mut sink = 0u64;
    for op in &trace.ops {
        match *op {
            Op::Insert(k, v) => {
                dict.insert(k, v);
            }
            Op::Delete(k) => {
                dict.remove(&k);
            }
            Op::Get(k) => {
                if let Some(v) = dict.get_ref(&k) {
                    sink ^= *v;
                }
            }
            Op::Range(a, b) => {
                sink ^= dict.range_iter(a..=b).map(|(_, v)| *v).sum::<u64>();
            }
        }
    }
    black_box(sink);
    trace.ops.len() as u64
}

fn run_keyed_backends(rows: &mut Vec<Row>, ops: usize) {
    println!("\n## keyed backends (DynDict facade), {ops} ops per cell\n");
    let key_space = (ops as u64 / 2).max(64);
    let traces = [
        ("uniform", mixed(ops, key_space, 0.5, 0xD1CE)),
        ("sequential", sequential_inserts(ops)),
        ("zipf", zipf_inserts(ops, key_space, 1.1, 0x21BF)),
    ];
    for backend in Backend::ALL {
        for (workload, trace) in &traces {
            let mut dict: DynDict<u64, u64> = Dict::builder()
                .backend(backend)
                .seed(11)
                .block_elems(64)
                .build();
            let (applied, secs) = timed(|| replay_keyed(trace, &mut dict));
            let ops_per_sec = applied as f64 / secs.max(1e-9);
            println!("{backend:<20} {workload:<11} x{applied:>8}: {ops_per_sec:>12.0} ops/s");
            rows.push(Row::new(
                &format!("{backend}/{workload}"),
                applied as f64,
                ops_per_sec,
                "ops/sec",
            ));
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Acceptance workload: 1M-key u64 uniform inserts on the rank engines.
    let (insert_n, mixed_n, keyed_ops) = if smoke {
        (20_000, 10_000, 3_000)
    } else {
        (
            env_usize("AP_BENCH_INSERT_N", 1_000_000),
            env_usize("AP_BENCH_MIXED_N", 200_000),
            env_usize("AP_BENCH_KEYED_OPS", 60_000),
        )
    };
    let mut rows: Vec<Row> = Vec::new();
    run_rank_engines(&mut rows, insert_n, mixed_n);
    run_keyed_backends(&mut rows, keyed_ops);
    emit("update throughput (ops/sec, higher is better)", &rows);
}
