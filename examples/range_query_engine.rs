//! A sharded range-query service: the workload a database secondary index
//! sees, scaled out the way a deployment actually runs it.
//!
//! One builder line turns any engine into an `S`-shard service
//! (`.shards(S).build_sharded()`): keys hash-partition across `S`
//! independent history-independent shards behind a seeded router, bulk
//! ingest and point-read traffic arrive as batches split per shard, and
//! global range scans k-way-merge the shards' lazy iterators without
//! allocating. The per-shard I/O tracers roll up into one aggregated
//! ledger, so the measurement code below is identical for every backend —
//! and the merged scans still show the `log_B N + k/B` shape of Theorems 2
//! and 3.
//!
//! Run with: `cargo run --release --example range_query_engine`

// Examples are seeded end to end: the determinism gate applies here too.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use anti_persistence::prelude::*;
use workloads::{mixed, random_inserts, Op};

#[expect(
    clippy::disallowed_types,
    reason = "the example times its engines for the printed table; no reading reaches a layout"
)]
fn main() {
    let n = 50_000usize;
    let block = 64usize;
    let shards = 4usize;

    let load = random_inserts(n, 7);
    let work = mixed(20_000, 2 * n as u64, 0.4, 9);

    // The engines under comparison — a runtime value, not a code path —
    // each with its own stated seed, which no reordering of `Backend` moves.
    let engines = [
        (Backend::HiPma, 5),
        (Backend::HiSkipList, 2),
        (Backend::FolkloreSkipList, 3),
        (Backend::BTree, 1),
    ];

    println!(
        "{shards}-shard service: bulk-ingesting {n} random keys, then {} mixed ops\n",
        work.len()
    );
    println!(
        "{:<28} {:>12} {:>12} {:>14}",
        "backend", "ingest ms", "work ms", "ops/s (work)"
    );

    let mut built: Vec<ShardedDict<DynDict<u64, u64>>> = Vec::new();
    for (backend, seed) in engines {
        let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
            .backend(backend)
            .seed(seed)
            .block_elems(block)
            .fanout(block)
            .io(IoConfig::new(4096, 1 << 10))
            .shards(shards)
            .build_sharded();

        // Bulk ingest: the load trace arrives as one batched multi_put.
        let t0 = std::time::Instant::now();
        service.multi_put(load.ops.iter().filter_map(|op| match op {
            Op::Insert(k, v) => Some((*k, *v)),
            _ => None,
        }));
        let load_ms = t0.elapsed().as_secs_f64() * 1000.0;

        // Mixed traffic: point reads go through batched multi_get, writes
        // and deletes through the batched write path, range queries through
        // the merged scan.
        let t1 = std::time::Instant::now();
        let mut puts: Vec<(u64, u64)> = Vec::new();
        let mut gets: Vec<u64> = Vec::new();
        let mut sink = 0u64;
        for op in &work.ops {
            match *op {
                Op::Insert(k, v) => puts.push((k, v)),
                Op::Delete(k) => {
                    service.multi_put(std::mem::take(&mut puts));
                    service.remove(&k);
                }
                Op::Get(k) => gets.push(k),
                Op::Range(a, b) => {
                    service.multi_put(std::mem::take(&mut puts));
                    sink ^= service.range_iter(a..=b).map(|(_, v)| *v).sum::<u64>();
                }
            }
            if gets.len() >= 512 {
                for v in service.multi_get(&gets).into_iter().flatten() {
                    sink ^= v;
                }
                gets.clear();
            }
        }
        service.multi_put(puts);
        for v in service.multi_get(&gets).into_iter().flatten() {
            sink ^= v;
        }
        std::hint::black_box(sink);
        let work_ms = t1.elapsed().as_secs_f64() * 1000.0;

        println!(
            "{:<28} {:>12.1} {:>12.1} {:>14.0}",
            backend.name(),
            load_ms,
            work_ms,
            work.len() as f64 / (work_ms / 1000.0)
        );
        built.push(service);
    }

    // Range-scan cost as a function of result size, read from the
    // *aggregated* per-shard I/O ledgers — identical measurement code for
    // every backend; the scans go through the allocation-free k-way merge.
    println!("\nrange-scan cost (simulated block transfers per query, k = result size,");
    println!("summed across all {shards} shard tracers)");
    print!("{:<10}", "k");
    for (backend, _) in engines {
        print!(" {:>18}", backend.name());
    }
    println!();
    for k in [16u64, 64, 256, 1024, 4096] {
        let queries = workloads::range_queries(n as u64, k, 20, k);
        print!("{k:<10}");
        for service in &built {
            let mut total = 0u64;
            let mut count = 0u64;
            for op in &queries.ops {
                if let Op::Range(a, b) = op {
                    for shard in service.shards() {
                        shard.tracer().reset_cold();
                    }
                    let hits = service.range_iter(*a..=*b).count();
                    total += service.io_stats().transfers();
                    count += 1;
                    assert!(hits as u64 <= k);
                }
            }
            print!(" {:>18.1}", total as f64 / count as f64);
        }
        println!();
    }

    println!("\nExpect every column to grow roughly linearly in k/B once k dominates the");
    println!("search term — sharding leaves the `log_B N + k/B` shape of Theorems 2");
    println!("and 3 intact, because each shard scans only its own k/S of the hits.");
}
