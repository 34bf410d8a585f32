//! Quickstart: a history-independent keyed index in a few lines.
//!
//! Run with: `cargo run --release --example quickstart`

// Examples are seeded end to end: the determinism gate applies here too.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use anti_persistence::prelude::*;

fn main() {
    // One builder constructs any engine; the HI cache-oblivious B-tree is
    // the drop-in replacement for a database index. The seed is the
    // structure's secret randomness — draw it from OS entropy in production.
    let mut index: DynDict<u64, String> = Dict::builder()
        .backend(Backend::CobBTree)
        .seed(2024)
        .build();

    println!("== inserting a few records ==");
    for (id, name) in [
        (1002, "carol"),
        (1000, "alice"),
        (1003, "dave"),
        (1001, "bob"),
    ] {
        index.insert(id, name.to_string());
        println!("  insert {id} -> {name}");
    }

    println!("\n== zero-copy point and range queries ==");
    println!("  get_ref(1001)     = {:?}", index.get_ref(&1001));
    println!("  predecessor(1002) = {:?}", index.predecessor(&1002));
    println!(
        "  range_iter(1000..=1002) = {:?}",
        index
            .range_iter(1000..=1002)
            .map(|(k, v)| format!("{k}:{v}"))
            .collect::<Vec<_>>()
    );

    println!("\n== secure delete ==");
    index.remove(&1002);
    println!("  removed 1002; len = {}", index.len());
    println!("  the array layout now follows the same distribution as if 1002 had never existed");

    println!("\n== batch loading with fresh coins ==");
    let mut replica: DynDict<u64, String> = Dict::builder()
        .backend(Backend::CobBTree)
        .seed(9999)
        .build();
    // bulk_load re-draws every layout coin from the given seed, so the
    // replica's bytes are a function of (contents, 0xC0FFEE) only — not of
    // the order the pairs arrive in.
    replica.bulk_load(index.iter().map(|(k, v)| (*k, v.clone())), 0xC0FFEE);
    assert_eq!(replica.to_sorted_vec(), index.to_sorted_vec());
    println!(
        "  replica bulk-loaded: {} records, same contents",
        replica.len()
    );

    println!("\n== operation ledger ==");
    let ops = index.counters().snapshot();
    println!(
        "  {} inserts, {} queries, {} element moves so far",
        ops.inserts, ops.queries, ops.element_moves
    );

    // The same call sites work for every dictionary in the workspace — swap
    // the backend word (or loop over all of them) without touching the code.
    println!("\n== the same Dictionary trait, every engine ==");
    for backend in Backend::ALL {
        let mut d: DynDict<u64, String> = Dict::builder().backend(backend).seed(2024).build();
        d.insert(1, format!("via {backend}"));
        println!("  {backend:<20} get(1) = {:?}", d.get(&1));
    }
}
