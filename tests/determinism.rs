//! Seeded-determinism regression tests.
//!
//! The history-independence oracles in `tests/history_independence.rs`
//! check the layout a structure draws under fixed coins, which assumes
//! that a structure's layout is a pure function of `(contents, seed)` —
//! the paper's "secret coins" become reproducible streams under a fixed
//! seed. These tests make that assumption explicit:
//! replaying the same operations with the same seed must produce
//! *bit-identical* layouts, while a different seed must (overwhelmingly
//! likely) produce a different one.

use anti_persistence::dict::HiDict;
use anti_persistence::prelude::*;
use workloads::{mixed, replay, Op};

/// A moderately adversarial build: mixed inserts/deletes, then a burst of
/// overwrites.
fn build_hi_dict(seed: u64) -> HiDict {
    let mut t = HiDict::new(HiPma::new(seed));
    replay(&mixed(3_000, 500, 0.6, 42), &mut t);
    for k in 0..100u64 {
        t.insert(k, k + 1);
    }
    t
}

fn build_skiplist(seed: u64) -> ExternalSkipList<u64, u64> {
    let mut s: ExternalSkipList<u64, u64> = ExternalSkipList::history_independent(16, 0.5, seed);
    replay(&mixed(3_000, 500, 0.6, 42), &mut s);
    s
}

fn build_hi_pma(seed: u64) -> HiPma<u64> {
    let mut p: HiPma<u64> = HiPma::new(seed);
    let trace = mixed(2_000, 400, 0.7, 42);
    // Convert the keyed trace into rank operations against a sorted shadow.
    let mut keys: Vec<u64> = Vec::new();
    for op in &trace.ops {
        match *op {
            Op::Insert(k, _) => {
                if let Err(rank) = keys.binary_search(&k) {
                    keys.insert(rank, k);
                    p.insert_at(rank, k).expect("insert in range");
                }
            }
            Op::Delete(k) => {
                if let Ok(rank) = keys.binary_search(&k) {
                    keys.remove(rank);
                    p.delete_at(rank).expect("delete in range");
                }
            }
            _ => {}
        }
    }
    p
}

#[test]
fn hi_pma_layout_is_a_function_of_seed_and_contents() {
    let a = build_hi_pma(0xC0FFEE);
    let b = build_hi_pma(0xC0FFEE);
    assert_eq!(a.to_vec(), b.to_vec(), "contents must agree");
    assert_eq!(a.n_hat(), b.n_hat(), "capacity parameter must be identical");
    assert_eq!(a.total_slots(), b.total_slots());
    assert_eq!(
        a.occupancy(),
        b.occupancy(),
        "slot bitmap must be bit-identical"
    );
}

#[test]
fn hi_pma_layout_differs_across_seeds() {
    let a = build_hi_pma(1);
    let b = build_hi_pma(2);
    assert_eq!(a.to_vec(), b.to_vec(), "contents must agree across seeds");
    // With independent secret coins the probability of identical occupancy
    // bitmaps at this size is negligible.
    assert_ne!(
        a.occupancy(),
        b.occupancy(),
        "different seeds should yield different layouts"
    );
}

#[test]
fn hi_dict_layout_is_a_function_of_seed_and_contents() {
    let a = build_hi_dict(0xDEADBEEF);
    let b = build_hi_dict(0xDEADBEEF);
    assert_eq!(a.to_sorted_vec(), b.to_sorted_vec(), "contents must agree");
    assert_eq!(a.seq().total_slots(), b.seq().total_slots());
    assert_eq!(
        a.seq().occupancy(),
        b.seq().occupancy(),
        "slot bitmap must be bit-identical"
    );
    assert_eq!(a.seq().n_hat(), b.seq().n_hat());
}

#[test]
fn hi_dict_layout_differs_across_seeds() {
    let a = build_hi_dict(7);
    let b = build_hi_dict(8);
    assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
    assert_ne!(
        a.seq().occupancy(),
        b.seq().occupancy(),
        "different seeds should yield different layouts"
    );
}

#[test]
fn skiplist_layout_is_a_function_of_seed_and_contents() {
    let a = build_skiplist(0xFEED);
    let b = build_skiplist(0xFEED);
    assert_eq!(a.to_sorted_vec(), b.to_sorted_vec(), "contents must agree");
    assert_eq!(a.height(), b.height(), "tower heights must be identical");
    assert_eq!(a.leaf_node_count(), b.leaf_node_count());
    assert_eq!(
        a.leaf_array_lengths(),
        b.leaf_array_lengths(),
        "leaf arrays must be bit-identical"
    );
    assert_eq!(a.space_records(), b.space_records());
}

#[test]
fn skiplist_layout_differs_across_seeds() {
    let a = build_skiplist(100);
    let b = build_skiplist(200);
    assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
    // Pivot choices and leaf padding are seed-dependent; the full leaf-array
    // length vector colliding across seeds is overwhelmingly unlikely.
    assert_ne!(
        a.leaf_array_lengths(),
        b.leaf_array_lengths(),
        "different seeds should yield different leaf layouts"
    );
}

// ---------------------------------------------------------------------
// Engine-independence pins: the storage engine is an implementation detail
// of the representation function — the occupancy bitmap for a given
// (operations, seed) must never change when the engine is rewritten. The
// classic-PMA fingerprint below was captured from the original
// Vec<Option<T>> slot engine (pre flat-storage rework). The HI-PMA ones
// were re-pinned once, when the layout *function* changed: the range tree
// now ends `LEAF_SCALE_LOG2` = 3 levels early over leaves eight times as
// wide (same slot array, same coin rules, fewer coins drawn), which is also
// what made format version 3 at rest. They pin this engine, and any future
// one, to bit-identical layouts across both the incremental and bulk_load
// build paths.
// ---------------------------------------------------------------------

/// FNV-1a over the occupancy bits plus trailing layout parameters.
fn layout_fingerprint(bits: &[bool], extra: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in bits {
        step(b as u64);
    }
    for &e in extra {
        step(e);
    }
    h
}

#[test]
fn hi_pma_layouts_are_bit_identical_to_the_reference_engine() {
    // Sequential appends.
    let mut p: HiPma<u64> = HiPma::new(0xFEED5EED);
    for i in 0..10_000 {
        p.insert_at(i, i as u64).unwrap();
    }
    assert_eq!(
        layout_fingerprint(&p.occupancy(), &[p.n_hat() as u64, p.total_slots() as u64]),
        // was 0x2A55_19A0_F05F_C4DA: three fewer balance draws per path, 8× leaves
        0xA2C2_C138_A066_07FD,
        "sequential-append layout diverged from the reference engine"
    );

    // Deterministic mixed rank churn.
    let mut p: HiPma<u64> = HiPma::new(0xABCD);
    for i in 0u64..8_000 {
        let len = p.len() as u64;
        if i % 3 == 2 && len > 0 {
            p.delete_at(((i * 104_729) % len) as usize).unwrap();
        } else {
            p.insert_at(((i * 7_919) % (len + 1)) as usize, i).unwrap();
        }
    }
    assert_eq!(
        layout_fingerprint(&p.occupancy(), &[p.n_hat() as u64, p.total_slots() as u64]),
        // was 0xD9BA_3261_B875_16C3: same cause, on the delete path too
        0xAC02_6D8F_0F70_6F20,
        "mixed-churn layout diverged from the reference engine"
    );
}

#[test]
fn hi_pma_bulk_load_layout_is_bit_identical_to_the_reference_engine() {
    let mut p: HiPma<u64> = HiPma::new(1);
    p.bulk_load((0..5_000u64).map(|k| k * 3), 0xB01D);
    assert_eq!(
        layout_fingerprint(&p.occupancy(), &[p.n_hat() as u64, p.total_slots() as u64]),
        // was 0x6439_4AD5_3978_65E4: bulk_load plans the same shorter tree
        0xB1D3_50E6_96BA_B17A,
        "bulk_load layout diverged from the reference engine"
    );
}

#[test]
fn classic_pma_layout_is_bit_identical_to_the_reference_engine() {
    let mut c: ClassicPma<u64> = ClassicPma::new();
    for i in 0..6_000 {
        c.insert_at(i, i as u64).unwrap();
    }
    for i in 0..2_000u64 {
        c.insert_at(0, i).unwrap();
    }
    assert_eq!(
        layout_fingerprint(&c.occupancy(), &[c.total_slots() as u64]),
        0x29F1_9C9F_FDDD_7421,
        "classic-PMA layout diverged from the reference engine"
    );

    // Seeded delete churn: two deletes per insert at random ranks, so both
    // updates' window rebalances run and the array shrinks through several
    // resizes, from 8 000 elements to 1 000. The pin covers the contents too.
    let mut state = 0xDE1E_7E5Eu64;
    for i in 0..21_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let (r, len) = (state >> 33, c.len() as u64);
        if i % 3 == 2 {
            c.insert_at((r % (len + 1)) as usize, i).unwrap();
        } else {
            c.delete_at((r % len) as usize).unwrap();
        }
    }
    let mut extra = vec![c.total_slots() as u64];
    extra.extend(c.iter());
    assert_eq!(
        layout_fingerprint(&c.occupancy(), &extra),
        0xE45E_C992_CB77_83C2,
        "classic-PMA delete-churn layout diverged from the reference engine"
    );
}

// ---------------------------------------------------------------------
// Batch determinism: apply_batch must be *bit-identical* to per-op
// application — a batch is applied in arrival order, drawing the same coins
// in the same order, so the occupancy bitmap of every slot-array backend
// must not depend on how the stream was chunked into batches.
// ---------------------------------------------------------------------

/// A mixed keyed op stream: `(is_put, key, value)`.
fn keyed_stream(ops: usize, mode: &str, salt: u64) -> Vec<(bool, u64, u64)> {
    let mut state = salt | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..ops as u64)
        .map(|i| {
            let r = next();
            let key = match mode {
                "sequential" => i / 2, // revisits keys: overwrites + removes hit
                "zipf" => {
                    let u = (r % (1 << 20)) as f64 / (1u64 << 20) as f64;
                    ((u * u) * 4_000.0) as u64
                }
                _ => r % 30_000,
            };
            (next() % 4 != 0, key, i)
        })
        .collect()
}

#[test]
fn batched_apply_is_bit_identical_across_batch_sizes() {
    use hi_common::batch::BatchOp;
    for backend in [Backend::HiPma, Backend::ClassicPma] {
        for mode in ["uniform", "sequential", "zipf"] {
            let stream = keyed_stream(6_000, mode, 0xBEE5);
            // Reference: element-at-a-time application.
            let mut per_op: DynDict<u64, u64> = Dict::builder().backend(backend).seed(42).build();
            for &(is_put, k, v) in &stream {
                if is_put {
                    per_op.insert(k, v);
                } else {
                    per_op.remove(&k);
                }
            }
            let reference = per_op.occupancy().expect("slot-array backend");
            for chunk in [1usize, 16, 256, 4_096] {
                let mut batched: DynDict<u64, u64> =
                    Dict::builder().backend(backend).seed(42).build();
                for part in stream.chunks(chunk) {
                    let ops: Vec<BatchOp<u64, u64>> = part
                        .iter()
                        .map(|&(is_put, k, v)| {
                            if is_put {
                                BatchOp::Put(k, v)
                            } else {
                                BatchOp::Remove(k)
                            }
                        })
                        .collect();
                    batched.apply_batch(ops);
                }
                assert_eq!(
                    per_op.to_sorted_vec(),
                    batched.to_sorted_vec(),
                    "{backend}/{mode} chunk {chunk}: contents"
                );
                assert_eq!(
                    reference,
                    batched.occupancy().expect("slot-array backend"),
                    "{backend}/{mode} chunk {chunk}: occupancy must be bit-identical"
                );
                batched.check_invariants();
            }
        }
    }
}

#[test]
fn sharded_mixed_batches_are_bit_identical_across_splits() {
    use hi_common::batch::BatchOp;
    // Mixed put/remove streams through multi_apply, at several shard
    // counts and several chunkings: every split must leave bit-identical
    // per-shard layouts — the batched twin of
    // `sharded_layouts_are_bit_identical_across_work_splits`.
    let stream = keyed_stream(5_000, "uniform", 0x51AB);
    for shards in [2usize, 4, 8] {
        let mut per_op: ShardedDict<DynDict<u64, u64>> = Dict::builder()
            .backend(Backend::HiPma)
            .seed(0xD15C)
            .shards(shards)
            .build_sharded();
        for &(is_put, k, v) in &stream {
            if is_put {
                per_op.insert(k, v);
            } else {
                per_op.remove(&k);
            }
        }
        let reference = shard_layouts(&per_op);
        for chunk in [97usize, 1_024, 5_000] {
            let mut batched: ShardedDict<DynDict<u64, u64>> = Dict::builder()
                .backend(Backend::HiPma)
                .seed(0xD15C)
                .shards(shards)
                .build_sharded();
            for part in stream.chunks(chunk) {
                let ops: Vec<BatchOp<u64, u64>> = part
                    .iter()
                    .map(|&(is_put, k, v)| {
                        if is_put {
                            BatchOp::Put(k, v)
                        } else {
                            BatchOp::Remove(k)
                        }
                    })
                    .collect();
                batched.multi_apply(ops);
            }
            assert_eq!(
                per_op.to_sorted_vec(),
                batched.to_sorted_vec(),
                "S={shards} chunk {chunk}: contents"
            );
            assert_eq!(
                reference,
                shard_layouts(&batched),
                "S={shards} chunk {chunk}: per-shard layouts must be bit-identical"
            );
        }
    }
}

// ---------------------------------------------------------------------
// bulk_load determinism: the layout after a bulk load must be a pure
// function of (contents, bulk seed) — independent of the order the pairs
// arrive in, of the structure's construction seed, and of anything it held
// before the load.
// ---------------------------------------------------------------------

/// The same 2 000 pairs in three different arrival orders.
fn bulk_inputs() -> [Vec<(u64, u64)>; 3] {
    let ascending: Vec<(u64, u64)> = (0..2_000u64).map(|k| (k * 5, k)).collect();
    let mut descending = ascending.clone();
    descending.reverse();
    // Interleaved halves: evens first, then odds.
    let mut interleaved: Vec<(u64, u64)> = ascending.iter().copied().step_by(2).collect();
    interleaved.extend(ascending.iter().copied().skip(1).step_by(2));
    [ascending, descending, interleaved]
}

#[test]
fn hi_dict_bulk_load_is_order_independent_given_the_seed() {
    let bulk_seed = 0xB01D;
    let mut layouts = Vec::new();
    for (i, input) in bulk_inputs().into_iter().enumerate() {
        // Different construction seeds and different pre-existing contents:
        // neither may leak into the post-load layout.
        let mut t = HiDict::new(HiPma::new(1_000 + i as u64));
        for k in 0..50 * i as u64 {
            t.insert(k, k);
        }
        t.bulk_load(input, bulk_seed);
        layouts.push((t.to_sorted_vec(), t.seq().n_hat(), t.seq().occupancy()));
    }
    assert_eq!(
        layouts[0], layouts[1],
        "descending load must be bit-identical"
    );
    assert_eq!(
        layouts[0], layouts[2],
        "interleaved load must be bit-identical"
    );

    let mut other = HiDict::new(HiPma::new(1));
    other.bulk_load(bulk_inputs()[0].clone(), bulk_seed + 1);
    assert_eq!(other.to_sorted_vec(), layouts[0].0);
    assert_ne!(
        other.seq().occupancy(),
        layouts[0].2,
        "a different bulk seed should yield a different layout"
    );
}

#[test]
fn skiplist_bulk_load_is_order_independent_given_the_seed() {
    let bulk_seed = 0x51C1;
    let mut layouts = Vec::new();
    for (i, input) in bulk_inputs().into_iter().enumerate() {
        let mut s: ExternalSkipList<u64, u64> =
            ExternalSkipList::history_independent(16, 0.5, 2_000 + i as u64);
        for k in 0..40 * i as u64 {
            s.insert(k, k);
        }
        s.bulk_load(input, bulk_seed);
        layouts.push((
            s.to_sorted_vec(),
            s.height(),
            s.leaf_node_count(),
            s.leaf_array_lengths(),
            s.space_records(),
        ));
    }
    assert_eq!(
        layouts[0], layouts[1],
        "descending load must be bit-identical"
    );
    assert_eq!(
        layouts[0], layouts[2],
        "interleaved load must be bit-identical"
    );
}

#[test]
fn hi_pma_bulk_load_matches_across_prior_histories() {
    let bulk_seed = 0x99AA;
    let items: Vec<u64> = (0..1_500u64).collect();
    let mut fresh: HiPma<u64> = HiPma::new(7);
    fresh.bulk_load(items.clone(), bulk_seed);
    let mut churned: HiPma<u64> = HiPma::new(8);
    for i in 0..400 {
        churned.insert(i, i as u64).unwrap();
    }
    for _ in 0..200 {
        churned.delete(0).unwrap();
    }
    churned.bulk_load(items, bulk_seed);
    assert_eq!(fresh.to_vec(), churned.to_vec());
    assert_eq!(fresh.n_hat(), churned.n_hat());
    assert_eq!(
        fresh.occupancy(),
        churned.occupancy(),
        "bulk_load layout must not depend on the structure's prior history"
    );
}

// ---------------------------------------------------------------------
// Sharded determinism: a ShardedDict's layout must be a pure function of
// (contents, seed, S) — the same operation stream must produce bit-identical
// per-shard layouts no matter how the caller split it into batches. This
// holds by construction (grouping a stream by shard preserves each shard's
// subsequence, and shards share no randomness), and these tests pin it.
// ---------------------------------------------------------------------

/// Every shard's occupancy bitmap, in shard order — the sharded layout
/// observable (`None` never occurs for the slot-array backends used here).
fn shard_layouts(d: &ShardedDict<DynDict<u64, u64>>) -> Vec<Vec<bool>> {
    d.shards()
        .iter()
        .map(|s| s.occupancy().expect("slot-array backend"))
        .collect()
}

#[test]
fn sharded_layouts_are_bit_identical_across_work_splits() {
    // Same stream of 4 000 operations, same root seed, four execution
    // plans: per-op inserts, small batches, large batches, one giant
    // batch. Across ≥ 3 shard counts.
    let stream: Vec<(u64, u64)> = (0..4_000u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 60_000, i))
        .collect();
    for shards in [2usize, 4, 8] {
        let build = |chunk: usize| {
            let mut d: ShardedDict<DynDict<u64, u64>> = Dict::builder()
                .backend(Backend::HiPma)
                .seed(0x5A4D)
                .shards(shards)
                .build_sharded();
            for part in stream.chunks(chunk) {
                d.multi_put(part.to_vec());
            }
            d
        };
        let mut per_op: ShardedDict<DynDict<u64, u64>> = Dict::builder()
            .backend(Backend::HiPma)
            .seed(0x5A4D)
            .shards(shards)
            .build_sharded();
        for (k, v) in &stream {
            per_op.insert(*k, *v);
        }
        let reference = shard_layouts(&per_op);
        let small = build(173);
        let large = build(1_024);
        let whole = build(stream.len());
        for (label, d) in [
            ("batches of 173", &small),
            ("batches of 1024", &large),
            ("one batch", &whole),
        ] {
            assert_eq!(
                d.to_sorted_vec(),
                per_op.to_sorted_vec(),
                "S={shards}, {label}: contents must agree"
            );
            assert_eq!(
                shard_layouts(d),
                reference,
                "S={shards}, {label}: per-shard layouts must be bit-identical"
            );
        }
    }
}

#[test]
fn sharded_bulk_load_layout_is_pinned_and_order_free() {
    // bulk_load is the strongest form: layout = f(contents, seed, S) with
    // *no* dependence on arrival order at all. Pin the S=4 fingerprint so
    // engine rewrites cannot silently change the sharded representation,
    // and check a reversed load is bit-identical to an ascending one.
    let load = |input: Vec<(u64, u64)>| {
        let mut d: ShardedDict<DynDict<u64, u64>> = Dict::builder()
            .backend(Backend::HiPma)
            .seed(0xC0DE)
            .shards(4)
            .build_sharded();
        d.insert(999_999, 1); // pre-existing state must not leak through
        d.bulk_load(input, 0xB01D);
        d
    };
    let ascending: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k * 7, k)).collect();
    let mut shuffled = ascending.clone();
    shuffled.reverse();
    let a = load(ascending.clone());
    let b = load(shuffled);
    assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
    assert_eq!(
        shard_layouts(&a),
        shard_layouts(&b),
        "reversed load must be bit-identical to ascending load"
    );

    let mut fingerprint_bits: Vec<bool> = Vec::new();
    for layout in shard_layouts(&a) {
        fingerprint_bits.extend(layout);
    }
    assert_eq!(
        layout_fingerprint(&fingerprint_bits, &[4]),
        // was 0x9614_6F25_95D6_A4E3: each of the 4 shards is a shorter tree
        0xCAFB_82FA_9B37_A81D,
        "sharded bulk_load layout diverged from the pinned fingerprint"
    );
}

#[test]
fn dyn_dict_bulk_load_is_deterministic_per_backend() {
    for backend in Backend::ALL {
        let build = |input: Vec<(u64, u64)>| {
            let mut d: DynDict<u64, u64> = Dict::builder().backend(backend).seed(17).build();
            d.bulk_load(input, 0xD1CE);
            d
        };
        let [a_in, b_in, _] = bulk_inputs();
        let a = build(a_in);
        let b = build(b_in);
        assert_eq!(
            a.to_sorted_vec(),
            b.to_sorted_vec(),
            "{backend}: contents must be order-independent"
        );
    }
}

// ---------------------------------------------------------------------
// At-rest format pin: the committed data file for a fixed (contents, seed,
// block size) is these exact bytes; a faster hashing kernel, a different
// staging order or a different write pattern must reproduce them. If this
// fails the on-disk format has changed: bump `VERSION`, write the migration
// note, and only then re-pin.
//
// Version 4 was pinned by that rule: the slot region became the record
// region (the `len` records packed in rank order; a vacant slot is a bit of
// the bitmap and nothing else), so the file's length moved with its bytes —
// pinned below in closed form beside the hashes. DESIGN.md "Format version
// 4" has the migration note. Version 3 read 0xB165_F668_CA75_B3D0 /
// 0xA152_E352_86D2_4121 / 0x1310_BE01_E471_F7AA; version 2, under the
// HI-PMA's taller range tree, 0x8594_0F21_A63E_FC4B / 0x346F_EA61_0B3C_A354
// / 0x0CB1_18E6_7E73_396F.
// ---------------------------------------------------------------------

#[test]
fn committed_data_file_bytes_are_pinned() {
    const GOLDEN: [(usize, u64); 3] = [
        (128, 0xCDB5_61EB_744B_C00C),
        (512, 0x74E5_ABF6_54AF_7BA6),
        (4096, 0x498B_7417_98C6_5FDB),
    ];
    let contents: Vec<(u64, u64)> = (0..6_000u64)
        .filter(|k| k % 5 != 3)
        .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k))
        .collect();
    let mut sorted = contents.clone();
    sorted.sort_unstable();
    for (block_size, want) in GOLDEN {
        // Two routes to the same contents: an incremental history, whose
        // in-RAM layout is some other sample, and a bulk_load with the
        // store's own seed, whose in-RAM layout is the one the image
        // describes (the bitmap length below is read from it). One image.
        let mut bitmap_words = 0;
        let mut image = |tag: &str, bulk: bool| {
            let path = block_store::temp_path(&format!("golden-{tag}-{block_size}"));
            let mut d = Dict::builder()
                .backend(Backend::HiPma)
                .seed(0x601D)
                .build_persistent_with(&path, StoreOptions::new(block_size).no_sync())
                .unwrap();
            if bulk {
                d.bulk_load(sorted.iter().copied(), 0x601D);
            } else {
                for k in 0..6_000u64 {
                    d.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
                }
                for k in (0..6_000u64).filter(|k| k % 5 == 3) {
                    d.remove(&k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
            }
            d.flush().unwrap();
            bitmap_words = d.occupancy_words().unwrap().len() as u64;
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(d.store().path()).unwrap();
            std::fs::remove_file(d.store().journal_path()).unwrap();
            bytes
        };
        let incremental = image("incr", false);
        assert_eq!(incremental, image("bulk", true), "block size {block_size}");
        // Header, checksum region, bitmap, and sixteen bytes a record.
        let b = block_size as u64;
        let bitmap = (bitmap_words * 8).div_ceil(b);
        let records = (sorted.len() as u64 * 16).div_ceil(b);
        let checksums = ((bitmap + records) * 8).div_ceil(b);
        assert_eq!(
            incremental.len() as u64,
            (1 + checksums + bitmap + records) * b,
            "block size {block_size}"
        );
        let got = incremental.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            got, want,
            "block size {block_size}: the committed data file's bytes moved \
             (got {got:#018X}) — format version 4 is pinned; see the comment above"
        );
    }
}
