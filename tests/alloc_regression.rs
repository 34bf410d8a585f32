//! Allocator-level regression tests for the allocation-free rebalance
//! engine.
//!
//! A counting global allocator and a clone-counting element type pin the
//! engine's core guarantees:
//!
//! * a steady-state HI-PMA insert — no capacity resize — performs **zero
//!   heap allocations**, whether it is a leaf-only update or a range
//!   rebalance (the slot arena absorbs both: a leaf update rotates inside
//!   the leaf's slice, and a range rebuild moves elements between leaves in
//!   place);
//! * a leaf-only insert additionally performs **zero `Clone` calls**; a
//!   range rebalance clones only the balance pivots the augmented value
//!   tree stores by design (bounded by the rebuilt subtree's node count);
//! * the external skip list's insert path stays within a small allocation
//!   budget per operation (the pre-engine code cloned the key and
//!   reallocated leaf arrays on every insert).
//!
//! * a served request costs the server a bounded number of allocations, and
//!   its response path (ring cell, fill, pop, encode) none at all;
//! * a steady-state served FLUSH allocates a number of times that grows with
//!   the shard count and not with the records it writes.
//!
//! The tests share one global allocation counter, so they serialize on a
//! mutex instead of running concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use anti_persistence::dict::{Backend, Dict, DictConfig, DynDict, HiDict};
use anti_persistence::prelude::{Dictionary, Occupancy, RankedDict, ShardedDict};
use block_store::{temp_path, BlockStore, StoreOptions};
use dict_server::{Client, Request, Response, Server, ServerOptions};
use pma::HiPma;
use skiplist::ExternalSkipList;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on a thread whose allocations are not the code under test's: the
    /// served case's client, which shares the process with the server it
    /// measures. Const-initialised and without a destructor, so reading it
    /// from inside the allocator neither allocates nor outlives the thread.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// relaxed atomic and the thread-local a plain flag, with no other side
// effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// An element whose clones are counted, so "zero `Clone` calls" is asserted
/// at the type level rather than inferred from allocator silence.
#[derive(Debug, Default, PartialEq, Eq)]
struct CountedClone(u64);

static CLONES: AtomicU64 = AtomicU64::new(0);

impl Clone for CountedClone {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        CountedClone(self.0)
    }
}

fn clones() -> u64 {
    CLONES.load(Ordering::Relaxed)
}

/// Deterministic rank sequence (LCG high bits).
fn next_rank(state: &mut u64, modulus: u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) % modulus) as usize
}

#[test]
fn steady_state_hi_pma_inserts_are_allocation_free() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n_warm = 40_000usize;
    let mut pma: HiPma<CountedClone> = HiPma::new(0xA110C);
    let mut state = 99u64;
    for i in 0..n_warm {
        let rank = next_rank(&mut state, pma.len() as u64 + 1);
        pma.insert(rank, CountedClone(i as u64)).unwrap();
    }
    // Shrink below the warm-up high-water mark so the scratch arena and the
    // leaf capacities are provably sufficient for the measured phase.
    for _ in 0..4_000 {
        let rank = next_rank(&mut state, pma.len() as u64);
        pma.delete(rank).unwrap();
    }

    let measured = 3_000usize;
    let mut leaf_only = 0usize;
    let mut rebalances = 0usize;
    let mut resizes = 0usize;
    for i in 0..measured {
        let rank = next_rank(&mut state, pma.len() as u64 + 1);
        let before = pma.counters().snapshot();
        let allocs_before = allocations();
        let clones_before = clones();
        pma.insert(rank, CountedClone(i as u64)).unwrap();
        let alloc_delta = allocations() - allocs_before;
        let clone_delta = clones() - clones_before;
        let delta = pma.counters().snapshot().since(&before);
        if delta.resizes > 0 {
            // Capacity parameter changed: geometry, trees and leaf vectors
            // are legitimately reallocated. O(1/n) of updates.
            resizes += 1;
            continue;
        }
        assert_eq!(
            alloc_delta, 0,
            "insert {i}: steady-state insert allocated ({} rebuild slots)",
            delta.rebuild_slots
        );
        if delta.rebuilds == 0 {
            assert_eq!(clone_delta, 0, "insert {i}: leaf-only insert cloned");
            leaf_only += 1;
        } else {
            // A range rebuild clones exactly the balance pivots the
            // augmented value tree stores: at most one per node of the
            // rebuilt subtree (~2 nodes per rebuilt leaf).
            let leaves_rebuilt = delta.rebuild_slots / pma.geometry().leaf_slots as u64;
            assert!(
                clone_delta <= 2 * leaves_rebuilt + 2,
                "insert {i}: {clone_delta} clones exceed the value-tree pivot bound \
                 for {leaves_rebuilt} rebuilt leaves"
            );
            rebalances += 1;
        }
    }
    // The workload must actually have exercised both steady-state paths.
    assert!(
        leaf_only > 100,
        "only {leaf_only} leaf-only inserts measured"
    );
    assert!(rebalances > 100, "only {rebalances} rebalances measured");
    assert!(
        resizes < measured / 10,
        "{resizes} resizes is not steady state"
    );
}

#[test]
fn steady_state_hi_pma_deletes_are_allocation_free() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pma: HiPma<u64> = HiPma::new(0xDE1);
    let mut state = 7u64;
    for i in 0..30_000u64 {
        let rank = next_rank(&mut state, pma.len() as u64 + 1);
        pma.insert(rank, i).unwrap();
    }
    let mut clean = 0usize;
    for i in 0..2_000 {
        let rank = next_rank(&mut state, pma.len() as u64);
        let before = pma.counters().snapshot();
        let allocs_before = allocations();
        pma.delete(rank).unwrap();
        let alloc_delta = allocations() - allocs_before;
        if pma.counters().snapshot().since(&before).resizes > 0 {
            continue;
        }
        assert_eq!(alloc_delta, 0, "delete {i}: steady-state delete allocated");
        clean += 1;
    }
    assert!(clean > 1_500, "only {clean} steady-state deletes measured");
}

#[test]
fn sharded_merged_scans_are_allocation_free_after_setup() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The k-way merge buffers shard iterators in inline arrays and the
    // cache-oblivious B-tree's lazy iterators are allocation-free, so a
    // merged global scan over a sharded service must cost zero heap
    // allocations once the service is built — construction of the merge
    // iterator included.
    let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
        .backend(Backend::HiPma)
        .seed(0x5CA7)
        .shards(4)
        .build_sharded();
    service.multi_put((0..40_000u64).map(|k| (k * 2, k)));

    let mut sink = 0u64;
    let before = allocations();
    for i in 0..50u64 {
        // Full merged scan plus a merged window scan per round.
        sink ^= service.range_iter(..).map(|(_, v)| *v).sum::<u64>();
        let lo = (i * 317) % 60_000;
        sink ^= service.range_iter(lo..lo + 4_000).count() as u64;
    }
    let delta = allocations() - before;
    black_box(sink);
    assert_eq!(
        delta, 0,
        "merged k-way scans allocated {delta} times across 100 scans"
    );
}

#[test]
fn keyed_reads_are_allocation_free() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A keyed read is one descent plus a scan of borrowed leaves, so once
    // the dictionary is built `get_ref`, `successor` and `range_iter` cost
    // zero heap allocations on the served type.
    let mut hi: HiDict = RankedDict::new(HiPma::new(0x4EAD));
    for k in 0..20_000u64 {
        hi.insert(k * 2, k);
    }

    let mut sink = 0u64;
    let before = allocations();
    for i in 0..2_000u64 {
        let key = (i * 7_919) % 40_000;
        sink ^= hi.get_ref(&key).copied().unwrap_or(0);
        sink ^= hi.successor(&key).map_or(0, |(k, _)| k);
        sink ^= hi.range_iter(key..).take(64).map(|(_, v)| *v).sum::<u64>();
    }
    let delta = allocations() - before;
    black_box(sink);
    assert_eq!(delta, 0, "6 000 keyed reads allocated {delta} times");
}

#[test]
fn keyed_batch_driver_allocations_are_per_batch_not_per_element() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A batch is the caller's `ops` vector and nothing else: applying it to
    // a warmed HI PMA is the arrival-order loop over allocation-free
    // updates, so a resize-free `apply_batch` allocates zero times — and
    // the retired replay engine's `batch_gathers` stays at 0.
    use hi_common::batch::BatchOp;
    let mut dict: DynDict<u64, u64> = Dict::builder().backend(Backend::HiPma).seed(7).build();
    let mut state = 11u64;
    for i in 0..50_000u64 {
        dict.insert(next_rank(&mut state, u64::MAX) as u64, i);
    }
    let mut live: Vec<u64> = dict.keys().copied().collect();
    let mut measured = 0;
    for round in 0..16 {
        // New key / remove a live key, alternating, so `len` holds still.
        let ops: Vec<BatchOp<u64, u64>> = (0..512)
            .map(|i| match i % 2 {
                0 => BatchOp::Put(next_rank(&mut state, u64::MAX) as u64, i),
                _ => BatchOp::Remove(live.swap_remove(next_rank(&mut state, live.len() as u64))),
            })
            .collect();
        live.extend(ops.iter().filter(|op| op.is_put()).map(|op| *op.key()));
        let counters_before = dict.counters().snapshot();
        let before = allocations();
        let removed = dict.apply_batch(ops);
        let allocated = allocations() - before;
        let delta = dict.counters().snapshot().since(&counters_before);
        assert_eq!(removed, 256, "round {round}");
        assert_eq!(
            delta.batch_gathers, 0,
            "round {round}: the replay engine is back"
        );
        if delta.resizes > 0 {
            continue; // a capacity rebuild legitimately reallocates, O(1/n)
        }
        assert_eq!(allocated, 0, "round {round}: a 512-op batch allocated");
        measured += 1;
    }
    assert!(
        measured >= 4,
        "only {measured} resize-free batches observed"
    );

    // `RankedDict::extend` is the insert loop, not chunks of `BatchOp`s.
    let mut pairs = RankedDict::new(HiPma::<(u64, u64)>::new(7));
    pairs.extend((0..50_000u64).map(|i| (next_rank(&mut state, u64::MAX) as u64, i)));
    let mut clean = 0;
    for round in 0..20u64 {
        let counters_before = pairs.seq().counters().snapshot();
        let before = allocations();
        pairs.extend((0..500u64).map(|i| (next_rank(&mut state, u64::MAX) as u64, i)));
        let allocated = allocations() - before;
        if pairs
            .seq()
            .counters()
            .snapshot()
            .since(&counters_before)
            .resizes
            > 0
        {
            continue;
        }
        assert_eq!(allocated, 0, "round {round}: extend allocated");
        clean += 1;
    }
    assert!(
        clean >= 10,
        "only {clean} resize-free extends of 500 observed"
    );
}

#[test]
fn steady_state_block_store_flushes_are_allocation_free() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The first (full) flush sizes every staging buffer in the store — the
    // page-aligned block scratch, the journal payload, the dirty-id list,
    // the per-block hash tables. Every flush after that must reuse them:
    // zero heap allocations per flushed window, the on-disk counterpart of
    // the PR 3 in-RAM rebalance guarantee.
    let path = temp_path("alloc-flush");
    let mut store = BlockStore::open(&path, StoreOptions::new(4096).no_sync()).unwrap();
    let mut pma: HiPma<u64> = HiPma::new(0xF1A5);
    let mut state = 17u64;
    for i in 0..20_000u64 {
        let rank = next_rank(&mut state, pma.len() as u64 + 1);
        pma.insert(rank, i).unwrap();
    }
    // What is pinned is the store's staging buffers, so the commit is called
    // directly, on the live layout (any bitmap of the right popcount will do),
    // computed into one reused buffer: with the length fixed, computing it
    // allocates nothing either.
    let mut words = Vec::new();
    let mut commit = |pma: &HiPma<u64>, store: &mut BlockStore| {
        let (slots, len) = (pma.slot_count() as u64, pma.len() as u64);
        pma.occupancy_into(&mut words);
        store.commit(&words, slots, len, pma.iter().copied(), 9)
    };
    commit(&pma, &mut store).unwrap();

    for round in 0..40u64 {
        // Mutate a window between flushes. Paired delete+insert keeps the
        // length (hence the slot-array geometry) fixed, so no capacity
        // resize muddies the measurement.
        for i in 0..32u64 {
            let rank = next_rank(&mut state, pma.len() as u64);
            pma.delete(rank).unwrap();
            let rank = next_rank(&mut state, pma.len() as u64 + 1);
            pma.insert(rank, round * 1_000 + i).unwrap();
        }
        let before = allocations();
        commit(&pma, &mut store).unwrap();
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "round {round}: steady-state block-store flush allocated {delta} times"
        );
    }
    let data = store.path().to_path_buf();
    let journal = store.journal_path().to_path_buf();
    drop(store);
    let _ = std::fs::remove_file(data);
    let _ = std::fs::remove_file(journal);
}

#[test]
fn skiplist_insert_allocations_are_bounded() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // String keys so every spurious key clone would show up as an
    // allocation (the pre-engine insert cloned the key unconditionally).
    let mut list: ExternalSkipList<String, u64> =
        ExternalSkipList::history_independent(16, 0.5, 0x51AB);
    let key_of = |i: u64| format!("key-{i:012}");
    for i in 0..20_000u64 {
        list.insert(key_of(i * 2), i);
    }
    // Pre-generate the measured keys: key construction is the caller's.
    let fresh: Vec<String> = (0..5_000u64).map(|i| key_of(i * 2 + 1)).collect();
    let before = allocations();
    for (i, key) in fresh.into_iter().enumerate() {
        list.insert(key, i as u64);
    }
    let per_op = (allocations() - before) as f64 / 5_000.0;
    assert!(
        per_op < 1.0,
        "skip list inserts average {per_op:.3} allocations/op; \
         the unpromoted path must move the key without cloning and stay \
         within the drawn pad capacity"
    );
}

/// Bound on the server-side allocations per request of the pipelined
/// PUT/GET/DEL mix below. Measured 0.200 (the engine's per-epoch vectors
/// over epochs of a hundred-odd requests; how a window splits into epochs
/// is the scheduler's, hence the headroom; 0.239 while a write batch also
/// paid the replay driver's six vectors) where the per-request `Arc`'d
/// slot, frame body and two encode buffers of PR 21 read 4.325. One whole
/// allocation per request is what any per-request buffer would cost.
const SERVED_ALLOCS_PER_REQUEST: f64 = 1.0;

/// Sends `reqs` down one connection in windows of 256 (send all, flush,
/// receive all) and returns what was allocated meanwhile — by the server's
/// threads, when the calling thread, which is the client, is [`UNCOUNTED`].
fn served_allocations(client: &mut Client, reqs: &[Request]) -> u64 {
    let before = allocations();
    for chunk in reqs.chunks(256) {
        for req in chunk {
            client.send(req).expect("send");
        }
        client.flush().expect("flush");
        for req in chunk {
            let resp = client.recv().expect("recv");
            let well_formed = match req {
                Request::Get { .. } => matches!(resp, Response::Value(_) | Response::NotFound),
                _ => resp == Response::Done,
            };
            assert!(well_formed, "{req:?} answered {resp:?}");
        }
    }
    allocations() - before
}

/// What a steady-state served FLUSH may allocate, server side. Measured 20
/// at one shard, 22 at two and 30 at eight: the epoch's queue-guard vector,
/// `health()`, the canonical-occupancy computation (a unit-element HI-PMA,
/// whose leaves hold no bytes, then the words computed from its leaf counts)
/// and the merge's first input vector, none of which grow with the contents, plus
/// per shard beyond the first one merge node with its record buffer and, per
/// tree level, one vector. Nothing per record or per leaf: the store's
/// staging buffers were sized by the first FLUSH, and the merge reads the
/// leaves in place.
const FLUSH_ALLOCS_FIXED: u64 = 21;
const FLUSH_ALLOCS_PER_SHARD: u64 = 2;

#[test]
fn a_steady_state_served_flush_allocates_per_shard_not_per_record() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // This thread is the client from here to its end.
    UNCOUNTED.with(|u| u.set(true));
    const KEYS: u64 = 40_000;
    for shards in [1usize, 2, 8] {
        let path = temp_path(&format!("alloc-served-flush-{shards}"));
        let persist = Dict::builder()
            .backend(Backend::HiPma)
            .seed(0xF1A5)
            .build_persistent_with(&path, StoreOptions::new(4096).no_sync())
            .expect("open store");
        let config = DictConfig {
            backend: Backend::HiPma,
            seed: 0xF1A5,
            shards,
            ..DictConfig::default()
        };
        let opts = ServerOptions {
            config,
            persist: Some(persist),
        };
        let server = Server::spawn("127.0.0.1:0", opts).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut state = 0xF1u64;
        let mut keys: Vec<u64> = (0..KEYS)
            .map(|_| next_rank(&mut state, u64::MAX) as u64)
            .collect();
        let warm: Vec<Request> = keys
            .iter()
            .map(|&key| Request::Put { key, value: key })
            .collect();
        served_allocations(&mut client, &warm);
        // The first FLUSH writes the whole image and sizes the store's
        // staging buffers; the length stays put from here on.
        client.flush_store().expect("first flush");
        let mut most = 0;
        for round in 0..6usize {
            let churn: Vec<Request> = (0..256)
                .flat_map(|i| {
                    let key = next_rank(&mut state, u64::MAX) as u64;
                    let old = std::mem::replace(&mut keys[round * 256 + i], key);
                    [Request::Put { key, value: key }, Request::Del { key: old }]
                })
                .collect();
            served_allocations(&mut client, &churn);
            let before = allocations();
            client.flush_store().expect("steady-state flush");
            most = most.max(allocations() - before);
        }
        println!("served FLUSH of {KEYS} records over {shards} shards: {most} allocations");
        let bound = FLUSH_ALLOCS_FIXED + FLUSH_ALLOCS_PER_SHARD * shards as u64;
        assert!(
            most <= bound,
            "a steady-state FLUSH of {KEYS} records over {shards} shards allocated {most} \
             times (pinned at {bound})"
        );
        let persist = server.into_persist().expect("the store comes back");
        let (data, journal) = (
            persist.store().path().to_path_buf(),
            persist.store().journal_path().to_path_buf(),
        );
        drop(persist);
        let _ = std::fs::remove_file(data);
        let _ = std::fs::remove_file(journal);
    }
}

#[test]
fn served_requests_allocate_a_bounded_number_of_times_and_responses_never() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // This thread is the client from here to its end.
    UNCOUNTED.with(|u| u.set(true));
    let config = DictConfig {
        backend: Backend::HiPma,
        seed: 0xA110C,
        shards: 2,
        ..DictConfig::default()
    };
    let opts = ServerOptions {
        config,
        persist: None,
    };
    let mut server = Server::spawn("127.0.0.1:0", opts).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Warm-up: 40 000 keys, so the measured phase is steady state for the
    // PMA, and every buffer between the socket and the engine — the reader's
    // body buffer, the ring, the writer's batch and frame, the engine's
    // epoch and segment — has reached its high-water mark.
    let mut state = 0x5EEDu64;
    let mut keys: Vec<u64> = Vec::new();
    let warm: Vec<Request> = (0..40_000u64)
        .map(|i| {
            let key = next_rank(&mut state, u64::MAX) as u64;
            keys.push(key);
            Request::Put { key, value: i }
        })
        .collect();
    served_allocations(&mut client, &warm);

    // A request that never reaches the engine exercises exactly the path
    // every response takes — frame read into the connection's buffer, ring
    // cell appended, filled, popped, encoded into the writer's buffer — and
    // that path must not allocate at all.
    let pings = vec![Request::Ping; 4_096];
    served_allocations(&mut client, &pings);
    let ping_allocs = served_allocations(&mut client, &pings);
    assert_eq!(
        ping_allocs, 0,
        "4096 pipelined PINGs cost the server {ping_allocs} allocations; \
         the response path must reuse its buffers"
    );

    // PUT new / GET live / DEL oldest / GET live, the size held constant:
    // what is left is the engine's per-epoch bookkeeping (the shard
    // partition, `multi_get`'s result and probe order, the overlay's tree
    // nodes), amortised over the requests of the epoch.
    let mut oldest = 0usize;
    let mixed: Vec<Request> = (0..8_192u64)
        .map(|i| match i % 4 {
            0 => {
                let key = next_rank(&mut state, u64::MAX) as u64;
                keys.push(key);
                Request::Put { key, value: i }
            }
            2 => {
                oldest += 1;
                Request::Del {
                    key: keys[oldest - 1],
                }
            }
            _ => Request::Get {
                key: keys[oldest + (i as usize * 7) % (keys.len() - oldest)],
            },
        })
        .collect();
    let (first, second) = mixed.split_at(mixed.len() / 2);
    served_allocations(&mut client, first);
    let per_request = served_allocations(&mut client, second) as f64 / second.len() as f64;
    println!("served PUT/GET/DEL mix: {per_request:.3} server-side allocations per request");
    assert!(
        per_request < SERVED_ALLOCS_PER_REQUEST,
        "a pipelined PUT/GET/DEL mix cost the server {per_request:.3} allocations per \
         request (pinned below {SERVED_ALLOCS_PER_REQUEST})"
    );
    server.shutdown();
}
