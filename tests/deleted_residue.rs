//! The RAM half of weak history independence: once a record is deleted, no
//! byte of the heap still holds it.
//!
//! The paper's observer sees the memory representation once. A deleted
//! record whose bytes linger — in a vacated slot, in a buffer's spare
//! capacity, in a block handed back to the allocator — shows that it was
//! there. This binary installs a global allocator that tracks every live
//! heap block in a fixed static table and scans each block as it is freed;
//! at the end of a script it scans every block still live. Keys and values
//! are *tags*: a 32-bit marker over a 32-bit counter, so a scan recognises
//! one at any byte offset and in either byte order. The scripts keep only
//! counters, never a tag, and mark a counter deleted in a static bitmap just
//! before the call that deletes (or overwrites) it, so a block freed during
//! that call must not hold it either.
//!
//! A freed block is zeroed once scanned. A block freed while its records
//! were live is clean at that moment, and its bytes belong to the allocator
//! from then on; without the zeroing, reuse would copy them into the unused
//! tail of a later block (a `Vec`'s spare capacity, a `None`'s payload), and
//! the live scan would report records the program had never kept.
//!
//! Each script grows its structure across N̂ = 128 and N̂ = 4096 with deletes
//! mixed in, so range rebuilds and resizes run, then shrinks it back across
//! both. Survivors are reported by whether the block was freed or live, the
//! script phase and thread that allocated it, and its size. The tests share
//! the table and the bitmap, so they serialise on one mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::Mutex;

use anti_persistence::dict::{Backend, Dict, HiDict};
use anti_persistence::prelude::{Dictionary, RankedDict};
use block_store::{temp_path, StoreOptions};
use dict_server::{Client, Server, ServerOptions};
use hi_common::BatchOp;
use pma::HiPma;

const KEY_MARK: u32 = 0x6B65_7921;
const VAL_MARK: u32 = 0x7661_6C21;

fn key(c: u32) -> u64 {
    u64::from(KEY_MARK) << 32 | u64::from(c)
}

fn val(c: u32) -> u64 {
    u64::from(VAL_MARK) << 32 | u64::from(c)
}

// ---------------------------------------------------------------------------
// The tracking allocator
// ---------------------------------------------------------------------------

const COUNTERS: usize = 1 << 20;
static DELETED: [AtomicU64; COUNTERS / 64] = [const { AtomicU64::new(0) }; COUNTERS / 64];
static NEXT: AtomicU32 = AtomicU32::new(1);

/// A fresh counter, never handed out before.
fn fresh() -> u32 {
    let c = NEXT.fetch_add(1, Relaxed);
    assert!((c as usize) < COUNTERS, "counter space exhausted");
    c
}

/// Marks counter `c` deleted. `SeqCst`, paired with the scans' `Acquire`
/// loads: a block freed on another thread after the mark is scanned for it.
fn mark_deleted(c: u32) {
    DELETED[c as usize / 64].fetch_or(1 << (c % 64), SeqCst);
}

fn is_deleted_tag(w: u64) -> bool {
    let (mark, c) = ((w >> 32) as u32, w as u32 as usize);
    (mark == KEY_MARK || mark == VAL_MARK)
        && c < COUNTERS
        && DELETED[c / 64].load(Acquire) >> (c % 64) & 1 == 1
}

const TABLE_BITS: u32 = 17;
const TABLE: usize = 1 << TABLE_BITS;
/// Open-addressed live-block table (linear probing, backward-shift
/// deletion): address, size and site of every live block, 0 = empty.
static PTRS: [AtomicUsize; TABLE] = [const { AtomicUsize::new(0) }; TABLE];
static SIZES: [AtomicUsize; TABLE] = [const { AtomicUsize::new(0) }; TABLE];
static SITES: [AtomicUsize; TABLE] = [const { AtomicUsize::new(0) }; TABLE];
static LOCKED: AtomicBool = AtomicBool::new(false);

/// The script phase new blocks are charged to (an index into [`PHASES`]).
static PHASE: AtomicUsize = AtomicUsize::new(0);
const PHASES: [&str; 6] = [
    "other",
    "HiPma",
    "HiDict",
    "ShardedDict per-op",
    "ShardedDict multi_apply",
    "server round trip",
];

thread_local! {
    /// Set on the thread that runs a script; the server's threads are not.
    /// Const-initialised and without a destructor, so the allocator may
    /// read it.
    static SCRIPT_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Survivors: `(freed, site, size) → count`, a small fixed table.
const SURVIVOR_SLOTS: usize = 256;
static SURVIVORS: [AtomicUsize; SURVIVOR_SLOTS * 4] =
    [const { AtomicUsize::new(0) }; SURVIVOR_SLOTS * 4];

fn lock() {
    while LOCKED
        .compare_exchange_weak(false, true, Acquire, Relaxed)
        .is_err()
    {
        std::hint::spin_loop();
    }
}

fn unlock() {
    LOCKED.store(false, Release);
}

fn home(ptr: usize) -> usize {
    ((ptr >> 4) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize >> (64 - TABLE_BITS)
}

fn site_now() -> usize {
    let script = SCRIPT_THREAD.try_with(Cell::get).unwrap_or(false);
    PHASE.load(Relaxed) * 2 + usize::from(script)
}

fn table_insert(ptr: usize, size: usize) {
    let mut i = home(ptr);
    for _ in 0..TABLE {
        if PTRS[i].load(Relaxed) == 0 {
            PTRS[i].store(ptr, Relaxed);
            SIZES[i].store(size, Relaxed);
            SITES[i].store(site_now(), Relaxed);
            return;
        }
        i = (i + 1) % TABLE;
    }
    std::process::abort(); // more live blocks than the table holds
}

/// Removes `ptr`, returning its site, or `None` if it was never tracked.
fn table_remove(ptr: usize) -> Option<usize> {
    let mut i = home(ptr);
    loop {
        match PTRS[i].load(Relaxed) {
            0 => return None,
            p if p == ptr => break,
            _ => i = (i + 1) % TABLE,
        }
    }
    let site = SITES[i].load(Relaxed);
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless their home lies cyclically in (hole, entry].
    let mut j = i;
    loop {
        j = (j + 1) % TABLE;
        let p = PTRS[j].load(Relaxed);
        if p == 0 {
            break;
        }
        let k = home(p);
        let stays = if i <= j {
            i < k && k <= j
        } else {
            i < k || k <= j
        };
        if !stays {
            PTRS[i].store(p, Relaxed);
            SIZES[i].store(SIZES[j].load(Relaxed), Relaxed);
            SITES[i].store(SITES[j].load(Relaxed), Relaxed);
            i = j;
        }
    }
    PTRS[i].store(0, Relaxed);
    Some(site)
}

/// Scans `len` bytes at `ptr` for deleted tags in either byte order and
/// books one survivor per tag found. Runs under the table lock.
///
/// # Safety
///
/// `ptr..ptr + len` must be a block this allocator handed out and has not
/// yet returned to `System`. Bytes the program never wrote are read too:
/// the reads are volatile, so the compiler assumes nothing about them.
unsafe fn scan(ptr: *const u8, len: usize, freed: bool, site: usize) {
    let mut w = 0u64;
    for i in 0..len {
        // SAFETY: `i < len`, inside the block the caller vouches for.
        w = w << 8 | u64::from(unsafe { ptr.add(i).read_volatile() });
        if i >= 7 && (is_deleted_tag(w) || is_deleted_tag(w.swap_bytes())) {
            book(freed, site, len);
        }
    }
}

fn book(freed: bool, site: usize, size: usize) {
    let id = 1 + (usize::from(freed) | site << 1);
    for slot in SURVIVORS.chunks(4) {
        let (sid, ssize) = (slot[0].load(Relaxed), slot[1].load(Relaxed));
        if sid == 0 || (sid == id && ssize == size) {
            slot[0].store(id, Relaxed);
            slot[1].store(size, Relaxed);
            slot[2].fetch_add(1, Relaxed);
            return;
        }
    }
}

struct Tracking;

// SAFETY: every block comes from and goes back to `System`, zeroed on its
// way back; the table and the survivor book are fixed statics behind a spin
// lock, and nothing here allocates. `realloc` is the trait's default (alloc,
// copy, dealloc), so a moved block's old bytes are scanned like any freed
// block.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` goes to `System` unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            lock();
            table_insert(ptr as usize, layout.size());
            unlock();
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        lock();
        if let Some(site) = table_remove(ptr as usize) {
            // SAFETY: the block is still ours until `System.dealloc`.
            unsafe {
                scan(ptr, layout.size(), true, site);
                ptr.write_bytes(0, layout.size());
            }
        }
        unlock();
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Scans every live block if `live`, then returns and clears the survivor
/// book as report lines, each with its count.
fn survivors(live: bool) -> Vec<(String, usize)> {
    lock();
    for i in (0..TABLE).filter(|_| live) {
        let ptr = PTRS[i].load(Relaxed);
        if ptr != 0 {
            let (size, site) = (SIZES[i].load(Relaxed), SITES[i].load(Relaxed));
            // SAFETY: a table entry is a live block; the lock keeps it so.
            unsafe { scan(ptr as *const u8, size, false, site) };
        }
    }
    let mut book = [(0usize, 0usize, 0usize); SURVIVOR_SLOTS];
    for (entry, slot) in book.iter_mut().zip(SURVIVORS.chunks(4)) {
        *entry = (
            slot[0].swap(0, Relaxed),
            slot[1].swap(0, Relaxed),
            slot[2].swap(0, Relaxed),
        );
    }
    unlock();
    book.iter()
        .filter(|e| e.0 != 0)
        .map(|&(id, size, count)| {
            let (freed, site) = ((id - 1) & 1 == 1, (id - 1) >> 1);
            let thread = if site & 1 == 1 { "script" } else { "other" };
            let line = format!(
                "{} block of {size} B from {} on the {thread} thread",
                if freed { "freed" } else { "live" },
                PHASES[site / 2]
            );
            (line, count)
        })
        .collect()
}

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `script` as phase `phase` on this thread and scans every live block
/// while the structure it returns is still alive, then drops that: the
/// deleted tags found in blocks allocated during the phase, per report line.
fn run<T>(phase: usize, script: impl FnOnce() -> T) -> BTreeMap<String, usize> {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    drop(survivors(false));
    SCRIPT_THREAD.with(|s| s.set(true));
    PHASE.store(phase, Relaxed);
    let kept = script();
    let mut found = survivors(true);
    drop(kept);
    found.extend(survivors(false));
    PHASE.store(0, Relaxed);
    SCRIPT_THREAD.with(|s| s.set(false));
    let mut by_site = BTreeMap::new();
    for (line, count) in found {
        if line.contains(PHASES[phase]) {
            *by_site.entry(line).or_insert(0) += count;
        }
    }
    for (line, count) in &by_site {
        eprintln!("{}: {count} deleted tags in a {line}", PHASES[phase]);
    }
    by_site
}

/// A 64-bit LCG stream.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) % n.max(1) as u64) as usize
    }
}

/// The grow-and-shrink shape every script follows: calls `visit` once per
/// step with whether the step inserts (`true`) or deletes. Grows to
/// 6 000 (N̂ ≥ 4 096) with one delete per three inserts, then shrinks to 40
/// (N̂ < 128) with one insert per three deletes.
fn steps(rng: &mut Lcg, mut visit: impl FnMut(&mut Lcg, bool)) {
    let mut len = 0usize;
    let mut step = 0usize;
    while len < 6_000 {
        let insert = len == 0 || step % 4 != 3;
        visit(rng, insert);
        len = if insert { len + 1 } else { len - 1 };
        step += 1;
    }
    while len > 40 {
        let insert = step % 4 == 3;
        visit(rng, insert);
        len = if insert { len + 1 } else { len - 1 };
        step += 1;
    }
}

// ---------------------------------------------------------------------------
// The scripts
// ---------------------------------------------------------------------------

#[test]
fn no_deleted_record_survives_in_a_hi_pma() {
    let found = run(1, || {
        let mut pma: HiPma<(u64, u64)> = HiPma::new(0x0EAC_1E01);
        let mut model: Vec<u32> = Vec::new();
        steps(&mut Lcg(1), |rng, insert| {
            if insert {
                let (rank, c) = (rng.below(model.len() + 1), fresh());
                pma.insert(rank, (key(c), val(c))).unwrap();
                model.insert(rank, c);
            } else {
                // Every other delete takes the front, emptying whole ranges.
                let rank = rng.below(model.len()) * rng.below(2);
                mark_deleted(model.remove(rank));
                pma.delete(rank).unwrap();
            }
        });
        pma.check_invariants();
        assert_eq!(pma.len(), model.len());
        assert!(pma.n_hat() < 128);
        pma
    });
    assert!(found.is_empty(), "deleted records in RAM: {found:?}");
}

/// One keyed script for any dictionary of tagged `u64` pairs: inserts fresh
/// keys, overwrites live ones with fresh values, removes live ones. A key and
/// its values draw separate counters, so marking one deleted marks no other.
fn keyed_script<D: Dictionary<Key = u64, Value = u64>>(d: &mut D, seed: u64) {
    let mut live: Vec<(u32, u32)> = Vec::new();
    steps(&mut Lcg(seed), |rng, insert| {
        if insert {
            let (k, v) = (fresh(), fresh());
            assert_eq!(d.insert(key(k), val(v)), None);
            live.push((k, v));
            if rng.below(8) == 0 {
                let i = rng.below(live.len());
                let v = fresh();
                mark_deleted(std::mem::replace(&mut live[i].1, v));
                assert!(d.insert(key(live[i].0), val(v)).is_some());
            }
        } else {
            let (k, v) = live.swap_remove(rng.below(live.len()));
            mark_deleted(k);
            mark_deleted(v);
            assert!(d.remove(&key(k)).is_some());
        }
    });
    assert_eq!(d.len(), live.len());
}

#[test]
fn no_deleted_record_survives_in_a_hi_dict() {
    let found = run(2, || {
        let mut d: HiDict = RankedDict::new(HiPma::new(0x0EAC_1E02));
        keyed_script(&mut d, 2);
        d.seq().check_invariants();
        d
    });
    assert!(found.is_empty(), "deleted records in RAM: {found:?}");
}

fn sharded() -> shard::ShardedDict<HiDict> {
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(0x0EAC_1E03)
        .shards(4)
        .try_build_hi_sharded()
        .unwrap()
}

#[test]
fn no_deleted_record_survives_in_a_sharded_dict_per_op() {
    let found = run(3, || {
        let mut d = sharded();
        keyed_script(&mut d, 3);
        d
    });
    assert!(found.is_empty(), "deleted records in RAM: {found:?}");
}

#[test]
fn no_deleted_record_survives_in_a_sharded_dict_through_multi_apply() {
    let found = run(4, || {
        let mut d = sharded();
        // Batches of 64 steps; an op is kept as counters until the batch
        // is built, lazily, inside `multi_apply`.
        let mut live: Vec<u32> = Vec::new();
        let mut batch: Vec<(bool, u32)> = Vec::new();
        let flush = |d: &mut shard::ShardedDict<HiDict>, batch: &mut Vec<(bool, u32)>| {
            let ops = batch.iter().map(|&(put, c)| match put {
                true => BatchOp::Put(key(c), val(c)),
                false => BatchOp::Remove(key(c)),
            });
            for &(put, c) in batch.iter() {
                if !put {
                    mark_deleted(c);
                }
            }
            let removed = d.multi_apply(ops);
            assert_eq!(removed, batch.iter().filter(|op| !op.0).count());
            batch.clear();
        };
        steps(&mut Lcg(4), |rng, insert| {
            if insert {
                let c = fresh();
                live.push(c);
                batch.push((true, c));
            } else {
                let c = live.swap_remove(rng.below(live.len()));
                batch.push((false, c));
            }
            if batch.len() == 64 {
                flush(&mut d, &mut batch);
            }
        });
        flush(&mut d, &mut batch);
        assert_eq!(d.len(), live.len());
        d
    });
    assert!(found.is_empty(), "deleted records in RAM: {found:?}");
}

/// The same grow-and-shrink script over the wire: PUT and DEL through a
/// [`Client`], a FLUSH to a persisted store every 1 000 steps, then a
/// restart on that store and a second shrink. A DEL is marked once it is
/// answered. The server keeps a few deleted keys in the buffers its request
/// pipeline reuses — the read buffer, the frame body, the queues and the
/// epoch's vectors, each holding copies of the last requests through it —
/// and DESIGN.md ("Deleted records in RAM") lists them with why they stay.
/// What this bounds is that nothing keeps them in proportion to the
/// deletes: the script deletes thousands of keys, and the server's threads
/// may hold a few dozen. The client's own buffers are the caller's.
#[test]
fn a_server_round_trip_keeps_deleted_keys_only_in_request_buffers() {
    const SEED: u64 = 0x0EAC_1E05;
    let path = temp_path("deleted-residue");
    let open = || {
        Dict::builder()
            .backend(Backend::HiPma)
            .seed(SEED)
            .build_persistent_with(&path, StoreOptions::new(512).no_sync())
            .unwrap()
    };
    let serve = || {
        let config = Dict::builder()
            .backend(Backend::HiPma)
            .seed(SEED)
            .shards(4)
            .config()
            .clone();
        let persist = Some(open());
        Server::spawn("127.0.0.1:0", ServerOptions { config, persist }).unwrap()
    };
    let found = run(5, || {
        let mut live: Vec<u32> = Vec::new();
        let round = |server: Server, live: &mut Vec<u32>, grow: bool, seed: u64| {
            let mut c = Client::connect(server.addr()).unwrap();
            let (mut step, shrink_from) = (0usize, live.len());
            let mut visit = |rng: &mut Lcg, insert: bool| {
                if insert {
                    let k = fresh();
                    c.put(key(k), val(k)).unwrap();
                    live.push(k);
                } else {
                    // Marked once answered: until then the key is a request
                    // in flight, not a deleted record.
                    let k = live.swap_remove(rng.below(live.len()));
                    c.del(key(k)).unwrap();
                    mark_deleted(k);
                }
                step += 1;
                if step % 1_000 == 0 {
                    c.flush_store().unwrap();
                }
            };
            let mut rng = Lcg(seed);
            if grow {
                steps(&mut rng, &mut visit);
            } else {
                for _ in 20..shrink_from {
                    visit(&mut rng, false);
                }
            }
            c.flush_store().unwrap();
            assert_eq!(c.len().unwrap(), live.len() as u64);
            drop(c);
            let store = server.into_persist().unwrap();
            let journal = store.store().journal_path().to_path_buf();
            drop(store);
            journal
        };
        round(serve(), &mut live, true, 5);
        let journal = round(serve(), &mut live, false, 6);
        let _ = std::fs::remove_file(journal);
    });
    let _ = std::fs::remove_file(&path);
    let in_server: Vec<_> = found
        .iter()
        .filter(|(line, _)| line.contains("other thread"))
        .collect();
    let held: usize = in_server.iter().map(|(_, count)| **count).sum();
    assert!(
        held <= 64,
        "deleted keys in the server's RAM: {in_server:?}"
    );
}
