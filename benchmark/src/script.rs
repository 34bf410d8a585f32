//! Workload scripts: every request a repetition issues, and the answer it
//! must get, as a pure function of `--seed`.
//!
//! The *data set* is the same for every seed: key `i` is `splitmix64(i)`,
//! keys are inserted in index order and deleted oldest first, and the
//! dictionaries draw their coins from [`COIN_SEED`]. The seed chooses the
//! values written and which keys are read, overwritten and scanned. The
//! reason is the paper's own capacity rule: `N̂` is uniform on
//! `{n, …, 2n−1}` and every rebalance coin comes from the same stream, so a
//! different insertion sequence means a different number of resizes during
//! set-up (31–42 at 307 200 keys, ±8 % in element moves) and a different
//! slot count at the end. With the write sequence fixed the structure's
//! evolution repeats exactly, and what differs between seeds is only what a
//! user of a loaded dictionary would vary: the traffic.

use dict_server::{Request, Response};

/// Coins of every dictionary the benchmark builds (router, shards,
/// embedded PMA, persistent image).
pub const COIN_SEED: u64 = 0xC0115;

/// PUTs in flight per preload window.
pub const PRELOAD_WINDOW: usize = 512;
/// Requests per half window of `wire_pipelined` (256 in flight).
pub const HALF_WINDOW: usize = 128;
/// Half-window steps per `wire_pipelined` chunk.
pub const STEPS_PER_CHUNK: usize = 20;
/// Requests in flight while `wire_flush` writes a round.
pub const FLUSH_WINDOW: usize = 256;
/// Synchronous GETs after each FLUSH: half must hit, half must miss.
pub const FLUSH_GETS: usize = 64;
/// `get_ref` calls per `embedded` read chunk.
pub const READS_PER_CHUNK: usize = 4096;
/// `range_iter` scans per `embedded` read chunk.
pub const SCANS_PER_CHUNK: usize = 64;
/// Entries taken from each scan.
pub const SCAN_LEN: usize = 64;
/// Insert-new/remove-oldest pairs per `embedded` write chunk.
pub const WRITES_PER_CHUNK: usize = 512;

/// The stateless scrambler behind every key, value and choice.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key of data-set index `i` (a bijection, so indices never collide).
pub fn key(i: u64) -> u64 {
    splitmix64(i)
}

/// Value stored under index `i` for this seed. Invertible given the seed,
/// which lets a scan check `key(index_of(v)) == k` without a model.
pub fn value(i: u64, seed: u64) -> u64 {
    i ^ splitmix64(seed)
}

/// Inverse of [`value`].
pub fn index_of(v: u64, seed: u64) -> u64 {
    v ^ splitmix64(seed)
}

/// A seeded choice stream; `tag` separates the streams of one script.
pub struct Rand {
    state: u64,
}

impl Rand {
    pub fn new(seed: u64, tag: u64) -> Self {
        Self {
            state: splitmix64(seed ^ splitmix64(tag)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The four workloads, in the order every table prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireClosed,
    WirePipelined,
    WireFlush,
    Embedded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireClosed,
        Workload::WirePipelined,
        Workload::WireFlush,
        Workload::Embedded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireClosed => "wire_closed",
            Workload::WirePipelined => "wire_pipelined",
            Workload::WireFlush => "wire_flush",
            Workload::Embedded => "embedded",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one benchmark configuration. Constants of the benchmark: the
/// same on both sides of any comparison.
///
/// The key counts are chosen so that every capacity parameter the HI-PMA
/// can draw gives the same range-tree height: height changes at
/// `N̂` = 65 537, 140 047, 297 938 and 631 379, so an embedded PMA of
/// 307 200 keys (`N̂` < 614 400) and two server shards of ~68 000 keys
/// (`N̂` < 137 500) keep their slot count within ±3 % whatever the coins
/// say, where 400 000 keys flip between 1.25 M and 2.56 M slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub label: &'static str,
    /// Repetitions per workload (the K of the timing protocol).
    pub reps: usize,
    pub wire_keys: u64,
    pub wire_setup_chunks: u64,
    pub embedded_keys: u64,
    pub embedded_setup_chunks: u64,
    pub closed_chunks: usize,
    pub closed_chunk_ops: usize,
    pub pipelined_chunks: usize,
    pub flush_rounds: usize,
    pub flush_round_writes: usize,
    pub embedded_rounds: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        label: "full",
        reps: 7,
        wire_keys: 136_000,
        wire_setup_chunks: 34,
        embedded_keys: 307_200,
        embedded_setup_chunks: 40,
        closed_chunks: 40,
        closed_chunk_ops: 100,
        pipelined_chunks: 60,
        flush_rounds: 10,
        flush_round_writes: 4096,
        embedded_rounds: 250,
    };

    /// A tenth of the keys and K = 2: same code, same metric names, numbers
    /// not comparable with a full run.
    pub const SMOKE: Scale = Scale {
        label: "smoke",
        reps: 2,
        wire_keys: 13_600,
        wire_setup_chunks: 34,
        embedded_keys: 30_720,
        embedded_setup_chunks: 40,
        closed_chunks: 4,
        closed_chunk_ops: 50,
        pipelined_chunks: 6,
        flush_rounds: 2,
        flush_round_writes: 512,
        embedded_rounds: 25,
    };

    pub fn from_label(label: &str) -> Option<Scale> {
        [Scale::FULL, Scale::SMOKE]
            .into_iter()
            .find(|s| s.label == label)
    }
}

/// One scripted request and the only answer that counts as correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub req: Request,
    pub expect: Response,
}

impl Op {
    /// Whether the operation counts towards write latency.
    pub fn is_write(&self) -> bool {
        !matches!(self.req, Request::Get { .. })
    }
}

/// The preload PUT for data-set index `i`.
pub fn preload_op(i: u64, seed: u64) -> Op {
    Op {
        req: Request::Put {
            key: key(i),
            value: value(i, seed),
        },
        expect: Response::Done,
    }
}

/// The live data set: indices `oldest..next`, grown at the top and
/// trimmed at the bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Live {
    pub oldest: u64,
    pub next: u64,
}

impl Live {
    pub fn preloaded(n: u64) -> Self {
        Self { oldest: 0, next: n }
    }

    pub fn len(&self) -> u64 {
        self.next - self.oldest
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, i: u64) -> bool {
        (self.oldest..self.next).contains(&i)
    }

    fn put_new(&mut self, seed: u64) -> Op {
        let op = preload_op(self.next, seed);
        self.next += 1;
        op
    }

    fn del_oldest(&mut self) -> Op {
        let op = Op {
            req: Request::Del {
                key: key(self.oldest),
            },
            expect: Response::Done,
        };
        self.oldest += 1;
        op
    }

    fn get_live(&self, rand: &mut Rand, seed: u64) -> Op {
        let i = self.oldest + rand.below(self.len());
        Op {
            req: Request::Get { key: key(i) },
            expect: Response::Value(value(i, seed)),
        }
    }
}

/// `wire_closed`: one request stream per connection, 90 % GET / 10 % PUT on
/// preloaded keys. Stream `s` owns the indices congruent to `s` mod 2, so
/// each stream's expected values depend on its own writes only.
pub fn closed_streams(seed: u64, scale: &Scale) -> [Vec<Op>; 2] {
    [0u64, 1].map(|stream| {
        let mut rand = Rand::new(seed, 0xC105ED + stream);
        let mut written = std::collections::BTreeMap::new();
        (0..scale.closed_chunks * scale.closed_chunk_ops)
            .map(|_| {
                let r = rand.next_u64();
                let i = rand.below(scale.wire_keys / 2) * 2 + stream;
                if r.is_multiple_of(10) {
                    let v = splitmix64(r);
                    written.insert(i, v);
                    Op {
                        req: Request::Put {
                            key: key(i),
                            value: v,
                        },
                        expect: Response::Done,
                    }
                } else {
                    let v = written.get(&i).copied().unwrap_or(value(i, seed));
                    Op {
                        req: Request::Get { key: key(i) },
                        expect: Response::Value(v),
                    }
                }
            })
            .collect()
    })
}

/// `wire_pipelined`: PUT new, GET live, DEL oldest, GET live, repeated; the
/// dictionary stays at `wire_keys` entries. Returns the stream and the live
/// set after it.
pub fn pipelined_stream(seed: u64, scale: &Scale) -> (Vec<Op>, Live) {
    let mut rand = Rand::new(seed, 0x919E);
    let mut live = Live::preloaded(scale.wire_keys);
    let total = scale.pipelined_chunks * STEPS_PER_CHUNK * HALF_WINDOW;
    let ops = (0..total)
        .map(|j| match j % 4 {
            0 => live.put_new(seed),
            2 => live.del_oldest(),
            _ => live.get_live(&mut rand, seed),
        })
        .collect();
    (ops, live)
}

/// One `wire_flush` round: the pipelined writes, then (after the FLUSH the
/// executor issues) the synchronous GETs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushRound {
    pub writes: Vec<Op>,
    pub gets: Vec<Op>,
}

/// `wire_flush`: per round, alternate PUT new / DEL oldest, then read back
/// 32 of the keys just written (must hit) and 32 of the keys just deleted
/// (must miss).
pub fn flush_rounds(seed: u64, scale: &Scale) -> (Vec<FlushRound>, Live) {
    let mut rand = Rand::new(seed, 0xF1054);
    let mut live = Live::preloaded(scale.wire_keys);
    let rounds = (0..scale.flush_rounds)
        .map(|_| {
            let before = live;
            let writes = (0..scale.flush_round_writes)
                .map(|j| {
                    if j % 2 == 0 {
                        live.put_new(seed)
                    } else {
                        live.del_oldest()
                    }
                })
                .collect();
            let gets = (0..FLUSH_GETS)
                .map(|j| {
                    if j % 2 == 0 {
                        let i = before.next + rand.below(live.next - before.next);
                        Op {
                            req: Request::Get { key: key(i) },
                            expect: Response::Value(value(i, seed)),
                        }
                    } else {
                        let i = before.oldest + rand.below(live.oldest - before.oldest);
                        Op {
                            req: Request::Get { key: key(i) },
                            expect: Response::NotFound,
                        }
                    }
                })
                .collect();
            FlushRound { writes, gets }
        })
        .collect();
    (rounds, live)
}

/// One `embedded` round's reads; its writes are always the next
/// [`WRITES_PER_CHUNK`] new indices in and the oldest out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddedRound {
    /// Data-set indices to `get_ref`, all live.
    pub reads: Vec<u64>,
    /// Lower bounds of the scans, low enough that [`SCAN_LEN`] entries
    /// follow.
    pub scan_starts: Vec<u64>,
}

/// `embedded`: the reads of every round, and the live set after the last.
pub fn embedded_rounds(seed: u64, scale: &Scale) -> (Vec<EmbeddedRound>, Live) {
    let mut rand = Rand::new(seed, 0xE3BED);
    let mut live = Live::preloaded(scale.embedded_keys);
    let rounds = (0..scale.embedded_rounds)
        .map(|_| {
            let round = EmbeddedRound {
                reads: (0..READS_PER_CHUNK)
                    .map(|_| live.oldest + rand.below(live.len()))
                    .collect(),
                scan_starts: (0..SCANS_PER_CHUNK)
                    .map(|_| rand.below(u64::MAX / 8 * 7))
                    .collect(),
            };
            live.oldest += WRITES_PER_CHUNK as u64;
            live.next += WRITES_PER_CHUNK as u64;
            round
        })
        .collect();
    (rounds, live)
}

/// Every byte a repetition of `workload` sends to the program under test,
/// in order: the encoded request frames on the wire, or for `embedded` a
/// tag and the arguments of each facade call.
pub fn stream_bytes(workload: Workload, seed: u64, scale: &Scale) -> Vec<u8> {
    if workload == Workload::Embedded {
        return embedded_bytes(seed, scale);
    }
    let mut out = Vec::new();
    let mut push = |op: &Op| out.extend_from_slice(&op.req.encode());
    (0..scale.wire_keys).for_each(|i| push(&preload_op(i, seed)));
    match workload {
        Workload::WireClosed => closed_streams(seed, scale).iter().flatten().for_each(push),
        Workload::WirePipelined => pipelined_stream(seed, scale).0.iter().for_each(push),
        Workload::WireFlush => {
            let flush = Op {
                req: Request::Flush,
                expect: Response::Generation(0),
            };
            push(&flush);
            for round in flush_rounds(seed, scale).0 {
                round.writes.iter().for_each(&mut push);
                push(&flush);
                round.gets.iter().for_each(&mut push);
            }
        }
        Workload::Embedded => {}
    }
    out
}

fn embedded_bytes(seed: u64, scale: &Scale) -> Vec<u8> {
    let mut out = Vec::new();
    let mut call = |tag: u8, a: u64, b: u64| {
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    };
    for i in 0..scale.embedded_keys {
        call(b'I', key(i), value(i, seed));
    }
    let mut live = Live::preloaded(scale.embedded_keys);
    let writes = WRITES_PER_CHUNK as u64;
    for round in embedded_rounds(seed, scale).0 {
        round.reads.iter().for_each(|&i| call(b'G', key(i), 0));
        round.scan_starts.iter().for_each(|&k| call(b'S', k, 0));
        (live.next..live.next + writes).for_each(|i| call(b'I', key(i), value(i, seed)));
        (live.oldest..live.oldest + writes).for_each(|i| call(b'R', key(i), 0));
        live.next += writes;
        live.oldest += writes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = stream_bytes(workload, 7, &Scale::SMOKE);
            let b = stream_bytes(workload, 7, &Scale::SMOKE);
            let c = stream_bytes(workload, 8, &Scale::SMOKE);
            assert!(!a.is_empty());
            assert_eq!(a, b, "{}: same seed, same bytes", workload.name());
            assert_ne!(a, c, "{}: another seed, other bytes", workload.name());
        }
    }

    #[test]
    fn dictionary_size_is_constant_across_the_measured_scripts() {
        let scale = Scale::SMOKE;
        assert_eq!(pipelined_stream(3, &scale).1.len(), scale.wire_keys);
        assert_eq!(flush_rounds(3, &scale).1.len(), scale.wire_keys);
        assert_eq!(embedded_rounds(3, &scale).1.len(), scale.embedded_keys);
    }

    #[test]
    fn closed_streams_never_share_a_key() {
        let [a, b] = closed_streams(5, &Scale::SMOKE);
        let keys = |ops: &[Op]| -> std::collections::BTreeSet<u64> {
            ops.iter()
                .map(|op| match op.req {
                    Request::Get { key } | Request::Put { key, .. } => key,
                    _ => unreachable!("closed streams hold only GET and PUT"),
                })
                .collect()
        };
        assert!(keys(&a).is_disjoint(&keys(&b)));
        assert!(a.iter().any(Op::is_write) && a.iter().any(|op| !op.is_write()));
    }

    #[test]
    fn flush_reads_hit_new_keys_and_miss_deleted_ones() {
        let (rounds, _) = flush_rounds(9, &Scale::SMOKE);
        for round in &rounds {
            let hits = round
                .gets
                .iter()
                .filter(|op| matches!(op.expect, Response::Value(_)))
                .count();
            assert_eq!(hits, FLUSH_GETS / 2);
        }
    }

    #[test]
    fn values_invert_to_their_index() {
        assert_eq!(index_of(value(12345, 99), 99), 12345);
        assert_ne!(value(1, 1), value(1, 2));
    }
}
