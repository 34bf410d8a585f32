//! The checkpointed on-disk image and its journaled, atomic commit protocol.
//!
//! ## File format (version 4; all integers little-endian `u64`)
//!
//! ```text
//! data file:      block 0                header: magic, version, block size,
//!                                        record size, total slots, len, seed,
//!                                        reserved (zero), layout fingerprint,
//!                                        checksum root, checksum
//!                 blocks 1..1+C          checksum region: one FNV-1a word
//!                                        per payload block, in block order
//!                                        (zero padded)
//!                 blocks 1+C..1+C+BM     occupancy bitmap words, one bit per
//!                                        slot (zero padded)
//!                 blocks 1+C+BM..D       record region: the `len` records in
//!                                        rank order, record k at byte
//!                                        k*record_size (zero padded); R =
//!                                        ceil(len*record_size / B) blocks
//! journal file:   block 0                journal header: magic, block size,
//!                 (`<path>.journal`)     reserved (zero), dirty count, target
//!                                        data length, payload checksum,
//!                                        checksum
//!                 blocks 1..1+I          dirty block ids (zero padded)
//!                 blocks 1+I..1+I+count  dirty block images
//!                 the rest, up to J      zeros
//! ```
//!
//! At rest the journal is J = 1 + ⌈8D/B⌉ + D blocks of zeros for an image of
//! D data blocks (none for an empty store): room for a commit that rewrites
//! every block of the image, written once and then overwritten in place.
//!
//! The file stores the sparse table's occupancy and its records, not its
//! vacant slots: the k-th set bit of the bitmap owns the k-th record, so the
//! image is a lossless encoding of the slot array and what a vacant slot
//! costs at rest is one bit. (Version 3 stored every slot; an intact
//! version-3 header is refused by name.)
//!
//! Every byte of the image sits under a checksum: the header checks itself
//! (last field), the header's `checksum_root` covers the checksum region,
//! and the region's words cover the bitmap and record blocks — so any bit of
//! rot anywhere surfaces as a typed [`FileError::Corrupt`] instead of a
//! silent misread. The per-block words are the same FNV-1a hashes the
//! incremental-commit dirty gate computes anyway, so checksumming adds no
//! extra hashing to a flush — only the (tiny) region itself.
//!
//! ## One hash per block, computed once
//!
//! Every block hash anywhere in this file — commit, load, scrub, recovery —
//! comes from one kernel, `hash_blocks`: byte-serial FNV-1a per block (the
//! persisted words are unchanged), with four blocks' chains interleaved so
//! the multiplies pipeline instead of waiting on each other. A byte is
//! hashed once per pass: `load` verifies a block and primes the dirty gate
//! with the same word, and the journal's payload checksum (journal magic
//! `APBSJRN2`) is FNV over the ids area followed by the *per-block hashes*
//! of the staged images in journal order, which the commit already holds —
//! not a second walk over the payload. Recovery recomputes the block hashes
//! with the kernel and folds them the same way. Only the transient journal
//! changed revision; a committed `APBSJRN1` journal (sum over the staged
//! bytes themselves) left behind by a crashed older build is still replayed
//! under its own rule, never cleared as torn. (The reverse does not hold:
//! an older build does not know `APBSJRN2`, so finish recovery with this
//! build before downgrading.)
//!
//! ## Commit protocol
//!
//! 1. Regenerate the payload (bitmap + record) blocks of the new image a
//!    group at a time, straight into the journal staging buffer behind the
//!    dirty images already kept; hash the group; slide the blocks whose
//!    hash differs from the committed image down over the clean ones and
//!    record their ids. Then generate the checksum region from those hashes
//!    and the header from the region's root, staging dirty ones the same
//!    way. The staging buffer ends up as the journal payload, with no
//!    per-block copy.
//! 2. Write the journal ids and payload (one contiguous transfer each) and
//!    the journal header, then sync the journal: the barrier that makes the
//!    header — the commit point — durable with everything it vouches for.
//!    A shorter image cuts the journal to its new J here, zeros written over
//!    the cut before this barrier.
//! 3. Write the dirty blocks into the data file in place, one transfer per
//!    run of consecutive ids — a full image is three runs — then bring the
//!    file to its length and sync. A longer image has already grown the
//!    file; a shorter one writes zeros over its tail, syncs, and cuts.
//! 4. Wipe the staging buffers and write their zeros over the journal
//!    blocks step 2 wrote; grow the journal with written zeros to J of the
//!    new image. No sync. In the steady state — an image of unchanged
//!    size — no length of either file changes.
//!
//! Every length change of either file goes through
//! [`BlockFile::resize`]: a file grows by written zeros, and shrinks by
//! zeros over the cut, a sync, then the cut, so no cut hands the
//! filesystem a byte of an old image.
//!
//! A commit pays two barriers; one that shrinks the image pays a third, the
//! sync that makes the data file's cut durable before the journal is
//! retired. Between barriers the device may keep any subset of the writes
//! issued since a file's last sync, in any order, and tear any of them; two
//! facts make that safe without a barrier in step 2 or after step 4:
//!
//! * a journal header that persists without all of its ids and payload
//!   fails the payload checksum, and `open` discards the journal (the
//!   data file has not been touched: its writes wait for the barrier);
//! * a retire that a crash loses, in whole or in part, leaves the journal
//!   of an image the data file already holds: `open` replays it
//!   idempotently, or discards what is left of it, and wipes every byte it
//!   finds. The next commit's journal barrier makes the zeros durable
//!   before that commit touches the data file.
//!
//! The crash-state model in this crate's tests (`crash.rs`) enumerates
//! those subsets over a run of commits and holds every one of them to
//! whole-old or whole-new bytes.
//!
//! With a [`FaultPlan`] armed, every multi-block transfer falls back to one
//! block at a time in the same order, so each block boundary of each phase
//! is still a point where an injected crash can land.
//!
//! A crash before step 2 completes leaves the data file untouched (the old
//! image survives); a crash after it leaves a valid journal that
//! [`BlockStore::open`] replays idempotently. Either way the quiescent file
//! is exactly one committed image — never a blend, and never a byte of a
//! record that is not in the image — and the quiescent journal is zeros.

use crate::file::{AlignedBuf, BlockFile, FileError, FileStats};
use crate::record::Record;
use crate::FaultPlan;
use io_sim::Tracer;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: u64 = u64::from_le_bytes(*b"APBSTOR1");
const JMAGIC: u64 = u64::from_le_bytes(*b"APBSJRN2");
/// The previous journal revision: same header fields, but its payload
/// checksum ran over the staged bytes themselves. Never written any more;
/// [`BlockStore::open`] still replays one a crashed older build left behind.
const JMAGIC_V1: u64 = u64::from_le_bytes(*b"APBSJRN1");
/// Version 4: the last region holds the `len` records packed in rank order,
/// where version 3 held all `total_slots` slots with the vacant ones zeroed.
/// (Version 3 itself was version 2's bytes under a new HI-PMA layout
/// function.)
const VERSION: u64 = 4;
const HEADER_FIELDS: usize = 11;
const JHEADER_FIELDS: usize = 7;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Independent FNV chains [`hash_blocks`] keeps in flight. One chain is
/// latency-bound (each byte's multiply waits on the previous one, ~4 cycles
/// a byte); four fill the multiplier's pipeline, and more measured slower.
const HASH_LANES: usize = 4;

/// Blocks generated (or read) and then hashed together by the commit, scrub
/// and recovery paths: a whole number of kernel rounds, small enough that a
/// group of 4 KiB blocks is still cache-resident when the kernel reaches it.
const GROUP_BLOCKS: usize = 4 * HASH_LANES;

/// The block-hash kernel: `out[i] = fnv1a(FNV_OFFSET, block i of buf)` for
/// every `block_size`-byte block of `buf` — the same byte-serial FNV-1a the
/// format has always stored, so not one persisted word changes. Blocks are
/// independent, so [`HASH_LANES`] of them are walked in lock step; a tail of
/// fewer blocks than lanes takes the scalar chain.
fn hash_blocks(buf: &[u8], block_size: usize, out: &mut [u64]) {
    assert_eq!(
        buf.len(),
        out.len() * block_size,
        "one hash word per whole block"
    );
    let mut groups = buf.chunks_exact(block_size * HASH_LANES);
    let mut words = out.chunks_exact_mut(HASH_LANES);
    for (group, word) in (&mut groups).zip(&mut words) {
        let (a, rest) = group.split_at(block_size);
        let (b, rest) = rest.split_at(block_size);
        let (c, d) = rest.split_at(block_size);
        let mut h = [FNV_OFFSET; HASH_LANES];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            h[0] = (h[0] ^ a as u64).wrapping_mul(FNV_PRIME);
            h[1] = (h[1] ^ b as u64).wrapping_mul(FNV_PRIME);
            h[2] = (h[2] ^ c as u64).wrapping_mul(FNV_PRIME);
            h[3] = (h[3] ^ d as u64).wrapping_mul(FNV_PRIME);
        }
        word.copy_from_slice(&h);
    }
    let tail = groups.remainder().chunks_exact(block_size);
    for (block, word) in tail.zip(words.into_remainder()) {
        *word = fnv1a(FNV_OFFSET, block);
    }
}

/// The journal's payload checksum: FNV over the ids area, then over the
/// per-block hashes of the staged images in journal order. Any flipped
/// payload byte changes its block's hash (every FNV step is a bijection of
/// the running state), so the sum covers the payload without a second pass
/// over it.
fn journal_sum(ids_area: &[u8], block_hashes: impl Iterator<Item = u64>) -> u64 {
    block_hashes.fold(fnv1a(FNV_OFFSET, ids_area), |h, word| {
        fnv1a(h, &word.to_le_bytes())
    })
}

/// Writes staged block images to their ids, one transfer per run of
/// consecutive ids (with a fault plan armed, [`BlockFile::write_blocks`]
/// still visits every block of a run in order).
fn write_runs(
    file: &mut BlockFile,
    ids: &[u64],
    images: &[u8],
    block_size: usize,
) -> Result<(), FileError> {
    let mut at = 0;
    for run in ids.chunk_by(|a, b| a.checked_add(1) == Some(*b)) {
        let end = at + run.len() * block_size;
        file.write_blocks(run[0], &images[at..end])?;
        at = end;
    }
    Ok(())
}

/// The layout fingerprint stored in the header: an FNV-1a hash of the
/// occupancy bitmap words plus the slot count. This is the quantity the
/// determinism and crash batteries pin — for a canonicalized image it is a
/// pure function of *(contents, seed)*.
pub fn layout_fingerprint(words: &[u64], total_slots: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        h = fnv1a(h, &w.to_le_bytes());
    }
    fnv1a(h, &total_slots.to_le_bytes())
}

fn put_u64(buf: &mut [u8], field: usize, v: u64) {
    buf[field * 8..field * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], field: usize) -> u64 {
    // Copy-based decode: the fixed-width stack array makes the length match
    // structural, where a `try_into().expect(…)` would put a panic on the
    // read path of every header field, bitmap word, and journal id.
    let mut word = [0u8; 8];
    word.copy_from_slice(&buf[field * 8..field * 8 + 8]);
    u64::from_le_bytes(word)
}

fn corrupt(block: u64, reason: &'static str) -> FileError {
    FileError::Corrupt { block, reason }
}

/// Tuning of a [`BlockStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Write granularity in bytes — every physical transfer moves exactly
    /// this many bytes. Must be a multiple of 8 and at least 128.
    pub block_size: usize,
    /// Whether to `fsync` at the commit's two barriers: the journal after
    /// its header is written, and the data file after it is applied (and
    /// the data file after a replay on open). Disabling keeps the
    /// *injected*-crash guarantees (the fault plan respects write order)
    /// but not real power-loss durability; tests disable it for speed.
    pub sync: bool,
}

impl StoreOptions {
    /// Durable options with the given block size.
    pub fn new(block_size: usize) -> Self {
        Self {
            block_size,
            sync: true,
        }
    }

    /// Disables `fsync` between commit phases.
    pub fn no_sync(mut self) -> Self {
        self.sync = false;
        self
    }

    fn validate(&self) -> Result<(), FileError> {
        if self.block_size < 128 || !self.block_size.is_multiple_of(8) {
            return Err(FileError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "block size must be a multiple of 8 and at least 128, got {}",
                    self.block_size
                ),
            )));
        }
        Ok(())
    }
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self::new(4096)
    }
}

/// The committed image's metadata, as stored in the header block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// Encoded size of one record in bytes.
    pub record_size: u64,
    /// Slots in the backing array (occupied plus vacant).
    pub total_slots: u64,
    /// Occupied slots (records stored).
    pub len: u64,
    /// The layout seed: the committed image is `f(contents, seed)` when the
    /// flushed layout was canonicalized with it.
    pub seed: u64,
    /// Commit counter, starting at 1 for this process's first commit. Never
    /// persisted (the header field is reserved-zero): a flush count on disk
    /// would itself be operation history. Resets to 0 on every open.
    pub generation: u64,
    /// [`layout_fingerprint`] of the committed bitmap.
    pub fingerprint: u64,
    /// FNV-1a hash of the checksum region's bytes — the root of the image's
    /// integrity chain (header checks itself, root checks the region, the
    /// region's words check every payload block).
    pub checksum_root: u64,
}

/// Physical transfer counters of both backing files.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// The data (image) file.
    pub data: FileStats,
    /// The journal sidecar file.
    pub journal: FileStats,
}

impl StoreStats {
    /// Total blocks written across both files.
    pub fn blocks_written(&self) -> u64 {
        self.data.blocks_written + self.journal.blocks_written
    }

    /// Total blocks read across both files.
    pub fn blocks_read(&self) -> u64 {
        self.data.blocks_read + self.journal.blocks_read
    }
}

/// The result of a [`BlockStore::scrub`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks the sweep examined (the whole image).
    pub blocks_checked: u64,
    /// Blocks whose bytes failed their checksum (or could not be read),
    /// in ascending block order.
    pub corrupt: Vec<u64>,
}

impl ScrubReport {
    /// `true` when every block verified.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Derived block layout of one image.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    block_size: u64,
    total_slots: u64,
    checksum_blocks: u64,
    bitmap_blocks: u64,
    record_blocks: u64,
}

impl Geometry {
    /// Refuses sizes that describe an image whose length does not fit a
    /// `u64`: header fields arrive here before anything else has vetted them.
    fn new(
        block_size: u64,
        record_size: u64,
        total_slots: u64,
        len: u64,
    ) -> Result<Self, FileError> {
        let checked = || {
            let bitmap_bytes = total_slots.div_ceil(64).checked_mul(8)?;
            let bitmap_blocks = bitmap_bytes.div_ceil(block_size);
            let record_blocks = len.checked_mul(record_size)?.div_ceil(block_size);
            let payload_bytes = bitmap_blocks.checked_add(record_blocks)?.checked_mul(8)?;
            let geo = Self {
                block_size,
                total_slots,
                checksum_blocks: payload_bytes.div_ceil(block_size),
                bitmap_blocks,
                record_blocks,
            };
            // `file_len`, checked once here so the accessors can stay plain.
            geo.payload_first()
                .checked_add(geo.payload_blocks())?
                .checked_mul(block_size)?;
            Some(geo)
        };
        checked().ok_or_else(|| corrupt(0, "image geometry overflows a 64-bit file length"))
    }

    /// The geometry a committed header describes.
    fn of(block_size: u64, meta: &StoreMeta) -> Result<Self, FileError> {
        Self::new(block_size, meta.record_size, meta.total_slots, meta.len)
    }

    fn bitmap_words(&self) -> u64 {
        self.total_slots.div_ceil(64)
    }

    /// Blocks covered by per-block checksums: bitmap plus record region.
    fn payload_blocks(&self) -> u64 {
        self.bitmap_blocks + self.record_blocks
    }

    /// First payload block id (header and checksum region precede it).
    fn payload_first(&self) -> u64 {
        1 + self.checksum_blocks
    }

    /// First block id of the record region.
    fn record_first(&self) -> u64 {
        self.payload_first() + self.bitmap_blocks
    }

    fn data_blocks(&self) -> u64 {
        self.record_first() + self.record_blocks
    }

    fn file_len(&self) -> u64 {
        self.data_blocks() * self.block_size
    }
}

/// Encodes the record region sequentially: the k-th record of the iterator
/// lands at byte `k * T::SIZE`, written straight into the staging span it
/// falls in. Only a record that straddles the end of a span is staged, its
/// tail carried into the next span through a fixed stack buffer — no probe
/// per slot, no allocation.
struct RecordEncoder<T: Record, I: Iterator<Item = T>> {
    records: I,
    /// Records the region still owes: `len` minus those taken so far.
    remaining: u64,
    carry: [u8; 64],
    carry_len: usize,
}

impl<T: Record, I: Iterator<Item = T>> RecordEncoder<T, I> {
    fn new(records: I, len: u64) -> Self {
        Self {
            records,
            remaining: len,
            carry: [0u8; 64],
            carry_len: 0,
        }
    }

    fn next_record(&mut self) -> Result<T, FileError> {
        self.remaining -= 1;
        self.records
            .next()
            .ok_or_else(|| corrupt(0, "record iterator ended before len records"))
    }

    /// Fills the next span of the record region — whole blocks, or nothing
    /// while the commit is still staging the bitmap: every byte of `out` is
    /// written, records first, then the zero padding behind the last one.
    fn fill(&mut self, out: &mut [u8]) -> Result<(), FileError> {
        let (head, body) = out.split_at_mut(self.carry_len);
        head.copy_from_slice(&self.carry[..self.carry_len]);
        self.carry_len = 0;
        let whole = self.remaining.min((body.len() / T::SIZE) as u64) as usize;
        let (packed, tail) = body.split_at_mut(whole * T::SIZE);
        for slot in packed.chunks_exact_mut(T::SIZE) {
            self.next_record()?.encode(slot);
        }
        if self.remaining == 0 {
            tail.fill(0);
        } else if !tail.is_empty() {
            let mut staged = [0u8; 64];
            self.next_record()?.encode(&mut staged[..T::SIZE]);
            let (fits, rest) = staged[..T::SIZE].split_at(tail.len());
            tail.copy_from_slice(fits);
            self.carry[..rest.len()].copy_from_slice(rest);
            self.carry_len = rest.len();
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), FileError> {
        if self.remaining != 0 {
            return Err(corrupt(0, "record region ended before len records"));
        }
        if self.records.next().is_some() {
            return Err(corrupt(0, "record iterator yielded more than len records"));
        }
        Ok(())
    }
}

/// Fills a span of the bitmap region that starts at word `first_word`: the
/// words in order, zeros behind the last one.
fn fill_bitmap(out: &mut [u8], words: &[u64], first_word: usize) {
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        let w = words.get(first_word + i).copied().unwrap_or(0);
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

/// Audited encoder for one checksum-region word: word `k` of a region block
/// holds the FNV hash of one payload block's bytes. The hash is a pure
/// function of the committed image — which is itself `f(contents, seed)` —
/// so persisting it adds integrity without adding history.
fn encode_checksum_word(out: &mut [u8], k: usize, word: u64) {
    put_u64(out, k, word);
}

fn encode_header(out: &mut [u8], block_size: u64, meta: &StoreMeta) {
    out.fill(0);
    put_u64(out, 0, MAGIC);
    put_u64(out, 1, VERSION);
    put_u64(out, 2, block_size);
    put_u64(out, 3, meta.record_size);
    put_u64(out, 4, meta.total_slots);
    put_u64(out, 5, meta.len);
    put_u64(out, 6, meta.seed);
    // Field 7 is reserved and always zero: the commit counter stays in RAM
    // only, because a flush count on the platter would itself be operation
    // history — the image must be a function of (contents, seed) alone.
    put_u64(out, 7, 0);
    put_u64(out, 8, meta.fingerprint);
    put_u64(out, 9, meta.checksum_root);
    let sum = fnv1a(FNV_OFFSET, &out[..(HEADER_FIELDS - 1) * 8]);
    put_u64(out, HEADER_FIELDS - 1, sum);
}

fn encode_journal_header(
    out: &mut [u8],
    block_size: u64,
    count: u64,
    target_len: u64,
    payload_sum: u64,
) {
    out.fill(0);
    put_u64(out, 0, JMAGIC);
    put_u64(out, 1, block_size);
    // Field 2 is reserved and always zero. An earlier revision journaled the
    // commit generation here, but recovery never reads it — that was a
    // transient copy of operation history on the platter, exactly what the
    // anti-persistence goal forbids. The test
    // `header_fields_hold_no_commit_history` keeps the leak from coming back.
    put_u64(out, 2, 0);
    put_u64(out, 3, count);
    put_u64(out, 4, target_len);
    put_u64(out, 5, payload_sum);
    let sum = fnv1a(FNV_OFFSET, &out[..(JHEADER_FIELDS - 1) * 8]);
    put_u64(out, JHEADER_FIELDS - 1, sum);
}

fn decode_header(buf: &[u8], expect_block_size: u64) -> Result<StoreMeta, FileError> {
    if get_u64(buf, 0) != MAGIC {
        return Err(corrupt(0, "bad store header magic"));
    }
    let sum = fnv1a(FNV_OFFSET, &buf[..(HEADER_FIELDS - 1) * 8]);
    if get_u64(buf, HEADER_FIELDS - 1) != sum {
        return Err(corrupt(0, "store header checksum mismatch"));
    }
    // After the checksum, so that a rotted version field reads as
    // corruption and only an intact header of another version lands here.
    if get_u64(buf, 1) != VERSION {
        return Err(FileError::UnsupportedVersion {
            found: get_u64(buf, 1),
            supported: VERSION,
        });
    }
    if get_u64(buf, 2) != expect_block_size {
        return Err(corrupt(
            0,
            "store header block size disagrees with the open options",
        ));
    }
    if get_u64(buf, 7) != 0 {
        return Err(corrupt(0, "store header reserved field must be zero"));
    }
    // The checksum covers the fields; the rest of the block is structural
    // padding that a canonical image always zeroes. Enforcing that closes
    // the one header region a bit flip could otherwise hide in.
    if buf[HEADER_FIELDS * 8..].iter().any(|&b| b != 0) {
        return Err(corrupt(0, "store header padding not zeroed"));
    }
    Ok(StoreMeta {
        record_size: get_u64(buf, 3),
        total_slots: get_u64(buf, 4),
        len: get_u64(buf, 5),
        seed: get_u64(buf, 6),
        generation: 0,
        fingerprint: get_u64(buf, 8),
        checksum_root: get_u64(buf, 9),
    })
}

/// The journal sidecar's path for a data file: `<path>.journal`.
pub(crate) fn journal_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// A file-backed image of a slot-array structure with atomic, journaled
/// commits. See the module docs for the format and protocol.
#[derive(Debug)]
pub struct BlockStore {
    data: BlockFile,
    journal: BlockFile,
    opts: StoreOptions,
    meta: Option<StoreMeta>,
    /// Per-block FNV hash of the committed image (index = block id); empty
    /// until a commit or a [`Self::load`] populates it, in which case the
    /// next commit rewrites every block.
    block_hashes: Vec<u64>,
    scratch_hashes: Vec<u64>,
    ids: Vec<u64>,
    block_buf: AlignedBuf,
    ids_buf: AlignedBuf,
    payload: AlignedBuf,
    poisoned: bool,
}

impl BlockStore {
    /// Opens (creating if absent) the store at `path`, replaying a pending
    /// journal first if a previous process crashed mid-commit, then leaving
    /// the journal as the image's J zero blocks. Never panics on a
    /// malformed file: a zero-length file is simply uninitialized, a
    /// truncated header is a typed [`FileError::ShortRead`], and a mangled
    /// one is a typed [`FileError::Corrupt`]. An open that refuses the files
    /// leaves the journal as it found it.
    pub fn open(path: impl AsRef<Path>, opts: StoreOptions) -> Result<Self, FileError> {
        opts.validate()?;
        let path = path.as_ref();
        let data = BlockFile::open(path, opts.block_size)?;
        let journal = BlockFile::open(journal_path_for(path), opts.block_size)?;
        let mut store = Self {
            data,
            journal,
            opts,
            meta: None,
            block_hashes: Vec::new(),
            scratch_hashes: Vec::new(),
            ids: Vec::new(),
            block_buf: AlignedBuf::new(),
            ids_buf: AlignedBuf::new(),
            payload: AlignedBuf::new(),
            poisoned: false,
        };
        store.replay_journal()?;
        store.read_meta()?;
        // After the header checks out: opened with another block size, a
        // store would otherwise resize a zero journal, or wipe a committed
        // one that the right options still replay.
        let b = opts.block_size as u64;
        let data_blocks = store.data.len()?.div_ceil(b);
        store.settle_journal(journal_blocks(data_blocks, b))?;
        Ok(store)
    }

    /// The committed image's metadata, or `None` before the first commit.
    pub fn meta(&self) -> Option<StoreMeta> {
        self.meta
    }

    /// `true` once an image has been committed.
    pub fn is_initialized(&self) -> bool {
        self.meta.is_some()
    }

    /// The data file's path.
    pub fn path(&self) -> &Path {
        self.data.path()
    }

    /// The journal sidecar's path.
    pub fn journal_path(&self) -> &Path {
        self.journal.path()
    }

    /// The store's options.
    pub fn options(&self) -> StoreOptions {
        self.opts
    }

    /// Physical transfer counters of both files.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            data: self.data.stats(),
            journal: self.journal.stats(),
        }
    }

    /// Arms a fault script on both files (one shared state, so injection
    /// indices count the store's global transfer stream).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.data.set_fault_plan(plan.clone());
        self.journal.set_fault_plan(plan);
    }

    /// Routes both files' physical transfers into a simulated-DAM ledger.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.data.set_tracer(tracer.clone());
        self.journal.set_tracer(tracer);
    }

    /// `true` once an injected crash or I/O error has fired mid-commit —
    /// after the commit's first write; an argument the commit refuses before
    /// that leaves both files and this flag as they were. A poisoned store
    /// must be reopened (which replays or discards the journal) or repaired
    /// from a replica.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Commits a new image atomically: the slot array described by the
    /// occupancy bitmap `words` (one bit per slot, `total_slots` bits) and
    /// `records` (one per set bit, in slot order), plus the metadata that
    /// makes the image self-describing. Only blocks that differ from the
    /// committed image are written (via the journal). Returns the committed
    /// generation; a contents-and-metadata no-op writes nothing, and neither
    /// does a refusal: `words` whose popcount is not `len`, or `records`
    /// that yields fewer or more than `len`, is a typed error from the
    /// staging phase, after which the store is as it was.
    ///
    /// Steady-state commits are allocation-free: all staging buffers are
    /// reused and were sized by the first (full) commit. The staged images
    /// and their ids are wiped on the way out, whatever the outcome: they
    /// hold records that may be deleted before the next commit, and the
    /// buffers outlive them. Wiped, the staging buffer is also where the
    /// zeros that retire the journal come from.
    pub fn commit<T: Record>(
        &mut self,
        words: &[u64],
        total_slots: u64,
        len: u64,
        records: impl IntoIterator<Item = T>,
        seed: u64,
    ) -> Result<u64, FileError> {
        let applied = self.stage_and_apply(words, total_slots, len, records, seed);
        self.payload.wipe();
        self.ids_buf.wipe();
        if let Some(used) = applied? {
            // Phase 4: zero the journal blocks this commit wrote, a wiped
            // buffer's worth at a time, then grow the journal with zeros to
            // the new image's J (a shorter image cut it in phase 2). No sync:
            // a crash that loses any of it leaves the journal of an image
            // that is already applied, which `open` replays idempotently
            // and wipes, and the next commit's journal barrier makes it
            // durable.
            let bs = self.opts.block_size;
            let b = bs as u64;
            let mut at = 0;
            while at < used {
                let n = ((self.payload.capacity() / bs) as u64).min(used - at);
                self.journal
                    .write_blocks(at, self.payload.get(n as usize * bs))?;
                at += n;
            }
            let data_blocks = self.data.len()? / b;
            self.journal
                .resize(journal_blocks(data_blocks, b) * b, self.opts.sync)?;
            self.poisoned = false;
        }
        Ok(self.meta.map_or(0, |m| m.generation))
    }

    /// Phases 1–3 of [`Self::commit`]: `None` when the commit is a no-op,
    /// otherwise the journal blocks phase 4 has to zero. The image is
    /// durable once this returns `Some`; the handle stays poisoned until the
    /// journal is retired.
    fn stage_and_apply<T: Record>(
        &mut self,
        words: &[u64],
        total_slots: u64,
        len: u64,
        records: impl IntoIterator<Item = T>,
        seed: u64,
    ) -> Result<Option<u64>, FileError> {
        if self.poisoned {
            return Err(FileError::Poisoned);
        }
        let bs = self.opts.block_size;
        let b = bs as u64;
        assert!(T::SIZE > 0 && T::SIZE <= T::MAX_SIZE, "record size invalid");
        assert!(T::SIZE <= bs, "record must fit in one block");
        let geo = Geometry::new(b, T::SIZE as u64, total_slots, len)?;
        assert_eq!(
            words.len() as u64,
            geo.bitmap_words(),
            "occupancy words must cover exactly total_slots bits"
        );
        let popcount: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
        if popcount != len {
            return Err(corrupt(0, "bitmap popcount and len disagree"));
        }

        let data_blocks = geo.data_blocks() as usize;

        self.ids.clear();
        self.ids.reserve(data_blocks);
        self.scratch_hashes.clear();
        self.scratch_hashes.resize(data_blocks, 0);
        self.block_buf.reserve(bs);
        self.payload.reserve(data_blocks * bs);
        self.ids_buf
            .reserve(((data_blocks as u64 * 8).div_ceil(b) * b) as usize);

        // Phase 1a: regenerate the payload (bitmap + record) blocks a group
        // at a time, directly behind the dirty images already staged in the
        // journal buffer; hash the group, keep its dirty blocks.
        let first = geo.payload_first() as usize;
        let record_first = geo.record_first() as usize;
        let mut staged = 0usize;
        let mut encoder = RecordEncoder::new(records.into_iter(), len);
        let mut block = first;
        while block < data_blocks {
            let n = GROUP_BLOCKS.min(data_blocks - block);
            let group = &mut self.payload.get_mut(staged + n * bs)[staged..];
            let bitmap_blocks = record_first.saturating_sub(block).min(n);
            let (bitmap, packed) = group.split_at_mut(bitmap_blocks * bs);
            fill_bitmap(bitmap, words, (block - first) * bs / 8);
            encoder.fill(packed)?;
            hash_blocks(group, bs, &mut self.scratch_hashes[block..block + n]);
            staged = self.keep_dirty(block, n, staged);
            block += n;
        }
        encoder.finish()?;

        // Phase 1b: the checksum region persists the very hashes the dirty
        // gate just computed, one word per payload block; the FNV over the
        // region's bytes becomes the header's checksum root.
        let region_blocks = geo.checksum_blocks as usize;
        let region = &mut self.payload.get_mut(staged + region_blocks * bs)[staged..];
        region.fill(0);
        for (k, &word) in self.scratch_hashes[first..].iter().enumerate() {
            encode_checksum_word(region, k, word);
        }
        let checksum_root = fnv1a(FNV_OFFSET, region);
        hash_blocks(region, bs, &mut self.scratch_hashes[1..first]);
        staged = self.keep_dirty(1, region_blocks, staged);

        let fingerprint = layout_fingerprint(words, total_slots);
        let prev = self.meta;
        let unchanged = StoreMeta {
            record_size: T::SIZE as u64,
            total_slots,
            len,
            seed,
            generation: prev.map_or(0, |m| m.generation),
            fingerprint,
            checksum_root,
        };
        if self.ids.is_empty() && prev == Some(unchanged) {
            return Ok(None);
        }
        let meta = StoreMeta {
            generation: unchanged.generation + 1,
            ..unchanged
        };
        {
            let buf = &mut self.payload.get_mut(staged + bs)[staged..];
            encode_header(buf, b, &meta);
            hash_blocks(buf, bs, &mut self.scratch_hashes[..1]);
            self.ids.push(0);
            staged += bs;
        }

        // Phase 2: ids, payload and header, then one sync. The header is
        // the commit point, and it needs no barrier of its own: a header
        // that lands without all of its payload fails the payload checksum,
        // and `open` discards the journal. Up to here nothing has been
        // written and a refusal costs nothing; from here until the journal
        // is retired an error leaves the files mid-protocol and the handle
        // poisoned.
        self.poisoned = true;
        let count = self.ids.len() as u64;
        let ids_blocks = (count * 8).div_ceil(b);
        let ids_area_len = (ids_blocks * b) as usize;
        {
            let area = self.ids_buf.get_mut(ids_area_len);
            area.fill(0);
            for (i, id) in self.ids.iter().enumerate() {
                area[i * 8..i * 8 + 8].copy_from_slice(&id.to_le_bytes());
            }
        }
        let payload_sum = journal_sum(
            self.ids_buf.get(ids_area_len),
            self.ids.iter().map(|&id| self.scratch_hashes[id as usize]),
        );
        self.journal
            .write_blocks(1, self.ids_buf.get(ids_area_len))?;
        self.journal
            .write_blocks(1 + ids_blocks, self.payload.get(staged))?;
        encode_journal_header(
            self.block_buf.get_mut(bs),
            b,
            count,
            geo.file_len(),
            payload_sum,
        );
        let jheader = self.block_buf.get(bs);
        self.journal.write_blocks(0, jheader)?;
        // The journal barrier. A shorter image cuts its journal here, and the
        // zeros over the cut are made durable by this same barrier.
        let journal_len = journal_blocks(geo.data_blocks(), b) * b;
        if journal_len < self.journal.len()? {
            self.journal.resize(journal_len, self.opts.sync)?;
        } else if self.opts.sync {
            self.journal.sync()?;
        }

        // Phase 3: apply in place, one transfer per run of consecutive ids
        // (a full image is three: payload, checksum region, header). The
        // length goes last — a longer image has grown the file by then (its
        // new tail is always dirty), a shorter one is cut here — so until a
        // block of the new image lands the file is still the old image,
        // byte for byte. A shorter image's tail is zeroed and synced before
        // the cut, and the cut is synced before the journal is retired: the
        // one commit that pays a third barrier is one that shrinks.
        write_runs(&mut self.data, &self.ids, self.payload.get(staged), bs)?;
        self.data.resize(geo.file_len(), self.opts.sync)?;
        if self.opts.sync {
            self.data.sync()?;
        }

        std::mem::swap(&mut self.block_hashes, &mut self.scratch_hashes);
        // Pre-size the swapped-out vector now, while we are still on the
        // "first commit may allocate" path: the next commit's resize then
        // finds capacity and steady-state flushes stay allocation-free.
        self.scratch_hashes.resize(data_blocks, 0);
        self.meta = Some(meta);
        Ok(Some(1 + ids_blocks + count))
    }

    /// Dirty gate for the `n` freshly generated blocks `first_id..` whose
    /// images sit at `payload[staged..]` and whose hashes are already in
    /// `scratch_hashes`: records the ids of those that differ from the
    /// block of that id in the committed image — or lie beyond it, or have
    /// no known hash — and slides their images down over the clean ones, so
    /// the journal buffer stays a dense run of dirty images. Returns the new
    /// staged length.
    fn keep_dirty(&mut self, first_id: usize, n: usize, staged: usize) -> usize {
        let bs = self.opts.block_size;
        let images = self.payload.get_mut(staged + n * bs);
        let mut kept = staged;
        for (i, id) in (first_id..first_id + n).enumerate() {
            if self.block_hashes.get(id) != Some(&self.scratch_hashes[id]) {
                self.ids.push(id as u64);
                let src = staged + i * bs;
                if src != kept {
                    images.copy_within(src..src + bs, kept);
                }
                kept += bs;
            }
        }
        kept
    }

    /// Reads the committed image back: the bitmap words and the records in
    /// rank order (the k-th record belongs to the k-th set bit). Verifies
    /// the whole integrity chain — header checksum, checksum root, every
    /// payload block's checksum — plus the fingerprint, the popcount, and
    /// that every padding byte of the image is zero (the anti-persistence
    /// invariant: the file holds the bitmap, the records and nothing else).
    /// Also primes the incremental-commit block hashes, so a commit
    /// following a load only writes changed blocks.
    pub fn load<T: Record>(&mut self) -> Result<(StoreMeta, Vec<u64>, Vec<T>), FileError> {
        let meta = self
            .meta
            .ok_or_else(|| corrupt(0, "store holds no committed image"))?;
        if meta.record_size != T::SIZE as u64 {
            return Err(corrupt(
                0,
                "store holds records of a different size than requested",
            ));
        }
        let bs = self.opts.block_size;
        let b = bs as u64;
        let geo = Geometry::of(b, &meta)?;
        let first = geo.payload_first() as usize;
        let mut hashes = vec![0u64; geo.data_blocks() as usize];

        let header = self.block_buf.get_mut(bs);
        self.data.read_blocks(0, header)?;
        hash_blocks(header, bs, &mut hashes[..1]);

        let mut region = vec![0u8; (geo.checksum_blocks * b) as usize];
        self.data.read_blocks(1, &mut region)?;
        if fnv1a(FNV_OFFSET, &region) != meta.checksum_root {
            return Err(corrupt(1, "checksum region does not match header root"));
        }
        hash_blocks(&region, bs, &mut hashes[1..first]);

        // Each payload block is hashed once: the word that verifies it
        // against the region is the word that primes the dirty gate.
        let record_first = geo.record_first() as usize;
        let mut bitmap_bytes = vec![0u8; (geo.bitmap_blocks * b) as usize];
        self.data.read_blocks(first as u64, &mut bitmap_bytes)?;
        hash_blocks(&bitmap_bytes, bs, &mut hashes[first..record_first]);
        if let Some(i) = (first..record_first).find(|&i| hashes[i] != get_u64(&region, i - first)) {
            return Err(corrupt(i as u64, "bitmap block checksum mismatch"));
        }
        let words: Vec<u64> = (0..geo.bitmap_words() as usize)
            .map(|w| get_u64(&bitmap_bytes, w))
            .collect();
        if bitmap_bytes[geo.bitmap_words() as usize * 8..]
            .iter()
            .any(|&x| x != 0)
        {
            return Err(corrupt(first as u64, "bitmap padding not zeroed"));
        }
        if meta.total_slots % 64 != 0
            && words
                .last()
                .is_some_and(|w| w >> (meta.total_slots % 64) != 0)
        {
            return Err(corrupt(
                first as u64,
                "bitmap bits beyond total_slots not zeroed",
            ));
        }
        let popcount: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
        if popcount != meta.len {
            return Err(corrupt(
                first as u64,
                "bitmap popcount and header len disagree",
            ));
        }
        if layout_fingerprint(&words, meta.total_slots) != meta.fingerprint {
            return Err(corrupt(first as u64, "layout fingerprint mismatch"));
        }

        let mut record_bytes = vec![0u8; (geo.record_blocks * b) as usize];
        self.data
            .read_blocks(record_first as u64, &mut record_bytes)?;
        hash_blocks(&record_bytes, bs, &mut hashes[record_first..]);
        if let Some(i) =
            (record_first..hashes.len()).find(|&i| hashes[i] != get_u64(&region, i - first))
        {
            return Err(corrupt(i as u64, "record block checksum mismatch"));
        }
        let (packed, padding) = record_bytes.split_at((meta.len * meta.record_size) as usize);
        if padding.iter().any(|&x| x != 0) {
            return Err(corrupt(
                hashes.len() as u64 - 1,
                "record-region padding not zeroed",
            ));
        }
        let records = packed.chunks_exact(T::SIZE).map(T::decode).collect();

        self.block_hashes = hashes;
        Ok((meta, words, records))
    }

    /// Sweeps the whole committed image, verifying every block against the
    /// integrity chain, and reports all blocks that fail — without decoding
    /// a single record, and without stopping at the first hit. A block that
    /// cannot be read at all also counts as corrupt. An uninitialized store
    /// scrubs clean trivially.
    pub fn scrub(&mut self) -> Result<ScrubReport, FileError> {
        let Some(meta) = self.meta else {
            return Ok(ScrubReport::default());
        };
        let bs = self.opts.block_size;
        let b = bs as u64;
        let geo = Geometry::of(b, &meta)?;
        let first = geo.payload_first();
        let mut report = ScrubReport {
            blocks_checked: geo.data_blocks(),
            corrupt: Vec::new(),
        };

        // Header: must read, decode, and agree with the metadata this
        // handle opened with.
        let header_ok = {
            let buf = self.block_buf.get_mut(bs);
            match self.data.read_blocks(0, buf) {
                Ok(()) => decode_header(buf, b).is_ok_and(|m| {
                    StoreMeta {
                        generation: meta.generation,
                        ..m
                    } == meta
                }),
                Err(_) => false,
            }
        };
        if !header_ok {
            report.corrupt.push(0);
        }

        // Checksum region: its running FNV must match the header's root.
        // A mismatch cannot be isolated below region granularity, so every
        // region block is reported (repair rewrites only what differs).
        let mut region = vec![0u8; (geo.checksum_blocks * b) as usize];
        let region_ok = match self.data.read_blocks(1, &mut region) {
            Ok(()) => fnv1a(FNV_OFFSET, &region) == meta.checksum_root,
            Err(_) => false,
        };
        if !region_ok {
            report.corrupt.extend(1..first);
        }

        // Payload blocks, each against its region word (best effort even
        // when the region itself is suspect), a group per read. A group that
        // cannot be read whole is re-read block by block, so exactly the
        // unreadable blocks are reported.
        let payload_blocks = geo.payload_blocks() as usize;
        let mut hashes = [0u64; GROUP_BLOCKS];
        for i in (0..payload_blocks).step_by(GROUP_BLOCKS) {
            let n = GROUP_BLOCKS.min(payload_blocks - i);
            let id = first + i as u64;
            let group = self.payload.get_mut(n * bs);
            let mut readable = [true; GROUP_BLOCKS];
            if self.data.read_blocks(id, group).is_err() {
                let blocks = (id..).zip(group.chunks_exact_mut(bs));
                for ((block, buf), ok) in blocks.zip(&mut readable) {
                    *ok = self.data.read_blocks(block, buf).is_ok();
                }
            }
            hash_blocks(group, bs, &mut hashes[..n]);
            for k in 0..n {
                if !readable[k] || hashes[k] != get_u64(&region, i + k) {
                    report.corrupt.push(id + k as u64);
                }
            }
        }
        Ok(report)
    }

    /// Like [`Self::scrub`], but strict: `Ok(())` only when every block of
    /// the image verifies, otherwise the first corrupt block as a typed
    /// error.
    pub fn verify_all(&mut self) -> Result<(), FileError> {
        let report = self.scrub()?;
        match report.corrupt.first() {
            None => Ok(()),
            Some(&block) => Err(corrupt(block, "scrub found a checksum mismatch")),
        }
    }

    /// Repairs this store from a replica holding the same committed
    /// contents: every block whose bytes differ from `source` is rewritten
    /// from it, and the result is re-verified. Returns the number of blocks
    /// rewritten.
    ///
    /// History independence is what makes this a byte-level repair: any
    /// replica that committed the same *(contents, seed)* — regardless of
    /// the operation history that produced it — holds a byte-identical
    /// image, so a clean peer is always a valid source.
    pub fn repair_from(&mut self, source: &mut BlockStore) -> Result<u64, FileError> {
        if self.opts.block_size != source.opts.block_size {
            return Err(corrupt(0, "repair source has a different block size"));
        }
        source.verify_all()?;
        let smeta = source
            .meta
            .ok_or_else(|| corrupt(0, "repair source holds no committed image"))?;
        let bs = self.opts.block_size;
        let b = bs as u64;
        let geo = Geometry::of(b, &smeta)?;
        // Retire the journal durably before the first data write: a commit
        // record whose retire a crash lost, replayed over repaired blocks,
        // would blend two images.
        self.settle_journal(journal_blocks(geo.data_blocks(), b))?;
        if self.opts.sync {
            self.journal.sync()?;
        }
        self.data.resize(geo.file_len(), self.opts.sync)?;
        let mut mine = vec![0u8; bs];
        let mut repaired = 0u64;
        for block in 0..geo.data_blocks() {
            let theirs = self.block_buf.get_mut(bs);
            source.data.read_blocks(block, theirs)?;
            // A block of ours that cannot be read at all is simply treated
            // as differing.
            let same = self
                .data
                .read_blocks(block, &mut mine)
                .is_ok_and(|()| mine == *theirs);
            if !same {
                self.data.write_blocks(block, theirs)?;
                repaired += 1;
            }
        }
        if self.opts.sync {
            self.data.sync()?;
        }
        self.meta = Some(StoreMeta {
            generation: self.meta.map_or(0, |m| m.generation),
            ..smeta
        });
        // Force the next commit to rewrite from scratch rather than trust
        // hashes from before the repair.
        self.block_hashes.clear();
        self.verify_all()?;
        self.poisoned = false;
        Ok(repaired)
    }

    /// The raw bytes of the data file and the journal file, for audits that
    /// scan persistent storage for traces of deleted records.
    pub fn raw_bytes(&self) -> Result<(Vec<u8>, Vec<u8>), FileError> {
        Ok((
            std::fs::read(self.data.path())?,
            std::fs::read(self.journal.path())?,
        ))
    }

    fn read_meta(&mut self) -> Result<(), FileError> {
        let bs = self.opts.block_size;
        let len = self.data.len()?;
        if len == 0 {
            self.meta = None;
            return Ok(());
        }
        if len < bs as u64 {
            // Truncated mid-header: typed, recoverable by repair, never a
            // panic.
            return Err(FileError::ShortRead {
                block: 0,
                wanted: bs,
            });
        }
        let buf = self.block_buf.get_mut(bs);
        self.data.read_blocks(0, buf)?;
        let meta = decode_header(buf, bs as u64)?;
        if len != Geometry::of(bs as u64, &meta)?.file_len() {
            return Err(corrupt(
                0,
                "data file length disagrees with header geometry",
            ));
        }
        self.meta = Some(meta);
        Ok(())
    }

    /// Applies the journal to the data file if it holds a whole committed
    /// commit (a crash after the commit point); does nothing to one that is
    /// torn, or left behind by a retire that a crash lost, which
    /// [`Self::settle_journal`] wipes. A journal left by the previous
    /// revision is judged by that revision's checksum rule: discarding a
    /// committed one as "torn" would strand a half-applied image. The
    /// journal is read through the staging buffers, which
    /// [`Self::settle_journal`] wipes too.
    fn replay_journal(&mut self) -> Result<(), FileError> {
        let bs = self.opts.block_size;
        let b = bs as u64;
        let jlen = self.journal.len()?;
        if jlen < b {
            return Ok(());
        }
        let (valid_header, legacy, count, target_len, payload_sum) = {
            let header = self.block_buf.get_mut(bs);
            self.journal.read_blocks(0, header)?;
            let sum = fnv1a(FNV_OFFSET, &header[..(JHEADER_FIELDS - 1) * 8]);
            let magic = get_u64(header, 0);
            let ok = (magic == JMAGIC || magic == JMAGIC_V1)
                && get_u64(header, 1) == b
                && get_u64(header, 2) == 0
                && get_u64(header, JHEADER_FIELDS - 1) == sum;
            (
                ok,
                magic == JMAGIC_V1,
                get_u64(header, 3),
                get_u64(header, 4),
                get_u64(header, 5),
            )
        };
        if !valid_header {
            return Ok(());
        }
        let ids_blocks = (count * 8).div_ceil(b);
        if jlen < (1 + ids_blocks + count) * b {
            return Ok(());
        }
        let ids_area_len = (ids_blocks * b) as usize;
        let payload_len = (count * b) as usize;
        self.journal
            .read_blocks(1, self.ids_buf.get_mut(ids_area_len))?;
        self.journal
            .read_blocks(1 + ids_blocks, self.payload.get_mut(payload_len))?;
        let (ids_area, payload) = (
            self.ids_buf.get(ids_area_len),
            self.payload.get(payload_len),
        );
        let sum = if legacy {
            fnv1a(fnv1a(FNV_OFFSET, ids_area), payload)
        } else {
            self.scratch_hashes.clear();
            self.scratch_hashes.resize(count as usize, 0);
            hash_blocks(payload, bs, &mut self.scratch_hashes);
            journal_sum(ids_area, self.scratch_hashes.iter().copied())
        };
        if sum != payload_sum {
            return Ok(());
        }
        self.ids.clear();
        self.ids
            .extend((0..count as usize).map(|i| get_u64(ids_area, i)));
        write_runs(&mut self.data, &self.ids, payload, bs)?;
        self.data.resize(target_len, self.opts.sync)?;
        if self.opts.sync {
            self.data.sync()?;
        }
        Ok(())
    }

    /// Leaves the journal as `target` blocks of zeros. Every block below
    /// `target` that holds a byte — of a torn or discarded journal, or of one
    /// whose retire a crash lost — is overwritten with zeros, and the blocks
    /// past it go through [`BlockFile::resize`]'s zero-then-cut, so no
    /// journal byte stays in the file or goes back to the filesystem. A
    /// clean journal of the right length costs reads only.
    fn settle_journal(&mut self, target: u64) -> Result<(), FileError> {
        let bs = self.opts.block_size;
        let b = bs as u64;
        // A torn last block is zeroed whole, so that every block reads whole.
        let blocks = self.journal.len()?.div_ceil(b);
        self.journal.resize(blocks * b, self.opts.sync)?;
        for at in (0..blocks.min(target)).step_by(GROUP_BLOCKS) {
            let n = (blocks.min(target) - at).min(GROUP_BLOCKS as u64) as usize;
            let group = self.payload.get_mut(n * bs);
            self.journal.read_blocks(at, group)?;
            if group.iter().any(|&x| x != 0) {
                group.fill(0);
                self.journal.write_blocks(at, self.payload.get(n * bs))?;
            }
        }
        self.payload.wipe();
        self.ids_buf.wipe();
        self.journal.resize(target * b, self.opts.sync)
    }
}

/// The journal length, in blocks, kept for an image of `data_blocks`
/// blocks: header, ids area and payload of a commit that rewrites every
/// block, the most any commit of that image writes. Zero for an empty data
/// file.
fn journal_blocks(data_blocks: u64, b: u64) -> u64 {
    match data_blocks {
        0 => 0,
        d => 1 + (d * 8).div_ceil(b) + d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{temp_path, Fault};

    const B: usize = 128;

    /// A loaded image: (bitmap words, records).
    type Image = (Vec<u64>, Vec<u64>);

    fn opts() -> StoreOptions {
        StoreOptions::new(B).no_sync()
    }

    /// A bitmap with the given slots set, packed into words.
    fn words_for(total_slots: u64, set: &[u64]) -> Vec<u64> {
        let mut words = vec![0u64; total_slots.div_ceil(64) as usize];
        for &s in set {
            assert!(s < total_slots);
            words[(s / 64) as usize] |= 1 << (s % 64);
        }
        words
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(journal_path_for(path));
    }

    /// The journal writes before the first data write of a commit that
    /// writes `data_writes` data blocks: ids, payload and header.
    fn journal_writes(data_writes: u64) -> u64 {
        1 + (data_writes * 8).div_ceil(B as u64) + data_writes
    }

    /// `true` when the journal beside the data file at `path` is at rest:
    /// J blocks of zeros for the data file's D blocks.
    fn journal_at_rest(path: &Path) -> bool {
        let data_blocks = std::fs::metadata(path).unwrap().len().div_ceil(B as u64);
        let journal = std::fs::read(journal_path_for(path)).unwrap();
        journal.len() as u64 == journal_blocks(data_blocks, B as u64) * B as u64
            && journal.iter().all(|&x| x == 0)
    }

    #[test]
    fn fresh_store_is_uninitialized() {
        let path = temp_path("store-fresh");
        let store = BlockStore::open(&path, opts()).unwrap();
        assert!(!store.is_initialized());
        assert!(store.meta().is_none());
        cleanup(&path);
    }

    #[test]
    fn open_tolerates_a_pre_created_zero_length_file() {
        let path = temp_path("store-zerolen");
        std::fs::write(&path, b"").unwrap();
        let store = BlockStore::open(&path, opts()).unwrap();
        assert!(!store.is_initialized());
        cleanup(&path);
    }

    #[test]
    fn open_rejects_a_file_truncated_mid_header() {
        let path = temp_path("store-midheader");
        std::fs::write(&path, vec![0xAAu8; B / 2]).unwrap();
        let err = BlockStore::open(&path, opts()).unwrap_err();
        assert!(matches!(err, FileError::ShortRead { block: 0, .. }));
        cleanup(&path);
    }

    #[test]
    fn open_rejects_a_mismatched_block_size_typed() {
        let path = temp_path("store-badbs");
        {
            let mut store = BlockStore::open(&path, opts()).unwrap();
            let words = words_for(64, &[0]);
            store.commit(&words, 64, 1, [7u64], 0).unwrap();
        }
        let err = BlockStore::open(&path, StoreOptions::new(256).no_sync()).unwrap_err();
        assert!(matches!(err, FileError::Corrupt { block: 0, .. }));
        cleanup(&path);

        // The refusal writes nothing, not even to a committed journal that
        // the store's own block size still replays.
        let (path, _, image_b) = torn_after_commit_point("store-badbs-journal", 5);
        let files = |path: &Path| (std::fs::read(path), std::fs::read(journal_path_for(path)));
        let before = files(&path);
        let err = BlockStore::open(&path, StoreOptions::new(256).no_sync()).unwrap_err();
        assert!(matches!(err, FileError::Corrupt { block: 0, .. }), "{err}");
        assert_eq!(files(&path).0.unwrap(), before.0.unwrap());
        assert_eq!(files(&path).1.unwrap(), before.1.unwrap());
        assert_eq!(reopen(&path), Some(image_b));
        cleanup(&path);
    }

    /// An intact header of another version — the version word rewritten and
    /// the header re-signed — is refused as that version: not as a bad
    /// magic, and long before a geometry or fingerprint check could blame
    /// something else.
    fn assert_version_refused_by_name(tag: &str, found: u64) {
        let path = temp_path(tag);
        {
            let mut store = BlockStore::open(&path, opts()).unwrap();
            let words = words_for(64, &[0]);
            store.commit(&words, 64, 1, [7u64], 0).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        put_u64(&mut bytes, 1, found);
        std::fs::write(&path, &bytes).unwrap();
        // The version field sits under the header checksum: changed alone,
        // it is rot.
        let err = BlockStore::open(&path, opts()).unwrap_err();
        assert!(matches!(err, FileError::Corrupt { block: 0, .. }), "{err}");
        let sum = fnv1a(FNV_OFFSET, &bytes[..(HEADER_FIELDS - 1) * 8]);
        put_u64(&mut bytes, HEADER_FIELDS - 1, sum);
        std::fs::write(&path, &bytes).unwrap();
        let err = BlockStore::open(&path, opts()).unwrap_err();
        assert!(
            matches!(err, FileError::UnsupportedVersion { found: f, supported: VERSION } if f == found),
            "{err}"
        );
        let text = err.to_string();
        assert!(
            text.contains(&format!("version {found} is not supported")),
            "{text}"
        );
        assert!(
            !text.contains("magic") && !text.contains("canonical"),
            "{text}"
        );
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::Unsupported);
        cleanup(&path);
    }

    #[test]
    fn open_refuses_a_version_2_file_by_name() {
        // Version 2 was version 3's bytes under another layout function.
        assert_version_refused_by_name("store-v2", 2);
    }

    #[test]
    fn open_refuses_a_version_3_file_by_name() {
        // Version 3 had this header and a slot region where the record
        // region is: read as version 4 it would fail the length check and
        // be called corrupt, which it is not.
        assert_version_refused_by_name("store-v3", 3);
    }

    #[test]
    fn commit_load_roundtrip() {
        let path = temp_path("store-roundtrip");
        let slots: Vec<u64> = vec![3, 7, 64, 65, 200];
        let words = words_for(256, &slots);
        let records: Vec<u64> = vec![30, 70, 640, 650, 2000];
        {
            let mut store = BlockStore::open(&path, opts()).unwrap();
            let generation = store
                .commit(&words, 256, 5, records.iter().copied(), 0xC0FFEE)
                .unwrap();
            assert_eq!(generation, 1);
        }
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let (meta, back_words, back_records) = store.load::<u64>().unwrap();
        assert_eq!(meta.seed, 0xC0FFEE);
        assert_eq!(meta.len, 5);
        assert_eq!(meta.total_slots, 256);
        assert_eq!(back_words, words);
        assert_eq!(back_records, records);
        assert_eq!(meta.fingerprint, layout_fingerprint(&words, 256));
        cleanup(&path);
    }

    /// The persisted headers carry no commit history. Image A committed
    /// once and A committed again after three other images give the same
    /// data header, whose fields are exactly what `encode_header` writes
    /// with reserved field 7 zero; the journal header of a next commit, torn
    /// just after it lands, has reserved field 2 zero and the same bytes.
    #[test]
    fn header_fields_hold_no_commit_history() {
        let total = 512u64;
        let commit = |store: &mut BlockStore, step: usize| {
            let set: Vec<u64> = (0..total).step_by(step).collect();
            let words = words_for(total, &set);
            store.commit(&words, total, set.len() as u64, set.iter().copied(), 5)
        };
        // A (step 4) once, or A, `others` other images and A again.
        let history = |others: usize| {
            let path = temp_path("store-history");
            let mut store = BlockStore::open(&path, opts()).unwrap();
            for step in [4].into_iter().chain(5..5 + others) {
                commit(&mut store, step).unwrap();
            }
            if others > 0 {
                commit(&mut store, 4).unwrap();
            }
            (store, path)
        };
        // The next commit's first data write, from a dry run: its header is
        // the last of the journal writes before it.
        let (mut dry, dry_path) = history(0);
        let before = dry.stats().data.blocks_written;
        commit(&mut dry, 3).unwrap();
        let commit_point = journal_writes(dry.stats().data.blocks_written - before);
        cleanup(&dry_path);

        let mut headers = Vec::new();
        for others in [0, 3] {
            let (mut store, path) = history(others);
            let meta = store.meta().unwrap();
            assert_eq!(meta.generation, if others == 0 { 1 } else { 5 });
            let data = std::fs::read(&path).unwrap()[..B].to_vec();
            let fields: Vec<u64> = (0..HEADER_FIELDS).map(|f| get_u64(&data, f)).collect();
            let sum = fnv1a(FNV_OFFSET, &data[..(HEADER_FIELDS - 1) * 8]);
            let (fp, root, n) = (meta.fingerprint, meta.checksum_root, total / 4);
            let want = [MAGIC, VERSION, B as u64, 8, total, n, 5, 0, fp, root, sum];
            assert_eq!(fields, want);

            store.set_fault_plan(FaultPlan::new([Fault::TornWrite { at: commit_point }]));
            assert!(commit(&mut store, 3).is_err());
            let journal = std::fs::read(journal_path_for(&path)).unwrap()[..B].to_vec();
            assert_eq!(get_u64(&journal, 0), JMAGIC);
            assert_eq!(get_u64(&journal, 2), 0);
            headers.push((data, journal));
            cleanup(&path);
        }
        assert_eq!(headers[0], headers[1], "headers after 1 and 5 commits");
    }

    #[test]
    fn records_straddle_block_boundaries() {
        // 16-byte records with a 128-byte block: 8 per block, and an
        // occupancy pattern that exercises carry across every boundary.
        let path = temp_path("store-straddle");
        let total = 100u64;
        let set: Vec<u64> = (0..total).filter(|s| s % 3 != 1).collect();
        let words = words_for(total, &set);
        let records: Vec<(u64, u64)> = set.iter().map(|&s| (s, s * s + 1)).collect();
        let mut store = BlockStore::open(&path, opts()).unwrap();
        store
            .commit(&words, total, set.len() as u64, records.iter().copied(), 9)
            .unwrap();
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let (_, _, back) = store.load::<(u64, u64)>().unwrap();
        assert_eq!(back, records);
        cleanup(&path);
    }

    /// 24 bytes: divides none of the block sizes in use, so records straddle
    /// block — and staging-group — boundaries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Triple([u64; 3]);

    impl Record for Triple {
        const SIZE: usize = 24;

        fn encode(&self, out: &mut [u8]) {
            for (w, chunk) in self.0.iter().zip(out.chunks_exact_mut(8)) {
                chunk.copy_from_slice(&w.to_le_bytes());
            }
        }

        fn decode(buf: &[u8]) -> Self {
            Triple(std::array::from_fn(|i| get_u64(buf, i)))
        }
    }

    /// The whole data file of one image, encoded the slow, straight-line
    /// way: every region built in full, padded, and concatenated.
    fn reference_file<T: Record>(
        words: &[u64],
        total_slots: u64,
        records: &[T],
        seed: u64,
    ) -> Vec<u8> {
        let pad = |mut bytes: Vec<u8>| {
            bytes.resize(bytes.len().div_ceil(B) * B, 0);
            bytes
        };
        let mut packed = vec![0u8; records.len() * T::SIZE];
        for (rec, out) in records.iter().zip(packed.chunks_exact_mut(T::SIZE)) {
            rec.encode(out);
        }
        let bitmap = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let payload = [pad(bitmap), pad(packed)].concat();
        let sums = payload.chunks(B).map(|block| fnv1a(FNV_OFFSET, block));
        let region = pad(sums.flat_map(u64::to_le_bytes).collect());
        let mut header = vec![0u8; B];
        let meta = StoreMeta {
            record_size: T::SIZE as u64,
            total_slots,
            len: records.len() as u64,
            seed,
            generation: 0,
            fingerprint: layout_fingerprint(words, total_slots),
            checksum_root: fnv1a(FNV_OFFSET, &region),
        };
        encode_header(&mut header, B as u64, &meta);
        [header, region, payload].concat()
    }

    #[test]
    fn records_that_do_not_divide_the_block_match_the_reference_encoding() {
        // 900 records of 24 bytes over 128-byte blocks: 169 record blocks
        // behind 2 bitmap blocks, so the encoder crosses ten group
        // boundaries, none of them on a record boundary.
        let path = temp_path("store-triple");
        let total = 1200u64;
        let set: Vec<u64> = (0..total).filter(|s| s % 4 != 2).collect();
        let words = words_for(total, &set);
        let records: Vec<Triple> = set.iter().map(|&s| Triple([s, !s, s * s + 1])).collect();
        assert!(records.len() * Triple::SIZE > 10 * GROUP_BLOCKS * B);
        let mut store = BlockStore::open(&path, opts()).unwrap();
        store
            .commit(&words, total, set.len() as u64, records.iter().copied(), 11)
            .unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_file(&words, total, &records, 11)
        );
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let (_, back_words, back) = store.load::<Triple>().unwrap();
        assert_eq!(back_words, words);
        assert_eq!(back, records);
        assert!(store.scrub().unwrap().is_clean());

        // A one-record image ends inside its first block; an empty one has
        // no record region at all.
        for n in [1usize, 0] {
            let words = words_for(total, &set[..n]);
            store
                .commit(&words, total, n as u64, records[..n].iter().copied(), 11)
                .unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                reference_file(&words, total, &records[..n], 11)
            );
            assert_eq!(store.load::<Triple>().unwrap().2, records[..n]);
        }
        cleanup(&path);
    }

    #[test]
    fn a_refused_commit_writes_nothing_and_does_not_poison() {
        // Short iterator, long iterator, popcount != len: each is refused
        // while staging, on a fresh store and over a committed image alike.
        let path = temp_path("store-refused");
        let words = words_for(64, &[1, 2, 3]);
        let mut store = BlockStore::open(&path, opts()).unwrap();
        for round in 0..2 {
            let before = store.raw_bytes().unwrap();
            for (len, records) in [(3, vec![1u64, 2]), (3, vec![1, 2, 3, 4]), (2, vec![1, 2])] {
                let err = store.commit(&words, 64, len, records, 0).unwrap_err();
                assert!(matches!(err, FileError::Corrupt { block: 0, .. }), "{err}");
                assert!(!store.is_poisoned());
                assert_eq!(store.raw_bytes().unwrap(), before);
            }
            let generation = store.commit(&words, 64, 3, [1u64, 2, 3 + round], 0);
            assert_eq!(generation.unwrap(), round + 1);
        }
        cleanup(&path);
    }

    #[test]
    fn open_refuses_header_sizes_that_overflow_the_geometry() {
        // `len · record_size` wraps for the first value; for the second it
        // fits and the file length built on it does not.
        for (tag, len) in [
            ("store-len-mul", u64::MAX / 2),
            ("store-len-file", u64::MAX / 8),
        ] {
            let path = temp_path(tag);
            {
                let mut store = BlockStore::open(&path, opts()).unwrap();
                store
                    .commit(&words_for(64, &[0]), 64, 1, [7u64], 0)
                    .unwrap();
            }
            let mut bytes = std::fs::read(&path).unwrap();
            put_u64(&mut bytes, 5, len);
            let sum = fnv1a(FNV_OFFSET, &bytes[..(HEADER_FIELDS - 1) * 8]);
            put_u64(&mut bytes, HEADER_FIELDS - 1, sum);
            std::fs::write(&path, &bytes).unwrap();
            let err = BlockStore::open(&path, opts()).unwrap_err();
            assert!(matches!(err, FileError::Corrupt { block: 0, .. }), "{err}");
            assert!(err.to_string().contains("overflows"), "{err}");
            cleanup(&path);
        }
    }

    #[test]
    fn incremental_commit_writes_only_changed_blocks() {
        let path = temp_path("store-incremental");
        let total = 2048u64;
        let set: Vec<u64> = (0..total).step_by(2).collect();
        let words = words_for(total, &set);
        let records: Vec<u64> = set.iter().map(|&s| s + 1).collect();
        let mut store = BlockStore::open(&path, opts()).unwrap();
        store
            .commit(&words, total, set.len() as u64, records.iter().copied(), 1)
            .unwrap();
        let full_writes = store.stats().blocks_written();

        // Change one record's value: one slot block, its checksum-region
        // block, and the header differ (three data writes), journaled as
        // ids + three payload blocks + the journal header, plus the five
        // zero blocks that retire those — thirteen block writes instead of
        // a full image.
        let mut records2 = records.clone();
        records2[10] = 999_999;
        store
            .commit(&words, total, set.len() as u64, records2.iter().copied(), 1)
            .unwrap();
        let delta = store.stats().blocks_written() - full_writes;
        assert!(
            delta <= 13,
            "one-record change should touch a handful of blocks, wrote {delta}"
        );
        let gen = store.meta().unwrap().generation;
        assert_eq!(gen, 2);

        // Identical contents: a no-op, zero writes, same generation.
        store
            .commit(&words, total, set.len() as u64, records2.iter().copied(), 1)
            .unwrap();
        assert_eq!(store.stats().blocks_written() - full_writes, delta);
        assert_eq!(store.meta().unwrap().generation, 2);
        cleanup(&path);
    }

    #[test]
    fn load_primes_incremental_hashes() {
        let path = temp_path("store-load-primes");
        let total = 1024u64;
        let set: Vec<u64> = (0..total).step_by(3).collect();
        let words = words_for(total, &set);
        let records: Vec<u64> = set.iter().map(|&s| s * 7).collect();
        {
            let mut store = BlockStore::open(&path, opts()).unwrap();
            store
                .commit(&words, total, set.len() as u64, records.iter().copied(), 5)
                .unwrap();
        }
        let mut store = BlockStore::open(&path, opts()).unwrap();
        store.load::<u64>().unwrap();
        let before = store.stats().blocks_written();
        store
            .commit(&words, total, set.len() as u64, records.iter().copied(), 5)
            .unwrap();
        assert_eq!(
            store.stats().blocks_written(),
            before,
            "re-committing the loaded image must be a no-op"
        );
        cleanup(&path);
    }

    #[test]
    fn crash_before_commit_point_rolls_back() {
        let path = temp_path("store-rollback");
        let total = 512u64;
        let set1: Vec<u64> = (0..total).step_by(4).collect();
        let words1 = words_for(total, &set1);
        let mut store = BlockStore::open(&path, opts()).unwrap();
        store
            .commit(&words1, total, set1.len() as u64, set1.iter().copied(), 2)
            .unwrap();

        // Kill after one journal block: the header never lands, so the
        // journal is torn and the old image must survive.
        store.set_fault_plan(FaultPlan::new([Fault::TornWrite { at: 1 }]));
        let set2: Vec<u64> = (0..total).step_by(2).collect();
        let words2 = words_for(total, &set2);
        let recs2: Vec<u64> = set2.iter().map(|&s| s + 1).collect();
        let err = store
            .commit(&words2, total, set2.len() as u64, recs2.iter().copied(), 2)
            .unwrap_err();
        assert!(err.to_string().contains("injected crash"));
        assert!(store.is_poisoned());
        drop(store);

        let mut store = BlockStore::open(&path, opts()).unwrap();
        let (_meta, words, recs) = store.load::<u64>().unwrap();
        assert_eq!(words, words1);
        assert_eq!(recs, set1);
        assert!(journal_at_rest(&path));
        cleanup(&path);
    }

    #[test]
    fn crash_after_commit_point_replays_forward() {
        // The whole journal plus one data block, then the kill: the commit
        // point has passed, so recovery must complete the flush.
        let (path, _, image_b) = torn_after_commit_point("store-replay", 1);
        assert_eq!(reopen(&path), Some(image_b));
        cleanup(&path);
    }

    #[test]
    fn hash_blocks_equals_scalar_fnv_for_every_lane_tail() {
        // Block counts 0..=9 cover two full kernel rounds plus every tail
        // length, at each block size in use.
        for bs in [128usize, 512, 4096] {
            for count in 0..=9usize {
                let buf: Vec<u8> = (0..count * bs)
                    .map(|i| (i as u64).wrapping_mul(0x9e37_79b9).to_le_bytes()[1])
                    .collect();
                let mut got = vec![0u64; count];
                hash_blocks(&buf, bs, &mut got);
                let want: Vec<u64> = buf.chunks(bs).map(|c| fnv1a(FNV_OFFSET, c)).collect();
                assert_eq!(got, want, "block size {bs}, {count} blocks");
            }
        }
    }

    #[test]
    fn run_writes_and_per_block_writes_are_indistinguishable() {
        // An armed plan with nothing in it forces every transfer down the
        // per-block path; no plan takes the run path. Same commits, loads
        // and scrubs: same bytes on disk, same transfer counts.
        let drive = |tag: &str, plan: Option<FaultPlan>| {
            let path = temp_path(tag);
            let mut store = BlockStore::open(&path, opts()).unwrap();
            if let Some(plan) = plan {
                store.set_fault_plan(plan);
            }
            // Full image; a sparse change; a change of geometry; and back.
            for (total, step, bump) in [(2048u64, 2, 0u64), (2048, 2, 1), (4096, 3, 0), (512, 1, 0)]
            {
                let set: Vec<u64> = (0..total).step_by(step).collect();
                let mut recs: Vec<u64> = set.iter().map(|&s| s * 3 + 1).collect();
                recs[7] += bump;
                store
                    .commit(&words_for(total, &set), total, set.len() as u64, recs, 6)
                    .unwrap();
            }
            store.load::<u64>().unwrap();
            assert!(store.scrub().unwrap().is_clean());
            let (stats, raw) = (store.stats(), store.raw_bytes().unwrap());
            cleanup(&path);
            (stats, raw)
        };
        let per_block = drive("store-perblock", Some(FaultPlan::new([])));
        let runs = drive("store-runs", None);
        assert_eq!(
            per_block.0, runs.0,
            "transfer counts must not depend on the path"
        );
        assert_eq!(
            per_block.1, runs.1,
            "bytes on disk must not depend on the path"
        );
    }

    /// Commits image A, then tears the commit of image B `data_writes` data
    /// blocks after its commit point: what is left on disk is B's complete,
    /// valid journal beside a data file holding that many blocks of B over
    /// A. Returns the path and the two images.
    fn torn_after_commit_point(tag: &str, data_writes: u64) -> (PathBuf, Image, Image) {
        let total = 2048u64;
        let set_a: Vec<u64> = (0..total).step_by(4).collect();
        let set_b: Vec<u64> = (0..total).step_by(2).collect();
        let (words_a, words_b) = (words_for(total, &set_a), words_for(total, &set_b));
        let recs_b: Vec<u64> = set_b.iter().map(|&s| s + 1).collect();
        // `tear_at`: B's commit dies at that write. Returns the data blocks
        // B's commit wrote.
        let a_then_b = |path: &Path, tear_at: Option<u64>| {
            let mut store = BlockStore::open(path, opts()).unwrap();
            let len_a = set_a.len() as u64;
            store
                .commit(&words_a, total, len_a, set_a.iter().copied(), 2)
                .unwrap();
            let before = store.stats().data.blocks_written;
            if let Some(at) = tear_at {
                store.set_fault_plan(FaultPlan::new([Fault::TornWrite { at }]));
            }
            let len_b = recs_b.len() as u64;
            let result = store.commit(&words_b, total, len_b, recs_b.iter().copied(), 2);
            assert_eq!(result.is_err(), tear_at.is_some());
            store.stats().data.blocks_written - before
        };
        // B holds twice A's records, so its journal is longer than A's was:
        // the commit point is learnt from a dry run of B itself.
        let dry = temp_path(tag);
        let to_commit_point = journal_writes(a_then_b(&dry, None));
        cleanup(&dry);
        let path = temp_path(tag);
        a_then_b(&path, Some(to_commit_point + data_writes));
        (path, (words_a, set_a), (words_b, recs_b))
    }

    /// `Some(image)` when the store opens and loads, `None` on a typed
    /// corruption error from either step (a half-applied image of another
    /// length already fails `open`'s geometry check); anything else fails
    /// the test.
    fn reopen(path: &Path) -> Option<Image> {
        match BlockStore::open(path, opts()).and_then(|mut store| store.load::<u64>()) {
            Ok((_, words, recs)) => Some((words, recs)),
            Err(FileError::Corrupt { .. }) => None,
            Err(other) => panic!("expected an image or a typed corruption, got {other}"),
        }
    }

    #[test]
    fn a_committed_v1_journal_is_replayed_by_the_v1_rule() {
        // A crashed older build left a committed journal (magic APBSJRN1,
        // payload sum over the staged bytes) beside a half-applied data
        // file. Clearing it as "torn" would strand the blend; it replays.
        let (path, _, image_b) = torn_after_commit_point("store-v1-journal", 5);
        let jpath = journal_path_for(&path);
        let mut journal = std::fs::read(&jpath).unwrap();
        assert_eq!(get_u64(&journal, 0), JMAGIC);
        let legacy_sum = fnv1a(FNV_OFFSET, &journal[B..]);
        put_u64(&mut journal, 0, JMAGIC_V1);
        put_u64(&mut journal, 5, legacy_sum);
        let header_sum = fnv1a(FNV_OFFSET, &journal[..(JHEADER_FIELDS - 1) * 8]);
        put_u64(&mut journal, JHEADER_FIELDS - 1, header_sum);
        std::fs::write(&jpath, &journal).unwrap();

        assert_eq!(reopen(&path), Some(image_b), "whole new image");
        assert!(journal_at_rest(&path));
        cleanup(&path);
    }

    #[test]
    fn the_folded_journal_sum_covers_ids_and_every_payload_block() {
        // The v2 sum never walks the payload bytes directly — it folds the
        // per-block hashes — so show that a flip anywhere still voids the
        // journal: in the ids area and in the first, a middle and the last
        // payload block.
        for data_writes in [0u64, 5] {
            let (path, image_a, image_b) = torn_after_commit_point("store-jflip", data_writes);
            let jpath = journal_path_for(&path);
            let data = std::fs::read(&path).unwrap();
            let journal = std::fs::read(&jpath).unwrap();
            let count = get_u64(&journal, 3) as usize;
            let payload_at = B + (count * 8).div_ceil(B) * B;
            assert_eq!(journal.len(), payload_at + count * B);

            // Untouched, the journal replays to the whole new image.
            assert_eq!(reopen(&path), Some(image_b.clone()));

            let last = payload_at + (count - 1) * B;
            for flip in [
                B,
                payload_at + 9,
                payload_at + (count / 2) * B + 77,
                last + B - 1,
            ] {
                let mut bad = journal.clone();
                bad[flip] ^= 0x20;
                std::fs::write(&path, &data).unwrap();
                std::fs::write(&jpath, &bad).unwrap();
                let outcome = reopen(&path);
                assert!(journal_at_rest(&path), "flip at {flip}: journal discarded");
                if data_writes == 0 {
                    // Nothing was applied yet: the old image is intact.
                    assert_eq!(outcome, Some(image_a.clone()), "flip at {flip}");
                } else {
                    // Blocks of B already sit over A and their redo copy is
                    // void: the only honest answer is a typed corruption —
                    // never an image that is neither A nor B.
                    assert_eq!(outcome, None, "flip at {flip}: a blend loaded");
                }
            }
            cleanup(&path);
        }
    }

    #[test]
    fn committed_image_carries_no_commit_counter() {
        // Committing A, then B, then A again must leave the file
        // byte-identical to the first commit of A: if any counter of past
        // flushes reached the platter, the images would differ.
        let total = 256u64;
        let set_a: Vec<u64> = (0..total).step_by(4).collect();
        let set_b: Vec<u64> = (0..total).step_by(2).collect();
        let commit = |store: &mut BlockStore, set: &[u64]| {
            let words = words_for(total, set);
            store
                .commit(&words, total, set.len() as u64, set.iter().copied(), 9)
                .unwrap();
        };

        let path = temp_path("store-nogen");
        let mut store = BlockStore::open(&path, opts()).unwrap();
        commit(&mut store, &set_a);
        let (first, _) = store.raw_bytes().unwrap();
        commit(&mut store, &set_b);
        commit(&mut store, &set_a);
        let (third, _) = store.raw_bytes().unwrap();
        assert_eq!(first, third, "image must be a pure function of contents");
        cleanup(&path);
    }

    #[test]
    fn geometry_shrink_truncates_the_file() {
        let path = temp_path("store-shrink");
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let total1 = 4096u64;
        let set1: Vec<u64> = (0..total1).collect();
        store
            .commit(
                &words_for(total1, &set1),
                total1,
                total1,
                set1.iter().copied(),
                3,
            )
            .unwrap();
        let len_before = store.data.len().unwrap();
        let total2 = 64u64;
        let set2: Vec<u64> = (0..total2).collect();
        store
            .commit(
                &words_for(total2, &set2),
                total2,
                total2,
                set2.iter().copied(),
                3,
            )
            .unwrap();
        let len_after = store.data.len().unwrap();
        assert!(len_after < len_before);
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let (_, _, recs) = store.load::<u64>().unwrap();
        assert_eq!(recs, set2);
        cleanup(&path);
    }

    #[test]
    fn a_change_of_len_moves_the_file_length_and_stays_atomic() {
        // Sixteen-byte records, eight to a block, in one fixed slot array:
        // 200 records → 40 cuts twenty record blocks off the file, 40 → 200
        // puts them back. Each commit is then torn at every one of its
        // writes in turn.
        let total = 1024u64;
        let image = |n: u64| {
            let set: Vec<u64> = (0..n).map(|i| i * 5).collect();
            let recs: Vec<(u64, u64)> = set.iter().map(|&s| (s, s ^ n)).collect();
            (words_for(total, &set), recs)
        };
        let file_len = |n: u64| Geometry::new(B as u64, 16, total, n).unwrap().file_len();
        assert!(file_len(200) - file_len(40) >= 20 * B as u64);
        let commit = |store: &mut BlockStore, (words, recs): &(Vec<u64>, Vec<(u64, u64)>)| {
            store.commit(words, total, recs.len() as u64, recs.iter().copied(), 3)
        };
        for (from, to) in [(200u64, 40u64), (40, 200)] {
            let (old, new) = (image(from), image(to));
            let path = temp_path("store-relen");
            let mut store = BlockStore::open(&path, opts()).unwrap();
            commit(&mut store, &old).unwrap();
            assert_eq!(store.data.len().unwrap(), file_len(from));
            let before = store.stats().blocks_written();
            commit(&mut store, &new).unwrap();
            let writes = store.stats().blocks_written() - before;
            assert_eq!(store.data.len().unwrap(), file_len(to));
            assert!(store.scrub().unwrap().is_clean());
            cleanup(&path);

            let (mut rollbacks, mut replays) = (0, 0);
            for at in 0..writes {
                let path = temp_path("store-relen-torn");
                let mut store = BlockStore::open(&path, opts()).unwrap();
                commit(&mut store, &old).unwrap();
                store.set_fault_plan(FaultPlan::new([Fault::TornWrite { at }]));
                commit(&mut store, &new).unwrap_err();
                drop(store);

                let mut store = BlockStore::open(&path, opts()).unwrap();
                let (meta, words, recs) = store.load::<(u64, u64)>().unwrap();
                if (&words, &recs) == (&old.0, &old.1) {
                    rollbacks += 1;
                } else {
                    assert_eq!((&words, &recs), (&new.0, &new.1), "{from}→{to}, kill {at}");
                    replays += 1;
                }
                assert_eq!(store.data.len().unwrap(), file_len(meta.len));
                assert!(store.scrub().unwrap().is_clean());
                assert!(journal_at_rest(&path));
                cleanup(&path);
            }
            assert!(rollbacks > 0 && replays > 0, "{from}→{to}");
        }
    }

    #[test]
    fn device_transfers_equal_the_dam_prediction_and_the_tracer_ledger() {
        // The DAM cost model against the device: a full commit writes each
        // block of the image to the data file exactly once (the DAM
        // prediction, `file_len / B`), and a tracer attached to the store is
        // charged exactly the physical transfers, data and journal together.
        const BS: usize = 4096;
        let path = temp_path("store-dam");
        let (len, total) = (200_000u64, 800_000u64);
        let set: Vec<u64> = (0..len).map(|i| i * 4).collect();
        let words = words_for(total, &set);
        let records = |salt: u64| set.iter().map(move |&s| (s, s ^ salt));
        let opts = StoreOptions::new(BS).no_sync();
        let ledger = || Tracer::enabled(io_sim::IoConfig::new(BS, 64));

        let mut store = BlockStore::open(&path, opts).unwrap();
        let tracer = ledger();
        store.set_tracer(tracer.clone());
        store.commit(&words, total, len, records(1), 8).unwrap();
        let file_len = store.data.len().unwrap();
        let image_blocks = file_len / BS as u64;
        let full = store.stats();
        assert_eq!(full.data.blocks_written, image_blocks);
        assert_eq!(tracer.stats().writes, full.blocks_written());

        // What the vacant slots cost at rest: one bit each. Four slots to a
        // sixteen-byte record is 3% for the bitmap; the header, the checksum
        // region and block rounding fit in the other 2%.
        assert!(file_len * 100 <= len * 16 * 105, "{file_len} bytes");

        // Steady state: every record changes, the occupancy does not, so
        // every block but the bitmap's is rewritten.
        let geo = Geometry::new(BS as u64, 16, total, len).unwrap();
        store.commit(&words, total, len, records(2), 8).unwrap();
        let steady = store.stats();
        assert_eq!(
            steady.data.blocks_written - full.data.blocks_written,
            image_blocks - geo.bitmap_blocks
        );
        assert_eq!(tracer.stats().writes, steady.blocks_written());
        assert_eq!(tracer.stats().reads, 0);
        drop(store);

        // Reopen: `open` reads the header, and the journal's header and then
        // all of it to check it is zeros; `load` reads the image once.
        let mut store = BlockStore::open(&path, opts).unwrap();
        let tracer = ledger();
        store.set_tracer(tracer.clone());
        store.load::<(u64, u64)>().unwrap();
        assert_eq!(tracer.stats().reads, image_blocks);
        assert_eq!(store.stats().data.blocks_read, 1 + image_blocks);
        let journal_len = journal_blocks(image_blocks, BS as u64);
        assert_eq!(store.stats().journal.blocks_read, 1 + journal_len);
        assert_eq!(store.stats().blocks_written(), 0);
        cleanup(&path);
    }

    #[test]
    fn load_rejects_wrong_record_size_typed() {
        let path = temp_path("store-recsize");
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let words = words_for(64, &[0]);
        store.commit(&words, 64, 1, [7u64], 0).unwrap();
        let err = store.load::<(u64, u64)>().unwrap_err();
        assert!(matches!(err, FileError::Corrupt { block: 0, .. }));
        cleanup(&path);
    }

    /// At rest the journal is J zero blocks for the image's D blocks — after
    /// a commit, after a reopen, and after a history that grew the image and
    /// shrank it again, byte for byte the journal of the direct history.
    #[test]
    fn journal_is_zero_at_rest() {
        let commit = |store: &mut BlockStore, n: u64| {
            let set: Vec<u64> = (0..n).collect();
            let words = words_for(1024, &set);
            store
                .commit(&words, 1024, n, set.iter().copied(), 0)
                .unwrap();
        };
        let direct = temp_path("store-jzero-direct");
        let mut store = BlockStore::open(&direct, opts()).unwrap();
        commit(&mut store, 3);
        assert!(journal_at_rest(&direct));
        let data_blocks = store.data.len().unwrap() / B as u64;
        assert_eq!(
            store.journal.len().unwrap(),
            (1 + (data_blocks * 8).div_ceil(B as u64) + data_blocks) * B as u64
        );
        drop(store);
        BlockStore::open(&direct, opts()).unwrap();
        assert!(journal_at_rest(&direct));

        let grown = temp_path("store-jzero-grown");
        let mut store = BlockStore::open(&grown, opts()).unwrap();
        commit(&mut store, 3);
        commit(&mut store, 1000);
        assert!(journal_at_rest(&grown));
        commit(&mut store, 3);
        assert!(journal_at_rest(&grown));
        let (data, journal) = store.raw_bytes().unwrap();
        assert_eq!(
            (data, journal),
            BlockStore::open(&direct, opts())
                .unwrap()
                .raw_bytes()
                .unwrap()
        );
        cleanup(&direct);
        cleanup(&grown);
    }

    /// The commit's two barriers, pinned: a steady-state commit with sync on
    /// syncs the journal once and the data file once and moves neither
    /// file's length; `open` of a clean store syncs and writes nothing.
    #[test]
    fn a_steady_state_commit_pays_two_barriers_and_moves_no_length() {
        let path = temp_path("store-barriers");
        let commit = |store: &mut BlockStore, salt: u64| {
            let set: Vec<u64> = (0..512).step_by(2).collect();
            let words = words_for(512, &set);
            let recs = set.iter().map(|&s| s ^ salt);
            store
                .commit(&words, 512, set.len() as u64, recs, 0)
                .unwrap();
        };
        let lengths =
            |store: &BlockStore| (store.data.len().unwrap(), store.journal.len().unwrap());
        let mut store = BlockStore::open(&path, StoreOptions::new(B)).unwrap();
        commit(&mut store, 1);
        let (before, lens) = (store.stats(), lengths(&store));
        commit(&mut store, 2);
        let after = store.stats();
        assert_eq!(after.journal.syncs - before.journal.syncs, 1);
        assert_eq!(after.data.syncs - before.data.syncs, 1);
        assert_eq!(lengths(&store), lens);
        drop(store);

        let store = BlockStore::open(&path, StoreOptions::new(B)).unwrap();
        let stats = store.stats();
        assert_eq!((stats.data.syncs, stats.journal.syncs), (0, 0));
        assert_eq!(stats.blocks_written(), 0);
        assert_eq!(lengths(&store), lens);
        cleanup(&path);
    }

    /// A shrinking commit, pinned: three barriers (the journal once, the
    /// data file twice), and the data file's cut tail written with zeros
    /// that a sync makes durable before the cut, which the last sync makes
    /// durable in turn. The journal is cut behind its own barrier, over
    /// zeros written before it.
    #[test]
    fn a_shrinking_commit_pays_three_barriers_and_cuts_only_zeros() {
        use crate::crash::{Op, Recording};
        let path = temp_path("store-shrink-barriers");
        let commit = |store: &mut BlockStore, n: u64| {
            let set: Vec<u64> = (0..n).collect();
            let words = words_for(512, &set);
            store
                .commit(&words, 512, n, set.iter().map(|&s| s ^ 0xD1E), 0)
                .unwrap();
        };
        let mut store = BlockStore::open(&path, StoreOptions::new(B)).unwrap();
        commit(&mut store, 400);
        let (before, data_len) = (store.stats(), store.data.len().unwrap());
        let journal_len = store.journal.len().unwrap();
        let recording = Recording::start();
        commit(&mut store, 40);
        let ops = recording.finish();
        let after = store.stats();
        assert_eq!(after.journal.syncs - before.journal.syncs, 1);
        assert_eq!(after.data.syncs - before.data.syncs, 2);
        let (new_data, new_journal) = (store.data.len().unwrap(), store.journal.len().unwrap());
        assert!(new_data < data_len && new_journal < journal_len);

        // Each file's ops, in order, and the cut's place among them.
        for (file, old, new) in [
            (&path, data_len, new_data),
            (&journal_path_for(&path), journal_len, new_journal),
        ] {
            let ops: Vec<&Op> = ops
                .iter()
                .filter(|(p, _)| p == file)
                .map(|(_, op)| op)
                .collect();
            let cut = ops.iter().position(|op| matches!(op, Op::SetLen(_)));
            let cut = cut.unwrap();
            assert!(
                matches!(ops[cut - 1..], [Op::Sync, Op::SetLen(len), ..] if *len == new),
                "{file:?}: no sync right before the cut"
            );
            let zeroed = |at: u64| {
                ops[..cut].iter().any(|op| {
                    matches!(op, Op::Write { block, bytes } if *block == at && bytes.iter().all(|&x| x == 0))
                })
            };
            let tail = new / B as u64..old / B as u64;
            assert!(
                tail.clone().all(zeroed),
                "{file:?}: tail {tail:?} not zeroed"
            );
        }
        assert!(
            matches!(ops.iter().rfind(|(p, _)| *p == path), Some((_, Op::Sync))),
            "the data cut must be durable before the retire"
        );
        cleanup(&path);
    }

    #[test]
    fn load_catches_a_flipped_slot_byte() {
        // Before per-block checksums a flipped bit inside an occupied slot
        // was a silent misread; now it is a typed corruption.
        let path = temp_path("store-flip");
        let total = 256u64;
        let set: Vec<u64> = (0..total).step_by(2).collect();
        let words = words_for(total, &set);
        {
            let mut store = BlockStore::open(&path, opts()).unwrap();
            store
                .commit(&words, total, set.len() as u64, set.iter().copied(), 4)
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = BlockStore::open(&path, opts()).unwrap();
        let err = store.load::<u64>().unwrap_err();
        assert!(matches!(err, FileError::Corrupt { .. }), "{err}");
        cleanup(&path);
    }

    #[test]
    fn scrub_reports_exactly_the_corrupt_blocks() {
        let path = temp_path("store-scrub");
        let total = 512u64;
        let set: Vec<u64> = (0..total).step_by(3).collect();
        let words = words_for(total, &set);
        let mut store = BlockStore::open(&path, opts()).unwrap();
        store
            .commit(&words, total, set.len() as u64, set.iter().copied(), 4)
            .unwrap();
        assert!(store.scrub().unwrap().is_clean());
        assert!(store.verify_all().is_ok());

        // Flip one byte in the last block.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = (bytes.len() / B - 1) as u64;
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt, vec![last]);
        assert_eq!(report.blocks_checked, bytes.len() as u64 / B as u64);
        assert!(matches!(
            store.verify_all(),
            Err(FileError::Corrupt { block, .. }) if block == last
        ));
        cleanup(&path);
    }

    #[test]
    fn repair_from_a_replica_restores_byte_identity() {
        // Two stores reach the same contents through different histories;
        // HI makes their images byte-identical, so either is a valid
        // repair source for the other.
        let total = 512u64;
        let set: Vec<u64> = (0..total).step_by(3).collect();
        let words = words_for(total, &set);
        let path_a = temp_path("store-repair-a");
        let path_b = temp_path("store-repair-b");
        let mut a = BlockStore::open(&path_a, opts()).unwrap();
        a.commit(&words, total, set.len() as u64, set.iter().copied(), 4)
            .unwrap();
        let mut b = BlockStore::open(&path_b, opts()).unwrap();
        let half: Vec<u64> = set.iter().copied().take(set.len() / 2).collect();
        let hwords = words_for(total, &half);
        b.commit(&hwords, total, half.len() as u64, half.iter().copied(), 4)
            .unwrap();
        b.commit(&words, total, set.len() as u64, set.iter().copied(), 4)
            .unwrap();

        // Corrupt three scattered blocks of A, including the header.
        let mut bytes = std::fs::read(&path_a).unwrap();
        let blocks = bytes.len() / B;
        for block in [0, blocks / 2, blocks - 1] {
            bytes[block * B + 17] ^= 0xFF;
        }
        std::fs::write(&path_a, &bytes).unwrap();
        assert_eq!(a.scrub().unwrap().corrupt.len(), 3);

        let repaired = a.repair_from(&mut b).unwrap();
        assert_eq!(repaired, 3, "only the corrupt blocks are rewritten");
        assert!(a.verify_all().is_ok());
        let (raw_a, _) = a.raw_bytes().unwrap();
        let (raw_b, _) = b.raw_bytes().unwrap();
        assert_eq!(raw_a, raw_b, "repair restores byte identity");
        let (_, w, r) = a.load::<u64>().unwrap();
        assert_eq!(w, words);
        assert_eq!(r, set);
        cleanup(&path_a);
        cleanup(&path_b);
    }

    #[test]
    fn repair_refuses_a_dirty_source() {
        let total = 128u64;
        let set: Vec<u64> = (0..total).step_by(2).collect();
        let words = words_for(total, &set);
        let path_a = temp_path("store-repair-dirty-a");
        let path_b = temp_path("store-repair-dirty-b");
        let mut a = BlockStore::open(&path_a, opts()).unwrap();
        a.commit(&words, total, set.len() as u64, set.iter().copied(), 4)
            .unwrap();
        let mut b = BlockStore::open(&path_b, opts()).unwrap();
        b.commit(&words, total, set.len() as u64, set.iter().copied(), 4)
            .unwrap();
        let mut bytes = std::fs::read(&path_b).unwrap();
        bytes[B + 3] ^= 0x10;
        std::fs::write(&path_b, &bytes).unwrap();
        assert!(matches!(
            a.repair_from(&mut b),
            Err(FileError::Corrupt { .. })
        ));
        cleanup(&path_a);
        cleanup(&path_b);
    }
}
