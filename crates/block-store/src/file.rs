//! Block-granular file I/O: aligned staging buffers, scripted fault
//! injection, bounded deterministic retry, and transfer accounting that can
//! feed the simulated DAM ledger.

use crate::fault::{FaultPlan, ReadEffect, WriteEffect};
use io_sim::Tracer;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Alignment of the reusable scratch buffers: one page, matching what the
/// kernel page cache works in. All block images are staged through buffers
/// with this alignment before they touch the file.
pub const PAGE_ALIGN: usize = 4096;

/// Attempts per block transfer before a transient fault becomes a typed
/// [`FileError::Transient`]. A fixed count — never a clock-based backoff —
/// so retry behavior is a pure function of the fault script and reads no
/// clock (`std::time::Instant` is a disallowed type in `clippy.toml`).
pub const IO_RETRY_ATTEMPTS: u32 = 3;

/// Blocks of zeros [`BlockFile::resize`] writes per transfer. A length
/// changes rarely, so the zeros are allocated for each change, never kept.
const ZERO_BLOCKS: u64 = 16;

/// A typed error from block-granular file I/O.
///
/// The interesting failure modes — an injected crash, a poisoned handle, a
/// file that ends before the requested blocks, a checksum that does not
/// match, a transient error that outlived its retry budget, a full disk —
/// are variants the recovery and chaos batteries can match on. [`BlockStore`]
/// propagates them unchanged; the facade keeps its `io::Result` surface via
/// the `From` impl below (preserving the message text), so `?` propagation
/// through the existing APIs is unchanged.
///
/// [`BlockStore`]: crate::BlockStore
#[derive(Debug)]
pub enum FileError {
    /// The handle is poisoned: an injected crash fired earlier, and every
    /// subsequent mutation fails fast so a torn flush cannot be resumed.
    Poisoned,
    /// An injected crash fired mid-stream (a
    /// [`TornWrite`](crate::Fault::TornWrite) or
    /// [`ShortWrite`](crate::Fault::ShortWrite) fault), leaving the
    /// already-written prefix of the stream on disk.
    Crashed,
    /// A read hit end-of-file before filling the requested blocks.
    ShortRead {
        /// First block of the failed read.
        block: u64,
        /// Bytes the read asked for.
        wanted: usize,
    },
    /// A transient error survived the whole bounded retry budget.
    Transient {
        /// Attempts made before giving up (= [`IO_RETRY_ATTEMPTS`]).
        attempts: u32,
    },
    /// The device is out of space (`ENOSPC`, real or injected).
    NoSpace,
    /// A block's bytes do not match its recorded checksum, or a decoded
    /// structure is internally inconsistent.
    Corrupt {
        /// The offending block id (0 = header).
        block: u64,
        /// What exactly failed to validate.
        reason: &'static str,
    },
    /// The data file is intact but was committed under another format
    /// version: its layout function is not this build's, so it cannot
    /// reproduce under `(contents, seed)` here. There is no in-place
    /// upgrade — reload from an export made by the build that wrote it.
    UnsupportedVersion {
        /// The version the header records.
        found: u64,
        /// The only version this build reads and writes.
        supported: u64,
    },
    /// An underlying operating-system error.
    Io(io::Error),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The "injected crash" phrasing is load-bearing: the recovery and
        // crash batteries assert on it through the io::Error conversion.
        match self {
            FileError::Poisoned => write!(f, "block file poisoned by injected crash"),
            FileError::Crashed => write!(f, "injected crash: write stream torn by the fault plan"),
            FileError::ShortRead { block, wanted } => write!(
                f,
                "short read at block {block}: file ends before the {wanted} requested bytes"
            ),
            FileError::Transient { attempts } => write!(
                f,
                "transient I/O error persisted through {attempts} attempts"
            ),
            FileError::NoSpace => write!(f, "no space left on device"),
            FileError::Corrupt { block, reason } => {
                write!(f, "corrupt block {block}: {reason}")
            }
            FileError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is not supported: this build reads and \
                 writes version {supported} only (no in-place upgrade; reload from an \
                 export made by the build that wrote the file)"
            ),
            FileError::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FileError {
    fn from(e: io::Error) -> Self {
        if e.raw_os_error() == Some(28) {
            // ENOSPC gets its own variant whether real or injected.
            FileError::NoSpace
        } else {
            FileError::Io(e)
        }
    }
}

impl From<FileError> for io::Error {
    fn from(e: FileError) -> Self {
        match e {
            FileError::Io(io) => io,
            short @ FileError::ShortRead { .. } => {
                io::Error::new(io::ErrorKind::UnexpectedEof, short.to_string())
            }
            corrupt @ FileError::Corrupt { .. } => {
                io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string())
            }
            version @ FileError::UnsupportedVersion { .. } => {
                io::Error::new(io::ErrorKind::Unsupported, version.to_string())
            }
            other => io::Error::other(other.to_string()),
        }
    }
}

/// A reusable byte buffer whose payload starts on a [`PAGE_ALIGN`] boundary.
///
/// Grows monotonically and never shrinks, so once a buffer has seen its
/// high-water length, later uses are allocation-free — the property
/// `tests/alloc_regression.rs` pins for steady-state flushes.
#[derive(Debug, Default)]
pub struct AlignedBuf {
    raw: Vec<u8>,
}

impl AlignedBuf {
    /// An empty buffer (no allocation until first use).
    pub fn new() -> Self {
        Self { raw: Vec::new() }
    }

    /// Grows the backing storage so [`Self::get_mut`] calls up to `len`
    /// bytes are allocation-free. No-op once capacity is reached.
    pub fn reserve(&mut self, len: usize) {
        let need = len + PAGE_ALIGN;
        if self.raw.len() < need {
            self.raw.resize(need, 0);
        }
    }

    /// A page-aligned, mutable view of `len` bytes (contents unspecified;
    /// callers overwrite). Grows the buffer if needed.
    pub fn get_mut(&mut self, len: usize) -> &mut [u8] {
        self.reserve(len);
        let off = self.offset();
        &mut self.raw[off..off + len]
    }

    /// The aligned view of the first `len` bytes, immutable.
    pub fn get(&self, len: usize) -> &[u8] {
        let off = self.offset();
        &self.raw[off..off + len]
    }

    /// Bytes a view can span without growing the buffer.
    pub fn capacity(&self) -> usize {
        self.raw.len().saturating_sub(PAGE_ALIGN)
    }

    /// Zeroes the whole buffer, keeping its capacity.
    pub fn wipe(&mut self) {
        self.raw.fill(0);
    }

    fn offset(&self) -> usize {
        let addr = self.raw.as_ptr() as usize;
        (PAGE_ALIGN - addr % PAGE_ALIGN) % PAGE_ALIGN
    }
}

/// Physical transfer counters for one [`BlockFile`] — the ground truth the
/// DAM-vs-wall-clock bench compares the simulated model against.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileStats {
    /// Blocks read from the file.
    pub blocks_read: u64,
    /// Blocks written to the file.
    pub blocks_written: u64,
    /// `fsync` calls issued.
    pub syncs: u64,
}

/// Block-granular access to one file: every read and write moves whole
/// blocks of a fixed size, each block transfer consults a [`FaultPlan`] (so
/// injected failures land deterministically at block granularity), transient
/// errors are retried a fixed number of times ([`IO_RETRY_ATTEMPTS`]), and
/// transfers are counted in a [`FileStats`] ledger and optionally charged to
/// an [`io_sim`] [`Tracer`].
#[derive(Debug)]
pub struct BlockFile {
    file: File,
    path: PathBuf,
    block_size: usize,
    plan: FaultPlan,
    tracer: Tracer,
    stats: FileStats,
    poisoned: bool,
}

impl BlockFile {
    /// Opens (creating if absent, never truncating) `path` for block I/O at
    /// the given granularity. A file this call creates has its parent
    /// directory synced before the handle is returned: an `fsync` of the
    /// file makes its bytes durable, not the directory entry that names it,
    /// so without this a crash could lose a store whose every commit was
    /// synced. An existing file costs no sync.
    pub fn open(path: impl AsRef<Path>, block_size: usize) -> io::Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let path = path.as_ref().to_path_buf();
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        let file = match options.open(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let file = options.create_new(true).open(&path)?;
                #[cfg(test)]
                crate::crash::log(&path, || crate::crash::Op::Create);
                sync_parent_dir(&path)?;
                file
            }
            opened => opened?,
        };
        Ok(Self {
            file,
            path,
            block_size,
            plan: FaultPlan::none(),
            tracer: Tracer::disabled(),
            stats: FileStats::default(),
            poisoned: false,
        })
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The block (write-granularity) size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Physical transfer counters so far.
    pub fn stats(&self) -> FileStats {
        self.stats
    }

    /// Arms (or disarms, with [`FaultPlan::none`]) the fault script.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Routes per-block transfer charges into a simulated-DAM ledger.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// `true` once an injected crash has fired; all further writes fail.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Current file length in bytes.
    pub fn len(&self) -> Result<u64, FileError> {
        Ok(self.file.metadata()?.len())
    }

    /// `true` when the file is empty.
    pub fn is_empty(&self) -> Result<bool, FileError> {
        Ok(self.len()? == 0)
    }

    /// Moves the file to `bytes` long, a whole number of blocks. This is the
    /// one way a store file changes length, and no length change exposes or
    /// hands back a byte the file held. The file grows by written zeros,
    /// never by a hole; a torn last block is zeroed whole. It shrinks in
    /// three steps: zeros over the cut, a sync that makes them durable (when
    /// `sync`), then the cut, so the filesystem gets back only zeros. The
    /// cut itself is durable at the file's next sync. At the current length
    /// this does nothing.
    pub fn resize(&mut self, bytes: u64, sync: bool) -> Result<(), FileError> {
        self.check_poisoned()?;
        let b = self.block_size as u64;
        if !bytes.is_multiple_of(b) {
            return Err(FileError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("file length {bytes} is not a whole number of {b}-byte blocks"),
            )));
        }
        let len = self.len()?;
        if bytes > len {
            return self.write_zeros(len / b, bytes / b);
        }
        if bytes < len {
            self.write_zeros(bytes / b, len.div_ceil(b))?;
            if sync {
                self.sync()?;
            }
            self.file.set_len(bytes)?;
            #[cfg(test)]
            crate::crash::log(&self.path, || crate::crash::Op::SetLen(bytes));
        }
        Ok(())
    }

    /// Writes zeros over blocks `from..to`, at most [`ZERO_BLOCKS`] to a
    /// transfer.
    fn write_zeros(&mut self, mut from: u64, to: u64) -> Result<(), FileError> {
        let zeros = vec![0u8; to.saturating_sub(from).min(ZERO_BLOCKS) as usize * self.block_size];
        while from < to {
            let n = (to - from).min(ZERO_BLOCKS);
            self.write_blocks(from, &zeros[..n as usize * self.block_size])?;
            from += n;
        }
        Ok(())
    }

    /// Writes `data` (a multiple of the block size) starting at block
    /// `first_block`. With a fault plan armed the transfer runs block by
    /// block: each block consults the plan, and an injected crash aborts
    /// mid-stream with the already-written prefix on disk — a crash torn at
    /// a block (or half-block) boundary.
    pub fn write_blocks(&mut self, first_block: u64, data: &[u8]) -> Result<(), FileError> {
        self.check_poisoned()?;
        assert_eq!(
            data.len() % self.block_size,
            0,
            "write must be block-aligned"
        );
        if !self.plan.is_armed() {
            // Fast path: one contiguous transfer, identical accounting.
            self.raw_write(first_block, data)?;
            let blocks = (data.len() / self.block_size) as u64;
            self.stats.blocks_written += blocks;
            self.tracer.charge(0, blocks);
            return Ok(());
        }
        for (block, chunk) in (first_block..).zip(data.chunks(self.block_size)) {
            self.write_one(block, chunk)?;
        }
        Ok(())
    }

    fn write_one(&mut self, block: u64, chunk: &[u8]) -> Result<(), FileError> {
        let index = self.plan.begin_write();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.plan.write_effect(index) {
                WriteEffect::Allow => {}
                WriteEffect::Transient => {
                    if attempts >= IO_RETRY_ATTEMPTS {
                        return Err(FileError::Transient { attempts });
                    }
                    continue;
                }
                WriteEffect::Torn => {
                    self.poisoned = true;
                    return Err(FileError::Crashed);
                }
                WriteEffect::Short => {
                    // Half the block lands, then the "power" goes: the torn
                    // bytes stay on disk for recovery to detect.
                    let half = &chunk[..chunk.len() / 2];
                    self.file
                        .seek(SeekFrom::Start(block * self.block_size as u64))?;
                    self.file.write_all(half)?;
                    #[cfg(test)]
                    crate::crash::log(&self.path, || crate::crash::Op::Write {
                        block,
                        bytes: half.to_vec(),
                    });
                    self.poisoned = true;
                    return Err(FileError::Crashed);
                }
                WriteEffect::NoSpace => return Err(FileError::NoSpace),
            }
            match self.raw_write(block, chunk) {
                Ok(()) => {
                    self.stats.blocks_written += 1;
                    self.tracer.charge(0, 1);
                    return Ok(());
                }
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted && attempts < IO_RETRY_ATTEMPTS =>
                {
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn raw_write(&mut self, block: u64, chunk: &[u8]) -> io::Result<()> {
        self.file
            .seek(SeekFrom::Start(block * self.block_size as u64))?;
        self.file.write_all(chunk)?;
        #[cfg(test)]
        for (block, bytes) in (block..).zip(chunk.chunks(self.block_size)) {
            crate::crash::log(&self.path, || crate::crash::Op::Write {
                block,
                bytes: bytes.to_vec(),
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes (a multiple of the block size) starting at
    /// block `first_block`. With a fault plan armed the transfer runs block
    /// by block so injected read failures and bit rot land per block.
    pub fn read_blocks(&mut self, first_block: u64, buf: &mut [u8]) -> Result<(), FileError> {
        assert_eq!(buf.len() % self.block_size, 0, "read must be block-aligned");
        if !self.plan.is_armed() {
            // Fast path: one contiguous transfer, identical accounting.
            self.file
                .seek(SeekFrom::Start(first_block * self.block_size as u64))?;
            self.file.read_exact(buf).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    FileError::ShortRead {
                        block: first_block,
                        wanted: buf.len(),
                    }
                } else {
                    FileError::Io(e)
                }
            })?;
            let blocks = (buf.len() / self.block_size) as u64;
            self.stats.blocks_read += blocks;
            self.tracer.charge(blocks, 0);
            return Ok(());
        }
        for (block, chunk) in (first_block..).zip(buf.chunks_mut(self.block_size)) {
            self.read_one(block, chunk)?;
        }
        Ok(())
    }

    fn read_one(&mut self, block: u64, chunk: &mut [u8]) -> Result<(), FileError> {
        let index = self.plan.begin_read();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.plan.read_effect(index, block) {
                ReadEffect::Allow => {}
                ReadEffect::Transient => {
                    if attempts >= IO_RETRY_ATTEMPTS {
                        return Err(FileError::Transient { attempts });
                    }
                    continue;
                }
                ReadEffect::Short => {
                    return Err(FileError::ShortRead {
                        block,
                        wanted: chunk.len(),
                    });
                }
                ReadEffect::Permanent => {
                    return Err(FileError::Io(io::Error::other(format!(
                        "injected permanent read error at block {block}"
                    ))));
                }
            }
            let seek = self
                .file
                .seek(SeekFrom::Start(block * self.block_size as u64));
            let read = seek.and_then(|_| self.file.read_exact(chunk));
            match read {
                Ok(()) => {
                    self.stats.blocks_read += 1;
                    self.tracer.charge(1, 0);
                    self.plan.rot(block, chunk);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Err(FileError::ShortRead {
                        block,
                        wanted: chunk.len(),
                    });
                }
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted && attempts < IO_RETRY_ATTEMPTS =>
                {
                    continue;
                }
                Err(e) => return Err(FileError::Io(e)),
            }
        }
    }

    /// Flushes file contents and metadata to the device.
    pub fn sync(&mut self) -> Result<(), FileError> {
        self.check_poisoned()?;
        self.file.sync_all()?;
        self.stats.syncs += 1;
        #[cfg(test)]
        crate::crash::log(&self.path, || crate::crash::Op::Sync);
        Ok(())
    }

    fn check_poisoned(&self) -> Result<(), FileError> {
        if self.poisoned {
            Err(FileError::Poisoned)
        } else {
            Ok(())
        }
    }
}

/// Syncs the directory that holds `path`, making a new entry in it durable.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    #[cfg(test)]
    crate::crash::log(path, || crate::crash::Op::DirSync);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fault;

    #[test]
    fn aligned_buf_is_page_aligned_and_reusable() {
        let mut b = AlignedBuf::new();
        let ptr = {
            let s = b.get_mut(1000);
            s.fill(7);
            s.as_ptr() as usize
        };
        assert_eq!(ptr % PAGE_ALIGN, 0);
        // Re-borrowing at or below the high-water mark must not reallocate.
        let ptr2 = b.get_mut(1000).as_ptr() as usize;
        assert_eq!(ptr, ptr2);
        assert_eq!(b.get(1000)[999], 7);
    }

    #[test]
    fn write_read_roundtrip_counts_blocks() {
        let path = crate::temp_path("file-roundtrip");
        let mut f = BlockFile::open(&path, 64).unwrap();
        let data: Vec<u8> = (0..192u16).map(|i| i as u8).collect();
        f.write_blocks(2, &data).unwrap();
        let mut back = vec![0u8; 192];
        f.read_blocks(2, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(f.stats().blocks_written, 3);
        assert_eq!(f.stats().blocks_read, 3);
        assert_eq!(f.len().unwrap(), 5 * 64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resize_moves_whole_blocks_over_written_zeros() {
        let path = crate::temp_path("file-resize");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.write_blocks(0, &[7u8; 3 * 64]).unwrap();
        f.resize(5 * 64, false).unwrap();
        f.resize(64, false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [7u8; 64]);
        // Three blocks of 7s, two grown, then four zeroed before the cut.
        assert_eq!(f.stats().blocks_written, 3 + 2 + 4);
        let err = f.resize(100, false).unwrap_err();
        assert!(matches!(err, FileError::Io(e) if e.kind() == io::ErrorKind::InvalidInput));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_tears_at_block_boundaries() {
        let path = crate::temp_path("file-torn");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.set_fault_plan(FaultPlan::new([Fault::TornWrite { at: 2 }]));
        let data = vec![0xAB; 4 * 64];
        let err = f.write_blocks(0, &data).unwrap_err();
        assert!(err.to_string().contains("injected crash"));
        assert!(f.is_poisoned());
        assert_eq!(f.stats().blocks_written, 2);
        // Exactly the two allowed blocks landed.
        assert_eq!(f.len().unwrap(), 2 * 64);
        // Every later write fails fast.
        assert!(f.write_blocks(0, &data[..64]).is_err());
        assert!(f.sync().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn plan_clones_share_one_budget() {
        let path_a = crate::temp_path("file-shared-a");
        let path_b = crate::temp_path("file-shared-b");
        let mut a = BlockFile::open(&path_a, 64).unwrap();
        let mut b = BlockFile::open(&path_b, 64).unwrap();
        let plan = FaultPlan::new([Fault::TornWrite { at: 3 }]);
        a.set_fault_plan(plan.clone());
        b.set_fault_plan(plan.clone());
        let block = [1u8; 64];
        a.write_blocks(0, &block).unwrap();
        b.write_blocks(0, &block).unwrap();
        a.write_blocks(1, &block).unwrap();
        // The shared budget is spent: the other handle trips.
        assert!(matches!(b.write_blocks(1, &block), Err(FileError::Crashed)));
        assert_eq!(plan.write_budget_remaining(), Some(0));
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
    }

    #[test]
    fn short_write_tears_inside_a_block() {
        let path = crate::temp_path("file-shortwrite");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.set_fault_plan(FaultPlan::new([Fault::ShortWrite { at: 1 }]));
        let data = vec![0xCD; 2 * 64];
        let err = f.write_blocks(0, &data).unwrap_err();
        assert!(matches!(err, FileError::Crashed));
        assert!(f.is_poisoned());
        // One whole block plus half the second landed.
        assert_eq!(f.len().unwrap(), 64 + 32);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transient_write_faults_are_retried_within_budget() {
        let path = crate::temp_path("file-transient-ok");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.set_fault_plan(FaultPlan::new([Fault::WriteTransient {
            at: 0,
            times: IO_RETRY_ATTEMPTS - 1,
        }]));
        f.write_blocks(0, &[7u8; 64]).unwrap();
        assert_eq!(f.stats().blocks_written, 1);
        let mut back = [0u8; 64];
        f.read_blocks(0, &mut back).unwrap();
        assert_eq!(back, [7u8; 64]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transient_faults_beyond_budget_fail_typed() {
        let path = crate::temp_path("file-transient-fail");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.set_fault_plan(FaultPlan::new([Fault::WriteTransient {
            at: 0,
            times: IO_RETRY_ATTEMPTS,
        }]));
        let err = f.write_blocks(0, &[7u8; 64]).unwrap_err();
        assert!(matches!(
            err,
            FileError::Transient {
                attempts: IO_RETRY_ATTEMPTS
            }
        ));
        // Not a crash: the handle stays usable.
        assert!(!f.is_poisoned());
        f.write_blocks(0, &[8u8; 64]).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_nospace_is_typed_and_does_not_poison() {
        let path = crate::temp_path("file-nospace");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.set_fault_plan(FaultPlan::new([Fault::NoSpace { at: 1 }]));
        f.write_blocks(0, &[1u8; 64]).unwrap();
        assert!(matches!(
            f.write_blocks(1, &[2u8; 64]),
            Err(FileError::NoSpace)
        ));
        assert!(!f.is_poisoned());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_read_faults_cover_the_read_universe() {
        let path = crate::temp_path("file-readfaults");
        let mut f = BlockFile::open(&path, 64).unwrap();
        f.write_blocks(0, &[9u8; 4 * 64]).unwrap();
        let mut buf = [0u8; 64];

        // Transient, within budget: succeeds.
        f.set_fault_plan(FaultPlan::new([Fault::ReadTransient { at: 0, times: 2 }]));
        f.read_blocks(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 64]);

        // Transient, beyond budget: typed failure.
        f.set_fault_plan(FaultPlan::new([Fault::ReadTransient { at: 0, times: 9 }]));
        assert!(matches!(
            f.read_blocks(1, &mut buf),
            Err(FileError::Transient { .. })
        ));

        // Permanent unreadable sector.
        f.set_fault_plan(FaultPlan::new([Fault::ReadError { block: 2 }]));
        f.read_blocks(1, &mut buf).unwrap();
        let err = f.read_blocks(2, &mut buf).unwrap_err();
        assert!(err.to_string().contains("permanent read error"));

        // Injected short read.
        f.set_fault_plan(FaultPlan::new([Fault::ShortRead { at: 0 }]));
        assert!(matches!(
            f.read_blocks(0, &mut buf),
            Err(FileError::ShortRead { block: 0, .. })
        ));

        // Bit rot: bytes come back changed, deterministically.
        f.set_fault_plan(FaultPlan::new([Fault::BitRot { seed: 5, one_in: 1 }]));
        f.read_blocks(3, &mut buf).unwrap();
        assert_ne!(buf, [9u8; 64]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tracer_sees_physical_transfers() {
        let path = crate::temp_path("file-tracer");
        let mut f = BlockFile::open(&path, 128).unwrap();
        f.set_tracer(Tracer::enabled(io_sim::IoConfig::new(128, 8)));
        f.write_blocks(0, &vec![1u8; 256]).unwrap();
        let mut buf = vec![0u8; 128];
        f.read_blocks(1, &mut buf).unwrap();
        let tracer_stats = {
            // The tracer the file charges is the one we installed.
            let t = Tracer::enabled(io_sim::IoConfig::new(128, 8));
            f.set_tracer(t.clone());
            f.write_blocks(0, &[2u8; 128]).unwrap();
            t.stats()
        };
        assert_eq!(tracer_stats.writes, 1);
        std::fs::remove_file(&path).unwrap();
    }
}
