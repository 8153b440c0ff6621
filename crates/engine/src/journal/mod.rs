//! Durable fleet: a segmented, append-only, CRC-checked write-ahead event journal.
//!
//! The fleet's ordered event stream becomes a log-structured source of truth in the
//! spirit of LogBase's WAL-as-data design: while a run executes, every dispatch, per-poll
//! charge, and batch commit (as a [`CommitDigest`]) is appended to an on-disk journal,
//! framed as
//!
//! ```text
//! segment-000000.wal             segment-000001.wal
//! ┌────────────────┐             ┌────────────────┐
//! │ 16-byte header │             │ 16-byte header │
//! ├────────────────┤             ├────────────────┤
//! │ len │ crc │ pay │  rotation  │ len │ crc │ pay │
//! │ len │ crc │ pay │  ───────►  │ ...            │
//! │ ...            │             └────────────────┘
//! └────────────────┘
//! ```
//!
//! with a `u32` little-endian length, a `u32` CRC-32 (IEEE) of the payload, and the
//! payload itself (a [`JournalRecord`] encoded with the in-tree [`BinCodec`] — the no-op
//! serde shim plays no part in this path). The frame and segment headers stay
//! fixed-width — a scan reads a frame's length before it can trust any byte of the
//! payload — while the integers inside a payload are the codec's varints. Segments
//! rotate at [`JournalConfig::max_segment_bytes`]. The segment header's magic carries
//! the format version, so a journal written in an older record format is refused as
//! corrupt instead of being misdecoded.
//!
//! Recovery ([`crate::fleet::Fleet::recover`]) reads the journal back, rebuilds the run
//! configuration from the head record, and re-executes the run deterministically while
//! cross-checking (and completing) the journaled prefix — see [`recovery`]. A run journal
//! has one writer: past the head record, every record of a fresh run and of a resumed
//! one is appended by [`recovery::RecoveryObserver`] (the scheduler's
//! [`crate::scheduler::RunObserver`] hook), because a fresh run is the recovery of a
//! journal holding only its head record.
//!
//! A record whose frame is cut short **at the end of the final segment** is a *torn
//! tail*: the expected wreckage of a crash mid-write, silently dropped (and reported via
//! [`JournalContents::torn_tail`]). The same damage anywhere else is corruption and
//! surfaces as [`CdasError::JournalCorrupt`].

mod record;
pub mod recovery;

pub use record::{CommitDigest, JournalRecord, RunConfig};
pub use recovery::RecoveryReport;

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cdas_core::codec::BinCodec;
use cdas_core::{CdasError, Result};

/// Magic + format version prefix of every segment file. Version 5 writes every integer
/// inside a record (ids, counts, lengths) as a varint; the records are otherwise laid
/// out as in version 4. Version 4 is written by runs that lease workers from the
/// ledger's free list; its records are laid out as in version 3, but a run journaled
/// before would re-execute to other dispatches. Version 3 digests commits whose
/// outcome registry holds only the batch's answering workers; version 2 digested a
/// copy of the whole fleet registry, and version 1 journaled the whole outcome.
const SEGMENT_MAGIC: &[u8; 8] = b"CDASWAL5";
/// Segment header: magic followed by the segment's fixed-width `u64` index.
const SEGMENT_HEADER_LEN: u64 = 16;
/// Frame header: fixed-width `u32` payload length + `u32` CRC-32 of the payload.
const FRAME_HEADER_LEN: u64 = 8;
/// Appends accumulate in an in-memory buffer and reach the OS in one `write` per
/// sync point (LogBase-style batched appends — the write syscall per record, not the
/// fsync, dominates an unsynced append). The buffer also drains whenever it grows
/// past this many bytes, bounding memory between widely spaced syncs.
const BUFFER_FLUSH_BYTES: usize = 64 * 1024;

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup tables for slice-by-8, built at
/// compile time. `CRC32_TABLES[0]` is the classic per-byte table; `CRC32_TABLES[k]` is
/// the CRC of a byte followed by `k` zero bytes, letting [`crc32`] fold eight input
/// bytes per step instead of one — every record passes through this checksum once when
/// it is appended and again each time the journal is read.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // cdas-allow(panic_freedom): const context — a bad index is a compile error
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            // cdas-allow(panic_freedom): const context — a bad index is a compile error
            let prev = tables[t - 1][i];
            // cdas-allow(panic_freedom): const context — a bad index is a compile error
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// One table lookup; `table` is always a literal `< 8` and the `& 0xFF` mask keeps the
/// byte index under 256, so both bounds checks fold away.
#[inline(always)]
fn crc_entry(table: usize, index: u32) -> u32 {
    CRC32_TABLES
        .get(table)
        .and_then(|t| t.get((index & 0xFF) as usize))
        .copied()
        .unwrap_or(0)
}

/// CRC-32 (IEEE) of a byte string — the checksum guarding every journal record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        // `chunks_exact(8)` only yields 8-byte windows, so the pattern always matches.
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = chunk else {
            continue;
        };
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = crc_entry(7, lo)
            ^ crc_entry(6, lo >> 8)
            ^ crc_entry(5, lo >> 16)
            ^ crc_entry(4, lo >> 24)
            ^ crc_entry(3, u32::from(b4))
            ^ crc_entry(2, u32::from(b5))
            ^ crc_entry(1, u32::from(b6))
            ^ crc_entry(0, u32::from(b7));
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ crc_entry(0, crc ^ u32::from(b));
    }
    !crc
}

/// When the journal forces its writes to stable storage. Only commit-class records
/// (`RunStarted`, `Commit`, `RunCompleted` and the service manifest's records) trigger
/// an fsync; the chatty dispatch, charge and event records ride along with the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Fsync after every commit-class record — the default: a committed batch is never
    /// re-paid.
    #[default]
    Commits,
    /// Group commit in the LogBase style: commit-class records are batched and one
    /// fsync covers the whole group. The sync fires once `max_batch` commit-class
    /// records are pending, or once `max_delay_ms` of wall-clock time has passed since
    /// the first unsynced commit — whichever comes first. An explicit [`Journal::sync`]
    /// (the run-completion trailer always issues one) flushes any partial group, so a
    /// clean shutdown loses nothing; a crash can lose at most the open group, which
    /// recovery treats as an ordinary torn tail and re-executes.
    GroupCommit {
        /// Pending commit-class records that force a sync. `0` behaves like `1`.
        max_batch: usize,
        /// Maximum wall-clock milliseconds a commit may sit unsynced.
        max_delay_ms: u64,
    },
}

/// Configuration of a [`Journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one reaches this many bytes (a record
    /// never straddles two segments; an oversized record gets a segment to itself).
    pub max_segment_bytes: u64,
    /// When to fsync.
    pub sync: SyncPolicy,
    /// Fault injection: silently stop persisting after this many bytes have been
    /// written through this handle, cutting the final write mid-frame — the byte-level
    /// "kill the writer" crash the durability proptests exercise. `None` (the default)
    /// disables the failpoint.
    pub fail_writes_after: Option<u64>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            max_segment_bytes: 1 << 20,
            sync: SyncPolicy::default(),
            fail_writes_after: None,
        }
    }
}

/// What a full read of a journal directory yielded.
#[derive(Debug, Clone)]
pub struct JournalContents {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether a torn (incomplete or CRC-failing) frame was dropped from the end of the
    /// final segment — the signature of a crash mid-write.
    pub torn_tail: bool,
    /// Number of segment files read.
    pub segments: usize,
}

/// A segmented, append-only, CRC-checked on-disk event journal.
///
/// One journal directory holds one run: [`Journal::create`] wipes any previous segments,
/// and [`crate::fleet::Fleet::recover`] re-opens the directory with
/// [`Journal::open_append`] to complete a half-finished run in place.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    segment_index: u64,
    /// `None` once the write-kill failpoint fired (the "process" is dead; writes drop).
    file: Option<File>,
    /// Logical bytes of the current segment: flushed plus still-buffered.
    segment_bytes: u64,
    /// Physical bytes handed to the OS through this handle (the failpoint counter).
    written_total: u64,
    /// Frames appended but not yet handed to the OS; drains at sync points, segment
    /// rotation, [`BUFFER_FLUSH_BYTES`], and drop.
    buffer: Vec<u8>,
    /// Reusable payload-encoding buffer: appends encode into it in place of a fresh
    /// allocation per record.
    scratch: Vec<u8>,
    /// Commit-class records appended since the last fsync (group-commit accounting).
    pending_commits: usize,
    /// Wall-clock instant of the first unsynced commit-class record, if any.
    pending_since: Option<std::time::Instant>,
    /// Number of fsyncs issued through this handle (observability for tests/bench).
    syncs_performed: u64,
}

fn io_err(path: &Path, e: std::io::Error) -> CdasError {
    CdasError::JournalIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn segment_name(index: u64) -> String {
    format!("segment-{index:06}.wal")
}

/// Sorted (by index) list of `(index, path)` segment files in `dir`.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("segment-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// Outcome of scanning one segment file.
struct SegmentScan {
    /// Byte offset just past the last intact frame (where a re-opened journal resumes).
    valid_end: u64,
    /// Whether a torn frame was dropped at the segment's end.
    torn: bool,
}

/// Parse one segment. `is_last` controls torn-tail tolerance: damage that reaches the
/// end of the **final** segment is a crash signature and is dropped; the same damage in
/// an earlier segment (or damage that does *not* reach EOF) is corruption. Intact
/// records are appended to `records`, the whole journal's list.
fn scan_segment(
    path: &Path,
    is_last: bool,
    records: &mut Vec<JournalRecord>,
) -> Result<SegmentScan> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let corrupt = |offset: u64, detail: String| CdasError::JournalCorrupt {
        segment: path.display().to_string(),
        offset,
        detail,
    };
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        if is_last {
            // The crash landed inside the header write of a fresh segment: nothing of
            // value was lost (rotation only happens between records).
            return Ok(SegmentScan {
                valid_end: 0,
                torn: true,
            });
        }
        return Err(corrupt(
            0,
            format!("segment shorter ({}) than its header", bytes.len()),
        ));
    }
    if bytes.get(..8) != Some(SEGMENT_MAGIC.as_slice()) {
        return Err(corrupt(0, "bad segment magic".to_string()));
    }
    let mut offset = SEGMENT_HEADER_LEN as usize;
    let mut torn = false;
    while offset < bytes.len() {
        let frame_start = offset as u64;
        let torn_or_corrupt = |detail: String, reaches_eof: bool| -> Result<()> {
            if is_last && reaches_eof {
                Ok(())
            } else {
                Err(corrupt(frame_start, detail))
            }
        };
        if bytes.len() - offset < FRAME_HEADER_LEN as usize {
            torn_or_corrupt(
                format!(
                    "{} stray bytes where a frame header belongs",
                    bytes.len() - offset
                ),
                true,
            )?;
            torn = true;
            break;
        }
        // The header-length check above guarantees 8 bytes remain; decoding
        // through a cursor keeps this branch panic-free even if it did not.
        let mut header = bytes.get(offset..).unwrap_or(&[]);
        let len = cdas_core::codec::take_array::<4>(&mut header)
            .map(u32::from_le_bytes)
            .map_err(|e| corrupt(frame_start, format!("frame header: {e}")))?
            as usize;
        let stored_crc = cdas_core::codec::take_array::<4>(&mut header)
            .map(u32::from_le_bytes)
            .map_err(|e| corrupt(frame_start, format!("frame header: {e}")))?;
        let payload_start = offset + FRAME_HEADER_LEN as usize;
        if bytes.len() - payload_start < len {
            torn_or_corrupt(
                format!(
                    "frame claims {len} payload bytes, only {} remain",
                    bytes.len() - payload_start
                ),
                true,
            )?;
            torn = true;
            break;
        }
        // The remaining-bytes check above bounds the range; an (unreachable)
        // miss reads as an empty payload and fails the CRC below.
        let payload = bytes.get(payload_start..payload_start + len).unwrap_or(&[]);
        if crc32(payload) != stored_crc {
            // A CRC failure is tolerated only when the damaged frame is the very last
            // thing in the final segment — a flipped byte mid-file is corruption even
            // there.
            torn_or_corrupt(
                "crc mismatch".to_string(),
                payload_start + len == bytes.len(),
            )?;
            torn = true;
            break;
        }
        let record = JournalRecord::from_bytes(payload)
            .map_err(|e| corrupt(frame_start, format!("undecodable record: {e}")))?;
        records.push(record);
        offset = payload_start + len;
    }
    Ok(SegmentScan {
        valid_end: offset.min(bytes.len()) as u64,
        torn,
    })
}

/// Where a re-opened journal resumes: its final segment.
struct Tail {
    index: u64,
    path: PathBuf,
    /// Byte offset just past the segment's last intact frame.
    valid_end: u64,
}

/// Scan every segment in `dir` in index order — the one read path of [`Journal::read`]
/// and [`Journal::open_append`]. Returns the contents and, unless `dir` holds no
/// segment, the [`Tail`].
fn scan_dir(dir: &Path) -> Result<(JournalContents, Option<Tail>)> {
    let segments = list_segments(dir)?;
    let count = segments.len();
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut tail = None;
    for (i, (index, path)) in segments.into_iter().enumerate() {
        let is_last = i + 1 == count;
        let scan = scan_segment(&path, is_last, &mut records)?;
        if is_last {
            torn_tail = scan.torn;
            tail = Some(Tail {
                index,
                path,
                valid_end: scan.valid_end,
            });
        }
    }
    let contents = JournalContents {
        records,
        torn_tail,
        segments: count,
    };
    Ok((contents, tail))
}

impl Journal {
    /// Create a fresh journal in `dir` (creating the directory, deleting any previous
    /// run's segments) and open segment 0 for appending.
    pub fn create(dir: impl AsRef<Path>, config: JournalConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        for (_, path) in list_segments(&dir)? {
            std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
        let mut journal = Journal {
            dir,
            config,
            segment_index: 0,
            file: None,
            segment_bytes: 0,
            written_total: 0,
            buffer: Vec::new(),
            scratch: Vec::new(),
            pending_commits: 0,
            pending_since: None,
            syncs_performed: 0,
        };
        journal.open_segment()?;
        Ok(journal)
    }

    /// Read the journal in `dir` and re-open it for appending, physically truncating a
    /// torn tail off the final segment first. Returns the journal positioned at the end
    /// together with everything intact that was read. `config.fail_writes_after` counts
    /// from this re-open, not from the original run's writes.
    pub fn open_append(
        dir: impl AsRef<Path>,
        config: JournalConfig,
    ) -> Result<(Self, JournalContents)> {
        let dir = dir.as_ref().to_path_buf();
        let (contents, tail) = scan_dir(&dir)?;
        let Some(tail) = tail else {
            return Ok((Journal::create(&dir, config)?, contents));
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tail.path)
            .map_err(|e| io_err(&tail.path, e))?;
        file.set_len(tail.valid_end.max(SEGMENT_HEADER_LEN))
            .map_err(|e| io_err(&tail.path, e))?;
        let mut journal = Journal {
            dir,
            config,
            segment_index: tail.index,
            file: Some(file),
            segment_bytes: tail.valid_end.max(SEGMENT_HEADER_LEN),
            written_total: 0,
            buffer: Vec::new(),
            scratch: Vec::new(),
            pending_commits: 0,
            pending_since: None,
            syncs_performed: 0,
        };
        if tail.valid_end < SEGMENT_HEADER_LEN {
            // The torn final segment did not even finish its header: rewrite it.
            journal.segment_bytes = 0;
            journal.write_header()?;
        } else if let Some(file) = journal.file.as_mut() {
            file.seek(SeekFrom::End(0))
                .map_err(|e| io_err(&journal.dir, e))?;
        }
        Ok((journal, contents))
    }

    /// Read every record of the journal in `dir` without opening it for writes,
    /// tolerating (and flagging) a torn tail on the final segment.
    pub fn read(dir: impl AsRef<Path>) -> Result<JournalContents> {
        scan_dir(dir.as_ref()).map(|(contents, _)| contents)
    }

    /// Append one record, rotating segments as configured and fsyncing according to the
    /// [`SyncPolicy`]. Silently drops the write (simulating a dead process) once the
    /// `fail_writes_after` failpoint has fired.
    pub fn append(&mut self, record: &JournalRecord) -> Result<()> {
        if self.file.is_none() {
            return Ok(());
        }
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        record.encode(&mut payload);
        let appended = self.append_payload(&payload, record.is_commit_class());
        self.scratch = payload;
        appended
    }

    /// Frame an encoded record payload into the current segment and apply the
    /// [`SyncPolicy`]. The frame goes straight into the append buffer — no
    /// intermediate copy.
    fn append_payload(&mut self, payload: &[u8], commit_class: bool) -> Result<()> {
        let frame_len = payload.len() as u64 + FRAME_HEADER_LEN;
        if self.segment_bytes > SEGMENT_HEADER_LEN
            && self.segment_bytes + frame_len > self.config.max_segment_bytes
        {
            self.rotate()?;
        }
        self.buffer_bytes(&(payload.len() as u32).to_le_bytes());
        self.buffer_bytes(&crc32(payload).to_le_bytes());
        self.buffer_bytes(payload);
        if self.buffer.len() >= BUFFER_FLUSH_BYTES {
            self.flush_buffer()?;
        }
        if !commit_class {
            return Ok(());
        }
        match self.config.sync {
            SyncPolicy::Commits => self.sync()?,
            SyncPolicy::GroupCommit {
                max_batch,
                max_delay_ms,
            } => {
                self.pending_commits += 1;
                // cdas-allow(determinism): fsync pacing only, never feeds simulated state
                let now = std::time::Instant::now();
                let overdue = self.pending_since.is_some_and(|since| {
                    now.duration_since(since).as_millis() >= u128::from(max_delay_ms)
                });
                if self.pending_since.is_none() {
                    self.pending_since = Some(now);
                }
                if self.pending_commits >= max_batch.max(1) || overdue {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage (no-op after a write kill).
    /// Drains the append buffer and closes any open group-commit batch.
    pub fn sync(&mut self) -> Result<()> {
        self.flush_buffer()?;
        if let Some(file) = self.file.as_mut() {
            file.sync_data().map_err(|e| io_err(&self.dir, e))?;
            self.syncs_performed += 1;
        }
        self.pending_commits = 0;
        self.pending_since = None;
        Ok(())
    }

    /// Number of fsyncs issued through this handle so far.
    pub fn syncs_performed(&self) -> u64 {
        self.syncs_performed
    }

    /// Commit-class records appended since the last fsync (the open group-commit
    /// batch; always `0` under [`SyncPolicy::Commits`], which syncs inline).
    pub fn pending_commits(&self) -> usize {
        self.pending_commits
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes handed to the OS through this handle (including segment headers);
    /// still-buffered frames are not counted until they flush.
    pub fn bytes_written(&self) -> u64 {
        self.written_total
    }

    /// Whether the write-kill failpoint has fired (all further appends are dropped).
    pub fn is_dead(&self) -> bool {
        self.file.is_none()
    }

    /// Test helper: chop `bytes` off the end of the final segment, simulating a tail
    /// lost to a crash before it reached the disk. Returns the segment's new length.
    pub fn truncate_tail(dir: impl AsRef<Path>, bytes: u64) -> Result<u64> {
        let dir = dir.as_ref();
        let segments = list_segments(dir)?;
        let Some((_, path)) = segments.last() else {
            return Err(CdasError::JournalEmpty);
        };
        let len = std::fs::metadata(path).map_err(|e| io_err(path, e))?.len();
        let new_len = len.saturating_sub(bytes);
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(new_len).map_err(|e| io_err(path, e))?;
        Ok(new_len)
    }

    /// Test helper: flip one byte `offset_from_end` bytes before the end of the final
    /// segment (`1` = the very last byte), simulating tail corruption.
    pub fn corrupt_tail_byte(dir: impl AsRef<Path>, offset_from_end: u64) -> Result<()> {
        let dir = dir.as_ref();
        let segments = list_segments(dir)?;
        let Some((_, path)) = segments.last() else {
            return Err(CdasError::JournalEmpty);
        };
        let len = std::fs::metadata(path).map_err(|e| io_err(path, e))?.len();
        if offset_from_end == 0 || offset_from_end > len {
            return Err(CdasError::JournalIo {
                path: path.display().to_string(),
                detail: format!(
                    "cannot corrupt byte {offset_from_end} from the end of a {len}-byte segment"
                ),
            });
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        let pos = len - offset_from_end;
        file.seek(SeekFrom::Start(pos))
            .map_err(|e| io_err(path, e))?;
        let mut byte = [0u8];
        file.read_exact(&mut byte).map_err(|e| io_err(path, e))?;
        let [b] = &mut byte;
        *b ^= 0xFF;
        file.seek(SeekFrom::Start(pos))
            .map_err(|e| io_err(path, e))?;
        file.write_all(&byte).map_err(|e| io_err(path, e))?;
        Ok(())
    }

    fn segment_path(&self, index: u64) -> PathBuf {
        self.dir.join(segment_name(index))
    }

    fn open_segment(&mut self) -> Result<()> {
        let path = self.segment_path(self.segment_index);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        self.file = Some(file);
        self.segment_bytes = 0;
        self.write_header()
    }

    fn write_header(&mut self) -> Result<()> {
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&self.segment_index.to_le_bytes());
        self.buffer_bytes(&header);
        Ok(())
    }

    /// Queue bytes for the current segment (dropped silently once the handle is dead).
    /// `segment_bytes` advances here — rotation decisions see the logical position —
    /// while `written_total` (the failpoint counter) advances only at flush.
    fn buffer_bytes(&mut self, bytes: &[u8]) {
        if self.file.is_none() {
            return;
        }
        self.buffer.extend_from_slice(bytes);
        self.segment_bytes += bytes.len() as u64;
    }

    /// Hand the buffered frames to the OS in one write (where the write-kill
    /// failpoint, which models a dead process, may truncate the stream mid-frame).
    fn flush_buffer(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let bytes = std::mem::take(&mut self.buffer);
        self.write_bytes(&bytes)
    }

    fn rotate(&mut self) -> Result<()> {
        self.sync()?;
        self.segment_index += 1;
        self.open_segment()
    }

    /// Write raw bytes through the write-kill failpoint: once `fail_writes_after` total
    /// bytes have been written, the remainder of this write (and everything after it)
    /// is silently dropped and the handle goes dead — exactly what the filesystem sees
    /// when the writing process is killed mid-`write`.
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        let allowed = match self.config.fail_writes_after {
            None => bytes.len(),
            Some(limit) => {
                let remaining = limit.saturating_sub(self.written_total);
                usize::try_from(remaining)
                    .unwrap_or(usize::MAX)
                    .min(bytes.len())
            }
        };
        if allowed > 0 {
            // `allowed` is clamped to `bytes.len()` above.
            file.write_all(bytes.get(..allowed).unwrap_or(bytes))
                .map_err(|e| io_err(&self.dir, e))?;
            self.written_total += allowed as u64;
        }
        if allowed < bytes.len() {
            // Failpoint fired mid-frame: leave the partial prefix on disk (the torn
            // tail a real crash leaves) and drop the handle without flushing anything
            // further.
            self.file = None;
        }
        Ok(())
    }
}

impl Drop for Journal {
    /// A handle dropped without a final sync still hands its buffered frames to the
    /// OS, matching the unbuffered behavior readers relied on (a write-killed handle
    /// has `file: None`, so its buffer stays dropped — the simulated process is dead).
    /// A flush error here is crash wreckage recovery already tolerates: a torn tail.
    fn drop(&mut self) {
        let _ = self.flush_buffer();
    }
}

#[cfg(test)]
mod tests {
    use super::crc32;

    /// Byte-at-a-time reference: the textbook reflected CRC-32 the slice-by-8
    /// implementation must agree with on every input length (the length sweep
    /// exercises both the 8-byte fast path and the remainder tail).
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_check_value() {
        // The standard CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_agrees_with_the_reference_at_every_length() {
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(131).wrapping_add(7) % 251) as u8)
            .collect();
        for len in 0..data.len() {
            let slice = data.get(..len).unwrap_or(&[]);
            assert_eq!(crc32(slice), crc32_reference(slice), "length {len}");
        }
    }
}
