//! Per-shard append-only feedback journal.
//!
//! A durable shard writes each ingested batch to its journal **before**
//! applying it to in-memory state, so its state is always a pure fold
//! over its journal: the supervisor rebuilds a crashed worker by
//! replaying the journal (past the newest snapshot), and a service
//! restarted on the same journal directory warm-starts with no feedback
//! lost. An ephemeral shard has no journal at all — its per-server state
//! is the only copy and survives a worker crash in place (see
//! the supervision section of DESIGN.md).
//!
//! # On-disk format
//!
//! A journal file is a fixed header followed by framed records:
//!
//! ```text
//! header v1: magic "HPJL" | version=1 u32 LE | shard u32 LE | shards u32 LE
//! header v2: magic "HPJL" | version=2 u32 LE | shard u32 LE | shards u32 LE
//!            | base_records u64 LE
//! record:    len u32 LE | crc32(payload) u32 LE | payload (len bytes)
//! payload:   time u64 LE | server u64 LE | client u64 LE | rating u8
//! ```
//!
//! A fresh journal is always v1. The v2 header exists only for
//! *compacted* journals ([`FileJournal::compact_to`]): once a snapshot
//! durably covers a prefix of the sequence, the covered records are
//! dropped and `base_records` remembers how many — record indexes stay
//! *absolute* across compactions, so quarantine bookkeeping and snapshot
//! manifests never shift meaning. A compacted journal can only be folded
//! on top of a snapshot; replaying it from zero is an explicit error at
//! the recovery layer, never a silently wrong state.
//!
//! The shard index and shard count are part of the header because journal
//! contents are partitioned by the service's shard hash: replaying a
//! shard-3-of-8 journal into a 4-shard service would scatter feedback onto
//! the wrong workers. Opening a journal whose header disagrees with the
//! running topology is an explicit [`JournalError::ShardMismatch`].
//!
//! Recovery tolerates exactly one failure shape at the tail — a torn final
//! record from a crash mid-write (short frame, short payload, or checksum
//! mismatch). The torn bytes are truncated and reported; corruption
//! *before* the tail is indistinguishable from a torn tail only if every
//! later record is also discarded, which is what truncation does.

use hp_core::{ClientId, Feedback, Rating, ServerId};
/// CRC-32 (IEEE) of the record frames and snapshot bodies: the
/// workspace's one implementation, in `hp-store`.
pub use hp_store::durable::crc32;
use hp_store::durable::publish;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"HPJL";
const VERSION: u32 = 1;
/// Header version of a compacted journal (carries `base_records`).
const VERSION_COMPACTED: u32 = 2;
const HEADER_LEN: u64 = 16;
const HEADER_LEN_COMPACTED: u64 = 24;
const RECORD_PAYLOAD_LEN: usize = 25;
const FRAME_LEN: usize = 8;

/// On-disk size of one framed record (frame + payload).
pub const RECORD_LEN: u64 = (FRAME_LEN + RECORD_PAYLOAD_LEN) as u64;

/// When the journal flushes its buffer and asks the OS to make appended
/// records durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on OS write-back. Survives process crashes (the
    /// kernel has the bytes) but not power loss.
    Never,
    /// Fsync after every appended batch — the strongest setting.
    #[default]
    EveryBatch,
    /// Fsync once per `n` appended records (amortized durability).
    EveryN(
        /// Number of appended records between fsyncs (`0` acts like
        /// [`FsyncPolicy::Never`]).
        u64,
    ),
}

/// Errors from journal I/O and recovery.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file exists but its header is not a journal header.
    BadHeader {
        /// The offending journal path.
        path: PathBuf,
    },
    /// The journal was written by a different shard topology.
    ShardMismatch {
        /// Shard index recorded in the journal header.
        found_shard: u32,
        /// Shard count recorded in the journal header.
        found_shards: u32,
        /// Shard index the service expected.
        expected_shard: u32,
        /// Shard count the service expected.
        expected_shards: u32,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadHeader { path } => {
                write!(f, "not a feedback journal: {}", path.display())
            }
            JournalError::ShardMismatch {
                found_shard,
                found_shards,
                expected_shard,
                expected_shards,
            } => write!(
                f,
                "journal belongs to shard {found_shard}/{found_shards}, \
                 service expected {expected_shard}/{expected_shards}"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`read_journal`] (and hence recovery) found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every intact record scanned, in append order.
    pub feedbacks: Vec<Feedback>,
    /// Bytes discarded from a torn tail (`0` for a clean journal).
    pub torn_bytes: u64,
    /// Absolute index of `feedbacks[0]` in the full durable sequence:
    /// the compaction base plus any records deliberately skipped by
    /// [`read_journal_from`].
    pub first_record: u64,
    /// Records compacted out of the file (the v2 header base; `0` for a
    /// v1 journal).
    pub base_records: u64,
    /// Bytes of file header preceding the first frame (16 for v1, 24
    /// for a compacted v2 journal).
    pub header_bytes: u64,
}

/// Accounting returned by an append so the worker can update counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendInfo {
    /// Records appended.
    pub records: u64,
    /// Bytes appended (frames + payloads).
    pub bytes: u64,
    /// Whether this append ended with an fsync.
    pub synced: bool,
    /// Time the fsync took, in nanoseconds (`0` when `!synced`).
    pub sync_ns: u64,
}

fn encode_payload(f: &Feedback) -> [u8; RECORD_PAYLOAD_LEN] {
    let mut buf = [0u8; RECORD_PAYLOAD_LEN];
    buf[0..8].copy_from_slice(&f.time.to_le_bytes());
    buf[8..16].copy_from_slice(&f.server.value().to_le_bytes());
    buf[16..24].copy_from_slice(&f.client.value().to_le_bytes());
    buf[24] = u8::from(f.is_good());
    buf
}

fn decode_payload(buf: &[u8]) -> Option<Feedback> {
    if buf.len() != RECORD_PAYLOAD_LEN {
        return None;
    }
    let time = u64::from_le_bytes(buf[0..8].try_into().ok()?);
    let server = u64::from_le_bytes(buf[8..16].try_into().ok()?);
    let client = u64::from_le_bytes(buf[16..24].try_into().ok()?);
    let rating = match buf[24] {
        0 => Rating::Negative,
        1 => Rating::Positive,
        _ => return None,
    };
    Some(Feedback::new(
        time,
        ServerId::new(server),
        ClientId::new(client),
        rating,
    ))
}

fn encode_header(shard: u32, shards: u32) -> [u8; HEADER_LEN as usize] {
    let mut buf = [0u8; HEADER_LEN as usize];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
    buf[8..12].copy_from_slice(&shard.to_le_bytes());
    buf[12..16].copy_from_slice(&shards.to_le_bytes());
    buf
}

fn encode_compacted_header(
    shard: u32,
    shards: u32,
    base_records: u64,
) -> [u8; HEADER_LEN_COMPACTED as usize] {
    let mut buf = [0u8; HEADER_LEN_COMPACTED as usize];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&VERSION_COMPACTED.to_le_bytes());
    buf[8..12].copy_from_slice(&shard.to_le_bytes());
    buf[12..16].copy_from_slice(&shards.to_le_bytes());
    buf[16..24].copy_from_slice(&base_records.to_le_bytes());
    buf
}

/// Reads a journal file: header check, then every intact record; a torn
/// tail (short frame/payload or checksum mismatch) ends the scan and is
/// reported in [`Recovered::torn_bytes`] without being treated as an
/// error. The file is not modified.
///
/// # Errors
///
/// [`JournalError::Io`] on read failure, [`JournalError::BadHeader`] if
/// the file is not a journal, [`JournalError::ShardMismatch`] if the
/// header names a different shard topology than `expect` (pass `None` to
/// skip the topology check).
pub fn read_journal(path: &Path, expect: Option<(u32, u32)>) -> Result<Recovered, JournalError> {
    read_journal_from(path, expect, 0)
}

/// [`read_journal`], starting the scan at absolute record `from_records`
/// instead of the top of the file — the snapshot-boot path, which only
/// needs the journal *tail* past what a snapshot already covers and must
/// not pay a CRC scan over the covered prefix.
///
/// The skipped prefix is trusted blind: whoever supplies `from_records`
/// (the snapshot manifest) vouches that the first `from_records` records
/// were durably written. An offset the file cannot honor — before the
/// compaction base, or past the end of the file — is clamped, and
/// [`Recovered::first_record`] reports where the scan actually started,
/// so a caller handing in a stale manifest offset sees the disagreement
/// instead of a silently wrong tail.
///
/// # Errors
///
/// As for [`read_journal`].
pub fn read_journal_from(
    path: &Path,
    expect: Option<(u32, u32)>,
    from_records: u64,
) -> Result<Recovered, JournalError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = [0u8; HEADER_LEN_COMPACTED as usize];
    let head_len = file_len.min(HEADER_LEN_COMPACTED) as usize;
    file.read_exact(&mut head[..head_len])?;
    if file_len < HEADER_LEN || head[0..4] != MAGIC {
        return Err(JournalError::BadHeader {
            path: path.to_path_buf(),
        });
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    let (header_bytes, base_records) = match version {
        VERSION => (HEADER_LEN, 0),
        VERSION_COMPACTED => {
            if file_len < HEADER_LEN_COMPACTED {
                return Err(JournalError::BadHeader {
                    path: path.to_path_buf(),
                });
            }
            (
                HEADER_LEN_COMPACTED,
                u64::from_le_bytes(head[16..24].try_into().expect("8 bytes")),
            )
        }
        _ => {
            return Err(JournalError::BadHeader {
                path: path.to_path_buf(),
            })
        }
    };
    let shard = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    let shards = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
    if let Some((expected_shard, expected_shards)) = expect {
        if (shard, shards) != (expected_shard, expected_shards) {
            return Err(JournalError::ShardMismatch {
                found_shard: shard,
                found_shards: shards,
                expected_shard,
                expected_shards,
            });
        }
    }

    // Seek past the trusted prefix without reading it, so a snapshot
    // boot pays I/O proportional to the journal *tail*, not the whole
    // file. An offset the file cannot honor falls back to the
    // compaction base (a full in-file scan); the caller detects that
    // via `first_record`.
    let mut skip = from_records.saturating_sub(base_records);
    if header_bytes + skip * RECORD_LEN > file_len {
        skip = 0;
    }
    let start = header_bytes + skip * RECORD_LEN;
    file.seek(SeekFrom::Start(start))?;
    let mut data = Vec::with_capacity((file_len - start) as usize);
    file.read_to_end(&mut data)?;
    let mut recovered = Recovered {
        first_record: base_records + skip,
        base_records,
        header_bytes,
        ..Recovered::default()
    };
    let mut at = 0usize;
    while at < data.len() {
        let rest = &data[at..];
        if rest.len() < FRAME_LEN {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len != RECORD_PAYLOAD_LEN || rest.len() < FRAME_LEN + len {
            break; // impossible length or torn payload
        }
        let payload = &rest[FRAME_LEN..FRAME_LEN + len];
        if crc32(payload) != crc {
            break; // torn / corrupt record
        }
        let Some(feedback) = decode_payload(payload) else {
            break; // checksummed but undecodable: treat as tail corruption
        };
        recovered.feedbacks.push(feedback);
        at += FRAME_LEN + len;
    }
    recovered.torn_bytes = (data.len() - at) as u64;
    Ok(recovered)
}

/// An append-only file journal for one shard.
///
/// Opening recovers existing records (truncating a torn tail in place) and
/// positions the writer at the end; [`FileJournal::append_batch`] frames
/// and checksums each feedback and applies the [`FsyncPolicy`].
#[derive(Debug)]
pub struct FileJournal {
    path: PathBuf,
    writer: BufWriter<File>,
    policy: FsyncPolicy,
    shard: u32,
    shards: u32,
    records_since_sync: u64,
    /// Absolute record count: compaction base + records in the file.
    records: u64,
    /// Records compacted out of the file (v2 header base).
    base_records: u64,
    /// Header bytes before the first frame in the current file.
    header_bytes: u64,
}

impl FileJournal {
    /// Opens (or creates) the journal for `shard` of `shards` at `path`.
    ///
    /// Returns the journal positioned for appends plus everything
    /// recovered from disk; a torn tail is truncated so the next append
    /// starts on a clean record boundary.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`], [`JournalError::BadHeader`], or
    /// [`JournalError::ShardMismatch`] as for [`read_journal`].
    pub fn open(
        path: &Path,
        shard: u32,
        shards: u32,
        policy: FsyncPolicy,
    ) -> Result<(Self, Recovered), JournalError> {
        Self::open_from(path, shard, shards, policy, 0)
    }

    /// [`FileJournal::open`] with a trusted prefix: the first
    /// `trusted_records` records (absolute) are assumed intact and not
    /// CRC-scanned, so a snapshot boot pays O(journal tail) instead of
    /// O(journal). The torn-tail truncation still happens — only the
    /// scan's starting point moves. An offset the file cannot honor
    /// degrades to a full scan (see [`read_journal_from`]).
    ///
    /// # Errors
    ///
    /// As for [`FileJournal::open`].
    pub fn open_from(
        path: &Path,
        shard: u32,
        shards: u32,
        policy: FsyncPolicy,
        trusted_records: u64,
    ) -> Result<(Self, Recovered), JournalError> {
        let fresh = !path.exists();
        let mut recovered = Recovered {
            header_bytes: HEADER_LEN,
            ..Recovered::default()
        };
        if !fresh {
            recovered = read_journal_from(path, Some((shard, shards)), trusted_records)?;
        }
        // `truncate(false)`: existing records must survive the open; the
        // torn tail (if any) is cut by the explicit `set_len` below.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        if fresh {
            file.write_all(&encode_header(shard, shards))?;
            file.sync_all()?;
            file.seek(SeekFrom::End(0))?;
        } else {
            // Truncate the torn tail so appends resume on a frame boundary.
            let in_file = recovered.first_record - recovered.base_records
                + recovered.feedbacks.len() as u64;
            let keep = recovered.header_bytes + in_file * RECORD_LEN;
            file.set_len(keep)?;
            file.seek(SeekFrom::Start(keep))?;
        }
        let records = recovered.first_record + recovered.feedbacks.len() as u64;
        Ok((
            FileJournal {
                path: path.to_path_buf(),
                writer: BufWriter::new(file),
                policy,
                shard,
                shards,
                records_since_sync: 0,
                records,
                base_records: recovered.base_records,
                header_bytes: recovered.header_bytes,
            },
            recovered,
        ))
    }

    /// Appends `batch` (frame + checksum per feedback), then flushes and
    /// fsyncs per the policy.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write or sync fails; the journal must
    /// then be considered torn at the tail (recovery handles it).
    pub fn append_batch(&mut self, batch: &[Feedback]) -> Result<AppendInfo, JournalError> {
        let mut info = AppendInfo::default();
        for feedback in batch {
            let payload = encode_payload(feedback);
            let mut frame = [0u8; FRAME_LEN];
            frame[0..4].copy_from_slice(&(RECORD_PAYLOAD_LEN as u32).to_le_bytes());
            frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
            self.writer.write_all(&frame)?;
            self.writer.write_all(&payload)?;
            info.records += 1;
            info.bytes += (FRAME_LEN + RECORD_PAYLOAD_LEN) as u64;
        }
        self.records += info.records;
        self.records_since_sync += info.records;
        self.writer.flush()?;
        let due = match self.policy {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::EveryN(n) => n > 0 && self.records_since_sync >= n,
        };
        if due {
            let t0 = std::time::Instant::now();
            self.sync()?;
            info.synced = true;
            info.sync_ns = t0.elapsed().as_nanos() as u64;
        }
        Ok(info)
    }

    /// Flushes buffered writes and fsyncs, regardless of policy.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the flush or sync fails.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        self.records_since_sync = 0;
        Ok(())
    }

    /// Absolute record count: records appended plus recovered since
    /// open, plus any compacted away before that.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records compacted out of the file (`0` until the first
    /// [`FileJournal::compact_to`]).
    pub fn base_records(&self) -> u64 {
        self.base_records
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drops every record before absolute index `upto` by rewriting the
    /// file with a v2 header whose base is `upto`. Callers must only
    /// pass an `upto` that a durable snapshot covers — after this, the
    /// journal alone can no longer rebuild the full sequence.
    ///
    /// Crash-safe: the compacted image is written to a temporary
    /// sibling, fsynced, renamed over the journal, and the directory
    /// fsynced — at every intermediate point the old or the new journal
    /// is intact on disk. Returns the number of records dropped
    /// (`0` when `upto` is at or below the current base).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`]; the original journal is untouched on error
    /// paths before the rename.
    pub fn compact_to(&mut self, upto: u64) -> Result<u64, JournalError> {
        self.sync()?;
        let upto = upto.min(self.records);
        if upto <= self.base_records {
            return Ok(0);
        }
        let dropped = upto - self.base_records;

        let mut tail = Vec::new();
        {
            let mut file = File::open(&self.path)?;
            file.seek(SeekFrom::Start(self.header_bytes + dropped * RECORD_LEN))?;
            file.read_to_end(&mut tail)?;
        }
        let tmp = self.path.with_extension("hpj.compact");
        publish(&tmp, &self.path, |file| {
            file.write_all(&encode_compacted_header(self.shard, self.shards, upto))?;
            file.write_all(&tail)
        })?;

        // Point the writer at the rewritten file.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.writer = BufWriter::new(file);
        self.base_records = upto;
        self.header_bytes = HEADER_LEN_COMPACTED;
        self.records_since_sync = 0;
        Ok(dropped)
    }

    /// Re-reads the durable sequence starting at absolute record
    /// `from_records`, returning `(start, feedbacks)` where `start` is
    /// the absolute index of `feedbacks[0]` — the offset actually
    /// honored. `start > from_records` means the journal begins past the
    /// requested point (compacted away); `start < from_records` means
    /// the request overshot the file and the scan fell back to the
    /// earliest retained record. Callers must check `start` before
    /// folding the tail onto anything.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be synced or re-read.
    pub fn replay_from(&mut self, from_records: u64) -> Result<(u64, Vec<Feedback>), JournalError> {
        self.sync()?;
        let recovered = read_journal_from(&self.path, None, from_records)?;
        Ok((recovered.first_record, recovered.feedbacks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feedback(t: u64, good: bool) -> Feedback {
        Feedback::new(t, ServerId::new(3), ClientId::new(t % 5), Rating::from_good(good))
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hp-service-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = format!(
            "{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        dir.join(unique)
    }

    #[test]
    fn round_trip_and_reopen() {
        let path = temp_path("round-trip");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..100).map(|t| feedback(t, t % 7 != 0)).collect();
        {
            let (mut journal, recovered) =
                FileJournal::open(&path, 0, 4, FsyncPolicy::EveryBatch).unwrap();
            assert!(recovered.feedbacks.is_empty());
            let info = journal.append_batch(&batch).unwrap();
            assert_eq!(info.records, 100);
            assert!(info.synced);
        }
        let (journal, recovered) = FileJournal::open(&path, 0, 4, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.feedbacks, batch);
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(journal.records(), 100);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = temp_path("torn-tail");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..10).map(|t| feedback(t, true)).collect();
        {
            let (mut journal, _) =
                FileJournal::open(&path, 1, 2, FsyncPolicy::EveryBatch).unwrap();
            journal.append_batch(&batch).unwrap();
        }
        // Tear the final record: chop 5 bytes off the file.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let recovered = read_journal(&path, Some((1, 2))).unwrap();
        assert_eq!(recovered.feedbacks, batch[..9].to_vec());
        assert_eq!(recovered.torn_bytes, (FRAME_LEN + RECORD_PAYLOAD_LEN) as u64 - 5);

        // Re-open truncates the tear; appends then continue cleanly.
        let (mut journal, recovered) =
            FileJournal::open(&path, 1, 2, FsyncPolicy::EveryBatch).unwrap();
        assert_eq!(recovered.feedbacks.len(), 9);
        journal.append_batch(&[feedback(99, false)]).unwrap();
        drop(journal);
        let recovered = read_journal(&path, Some((1, 2))).unwrap();
        assert_eq!(recovered.feedbacks.len(), 10);
        assert_eq!(recovered.feedbacks[9], feedback(99, false));
        assert_eq!(recovered.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_checksum_stops_the_scan() {
        let path = temp_path("bad-crc");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..4).map(|t| feedback(t, true)).collect();
        {
            let (mut journal, _) =
                FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
            journal.append_batch(&batch).unwrap();
        }
        // Flip one payload byte in the third record.
        let mut data = std::fs::read(&path).unwrap();
        let third_payload =
            HEADER_LEN as usize + 2 * (FRAME_LEN + RECORD_PAYLOAD_LEN) + FRAME_LEN;
        data[third_payload] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let recovered = read_journal(&path, None).unwrap();
        assert_eq!(recovered.feedbacks, batch[..2].to_vec());
        assert!(recovered.torn_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_mismatch_is_rejected() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) =
                FileJournal::open(&path, 2, 8, FsyncPolicy::Never).unwrap();
            journal.append_batch(&[feedback(0, true)]).unwrap();
            journal.sync().unwrap();
        }
        match FileJournal::open(&path, 2, 4, FsyncPolicy::Never) {
            Err(JournalError::ShardMismatch {
                found_shard: 2,
                found_shards: 8,
                expected_shard: 2,
                expected_shards: 4,
            }) => {}
            other => panic!("expected shard mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = temp_path("not-a-journal");
        std::fs::write(&path, b"definitely not a journal header").unwrap();
        assert!(matches!(
            read_journal(&path, None),
            Err(JournalError::BadHeader { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_n_policy_syncs_on_schedule() {
        let path = temp_path("every-n");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) =
            FileJournal::open(&path, 0, 1, FsyncPolicy::EveryN(5)).unwrap();
        let info = journal.append_batch(&[feedback(0, true), feedback(1, true)]).unwrap();
        assert!(!info.synced);
        let info = journal
            .append_batch(&(2..6).map(|t| feedback(t, true)).collect::<Vec<_>>())
            .unwrap();
        assert!(info.synced, "5th record crosses the sync threshold");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_absolute_indexing_across_reopen() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..50).map(|t| feedback(t, t % 3 != 0)).collect();
        {
            let (mut journal, _) = FileJournal::open(&path, 0, 2, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch).unwrap();
            assert_eq!(journal.compact_to(30).unwrap(), 30);
            assert_eq!(journal.base_records(), 30);
            assert_eq!(journal.records(), 50, "absolute count is unchanged");
            // Appends continue on the compacted file.
            journal.append_batch(&[feedback(50, true)]).unwrap();
            journal.sync().unwrap();
            // Compacting below the base is a no-op.
            assert_eq!(journal.compact_to(10).unwrap(), 0);
        }
        let recovered = read_journal(&path, Some((0, 2))).unwrap();
        assert_eq!(recovered.base_records, 30);
        assert_eq!(recovered.first_record, 30);
        assert_eq!(recovered.feedbacks[..20], batch[30..]);
        assert_eq!(recovered.feedbacks[20], feedback(50, true));

        let (journal, recovered) = FileJournal::open(&path, 0, 2, FsyncPolicy::Never).unwrap();
        assert_eq!(journal.records(), 51);
        assert_eq!(journal.base_records(), 30);
        assert_eq!(recovered.feedbacks.len(), 21);
        assert!(!path.with_extension("hpj.compact").exists());
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trusted_offset_scan_returns_only_the_tail() {
        let path = temp_path("trusted");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..40).map(|t| feedback(t, true)).collect();
        {
            let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch).unwrap();
            journal.sync().unwrap();
        }
        let recovered = read_journal_from(&path, Some((0, 1)), 25).unwrap();
        assert_eq!(recovered.first_record, 25);
        assert_eq!(recovered.feedbacks, batch[25..].to_vec());

        // An overshooting offset (stale manifest) degrades to a full scan.
        let recovered = read_journal_from(&path, Some((0, 1)), 900).unwrap();
        assert_eq!(recovered.first_record, 0);
        assert_eq!(recovered.feedbacks.len(), 40);

        // Trusted open truncates a torn tail without scanning the prefix.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);
        let (journal, recovered) =
            FileJournal::open_from(&path, 0, 1, FsyncPolicy::Never, 25).unwrap();
        assert_eq!(recovered.first_record, 25);
        assert_eq!(recovered.feedbacks, batch[25..39].to_vec());
        assert_eq!(journal.records(), 39);
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_from_reports_the_honored_start() {
        let batch: Vec<Feedback> = (0..30).map(|t| feedback(t, t % 2 == 0)).collect();
        let path = temp_path("replay-from");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
        journal.append_batch(&batch).unwrap();
        assert_eq!(journal.replay_from(10).unwrap(), (10, batch[10..].to_vec()));
        journal.compact_to(20).unwrap();
        // Tail past the base replays; a from-zero request now starts at
        // the base, which recovery treats as "snapshot required".
        assert_eq!(journal.replay_from(25).unwrap(), (25, batch[25..].to_vec()));
        assert_eq!(journal.replay_from(0).unwrap(), (20, batch[20..].to_vec()));
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }
}
