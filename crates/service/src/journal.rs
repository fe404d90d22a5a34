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
//! The header, the record frame, the torn-tail scan, the error and the
//! durable create are [`hp_store::durable`]'s, and the payload is the
//! feedback record of [`hp_store::persist`]; this module owns the
//! versions and the trusted-offset arithmetic.
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
//! running topology is an explicit [`Error::Corrupt`].
//!
//! Recovery tolerates exactly one failure shape at the tail — a torn final
//! record from a crash mid-write (short frame, short payload, or checksum
//! mismatch). The torn bytes are truncated and reported; corruption
//! *before* the tail is indistinguishable from a torn tail only if every
//! later record is also discarded, which is what truncation does.

use hp_core::Feedback;
use hp_store::durable::{self, publish, Error, Put, Reader};
use hp_store::persist::{decode_feedback, encode_feedback, FEEDBACK_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"HPJL";
const VERSION: u32 = 1;
/// Header version of a compacted journal (carries `base_records`).
const VERSION_COMPACTED: u32 = 2;
const HEADER_LEN: u64 = 16;
const HEADER_LEN_COMPACTED: u64 = 24;
const FRAME_LEN: usize = 8;

/// On-disk size of one framed record (frame + payload).
pub const RECORD_LEN: u64 = (FRAME_LEN + FEEDBACK_LEN) as u64;

/// When the journal asks the OS to make appended records durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on OS write-back. Survives process crashes (the
    /// kernel has the bytes) but not power loss.
    Never,
    /// Fsync after every appended batch — the strongest setting.
    #[default]
    EveryBatch,
}

/// What [`read_journal`] (and hence recovery) found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every intact record scanned, in append order.
    pub feedbacks: Vec<Feedback>,
    /// Bytes discarded from a torn tail (`0` for a clean journal).
    pub torn_bytes: u64,
    /// Where and why the scan stopped short of the end of the file
    /// (`None` for a clean journal).
    pub torn: Option<Error>,
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

/// The v1 header, or the v2 header of a journal compacted to `base`.
fn header(shard: u32, shards: u32, base: Option<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN_COMPACTED as usize);
    out.put_header(&MAGIC, base.map_or(VERSION, |_| VERSION_COMPACTED), shard);
    out.put_u32(shards);
    if let Some(base) = base {
        out.put_u64(base);
    }
    debug_assert_eq!(
        out.len() as u64,
        base.map_or(HEADER_LEN, |_| HEADER_LEN_COMPACTED)
    );
    out
}

/// Reads a journal file: header check, then every intact record; a torn
/// tail (short frame/payload or checksum mismatch) ends the scan and is
/// reported in [`Recovered::torn_bytes`] and [`Recovered::torn`] without
/// being treated as an error. The file is not modified.
///
/// # Errors
///
/// [`Error::Io`] on read failure; [`Error::Corrupt`] if the file is not
/// a journal or its header names another shard topology than `expect`
/// (pass `None` to skip the topology check).
pub fn read_journal(path: &Path, expect: Option<(u32, u32)>) -> Result<Recovered, Error> {
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
/// compaction base, past the end of the file, or past any offset a `u64`
/// can address — falls back to the compaction base (a full in-file
/// scan), and [`Recovered::first_record`] reports where the scan actually
/// started, so a caller handing in a stale manifest offset sees the
/// disagreement instead of a silently wrong tail. Errors as for
/// [`read_journal`].
pub fn read_journal_from(
    path: &Path,
    expect: Option<(u32, u32)>,
    from_records: u64,
) -> Result<Recovered, Error> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = [0u8; HEADER_LEN_COMPACTED as usize];
    let head_len = file_len.min(HEADER_LEN_COMPACTED) as usize;
    file.read_exact(&mut head[..head_len])?;
    let mut r = Reader::new(path, &head[..head_len], 0);
    let version = r.header(&MAGIC, &[VERSION, VERSION_COMPACTED], expect.map(|e| e.0))?;
    let shards = r.u32("truncated header")?;
    if expect.is_some_and(|(_, expected)| expected != shards) {
        return Err(r.corrupt("journal of another shard count"));
    }
    let base_records = match version {
        VERSION => 0,
        _ => r.u64("truncated header")?,
    };
    if base_records.checked_add(file_len).is_none() {
        return Err(r.corrupt("compaction base past any record count"));
    }
    let header_bytes = r.offset();

    // Seek past the trusted prefix without reading it, so a snapshot
    // boot pays I/O proportional to the journal *tail*, not the whole
    // file.
    let skip = from_records.saturating_sub(base_records);
    let (skip, start) = skip
        .checked_mul(RECORD_LEN)
        .and_then(|bytes| bytes.checked_add(header_bytes))
        .filter(|&start| start <= file_len)
        .map_or((0, header_bytes), |start| (skip, start));
    file.seek(SeekFrom::Start(start))?;
    let mut data = Vec::with_capacity((file_len - start) as usize);
    file.read_to_end(&mut data)?;
    let mut records = Reader::new(path, &data, start);
    let mut feedbacks = Vec::new();
    let torn = records.scan_frames(|payload| {
        feedbacks.push(decode_feedback(payload).ok_or("checksummed but undecodable record")?);
        Ok(())
    });
    Ok(Recovered {
        feedbacks,
        torn_bytes: records.remaining() as u64,
        torn,
        first_record: base_records + skip,
        base_records,
        header_bytes,
    })
}

/// An append-only file journal for one shard.
///
/// Opening recovers existing records (truncating a torn tail in place) and
/// positions the writer at the end; [`FileJournal::append_batch`] frames
/// and checksums each feedback and applies the [`FsyncPolicy`].
#[derive(Debug)]
pub struct FileJournal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    shard: u32,
    shards: u32,
    /// Absolute record count: compaction base + records in the file.
    records: u64,
    /// Records compacted out of the file (v2 header base).
    base_records: u64,
    /// Header bytes before the first frame in the current file.
    header_bytes: u64,
    /// Set by [`FileJournal::fail_next_append`]: the next append writes
    /// half its frames, then fails as a full disk would.
    fail_next: bool,
    /// A failed append could not cut the file back, so its tail may hold
    /// frames of a refused batch: nothing more is appended until a reopen
    /// recovers the file.
    torn: bool,
}

impl FileJournal {
    /// Opens (or creates) the journal for `shard` of `shards` at `path`.
    ///
    /// Returns the journal positioned for appends plus everything
    /// recovered from disk; a torn tail is truncated so the next append
    /// starts on a clean record boundary. Errors as for [`read_journal`].
    pub fn open(
        path: &Path,
        shard: u32,
        shards: u32,
        policy: FsyncPolicy,
    ) -> Result<(Self, Recovered), Error> {
        Self::open_from(path, shard, shards, policy, 0)
    }

    /// [`FileJournal::open`] with a trusted prefix: the first
    /// `trusted_records` records (absolute) are assumed intact and not
    /// CRC-scanned, so a snapshot boot pays O(journal tail) instead of
    /// O(journal). The torn-tail truncation still happens — only the
    /// scan's starting point moves. An offset the file cannot honor
    /// degrades to a full scan (see [`read_journal_from`]). A fresh
    /// journal's header is published durably; the temp of a compaction
    /// a crash interrupted is deleted.
    pub fn open_from(
        path: &Path,
        shard: u32,
        shards: u32,
        policy: FsyncPolicy,
        trusted_records: u64,
    ) -> Result<(Self, Recovered), Error> {
        durable::remove([durable::temp_path(path)])?;
        if !path.exists() {
            publish(path, |file| file.write_all(&header(shard, shards, None)))?;
        }
        let recovered = read_journal_from(path, Some((shard, shards)), trusted_records)?;
        // Cut the torn tail so appends resume on a frame boundary.
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(file.metadata()?.len() - recovered.torn_bytes)?;
        Ok((
            FileJournal {
                path: path.to_path_buf(),
                file,
                policy,
                shard,
                shards,
                records: recovered.first_record + recovered.feedbacks.len() as u64,
                base_records: recovered.base_records,
                header_bytes: recovered.header_bytes,
                fail_next: false,
                torn: false,
            },
            recovered,
        ))
    }

    /// Appends `batch` (one frame per feedback) in one write, then fsyncs
    /// per the policy; all or nothing, as [`FileJournal::append_batches`].
    pub fn append_batch(&mut self, batch: &[Feedback]) -> Result<AppendInfo, Error> {
        self.append_batches(&[batch])
    }

    /// Appends every batch, in order, with one write, then fsyncs per the
    /// policy — a group commit. An append is all or nothing: on an
    /// [`Error::Io`], from the write or the fsync, the file is cut back to
    /// where the append began, so a refused group leaves no record behind
    /// and the next append starts on a frame boundary. Should that cut
    /// fail too, every later append is refused until a reopen recovers
    /// the file.
    pub fn append_batches<B: AsRef<[Feedback]>>(
        &mut self,
        batches: &[B],
    ) -> Result<AppendInfo, Error> {
        if self.torn {
            return Err(Error::Io(io::Error::other(
                "a failed append left the tail torn; reopen to recover",
            )));
        }
        let records: usize = batches.iter().map(|b| b.as_ref().len()).sum();
        let mut frames = Vec::with_capacity(records * RECORD_LEN as usize);
        for feedback in batches.iter().flat_map(AsRef::as_ref) {
            frames.put_frame(&encode_feedback(feedback));
        }
        let mut info = AppendInfo {
            records: records as u64,
            bytes: frames.len() as u64,
            ..AppendInfo::default()
        };
        if let Err(e) = self.write_and_sync(&frames, &mut info) {
            let len = self.header_bytes + (self.records - self.base_records) * RECORD_LEN;
            self.torn = self.file.set_len(len).is_err();
            return Err(e.into());
        }
        self.records += info.records;
        Ok(info)
    }

    fn write_and_sync(&mut self, frames: &[u8], info: &mut AppendInfo) -> io::Result<()> {
        if std::mem::take(&mut self.fail_next) {
            self.file.write_all(&frames[..frames.len() / 2])?;
            return Err(io::ErrorKind::StorageFull.into());
        }
        self.file.write_all(frames)?;
        if self.policy == FsyncPolicy::EveryBatch {
            let t0 = std::time::Instant::now();
            self.file.sync_all()?;
            info.synced = true;
            info.sync_ns = t0.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Makes the next append write half its frames and then fail with
    /// `StorageFull` — the I/O fault the service's fault plans inject.
    pub(crate) fn fail_next_append(&mut self) {
        self.fail_next = true;
    }

    /// Fsyncs, regardless of policy.
    pub fn sync(&mut self) -> Result<(), Error> {
        Ok(self.file.sync_all()?)
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

    /// Drops every record before absolute index `upto` by publishing
    /// (see [`durable::publish`]) a copy of the file with a v2 header
    /// whose base is `upto`. Callers must only pass an `upto` that a
    /// durable snapshot covers — after this, the journal alone can no
    /// longer rebuild the full sequence. Returns the number of records
    /// dropped (`0` when `upto` is at or below the current base); on an
    /// [`Error::Io`] before the rename the original journal is untouched.
    pub fn compact_to(&mut self, upto: u64) -> Result<u64, Error> {
        self.sync()?;
        let upto = upto.min(self.records);
        if upto <= self.base_records {
            return Ok(0);
        }
        let dropped = upto - self.base_records;
        let mut tail = Vec::new();
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.header_bytes + dropped * RECORD_LEN))?;
        file.read_to_end(&mut tail)?;
        publish(&self.path, |file| {
            file.write_all(&header(self.shard, self.shards, Some(upto)))?;
            file.write_all(&tail)
        })?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.base_records = upto;
        self.header_bytes = HEADER_LEN_COMPACTED;
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
    pub fn replay_from(&mut self, from_records: u64) -> Result<(u64, Vec<Feedback>), Error> {
        self.sync()?;
        let recovered = read_journal_from(&self.path, None, from_records)?;
        Ok((recovered.first_record, recovered.feedbacks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, Rating, ServerId};
    use proptest::prelude::*;

    fn feedback(t: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(3),
            ClientId::new(t % 5),
            Rating::from_good(good),
        )
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
    fn a_failed_append_leaves_no_record_behind() {
        let path = temp_path("failed-append");
        let _ = std::fs::remove_file(&path);
        let batch =
            |from: u64| -> Vec<Feedback> { (from..from + 10).map(|t| feedback(t, true)).collect() };
        let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
        journal.append_batch(&batch(0)).unwrap();
        journal.fail_next_append();
        assert!(matches!(
            journal.append_batch(&batch(10)),
            Err(Error::Io(_))
        ));
        assert_eq!(journal.records(), 10, "the refused batch is not counted");
        journal.append_batch(&batch(20)).unwrap();
        drop(journal);
        let recovered = read_journal(&path, Some((0, 1))).unwrap();
        assert_eq!(recovered.feedbacks, [batch(0), batch(20)].concat());
        assert_eq!(
            recovered.torn_bytes, 0,
            "the half-written frames were cut back"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = temp_path("torn-tail");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..10).map(|t| feedback(t, true)).collect();
        {
            let (mut journal, _) = FileJournal::open(&path, 1, 2, FsyncPolicy::EveryBatch).unwrap();
            journal.append_batch(&batch).unwrap();
        }
        // Tear the final record: chop 5 bytes off the file.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let recovered = read_journal(&path, Some((1, 2))).unwrap();
        assert_eq!(recovered.feedbacks, batch[..9].to_vec());
        assert_eq!(recovered.torn_bytes, (FRAME_LEN + FEEDBACK_LEN) as u64 - 5);

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
            let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
            journal.append_batch(&batch).unwrap();
        }
        // Flip one payload byte in the third record.
        let mut data = std::fs::read(&path).unwrap();
        let third_payload = HEADER_LEN as usize + 2 * (FRAME_LEN + FEEDBACK_LEN) + FRAME_LEN;
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
            let (mut journal, _) = FileJournal::open(&path, 2, 8, FsyncPolicy::Never).unwrap();
            journal.append_batch(&[feedback(0, true)]).unwrap();
            journal.sync().unwrap();
        }
        match FileJournal::open(&path, 2, 4, FsyncPolicy::Never) {
            Err(Error::Corrupt {
                reason: "journal of another shard count",
                ..
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
            Err(Error::Corrupt { .. })
        ));
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

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and FNV-1a of a v1 journal after a fixed append and of the
    /// v2 file `compact_to` leaves, as computed at PR 25's parent, before
    /// the journal was ported onto `hp_store::durable`: the port must not
    /// move a byte on disk.
    #[test]
    fn journal_bytes_are_pinned() {
        let path = temp_path("pinned");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..37u64)
            .map(|t| {
                let client = ClientId::new(t.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20);
                Feedback::new(
                    1_000 + 3 * t,
                    ServerId::new(t % 4),
                    client,
                    Rating::from_good(t % 5 != 2),
                )
            })
            .collect();
        let (mut journal, _) = FileJournal::open(&path, 1, 4, FsyncPolicy::Never).unwrap();
        journal.append_batch(&batch).unwrap();
        journal.sync().unwrap();
        let v1 = std::fs::read(&path).unwrap();
        assert_eq!((v1.len(), fnv1a(&v1)), (1_237, 0x0e5f_9a60_9d49_ee5e), "v1");
        assert_eq!(journal.compact_to(29).unwrap(), 29);
        journal.append_batch(&batch[..2]).unwrap();
        journal.sync().unwrap();
        let v2 = std::fs::read(&path).unwrap();
        assert_eq!((v2.len(), fnv1a(&v2)), (354, 0x5ea9_ac38_1fd6_07f5), "v2");
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    /// A manifest whose seal holds can carry any offset. One whose
    /// product with `RECORD_LEN` wraps (here to 10 mod 2⁶⁴) used to pass
    /// the bounds check, start the scan mid-record and cut the file to 26
    /// bytes — 0 of 40 records left (a panic in debug). It falls back to
    /// a full scan, as an overshooting offset always did.
    #[test]
    fn a_trusted_offset_that_wraps_leaves_the_journal_whole() {
        let trusted = 11_179_844_893_157_304_010u64;
        assert_eq!(trusted.wrapping_mul(RECORD_LEN), 10);
        let path = temp_path("wrapping");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..40).map(|t| feedback(t, t % 3 != 0)).collect();
        {
            let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let (journal, recovered) =
            FileJournal::open_from(&path, 0, 1, FsyncPolicy::Never, trusted).unwrap();
        assert_eq!((recovered.first_record, journal.records()), (0, 40));
        drop(journal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(read_journal(&path, Some((0, 1))).unwrap().feedbacks, batch);
        let _ = std::fs::remove_file(&path);
    }

    /// 40 records as a fresh (v1) journal, and the same compacted to 17
    /// (v2): the files `read_journal_from_survives_hostile_bytes` mangles.
    fn genuine() -> &'static [(Vec<u8>, Vec<Feedback>); 2] {
        static GENUINE: std::sync::OnceLock<[(Vec<u8>, Vec<Feedback>); 2]> =
            std::sync::OnceLock::new();
        GENUINE.get_or_init(|| {
            let path = temp_path("genuine");
            let _ = std::fs::remove_file(&path);
            let batch: Vec<Feedback> = (0..40).map(|t| feedback(t, t % 3 != 0)).collect();
            let (mut journal, _) = FileJournal::open(&path, 1, 2, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch).unwrap();
            let v1 = std::fs::read(&path).unwrap();
            journal.compact_to(17).unwrap();
            let v2 = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            [(v1, batch.clone()), (v2, batch[17..].to_vec())]
        })
    }

    /// A length, offset or count the file cannot honour: any value, a
    /// small one, or one just short of the type's end.
    fn hostile() -> impl Strategy<Value = u64> {
        (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
            0 => raw,
            1 => raw % 64,
            _ => u64::MAX - raw % 64,
        })
    }

    proptest! {
        /// Whatever happened to a journal — cut after any record or
        /// anywhere, a byte flipped, any u32 or u64 overwritten (header
        /// fields, the v2 base and frame lengths included) — and whatever
        /// trusted offset a manifest hands in, `read_journal_from` returns
        /// a typed corruption or a run of the records that were written,
        /// at the index they were written under, with the rest of the file
        /// counted torn; and `open_from` then cuts exactly that tail.
        #[test]
        fn read_journal_from_survives_hostile_bytes(
            file in (0usize..2, 0usize..41, any::<bool>()),
            mangle in (0u8..6, any::<usize>(), hostile()),
            from in hostile(),
            check in any::<bool>(),
        ) {
            let (version, keep, whole) = file;
            let (bytes, records) = &genuine()[version];
            let header = 16 + 8 * version;
            let keep = keep.min(records.len());
            let mut bytes = bytes[..if whole { bytes.len() } else { header + 33 * keep }].to_vec();
            let (kind, at, value) = mangle;
            let field = [4, 8, 12, 16, header + 33 * (at / 4 % (keep + 1))][at % 5];
            match kind {
                0 => bytes.truncate(at % (bytes.len() + 1)),
                1 => {
                    let at = at % bytes.len();
                    bytes[at] ^= (value as u8).max(1);
                }
                2 | 3 => {
                    let width = 4 * kind as usize - 4;
                    let at = if at % 2 == 0 { field } else { at % bytes.len() };
                    let at = at.min(bytes.len().saturating_sub(width));
                    let end = (at + width).min(bytes.len());
                    bytes[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
                }
                _ => {}
            }
            let path = temp_path("hostile");
            std::fs::write(&path, &bytes).unwrap();
            let expect = check.then_some((1, 2));
            match read_journal_from(&path, expect, from) {
                Err(e) => prop_assert!(matches!(e, Error::Corrupt { .. }), "{e}"),
                Ok(rec) => {
                    let index = (rec.first_record - rec.base_records) as usize;
                    let written = records.get(index..index + rec.feedbacks.len());
                    prop_assert_eq!(Some(&rec.feedbacks[..]), written);
                    let intact = rec.header_bytes + (index + rec.feedbacks.len()) as u64 * RECORD_LEN;
                    prop_assert_eq!(intact + rec.torn_bytes, bytes.len() as u64);
                    prop_assert_eq!(rec.torn.is_some(), rec.torn_bytes > 0);
                    if let Ok((journal, opened)) = FileJournal::open_from(&path, 1, 2, FsyncPolicy::Never, from) {
                        prop_assert_eq!(journal.records(), opened.first_record + opened.feedbacks.len() as u64);
                        drop(journal);
                        let reread = read_journal_from(&path, None, from).unwrap();
                        prop_assert_eq!((reread.feedbacks, reread.torn_bytes), (opened.feedbacks, 0));
                        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes.len() as u64 - opened.torn_bytes);
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
        }
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
