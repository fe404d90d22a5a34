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
//! A journal is a run of files, each a fixed header followed by framed
//! records:
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
//! versions and the segment chain.
//!
//! Appends go to the *live* file, `dir/shard-<i>.hpj`. A fresh journal's
//! live file is v1. Every checkpoint's log-force *rolls* the journal
//! ([`FileJournal::force`]): the live file is renamed, whole, to
//! the sealed segment `shard-<i>-<base:016x>.hpj` — `base` being the
//! absolute index of its first record — and a fresh live file starts
//! with a v2 header whose `base_records` is the record count at the roll.
//! The new header is written to the live file's temp, then the live file
//! is renamed to its segment name and the temp to the live name, so a
//! crash between the two renames leaves the segments and no live file,
//! and the next open recreates the live file at the last segment's end.
//! Once a snapshot durably covers a prefix of the sequence, compaction
//! ([`compact`]) deletes the sealed segments that end at or below it:
//! whole files, no copy. Without compaction every record stays, as
//! sealed segments. Record indexes stay *absolute* — quarantine
//! bookkeeping and snapshot offsets never shift meaning — and a
//! journal whose head is gone can only be folded on top of a snapshot;
//! replaying it from zero is an explicit error at the recovery layer,
//! never a silently wrong state.
//!
//! A reader walks the segments in base order, then the live file, and
//! returns the records as one sequence: each segment must end exactly
//! where the next file begins and hold no torn record, or the read is an
//! [`Error::Corrupt`]. A segment wholly below the record a read starts
//! at is skipped unread, by its name (its length is still checked
//! against the range its neighbours' names give it). Opening the journal
//! starts at its last file, so it CRC-scans only the records since the
//! last checkpoint; a replay CRC-checks every record it folds.
//!
//! The shard index and shard count are part of the header because journal
//! contents are partitioned by the service's shard hash: replaying a
//! shard-3-of-8 journal into a 4-shard service would scatter feedback onto
//! the wrong workers. Opening a journal whose header disagrees with the
//! running topology is an explicit [`Error::Corrupt`].
//!
//! Recovery tolerates exactly one failure shape at the tail of the last
//! file — a torn final record from a crash mid-write (short frame, short
//! payload, or checksum mismatch). The torn bytes are truncated and
//! reported; corruption *before* the tail is indistinguishable from a
//! torn tail only if every later record is also discarded, which is what
//! truncation does.

use hp_core::Feedback;
use hp_store::durable::{self, publish, Error, Put, Reader};
use hp_store::persist::{decode_feedback, encode_feedback, FEEDBACK_LEN};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"HPJL";
const VERSION: u32 = 1;
/// Header version of a file whose first record is past 0 (carries
/// `base_records`).
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
    /// Bytes discarded from a torn tail of the last file (`0` for a
    /// clean journal).
    pub torn_bytes: u64,
    /// Where and why the scan stopped short of the end of the last file
    /// (`None` for a clean journal).
    pub torn: Option<Error>,
    /// Absolute index of `feedbacks[0]` in the full durable sequence:
    /// where the read started — the first retained record for
    /// [`read_journal`], the last file's first for [`FileJournal::open`].
    pub first_record: u64,
    /// Records compacted out of the journal: the absolute index of the
    /// first retained record (`0` while nothing was compacted).
    pub base_records: u64,
    /// Bytes of file header preceding the first frame of the last file
    /// (16 for v1, 24 for v2).
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

/// The v1 header, or the v2 header of a file whose first record is
/// `base`.
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

/// The path of the sealed segment of the journal whose live file is
/// `live` that starts at absolute record `base`:
/// `<stem>-<base:016x>.<extension>` beside it.
fn segment_path(live: &Path, base: u64) -> PathBuf {
    let (prefix, suffix) = segment_affixes(live);
    live.with_file_name(durable::numbered(&prefix, base, &suffix))
}

/// The `(prefix, suffix)` a segment name of `live` puts around its base.
fn segment_affixes(live: &Path) -> (String, String) {
    let name = live.file_name().and_then(|n| n.to_str()).unwrap_or("");
    match name.rsplit_once('.') {
        Some((stem, ext)) => (format!("{stem}-"), format!(".{ext}")),
        None => (format!("{name}-"), String::new()),
    }
}

/// The bases of the sealed segments beside `live`, ascending: one scan
/// of its directory.
fn segment_bases(live: &Path) -> io::Result<Vec<u64>> {
    let dir = live.parent().filter(|d| !d.as_os_str().is_empty());
    let (prefix, suffix) = segment_affixes(live);
    let mut bases: Vec<u64> =
        durable::scan_numbered(dir.unwrap_or(Path::new(".")), &prefix, &suffix)?
            .into_iter()
            .map(|(base, _)| base)
            .collect();
    bases.sort_unstable();
    Ok(bases)
}

/// One journal file opened and its header read.
struct Head {
    file: File,
    len: u64,
    base: u64,
    header_bytes: u64,
}

/// Opens the journal file `path` and checks its header against `expect`
/// (`(shard, shards)`, or `None` for no topology check).
fn open_head(path: &Path, expect: Option<(u32, u32)>) -> Result<Head, Error> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut head = [0u8; HEADER_LEN_COMPACTED as usize];
    let head_len = len.min(HEADER_LEN_COMPACTED) as usize;
    file.read_exact(&mut head[..head_len])?;
    let mut r = Reader::new(path, &head[..head_len], 0);
    let version = r.header(&MAGIC, &[VERSION, VERSION_COMPACTED], expect.map(|e| e.0))?;
    let shards = r.u32("truncated header")?;
    if expect.is_some_and(|(_, expected)| expected != shards) {
        return Err(r.corrupt("journal of another shard count"));
    }
    let base = match version {
        VERSION => 0,
        _ => r.u64("truncated header")?,
    };
    if base.checked_add(len).is_none() {
        return Err(r.corrupt("compaction base past any record count"));
    }
    Ok(Head {
        file,
        len,
        base,
        header_bytes: r.offset(),
    })
}

/// Reads the records of `head`'s file from its `skip`-th on, stopping at
/// the first torn or failing frame; returns the scan's stop and the bytes
/// left unread.
fn scan_file(
    path: &Path,
    head: &mut Head,
    skip: u64,
    feedbacks: &mut Vec<Feedback>,
) -> Result<(Option<Error>, u64), Error> {
    let start = skip
        .checked_mul(RECORD_LEN)
        .and_then(|bytes| bytes.checked_add(head.header_bytes))
        .filter(|&start| start <= head.len)
        .ok_or_else(|| Error::corrupt(path, head.len, "journal segment shorter than its range"))?;
    head.file.seek(SeekFrom::Start(start))?;
    let mut data = Vec::with_capacity((head.len - start) as usize);
    head.file.read_to_end(&mut data)?;
    let mut records = Reader::new(path, &data, start);
    let torn = records.scan_frames(|payload| {
        feedbacks.push(decode_feedback(payload).ok_or("checksummed but undecodable record")?);
        Ok(())
    });
    Ok((torn, records.remaining() as u64))
}

/// Why a segment's records do not run up to where the next file begins.
const GAP: &str = "journal segment does not end where the next file begins";

/// The header bytes of a journal file whose first record is `base`: a
/// roll only ever seals a file holding records, so a segment named past
/// 0 starts with a v2 header, and the one named 0 is the journal's first
/// file, v1.
fn header_len(base: u64) -> u64 {
    if base == 0 {
        HEADER_LEN
    } else {
        HEADER_LEN_COMPACTED
    }
}

/// Opens the sealed segment of `live` named `base` and checks its header,
/// whose base must be its name.
fn open_segment(live: &Path, base: u64, expect: Option<(u32, u32)>) -> Result<Head, Error> {
    let path = segment_path(live, base);
    let head = open_head(&path, expect)?;
    if head.base != base {
        return Err(Error::corrupt(
            &path,
            16,
            "journal segment base disagrees with its name",
        ));
    }
    Ok(head)
}

/// Reads the journal whose live file is `live` and whose sealed segments
/// start at `bases` (ascending) from absolute record `from`, or from the
/// first record of the last file when `from` is `None`; errors as for
/// [`read_journal`]. Also returns the path and header of the last file:
/// the live one, or the last segment when a crash between a roll's
/// renames left no live file.
fn read_segments(
    live: &Path,
    bases: &[u64],
    expect: Option<(u32, u32)>,
    from: Option<u64>,
) -> Result<(Recovered, PathBuf, Head), Error> {
    let (sealed, tail_path, mut tail) = match bases.split_last() {
        Some((&last, sealed)) if !live.exists() => (
            sealed,
            segment_path(live, last),
            open_segment(live, last, expect)?,
        ),
        _ => (bases, live.to_path_buf(), open_head(live, expect)?),
    };
    if let Some(&last) = sealed.last().filter(|&&last| last >= tail.base) {
        let path = segment_path(live, last);
        return Err(Error::corrupt(
            &path,
            0,
            "journal segment past the live file",
        ));
    }
    let first = sealed.first().copied().unwrap_or(tail.base);
    let from_records = from.unwrap_or(tail.base);
    // An offset the files cannot honour — before the first retained
    // record, past the end of the last file, or past any offset a `u64`
    // can address — falls back to a scan of everything retained.
    let honoured = from_records >= first
        && (from_records <= tail.base
            || (from_records - tail.base)
                .checked_mul(RECORD_LEN)
                .is_some_and(|bytes| bytes <= tail.len - tail.header_bytes));
    let from = if honoured { from_records } else { first };

    let mut feedbacks = Vec::new();
    for (i, &base) in sealed.iter().enumerate() {
        let end = sealed.get(i + 1).copied().unwrap_or(tail.base);
        let path = segment_path(live, base);
        if from >= end {
            // Skipped unread; its length must still fit its range.
            let len = fs::metadata(&path)?.len();
            let expected = (end - base).checked_mul(RECORD_LEN);
            if expected.map(|bytes| bytes + header_len(base)) != Some(len) {
                return Err(Error::corrupt(&path, len, GAP));
            }
            continue;
        }
        let mut head = open_segment(live, base, expect)?;
        let skip = from.saturating_sub(base);
        let before = feedbacks.len() as u64;
        if let (Some(torn), _) = scan_file(&path, &mut head, skip, &mut feedbacks)? {
            return Err(torn);
        }
        if base + skip + (feedbacks.len() as u64 - before) != end {
            return Err(Error::corrupt(&path, head.len, GAP));
        }
    }
    let skip = from.saturating_sub(tail.base);
    let (torn, torn_bytes) = scan_file(&tail_path, &mut tail, skip, &mut feedbacks)?;
    let recovered = Recovered {
        feedbacks,
        torn_bytes,
        torn,
        first_record: from,
        base_records: first,
        header_bytes: tail.header_bytes,
    };
    Ok((recovered, tail_path, tail))
}

/// Reads a journal: its live file `path` and the sealed segments beside
/// it, header checks, then every intact record; a torn tail of the last
/// file (short frame/payload or checksum mismatch) ends the scan and is
/// reported in [`Recovered::torn_bytes`] and [`Recovered::torn`] without
/// being treated as an error. No file is modified.
///
/// # Errors
///
/// [`Error::Io`] on read failure; [`Error::Corrupt`] if a file is not a
/// journal, its header names another shard topology than `expect` (pass
/// `None` to skip the topology check), or the segments do not join into
/// one sequence (a gap, an overlap, or a torn segment before the last
/// file).
pub fn read_journal(path: &Path, expect: Option<(u32, u32)>) -> Result<Recovered, Error> {
    let bases = segment_bases(path)?;
    Ok(read_segments(path, &bases, expect, Some(0))?.0)
}

/// A sealed segment the journal retains.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Absolute index of its first record (its name).
    base: u64,
    /// Absolute index one past its last record: where the next file
    /// begins.
    end: u64,
    /// Whether an fsync has covered its bytes and its name.
    synced: bool,
}

/// What a log-force leaves to make durable before a snapshot may cover
/// [`LogForce::records`]: the sealed segments no fsync has covered yet.
/// [`LogForce::sync`] does the fsyncs, without the journal's lock.
#[derive(Debug)]
pub struct LogForce {
    /// Absolute record count the force covers.
    pub records: u64,
    sealed: Vec<PathBuf>,
}

impl LogForce {
    /// Fsyncs each unsynced segment, then (after any) their directory,
    /// which makes the rolls' renames durable.
    pub fn sync(&self) -> Result<(), Error> {
        for path in &self.sealed {
            File::open(path)?.sync_all()?;
        }
        if let Some(path) = self.sealed.last() {
            durable::fsync_dir(path)?;
        }
        Ok(())
    }
}

/// An append-only journal for one shard: a live file and the sealed
/// segments a checkpoint rolled it into.
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
    /// Absolute record count: first retained record + records retained.
    records: u64,
    /// Absolute index of the live file's first record (its header base).
    live_base: u64,
    /// Header bytes before the first frame of the live file.
    header_bytes: u64,
    /// The sealed segments retained, oldest first.
    sealed: Vec<Segment>,
    /// Whether the live file may hold bytes no fsync has covered.
    dirty: bool,
    /// Set by [`FileJournal::fail_next_append`]: the next append writes
    /// half its frames, then fails as a full disk would.
    fail_next: bool,
    /// A failed append could not cut the file back, or a failed roll
    /// could not put the live file back: nothing more is appended until
    /// a reopen recovers the files.
    torn: bool,
}

impl FileJournal {
    /// Opens (or creates) the journal for `shard` of `shards` whose live
    /// file is `path`.
    ///
    /// Returns the journal positioned for appends plus the records of its
    /// last file — the live one, or the last segment when a crash inside
    /// a roll left no live file — the only file the open CRC-scans. Every
    /// checkpoint rolls the journal, so that file holds the records since
    /// the last one; earlier segments are checked by name and length, and
    /// [`FileJournal::replay_from`] CRC-checks every record a fold reads.
    /// A torn tail is truncated so the next append starts on a clean
    /// record boundary. A fresh journal's header is published durably, as
    /// is the live file a crash inside a roll left missing; the temp of
    /// an interrupted roll is deleted. The directory is scanned once.
    /// Errors as for [`read_journal`].
    pub fn open(
        path: &Path,
        shard: u32,
        shards: u32,
        policy: FsyncPolicy,
    ) -> Result<(Self, Recovered), Error> {
        durable::remove([durable::temp_path(path)])?;
        let bases = segment_bases(path)?;
        if bases.is_empty() && !path.exists() {
            publish(path, |file| file.write_all(&header(shard, shards, None)))?;
        }
        let (recovered, tail_path, tail) =
            read_segments(path, &bases, Some((shard, shards)), None)?;
        // Cut the torn tail so appends resume on a frame boundary.
        let mut file = OpenOptions::new().append(true).open(&tail_path)?;
        file.set_len(tail.len - recovered.torn_bytes)?;
        let records = recovered.first_record + recovered.feedbacks.len() as u64;
        let (mut live_base, mut header_bytes) = (tail.base, recovered.header_bytes);
        if tail_path != path {
            // A crash between a roll's renames: start the live file at
            // the last segment's end.
            publish(path, |file| {
                file.write_all(&header(shard, shards, Some(records)))
            })?;
            file = OpenOptions::new().append(true).open(path)?;
            (live_base, header_bytes) = (records, HEADER_LEN_COMPACTED);
        }
        let ends = bases.iter().skip(1).copied().chain([live_base]);
        let sealed = bases
            .iter()
            .zip(ends)
            .map(|(&base, end)| Segment {
                base,
                end,
                synced: false,
            })
            .collect();
        Ok((
            FileJournal {
                path: path.to_path_buf(),
                file,
                policy,
                shard,
                shards,
                records,
                live_base,
                header_bytes,
                sealed,
                dirty: true,
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
        self.refuse_if_torn()?;
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
            let len = self.header_bytes + (self.records - self.live_base) * RECORD_LEN;
            self.torn = self.file.set_len(len).is_err();
            return Err(e.into());
        }
        self.records += info.records;
        Ok(info)
    }

    fn refuse_if_torn(&self) -> Result<(), Error> {
        if self.torn {
            return Err(Error::Io(io::Error::other(
                "a failed append or roll left the journal torn; reopen to recover",
            )));
        }
        Ok(())
    }

    fn write_and_sync(&mut self, frames: &[u8], info: &mut AppendInfo) -> io::Result<()> {
        self.dirty = true;
        if std::mem::take(&mut self.fail_next) {
            self.file.write_all(&frames[..frames.len() / 2])?;
            return Err(io::ErrorKind::StorageFull.into());
        }
        self.file.write_all(frames)?;
        if self.policy == FsyncPolicy::EveryBatch {
            let t0 = std::time::Instant::now();
            self.file.sync_all()?;
            self.dirty = false;
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

    /// Fsyncs the live file, regardless of policy.
    pub fn sync(&mut self) -> Result<(), Error> {
        self.file.sync_all()?;
        self.dirty = false;
        Ok(())
    }

    /// Absolute record count: records appended plus recovered since
    /// open, plus any compacted away before that.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records compacted out of the journal: the absolute index of the
    /// first retained record (`0` until the first [`compact`] deletes a
    /// segment).
    pub fn base_records(&self) -> u64 {
        self.sealed.first().map_or(self.live_base, |s| s.base)
    }

    /// The log-force of a checkpoint covering every record so far:
    /// [`LogForce::records`] is [`FileJournal::records`], and
    /// [`LogForce::sync`] makes them durable. The live file is sealed
    /// first (two renames, no copy), so the fsyncs fall on files no
    /// append touches. The force also carries every segment an earlier
    /// force left unsynced.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the roll fails; a failed roll puts the live
    /// file back, so no record is lost.
    pub fn force(&mut self) -> Result<LogForce, Error> {
        self.roll()?;
        let sealed = self
            .sealed
            .iter()
            .filter(|s| !s.synced)
            .map(|s| segment_path(&self.path, s.base))
            .collect();
        Ok(LogForce {
            records: self.records,
            sealed,
        })
    }

    /// Records that `force`'s [`LogForce::sync`] succeeded: the segments
    /// it covered are durable.
    pub fn forced(&mut self, force: &LogForce) {
        for segment in self.sealed.iter_mut().filter(|s| s.end <= force.records) {
            segment.synced = true;
        }
    }

    /// Seals the live file as the segment that starts at its base and
    /// starts a fresh live file at [`FileJournal::records`]: the new v2
    /// header goes to the live file's temp, then the live file is renamed
    /// to its segment name and the temp to the live name. Under
    /// [`FsyncPolicy::EveryBatch`] the new header and both renames are
    /// durable before it returns. A live file holding no record is left
    /// as it is.
    ///
    /// # Errors
    ///
    /// [`Error::Io`]; before the first rename nothing changed, and after
    /// it the sealed file is renamed back (failing that, every later
    /// append is refused until a reopen recreates the live file).
    fn roll(&mut self) -> Result<(), Error> {
        self.refuse_if_torn()?;
        if self.records == self.live_base {
            return Ok(());
        }
        let every_batch = self.policy == FsyncPolicy::EveryBatch;
        let was_synced = !self.dirty;
        let tmp = durable::temp_path(&self.path);
        let sealed = segment_path(&self.path, self.live_base);
        let staged = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&tmp)
            .and_then(|mut file| {
                file.write_all(&header(self.shard, self.shards, Some(self.records)))?;
                if every_batch {
                    file.sync_all()?;
                }
                fs::rename(&self.path, &sealed)?;
                Ok(file)
            });
        let segment = Segment {
            base: self.live_base,
            end: self.records,
            synced: false,
        };
        let file = match staged.and_then(|file| fs::rename(&tmp, &self.path).map(|()| file)) {
            Ok(file) => file,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                if !self.path.exists() && fs::rename(&sealed, &self.path).is_err() {
                    // The records live on in the segment, which reads
                    // replay as the last file until a reopen recreates
                    // the live file at its end.
                    self.sealed.push(segment);
                    self.torn = true;
                }
                return Err(e.into());
            }
        };
        self.sealed.push(segment);
        self.file = file;
        self.live_base = self.records;
        self.header_bytes = HEADER_LEN_COMPACTED;
        self.dirty = !every_batch;
        if every_batch {
            durable::fsync_dir(&self.path)?;
            let segment = self.sealed.last_mut().expect("just sealed");
            segment.synced = was_synced;
        }
        Ok(())
    }

    /// Re-reads the durable sequence starting at absolute record
    /// `from_records`, returning `(start, feedbacks)` where `start` is
    /// the absolute index of `feedbacks[0]` — the offset actually
    /// honored. `start > from_records` means the journal begins past the
    /// requested point (compacted away); `start < from_records` means
    /// the request overshot the journal and the scan fell back to the
    /// earliest retained record. Callers must check `start` before
    /// folding the tail onto anything.
    pub fn replay_from(&mut self, from_records: u64) -> Result<(u64, Vec<Feedback>), Error> {
        self.sync()?;
        let bases: Vec<u64> = self.sealed.iter().map(|s| s.base).collect();
        let (recovered, ..) = read_segments(&self.path, &bases, None, Some(from_records))?;
        Ok((recovered.first_record, recovered.feedbacks))
    }
}

/// Compacts `journal` to `floor`: deletes, oldest first, the sealed
/// segments that end at or below it — whole files, each deletion made
/// durable — and returns the records dropped. The lock is held only to
/// read and update the segment list, never across the deletions. Callers
/// must only pass a `floor` that a durable snapshot covers: after this,
/// the journal alone can no longer rebuild the full sequence.
///
/// # Errors
///
/// [`Error::Io`] when a deletion fails; the segments deleted before it
/// stay deleted, and the rest stay in the journal.
pub fn compact(journal: &Mutex<FileJournal>, floor: u64) -> Result<u64, Error> {
    let doomed: Vec<(u64, u64, PathBuf)> = {
        let journal = journal.lock();
        let below = journal.sealed.iter().take_while(|s| s.end <= floor);
        below
            .map(|s| (s.base, s.end, segment_path(&journal.path, s.base)))
            .collect()
    };
    let mut dropped = 0;
    for (base, end, path) in doomed {
        durable::remove([path])?;
        journal.lock().sealed.retain(|s| s.base != base);
        dropped += end - base;
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, Rating, ServerId};
    use parking_lot::Mutex;
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
            journal.append_batch(&batch[..30]).unwrap();
            journal.roll().unwrap();
            journal.append_batch(&batch[30..]).unwrap();
            let journal = Mutex::new(journal);
            assert_eq!(compact(&journal, 30).unwrap(), 30);
            assert_eq!(journal.lock().base_records(), 30);
            assert_eq!(journal.lock().records(), 50, "absolute count is unchanged");
            // Appends continue on the live file.
            journal.lock().append_batch(&[feedback(50, true)]).unwrap();
            journal.lock().sync().unwrap();
            // Compacting below the first retained record is a no-op.
            assert_eq!(compact(&journal, 10).unwrap(), 0);
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
        assert!(!durable::temp_path(&path).exists());
        assert!(
            !segment_path(&path, 0).exists(),
            "the sealed segment is gone"
        );
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    /// [`read_journal`] from absolute record `from` on instead of the
    /// first retained record: what a replay reads.
    fn read_journal_from(
        path: &Path,
        expect: Option<(u32, u32)>,
        from: u64,
    ) -> Result<Recovered, Error> {
        let bases = segment_bases(path)?;
        Ok(read_segments(path, &bases, expect, Some(from))?.0)
    }

    #[test]
    fn a_read_from_an_offset_returns_only_the_tail() {
        let path = temp_path("from-offset");
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

        // An overshooting offset degrades to a full scan.
        let recovered = read_journal_from(&path, Some((0, 1)), 900).unwrap();
        assert_eq!(recovered.first_record, 0);
        assert_eq!(recovered.feedbacks.len(), 40);
        let _ = std::fs::remove_file(&path);
    }

    /// The open CRC-scans the live file alone: a flipped record in a
    /// sealed segment is left to the reads that fold it, a torn live tail
    /// is cut, and a sealed segment of the wrong length is a gap.
    #[test]
    fn open_scans_only_the_live_file() {
        let dir = temp_dir("open-live");
        let path = dir.join("shard-0.hpj");
        let batch: Vec<Feedback> = (0..40).map(|t| feedback(t, true)).collect();
        {
            let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch[..25]).unwrap();
            journal.force().unwrap().sync().unwrap();
            journal.append_batch(&batch[25..]).unwrap();
        }
        let sealed = segment_path(&path, 0);
        let mut bytes = std::fs::read(&sealed).unwrap();
        bytes[HEADER_LEN as usize + FRAME_LEN] ^= 0x10;
        std::fs::write(&sealed, &bytes).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);

        let (mut journal, recovered) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.first_record, 25);
        assert_eq!(recovered.feedbacks, batch[25..39].to_vec());
        assert_eq!(recovered.torn_bytes, RECORD_LEN - 3);
        assert_eq!((journal.records(), journal.base_records()), (39, 0));
        assert_eq!(
            journal.replay_from(25).unwrap(),
            (25, batch[25..39].to_vec())
        );
        assert!(matches!(journal.replay_from(0), Err(Error::Corrupt { .. })));
        drop(journal);

        std::fs::write(&sealed, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            FileJournal::open(&path, 0, 1, FsyncPolicy::Never),
            Err(Error::Corrupt { reason: GAP, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and FNV-1a of a v1 journal after a fixed append and of the
    /// v2 live file a roll at 29 leaves once its sealed segment is deleted,
    /// as computed at PR 25's parent — before the journal was ported onto
    /// `hp_store::durable`, and when a compaction still copied the tail
    /// into a v2 file: neither the port nor the roll may move a byte on
    /// disk.
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
        drop(journal);
        std::fs::remove_file(&path).unwrap();

        let (mut journal, _) = FileJournal::open(&path, 1, 4, FsyncPolicy::Never).unwrap();
        journal.append_batch(&batch[..29]).unwrap();
        journal.roll().unwrap();
        journal.append_batch(&batch[29..]).unwrap();
        let journal = Mutex::new(journal);
        assert_eq!(compact(&journal, 29).unwrap(), 29);
        journal.lock().append_batch(&batch[..2]).unwrap();
        journal.lock().sync().unwrap();
        let v2 = std::fs::read(&path).unwrap();
        assert_eq!((v2.len(), fnv1a(&v2)), (354, 0x5ea9_ac38_1fd6_07f5), "v2");
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    /// A read offset whose product with `RECORD_LEN` wraps (here to 10
    /// mod 2⁶⁴) used to pass the bounds check, start the scan mid-record
    /// and, when an open trusted it, cut the file to 26 bytes — 0 of 40
    /// records left (a panic in debug). It falls back to a full scan, as
    /// an overshooting offset always did.
    #[test]
    fn an_offset_that_wraps_reads_the_journal_whole() {
        let from = 11_179_844_893_157_304_010u64;
        assert_eq!(from.wrapping_mul(RECORD_LEN), 10);
        let path = temp_path("wrapping");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<Feedback> = (0..40).map(|t| feedback(t, t % 3 != 0)).collect();
        let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
        journal.append_batch(&batch).unwrap();
        let read = read_journal_from(&path, Some((0, 1)), from).unwrap();
        assert_eq!((read.first_record, read.feedbacks), (0, batch.clone()));
        assert_eq!(journal.replay_from(from).unwrap(), (0, batch));
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    /// 40 records as a fresh (v1) journal, and the live file of the same
    /// rolled at 17 once the sealed segment is deleted (v2): the files
    /// `read_journal_from_survives_hostile_bytes` mangles.
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
            drop(journal);
            std::fs::remove_file(&path).unwrap();
            let (mut journal, _) = FileJournal::open(&path, 1, 2, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch[..17]).unwrap();
            journal.roll().unwrap();
            journal.append_batch(&batch[17..]).unwrap();
            compact(&Mutex::new(journal), 17).unwrap();
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
        /// fields, the v2 base and frame lengths included) — and from
        /// whatever offset it is read, `read_journal_from` returns a typed
        /// corruption or a run of the records that were written, at the
        /// index they were written under, with the rest of the file
        /// counted torn; and `open` then cuts exactly the torn tail.
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
                    if let Ok((journal, opened)) = FileJournal::open(&path, 1, 2, FsyncPolicy::Never) {
                        prop_assert_eq!(journal.records(), opened.first_record + opened.feedbacks.len() as u64);
                        drop(journal);
                        let reread = read_journal_from(&path, None, opened.first_record).unwrap();
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
        journal.append_batch(&batch[..20]).unwrap();
        journal.roll().unwrap();
        journal.append_batch(&batch[20..]).unwrap();
        // Across the sealed segment and the live file.
        assert_eq!(journal.replay_from(10).unwrap(), (10, batch[10..].to_vec()));
        let journal = Mutex::new(journal);
        compact(&journal, 20).unwrap();
        // Tail past the base replays; a from-zero request now starts at
        // the base, which recovery treats as "snapshot required".
        let replay = |from| journal.lock().replay_from(from).unwrap();
        assert_eq!(replay(25), (25, batch[25..].to_vec()));
        assert_eq!(replay(0), (20, batch[20..].to_vec()));
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    /// A fresh scratch directory per call, for journals with segments.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = temp_path(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The segments must join into one sequence: a gap left by a deleted
    /// middle segment and a torn segment before the live file are typed
    /// corruptions, whether the reader scans them or skips them by name.
    #[test]
    fn a_gap_or_a_torn_segment_is_corrupt() {
        let dir = temp_dir("gap");
        let path = dir.join("shard-0.hpj");
        let batch: Vec<Feedback> = (0..30).map(|t| feedback(t, true)).collect();
        let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap();
        for part in batch.chunks(10) {
            journal.append_batch(part).unwrap();
            journal.roll().unwrap();
        }
        drop(journal);
        let corrupt = |from| {
            matches!(
                read_journal_from(&path, None, from),
                Err(Error::Corrupt { .. })
            )
        };
        let middle = segment_path(&path, 10);
        let bytes = std::fs::read(&middle).unwrap();
        std::fs::write(&middle, &bytes[..bytes.len() - 5]).unwrap();
        assert!(corrupt(0) && corrupt(15), "a torn middle segment, scanned");
        assert!(corrupt(25) && corrupt(30), "a torn middle segment, skipped");
        std::fs::remove_file(&middle).unwrap();
        assert!(corrupt(0) && corrupt(25), "a gap between segments");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One step of the model test: append `n` records, checkpoint (a roll,
    /// then compaction down to the older of the two newest checkpoints),
    /// reopen, or crash right after a roll's first or second rename.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Append(u64),
        Checkpoint,
        Reopen,
        Crash { renames: u8 },
    }

    fn step((kind, n): (u8, u64)) -> Step {
        match kind {
            0 | 1 => Step::Append(n),
            2 => Step::Checkpoint,
            3 => Step::Reopen,
            _ => Step::Crash {
                renames: 1 + (n % 2) as u8,
            },
        }
    }

    proptest! {
        /// Whatever runs of appends, checkpoints, reopens and crashes
        /// inside a roll a journal goes through, `read_journal` returns
        /// exactly the model's records from the compaction floor on, at
        /// their absolute indexes — and so do a read from any offset
        /// and the open journal's `replay_from`.
        #[test]
        fn rolled_and_compacted_journal_matches_its_model(
            steps in proptest::collection::vec((0u8..5, 1u64..9), 1..24),
            from in 0u64..80,
        ) {
            let dir = temp_dir("model");
            let path = dir.join("shard-0.hpj");
            let open = || FileJournal::open(&path, 0, 1, FsyncPolicy::Never).unwrap().0;
            let mut journal = Mutex::new(open());
            let (mut model, mut checkpoints, mut floor) = (Vec::new(), Vec::new(), 0);
            let check = |journal: Option<&Mutex<FileJournal>>, model: &[Feedback], floor: u64| {
                let recovered = read_journal(&path, Some((0, 1))).unwrap();
                assert_eq!(recovered.first_record, floor);
                assert_eq!(recovered.base_records, floor);
                assert_eq!(&recovered.feedbacks[..], &model[floor as usize..]);
                assert_eq!(recovered.torn_bytes, 0);
                let start = if (floor..=model.len() as u64).contains(&from) { from } else { floor };
                let tail = read_journal_from(&path, None, from).unwrap();
                assert_eq!((tail.first_record, &tail.feedbacks[..]), (start, &model[start as usize..]));
                if let Some(journal) = journal {
                    let mut journal = journal.lock();
                    assert_eq!((journal.records(), journal.base_records()), (model.len() as u64, floor));
                    assert_eq!(journal.replay_from(from).unwrap(), (start, model[start as usize..].to_vec()));
                }
            };
            for s in steps.into_iter().map(step) {
                match s {
                    Step::Append(n) => {
                        let at = model.len() as u64;
                        let batch: Vec<Feedback> = (at..at + n).map(|t| feedback(t, t % 4 != 0)).collect();
                        journal.lock().append_batch(&batch).unwrap();
                        model.extend(batch);
                    }
                    Step::Checkpoint => {
                        let force = journal.lock().force().unwrap();
                        force.sync().unwrap();
                        journal.lock().forced(&force);
                        checkpoints.push(force.records);
                        if checkpoints.len() > 2 {
                            checkpoints.remove(0);
                        }
                        if checkpoints.len() == 2 {
                            compact(&journal, checkpoints[0]).unwrap();
                            floor = floor.max(checkpoints[0]);
                        }
                    }
                    Step::Reopen => {
                        drop(journal);
                        journal = Mutex::new(open());
                    }
                    Step::Crash { renames } => {
                        let sealed = {
                            let mut journal = journal.lock();
                            let live_holds_records = journal.records() > journal.live_base;
                            journal.roll().unwrap();
                            live_holds_records
                        };
                        drop(journal);
                        if renames == 1 && sealed {
                            // Put the fresh header back in the temp: the
                            // state right after the first rename.
                            std::fs::rename(&path, durable::temp_path(&path)).unwrap();
                        }
                        check(None, &model, floor);
                        journal = Mutex::new(open());
                    }
                }
                check(Some(&journal), &model, floor);
            }
            drop(journal);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Two sealed segments and a live file — records `[0, 12)` (v1),
    /// `[12, 25)` and `[25, 40)` (v2) — as `(name, bytes)`, and the 40
    /// records: what `segmented_journal_survives_hostile_bytes` mangles.
    #[allow(clippy::type_complexity)]
    fn segmented() -> &'static ([(String, Vec<u8>); 3], Vec<Feedback>) {
        static SEGMENTED: std::sync::OnceLock<([(String, Vec<u8>); 3], Vec<Feedback>)> =
            std::sync::OnceLock::new();
        SEGMENTED.get_or_init(|| {
            let dir = temp_dir("segmented");
            let path = dir.join("shard-1.hpj");
            let batch: Vec<Feedback> = (0..40).map(|t| feedback(t, t % 3 != 0)).collect();
            let (mut journal, _) = FileJournal::open(&path, 1, 2, FsyncPolicy::Never).unwrap();
            journal.append_batch(&batch[..12]).unwrap();
            journal.roll().unwrap();
            journal.append_batch(&batch[12..25]).unwrap();
            journal.roll().unwrap();
            journal.append_batch(&batch[25..]).unwrap();
            drop(journal);
            let files = [segment_path(&path, 0), segment_path(&path, 12), path].map(|file| {
                let name = file.file_name().unwrap().to_str().unwrap().to_string();
                (name, std::fs::read(&file).unwrap())
            });
            let _ = std::fs::remove_dir_all(&dir);
            (files, batch)
        })
    }

    proptest! {
        /// Whatever happened to one file of a segmented journal — cut
        /// anywhere, a byte flipped, or a header `u64` overwritten (a v2
        /// base, or v1's shard fields) — and from whatever offset it is
        /// read, the read is a typed corruption or a run of the records
        /// that were written, at the absolute index they were written
        /// under; untouched segments and an untouched live file read to
        /// the end with nothing torn; and `open` then leaves the journal
        /// reading the same records from its last file with nothing torn.
        #[test]
        fn segmented_journal_survives_hostile_bytes(
            target in 0usize..3,
            mangle in (0u8..4, any::<usize>(), hostile()),
            from in hostile(),
            check in any::<bool>(),
        ) {
            let (files, records) = segmented();
            let dir = temp_dir("hostile-segments");
            let (kind, at, value) = mangle;
            for (i, (name, bytes)) in files.iter().enumerate() {
                let mut bytes = bytes.clone();
                if i == target {
                    match kind {
                        0 => bytes.truncate(at % (bytes.len() + 1)),
                        1 => {
                            let at = at % bytes.len();
                            bytes[at] ^= (value as u8).max(1);
                        }
                        2 => {
                            let at = if i == 0 { 8 } else { 16 };
                            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                        }
                        _ => {}
                    }
                }
                std::fs::write(dir.join(name), &bytes).unwrap();
            }
            let path = dir.join(&files[2].0);
            let expect = check.then_some((1, 2));
            match read_journal_from(&path, expect, from) {
                Err(e) => prop_assert!(matches!(e, Error::Corrupt { .. }), "{e}"),
                Ok(rec) => {
                    let first = rec.first_record as usize;
                    let written = records.get(first..first + rec.feedbacks.len());
                    prop_assert_eq!(Some(&rec.feedbacks[..]), written);
                    prop_assert_eq!(rec.torn.is_some(), rec.torn_bytes > 0);
                    if target != 2 || kind == 3 {
                        prop_assert_eq!((first + rec.feedbacks.len(), rec.torn_bytes), (40, 0));
                    }
                    if let Ok((journal, opened)) = FileJournal::open(&path, 1, 2, FsyncPolicy::Never) {
                        prop_assert_eq!(journal.records(), opened.first_record + opened.feedbacks.len() as u64);
                        drop(journal);
                        let reread = read_journal_from(&path, None, opened.first_record).unwrap();
                        prop_assert_eq!((reread.feedbacks, reread.torn_bytes), (opened.feedbacks, 0));
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
