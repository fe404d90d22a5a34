//! The record-format rules every on-disk format of the workspace shares
//! (DESIGN.md, "On-disk formats"), so there is one place to get them right
//! and one seam to inject I/O faults at: the header `magic | version u32 |
//! shard u32 | …` and the frame `len u32 | crc32 u32 | payload` ([`Put`],
//! [`Reader::header`], [`Reader::frame`]) with one torn-tail scan
//! ([`Reader::scan_frames`]); the sealed body ([`Put::seal`],
//! [`Reader::sealed`]) that every file not made of frames is; one bounded
//! [`Reader`] and one [`Error`]; one numbered-file scan
//! ([`scan_numbered`]); and one durable create and delete ([`publish`],
//! [`remove`]), with the directory fsync both end in ([`fsync_dir`]).

use std::fmt;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

// CRC-32 (IEEE 802.3), slicing-by-8: eight tables built at compile
// time let the hot loop fold 8 input bytes per iteration instead of 1.
// The polynomial and bit order are the classic ones, so the digest is
// identical to the byte-at-a-time form (asserted in tests). It matters
// because snapshot bodies are megabytes and every spill and fault
// checksums a whole history payload.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) of `data`, the checksum of every frame and sealed body
/// (`crc32(b"123456789") == 0xCBF4_3926`).
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"));
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Why a record file could not be read or written.
#[derive(Debug)]
pub enum Error {
    /// The file system failed.
    Io(io::Error),
    /// The bytes are not what their format promises — a torn write, bit
    /// rot, a file of another shard, a reference past what was written.
    /// No value is ever returned from such bytes.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Byte offset in `file` the failed check had reached.
        offset: u64,
        /// Which check failed.
        reason: &'static str,
    },
}

impl Error {
    /// A [`Error::Corrupt`] of `file` at `offset`.
    pub fn corrupt(file: &Path, offset: u64, reason: &'static str) -> Error {
        Error::Corrupt {
            file: file.to_path_buf(),
            offset,
            reason,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt {
                file,
                offset,
                reason,
            } => {
                write!(f, "{} corrupt at offset {offset}: {reason}", file.display())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

/// Little-endian appends: the writing half of [`Reader`].
pub trait Put: AsRef<[u8]> {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends `v`, little-endian.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends `v`, little-endian.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends the header every binary record file starts with, `magic |
    /// version u32 | shard u32`; the format's own fields follow it.
    fn put_header(&mut self, magic: &[u8; 4], version: u32, shard: u32) {
        self.put(magic);
        self.put_u32(version);
        self.put_u32(shard);
    }

    /// Appends one `len u32 | crc32 u32 | payload` frame and returns the
    /// CRC.
    fn put_frame(&mut self, payload: &[u8]) -> u32 {
        let crc = crc32(payload);
        // One append for both words: a third `put` per journal record cost
        // ~4 ns of its ~21 (measured at PR 25).
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc.to_le_bytes());
        self.put(&head);
        self.put(payload);
        crc
    }

    /// Appends the CRC of everything before it: a sealed body.
    fn seal(&mut self) {
        let crc = crc32(self.as_ref());
        self.put_u32(crc);
    }
}

impl Put for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A bounded little-endian reader over the bytes of one file (or of its
/// part from file offset `base` on). Every read, and every count it is
/// asked to trust, is checked against the bytes left; a failed check is
/// an [`Error::Corrupt`] naming the file, the offset reached and the
/// `reason` the caller gave (or the check's own).
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    file: &'a Path,
    data: &'a [u8],
    at: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    /// Reads `data`, the bytes of `file` from offset `base` on.
    pub fn new(file: &'a Path, data: &'a [u8], base: u64) -> Self {
        Reader {
            file,
            data,
            at: 0,
            base,
        }
    }

    /// Reads the body of a sealed file ([`Put::seal`]) once its trailer's
    /// CRC holds.
    pub fn sealed(file: &'a Path, data: &'a [u8]) -> Result<Self, Error> {
        let split = data
            .len()
            .checked_sub(4)
            .ok_or_else(|| Error::corrupt(file, 0, "no crc trailer"))?;
        let (body, trailer) = data.split_at(split);
        if crc32(body).to_le_bytes() != trailer {
            return Err(Error::corrupt(file, split as u64, "crc mismatch"));
        }
        Ok(Reader::new(file, body, 0))
    }

    /// The file offset reached.
    pub fn offset(&self) -> u64 {
        self.base + self.at as u64
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    /// A [`Error::Corrupt`] at the offset reached.
    pub fn corrupt(&self, reason: &'static str) -> Error {
        Error::corrupt(self.file, self.offset(), reason)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, reason: &'static str) -> Result<&'a [u8], Error> {
        let end = self.at.checked_add(n).filter(|&end| end <= self.data.len());
        let end = end.ok_or_else(|| self.corrupt(reason))?;
        let bytes = &self.data[self.at..end];
        self.at = end;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self, reason: &'static str) -> Result<[u8; N], Error> {
        Ok(self.take(N, reason)?.try_into().expect("N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self, reason: &'static str) -> Result<u8, Error> {
        Ok(self.array::<1>(reason)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self, reason: &'static str) -> Result<u32, Error> {
        self.array(reason).map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self, reason: &'static str) -> Result<u64, Error> {
        self.array(reason).map(u64::from_le_bytes)
    }

    /// A `u64` count of items at least `each` bytes long — refused when
    /// the bytes left cannot hold that many, so a count sized by a lie
    /// never reaches an allocation.
    pub fn count(&mut self, each: usize, reason: &'static str) -> Result<usize, Error> {
        let n = self.u64(reason)?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining() / each.max(1))
            .ok_or_else(|| self.corrupt(reason))
    }

    /// Reads a [`Put::put_header`] and returns its version, refusing
    /// another magic, a version not in `versions`, or — when `shard` is
    /// given — another shard.
    pub fn header(
        &mut self,
        magic: &[u8; 4],
        versions: &[u32],
        shard: Option<u32>,
    ) -> Result<u32, Error> {
        if self.take(4, "truncated header")? != magic {
            return Err(self.corrupt("bad magic"));
        }
        let version = self.u32("truncated header")?;
        if !versions.contains(&version) {
            return Err(self.corrupt("unknown version"));
        }
        let found = self.u32("truncated header")?;
        if shard.is_some_and(|shard| shard != found) {
            return Err(self.corrupt("file belongs to another shard"));
        }
        Ok(version)
    }

    /// Reads one [`Put::put_frame`] and returns its payload and CRC once
    /// the CRC holds; on error the reader stays at the frame's start.
    pub fn frame(&mut self) -> Result<(&'a [u8], u32), Error> {
        let mut r = *self;
        let len = r.u32("torn frame header")?;
        let crc = r.u32("torn frame header")?;
        let payload = r.take(len as usize, "torn frame payload")?;
        if crc32(payload) != crc {
            return Err(self.corrupt("frame crc mismatch"));
        }
        *self = r;
        Ok((payload, crc))
    }

    /// The torn-tail scan: reads frames up to the end of the bytes,
    /// handing each payload to `record`, and stops at the first frame that
    /// is torn, fails its CRC, or that `record` refuses (with the reason
    /// it returns). Returns where and why it stopped — `None` at a clean
    /// end — and leaves the reader on the first byte not accepted, so
    /// [`Reader::remaining`] is the torn tail.
    pub fn scan_frames(
        &mut self,
        mut record: impl FnMut(&[u8]) -> Result<(), &'static str>,
    ) -> Option<Error> {
        while self.remaining() > 0 {
            let mut next = *self;
            let accepted = next
                .frame()
                .and_then(|(payload, _)| record(payload).map_err(|reason| self.corrupt(reason)));
            match accepted {
                Ok(()) => *self = next,
                Err(e) => return Some(e),
            }
        }
        None
    }
}

/// `<prefix><n as 16 hex digits><suffix>`: the name of numbered file `n`,
/// which [`scan_numbered`] finds again.
pub fn numbered(prefix: &str, n: u64, suffix: &str) -> String {
    format!("{prefix}{n:016x}{suffix}")
}

/// The [`numbered`] files `prefix…suffix` in `dir`, as `(n, name)` pairs
/// in no particular order. The temps a crash left of such files
/// ([`temp_path`]) are deleted on the way.
pub fn scan_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, String)>> {
    let (mut found, mut stale) = (Vec::new(), Vec::new());
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().into_string().unwrap_or_default();
        let stem = name.strip_suffix(TEMP).unwrap_or(&name);
        let hex = stem
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix));
        let Some(hex) = hex.filter(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()))
        else {
            continue;
        };
        let n = u64::from_str_radix(hex, 16).expect("16 hex digits");
        if stem.len() < name.len() {
            stale.push(dir.join(&name));
        } else {
            found.push((n, name));
        }
    }
    remove(stale)?;
    Ok(found)
}

const TEMP: &str = ".tmp";

/// Where [`publish`] stages `path`: `<path>.tmp`, beside it, since a
/// rename does not cross file systems.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(TEMP);
    name.into()
}

/// Replaces `path` with what `write` puts into a fresh [`temp_path`],
/// atomically and durably: the temp file is fsynced before it is renamed
/// over `path`, and the directory is fsynced after, so a crash at any
/// point leaves either the old file or the whole new one (at worst beside
/// a stale temp).
///
/// # Errors
///
/// Propagates the first I/O failure, `write`'s included; on every error
/// before the rename `path` is untouched and the temp is deleted.
pub fn publish(path: &Path, write: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    let tmp = temp_path(path);
    let staged = File::create(&tmp)
        .and_then(|mut file| {
            write(&mut file)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_dir(path)
}

/// Deletes `files` — all in one directory; one already gone counts as
/// deleted — then fsyncs that directory, so the deletions survive a
/// crash. Stops at the first failure to delete.
pub fn remove(files: impl IntoIterator<Item = PathBuf>) -> io::Result<()> {
    let mut deleted = None;
    for file in files {
        match fs::remove_file(&file) {
            Ok(()) => deleted = Some(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    deleted.map_or(Ok(()), |file| fsync_dir(&file))
}

/// Fsyncs the directory holding `file` (the current directory for a bare
/// name), which is what makes a rename or removal inside it durable on
/// linux; harmless elsewhere.
pub fn fsync_dir(file: &Path) -> io::Result<()> {
    let dir = file.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    /// Byte-at-a-time reference CRC, the differential oracle for the
    /// sliced fast path.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference() {
        // Every length 0..64 to cover all chunk remainders, then a few
        // larger pseudo-random bodies.
        let mut data = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..4096usize {
            if len < 64 || len % 97 == 0 {
                assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push(x as u8);
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hp-store-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn publish_replaces_whole_files_and_keeps_the_old_one_on_error() {
        let dir = scratch("publish");
        let path = dir.join("file");
        publish(&path, |f| f.write_all(b"first")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        assert!(!temp_path(&path).exists(), "temp file renamed away");

        let failed = publish(&path, |f| {
            f.write_all(b"half of the sec")?;
            Err(io::Error::other("disk full"))
        });
        assert_eq!(failed.unwrap_err().to_string(), "disk full");
        assert_eq!(fs::read(&path).unwrap(), b"first", "old file intact");
        assert!(!temp_path(&path).exists(), "a failed write leaves no temp");

        publish(&path, |f| f.write_all(b"second")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_finds_numbered_files_and_deletes_only_their_stale_temps() {
        let dir = scratch("scan");
        let names = [
            numbered("shard-1-", 0x2a, ".hps"),
            numbered("shard-1-", 0x2b, ".hps.tmp"),
            numbered("shard-10-", 7, ".hps.tmp"),
            "shard-1-2a.hps".to_string(),
            "shard-1.manifest".to_string(),
        ];
        for name in &names {
            fs::write(dir.join(name), b"x").unwrap();
        }
        let found = scan_numbered(&dir, "shard-1-", ".hps").unwrap();
        assert_eq!(found, vec![(0x2a, names[0].clone())]);
        let left: Vec<bool> = names.iter().map(|n| dir.join(n).exists()).collect();
        assert_eq!(
            left,
            [true, false, true, true, true],
            "only shard 1's temp goes"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_bodies_refuse_any_flip() {
        let mut body = b"a sealed body".to_vec();
        body.seal();
        assert_eq!(
            Reader::sealed(Path::new("f"), &body).unwrap().remaining(),
            13
        );
        for at in 0..body.len() {
            let mut flipped = body.clone();
            flipped[at] ^= 0x20;
            assert!(
                Reader::sealed(Path::new("f"), &flipped).is_err(),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn the_scan_reports_where_and_why_it_stopped() {
        let mut bytes = Vec::new();
        bytes.put_header(b"TEST", 3, 9);
        for payload in [&b"one"[..], b"two", b"three"] {
            bytes.put_frame(payload);
        }
        let file = Path::new("frames");
        let mut r = Reader::new(file, &bytes, 0);
        assert_eq!(r.header(b"TEST", &[2, 3], Some(9)).unwrap(), 3);
        let mut seen = Vec::new();
        let stop = r.scan_frames(|p| {
            seen.push(p.to_vec());
            if p == b"three" {
                return Err("refused");
            }
            Ok(())
        });
        assert_eq!(seen, [&b"one"[..], b"two", b"three"]);
        assert!(
            matches!(
                stop,
                Some(Error::Corrupt {
                    offset: 34,
                    reason: "refused",
                    ..
                })
            ),
            "{stop:?}"
        );
        assert_eq!((r.offset(), r.remaining()), (34, 13));

        bytes.truncate(bytes.len() - 1);
        let mut r = Reader::new(file, &bytes[34..], 34);
        let stop = r.scan_frames(|_| Ok(()));
        assert!(
            matches!(
                stop,
                Some(Error::Corrupt {
                    reason: "torn frame payload",
                    ..
                })
            ),
            "{stop:?}"
        );
        assert_eq!(r.remaining(), 12, "the torn frame is the tail");

        let header =
            |versions: &[u32], shard| Reader::new(file, &bytes, 0).header(b"TEST", versions, shard);
        assert!(matches!(
            header(&[3], Some(8)),
            Err(Error::Corrupt {
                reason: "file belongs to another shard",
                ..
            })
        ));
        assert!(matches!(
            header(&[4], None),
            Err(Error::Corrupt {
                reason: "unknown version",
                ..
            })
        ));
        assert!(matches!(
            Reader::new(file, b"TES", 0).header(b"TEST", &[3], None),
            Err(Error::Corrupt { .. })
        ));
    }

    proptest! {
        /// However large a claimed count and however few bytes are left,
        /// `count` hands out only what the bytes can hold, and `take`
        /// never moves past the end.
        #[test]
        fn the_reader_survives_hostile_counts(
            claim in (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
                0 => raw,
                1 => raw % 64,
                _ => u64::MAX - raw % 64,
            }),
            left in 0usize..200,
            each in 0usize..40,
        ) {
            let mut bytes = claim.to_le_bytes().to_vec();
            bytes.resize(8 + left, 0);
            let mut r = Reader::new(Path::new("count"), &bytes, 0);
            match r.count(each, "too many") {
                Ok(n) => prop_assert!(n as u64 == claim && n * each.max(1) <= left),
                Err(_) => prop_assert!(claim > (left / each.max(1)) as u64),
            }
            let mut r = Reader::new(Path::new("count"), &bytes, 3);
            let taken = r.take(claim as usize, "far").map(<[u8]>::len);
            prop_assert_eq!(taken.ok(), (claim <= bytes.len() as u64).then_some(claim as usize));
        }
    }
}
