//! Cold-history segment files: durable spill targets for evicted
//! server histories, read back through `mmap`.
//!
//! The online service keeps hot servers' tiered histories resident and
//! evicts cold ones to disk. A *segment* is a write-once file holding a
//! batch of evicted payloads, built with the same crash discipline as
//! the snapshot store: write to a temp file, `fsync`, rename into place,
//! `fsync` the directory. Once sealed a segment is immutable — faulting
//! a payload back never writes — so reads can go through a shared
//! read-only memory map and cost one page fault per cold page instead of
//! a buffered-read copy.
//!
//! ```text
//! segment file (seg-<seq:016x>):
//!   header:  magic "HPSG" | version u32 | shard u32 | seq u64
//!   record:  server u64 | len u32 | crc32(payload) u32 | payload
//!   ...more records...
//! ```
//!
//! Every fault revalidates the record frame *and* the payload CRC, so a
//! torn or corrupted segment surfaces as a typed
//! [`SegmentError::Corrupt`] — never as silently wrong history bytes.
//! Reclamation is coarse: once a checkpoint no longer references any
//! record in segments below a sequence floor, [`ColdStore::remove_below`]
//! deletes those files whole.

use crate::durable::{crc32, fsync_dir, publish};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"HPSG";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 20;
const RECORD_HEADER_LEN: usize = 16;

/// A durable pointer to one spilled payload inside a sealed segment.
///
/// Self-validating on fault: the record's in-file frame must match the
/// reference (length and CRC) and the payload must match its CRC.
/// Serialized into snapshots so a restart can re-attach spilled servers
/// without rereading their history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// Sequence number of the segment file holding the record.
    pub seq: u64,
    /// Byte offset of the record header inside the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 (IEEE) of the payload.
    pub crc: u32,
}

/// Errors from the cold-segment store.
#[derive(Debug)]
pub enum SegmentError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A segment file or record failed validation — torn write, bit rot,
    /// or a reference into a reclaimed segment. The payload is never
    /// returned in this case.
    Corrupt {
        /// Sequence number of the offending segment.
        seq: u64,
        /// Byte offset of the offending record (0 for header damage).
        offset: u64,
        /// What failed, in human terms.
        reason: String,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o error: {e}"),
            SegmentError::Corrupt { seq, offset, reason } => {
                write!(f, "segment {seq:016x} corrupt at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io(e) => Some(e),
            SegmentError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        SegmentError::Io(e)
    }
}

/// The cold tier: a directory of sealed segment files plus the open
/// memory maps over them.
///
/// One instance per shard; the shard id is stamped into every segment
/// header and revalidated on open, so segments can never be wired to the
/// wrong shard after an operator move.
#[derive(Debug)]
pub struct ColdStore {
    dir: PathBuf,
    shard: u32,
    next_seq: u64,
    /// Live segments: sequence → (file size, lazily opened map).
    segments: BTreeMap<u64, SegmentSlot>,
}

#[derive(Debug)]
struct SegmentSlot {
    size: u64,
    map: Option<Arc<mapped::Mapped>>,
}

impl ColdStore {
    /// Opens (creating if needed) the segment directory for `shard`,
    /// scanning existing segments to restore the sequence counter and
    /// byte accounting.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a file with a malformed name is ignored
    /// (it is not a sealed segment).
    pub fn open(dir: &Path, shard: u32) -> io::Result<ColdStore> {
        fs::create_dir_all(dir)?;
        let mut segments = BTreeMap::new();
        let mut next_seq = 0;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(seq) = parse_segment_name(&name.to_string_lossy()) else {
                continue;
            };
            let size = entry.metadata()?.len();
            next_seq = next_seq.max(seq + 1);
            segments.insert(seq, SegmentSlot { size, map: None });
        }
        Ok(ColdStore {
            dir: dir.to_path_buf(),
            shard,
            next_seq,
            segments,
        })
    }

    /// The directory holding this store's segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes of sealed segment files on disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.size).sum()
    }

    /// Number of live (not yet reclaimed) segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Lowest live segment sequence, if any segment exists.
    pub fn min_seq(&self) -> Option<u64> {
        self.segments.keys().next().copied()
    }

    /// Seals one new segment holding `records` (a `(server, payload)`
    /// batch), with the snapshot store's crash discipline: temp file →
    /// `fsync` → rename → directory `fsync`. Returns one [`SegmentRef`]
    /// per record, in input order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error no sealed segment appears (at
    /// worst a leftover temp file, removed on the next open).
    pub fn write_segment(&mut self, records: &[(u64, Vec<u8>)]) -> io::Result<Vec<SegmentRef>> {
        let seq = self.next_seq;
        let mut body = Vec::with_capacity(
            HEADER_LEN + records.iter().map(|(_, p)| RECORD_HEADER_LEN + p.len()).sum::<usize>(),
        );
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&VERSION.to_le_bytes());
        body.extend_from_slice(&self.shard.to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        let mut refs = Vec::with_capacity(records.len());
        for (server, payload) in records {
            let record = SegmentRef {
                seq,
                offset: body.len() as u64,
                len: payload.len() as u32,
                crc: crc32(payload),
            };
            body.extend_from_slice(&server.to_le_bytes());
            body.extend_from_slice(&record.len.to_le_bytes());
            body.extend_from_slice(&record.crc.to_le_bytes());
            body.extend_from_slice(payload);
            refs.push(record);
        }

        let tmp = self.dir.join(format!(".tmp-seg-{seq:016x}"));
        let path = self.dir.join(segment_name(seq));
        publish(&tmp, &path, |file| file.write_all(&body))?;
        self.next_seq = seq + 1;
        self.segments.insert(
            seq,
            SegmentSlot {
                size: body.len() as u64,
                map: None,
            },
        );
        Ok(refs)
    }

    /// Faults one spilled payload back from its segment, revalidating
    /// the frame against `server` and the reference, and the payload
    /// against its CRC.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Corrupt`] on any mismatch (torn write, bit rot,
    /// reclaimed or unknown segment); [`SegmentError::Io`] on map
    /// failure.
    pub fn fault(&mut self, server: u64, r: &SegmentRef) -> Result<Vec<u8>, SegmentError> {
        let corrupt = |offset: u64, reason: String| SegmentError::Corrupt {
            seq: r.seq,
            offset,
            reason,
        };
        let map = self.map_segment(r.seq)?;
        let bytes = map.as_slice();
        let start = usize::try_from(r.offset)
            .ok()
            .filter(|&s| s >= HEADER_LEN && s + RECORD_HEADER_LEN <= bytes.len())
            .ok_or_else(|| corrupt(r.offset, format!("record offset out of range ({} file bytes)", bytes.len())))?;
        let frame_server = u64::from_le_bytes(bytes[start..start + 8].try_into().expect("8 bytes"));
        let frame_len = u32::from_le_bytes(bytes[start + 8..start + 12].try_into().expect("4 bytes"));
        let frame_crc = u32::from_le_bytes(bytes[start + 12..start + 16].try_into().expect("4 bytes"));
        if frame_server != server {
            return Err(corrupt(r.offset, format!("record belongs to server {frame_server}, expected {server}")));
        }
        if frame_len != r.len || frame_crc != r.crc {
            return Err(corrupt(
                r.offset,
                format!(
                    "frame (len {frame_len}, crc {frame_crc:08x}) does not match reference (len {}, crc {:08x})",
                    r.len, r.crc
                ),
            ));
        }
        let data_start = start + RECORD_HEADER_LEN;
        let data_end = data_start + r.len as usize;
        if data_end > bytes.len() {
            return Err(corrupt(r.offset, format!("payload truncated: needs {data_end} bytes, file has {}", bytes.len())));
        }
        let payload = &bytes[data_start..data_end];
        let actual = crc32(payload);
        if actual != r.crc {
            return Err(corrupt(r.offset, format!("payload crc {actual:08x}, expected {:08x}", r.crc)));
        }
        Ok(payload.to_vec())
    }

    /// Deletes every segment with sequence `< floor` (and drops its
    /// map). Returns the bytes reclaimed. Called at checkpoint once no
    /// retained snapshot references those segments.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (accounting is only updated for files
    /// actually removed).
    pub fn remove_below(&mut self, floor: u64) -> io::Result<u64> {
        let doomed: Vec<u64> = self.segments.range(..floor).map(|(&s, _)| s).collect();
        let mut freed = 0;
        for seq in doomed {
            fs::remove_file(self.dir.join(segment_name(seq)))?;
            if let Some(slot) = self.segments.remove(&seq) {
                freed += slot.size;
            }
        }
        if freed > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(freed)
    }

    fn map_segment(&mut self, seq: u64) -> Result<Arc<mapped::Mapped>, SegmentError> {
        let slot = self.segments.get_mut(&seq).ok_or(SegmentError::Corrupt {
            seq,
            offset: 0,
            reason: "segment unknown or already reclaimed".into(),
        })?;
        if let Some(map) = &slot.map {
            return Ok(Arc::clone(map));
        }
        let path = self.dir.join(segment_name(seq));
        let map = Arc::new(mapped::Mapped::open(&path)?);
        let bytes = map.as_slice();
        if bytes.len() < HEADER_LEN {
            return Err(SegmentError::Corrupt {
                seq,
                offset: 0,
                reason: format!("file too short for a header ({} bytes)", bytes.len()),
            });
        }
        if &bytes[0..4] != MAGIC {
            return Err(SegmentError::Corrupt { seq, offset: 0, reason: "bad magic".into() });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let shard = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let header_seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        if version != VERSION {
            return Err(SegmentError::Corrupt { seq, offset: 0, reason: format!("unknown version {version}") });
        }
        if shard != self.shard {
            return Err(SegmentError::Corrupt {
                seq,
                offset: 0,
                reason: format!("segment belongs to shard {shard}, store is shard {}", self.shard),
            });
        }
        if header_seq != seq {
            return Err(SegmentError::Corrupt {
                seq,
                offset: 0,
                reason: format!("header sequence {header_seq:016x} does not match file name"),
            });
        }
        slot.map = Some(Arc::clone(&map));
        Ok(map)
    }
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:016x}")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Read-only file mapping. On linux this is a real `mmap` through raw
/// syscalls (the workspace is dependency-free by policy), so faulting a
/// cold record costs page faults, not a full-file read; elsewhere it
/// degrades to reading the file into memory.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(unsafe_code)]
mod mapped {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// An immutable `mmap` of a whole file.
    #[derive(Debug)]
    pub struct Mapped {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is read-only and never mutated after construction.
    unsafe impl Send for Mapped {}
    unsafe impl Sync for Mapped {}

    impl Mapped {
        pub fn open(path: &Path) -> io::Result<Mapped> {
            let file = File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            if len == 0 {
                // mmap(len=0) is EINVAL; an empty file maps to an empty slice.
                return Ok(Mapped { ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(), len: 0 });
            }
            let ret = unsafe { sys_mmap(len, file.as_raw_fd()) };
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Mapped { ptr: ret as *const u8, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // Safety: the mapping is PROT_READ, MAP_PRIVATE, spans
            // exactly `len` bytes, and lives until Drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapped {
        fn drop(&mut self) {
            if self.len > 0 {
                // Safety: `ptr/len` came from a successful mmap and are
                // unmapped exactly once.
                unsafe { sys_munmap(self.ptr, self.len) };
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 9isize => ret, // __NR_mmap
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd as isize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_munmap(ptr: *const u8, len: usize) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 11isize => ret, // __NR_munmap
                in("rdi") ptr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                inlateout("x0") 0usize => ret, // addr -> return value
                in("x1") len,
                in("x2") PROT_READ,
                in("x3") MAP_PRIVATE,
                in("x4") fd as isize,
                in("x5") 0usize,
                in("x8") 222usize, // __NR_mmap
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_munmap(ptr: *const u8, len: usize) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                inlateout("x0") ptr => ret,
                in("x1") len,
                in("x8") 215usize, // __NR_munmap
                options(nostack)
            );
        }
        ret
    }
}

/// Portable fallback: reads the whole file (no mmap syscall available
/// without a libc dependency off linux).
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod mapped {
    use std::io;
    use std::path::Path;

    /// A file's contents, read eagerly.
    #[derive(Debug)]
    pub struct Mapped {
        bytes: Vec<u8>,
    }

    impl Mapped {
        pub fn open(path: &Path) -> io::Result<Mapped> {
            Ok(Mapped { bytes: std::fs::read(path)? })
        }

        pub fn as_slice(&self) -> &[u8] {
            &self.bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hp-store-segment-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn spill_and_fault_round_trip() {
        let dir = scratch("roundtrip");
        let mut store = ColdStore::open(&dir, 3).unwrap();
        let records = vec![(7u64, payload(1, 100)), (9u64, payload(2, 4097))];
        let refs = store.write_segment(&records).unwrap();
        assert_eq!(refs.len(), 2);
        assert_eq!(store.segment_count(), 1);
        assert!(store.spilled_bytes() > 4197);
        assert_eq!(store.fault(7, &refs[0]).unwrap(), records[0].1);
        assert_eq!(store.fault(9, &refs[1]).unwrap(), records[1].1);
        // Wrong server is a typed corruption, not a payload.
        assert!(matches!(store.fault(8, &refs[0]), Err(SegmentError::Corrupt { .. })));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_restores_sequence_and_accounting() {
        let dir = scratch("reopen");
        let (refs, bytes) = {
            let mut store = ColdStore::open(&dir, 0).unwrap();
            let refs = store.write_segment(&[(1, payload(3, 50))]).unwrap();
            store.write_segment(&[(2, payload(4, 60))]).unwrap();
            (refs, store.spilled_bytes())
        };
        let mut store = ColdStore::open(&dir, 0).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.spilled_bytes(), bytes);
        assert_eq!(store.min_seq(), Some(0));
        assert_eq!(store.fault(1, &refs[0]).unwrap(), payload(3, 50));
        // The next segment continues the sequence rather than colliding.
        let new_refs = store.write_segment(&[(3, payload(5, 10))]).unwrap();
        assert_eq!(new_refs[0].seq, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_writes_surface_as_typed_corruption() {
        let dir = scratch("torn");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        let refs = store.write_segment(&[(5, payload(6, 300))]).unwrap();
        let path = dir.join("seg-0000000000000000");

        // Truncated mid-payload (a torn write the rename discipline
        // prevents, but defense in depth for disk-level damage).
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 20]).unwrap();
        let mut reopened = ColdStore::open(&dir, 0).unwrap();
        assert!(matches!(reopened.fault(5, &refs[0]), Err(SegmentError::Corrupt { .. })));

        // A flipped payload byte fails the CRC.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let mut reopened = ColdStore::open(&dir, 0).unwrap();
        let err = reopened.fault(5, &refs[0]).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");

        // A damaged header refuses the whole segment.
        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xff;
        fs::write(&path, &bad_magic).unwrap();
        let mut reopened = ColdStore::open(&dir, 0).unwrap();
        assert!(matches!(reopened.fault(5, &refs[0]), Err(SegmentError::Corrupt { .. })));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_shard_is_rejected() {
        let dir = scratch("shard");
        let refs = {
            let mut store = ColdStore::open(&dir, 1).unwrap();
            store.write_segment(&[(5, payload(9, 30))]).unwrap()
        };
        let mut other = ColdStore::open(&dir, 2).unwrap();
        let err = other.fault(5, &refs[0]).unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_below_reclaims_files_and_bytes() {
        let dir = scratch("gc");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        let r0 = store.write_segment(&[(1, payload(1, 100))]).unwrap();
        let r1 = store.write_segment(&[(2, payload(2, 100))]).unwrap();
        let r2 = store.write_segment(&[(3, payload(3, 100))]).unwrap();
        let before = store.spilled_bytes();
        let freed = store.remove_below(2).unwrap();
        assert!(freed > 0);
        assert_eq!(store.spilled_bytes(), before - freed);
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.min_seq(), Some(2));
        // Reclaimed refs fault as typed errors; the survivor still reads.
        assert!(matches!(store.fault(1, &r0[0]), Err(SegmentError::Corrupt { .. })));
        assert!(matches!(store.fault(2, &r1[0]), Err(SegmentError::Corrupt { .. })));
        assert_eq!(store.fault(3, &r2[0]).unwrap(), payload(3, 100));
        assert!(!dir.join("seg-0000000000000000").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_handles_empty_files() {
        let dir = scratch("empty");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty-file");
        fs::write(&path, b"").unwrap();
        let map = mapped::Mapped::open(&path).unwrap();
        assert!(map.as_slice().is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}
