//! Cold-history segment files: durable spill targets for evicted
//! server histories, read back through `mmap`.
//!
//! The online service keeps hot servers' tiered histories resident and
//! evicts cold ones to disk. A *segment* is a write-once file holding a
//! batch of evicted payloads, published through [`durable::publish`]
//! like every other record file. Once sealed a segment is immutable —
//! faulting a payload back never writes — so reads can go through a
//! shared read-only memory map and cost one page fault per cold page
//! instead of a buffered-read copy.
//!
//! ```text
//! segment file (seg-<seq:016x>):
//!   header:  magic "HPSG" | version u32 | shard u32 | seq u64
//!   record:  server u64 | len u32 | crc32(payload) u32 | payload
//!   ...more records...
//! ```
//!
//! The header and the `len | crc | payload` frame after each `server`
//! are [`durable`]'s; so are the name scan and the error. Every fault
//! revalidates the record frame *and* the payload CRC, so a torn or
//! corrupted segment surfaces as a typed [`Error::Corrupt`] — never as
//! silently wrong history bytes. Reclamation is coarse: once a
//! checkpoint no longer references any record in segments below a
//! sequence floor, [`ColdStore::remove_below`] deletes those files whole.

use crate::durable::{self, numbered, publish, Error, Put, Reader};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"HPSG";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 20;
const PREFIX: &str = "seg-";

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
    /// byte accounting, and deleting the temp of any segment a crash
    /// interrupted.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a file with another name is ignored (it
    /// is not a sealed segment).
    pub fn open(dir: &Path, shard: u32) -> io::Result<ColdStore> {
        fs::create_dir_all(dir)?;
        let mut segments = BTreeMap::new();
        for (seq, name) in durable::scan_numbered(dir, PREFIX, "")? {
            let size = fs::metadata(dir.join(name))?.len();
            segments.insert(seq, SegmentSlot { size, map: None });
        }
        Ok(ColdStore {
            dir: dir.to_path_buf(),
            shard,
            next_seq: segments
                .keys()
                .next_back()
                .map_or(0, |&seq| seq.saturating_add(1)),
            segments,
        })
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
    /// batch) through [`durable::publish`]. Returns one [`SegmentRef`]
    /// per record, in input order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error no sealed segment appears.
    pub fn write_segment(&mut self, records: &[(u64, Vec<u8>)]) -> io::Result<Vec<SegmentRef>> {
        let seq = self.next_seq;
        let mut body = Vec::with_capacity(
            HEADER_LEN + records.iter().map(|(_, p)| 16 + p.len()).sum::<usize>(),
        );
        body.put_header(MAGIC, VERSION, self.shard);
        body.put_u64(seq);
        let refs = records
            .iter()
            .map(|(server, payload)| {
                let offset = body.len() as u64;
                body.put_u64(*server);
                let crc = body.put_frame(payload);
                SegmentRef {
                    seq,
                    offset,
                    len: payload.len() as u32,
                    crc,
                }
            })
            .collect();
        publish(&self.path(seq), |file| file.write_all(&body))?;
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
    /// [`Error::Corrupt`] on any mismatch (torn write, bit rot, an
    /// offset or length past the file, a reclaimed or unknown segment);
    /// [`Error::Io`] on map failure.
    pub fn fault(&mut self, server: u64, r: &SegmentRef) -> Result<Vec<u8>, Error> {
        let path = self.path(r.seq);
        let map = self.map_segment(r.seq, &path)?;
        // `map_segment` checked the header; records follow it.
        let record = usize::try_from(r.offset)
            .ok()
            .filter(|&at| at >= HEADER_LEN);
        let record = record.and_then(|at| map.as_slice().get(at..));
        let record =
            record.ok_or_else(|| Error::corrupt(&path, r.offset, "record offset out of range"))?;
        let mut record = Reader::new(&path, record, r.offset);
        if record.u64("torn record")? != server {
            return Err(record.corrupt("record belongs to another server"));
        }
        let (payload, crc) = record.frame()?;
        if (payload.len(), crc) != (r.len as usize, r.crc) {
            return Err(record.corrupt("frame does not match its reference"));
        }
        Ok(payload.to_vec())
    }

    /// Deletes every segment with sequence `< floor` (and drops its
    /// map) through [`durable::remove`]. Returns the bytes reclaimed.
    /// Called at checkpoint once no retained snapshot references those
    /// segments.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (a segment still on disk stays counted).
    pub fn remove_below(&mut self, floor: u64) -> io::Result<u64> {
        let live = self.segments.split_off(&floor);
        let doomed = std::mem::replace(&mut self.segments, live);
        let removed = durable::remove(doomed.keys().map(|&seq| self.path(seq)));
        let mut freed = 0;
        for (seq, slot) in doomed {
            if removed.is_err() && self.path(seq).exists() {
                self.segments.insert(seq, slot);
            } else {
                freed += slot.size;
            }
        }
        removed.map(|()| freed)
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(numbered(PREFIX, seq, ""))
    }

    fn map_segment(&mut self, seq: u64, path: &Path) -> Result<Arc<mapped::Mapped>, Error> {
        let Some(slot) = self.segments.get_mut(&seq) else {
            return Err(Error::corrupt(
                path,
                0,
                "segment unknown or already reclaimed",
            ));
        };
        if let Some(map) = &slot.map {
            return Ok(Arc::clone(map));
        }
        let map = Arc::new(mapped::Mapped::open(path)?);
        let mut header = Reader::new(path, map.as_slice(), 0);
        header.header(MAGIC, &[VERSION], Some(self.shard))?;
        if header.u64("truncated header")? != seq {
            return Err(header.corrupt("header sequence does not match the file name"));
        }
        slot.map = Some(Arc::clone(&map));
        Ok(map)
    }
}

/// Read-only file mapping. On linux this is a real `mmap` through raw
/// syscalls (the workspace is dependency-free by policy), so faulting a
/// cold record costs page faults, not a full-file read; elsewhere it
/// degrades to reading the file into memory.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
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
                return Ok(Mapped {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            let ret = unsafe { sys_mmap(len, file.as_raw_fd()) };
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Mapped {
                ptr: ret as *const u8,
                len,
            })
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
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
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
            Ok(Mapped {
                bytes: std::fs::read(path)?,
            })
        }

        pub fn as_slice(&self) -> &[u8] {
            &self.bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, Feedback, Rating, ServerId, TieredHistory};
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hp-store-segment-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
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
        assert!(matches!(
            store.fault(8, &refs[0]),
            Err(Error::Corrupt { .. })
        ));
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
        assert!(matches!(
            reopened.fault(5, &refs[0]),
            Err(Error::Corrupt { .. })
        ));

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
        assert!(matches!(
            reopened.fault(5, &refs[0]),
            Err(Error::Corrupt { .. })
        ));
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
        assert!(matches!(store.fault(1, &r0[0]), Err(Error::Corrupt { .. })));
        assert!(matches!(store.fault(2, &r1[0]), Err(Error::Corrupt { .. })));
        assert_eq!(store.fault(3, &r2[0]).unwrap(), payload(3, 100));
        assert!(!dir.join("seg-0000000000000000").exists());
        fs::remove_dir_all(&dir).ok();
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and FNV-1a of a two-record segment as computed at PR 25's
    /// parent, before segments were ported onto `durable`'s header and
    /// frame codecs: the port must not move a byte on disk.
    #[test]
    fn segment_bytes_are_pinned() {
        let dir = scratch("pinned");
        let mut store = ColdStore::open(&dir, 3).unwrap();
        store.write_segment(&[(0, Vec::new())]).unwrap();
        let refs = store
            .write_segment(&[(7, payload(1, 100)), (u64::MAX - 2, payload(2, 333))])
            .unwrap();
        assert_eq!((refs[1].seq, refs[1].offset), (1, 136));
        let bytes = fs::read(dir.join("seg-0000000000000001")).unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (485, 0xc3b4_d2c4_0f69_c7b1));
        fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot can hand `fault` any reference. An offset within 16 of
    /// `u64::MAX` used to overflow `offset + 16` (a panic in debug, an
    /// out-of-bounds slice in release); it is a typed corruption.
    #[test]
    fn a_reference_near_u64_max_is_corrupt_not_a_panic() {
        let dir = scratch("far");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        let good = store.write_segment(&[(5, payload(6, 40))]).unwrap()[0];
        for offset in [
            u64::MAX,
            u64::MAX - 7,
            u64::MAX - 15,
            u64::MAX - 16,
            1 << 63,
            21,
            3,
        ] {
            let err = store.fault(5, &SegmentRef { offset, ..good }).unwrap_err();
            assert!(
                err.to_string().contains("corrupt"),
                "offset {offset}: {err}"
            );
        }
        let err = store
            .fault(
                5,
                &SegmentRef {
                    len: u32::MAX,
                    ..good
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(store.fault(5, &good).unwrap(), payload(6, 40));
        fs::remove_dir_all(&dir).ok();
    }

    /// `write_segment` stages through a temp: the temp a crash left is
    /// deleted by the next open, and nothing else is.
    #[test]
    fn open_deletes_the_temps_a_crash_left() {
        let dir = scratch("stale");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        store.write_segment(&[(1, payload(1, 10))]).unwrap();
        let stale = dir.join("seg-0000000000000001.tmp");
        let foreign = dir.join("seg-notes.tmp");
        fs::write(&stale, b"half a segm").unwrap();
        fs::write(&foreign, b"not ours").unwrap();
        let store = ColdStore::open(&dir, 0).unwrap();
        assert!(!stale.exists(), "stale temp deleted");
        assert!(foreign.exists() && dir.join("seg-0000000000000000").exists());
        assert_eq!(store.segment_count(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// A segment's bytes, the `(server, payload)` records it holds and
    /// their refs.
    type Genuine = (Vec<u8>, Vec<(u64, Vec<u8>)>, Vec<SegmentRef>);

    /// `history(300)` as the build before the issuers left the history
    /// wrote it: the old payload layout, issuer sections included, which
    /// `TieredHistory::decode` still reads.
    const OLD_HISTORY_300: &[u8] =
        include_bytes!("../tests/fixtures/issuer-layout-history-300.bin");

    /// A compacted history's payload, what the spill path writes.
    fn history(len: u64) -> Vec<u8> {
        let mut history: TieredHistory = (0..len)
            .map(|t| {
                let client = ClientId::new(t * 7 % 101);
                Feedback::new(t, ServerId::new(9), client, Rating::from_good(t % 5 != 0))
            })
            .collect();
        history.compact(100);
        history.encode()
    }

    /// The segment `fault_survives_hostile_bytes` mangles: a payload of
    /// each layout `TieredHistory::decode` reads among its records.
    fn genuine() -> &'static Genuine {
        static GENUINE: std::sync::OnceLock<Genuine> = std::sync::OnceLock::new();
        GENUINE.get_or_init(|| {
            let dir = scratch("genuine");
            let records = vec![
                (7, payload(1, 100)),
                (9, history(300)),
                (11, Vec::new()),
                (13, OLD_HISTORY_300.to_vec()),
            ];
            let refs = ColdStore::open(&dir, 1)
                .unwrap()
                .write_segment(&records)
                .unwrap();
            let bytes = fs::read(dir.join("seg-0000000000000000")).unwrap();
            fs::remove_dir_all(&dir).ok();
            let old = TieredHistory::decode(OLD_HISTORY_300).map(|h| h.encode());
            assert_eq!(old, Some(history(300)), "the old layout reads as the new");
            (bytes, records, refs)
        })
    }

    /// A length, offset or count the file cannot honour: any value, a
    /// small one, or one just short of the type's end.
    fn hostile() -> impl Strategy<Value = u64> {
        (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
            0 => raw,
            1 => raw % 600,
            _ => u64::MAX - raw % 64,
        })
    }

    proptest! {
        /// Whatever the segment's bytes (truncated, a byte flipped, any
        /// u32 or u64 overwritten) and whatever the reference (any
        /// field replaced), `fault` returns the payload that was spilled
        /// under exactly that reference or a typed corruption — never a
        /// panic, never other bytes.
        #[test]
        fn fault_survives_hostile_bytes(
            mangle in (0u8..5, any::<usize>(), hostile()),
            pick in (0usize..4, 0u8..16, hostile(), hostile()),
            server in (any::<bool>(), any::<u64>()),
        ) {
            let (bytes, records, refs) = genuine();
            let mut bytes = bytes.clone();
            let (kind, at, value) = mangle;
            match kind {
                0 => bytes.truncate(at % (bytes.len() + 1)),
                1 => {
                    let at = at % bytes.len();
                    bytes[at] ^= (value as u8).max(1);
                }
                2 => {
                    let at = at % (bytes.len() - 3);
                    bytes[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
                }
                3 => {
                    let at = at % (bytes.len() - 7);
                    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
                _ => {}
            }
            let (i, fields, a, b) = pick;
            let mut r = refs[i];
            if fields & 1 != 0 { r.seq = a % 3; }
            if fields & 2 != 0 { r.offset = b; }
            if fields & 4 != 0 { r.len = a as u32; }
            if fields & 8 != 0 { r.crc = b as u32; }
            let server = if server.0 { records[i].0 } else { server.1 };

            let dir = scratch("hostile");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("seg-0000000000000000"), &bytes).unwrap();
            match ColdStore::open(&dir, 1).unwrap().fault(server, &r) {
                Ok(payload) => {
                    let j = refs.iter().position(|g| *g == r).expect("only a genuine ref faults");
                    prop_assert_eq!((server, &payload), (records[j].0, &records[j].1));
                    // A history payload decodes to what the current layout
                    // holds for its stream: the old layout's as the new.
                    if let Some(history) = TieredHistory::decode(&payload) {
                        let current = if payload == OLD_HISTORY_300 { self::history(300) } else { payload };
                        prop_assert_eq!(history.encode(), current);
                    }
                }
                Err(e) => prop_assert!(matches!(e, Error::Corrupt { .. }), "{e}"),
            }
            fs::remove_dir_all(&dir).ok();
        }
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
