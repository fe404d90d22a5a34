//! Cold-history segment files: durable spill targets for evicted
//! server histories, read back one record at a time.
//!
//! The online service keeps hot servers' tiered histories resident and
//! evicts cold ones to disk. A *segment* is a write-once file holding a
//! batch of evicted payloads, published through [`durable::publish`]
//! like every other record file. Once sealed a segment is immutable, and
//! faulting a payload back never writes: a fault opens the segment file,
//! checks its header and makes one positioned read of the record (about
//! 4 µs for a short history on a 2-vCPU machine,
//! `hp-store.segment_fault_us`). No map or handle is kept between faults.
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
//! revalidates the header, the record frame *and* the payload CRC, and
//! refuses a reference the file is too short to hold before it allocates,
//! so a torn, truncated or corrupted segment surfaces as a typed
//! [`Error::Corrupt`] — never as silently wrong history bytes, and never
//! as a signal, even when the file is damaged after an earlier fault read
//! it. Reclamation is coarse: once a checkpoint no longer references any
//! record in segments below a sequence floor, [`ColdStore::remove_below`]
//! deletes those files whole.

use crate::durable::{self, numbered, publish, Error, Put, Reader};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"HPSG";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 20;
/// `server u64 | len u32 | crc u32` before each payload.
const RECORD_HEAD_LEN: usize = 16;
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

/// The cold tier: a directory of sealed segment files and the size of
/// each.
///
/// One instance per shard; the shard id is stamped into every segment
/// header and revalidated on every fault, so segments can never be wired
/// to the wrong shard after an operator move.
#[derive(Debug)]
pub struct ColdStore {
    dir: PathBuf,
    shard: u32,
    next_seq: u64,
    /// Live segments: sequence → file size.
    segments: BTreeMap<u64, u64>,
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
            segments.insert(seq, fs::metadata(dir.join(name))?.len());
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
        self.segments.values().sum()
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
            HEADER_LEN
                + records
                    .iter()
                    .map(|(_, p)| RECORD_HEAD_LEN + p.len())
                    .sum::<usize>(),
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
        self.segments.insert(seq, body.len() as u64);
        Ok(refs)
    }

    /// Faults one spilled payload back from its segment: opens the file,
    /// checks its header, and reads the record with one positioned read,
    /// revalidating the frame against `server` and the reference, and the
    /// payload against its CRC.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on any mismatch (torn write, bit rot, a file
    /// truncated since it was written, an offset or length past the
    /// file, a reclaimed or unknown segment); [`Error::Io`] when the file
    /// cannot be opened or read.
    pub fn fault(&self, server: u64, r: &SegmentRef) -> Result<Vec<u8>, Error> {
        let path = self.path(r.seq);
        if !self.segments.contains_key(&r.seq) {
            return Err(Error::corrupt(
                &path,
                0,
                "segment unknown or already reclaimed",
            ));
        }
        let mut file = File::open(&path)?;
        let mut head = [0; HEADER_LEN];
        read_exact(&mut file, &path, 0, &mut head, "truncated header")?;
        let mut header = Reader::new(&path, &head, 0);
        header.header(MAGIC, &[VERSION], Some(self.shard))?;
        if header.u64("truncated header")? != r.seq {
            return Err(header.corrupt("header sequence does not match the file name"));
        }
        // The whole record must lie inside the file before a byte of it
        // is allocated: a reference may come from a damaged snapshot.
        let size = file.metadata()?.len();
        r.offset
            .checked_add(RECORD_HEAD_LEN as u64 + u64::from(r.len))
            .filter(|&end| r.offset >= HEADER_LEN as u64 && end <= size)
            .ok_or_else(|| Error::corrupt(&path, r.offset, "record out of range"))?;
        let mut record = vec![0; RECORD_HEAD_LEN + r.len as usize];
        read_exact(&mut file, &path, r.offset, &mut record, "torn record")?;
        let mut reader = Reader::new(&path, &record, r.offset);
        if reader.u64("torn record")? != server {
            return Err(reader.corrupt("record belongs to another server"));
        }
        let (payload, crc) = reader.frame()?;
        if (payload.len(), crc) != (r.len as usize, r.crc) {
            return Err(reader.corrupt("frame does not match its reference"));
        }
        record.drain(..RECORD_HEAD_LEN);
        Ok(record)
    }

    /// Deletes every segment with sequence `< floor` through
    /// [`durable::remove`]. Returns the bytes reclaimed. Called at
    /// checkpoint once no retained snapshot references those segments.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (a segment still on disk stays counted).
    pub fn remove_below(&mut self, floor: u64) -> io::Result<u64> {
        let live = self.segments.split_off(&floor);
        let doomed = std::mem::replace(&mut self.segments, live);
        let removed = durable::remove(doomed.keys().map(|&seq| self.path(seq)));
        let mut freed = 0;
        for (seq, size) in doomed {
            if removed.is_err() && self.path(seq).exists() {
                self.segments.insert(seq, size);
            } else {
                freed += size;
            }
        }
        removed.map(|()| freed)
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(numbered(PREFIX, seq, ""))
    }
}

/// Reads `buf.len()` bytes of `file` from offset `at`; a file that ends
/// first is an [`Error::Corrupt`] for `reason`, not an I/O error.
fn read_exact(
    file: &mut File,
    path: &Path,
    at: u64,
    buf: &mut [u8],
    reason: &'static str,
) -> Result<(), Error> {
    file.seek(SeekFrom::Start(at))?;
    file.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => Error::corrupt(path, at, reason),
        _ => Error::Io(e),
    })
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
        let reopened = ColdStore::open(&dir, 0).unwrap();
        assert!(matches!(
            reopened.fault(5, &refs[0]),
            Err(Error::Corrupt { .. })
        ));

        // A flipped payload byte fails the CRC.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let reopened = ColdStore::open(&dir, 0).unwrap();
        let err = reopened.fault(5, &refs[0]).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");

        // A damaged header refuses the whole segment.
        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xff;
        fs::write(&path, &bad_magic).unwrap();
        let reopened = ColdStore::open(&dir, 0).unwrap();
        assert!(matches!(
            reopened.fault(5, &refs[0]),
            Err(Error::Corrupt { .. })
        ));

        // An empty file (a segment lost all its bytes) has no header.
        fs::write(&path, b"").unwrap();
        let reopened = ColdStore::open(&dir, 0).unwrap();
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
        let other = ColdStore::open(&dir, 2).unwrap();
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

    /// A fault reads the file as it is now, not as an earlier fault saw
    /// it: a segment truncated or flipped under a live store is a typed
    /// corruption on the next fault, with no reopen in between.
    #[test]
    fn a_segment_damaged_after_its_first_fault_is_a_typed_error() {
        let dir = scratch("damaged-live");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        let refs = store
            .write_segment(&[(1, payload(1, 5000)), (2, payload(2, 3000))])
            .unwrap();
        assert!(
            refs[1].offset > 4096,
            "the second record starts past the first page"
        );
        let path = dir.join("seg-0000000000000000");
        let full = fs::read(&path).unwrap();

        assert_eq!(store.fault(1, &refs[0]).unwrap(), payload(1, 5000));
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(HEADER_LEN as u64)
            .unwrap();
        for (server, r) in [(2, &refs[1]), (1, &refs[0])] {
            let err = store.fault(server, r).unwrap_err();
            assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        }

        fs::write(&path, &full).unwrap();
        assert_eq!(store.fault(2, &refs[1]).unwrap(), payload(2, 3000));
        let mut flipped = full.clone();
        flipped[refs[1].offset as usize + RECORD_HEAD_LEN + 7] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        let err = store.fault(2, &refs[1]).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");
        assert_eq!(store.fault(1, &refs[0]).unwrap(), payload(1, 5000));
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
}
