//! Feedback logs: checkpoint a store's feedback to one file and replay it
//! into another.
//!
//! A log is one sealed [`durable`](crate::durable) body, published
//! atomically:
//!
//! ```text
//! magic "HPFL" | version=1 u32 | shard=0 u32 | count u64
//! | count × (time u64 | server u64 | client u64 | rating u8)
//! | crc32 u32 over everything before it
//! ```
//!
//! The 25-byte record ([`encode_feedback`]) is also the payload of every
//! journal frame the service writes. A load checks the seal and every
//! record before it appends anything, so a damaged log leaves the store
//! as it was.

use crate::durable::{publish, Error, Put, Reader};
use crate::store::FeedbackStore;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use std::io::Write;
use std::path::Path;

const MAGIC: [u8; 4] = *b"HPFL";
const VERSION: u32 = 1;

/// Bytes of one [`encode_feedback`] record.
pub const FEEDBACK_LEN: usize = 25;

/// `time u64 | server u64 | client u64 | rating u8` (1 positive, 0
/// negative), integers little-endian.
// `#[inline]` on both halves: the journal encodes every acked record
// through this across the crate boundary, and the workspace builds
// without LTO.
#[inline]
pub fn encode_feedback(f: &Feedback) -> [u8; FEEDBACK_LEN] {
    let mut buf = [0u8; FEEDBACK_LEN];
    buf[0..8].copy_from_slice(&f.time.to_le_bytes());
    buf[8..16].copy_from_slice(&f.server.value().to_le_bytes());
    buf[16..24].copy_from_slice(&f.client.value().to_le_bytes());
    buf[24] = u8::from(f.is_good());
    buf
}

/// The feedback an [`encode_feedback`] record holds; `None` for bytes of
/// another length or a rating byte other than 0 or 1.
#[inline]
pub fn decode_feedback(buf: &[u8]) -> Option<Feedback> {
    let buf: &[u8; FEEDBACK_LEN] = buf.try_into().ok()?;
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    let rating = match buf[24] {
        0 => Rating::Negative,
        1 => Rating::Positive,
        _ => return None,
    };
    Some(Feedback::new(
        word(0),
        ServerId::new(word(8)),
        ClientId::new(word(16)),
        rating,
    ))
}

/// Writes every feedback record in `store` to `path` (creating parent
/// directories), grouped by server (ascending), transaction order within
/// each server, atomically and durably through [`publish`]. Returns how
/// many records it wrote.
///
/// # Errors
///
/// Propagates I/O failures; `path` is then untouched.
pub fn save_feedback<S: FeedbackStore>(store: &S, path: &Path) -> Result<usize, Error> {
    let mut records = Vec::new();
    for server in store.servers() {
        for fb in store.history_of(server).iter() {
            records.put(&encode_feedback(fb));
        }
    }
    let count = records.len() / FEEDBACK_LEN;
    let mut bytes = Vec::with_capacity(records.len() + 24);
    bytes.put_header(&MAGIC, VERSION, 0);
    bytes.put_u64(count as u64);
    bytes.put(&records);
    bytes.seal();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    publish(path, |file| file.write_all(&bytes))?;
    Ok(count)
}

/// Reads the log at `path` and appends every record into `store`.
/// Returns how many it appended.
///
/// # Errors
///
/// [`Error::Corrupt`] when the seal, the header or any record does not
/// hold — nothing is appended then — and [`Error::Io`] when the file
/// cannot be read.
pub fn load_feedback<S: FeedbackStore>(store: &mut S, path: &Path) -> Result<usize, Error> {
    let feedbacks = decode(path, &std::fs::read(path)?)?;
    let count = feedbacks.len();
    for fb in feedbacks {
        store.append(fb);
    }
    Ok(count)
}

/// The records of the log `bytes` read from `file`, once all of them hold.
fn decode(file: &Path, bytes: &[u8]) -> Result<Vec<Feedback>, Error> {
    let mut r = Reader::sealed(file, bytes)?;
    r.header(&MAGIC, &[VERSION], Some(0))?;
    let count = r.count(FEEDBACK_LEN, "record count past the end of the log")?;
    let feedbacks = (0..count)
        .map(|_| {
            let record = r.take(FEEDBACK_LEN, "torn record")?;
            decode_feedback(record).ok_or_else(|| r.corrupt("rating is neither 0 nor 1"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if r.remaining() > 0 {
        return Err(r.corrupt("bytes past the last record"));
    }
    Ok(feedbacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryStore, ShardedStore, ShardedStoreConfig};
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    fn sample_store() -> MemoryStore {
        let mut store = MemoryStore::new();
        for s in 0..3u64 {
            for t in 0..20u64 {
                store.append(Feedback::new(
                    t,
                    ServerId::new(s),
                    ClientId::new(t % 4),
                    Rating::from_good((t + s) % 5 != 0),
                ));
            }
        }
        store
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hp-store-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same<S: FeedbackStore>(original: &MemoryStore, restored: &S) {
        let mut servers = restored.servers();
        servers.sort();
        assert_eq!(servers, original.servers());
        for s in original.servers() {
            assert_eq!(
                original.history_of(s).feedbacks(),
                restored.history_of(s).feedbacks(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn file_roundtrip_preserves_everything() {
        let dir = scratch("roundtrip");
        let path = dir.join("nested").join("log.hpfl");
        let original = sample_store();
        assert_eq!(save_feedback(&original, &path).unwrap(), 60);
        let mut restored = MemoryStore::new();
        assert_eq!(load_feedback(&mut restored, &path).unwrap(), 60);
        assert_same(&original, &restored);
        let mut sharded = ShardedStore::new(ShardedStoreConfig::default());
        assert_eq!(load_feedback(&mut sharded, &path).unwrap(), 60);
        assert_same(&original, &sharded);

        save_feedback(&MemoryStore::new(), &path).unwrap();
        assert_eq!(load_feedback(&mut restored, &path).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_round_trip_and_refuse_another_rating_or_length() {
        let fb = Feedback::new(
            u64::MAX,
            ServerId::new(7),
            ClientId::new(1 << 40),
            Rating::Positive,
        );
        let mut record = encode_feedback(&fb);
        assert_eq!(decode_feedback(&record), Some(fb));
        assert_eq!(decode_feedback(&record[..24]), None);
        record[24] = 2;
        assert_eq!(decode_feedback(&record), None);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and FNV-1a of the log of [`sample_store`] — 20 bytes of
    /// header and count, 60 records of 25, the 4-byte seal — as built by
    /// hand from the layout in the module doc, not by this writer.
    #[test]
    fn log_bytes_are_pinned() {
        let dir = scratch("pinned");
        let path = dir.join("log.hpfl");
        save_feedback(&sample_store(), &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (1_524, 0x1e1a_b692_c919_fbd7));
        fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        /// Whatever happened to a log — cut, a byte flipped, or its count
        /// overwritten by a hostile number and the seal restamped — its
        /// decode is a typed corruption (so `load_feedback` appends
        /// nothing) or exactly the records written.
        #[test]
        fn load_feedback_survives_hostile_bytes(
            mangle in (0u8..3, any::<usize>()),
            value in (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
                0 => raw,
                1 => raw % 64,
                _ => u64::MAX - raw % 64,
            }),
        ) {
            static GENUINE: std::sync::OnceLock<(Vec<u8>, Vec<Feedback>)> = std::sync::OnceLock::new();
            let (genuine, written) = GENUINE.get_or_init(|| {
                let dir = scratch("hostile-genuine");
                let store = sample_store();
                save_feedback(&store, &dir.join("log.hpfl")).unwrap();
                let bytes = fs::read(dir.join("log.hpfl")).unwrap();
                fs::remove_dir_all(&dir).ok();
                let written = store.servers().into_iter().flat_map(|s| store.history_of(s).feedbacks().to_vec()).collect();
                (bytes, written)
            });
            let (kind, at) = mangle;
            let mut bytes = genuine.clone();
            match kind {
                0 => bytes.truncate(at % bytes.len()),
                1 => {
                    let at = at % bytes.len();
                    bytes[at] ^= (value as u8).max(1);
                }
                _ => {
                    bytes[12..20].copy_from_slice(&value.to_le_bytes());
                    bytes.truncate(bytes.len() - 4);
                    bytes.seal();
                }
            }
            match decode(Path::new("log"), &bytes) {
                Ok(read) => prop_assert!(&read == written, "{kind} at {at}: {value:#x}"),
                Err(Error::Corrupt { .. }) => {}
                Err(e) => prop_assert!(false, "{e}"),
            }
        }
    }
}
