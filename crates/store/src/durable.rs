//! What every on-disk format of the workspace shares: the CRC-32 that
//! frames its records and the temp → fsync → rename → directory-fsync
//! discipline that publishes its files.
//!
//! Segments (this crate), the journal, snapshots, manifests and the
//! calibration cache (`hp-service`) all checksum with [`crc32`] and
//! replace files through [`publish`], so there is one place to get
//! durability right — and one seam to inject I/O faults at.

use std::fs::{self, File};
use std::io;
use std::path::Path;

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

/// CRC-32 (IEEE) of `data`, as used by the journal and segment record
/// frames, snapshot bodies and manifest lines
/// (`crc32(b"123456789") == 0xCBF4_3926`).
pub fn crc32(data: &[u8]) -> u32 {
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

/// Replaces `path` with what `write` puts into a fresh `tmp`, atomically
/// and durably: the temp file is fsynced before it is renamed over
/// `path`, and the directory is fsynced after, so a crash at any point
/// leaves either the old file or the whole new one. `tmp` must sit in
/// `path`'s directory (a rename does not cross file systems).
///
/// # Errors
///
/// Propagates the first I/O failure, `write`'s included; `path` is
/// untouched on every error before the rename (at worst `tmp` is left
/// behind).
pub fn publish(
    tmp: &Path,
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    {
        let mut file = File::create(tmp)?;
        write(&mut file)?;
        file.sync_all()?;
    }
    fs::rename(tmp, path)?;
    fsync_dir(path.parent().unwrap_or(Path::new("")))
}

/// Fsyncs directory `dir` (the empty path is the current directory),
/// which is what makes a rename or removal inside it durable on linux;
/// harmless elsewhere.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn publish_replaces_whole_files_and_keeps_the_old_one_on_error() {
        let dir = std::env::temp_dir().join(format!("hp-store-durable-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let (tmp, path) = (dir.join("file.tmp"), dir.join("file"));
        publish(&tmp, &path, |f| f.write_all(b"first")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        assert!(!tmp.exists(), "temp file renamed away");

        let failed = publish(&tmp, &path, |f| {
            f.write_all(b"half of the sec")?;
            Err(io::Error::other("disk full"))
        });
        assert_eq!(failed.unwrap_err().to_string(), "disk full");
        assert_eq!(fs::read(&path).unwrap(), b"first", "old file intact");

        publish(&tmp, &path, |f| f.write_all(b"second")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        fs::remove_dir_all(&dir).ok();
    }
}
