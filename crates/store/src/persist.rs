//! The 25-byte feedback record the service journal frames.
//!
//! ```text
//! time u64 | server u64 | client u64 | rating u8
//! ```
//!
//! Every journal frame's payload is one record; the journal
//! (`hp_service::journal`) owns the framing, the CRC and the recovery.

use hp_core::{ClientId, Feedback, Rating, ServerId};

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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The record of one fixed feedback, written out byte by byte from
    /// the layout in the module doc, not by this encoder.
    #[test]
    fn record_bytes_are_pinned() {
        let fb = Feedback::new(
            0x0102_0304_0506_0708,
            ServerId::new(0x1112),
            ClientId::new(0xa0b0_c0d0),
            Rating::Negative,
        );
        let expected: [u8; FEEDBACK_LEN] = [
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // time
            0x12, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // server
            0xd0, 0xc0, 0xb0, 0xa0, 0x00, 0x00, 0x00, 0x00, // client
            0x00, // rating: negative
        ];
        assert_eq!(encode_feedback(&fb), expected);
        assert_eq!(decode_feedback(&expected), Some(fb));
    }
}
