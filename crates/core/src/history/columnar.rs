//! The bit-packed outcome column of the production history.
//!
//! [`super::TieredHistory`] holds one [`BitColumn`] behind
//! [`super::HistoryView`]: one bit per outcome and, per 64 of them, a
//! `u64` prefix popcount — two bits per transaction, against ~48 B for
//! the reference row store. Issuers and timestamps are not stored here:
//! the online service's verdict reads neither, and `hp-store`, which
//! does hand records back, keeps the whole `Feedback` rows it was given.
//!
//! Every statistic is bit-identical to the reference
//! [`crate::TransactionHistory`] path; see
//! `tests/columnar_equivalence.rs`.

use hp_stats::StatsError;

/// A boolean outcome column packed 64 per `u64`, with an incrementally
/// maintained prefix popcount per word.
///
/// Any range count is two popcounts and one subtraction: the count of
/// good outcomes before position `i` is `word_prefix[i / 64]` plus the
/// popcount of the masked word `i` falls in. Semantics (including panic
/// and error behavior) mirror [`hp_stats::PrefixSums`] exactly — that is
/// the bit-identity contract the assessment paths rely on.
///
/// # Examples
///
/// ```
/// use hp_core::history::BitColumn;
///
/// let col = BitColumn::from_bools([true, false, true, true]);
/// assert_eq!(col.count_range(0, 4), 3);
/// assert_eq!(col.count_range(1, 2), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitColumn {
    /// Outcome bits, least significant bit first within each word.
    words: Vec<u64>,
    /// `word_prefix[w]` = number of good outcomes before word `w`.
    word_prefix: Vec<u64>,
    /// Total good outcomes (the final prefix value).
    total: u64,
    /// Number of outcomes stored.
    len: usize,
}

impl BitColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        BitColumn::default()
    }

    /// Builds a column from an iterator of good/bad outcomes.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut col = BitColumn::new();
        for good in iter {
            col.push(good);
        }
        col
    }

    /// Appends one outcome.
    pub fn push(&mut self, good: bool) {
        let r = self.len % 64;
        if r == 0 {
            self.word_prefix.push(self.total);
            self.words.push(0);
        }
        if good {
            *self.words.last_mut().expect("word allocated above") |= 1u64 << r;
            self.total += 1;
        }
        self.len += 1;
    }

    /// Number of outcomes recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no outcomes are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of good outcomes.
    pub fn total_good(&self) -> u64 {
        self.total
    }

    /// The outcome at position `i` (`true` = good).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of bounds");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of good outcomes before position `end` (two memory reads
    /// and a popcount).
    fn count(&self, end: usize) -> u64 {
        let w = end / 64;
        if w == self.words.len() {
            return self.total;
        }
        let mask = (1u64 << (end % 64)) - 1;
        self.word_prefix[w] + u64::from((self.words[w] & mask).count_ones())
    }

    /// Number of good outcomes in the half-open range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn count_range(&self, start: usize, end: usize) -> u64 {
        assert!(
            start <= end && end <= self.len,
            "range [{start},{end}) out of bounds"
        );
        self.count(end) - self.count(start)
    }

    /// Fraction of good outcomes in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty range.
    pub fn rate_range(&self, start: usize, end: usize) -> Result<f64, StatsError> {
        if start >= end {
            return Err(StatsError::EmptyInput {
                what: "rate over an empty range",
            });
        }
        Ok(self.count_range(start, end) as f64 / (end - start) as f64)
    }

    /// Window counts of size `m` covering `[start, end)`, aligned to
    /// `start`; a trailing partial window is dropped (paper semantics).
    ///
    /// The phase-1 kernel, one path for every `m`, alignment and length:
    /// each window is the difference of two ranks (good outcomes before a
    /// position), and a window's upper rank is the next one's lower, so the
    /// cost is one prefix read and one masked popcount per window. Results
    /// are bit-identical to [`hp_stats::PrefixSums::window_counts`]
    /// (property-tested in `tests/columnar_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `m == 0`.
    pub fn window_counts(
        &self,
        start: usize,
        end: usize,
        m: usize,
    ) -> Result<Vec<u32>, StatsError> {
        if m == 0 {
            return Err(StatsError::InvalidCount {
                what: "window size",
                value: 0,
            });
        }
        assert!(
            start <= end && end <= self.len,
            "range [{start},{end}) out of bounds"
        );
        let k = (end - start) / m;
        let mut out = Vec::with_capacity(k);
        let mut below = self.count(start);
        for w in 1..=k {
            let upto = self.count(start + w * m);
            out.push((upto - below) as u32);
            below = upto;
        }
        Ok(out)
    }

    /// Heap bytes held by this column (both allocations at capacity).
    pub fn resident_bytes(&self) -> usize {
        (self.words.capacity() + self.word_prefix.capacity()) * 8
    }

    /// The packed outcome words (least significant bit first within each
    /// word) — the raw payload a snapshot serializes. Round-trips through
    /// [`BitColumn::from_words`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a column from its packed words, recomputing the prefix
    /// popcounts. The result is structurally identical to pushing the
    /// same `len` outcomes one at a time.
    ///
    /// Returns `None` when `words` is not exactly `len.div_ceil(64)`
    /// words long or a bit above `len` is set — a malformed or corrupted
    /// snapshot must be rejected, never reinterpreted.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            let last = *words.last().expect("len > 0 implies at least one word");
            if last >> (len % 64) != 0 {
                return None;
            }
        }
        let mut word_prefix = Vec::with_capacity(words.len());
        let mut total = 0u64;
        for &w in &words {
            word_prefix.push(total);
            total += u64::from(w.count_ones());
        }
        Some(BitColumn {
            words,
            word_prefix,
            total,
            len,
        })
    }

    /// This column cut back to its first `len` outcomes, `len` being at
    /// most [`BitColumn::len`]. Only the packed words are read: the tail
    /// bits are cleared and the prefix popcounts recounted by
    /// [`BitColumn::from_words`], so nothing a half-finished push may have
    /// left stale is kept.
    pub(super) fn truncated(self, len: usize) -> Self {
        assert!(len <= self.len, "cannot cut {} outcomes to {len}", self.len);
        let mut words = self.words;
        words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            *words.last_mut().expect("len > 0 implies a word") &= (1u64 << (len % 64)) - 1;
        }
        BitColumn::from_words(words, len).expect("whole words, tail bits cleared")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_stats::PrefixSums;

    #[test]
    fn bit_column_matches_prefix_sums_across_word_boundaries() {
        let outcomes: Vec<bool> = (0..200).map(|i| i % 3 != 0).collect();
        let prefix = PrefixSums::from_bools(outcomes.iter().copied());
        let bits = BitColumn::from_bools(outcomes.iter().copied());
        assert_eq!(bits.len(), prefix.len());
        assert_eq!(bits.total_good(), prefix.total_good());
        for &(start, end) in &[
            (0, 200),
            (0, 64),
            (64, 128),
            (63, 65),
            (1, 199),
            (127, 129),
            (200, 200),
        ] {
            assert_eq!(
                bits.count_range(start, end),
                prefix.count_range(start, end),
                "[{start},{end})"
            );
        }
        for m in [1usize, 7, 30, 64, 65] {
            assert_eq!(
                bits.window_counts(3, 197, m).unwrap(),
                prefix.window_counts(3, 197, m).unwrap(),
                "m={m}"
            );
        }
        for (i, &good) in outcomes.iter().enumerate() {
            assert_eq!(bits.get(i), good, "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bit_column_out_of_bounds_panics_like_prefix_sums() {
        let bits = BitColumn::from_bools([true]);
        let _ = bits.count_range(0, 2);
    }

    #[test]
    fn bit_column_error_paths_match_prefix_sums() {
        let bits = BitColumn::from_bools([true, false]);
        let prefix = PrefixSums::from_bools([true, false]);
        assert_eq!(bits.rate_range(1, 1), prefix.rate_range(1, 1));
        assert_eq!(bits.window_counts(0, 2, 0), prefix.window_counts(0, 2, 0));
    }

    #[test]
    fn window_counts_straddle_word_boundaries() {
        // 5 words' worth of outcomes with an irregular pattern, windows
        // deliberately misaligned with the u64 grid.
        let outcomes: Vec<bool> = (0..320).map(|i| (i * 7 + i / 13) % 5 < 3).collect();
        let bits = BitColumn::from_bools(outcomes.iter().copied());
        let prefix = PrefixSums::from_bools(outcomes.iter().copied());
        for &(start, end, m) in &[
            (0usize, 320usize, 63usize), // window boundary one short of a word
            (0, 320, 65),                // one past a word
            (1, 320, 64),                // word-sized windows, shifted grid
            (61, 317, 3),                // many tiny windows across words
            (0, 320, 1),                 // one outcome per window
            (0, 320, 128),               // windows swallowing whole words
            (0, 320, 320),               // single window covering everything
            (5, 5, 1),                   // empty range → no windows
            (0, 10, 11),                 // m > len → no windows
            // m | 64: aligned, misaligned, and a ragged tail.
            (0, 320, 8),
            (3, 320, 8),
            (0, 313, 16),
            (17, 319, 16),
            (0, 320, 32),
            (9, 320, 32),
            (0, 320, 64),
            (63, 320, 64), // start on a word's last bit
            (40, 56, 8),   // entirely inside one word
        ] {
            assert_eq!(
                bits.window_counts(start, end, m).unwrap(),
                prefix.window_counts(start, end, m).unwrap(),
                "[{start},{end}) m={m}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn window_counts_out_of_bounds_panics() {
        let bits = BitColumn::from_bools([true; 10]);
        let _ = bits.window_counts(0, 11, 2);
    }

    #[test]
    fn window_counts_on_columns_around_one_word() {
        // Every (start, m) shape — m == len included — on columns that
        // are empty, shorter than, exactly and just past one word.
        for len in [0usize, 1, 7, 10, 63, 64, 65] {
            let outcomes: Vec<bool> = (0..len).map(|i| (i * 11 + 3) % 4 != 0).collect();
            let bits = BitColumn::from_bools(outcomes.iter().copied());
            let prefix = PrefixSums::from_bools(outcomes.iter().copied());
            for start in 0..=len {
                for m in 1..=len.max(1) {
                    assert_eq!(
                        bits.window_counts(start, len, m).unwrap(),
                        prefix.window_counts(start, len, m).unwrap(),
                        "len={len} [{start},{len}) m={m}"
                    );
                }
            }
        }
    }
}
