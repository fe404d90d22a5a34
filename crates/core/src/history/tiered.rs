//! Horizon-compacted history: two exact folded counts + a bit suffix.
//!
//! The behavior tests only ever scan a bounded, end-aligned suffix of a
//! history (the assessment horizon — `max_suffix` on
//! [`crate::testing::BehaviorTestConfig`]), yet an append-only column keeps
//! every outcome bit forever. [`TieredHistory`] folds windows older than
//! the horizon into two *exact* counts — how many outcomes, how many of
//! them good — kept alongside a full-resolution [`BitColumn`] suffix:
//!
//! ```text
//!   transaction index:  0 ............ folded_len ............. len
//!                       [  folded prefix  ][   retained suffix    ]
//!                        folded_len,         full-resolution bits
//!                        folded_good
//! ```
//!
//! Every query that fits the retained suffix — any end-aligned window
//! count, any suffix rate, and the totals every trust function consumes
//! — is bit-identical to the reference [`super::TransactionHistory`]. A
//! query that reaches into the folded prefix degrades to a typed
//! [`StatsError::HorizonExceeded`] (or panics where the untiered path
//! would panic): never a silently wrong count.
//!
//! Folding happens in whole 64-bit words so the suffix stays word-aligned
//! and [`BitColumn::from_words`] can rebuild it without re-pushing bits.

use crate::feedback::Feedback;
use crate::id::ServerId;
use hp_stats::{PrefixSums, StatsError};
use std::fmt;
use std::sync::Arc;

use super::columnar::BitColumn;
use super::view::{ColumnRef, HistoryView, IssuerGroup};

/// The first byte of a [`TieredHistory::encode`] payload. The layout
/// before it had no such byte: it began with the server flag, 0 or 1, and
/// carried the issuer sections [`TieredHistory::decode`] still skips.
const LAYOUT: u8 = 2;
/// Bytes before the outcome words: the layout byte, the server flag and
/// id, then the length, the folded length, the folded good count and the
/// version, a `u64` each.
const HEADER_LEN: usize = 2 + 5 * 8;

/// The outcome column of a tiered history: an exact folded-prefix summary
/// (`folded_len` outcomes, `folded_good` of them good) plus a
/// full-resolution [`BitColumn`] for positions `folded_len..len`.
///
/// Range queries are stitched: a range inside the suffix shifts into the
/// bit column, a range covering the whole folded prefix adds
/// `folded_good` to a suffix count, and anything else cannot be answered
/// at full resolution — [`TieredColumn::rate_range`] and
/// [`TieredColumn::window_counts`] return
/// [`StatsError::HorizonExceeded`], while [`TieredColumn::count_range`]
/// panics exactly like an out-of-bounds range would (callers that can
/// degrade gracefully use the fallible paths).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TieredColumn {
    /// Outcomes folded into the summary — always a multiple of 64.
    folded_len: usize,
    /// Good outcomes among the folded prefix.
    folded_good: u64,
    /// Full-resolution bits for positions `folded_len..len`.
    suffix: BitColumn,
}

impl TieredColumn {
    /// Total number of outcomes (folded + retained).
    pub fn len(&self) -> usize {
        self.folded_len + self.suffix.len()
    }

    /// Whether the column holds no outcomes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of good outcomes (exact across both tiers).
    pub fn total_good(&self) -> u64 {
        self.folded_good + self.suffix.total_good()
    }

    /// First position still held at full bit resolution.
    pub fn retained_start(&self) -> usize {
        self.folded_len
    }

    /// Number of good outcomes in `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (matching
    /// [`BitColumn::count_range`]) or if it reaches into the folded
    /// prefix without covering it entirely — the infallible count API has
    /// no error channel, and a wrong count is never acceptable.
    pub fn count_range(&self, start: usize, end: usize) -> u64 {
        assert!(
            start <= end && end <= self.len(),
            "range [{start},{end}) out of bounds"
        );
        if start == end {
            return 0;
        }
        if start >= self.folded_len {
            return self
                .suffix
                .count_range(start - self.folded_len, end - self.folded_len);
        }
        assert!(
            start == 0 && end >= self.folded_len,
            "range [{start},{end}) reaches into the folded prefix \
             (retained suffix starts at {})",
            self.folded_len
        );
        self.folded_good + self.suffix.count_range(0, end - self.folded_len)
    }

    /// Fraction of good outcomes in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty range and
    /// [`StatsError::HorizonExceeded`] when the range reaches into the
    /// folded prefix without covering it.
    pub fn rate_range(&self, start: usize, end: usize) -> Result<f64, StatsError> {
        if start >= end {
            return Err(StatsError::EmptyInput {
                what: "rate over an empty range",
            });
        }
        if start < self.folded_len && !(start == 0 && end >= self.folded_len) {
            return Err(StatsError::HorizonExceeded {
                start,
                retained_start: self.folded_len,
            });
        }
        // Same arithmetic as the untiered columns: exact count over exact
        // length, so the f64 result is bit-identical.
        Ok(self.count_range(start, end) as f64 / (end - start) as f64)
    }

    /// Window counts of size `m` covering `[start, end)`, aligned to
    /// `start`; a trailing partial window is dropped (paper semantics).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `m == 0` and
    /// [`StatsError::HorizonExceeded`] when at least one window would
    /// need bits from the folded prefix.
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
            start <= end && end <= self.len(),
            "range [{start},{end}) out of bounds"
        );
        if (end - start) / m == 0 {
            return Ok(Vec::new());
        }
        if start < self.folded_len {
            return Err(StatsError::HorizonExceeded {
                start,
                retained_start: self.folded_len,
            });
        }
        self.suffix
            .window_counts(start - self.folded_len, end - self.folded_len, m)
    }
}

/// A server's transaction history with an assessment-horizon tier split:
/// a folded prefix kept as two exact counts, and a full-resolution
/// outcome suffix. It keeps no issuers and no timestamps.
///
/// The production implementation of [`HistoryView`], beside the reference
/// [`super::TransactionHistory`]: before any [`TieredHistory::compact`]
/// call the two are bit-identical on every outcome query; after
/// compaction they remain bit-identical on every query that fits the
/// retained suffix (which is all the multi-test issues when its
/// `max_suffix` horizon is at most the compaction horizon) and on the
/// totals.
///
/// What a tiered history does not answer:
///
/// * the §4 issuer grouping and reorder —
///   [`HistoryView::issuer_groups`] and [`HistoryView::reordered_column`]
///   are `None`, and [`crate::testing::CollusionResilientTest`] answers a
///   typed [`crate::CoreError::IssuersNotKept`];
/// * after a fold, any window or rate query that reaches into the folded
///   prefix — a typed [`StatsError::HorizonExceeded`] — and any *batch*
///   trust function that reads [`HistoryView::outcome`] across it
///   ([`crate::trust::WeightedTrust`]) — a
///   panic, by [`TieredColumn::count_range`]'s contract. The service
///   computes those with [`crate::trust::incremental`], one update per
///   feedback.
///
/// # Examples
///
/// ```
/// use hp_core::history::{HistoryView, TieredHistory};
/// use hp_core::{ClientId, Feedback, Rating, ServerId};
///
/// let mut h = TieredHistory::new();
/// for t in 0..200 {
///     h.push(Feedback::new(t, ServerId::new(1), ClientId::new(t % 3), Rating::Positive));
/// }
/// h.compact(100); // keep >= 100 newest outcomes at full resolution
/// assert_eq!(h.len(), 200);
/// assert_eq!(h.good_count(), 200);          // totals stay exact
/// assert_eq!(h.retained_start(), 64);       // whole words folded
/// assert_eq!(h.count_range(100, 200), 100); // suffix queries unchanged
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TieredHistory {
    column: TieredColumn,
    /// The uniform server, while one exists.
    server: Option<ServerId>,
    /// Set once feedback for a second server is ingested.
    mixed: bool,
    /// Bumped on every ingest. Compaction does not bump it — it changes
    /// the representation, not the content.
    version: u64,
}

/// A point in a history's append sequence that
/// [`TieredHistory::truncate_to`] can cut back to: the length and the
/// scalar header, as [`TieredHistory::mark`] found them. `Copy` and
/// allocation-free — the online service takes one before every record it
/// applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryMark {
    len: usize,
    version: u64,
    server: Option<ServerId>,
    mixed: bool,
}

/// Why [`TieredHistory::truncate_to`] refused a mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateError {
    /// A [`TieredHistory::compact`] since the mark folded records the
    /// mark still counts as retained: the bits that would have to come
    /// back are gone. The history is unchanged.
    AcrossFold {
        /// Transactions the mark asks to keep.
        mark_len: usize,
        /// First transaction still held at full resolution.
        retained_start: usize,
    },
    /// The history is shorter than the mark: the mark is not of this
    /// history. The history is unchanged.
    Inconsistent,
}

impl fmt::Display for TruncateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncateError::AcrossFold {
                mark_len,
                retained_start,
            } => write!(
                f,
                "cannot truncate to {mark_len} transactions: the prefix was folded \
                 since the mark (retained suffix starts at {retained_start})"
            ),
            TruncateError::Inconsistent => {
                write!(f, "history columns are inconsistent with the mark")
            }
        }
    }
}

impl std::error::Error for TruncateError {}

impl TieredHistory {
    /// Creates an empty history (nothing folded, nothing retained).
    pub fn new() -> Self {
        TieredHistory::default()
    }

    /// The current end of the append sequence, for a later
    /// [`TieredHistory::truncate_to`].
    pub fn mark(&self) -> HistoryMark {
        HistoryMark {
            len: self.len(),
            version: self.version,
            server: self.server,
            mixed: self.mixed,
        }
    }

    /// Cuts the history back to `mark`, undoing every push since.
    /// Afterwards the history answers every query, and encodes to the
    /// same bytes, as one that never saw the tail. Only the outcome words
    /// are read; the prefix popcounts are rebuilt from them
    /// ([`BitColumn::from_words`]). Costs O(retained suffix).
    ///
    /// # Errors
    ///
    /// [`TruncateError::AcrossFold`] when a compaction since the mark
    /// folded past it, [`TruncateError::Inconsistent`] when the history
    /// is shorter than the mark.
    pub fn truncate_to(&mut self, mark: &HistoryMark) -> Result<(), TruncateError> {
        let folded = self.column.folded_len;
        if mark.len < folded {
            return Err(TruncateError::AcrossFold {
                mark_len: mark.len,
                retained_start: folded,
            });
        }
        if mark.len > self.len() {
            return Err(TruncateError::Inconsistent);
        }
        let suffix = std::mem::take(&mut self.column.suffix);
        self.column.suffix = suffix.truncated(mark.len - folded);
        self.version = mark.version;
        self.server = mark.server;
        self.mixed = mark.mixed;
        Ok(())
    }

    /// Appends a feedback record: its outcome bit, and its server into
    /// the uniform-server check. The issuer and the time are not kept.
    pub fn push(&mut self, feedback: Feedback) {
        if self.is_empty() && !self.mixed {
            self.server = Some(feedback.server);
        } else if self.server.is_some_and(|s| s != feedback.server) {
            self.server = None;
            self.mixed = true;
        }
        self.column.suffix.push(feedback.is_good());
        self.version += 1;
    }

    /// Folds prefix words older than `horizon` into the folded counts,
    /// keeping at least the newest `horizon` outcomes at full resolution.
    ///
    /// Only whole 64-bit words fold (the suffix stays word-aligned), so
    /// the retained suffix length is always in `[horizon, horizon + 63]`
    /// once the history is long enough. Returns the number of outcomes
    /// newly folded (0 when nothing crossed the horizon).
    ///
    /// Folding is exact — the folded good count grows by the dropped
    /// words' popcount — and irreversible: queries into the folded prefix
    /// degrade to [`StatsError::HorizonExceeded`] from then on.
    pub fn compact(&mut self, horizon: usize) -> usize {
        let target = self.len().saturating_sub(horizon) / 64 * 64;
        if target <= self.column.folded_len {
            return 0;
        }
        let drop = target - self.column.folded_len;
        self.column.folded_good += self.column.suffix.count_range(0, drop);
        // Rebuild the retained suffix from its surviving whole words.
        let words = self.column.suffix.words()[drop / 64..].to_vec();
        let new_len = self.column.suffix.len() - drop;
        self.column.suffix = BitColumn::from_words(words, new_len)
            .expect("word-aligned fold preserves the suffix invariants");
        self.column.folded_len = target;
        drop
    }

    /// Number of transactions (folded + retained).
    pub fn len(&self) -> usize {
        self.column.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// Total number of good transactions (exact across both tiers).
    pub fn good_count(&self) -> u64 {
        self.column.total_good()
    }

    /// First transaction index still held at full bit resolution.
    pub fn retained_start(&self) -> usize {
        self.column.retained_start()
    }

    /// Number of transactions retained at full resolution.
    pub fn suffix_len(&self) -> usize {
        self.column.suffix.len()
    }

    /// The server this history belongs to (`None` if empty or mixed).
    pub fn server(&self) -> Option<ServerId> {
        self.server
    }

    /// The ingest version — bumped on every [`TieredHistory::push`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The tiered outcome column (folded counts + retained bits).
    pub fn column(&self) -> &TieredColumn {
        &self.column
    }

    /// Heap bytes held by this history: the retained suffix's bits and
    /// prefix popcounts (the folded counts are inline).
    pub fn resident_bytes(&self) -> usize {
        self.column.suffix.resident_bytes()
    }

    /// Serializes the history to a little-endian byte payload — the unit
    /// both the snapshot writer and the cold-segment spill store persist.
    /// Round-trips through [`TieredHistory::decode`]:
    ///
    /// ```text
    /// layout u8 = 2 | has_server u8 | server u64 | len u64
    /// | folded_len u64 | folded_good u64 | version u64
    /// | ⌈(len − folded_len) / 64⌉ outcome words u64
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let words = self.column.suffix.words();
        let mut out = Vec::with_capacity(HEADER_LEN + words.len() * 8);
        out.push(LAYOUT);
        out.push(u8::from(self.server.is_some()));
        let server = self.server.map_or(0, ServerId::value);
        for field in [
            server,
            self.len() as u64,
            self.column.folded_len as u64,
            self.column.folded_good,
            self.version,
        ]
        .into_iter()
        .chain(words.iter().copied())
        {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out
    }

    /// Rebuilds a history from a [`TieredHistory::encode`] payload,
    /// revalidating every structural invariant (word alignment, the
    /// folded counts, bit padding).
    ///
    /// A payload in the layout before this one — first byte 0 or 1, what
    /// a previous build wrote into its snapshots and cold segments — is
    /// read too: its issuer sections (the dictionary, a `(good, total)`
    /// folded count per issuer and a `u32` code per retained outcome,
    /// between the header and the words) are bounds-checked and skipped,
    /// and the folded counts must still sum to the folded length and
    /// good count.
    ///
    /// Returns `None` on any inconsistency — a corrupted or truncated
    /// payload must be rejected, never reinterpreted.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Cursor { bytes, pos: 0 };
        let first = r.u8()?;
        let with_issuers = first < LAYOUT;
        let has_server = match first {
            LAYOUT => r.u8()?,
            flag if with_issuers => flag,
            _ => return None,
        };
        let server_raw = r.u64()?;
        let server = match has_server {
            0 if server_raw == 0 => None,
            1 => Some(ServerId::new(server_raw)),
            _ => return None,
        };
        let total_len = usize::try_from(r.u64()?).ok()?;
        let folded_len = usize::try_from(r.u64()?).ok()?;
        let folded_good = r.u64()?;
        let version = r.u64()?;
        if folded_len > total_len
            || !folded_len.is_multiple_of(64)
            || folded_good > folded_len as u64
            || (server.is_none() && total_len > 0)
        {
            return None;
        }
        let suffix_len = total_len - folded_len;
        if with_issuers {
            r.skip_issuer_sections(folded_len, folded_good, suffix_len)?;
        }
        // A count the payload claims is held against the bytes that are
        // left before anything is allocated for it.
        let word_count = r.fits(suffix_len.div_ceil(64), 8)?;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        if r.pos != bytes.len() {
            return None;
        }
        Some(TieredHistory {
            column: TieredColumn {
                folded_len,
                folded_good,
                suffix: BitColumn::from_words(words, suffix_len)?,
            },
            server,
            mixed: false,
            version,
        })
    }
}

/// Minimal little-endian reader over a byte slice (decode helper).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// `count`, if that many items of `width` bytes are still unread.
    fn fits(&self, count: usize, width: usize) -> Option<usize> {
        (count <= (self.bytes.len() - self.pos) / width).then_some(count)
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Steps over the issuer sections of a payload in the layout before
    /// [`LAYOUT`]: a dictionary of `u64` ids, as many `(good, total)`
    /// folded counts — whose sums must be `folded_good` and `folded_len`
    /// — and a `u32` code per retained outcome.
    fn skip_issuer_sections(
        &mut self,
        folded_len: usize,
        folded_good: u64,
        suffix_len: usize,
    ) -> Option<()> {
        let claimed = usize::try_from(self.u64()?).ok()?;
        let clients = self.fits(claimed, 16)?;
        self.take(clients * 8)?;
        let (mut good, mut total) = (0u64, 0u64);
        for _ in 0..clients {
            let (g, t) = (self.u32()?, self.u32()?);
            if g > t {
                return None;
            }
            good += u64::from(g);
            total += u64::from(t);
        }
        if (good, total) != (folded_good, folded_len as u64) {
            return None;
        }
        self.take(self.fits(suffix_len, 4)? * 4)?;
        Some(())
    }
}

impl HistoryView for TieredHistory {
    fn len(&self) -> usize {
        self.column.len()
    }

    fn outcome_prefix(&self) -> ColumnRef<'_> {
        ColumnRef::Tiered(&self.column)
    }

    fn issuer_groups(&self) -> Option<Vec<IssuerGroup>> {
        None
    }

    fn reordered_column(&self) -> Option<Arc<PrefixSums>> {
        None
    }

    fn server(&self) -> Option<ServerId> {
        self.server
    }

    fn retained_start(&self) -> usize {
        self.column.retained_start()
    }
}

impl FromIterator<Feedback> for TieredHistory {
    fn from_iter<I: IntoIterator<Item = Feedback>>(iter: I) -> Self {
        let mut h = TieredHistory::new();
        for f in iter {
            h.push(f);
        }
        h
    }
}

impl Extend<Feedback> for TieredHistory {
    fn extend<I: IntoIterator<Item = Feedback>>(&mut self, iter: I) {
        for f in iter {
            self.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::TransactionHistory;
    use super::*;
    use crate::feedback::Rating;
    use crate::id::ClientId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn fb(t: u64, client: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(1),
            ClientId::new(client),
            Rating::from_good(good),
        )
    }

    fn mixed_history(n: u64) -> Vec<Feedback> {
        (0..n)
            .map(|t| fb(t, t % 7, (t * 11 + t / 5) % 3 != 0))
            .collect()
    }

    #[test]
    fn uncompacted_matches_the_row_oracle_everywhere() {
        let records = mixed_history(200);
        let tiered: TieredHistory = records.iter().copied().collect();
        let rows: TransactionHistory = records.iter().copied().collect();
        assert_eq!(tiered.len(), rows.len());
        assert_eq!(tiered.good_count(), rows.good_count());
        assert_eq!(tiered.retained_start(), 0);
        for &(s, e) in &[(0usize, 200usize), (0, 64), (63, 65), (5, 5), (150, 200)] {
            assert_eq!(tiered.count_range(s, e), rows.count_range(s, e));
            assert_eq!(tiered.rate_range(s, e).ok(), rows.rate_range(s, e).ok());
        }
        for m in [1usize, 8, 30, 64] {
            assert_eq!(
                tiered.window_counts(3, 197, m).unwrap(),
                rows.window_counts(3, 197, m).unwrap()
            );
        }
        // The issuers are not kept: §4 gets no answer, not a wrong one.
        assert_eq!(HistoryView::issuer_groups(&tiered), None);
        assert!(tiered.reordered_column().is_none());
    }

    #[test]
    fn tracks_server_and_detects_mixing() {
        let mut h = TieredHistory::new();
        assert_eq!(h.server(), None);
        h.push(fb(0, 1, true));
        assert_eq!(h.server(), Some(ServerId::new(1)));
        h.push(Feedback::new(
            1,
            ServerId::new(2),
            ClientId::new(1),
            Rating::Positive,
        ));
        assert_eq!(h.server(), None);
        // Mixing is permanent, matching TransactionHistory::server.
        h.push(fb(2, 1, true));
        assert_eq!(h.server(), None);
    }

    #[test]
    fn compaction_folds_whole_words_and_keeps_suffix_exact() {
        let records = mixed_history(300);
        let mut tiered: TieredHistory = records.iter().copied().collect();
        let rows: TransactionHistory = records.iter().copied().collect();
        let folded = tiered.compact(100);
        // 300 - 100 = 200 foldable -> 192 (3 whole words).
        assert_eq!(folded, 192);
        assert_eq!(tiered.retained_start(), 192);
        assert_eq!(tiered.suffix_len(), 108);
        assert_eq!(tiered.len(), 300);
        assert_eq!(tiered.good_count(), rows.good_count());
        // Every suffix-resident query is bit-identical.
        for &(s, e) in &[(192usize, 300usize), (200, 300), (250, 251), (299, 300)] {
            assert_eq!(tiered.count_range(s, e), rows.count_range(s, e));
            assert_eq!(tiered.rate_range(s, e), rows.rate_range(s, e));
        }
        for m in [1usize, 8, 17, 64] {
            assert_eq!(
                tiered.window_counts(195, 300, m).unwrap(),
                rows.window_counts(195, 300, m).unwrap()
            );
        }
        // Whole-prefix coverage is still exact (totals path).
        assert_eq!(tiered.count_range(0, 300), rows.count_range(0, 300));
        assert_eq!(tiered.rate_range(0, 300), rows.rate_range(0, 300));
        // A second compact at the same horizon is a no-op.
        assert_eq!(tiered.compact(100), 0);
    }

    #[test]
    fn queries_into_the_folded_prefix_degrade_typed() {
        let mut tiered: TieredHistory = mixed_history(300).into_iter().collect();
        tiered.compact(100);
        assert_eq!(
            tiered.rate_range(10, 200),
            Err(StatsError::HorizonExceeded {
                start: 10,
                retained_start: 192
            })
        );
        assert_eq!(
            tiered.window_counts(0, 300, 10),
            Err(StatsError::HorizonExceeded {
                start: 0,
                retained_start: 192
            })
        );
        // Degenerate queries that need no bits still answer exactly.
        assert_eq!(tiered.count_range(10, 10), 0);
        assert_eq!(tiered.window_counts(10, 15, 50).unwrap(), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "reaches into the folded prefix")]
    fn infallible_count_into_folded_prefix_panics() {
        let mut tiered: TieredHistory = mixed_history(300).into_iter().collect();
        tiered.compact(100);
        let _ = tiered.count_range(10, 250);
    }

    #[test]
    fn ingest_after_compaction_stays_exact() {
        let records = mixed_history(500);
        let mut tiered = TieredHistory::new();
        let mut rows = TransactionHistory::new();
        for (i, f) in records.iter().enumerate() {
            tiered.push(*f);
            rows.push(*f);
            if i % 128 == 0 {
                tiered.compact(150);
            }
        }
        assert_eq!(tiered.len(), rows.len());
        assert_eq!(tiered.good_count(), rows.good_count());
        let start = tiered.retained_start();
        assert!(tiered.suffix_len() >= 150);
        assert_eq!(
            tiered.window_counts(start, 500, 25).unwrap(),
            rows.window_counts(start, 500, 25).unwrap()
        );
    }

    #[test]
    fn encode_decode_round_trips_tiered_state() {
        let mut tiered: TieredHistory = mixed_history(300).into_iter().collect();
        tiered.compact(100);
        let bytes = tiered.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 2 * 8, "108 retained outcomes");
        assert_eq!(TieredHistory::decode(&bytes), Some(tiered));
        // Empty history round-trips too.
        let empty = TieredHistory::new();
        assert_eq!(TieredHistory::decode(&empty.encode()), Some(empty));
    }

    /// FNV-1a over a payload (the pinned-bytes test's fingerprint).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The stream whose payload the pinned-bytes tests fingerprint, and
    /// its history, folded twice.
    fn pinned_stream() -> (Vec<Feedback>, TieredHistory) {
        let stream: Vec<Feedback> = (0..1500u64)
            .map(|t| {
                let client = (t.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 300;
                fb(t, client, (t * 11 + t / 5) % 3 != 0)
            })
            .collect();
        let mut history = TieredHistory::new();
        for (t, &f) in stream.iter().enumerate() {
            history.push(f);
            if t == 700 {
                history.compact(200);
            }
        }
        history.compact(256);
        (stream, history)
    }

    /// The payload the layout before [`LAYOUT`] wrote for `history`, fed
    /// `records`: the header less the layout byte, the dictionary length
    /// and ids in first-seen order, a `(good, total)` count per issuer
    /// over the folded prefix, a `u32` code per retained outcome, then
    /// the outcome words. A test-only copy of the old `encode`, pinned to
    /// its bytes by `the_old_layout_is_the_one_the_previous_build_wrote`.
    fn legacy_encode(records: &[Feedback], history: &TieredHistory) -> Vec<u8> {
        let (mut clients, mut codes, mut index) = (Vec::new(), Vec::new(), HashMap::new());
        for f in records {
            let code = *index.entry(f.client).or_insert_with(|| {
                clients.push(f.client);
                clients.len() as u32 - 1
            });
            codes.push(code);
        }
        let folded = history.retained_start();
        let mut counts = vec![(0u32, 0u32); clients.len()];
        for (f, &code) in records[..folded].iter().zip(&codes) {
            counts[code as usize].0 += u32::from(f.is_good());
            counts[code as usize].1 += 1;
        }
        let current = history.encode();
        let mut out = current[1..HEADER_LEN].to_vec();
        out.extend_from_slice(&(clients.len() as u64).to_le_bytes());
        for client in clients {
            out.extend_from_slice(&client.value().to_le_bytes());
        }
        for (good, total) in counts {
            out.extend_from_slice(&good.to_le_bytes());
            out.extend_from_slice(&total.to_le_bytes());
        }
        for code in &codes[folded..] {
            out.extend_from_slice(&code.to_le_bytes());
        }
        out.extend_from_slice(&current[HEADER_LEN..]);
        out
    }

    #[test]
    fn encode_bytes_are_pinned() {
        let (_, history) = pinned_stream();
        let bytes = history.encode();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (82, 0x7247_22a5_283c_e9e2));
    }

    /// The old layout's length and fingerprint for the pinned stream, as
    /// every build from the per-issuer posting-list layout on wrote it
    /// until the issuers left the history: the copy of its encoder that
    /// the old-layout tests use writes exactly those bytes, and they
    /// decode to the history the current layout holds.
    #[test]
    fn the_old_layout_is_the_one_the_previous_build_wrote() {
        let (stream, history) = pinned_stream();
        let legacy = legacy_encode(&stream, &history);
        assert_eq!(
            (legacy.len(), fnv1a(&legacy)),
            (6025, 0xcc82_b3ef_93b1_adfe)
        );
        assert_eq!(TieredHistory::decode(&legacy), Some(history));
    }

    #[test]
    fn decode_rejects_corruption() {
        let records = mixed_history(300);
        let mut tiered: TieredHistory = records.iter().copied().collect();
        tiered.compact(100);
        for bytes in [tiered.encode(), legacy_encode(&records, &tiered)] {
            let old = bytes[0] < LAYOUT;
            assert!(
                TieredHistory::decode(&bytes[..bytes.len() - 1]).is_none(),
                "truncated"
            );
            let mut flipped = bytes.clone();
            let last = flipped.len() - 1;
            flipped[last] ^= 0x80; // a bit above suffix len in the last word
            assert!(TieredHistory::decode(&flipped).is_none(), "padding bit");
            // folded_good past folded_len, in either layout; in the old
            // one, any folded_good the issuers' folded counts do not sum to.
            let good_at = if old { 25 } else { 26 };
            for good in [193u64, if old { 1 } else { 193 }] {
                let mut bad = bytes.clone();
                bad[good_at..good_at + 8].copy_from_slice(&good.to_le_bytes());
                assert!(TieredHistory::decode(&bad).is_none(), "folded_good {good}");
            }
            let mut layout = bytes.clone();
            layout[0] = LAYOUT + 1;
            assert!(TieredHistory::decode(&layout).is_none(), "unknown layout");
        }
        assert!(TieredHistory::decode(&[]).is_none(), "empty payload");
    }

    #[test]
    fn decode_refuses_a_count_the_payload_cannot_hold() {
        // An old-layout payload of an empty history, claiming a dictionary
        // no allocation could hold (`capacity overflow`) or one the
        // allocator would abort on.
        let empty = TieredHistory::new();
        for claimed in [1u64 << 60, 1 << 42] {
            let mut bytes = legacy_encode(&[], &empty);
            assert_eq!(bytes.len(), 49);
            bytes[41..49].copy_from_slice(&claimed.to_le_bytes());
            assert!(
                TieredHistory::decode(&bytes).is_none(),
                "client_count {claimed}"
            );
        }
        // The suffix length (total − folded) is bounded the same way, in
        // either layout.
        let records = mixed_history(10);
        let history: TieredHistory = records.iter().copied().collect();
        for (mut bytes, at) in [
            (history.encode(), 10),
            (legacy_encode(&records, &history), 9),
        ] {
            bytes[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
            assert!(TieredHistory::decode(&bytes).is_none(), "suffix_len 2^60");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Truncating a valid payload of either layout, or overwriting one
        /// of its 8-byte fields (total length, folded length, folded good,
        /// and the version or, in the old layout, the dictionary size)
        /// with anything, decodes to `None` or to a history that encodes
        /// back to exactly those bytes — the same history, in the old
        /// layout — never to a panic or an allocation sized by the lie.
        #[test]
        fn decode_survives_any_length_field(
            n in 0u64..400,
            horizon in (any::<bool>(), 0usize..200).prop_map(|(fold, horizon)| fold.then_some(horizon)),
            old in any::<bool>(),
            field in 0usize..4,
            value in (0u8..3, any::<u64>(), 0u32..64).prop_map(|(kind, raw, shift)| match kind {
                0 => raw,
                1 => 1u64 << shift,
                _ => raw % 1024,
            }),
            keep in (any::<bool>(), 0usize..4096).prop_map(|(cut, keep)| cut.then_some(keep)),
        ) {
            let records = mixed_history(n);
            let mut history: TieredHistory = records.iter().copied().collect();
            if let Some(horizon) = horizon {
                history.compact(horizon);
            }
            let (mut mangled, at) = if old {
                (legacy_encode(&records, &history), [9usize, 17, 25, 41][field])
            } else {
                (history.encode(), [10usize, 18, 26, 34][field])
            };
            mangled[at..at + 8].copy_from_slice(&value.to_le_bytes());
            if let Some(keep) = keep {
                mangled.truncate(keep);
            }
            if let Some(decoded) = TieredHistory::decode(&mangled) {
                if old {
                    prop_assert_eq!(decoded, history);
                } else {
                    // Only the padding bits vouch for the current layout's
                    // length, and nothing for its folded good count or its
                    // version: decoded, they read as written.
                    prop_assert_eq!(decoded.encode(), mangled);
                }
            }
        }

        /// The old layout's issuer ids and codes are skipped whatever they
        /// hold, and its folded counts are read only for their sums:
        /// overwriting any four bytes of the issuer sections decodes to the
        /// same history, or to `None` when a folded count no longer sums.
        #[test]
        fn old_issuer_sections_are_skipped_but_their_sums_checked(
            n in 1u64..400,
            horizon in (any::<bool>(), 0usize..200).prop_map(|(fold, horizon)| fold.then_some(horizon)),
            writes in proptest::collection::vec((any::<usize>(), any::<u32>()), 1..8),
        ) {
            let records = mixed_history(n);
            let mut history: TieredHistory = records.iter().copied().collect();
            if let Some(horizon) = horizon {
                history.compact(horizon);
            }
            let mut bytes = legacy_encode(&records, &history);
            let dict = u64::from_le_bytes(bytes[41..49].try_into().unwrap()) as usize;
            let counts = 49 + 8 * dict..49 + 16 * dict;
            let sections = 49..bytes.len() - history.suffix_len().div_ceil(64) * 8;
            let mut sums_kept = true;
            for (at, value) in writes {
                let at = sections.start + at % (sections.len() - 3);
                let before = bytes.clone();
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
                let touched = (at..at + 4).any(|i| counts.contains(&i) && bytes[i] != before[i]);
                sums_kept &= !touched;
            }
            match TieredHistory::decode(&bytes) {
                Some(decoded) => prop_assert_eq!(decoded, history),
                None => prop_assert!(!sums_kept, "only a folded count can refuse"),
            }
        }
    }

    /// Rolling back a whole push leaves the bytes of the history that
    /// never saw it, folded or not, and the history keeps working.
    #[test]
    fn truncate_to_undoes_a_push_to_the_same_bytes() {
        let plain: TieredHistory = mixed_history(300).into_iter().collect();
        let mut folded = plain.clone();
        folded.compact(100);
        for (base, clean) in [("plain", plain), ("folded", folded)] {
            let mut torn = clean.clone();
            let mark = torn.mark();
            torn.push(fb(300, 9_999, true));
            torn.truncate_to(&mark).unwrap();
            assert_eq!(torn, clean, "{base}");
            assert_eq!(torn.encode(), clean.encode(), "{base}");
            torn.push(fb(300, 9_999, false));
            let mut grown = clean.clone();
            grown.push(fb(300, 9_999, false));
            assert_eq!(
                torn.encode(),
                grown.encode(),
                "{base}: push after the repair"
            );
        }
    }

    #[test]
    fn truncate_to_refuses_a_mark_behind_the_fold() {
        let mut history: TieredHistory = mixed_history(100).into_iter().collect();
        let mark = history.mark();
        history.extend((100..400).map(|t| fb(t, t % 7, true)));
        history.compact(100);
        assert_eq!(history.retained_start(), 256);
        let before = history.encode();
        assert_eq!(
            history.truncate_to(&mark),
            Err(TruncateError::AcrossFold {
                mark_len: 100,
                retained_start: 256
            })
        );
        assert_eq!(history.encode(), before, "a refusal changes nothing");
        // A mark of some other, longer history is refused too.
        let longer: TieredHistory = mixed_history(500).into_iter().collect();
        assert_eq!(
            history.truncate_to(&longer.mark()),
            Err(TruncateError::Inconsistent)
        );
        assert_eq!(history.encode(), before);
    }

    #[test]
    fn resident_bytes_shrink_with_compaction() {
        let mut tiered: TieredHistory = mixed_history(10_000).into_iter().collect();
        let before = tiered.resident_bytes();
        tiered.compact(256);
        let after = tiered.resident_bytes();
        assert!(
            after * 4 < before,
            "compacted {after} bytes should be well under a quarter of {before}"
        );
    }
}
