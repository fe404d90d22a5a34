//! Horizon-compacted history: exact folded summaries + a bit suffix.
//!
//! The behavior tests only ever scan a bounded, end-aligned suffix of a
//! history (the assessment horizon — `max_suffix` on
//! [`crate::testing::BehaviorTestConfig`]), yet an append-only column keeps
//! every outcome bit forever. [`TieredHistory`] folds windows older than
//! the horizon into *exact* per-issuer `(good, total)` summary counts
//! kept alongside a full-resolution [`BitColumn`] suffix:
//!
//! ```text
//!   transaction index:  0 ............ folded_len ............. len
//!                       [  folded prefix  ][   retained suffix    ]
//!                        summary counts      full-resolution bits
//!                        (good, total) per    + issuer codes
//!                        issuer, exact
//! ```
//!
//! Every query that fits the retained suffix — any end-aligned window
//! count, any suffix rate, the totals every trust function consumes, and
//! the issuer groups (summary counts + live suffix counts, per code) — is
//! bit-identical to the reference [`super::TransactionHistory`]. A query that
//! reaches into the folded prefix degrades to a typed
//! [`StatsError::HorizonExceeded`] (or panics where the untiered path
//! would panic): never a silently wrong count.
//!
//! Folding happens in whole 64-bit words so the suffix stays word-aligned
//! and [`BitColumn::from_words`] can rebuild it without re-pushing bits.

use crate::feedback::Feedback;
use crate::id::{ClientId, ServerId};
use hp_stats::StatsError;
use std::fmt;
use std::sync::{Arc, Mutex};

use super::columnar::{BitColumn, IssuerColumn};
use super::view::{lock_reorder, ColumnRef, HistoryView, IssuerGroup, OwnedColumn, ReorderCache};

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
/// a folded prefix kept as exact per-issuer summary counts, and a
/// full-resolution columnar suffix.
///
/// The production implementation of [`HistoryView`], beside the reference
/// [`super::TransactionHistory`]: before any [`TieredHistory::compact`]
/// call the two are bit-identical on every query; after compaction they
/// remain bit-identical on every query that fits the retained suffix
/// (which is all the multi-test issues when its `max_suffix` horizon is at
/// most the compaction horizon) and on the totals.
///
/// What stops working after [`TieredHistory::compact`] folds a prefix:
///
/// * the §4 reorder — [`crate::testing::CollusionResilientTest`] answers a
///   typed [`StatsError::HorizonExceeded`], as does any window or rate
///   query that reaches into the folded prefix;
/// * any *batch* trust function that reads [`HistoryView::outcome`]
///   across the folded prefix ([`crate::trust::WeightedTrust`],
///   [`crate::trust::DecayTrust`]) — a panic, by
///   [`TieredColumn::count_range`]'s contract. The service computes those
///   with [`crate::trust::incremental`], one update per feedback.
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
#[derive(Debug, Default)]
pub struct TieredHistory {
    column: TieredColumn,
    /// Issuer dictionary + codes for the retained suffix. The
    /// dictionary spans the *whole* history (codes are stable and never
    /// recycled), so folded summary codes stay decodable.
    issuers: IssuerColumn,
    /// Per-code `(good, total)` counts folded out of the prefix, indexed
    /// by dictionary code. May be shorter than the dictionary when codes
    /// were introduced after the last fold.
    folded_by_code: Vec<(u32, u32)>,
    /// The uniform server, while one exists.
    server: Option<ServerId>,
    /// Set once feedback for a second server is ingested.
    mixed: bool,
    /// Bumped on every ingest; stamps the reorder cache. Compaction does
    /// not bump it — it changes the representation, not the content.
    version: u64,
    reorder: Mutex<ReorderCache>,
}

/// A point in a history's append sequence that
/// [`TieredHistory::truncate_to`] can cut back to: the lengths of the
/// append-only primaries and the scalar header, as
/// [`TieredHistory::mark`] found them. `Copy` and allocation-free — the
/// online service takes one before every record it applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryMark {
    len: usize,
    dict_len: usize,
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
    /// A primary column is shorter than the mark, or the cut columns
    /// contradict each other — the mark is not of this history, or the
    /// history is damaged beyond what its primaries can repair. When the
    /// contradiction only shows while the derived columns are rebuilt
    /// the history is left empty-columned and must be discarded.
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
            dict_len: self.issuers.dict_len(),
            version: self.version,
            server: self.server,
            mixed: self.mixed,
        }
    }

    /// Cuts the history back to `mark`, undoing every push since —
    /// including one a panic interrupted half-way. Afterwards the history
    /// answers every query, and encodes to the same bytes, as one that
    /// never saw the tail.
    ///
    /// Only the append-only primaries are read (outcome words, issuer
    /// codes, the dictionary's clients), each cut to the mark; the index
    /// and the prefix popcounts are rebuilt from them through the
    /// validating [`BitColumn::from_words`] / [`IssuerColumn::from_parts`]
    /// path, so nothing a half-finished push may have left stale is
    /// trusted. Costs O(retained suffix + dictionary).
    ///
    /// # Errors
    ///
    /// [`TruncateError::AcrossFold`] when a compaction since the mark
    /// folded past it, [`TruncateError::Inconsistent`] when the columns
    /// cannot honor the mark.
    pub fn truncate_to(&mut self, mark: &HistoryMark) -> Result<(), TruncateError> {
        let folded = self.column.folded_len;
        if mark.len < folded || mark.dict_len < self.folded_by_code.len() {
            return Err(TruncateError::AcrossFold {
                mark_len: mark.len,
                retained_start: folded,
            });
        }
        let keep = mark.len - folded;
        // Everything that can be checked is checked before the first cut,
        // so a refusal leaves the history as it was.
        let issuers = &self.issuers;
        if self.column.suffix.words().len() < keep.div_ceil(64)
            || issuers.len() < keep
            || issuers.dict_len() < mark.dict_len
            || issuers
                .codes()
                .take(keep)
                .any(|code| code as usize >= mark.dict_len)
        {
            return Err(TruncateError::Inconsistent);
        }
        let suffix = std::mem::take(&mut self.column.suffix)
            .truncated(keep)
            .ok_or(TruncateError::Inconsistent)?;
        self.issuers = std::mem::take(&mut self.issuers)
            .truncated(keep, mark.dict_len, &suffix)
            .ok_or(TruncateError::Inconsistent)?;
        self.column.suffix = suffix;
        self.version = mark.version;
        self.server = mark.server;
        self.mixed = mark.mixed;
        // A column cached for a version the cut re-opens would be served
        // for whatever is pushed there next.
        lock_reorder(&self.reorder).clear();
        Ok(())
    }

    /// Appends only the outcome bit of a push: the state a panic between
    /// the two column appends of [`TieredHistory::push`] leaves behind.
    /// A seam for rollback tests (this crate's torn-input cases and the
    /// service's `fault-injection` plan); nothing else calls it.
    #[doc(hidden)]
    pub fn push_outcome_only(&mut self, good: bool) {
        self.column.suffix.push(good);
    }

    /// Appends a feedback record (decomposed into the columns).
    pub fn push(&mut self, feedback: Feedback) {
        if self.is_empty() && !self.mixed {
            self.server = Some(feedback.server);
        } else if self.server.is_some_and(|s| s != feedback.server) {
            self.server = None;
            self.mixed = true;
        }
        self.column.suffix.push(feedback.is_good());
        self.issuers.push(feedback.client);
        self.version += 1;
    }

    /// Folds prefix words older than `horizon` into the summary tier,
    /// keeping at least the newest `horizon` outcomes at full resolution.
    ///
    /// Only whole 64-bit words fold (the suffix stays word-aligned), so
    /// the retained suffix length is always in `[horizon, horizon + 63]`
    /// once the history is long enough. Returns the number of outcomes
    /// newly folded (0 when nothing crossed the horizon).
    ///
    /// Folding is exact — per-issuer `(good, total)` counts migrate into
    /// [`TieredHistory::folded_by_code`]-backed summaries — and
    /// irreversible: queries into the folded prefix degrade to
    /// [`StatsError::HorizonExceeded`] from then on.
    pub fn compact(&mut self, horizon: usize) -> usize {
        let target = self.len().saturating_sub(horizon) / 64 * 64;
        if target <= self.column.folded_len {
            return 0;
        }
        let drop = target - self.column.folded_len;
        debug_assert!(drop.is_multiple_of(64));

        // Migrate the dropped positions' issuer counts into the summary;
        // the dictionary and its index stay as they are.
        self.column.folded_good += self.column.suffix.count_range(0, drop);
        self.issuers
            .fold_prefix(drop, &self.column.suffix, &mut self.folded_by_code);

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

    /// The tiered outcome column (folded summary + retained bits).
    pub fn column(&self) -> &TieredColumn {
        &self.column
    }

    /// The issuer dictionary + suffix codes (snapshot payload; the
    /// dictionary spans the whole history).
    pub fn issuer_column(&self) -> &IssuerColumn {
        &self.issuers
    }

    /// Per-code `(good, total)` counts folded out of the prefix, indexed
    /// by dictionary code (snapshot payload; may be shorter than the
    /// dictionary).
    pub fn folded_by_code(&self) -> &[(u32, u32)] {
        &self.folded_by_code
    }

    /// Heap bytes held by the full-resolution tier (suffix bits, issuer
    /// codes, and the dictionary with its index).
    pub fn suffix_resident_bytes(&self) -> usize {
        self.column.suffix.resident_bytes() + self.issuers.resident_bytes()
    }

    /// Heap bytes held by the folded summary tier.
    pub fn summary_resident_bytes(&self) -> usize {
        self.folded_by_code.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Heap bytes held by this history (both resident tiers).
    pub fn resident_bytes(&self) -> usize {
        self.suffix_resident_bytes() + self.summary_resident_bytes()
    }

    /// Serializes the full tiered state to a little-endian byte payload —
    /// the unit both the snapshot writer and the cold-segment spill store
    /// persist. Round-trips through [`TieredHistory::decode`].
    pub fn encode(&self) -> Vec<u8> {
        let suffix = &self.column.suffix;
        let dict_len = self.issuers.dict_len();
        // A code goes out as the `u32`, and a client as the `u64`, the
        // column hands over, whichever width it is held at in memory.
        let codes_bytes = self.issuers.len() * std::mem::size_of::<u32>();
        let mut out =
            Vec::with_capacity(8 * 6 + 1 + dict_len * 16 + codes_bytes + suffix.words().len() * 8);
        match self.server {
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&s.value().to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.column.folded_len as u64).to_le_bytes());
        out.extend_from_slice(&self.column.folded_good.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(dict_len as u64).to_le_bytes());
        for c in self.issuers.clients() {
            out.extend_from_slice(&c.value().to_le_bytes());
        }
        for &(good, total) in &self.folded_by_code {
            out.extend_from_slice(&good.to_le_bytes());
            out.extend_from_slice(&total.to_le_bytes());
        }
        // Pad summaries to the dictionary length so the frame is
        // self-describing (codes minted after the last fold read (0,0)).
        for _ in self.folded_by_code.len()..dict_len {
            out.extend_from_slice(&[0u8; 8]);
        }
        for code in self.issuers.codes() {
            out.extend_from_slice(&code.to_le_bytes());
        }
        for &w in suffix.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Rebuilds a history from an [`TieredHistory::encode`] payload,
    /// revalidating every structural invariant (word alignment, summary
    /// totals vs the folded length, code ranges, bit padding).
    ///
    /// Returns `None` on any inconsistency — a corrupted or truncated
    /// payload must be rejected, never reinterpreted.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Cursor { bytes, pos: 0 };
        let has_server = r.u8()?;
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
        if folded_len > total_len || !folded_len.is_multiple_of(64) {
            return None;
        }
        if server.is_none() && total_len > 0 {
            return None;
        }
        let suffix_len = total_len - folded_len;
        // A count the payload claims is held against the bytes that are
        // left before anything is allocated for it.
        let client_count = usize::try_from(r.u64()?).ok()?;
        let client_count = r.fits(client_count, 16)?;
        let mut clients = Vec::with_capacity(client_count);
        for _ in 0..client_count {
            clients.push(ClientId::new(r.u64()?));
        }
        let mut folded_by_code = Vec::with_capacity(client_count);
        let (mut sum_good, mut sum_total) = (0u64, 0u64);
        for _ in 0..client_count {
            let good = r.u32()?;
            let total = r.u32()?;
            if good > total {
                return None;
            }
            sum_good += u64::from(good);
            sum_total += u64::from(total);
            folded_by_code.push((good, total));
        }
        if sum_good != folded_good || sum_total != folded_len as u64 {
            return None;
        }
        let mut codes = Vec::with_capacity(r.fits(suffix_len, 4)?);
        for _ in 0..suffix_len {
            codes.push(r.u32()?);
        }
        let word_count = r.fits(suffix_len.div_ceil(64), 8)?;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        if r.pos != bytes.len() {
            return None;
        }
        let suffix = BitColumn::from_words(words, suffix_len)?;
        // Codes are minted in order, so the issuers first seen in the
        // folded prefix are the leading codes with folded feedback: the
        // first code the suffix can mint, as the pushes left it.
        let base = folded_by_code
            .iter()
            .take_while(|&&(_, total)| total > 0)
            .count();
        let issuers = IssuerColumn::from_parts(clients, codes, u32::try_from(base).ok()?, &suffix)?;
        Some(TieredHistory {
            column: TieredColumn {
                folded_len,
                folded_good,
                suffix,
            },
            issuers,
            folded_by_code,
            server,
            mixed: false,
            version,
            reorder: Mutex::new(ReorderCache::default()),
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
        let slice = self.bytes.get(self.pos..self.pos + n)?;
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
}

impl Clone for TieredHistory {
    fn clone(&self) -> Self {
        TieredHistory {
            column: self.column.clone(),
            issuers: self.issuers.clone(),
            folded_by_code: self.folded_by_code.clone(),
            server: self.server,
            mixed: self.mixed,
            version: self.version,
            // Keep the warm column (it is an Arc bump); the recompute
            // counter describes work done by *this* instance and resets.
            reorder: Mutex::new(lock_reorder(&self.reorder).cloned()),
        }
    }
}

impl HistoryView for TieredHistory {
    fn len(&self) -> usize {
        self.column.len()
    }

    fn outcome_prefix(&self) -> ColumnRef<'_> {
        ColumnRef::Tiered(&self.column)
    }

    fn issuer_groups(&self) -> Vec<IssuerGroup> {
        // Folded summaries and the suffix's recounted live counts are both
        // exact and both indexed by code, so their sums equal the untiered
        // history's groups exactly (same sort, same ties).
        self.issuers
            .issuer_groups_with(&self.folded_by_code, &self.column.suffix)
    }

    fn reordered_column(&self) -> OwnedColumn {
        // The §4 permutation needs every outcome bit; folded positions no
        // longer have bits. Callers (the collusion-resilient test) check
        // `retained_start()` first and degrade with a typed error — so
        // reaching this with a folded prefix is a caller bug, and a panic
        // beats a silently wrong reordering.
        assert_eq!(
            self.column.folded_len, 0,
            "collusion reordering requires the full history, but the prefix \
             was folded past the assessment horizon (retained suffix starts \
             at {})",
            self.column.folded_len
        );
        lock_reorder(&self.reorder).get_or_build(self.version, || {
            OwnedColumn::Bits(Arc::new(
                self.issuers.reordered_outcomes(&self.column.suffix),
            ))
        })
    }

    fn time(&self, _i: usize) -> Option<u64> {
        // Tiered histories never keep timestamps (the online service
        // drops them; index order still defines recency).
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
    use proptest::prelude::*;

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
        assert_eq!(
            HistoryView::issuer_groups(&tiered),
            HistoryView::issuer_groups(&rows)
        );
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
        let (a, b) = (tiered.reordered_column(), rows.reordered_column());
        let (a, b) = (a.as_col(), b.as_col());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(
                a.count_range(0, i + 1),
                b.count_range(0, i + 1),
                "reorder pos {i}"
            );
        }
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
    fn reordered_column_is_cached_until_ingest_and_across_clone() {
        let shared = |a: &OwnedColumn, b: &OwnedColumn| match (a, b) {
            (OwnedColumn::Bits(x), OwnedColumn::Bits(y)) => Arc::ptr_eq(x, y),
            _ => unreachable!("tiered reordering is bit-backed"),
        };
        let mut h: TieredHistory = mixed_history(20).into_iter().collect();
        let first = h.reordered_column();
        assert!(
            shared(&first, &h.reordered_column()),
            "second call must hit the cache"
        );
        assert!(
            shared(&first, &h.clone().reordered_column()),
            "clone inherits the warm column"
        );
        h.push(fb(20, 0, true));
        assert!(
            !shared(&first, &h.reordered_column()),
            "ingest must invalidate"
        );
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
        assert_eq!(
            HistoryView::issuer_groups(&tiered),
            HistoryView::issuer_groups(&rows)
        );
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
    #[should_panic(expected = "collusion reordering requires the full history")]
    fn reordered_column_refuses_after_compaction() {
        let mut tiered: TieredHistory = mixed_history(300).into_iter().collect();
        tiered.compact(100);
        let _ = tiered.reordered_column();
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
        assert_eq!(
            HistoryView::issuer_groups(&tiered),
            HistoryView::issuer_groups(&rows)
        );
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
        let back = TieredHistory::decode(&bytes).expect("round trip");
        assert_eq!(back.len(), tiered.len());
        assert_eq!(back.good_count(), tiered.good_count());
        assert_eq!(back.retained_start(), tiered.retained_start());
        assert_eq!(back.version(), tiered.version());
        assert_eq!(back.server(), tiered.server());
        assert_eq!(
            HistoryView::issuer_groups(&back),
            HistoryView::issuer_groups(&tiered)
        );
        assert_eq!(
            back.window_counts(192, 300, 9).unwrap(),
            tiered.window_counts(192, 300, 9).unwrap()
        );
        // Empty history round-trips too.
        let empty = TieredHistory::new();
        let back = TieredHistory::decode(&empty.encode()).expect("empty round trip");
        assert!(back.is_empty());
        assert_eq!(back.server(), None);
    }

    /// FNV-1a over a payload (the pinned-bytes test's fingerprint).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn encode_bytes_are_those_of_the_posting_list_layout() {
        // Length and fingerprint of `encode()` for this fixed stream as
        // produced by the per-issuer posting-list layout (PR 12): storage
        // changes behind `IssuerColumn` must not move a byte on disk.
        let mut history = TieredHistory::new();
        for t in 0..1500u64 {
            let client = (t.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 300;
            history.push(fb(t, client, (t * 11 + t / 5) % 3 != 0));
            if t == 700 {
                history.compact(200);
            }
        }
        history.compact(256);
        let bytes = history.encode();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (6025, 0xcc82_b3ef_93b1_adfe));
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut tiered: TieredHistory = mixed_history(300).into_iter().collect();
        tiered.compact(100);
        let bytes = tiered.encode();
        assert!(
            TieredHistory::decode(&bytes[..bytes.len() - 1]).is_none(),
            "truncated"
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80; // a bit above suffix len in the last word
                               // Either the padding check or a summary-sum check must fire; the
                               // payload must never decode to different counts silently.
        if let Some(h) = TieredHistory::decode(&flipped) {
            assert_eq!(h.good_count(), tiered.good_count());
        }
        let mut bad_sum = bytes.clone();
        bad_sum[9 + 16] ^= 1; // folded_good no longer matches summary sums
        assert!(
            TieredHistory::decode(&bad_sum).is_none(),
            "summary sum mismatch"
        );
        assert!(TieredHistory::decode(&[]).is_none(), "empty payload");
    }

    #[test]
    fn decode_refuses_a_count_the_payload_cannot_hold() {
        // A 49-byte payload: the header of an empty history, claiming a
        // dictionary no allocation could hold (`capacity overflow`) or one
        // the allocator would abort on.
        for claimed in [1u64 << 60, 1 << 42] {
            let mut bytes = TieredHistory::new().encode();
            assert_eq!(bytes.len(), 49);
            bytes[41..49].copy_from_slice(&claimed.to_le_bytes());
            assert!(
                TieredHistory::decode(&bytes).is_none(),
                "client_count {claimed}"
            );
        }
        // The suffix length (total − folded) is bounded the same way.
        let history: TieredHistory = mixed_history(10).into_iter().collect();
        let mut bytes = history.encode();
        bytes[9..17].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(TieredHistory::decode(&bytes).is_none(), "suffix_len 2^60");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Truncating a valid payload, or overwriting one of its 8-byte
        /// counts (total length, folded length, folded good, dictionary
        /// size) with anything, decodes to `None` or to the same history
        /// — never to a panic or an allocation sized by the lie.
        #[test]
        fn decode_survives_any_length_field(
            n in 0u64..400,
            horizon in (any::<bool>(), 0usize..200).prop_map(|(fold, horizon)| fold.then_some(horizon)),
            field in (0usize..4).prop_map(|i| [9usize, 17, 25, 41][i]),
            value in (0u8..3, any::<u64>(), 0u32..64).prop_map(|(kind, raw, shift)| match kind {
                0 => raw,
                1 => 1u64 << shift,
                _ => raw % 1024,
            }),
            keep in (any::<bool>(), 0usize..4096).prop_map(|(cut, keep)| cut.then_some(keep)),
        ) {
            let mut history: TieredHistory = mixed_history(n).into_iter().collect();
            if let Some(horizon) = horizon {
                history.compact(horizon);
            }
            let bytes = history.encode();
            let mut mangled = bytes.clone();
            mangled[field..field + 8].copy_from_slice(&value.to_le_bytes());
            if let Some(keep) = keep {
                mangled.truncate(keep);
            }
            if let Some(decoded) = TieredHistory::decode(&mangled) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }

        /// Retained codes no push sequence produces — any value in any
        /// slot, first occurrences out of mint order, before or after a
        /// fold — decode to exactly those codes and encode back to exactly
        /// those bytes when every code is in dictionary range, and are
        /// refused when one is not.
        #[test]
        fn decode_is_exact_for_any_code_sequence(
            n in 1u64..400,
            horizon in (any::<bool>(), 0usize..200).prop_map(|(fold, horizon)| fold.then_some(horizon)),
            writes in proptest::collection::vec((any::<usize>(), any::<u32>(), any::<bool>()), 1..24),
        ) {
            let mut history: TieredHistory = mixed_history(n).into_iter().collect();
            if let Some(horizon) = horizon {
                history.compact(horizon);
            }
            let dict_len = history.issuer_column().dict_len() as u32;
            let mut codes: Vec<u32> = history.issuer_column().codes().collect();
            let mut bytes = history.encode();
            let at = 49 + 16 * dict_len as usize;
            for (slot, value, in_range) in writes {
                if codes.is_empty() {
                    break;
                }
                let slot = slot % codes.len();
                codes[slot] = if in_range { value % dict_len } else { value };
                bytes[at + 4 * slot..at + 4 * slot + 4].copy_from_slice(&codes[slot].to_le_bytes());
            }
            match TieredHistory::decode(&bytes) {
                Some(decoded) => {
                    prop_assert!(decoded.issuer_column().codes().eq(codes.iter().copied()));
                    prop_assert_eq!(decoded.encode(), bytes);
                }
                None => prop_assert!(codes.iter().any(|&code| code >= dict_len)),
            }
        }
    }

    /// Every torn shape a panic inside `push` could leave is repaired to
    /// the bytes of the history that never saw the record.
    #[test]
    fn truncate_to_repairs_torn_pushes_to_the_same_bytes() {
        type Tear = fn(&mut TieredHistory);
        let tears: [(&str, Tear); 4] = [
            ("bit pushed without code", |h| h.push_outcome_only(true)),
            ("code minted without a codes entry", |h| {
                h.push_outcome_only(false);
                h.issuers.push_without_code(ClientId::new(9_999));
            }),
            // The mint that takes ids to 41 bits.
            ("id above u32::MAX minted without a codes entry", |h| {
                h.push_outcome_only(false);
                h.issuers.push_without_code(ClientId::new(1 << 40));
            }),
            ("a whole push", |h| h.push(fb(300, 9_999, true))),
        ];
        let plain: TieredHistory = mixed_history(300).into_iter().collect();
        let mut folded = plain.clone();
        folded.compact(100);
        // Minting 9 999 here is the push that takes codes to 17 bits.
        let last_narrow: TieredHistory = (0..65_535)
            .map(|t| fb(t, 100_000 + t, t % 3 != 0))
            .collect();
        for (base, clean) in [
            ("plain", plain),
            ("folded", folded),
            ("one issuer short of 17-bit codes", last_narrow),
        ] {
            for (what, tear) in tears {
                let mut torn = clean.clone();
                let mark = torn.mark();
                tear(&mut torn);
                torn.truncate_to(&mark)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(torn.encode(), clean.encode(), "{what}, {base}");
                // Cut back under 2^16 issuers and below the first long
                // id, codes are 16 bits and ids 18 again: a push grows a
                // long column by a quarter at most.
                if clean.len() >= 1024 {
                    let (repaired, cloned) = (torn.resident_bytes(), clean.resident_bytes());
                    assert!(repaired * 4 <= cloned * 5, "{what}, {base}: {repaired} B");
                }
                assert_eq!(
                    HistoryView::issuer_groups(&torn),
                    HistoryView::issuer_groups(&clean),
                    "{what}"
                );
                // And it is a working history again.
                torn.push(fb(300, 9_999, false));
                let mut grown = clean.clone();
                grown.push(fb(300, 9_999, false));
                assert_eq!(
                    torn.encode(),
                    grown.encode(),
                    "{what}: push after the repair"
                );
            }
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
    fn truncate_to_drops_a_reordering_cached_for_the_tail() {
        let mut history: TieredHistory = mixed_history(50).into_iter().collect();
        let mark = history.mark();
        history.push(fb(50, 1, true));
        let stale = history.reordered_column();
        history.truncate_to(&mark).unwrap();
        history.push(fb(50, 2, false));
        let fresh = history.reordered_column();
        assert_ne!(
            stale.as_col().total_good(),
            fresh.as_col().total_good(),
            "version 51 was re-opened with different content"
        );
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
        assert!(tiered.summary_resident_bytes() > 0);
    }
}
