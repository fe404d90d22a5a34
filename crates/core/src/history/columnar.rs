//! The bit-packed columns of the production history.
//!
//! Outcomes live in a [`BitColumn`], issuers in an [`IssuerColumn`];
//! [`super::TieredHistory`] holds one of each behind
//! [`super::HistoryView`]. Timestamps are not stored here — the online
//! service's trust configuration never reads wall-clock time, and
//! `hp-store`, which does hand records back, keeps its own time column.
//! The cost model, against ~48 B per transaction for the reference row
//! store: per transaction 1 outcome bit + 1 prefix-popcount bit + 1
//! first-seen bit, and a 2 B issuer code only when the issuer repeats (a
//! transaction that mints its issuer has the next code, implicitly); per
//! distinct issuer a 4 B id + a 2 B index slot at load 3/8–3/4
//! (2.7–5.3 B) — the counts §4 groups by are recounted when asked for,
//! never stored. Codes and slots are 4 B only in a column that has met
//! 65 535 issuers, ids 8 B only in one that has met an id above
//! `u32::MAX`. Long columns grow by a quarter, so measured heap is
//! 3.0 B/feedback for a 10 000-feedback server with 24 issuers (2.8 B
//! when every transaction stored its code) and 8.6 B/feedback when all
//! 20 000 issuers are distinct (10.7 B with a code per transaction,
//! 15.3 B with 8 B ids too, 20.9 B with 4 B codes and slots as well,
//! 30.2 B with two stored counters per issuer, 108 B with posting `Vec`s
//! before that).
//!
//! Every statistic is bit-identical to the reference
//! [`crate::TransactionHistory`] path; see
//! `tests/columnar_equivalence.rs`.

use crate::id::ClientId;
use hp_stats::StatsError;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use super::view::IssuerGroup;

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

    /// This column cut back to its first `len` outcomes. Only the packed
    /// words are read: the tail bits are cleared and the prefix popcounts
    /// recounted by [`BitColumn::from_words`], so a column a panic left
    /// half-pushed comes back whole. `None` when the words hold fewer
    /// than `len` outcomes.
    pub(super) fn truncated(self, len: usize) -> Option<Self> {
        let mut words = self.words;
        if words.len() < len.div_ceil(64) {
            return None;
        }
        words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            *words.last_mut().expect("len > 0 implies a word") &= (1u64 << (len % 64)) - 1;
        }
        BitColumn::from_words(words, len)
    }
}

/// A dictionary-encoded issuer column: append-only columns and an
/// index-only hash table.
///
/// Each distinct issuer stores its [`ClientId`] once, in code order.
/// Each transaction stores one `first_seen` bit, set when it minted its
/// issuer, and only a transaction whose bit is clear stores its code:
/// codes are minted in order, so a minting transaction's code is the
/// number of mints before it. Client → code goes through an
/// open-addressing table that holds `code + 1` and no keys — a probe
/// compares against `clients[code]`. Two widths follow the dictionary's
/// contents, each on its own: repeated codes and slots are 16 bits wide
/// while the dictionary holds fewer than 65 535 clients and 32 bits from
/// then on, and client ids are held in 32 bits while every id in it fits
/// and in 64 from the first that does not. Both are functions of the
/// dictionary alone, however the column was built, and no query can tell.
/// So a first-seen issuer costs a 4 B id, one bit and one 2 B slot at
/// load 3/8–3/4 (2.7–5.3 B), with no allocation of its own, and a repeat
/// a 2 B code and one bit: 8.6 B of heap per feedback over 20 000
/// feedbacks from as many issuers (13.2 B with ids above `u32::MAX`;
/// 12.7 B at 65 535 issuers, 17.0 B with both). Nothing is counted per
/// issuer as feedback arrives (no online request reads it); the §4
/// readers recount: [`IssuerColumn::issuer_groups`] in one pass over the
/// codes and the outcome bits, [`IssuerColumn::frequency_order`] with a
/// two-pass counting sort. Every reader decodes the codes in one
/// sequential walk; there is no random access to a transaction's code.
#[derive(Debug, Clone)]
pub struct IssuerColumn(Width);

/// The columns, at the code and id widths their dictionary asks for.
#[derive(Debug, Clone)]
enum Width {
    /// 16-bit codes and slots, 32-bit ids: what every workload builds.
    Narrow(Columns<u16, u32>),
    /// 32-bit codes and slots: 65 535 issuers or more.
    WideCodes(Columns<u32, u32>),
    /// 64-bit ids: an id above `u32::MAX`.
    LongIds(Columns<u16, u64>),
    /// Both.
    Wide(Columns<u32, u64>),
}

/// `$body` with `$columns` bound to the [`Columns`] of any width.
macro_rules! any_width {
    ($column:expr, $columns:ident => $body:expr) => {
        match $column {
            Width::Narrow($columns) => $body,
            Width::WideCodes($columns) => $body,
            Width::LongIds($columns) => $body,
            Width::Wide($columns) => $body,
        }
    };
}

impl Width {
    /// `columns` with 32-bit codes and slots if `wide_codes` and 64-bit
    /// ids if `long_ids`: the columns the same pushes would have grown,
    /// capacities and slot positions included. `None` if a value does not
    /// fit.
    fn fitted<W: Unsigned, I: Unsigned>(
        columns: Columns<W, I>,
        wide_codes: bool,
        long_ids: bool,
    ) -> Option<Width> {
        Some(match (wide_codes, long_ids) {
            (false, false) => Width::Narrow(columns.at_width()?),
            (true, false) => Width::WideCodes(columns.at_width()?),
            (false, true) => Width::LongIds(columns.at_width()?),
            (true, true) => Width::Wide(columns.at_width()?),
        })
    }
}

/// Whether a dictionary of `clients` entries needs 32-bit codes and
/// slots: a 16-bit slot holds `code + 1` up to 65 534.
fn needs_wide_codes(clients: usize) -> bool {
    clients >= usize::from(u16::MAX)
}

/// Whether a dictionary holding `client` needs 64-bit ids.
fn needs_long_ids(client: u64) -> bool {
    client > u64::from(u32::MAX)
}

/// What a column stores a dictionary code, a `code + 1` slot or a client
/// id as.
trait Unsigned: Copy + Default + Ord + Into<u64> + TryFrom<u64> {
    /// `value` at this width; the dictionary's contents chose a width it
    /// fits.
    fn store(value: u64) -> Self {
        Self::try_from(value)
            .ok()
            .expect("a value fits the width its dictionary chose")
    }

    /// `values` as the one of three slices, by width, that can be
    /// non-empty.
    fn split(values: &[Self]) -> (&[u16], &[u32], &[u64]);
}

impl Unsigned for u16 {
    fn split(values: &[u16]) -> (&[u16], &[u32], &[u64]) {
        (values, &[], &[])
    }
}

impl Unsigned for u32 {
    fn split(values: &[u32]) -> (&[u16], &[u32], &[u64]) {
        (&[], values, &[])
    }
}

impl Unsigned for u64 {
    fn split(values: &[u64]) -> (&[u16], &[u32], &[u64]) {
        (&[], &[], values)
    }
}

/// `values` at another width, capacity kept; `None` if one does not fit.
fn recode<A: Unsigned, B: Unsigned>(values: &Vec<A>) -> Option<Vec<B>> {
    let mut recoded = Vec::with_capacity(values.capacity());
    for &value in values {
        recoded.push(B::try_from(value.into()).ok()?);
    }
    Some(recoded)
}

/// The allocations of an [`IssuerColumn`], repeated codes and slots held
/// as `W`, client ids as `I`.
#[derive(Debug, Clone, Default)]
struct Columns<W, I> {
    /// One bit per transaction, least significant first, set when its
    /// code is the next implicit one: `base` plus the set bits before it.
    /// That is every transaction that minted its issuer.
    first_seen: Vec<u64>,
    /// The first implicit code: the mints a fold took away.
    base: u32,
    /// Set bits in `first_seen`.
    minted: u32,
    /// The codes of the transactions whose bit is clear, in order.
    repeats: Vec<W>,
    /// Code → client id (dictionary decode). Codes are stable: never
    /// recycled, even when a fold leaves a client no live transaction.
    clients: Vec<I>,
    /// Client → code: linear-probed slots of `code + 1` (0 = empty), a
    /// power of two long, at most 3/4 full. Slot order depends on the
    /// process's hash key and is never observable.
    index: Vec<W>,
}

/// Home slot hash of a client. Ids arrive from the socket, so the hash is
/// SipHash under a key drawn once per process — the HashDoS resistance of
/// a default `HashMap` — and every index shares the key.
fn slot_hash(client: ClientId) -> usize {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new).hash_one(client) as usize
}

/// The smallest index (a power of two at load ≤ 3/4) for `clients` entries.
fn slots_for(clients: usize) -> usize {
    if clients == 0 {
        0
    } else {
        (clients * 4).div_ceil(3).next_power_of_two()
    }
}

/// Appends, growing a full column by `Vec`'s doubling while it is short
/// and by a quarter from 1024 elements on. Doubling keeps the many short
/// histories on power-of-two allocation sizes, which the allocator
/// recycles between servers (quarter steps from the start cost 6 % RSS on
/// the benchmark's 4096 × 256-feedback population); past a few KiB a
/// doubled column would leave up to half of its allocation unused.
fn push_tight<T>(column: &mut Vec<T>, value: T) {
    if column.len() == column.capacity() && column.len() >= 1024 {
        column.reserve_exact(column.len() / 4);
    }
    column.push(value);
}

fn capacity_bytes<T>(column: &Vec<T>) -> usize {
    column.capacity() * std::mem::size_of::<T>()
}

/// Gives back the slack of a column a fold left under two-thirds full:
/// more than a [`push_tight`] growth step leaves, so the steady cycle of
/// pushes and one-word folds around a horizon never reallocates, while a
/// fold of half a history returns what it freed.
fn shrink_sparse<T>(column: &mut Vec<T>) {
    if 2 * column.capacity() > 3 * column.len() {
        column.shrink_to_fit();
    }
}

/// A column's codes in transaction order, decoded in one walk: a set
/// `first_seen` bit is the next implicit code, a clear one the next
/// repeat.
struct Codes<'a, W> {
    first_seen: &'a [u64],
    repeats: std::slice::Iter<'a, W>,
    /// The code the next set bit stands for.
    next: u32,
    at: usize,
    len: usize,
}

impl<W: Unsigned> Iterator for Codes<'_, W> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.at == self.len {
            return None;
        }
        let first_seen = (self.first_seen[self.at / 64] >> (self.at % 64)) & 1 == 1;
        self.at += 1;
        if first_seen {
            self.next += 1;
            Some(self.next - 1)
        } else {
            self.repeats.next().map(|&code| code.into() as u32)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.at;
        (left, Some(left))
    }
}

impl<W: Unsigned, I: Unsigned> Columns<W, I> {
    /// Number of transactions recorded.
    fn len(&self) -> usize {
        self.minted as usize + self.repeats.len()
    }

    fn codes(&self) -> Codes<'_, W> {
        Codes {
            first_seen: &self.first_seen,
            repeats: self.repeats.iter(),
            next: self.base,
            at: 0,
            len: self.len(),
        }
    }

    /// Appends a transaction of code `code`: a set bit if it is the next
    /// implicit code, a clear bit and an explicit repeat otherwise. So
    /// any code sequence is held exactly, and the one pushes produce
    /// keeps a repeat per transaction that did not mint.
    fn append(&mut self, code: u32) {
        let at = self.len();
        if self.first_seen.len() <= at / 64 {
            push_tight(&mut self.first_seen, 0);
        }
        if code == self.base + self.minted {
            self.first_seen[at / 64] |= 1 << (at % 64);
            self.minted += 1;
        } else {
            push_tight(&mut self.repeats, W::store(code.into()));
        }
    }

    /// The client of dictionary code `code`.
    fn client(&self, code: usize) -> ClientId {
        ClientId::new(self.clients[code].into())
    }

    /// Looks `client` up in the index: its code, or the empty slot that
    /// ends its probe sequence (unused while no table is allocated).
    fn probe(&self, client: ClientId) -> Result<u32, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = slot_hash(client) & mask;
        loop {
            match self.index[slot].into() {
                0 => return Err(slot),
                tagged if self.client(tagged as usize - 1) == client => {
                    return Ok(tagged as u32 - 1)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the index over `clients` with `slots` slots; `None` if a
    /// client repeats.
    fn reindex(&mut self, slots: usize) -> Option<()> {
        self.index = vec![W::default(); slots];
        for code in 0..self.clients.len() {
            let slot = self.probe(self.client(code)).err()?;
            self.index[slot] = W::store(code as u64 + 1);
        }
        Some(())
    }

    /// Adds a first-seen `client`, whose probe ended at `slot`, to the
    /// dictionary and returns its code.
    fn mint(&mut self, client: ClientId, mut slot: usize) -> u32 {
        let entries = self.clients.len() + 1;
        assert!(entries < u32::MAX as usize, "issuer dictionary is full");
        if entries * 4 > self.index.len() * 3 {
            self.reindex(slots_for(entries))
                .expect("dictionary clients are distinct");
            slot = self
                .probe(client)
                .expect_err("a first-seen client is not indexed");
        }
        self.index[slot] = W::store(entries as u64);
        push_tight(&mut self.clients, I::store(client.value()));
        entries as u32 - 1
    }

    /// These columns at the widths a dictionary that also holds `client`
    /// asks for, when one of them is wider than now.
    fn room_for(&mut self, client: ClientId) -> Option<Width> {
        let wide_codes = std::mem::size_of::<W>() == 4;
        let long_ids = std::mem::size_of::<I>() == 8;
        let widen_codes =
            !wide_codes && needs_wide_codes(self.clients.len() + 1) && self.probe(client).is_err();
        // A dictionary of 32-bit ids cannot hold this one yet.
        let widen_ids = !long_ids && needs_long_ids(client.value());
        (widen_codes || widen_ids).then(|| {
            let columns = std::mem::take(self);
            Width::fitted(columns, wide_codes || widen_codes, long_ids || widen_ids)
                .expect("a value fits a wider width")
        })
    }

    fn push(&mut self, client: ClientId) {
        let code = match self.probe(client) {
            Ok(code) => code,
            Err(slot) => self.mint(client, slot),
        };
        self.append(code);
    }

    /// Adds transaction `idx`'s outcome to `tally[code]` as
    /// `(good, total)`, for each `(idx, code)` of `codes`.
    fn tally(codes: impl Iterator<Item = u32>, outcomes: &BitColumn, tally: &mut [(u32, u32)]) {
        for (idx, code) in codes.enumerate() {
            let (good, total) = &mut tally[code as usize];
            *good += u32::from(outcomes.get(idx));
            *total += 1;
        }
    }

    fn issuer_groups_with(&self, folded: &[(u32, u32)], outcomes: &BitColumn) -> Vec<IssuerGroup> {
        let mut tally = folded.to_vec();
        tally.resize(self.clients.len(), (0, 0));
        Self::tally(self.codes(), outcomes, &mut tally);
        let mut groups: Vec<IssuerGroup> = tally
            .iter()
            .zip(&self.clients)
            .filter(|((_, total), _)| *total > 0)
            .map(|(&(good, total), &client)| IssuerGroup {
                client: ClientId::new(client.into()),
                count: total as usize,
                good: good as usize,
            })
            .collect();
        groups.sort_by(|a, b| b.count.cmp(&a.count).then(a.client.cmp(&b.client)));
        groups
    }

    /// The counting sort behind the §4 order: a pass over the codes counts
    /// each issuer's transactions, live codes are sorted most frequent
    /// first (ties by ascending client id) and their counts prefix-summed
    /// into group offsets, then a second pass calls
    /// `place(destination, idx)` once per transaction `idx`.
    fn scatter(&self, mut place: impl FnMut(usize, usize)) {
        // Per code: its count, then its group's next free destination.
        let mut next = vec![0u32; self.clients.len()];
        for code in self.codes() {
            next[code as usize] += 1;
        }
        let mut live: Vec<u32> = (0..self.clients.len() as u32)
            .filter(|&code| next[code as usize] > 0)
            .collect();
        live.sort_by(|&a, &b| {
            next[b as usize]
                .cmp(&next[a as usize])
                .then(self.clients[a as usize].cmp(&self.clients[b as usize]))
        });
        let mut offset = 0;
        for code in live {
            let count = next[code as usize];
            next[code as usize] = offset;
            offset += count;
        }
        for (idx, code) in self.codes().enumerate() {
            let code = code as usize;
            place(next[code] as usize, idx);
            next[code] += 1;
        }
    }

    fn frequency_order(&self) -> Vec<u32> {
        let mut order = vec![0u32; self.len()];
        self.scatter(|destination, idx| order[destination] = idx as u32);
        order
    }

    fn reordered_outcomes(&self, outcomes: &BitColumn) -> BitColumn {
        let mut words = vec![0u64; self.len().div_ceil(64)];
        self.scatter(|destination, idx| {
            words[destination / 64] |= u64::from(outcomes.get(idx)) << (destination % 64);
        });
        BitColumn::from_words(words, self.len()).expect("one bit per transaction")
    }

    fn resident_bytes(&self) -> usize {
        capacity_bytes(&self.first_seen)
            + capacity_bytes(&self.repeats)
            + capacity_bytes(&self.index)
            + capacity_bytes(&self.clients)
    }

    fn fold_prefix(&mut self, n: usize, outcomes: &BitColumn, folded: &mut Vec<(u32, u32)>) {
        assert!(n.is_multiple_of(64), "a fold takes whole words, not {n}");
        folded.resize(self.clients.len(), (0, 0));
        Self::tally(self.codes().take(n), outcomes, folded);
        let words = n / 64;
        let minted: u32 = self.first_seen[..words]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        self.first_seen.drain(..words);
        self.repeats.drain(..n - minted as usize);
        self.base += minted;
        self.minted -= minted;
        shrink_sparse(&mut self.first_seen);
        shrink_sparse(&mut self.repeats);
    }

    /// These columns with codes and slots as `V` and ids as `J`: the
    /// columns the same pushes would have grown, capacities and slot
    /// positions included. `None` if a value does not fit.
    fn at_width<V: Unsigned, J: Unsigned>(self) -> Option<Columns<V, J>> {
        Some(Columns {
            repeats: recode(&self.repeats)?,
            clients: recode(&self.clients)?,
            index: recode(&self.index)?,
            first_seen: self.first_seen,
            base: self.base,
            minted: self.minted,
        })
    }
}

impl Default for IssuerColumn {
    fn default() -> Self {
        IssuerColumn(Width::Narrow(Columns::default()))
    }
}

impl IssuerColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        IssuerColumn::default()
    }

    /// `columns` at the widths their dictionary's contents choose, index
    /// restored; `None` when the first implicit code or a code is out of
    /// dictionary range, a client repeats, or there is not one code per
    /// outcome.
    fn rebuilt<W: Unsigned, I: Unsigned>(
        columns: Columns<W, I>,
        outcomes: &BitColumn,
    ) -> Option<Self> {
        let entries = columns.clients.len();
        if columns.base as usize > entries
            || columns.len() != outcomes.len()
            || columns.codes().any(|code| code as usize >= entries)
        {
            return None;
        }
        let wide_codes = needs_wide_codes(entries);
        let long_ids = columns
            .clients
            .iter()
            .any(|&client| needs_long_ids(client.into()));
        let columns = Columns {
            index: Vec::new(),
            ..columns
        };
        let mut column = IssuerColumn(Width::fitted(columns, wide_codes, long_ids)?);
        any_width!(&mut column.0, columns => columns.reindex(slots_for(columns.clients.len())))?;
        Some(column)
    }

    /// Widens the column if minting `client` would take its dictionary
    /// to the 65 535 entries whose slots no longer fit 16 bits, or if
    /// `client` is the first id that does not fit 32.
    fn make_room(&mut self, client: ClientId) {
        if let Some(wider) = any_width!(&mut self.0, columns => columns.room_for(client)) {
            self.0 = wider;
        }
    }

    /// Appends the issuer of the next transaction.
    pub fn push(&mut self, client: ClientId) {
        self.make_room(client);
        any_width!(&mut self.0, columns => columns.push(client))
    }

    /// Number of transactions recorded.
    pub fn len(&self) -> usize {
        any_width!(&self.0, columns => columns.len())
    }

    /// Number of clients in the dictionary: every issuer the history has
    /// met, folded or live.
    pub fn dict_len(&self) -> usize {
        any_width!(&self.0, columns => columns.clients.len())
    }

    /// Whether no transactions are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The issuer of each transaction, in transaction order.
    pub fn issuers(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.codes()
            .map(|code| any_width!(&self.0, columns => columns.client(code as usize)))
    }

    /// All issuers with at least one feedback, most frequent first, ties
    /// broken by ascending client id — the §4 ordering. `outcomes` holds
    /// one bit per transaction of this column.
    pub fn issuer_groups(&self, outcomes: &BitColumn) -> Vec<IssuerGroup> {
        self.issuer_groups_with(&[], outcomes)
    }

    /// [`IssuerColumn::issuer_groups`] with `folded[code] = (good, total)`
    /// added to each issuer's live counts (codes past its end add nothing).
    pub(super) fn issuer_groups_with(
        &self,
        folded: &[(u32, u32)],
        outcomes: &BitColumn,
    ) -> Vec<IssuerGroup> {
        any_width!(&self.0, columns => columns.issuer_groups_with(folded, outcomes))
    }

    /// The §4 issuer-frequency permutation: transaction indexes grouped by
    /// issuer, most frequent issuers first, transaction order preserved
    /// inside each group.
    pub fn frequency_order(&self) -> Vec<u32> {
        any_width!(&self.0, columns => columns.frequency_order())
    }

    /// `outcomes` (one per transaction of this column) permuted into
    /// [`IssuerColumn::frequency_order`], scattered bit by bit without
    /// materializing the permutation.
    pub(super) fn reordered_outcomes(&self, outcomes: &BitColumn) -> BitColumn {
        any_width!(&self.0, columns => columns.reordered_outcomes(outcomes))
    }

    /// Heap bytes held by this column: every allocation at its capacity,
    /// index included.
    pub fn resident_bytes(&self) -> usize {
        any_width!(&self.0, columns => columns.resident_bytes())
    }

    /// The dictionary decode table in code order (snapshot payload), as
    /// the [`ClientId`]s the wire carries whichever width holds them;
    /// [`IssuerColumn::dict_len`] long.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        let (_, short, long) =
            any_width!(&self.0, columns => Unsigned::split(columns.clients.as_slice()));
        let ids = short
            .iter()
            .map(|&id| u64::from(id))
            .chain(long.iter().copied());
        ids.map(ClientId::new)
    }

    /// The per-transaction dictionary codes in transaction order
    /// (snapshot payload), as the `u32`s the wire carries whichever way
    /// they are held.
    pub fn codes(&self) -> impl Iterator<Item = u32> + '_ {
        let (narrow, wide) = match &self.0 {
            Width::Narrow(columns) => (Some(columns.codes()), None),
            Width::LongIds(columns) => (Some(columns.codes()), None),
            Width::WideCodes(columns) => (None, Some(columns.codes())),
            Width::Wide(columns) => (None, Some(columns.codes())),
        };
        narrow
            .into_iter()
            .flatten()
            .chain(wide.into_iter().flatten())
    }

    /// Folds the oldest `n` transactions out of the column: their
    /// per-issuer `(good, total)` counts are added to `folded` (indexed by
    /// code) and later positions shift down by `n`, a multiple of 64. The
    /// dictionary and its index are kept — codes are stable — so a fold
    /// costs O(`n`) plus the move of the retained bits and repeats,
    /// whatever the dictionary holds; the mints it takes away move the
    /// first implicit code up.
    pub(super) fn fold_prefix(
        &mut self,
        n: usize,
        outcomes: &BitColumn,
        folded: &mut Vec<(u32, u32)>,
    ) {
        any_width!(&mut self.0, columns => columns.fold_prefix(n, outcomes, folded))
    }

    /// Rebuilds a column from its dictionary and per-transaction codes,
    /// restoring the index. `base` is the number of issuers first seen
    /// before `codes` begins (in a folded-away prefix). The result yields
    /// exactly `codes` for any sequence and any `base`; for the parts of a
    /// column fed a client sequence one push at a time, with its `base`,
    /// it answers every query like that column and holds the same
    /// columns at the same widths.
    ///
    /// Returns `None` when the parts are inconsistent: `base` or a code
    /// out of dictionary range, a repeated client, or `codes.len()`
    /// differing from `outcomes.len()` (the outcome column the codes sit
    /// beside).
    pub fn from_parts(
        clients: Vec<ClientId>,
        codes: Vec<u32>,
        base: u32,
        outcomes: &BitColumn,
    ) -> Option<Self> {
        let mut columns = Columns::<u32, u64> {
            base,
            clients: clients.iter().map(|client| client.value()).collect(),
            ..Columns::default()
        };
        if base as usize > columns.clients.len() {
            return None;
        }
        for code in codes {
            if code as usize >= columns.clients.len() {
                return None;
            }
            columns.append(code);
        }
        columns.first_seen.shrink_to_fit();
        columns.repeats.shrink_to_fit();
        IssuerColumn::rebuilt(columns, outcomes)
    }

    /// This column cut back to its first `len` transactions and first
    /// `dict_len` dictionary entries. Only the append-only primaries
    /// (`first_seen`, `repeats`, `clients`) are read, each cut in place,
    /// its capacity kept; [`IssuerColumn::from_parts`]'s checks hold them
    /// against `outcomes` and the index is rebuilt. `None` when a primary
    /// is shorter than asked or the cut parts are inconsistent.
    pub(super) fn truncated(
        self,
        len: usize,
        dict_len: usize,
        outcomes: &BitColumn,
    ) -> Option<Self> {
        any_width!(self.0, columns => {
            if columns.len() < len || columns.clients.len() < dict_len {
                return None;
            }
            let Columns { mut first_seen, mut repeats, mut clients, base, .. } = columns;
            first_seen.truncate(len.div_ceil(64));
            if !len.is_multiple_of(64) {
                *first_seen.last_mut().expect("len > 0 implies a word") &= (1u64 << (len % 64)) - 1;
            }
            let minted: u32 = first_seen.iter().map(|w| w.count_ones()).sum();
            repeats.truncate(len - minted as usize);
            clients.truncate(dict_len);
            let columns = Columns { first_seen, base, minted, repeats, clients, index: Vec::new() };
            IssuerColumn::rebuilt(columns, outcomes)
        })
    }

    /// Test seam: the dictionary half of a push with no code appended —
    /// mints `client` if it is new. What a panic inside
    /// [`IssuerColumn::push`] could leave.
    #[cfg(test)]
    pub(super) fn push_without_code(&mut self, client: ClientId) {
        self.make_room(client);
        any_width!(&mut self.0, columns => {
            if let Err(slot) = columns.probe(client) {
                columns.mint(client, slot);
            }
        })
    }
}

/// The posting-list layout this column replaced — a keyed `HashMap`, and
/// per issuer a `Vec` of the transaction indexes it issued — kept as the
/// differential oracle for the flat columns.
#[cfg(test)]
#[derive(Default)]
struct PostingReference {
    dict: std::collections::HashMap<ClientId, u32>,
    clients: Vec<ClientId>,
    postings: Vec<Vec<u32>>,
    good_counts: Vec<u32>,
    len: u32,
}

#[cfg(test)]
impl PostingReference {
    fn push(&mut self, client: ClientId, good: bool) {
        let code = *self.dict.entry(client).or_insert_with(|| {
            self.clients.push(client);
            self.postings.push(Vec::new());
            self.good_counts.push(0);
            self.clients.len() as u32 - 1
        });
        self.postings[code as usize].push(self.len);
        self.good_counts[code as usize] += u32::from(good);
        self.len += 1;
    }

    fn issuer_groups(&self) -> Vec<IssuerGroup> {
        let mut groups: Vec<IssuerGroup> = self
            .postings
            .iter()
            .enumerate()
            .filter(|(_, postings)| !postings.is_empty())
            .map(|(code, postings)| IssuerGroup {
                client: self.clients[code],
                count: postings.len(),
                good: self.good_counts[code] as usize,
            })
            .collect();
        groups.sort_by(|a, b| b.count.cmp(&a.count).then(a.client.cmp(&b.client)));
        groups
    }

    fn frequency_order(&self) -> Vec<u32> {
        let mut codes: Vec<u32> = (0..self.postings.len() as u32)
            .filter(|&code| !self.postings[code as usize].is_empty())
            .collect();
        codes.sort_by(|&a, &b| {
            self.postings[b as usize]
                .len()
                .cmp(&self.postings[a as usize].len())
                .then(self.clients[a as usize].cmp(&self.clients[b as usize]))
        });
        let mut order = Vec::with_capacity(self.len as usize);
        for code in codes {
            order.extend_from_slice(&self.postings[code as usize]);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::super::{HistoryView, TieredHistory};
    use super::*;
    use crate::feedback::{Feedback, Rating};
    use crate::id::ServerId;
    use hp_stats::PrefixSums;
    use proptest::prelude::*;

    fn fb(t: u64, client: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(1),
            ClientId::new(client),
            Rating::from_good(good),
        )
    }

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

    #[test]
    fn issuer_column_groups_sorted_by_frequency_then_id() {
        let mut col = IssuerColumn::new();
        let stream = [(5u64, true), (9, false), (5, true), (5, false), (9, true)];
        for &(client, _) in &stream {
            col.push(ClientId::new(client));
        }
        assert_eq!(
            col.issuer_groups(&bits(&stream)),
            vec![
                IssuerGroup {
                    client: ClientId::new(5),
                    count: 3,
                    good: 2
                },
                IssuerGroup {
                    client: ClientId::new(9),
                    count: 2,
                    good: 1
                },
            ]
        );
        // Same permutation the reference issuer_frequency_order produces.
        assert_eq!(col.frequency_order(), vec![0, 2, 3, 1, 4]);
    }

    fn bits(stream: &[(u64, bool)]) -> BitColumn {
        BitColumn::from_bools(stream.iter().map(|&(_, good)| good))
    }

    fn postings(stream: &[(u64, bool)]) -> PostingReference {
        let mut oracle = PostingReference::default();
        for &(client, good) in stream {
            oracle.push(ClientId::new(client), good);
        }
        oracle
    }

    /// Every issuer query of `column` against the posting-list oracle fed
    /// the same live `(client, good)` sequence.
    fn assert_matches_postings(column: &IssuerColumn, live: &[(u64, bool)]) {
        let oracle = postings(live);
        assert_eq!(column.len(), live.len());
        assert_eq!(column.frequency_order(), oracle.frequency_order());
        let outcomes = bits(live);
        let reordered = oracle
            .frequency_order()
            .into_iter()
            .map(|idx| live[idx as usize].1);
        assert_eq!(
            column.reordered_outcomes(&outcomes),
            BitColumn::from_bools(reordered)
        );
        assert_eq!(column.issuer_groups(&outcomes), oracle.issuer_groups());
    }

    /// Which layout holds `column`: (32-bit codes, 64-bit ids).
    fn widths(column: &IssuerColumn) -> (bool, bool) {
        match column.0 {
            Width::Narrow(_) => (false, false),
            Width::WideCodes(_) => (true, false),
            Width::LongIds(_) => (false, true),
            Width::Wide(_) => (true, true),
        }
    }

    /// `column` is held at the widths its dictionary's contents ask for,
    /// and its wire parts (`outcomes` beside them) rebuild to those widths,
    /// allocated to the byte.
    fn assert_widths_follow_contents(column: &IssuerColumn, outcomes: &BitColumn) {
        let clients: Vec<ClientId> = column.clients().collect();
        assert_eq!(clients.len(), column.dict_len());
        let long = clients.iter().any(|c| c.value() > u64::from(u32::MAX));
        assert_eq!(widths(column), (clients.len() >= 65_535, long));
        let base = any_width!(&column.0, columns => columns.base);
        let rebuilt = IssuerColumn::from_parts(clients, column.codes().collect(), base, outcomes)
            .expect("a column's own parts");
        assert_eq!(widths(&rebuilt), widths(column));
        assert_eq!(rebuilt.resident_bytes(), column.clone().resident_bytes());
    }

    #[test]
    fn ids_are_32_bits_until_one_does_not_fit() {
        let mut column = IssuerColumn::new();
        for client in [7, 9, 7, u64::from(u32::MAX)] {
            column.push(ClientId::new(client));
        }
        assert_eq!(widths(&column), (false, false), "u32::MAX fits");
        column.push(ClientId::new(1 << 32));
        column.push(ClientId::new(3));
        assert_eq!(widths(&column), (false, true), "codes stay 16 bits");
        let ids = [7, 9, u64::from(u32::MAX), 1 << 32, 3].map(ClientId::new);
        assert!(column.clients().eq(ids));
        assert_eq!(column.issuers().nth(4), Some(ids[3]));
        let outcomes = BitColumn::from_bools([true, false, true, true, false, true]);
        assert_widths_follow_contents(&column, &outcomes);

        // Cut back before the long id, the ids are 32 bits again.
        let head = BitColumn::from_bools([true, false, true, true]);
        let cut = column
            .truncated(4, 3, &head)
            .expect("a mark of this column");
        assert_eq!(widths(&cut), (false, false));
        assert_matches_postings(
            &cut,
            &[
                (7, true),
                (9, false),
                (7, true),
                (u64::from(u32::MAX), true),
            ],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat columns answer exactly like the posting lists they
        /// replaced: as pushed, after a fold (the dictionary keeps issuers
        /// whose live count dropped to zero), after more pushes, and
        /// after an encode → decode round trip.
        #[test]
        fn flat_columns_answer_like_posting_lists(
            pool in 1u64..=40,
            raw in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..500),
            horizon in 0usize..=200,
            split in 0usize..=500,
        ) {
            let stream: Vec<(u64, bool)> =
                raw.iter().map(|&(c, good)| (u64::from(c) % pool, good)).collect();
            let split = split.min(stream.len());
            let mut history = TieredHistory::new();
            for (t, &(client, good)) in stream[..split].iter().enumerate() {
                history.push(fb(t as u64, client, good));
            }
            assert_matches_postings(history.issuer_column(), &stream[..split]);

            history.compact(horizon);
            assert_matches_postings(
                history.issuer_column(),
                &stream[history.retained_start()..split],
            );

            for (t, &(client, good)) in stream.iter().enumerate().skip(split) {
                history.push(fb(t as u64, client, good));
            }
            let live = &stream[history.retained_start()..];
            assert_matches_postings(history.issuer_column(), live);

            let decoded = TieredHistory::decode(&history.encode()).expect("round trip");
            assert_matches_postings(decoded.issuer_column(), live);
            prop_assert_eq!(
                HistoryView::issuer_groups(&decoded),
                HistoryView::issuer_groups(&history)
            );
        }

        /// Nothing per issuer is stored, so every answer is a recount —
        /// and it equals the posting lists' after each step of any
        /// interleaving of pushes, rollbacks to a mark and folds, with
        /// the folded summaries added (against the oracle fed everything
        /// kept) and without (against the oracle fed the live suffix).
        /// With `long`, a third of the ids sit above `u32::MAX`, so a
        /// rollback may cross back over the first of them.
        #[test]
        fn recounts_follow_pushes_rollbacks_and_folds(
            pool in 1u64..=40,
            long in any::<bool>(),
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec((any::<u16>(), any::<bool>()), 0..40),
                    any::<bool>(),
                    0usize..4,
                ),
                1..12,
            ),
        ) {
            let mut column = IssuerColumn::new();
            // Everything pushed and not rolled back; the first
            // `folded_len` of it live on only in `folded`.
            let mut kept: Vec<(u64, bool)> = Vec::new();
            let mut folded_len = 0;
            let mut folded = Vec::new();
            let check = |column: &IssuerColumn, kept: &[(u64, bool)], folded_len, folded: &[(u32, u32)]| {
                let live = &kept[folded_len..];
                assert_matches_postings(column, live);
                assert_eq!(
                    column.issuer_groups_with(folded, &bits(live)),
                    postings(kept).issuer_groups()
                );
                assert_widths_follow_contents(column, &bits(live));
            };
            for (burst, roll_back, fold) in steps {
                let (mark_len, mark_dict) = (column.len(), column.dict_len());
                for (raw, good) in burst {
                    let client = u64::from(raw) % pool + u64::from(long && raw % 3 == 0) * (1 << 32);
                    column.push(ClientId::new(client));
                    kept.push((client, good));
                }
                check(&column, &kept, folded_len, &folded);
                if roll_back {
                    kept.truncate(folded_len + mark_len);
                    column = column
                        .truncated(mark_len, mark_dict, &bits(&kept[folded_len..]))
                        .expect("a mark of this column");
                    check(&column, &kept, folded_len, &folded);
                }
                let fold = (fold * 64).min(column.len() / 64 * 64);
                column.fold_prefix(fold, &bits(&kept[folded_len..]), &mut folded);
                folded_len += fold;
                check(&column, &kept, folded_len, &folded);
            }
        }
    }

    #[test]
    fn from_parts_rejects_each_malformed_input() {
        let outcomes = BitColumn::from_bools([true, false, true]);
        let clients = || vec![ClientId::new(7), ClientId::new(9)];
        let rebuilt = IssuerColumn::from_parts(clients(), vec![0, 1, 0], 0, &outcomes)
            .expect("consistent parts");
        assert_matches_postings(&rebuilt, &[(7, true), (9, false), (7, true)]);
        assert!(
            IssuerColumn::from_parts(clients(), vec![0, 2, 0], 0, &outcomes).is_none(),
            "code out of range"
        );
        assert!(
            IssuerColumn::from_parts(clients(), vec![0, 1, 0], 3, &outcomes).is_none(),
            "base out of range"
        );
        let repeated = vec![ClientId::new(7), ClientId::new(7)];
        assert!(
            IssuerColumn::from_parts(repeated, vec![0, 1, 0], 0, &outcomes).is_none(),
            "repeated client"
        );
        assert!(
            IssuerColumn::from_parts(clients(), vec![0, 1], 0, &outcomes).is_none(),
            "length mismatch"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Parts no push sequence produces — first occurrences out of mint
        /// order, codes that never occur, any `base` — still rebuild to
        /// exactly their codes, answer like the posting lists fed the
        /// issuers they name, and keep doing so after more pushes.
        #[test]
        fn from_parts_holds_any_code_sequence(
            dict in 1u32..40,
            raw in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..300),
            base in any::<u32>(),
            more in proptest::collection::vec(0u64..60, 0..40),
        ) {
            let codes: Vec<u32> = raw.iter().map(|&(code, _)| code % dict).collect();
            let base = base % (dict + 1);
            let clients: Vec<ClientId> = (0..u64::from(dict)).map(|c| ClientId::new(c * 3)).collect();
            let outcomes = BitColumn::from_bools(raw.iter().map(|&(_, good)| good));
            let mut column = IssuerColumn::from_parts(clients, codes.clone(), base, &outcomes)
                .expect("in-range parts");
            prop_assert_eq!(column.codes().collect::<Vec<_>>(), codes.clone());
            let mut live: Vec<(u64, bool)> =
                codes.iter().zip(&raw).map(|(&code, &(_, good))| (u64::from(code) * 3, good)).collect();
            assert_matches_postings(&column, &live);
            for (t, client) in more.into_iter().enumerate() {
                column.push(ClientId::new(client));
                live.push((client, t % 2 == 0));
            }
            assert_matches_postings(&column, &live);
            prop_assert!(column.issuers().eq(live.iter().map(|&(c, _)| ClientId::new(c))));
        }
    }

    #[test]
    fn ids_sharing_their_low_bits_do_not_cluster_in_the_index() {
        // 10 000 ids that differ only above bit 20: an index hashing by
        // low bits would put them all in one probe run (quadratic pushes).
        const IDS: usize = 10_000;
        let mut column = Columns::<u16, u64>::default();
        for i in 0..IDS as u64 {
            column.push(ClientId::new(i << 20));
        }
        assert_eq!(column.clients.len(), IDS);
        let mask = column.index.len() - 1;
        assert!(IDS * 4 <= column.index.len() * 3, "load above 3/4");
        // Total displacement from home slots = probes beyond the first,
        // summed over every issuer; linear probing at load ≤ 3/4 expects
        // about 1.5 per entry.
        let displaced: usize = (0..column.index.len())
            .filter(|&slot| column.index[slot] != 0)
            .map(|slot| {
                let client = column.client(usize::from(column.index[slot] - 1));
                slot.wrapping_sub(slot_hash(client)) & mask
            })
            .sum();
        assert!(
            displaced < 8 * IDS,
            "{displaced} extra probes for {IDS} ids"
        );
        for i in (0..IDS as u64).step_by(97) {
            assert_eq!(column.probe(ClientId::new(i << 20)), Ok(i as u32));
        }
        assert!(column.probe(ClientId::new(1)).is_err());
    }
}
