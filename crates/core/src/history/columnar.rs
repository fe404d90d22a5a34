//! The bit-packed columns of the production history.
//!
//! Outcomes live in a [`BitColumn`], issuers in an [`IssuerColumn`];
//! [`super::TieredHistory`] holds one of each behind
//! [`super::HistoryView`]. Timestamps are not stored here — the online
//! service's trust configuration never reads wall-clock time, and
//! `hp-store`, which does hand records back, keeps its own time column.
//! The cost model, against ~48 B per transaction for the reference row
//! store, for a dictionary of `d` clients whose largest id is `max id`:
//! per transaction 1 outcome bit + 1 prefix-popcount bit + 1 first-seen
//! bit, and a ⌈log₂(d + 1)⌉-bit code only when the issuer repeats (a
//! transaction that mints its issuer has the next code, implicitly); per
//! distinct issuer ⌈log₂(max id + 1)⌉ bits of id + `k` / load bits of
//! index, `2^k` slots at load 3/8–3/4 (from 3/16 up to 256 slots; `k` is
//! ⌈log₂(d + 1)⌉ when the table is over half full) — the counts §4 groups
//! by are recounted when asked for, never stored. Every width is a
//! function of the dictionary's contents alone. Long columns grow by a
//! quarter, so measured heap is 1.4 B/feedback for a 10 000-feedback
//! server with 24 issuers (3.0 B with 16-bit codes and 32-bit ids) and
//! 6.8 B/feedback when all 20 000 issuers are distinct, with the 20-bit
//! ids `hp-load` sends (8.6 B with 32-bit ids and 16-bit codes and slots,
//! 10.7 B with a code per transaction, 15.3 B with 8 B ids too, 20.9 B
//! with 4 B codes and slots as well, 30.2 B with two stored counters per
//! issuer, 108 B with posting `Vec`s before that).
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

/// Unsigned integers of one width, `bits` each (1 to 64), packed back to
/// back into `u64` words, least significant bit first: integer `i` takes
/// bits `i · bits ..` of the packed stream, possibly across two words.
/// The words are exactly as many as `len` integers need, and every bit
/// past them is zero.
#[derive(Debug, Clone)]
struct PackedInts {
    words: Vec<u64>,
    bits: u32,
    len: usize,
}

impl Default for PackedInts {
    fn default() -> Self {
        PackedInts::new(1)
    }
}

/// The bits that hold `value`, at least one.
#[inline]
fn bits_for(value: u64) -> u32 {
    (u64::BITS - value.leading_zeros()).max(1)
}

/// The word after the one read from bit `shift` on, moved to sit above
/// that word's `64 − shift` bits (nothing when `shift` is 0).
#[inline]
fn spill(next: u64, shift: usize) -> u64 {
    (next << 1) << (63 - shift)
}

/// Words that hold `len` integers of `bits` bits.
#[inline]
fn words_for(len: usize, bits: u32) -> usize {
    (len * bits as usize).div_ceil(64)
}

impl PackedInts {
    fn new(bits: u32) -> Self {
        PackedInts {
            words: Vec::new(),
            bits,
            len: 0,
        }
    }

    /// `len` zeros, allocated to the word.
    fn zeroed(len: usize, bits: u32) -> Self {
        PackedInts {
            words: vec![0; words_for(len, bits)],
            bits,
            len,
        }
    }

    /// `values` at `bits` each, in an allocation of `capacity(words)`
    /// words, `words` being what they need.
    fn from_values(
        bits: u32,
        values: impl ExactSizeIterator<Item = u64>,
        capacity: fn(usize) -> usize,
    ) -> Self {
        let len = values.len();
        let mut words = Vec::with_capacity(capacity(words_for(len, bits)));
        // The bits not yet written out, lowest first: `held` of them.
        let (mut buffer, mut held) = (0u64, 0);
        for value in values {
            buffer |= value << held;
            held += bits;
            if held >= 64 {
                words.push(buffer);
                held -= 64;
                // The value's top `held` bits, which did not fit.
                buffer = (value >> 1) >> (bits - held - 1);
            }
        }
        if held > 0 {
            words.push(buffer);
        }
        PackedInts { words, bits, len }
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn max_value(&self) -> u64 {
        u64::MAX >> (64 - self.bits)
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        let at = i * self.bits as usize;
        let (word, shift) = (at / 64, at % 64);
        // The bits that spill into the next word, if any: past the last
        // word there is none.
        let high = self
            .words
            .get(word + 1)
            .map_or(0, |&next| spill(next, shift));
        (self.words[word] >> shift | high) & self.max_value()
    }

    #[inline]
    fn set(&mut self, i: usize, value: u64) {
        let mask = self.max_value();
        let at = i * self.bits as usize;
        let (word, shift) = (at / 64, at % 64);
        self.words[word] = self.words[word] & !(mask << shift) | value << shift;
        // The bits that spill into the next word: none unless the value
        // ends past this one.
        let carry = |bits: u64| (bits >> 1) >> (63 - shift);
        if let Some(next) = self.words.get_mut(word + 1) {
            *next = *next & !carry(mask) | carry(value);
        }
    }

    /// Appends `value`, growing the words by [`push_tight`].
    #[inline]
    fn push(&mut self, value: u64) {
        assert!(
            value <= self.max_value(),
            "a value fits the width its dictionary chose"
        );
        // Every bit past the last integer is zero, so the value is or-ed
        // in: its low bits into the last word, the rest into a new one.
        let shift = self.len * self.bits as usize % 64;
        self.len += 1;
        if shift == 0 {
            push_tight(&mut self.words, value);
            return;
        }
        *self.words.last_mut().expect("a partial word") |= value << shift;
        if shift + self.bits as usize > 64 {
            push_tight(&mut self.words, value >> (64 - shift));
        }
    }

    /// The integers front to back, read a word at a time.
    fn values(&self) -> Unpacked<'_> {
        Unpacked {
            words: self.words.iter(),
            buffer: 0,
            held: 0,
            bits: self.bits,
            left: self.len,
        }
    }

    /// Keeps the first `len` integers, capacity kept.
    fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(words_for(len, self.bits));
        let used = len * self.bits as usize % 64;
        if used != 0 {
            *self.words.last_mut().expect("a partial word") &= (1u64 << used) - 1;
        }
    }

    /// Drops the first `n` integers: every word moves down by `n · bits`
    /// bits, capacity kept.
    fn drain_front(&mut self, n: usize) {
        let at = n * self.bits as usize;
        let (skip, shift) = (at / 64, at % 64);
        self.len -= n;
        let keep = words_for(self.len, self.bits);
        for word in 0..keep {
            let high = (self.words.get(word + skip + 1)).map_or(0, |&next| spill(next, shift));
            self.words[word] = self.words[word + skip] >> shift | high;
        }
        self.words.truncate(keep);
    }

    /// The same integers at `bits` each, in an allocation of
    /// `capacity(words)` words, `words` being what they need.
    fn repack(&mut self, bits: u32, capacity: fn(usize) -> usize) {
        if bits != self.bits {
            *self = PackedInts::from_values(bits, self.values(), capacity);
        }
    }

    fn resident_bytes(&self) -> usize {
        capacity_bytes(&self.words)
    }
}

/// A [`PackedInts`] read front to back: each word is loaded once and its
/// bits handed out `bits` at a time.
struct Unpacked<'a> {
    words: std::slice::Iter<'a, u64>,
    /// The loaded bits not yet handed out, lowest first: `held` of them,
    /// zeros above.
    buffer: u64,
    held: u32,
    bits: u32,
    left: usize,
}

impl Unpacked<'_> {
    /// The next integer, there being one.
    #[inline]
    fn pop(&mut self) -> u64 {
        let (bits, held) = (self.bits, self.held);
        let mask = u64::MAX >> (64 - bits);
        if held >= bits {
            let value = self.buffer & mask;
            self.buffer = (self.buffer >> 1) >> (bits - 1);
            self.held -= bits;
            return value;
        }
        let word = *self.words.next().expect("a word for every 64 bits");
        let value = (self.buffer | word << held) & mask;
        // The word's bits above the `bits - held` just handed out.
        self.buffer = (word >> 1) >> (bits - held - 1);
        self.held += 64 - bits;
        value
    }
}

impl Iterator for Unpacked<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        Some(self.pop())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Unpacked<'_> {}

/// A dictionary-encoded issuer column: append-only columns and an
/// index-only hash table, every integer bit-packed at the width the
/// dictionary's contents need.
///
/// Each distinct issuer stores its [`ClientId`] once, in code order.
/// Each transaction stores one `first_seen` bit, set when it minted its
/// issuer, and only a transaction whose bit is clear stores its code:
/// codes are minted in order, so a minting transaction's code is the
/// number of mints before it. Client → code goes through an
/// open-addressing table that holds `code + 1` and no keys — a probe
/// compares against `clients[code]`. Ids are packed at the
/// ⌈log₂(max id + 1)⌉ bits the largest one needs, repeated codes at
/// ⌈log₂(d + 1)⌉ for a dictionary of `d` clients, and the `2^k` slots of
/// the index at `k` (a slot holds `code + 1` ≤ `d` < `2^k`; `k` is
/// ⌈log₂(d + 1)⌉ whenever the table is over half full, one more at most
/// otherwise): the mint of a wider id repacks the ids, the one that takes
/// `d` to a power of two the codes, a rebuild of the index its slots.
/// Every width is a function of the dictionary alone, however the column
/// was built, and no query can tell. So a first-seen issuer costs
/// ⌈log₂(max id + 1)⌉ + `k` / load bits and one more, with no allocation
/// of its own, and a repeat ⌈log₂(d + 1)⌉ + 1 bits: 6.8 B of
/// heap per feedback over 20 000 feedbacks from as many `hp-load` ids
/// (20-bit ids, 15-bit slots; 13.0 B with 64-bit ids). Nothing is counted
/// per issuer as feedback arrives (no online request reads it); the §4
/// readers recount: [`IssuerColumn::issuer_groups`] in one pass over the
/// codes and the outcome bits, [`IssuerColumn::frequency_order`] with a
/// two-pass counting sort. Every reader decodes the codes in one
/// sequential walk; there is no random access to a transaction's code.
#[derive(Debug, Clone, Default)]
pub struct IssuerColumn {
    /// One bit per transaction, least significant first, set when its
    /// code is the next implicit one: `base` plus the set bits before it.
    /// That is every transaction that minted its issuer.
    first_seen: Vec<u64>,
    /// The first implicit code: the mints a fold took away.
    base: u32,
    /// Set bits in `first_seen`.
    minted: u32,
    /// The codes of the transactions whose bit is clear, in order.
    repeats: PackedInts,
    /// Code → client id (dictionary decode). Codes are stable: never
    /// recycled, even when a fold leaves a client no live transaction.
    clients: PackedInts,
    /// Client → code: linear-probed slots of `code + 1` (0 = empty), a
    /// power of two long, at most 3/4 full. Slot order depends on the
    /// process's hash key and is never observable.
    index: PackedInts,
}

/// Home slot hash of a client. Ids arrive from the socket, so the hash is
/// SipHash under a key drawn once per process — the HashDoS resistance of
/// a default `HashMap` — and every index shares the key.
fn slot_hash(client: ClientId) -> usize {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new).hash_one(client) as usize
}

/// The smallest index for `clients` entries at load ≤ 3/4: a power of
/// two, and up to 256 slots a power of four. A short table grows fourfold,
/// so a short history rehashes each issuer about once where doubling
/// would rehash it one and a half times: a rehash reads packed ids and
/// slots, and a short table is a few hundred bytes.
fn slots_for(clients: usize) -> usize {
    if clients == 0 {
        return 0;
    }
    let slots = (clients * 4).div_ceil(3).next_power_of_two();
    if slots < 256 && slots.trailing_zeros() % 2 == 1 {
        slots * 2
    } else {
        slots
    }
}

/// The words to allocate for `words` of a growing column: a power of two
/// while short, as [`push_tight`] keeps short columns, so a short history
/// stays on the allocation sizes the allocator recycles between servers.
fn growing(words: usize) -> usize {
    if (1..1024).contains(&words) {
        words.next_power_of_two()
    } else {
        words
    }
}

/// The words to allocate for `words` of a rebuilt column: those.
fn exact(words: usize) -> usize {
    words
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
struct Codes<'a> {
    first_seen: &'a [u64],
    repeats: Unpacked<'a>,
    /// The code the next set bit stands for.
    next: u32,
    at: usize,
    len: usize,
}

impl Iterator for Codes<'_> {
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
            Some(self.repeats.pop() as u32)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.at;
        (left, Some(left))
    }
}

impl IssuerColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        IssuerColumn::default()
    }

    /// Number of transactions recorded.
    pub fn len(&self) -> usize {
        self.minted as usize + self.repeats.len()
    }

    /// Number of clients in the dictionary: every issuer the history has
    /// met, folded or live.
    pub fn dict_len(&self) -> usize {
        self.clients.len()
    }

    /// Whether no transactions are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-transaction dictionary codes in transaction order
    /// (snapshot payload), as the `u32`s the wire carries whatever width
    /// holds them.
    pub fn codes(&self) -> impl Iterator<Item = u32> + '_ {
        Codes {
            first_seen: &self.first_seen,
            repeats: self.repeats.values(),
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
            self.repeats.push(code.into());
        }
    }

    /// The client of dictionary code `code`.
    fn client(&self, code: usize) -> ClientId {
        ClientId::new(self.clients.get(code))
    }

    /// Looks `client` up in the index: its code, or the empty slot that
    /// ends its probe sequence (unused while no table is allocated).
    fn probe(&self, client: ClientId) -> Result<u32, usize> {
        if self.index.len() == 0 {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = slot_hash(client) & mask;
        loop {
            match self.index.get(slot) {
                0 => return Err(slot),
                tagged if self.client(tagged as usize - 1) == client => {
                    return Ok(tagged as u32 - 1)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the index over `clients`, taken to be distinct, in the
    /// slots [`slots_for`] asks for, allocated to the word. Each code goes
    /// to the first empty slot of its client's probe sequence, so no
    /// client is compared. A slot takes the bits of
    /// the slot count less one, above every `code + 1` the table holds
    /// before it next grows, so its width changes here and nowhere else:
    /// repacking the slots whenever `d` reached a power of two left a
    /// freed allocation per server behind, 3–4 MiB of RSS over the
    /// benchmark's 128 deep servers.
    fn reindex(&mut self) {
        let slots = slots_for(self.clients.len());
        let bits = bits_for(slots.saturating_sub(1) as u64);
        let mut index = PackedInts::zeroed(slots, bits);
        let mask = slots.wrapping_sub(1);
        for (code, id) in self.clients.values().enumerate() {
            let mut slot = slot_hash(ClientId::new(id)) & mask;
            while index.get(slot) != 0 {
                slot = (slot + 1) & mask;
            }
            index.set(slot, code as u64 + 1);
        }
        self.index = index;
    }

    /// Adds a first-seen `client`, whose probe ended at `slot`, to the
    /// dictionary and returns its code. Ids are repacked if `client` is
    /// wider than every id before it, codes if the dictionary reaches a
    /// power of two.
    fn mint(&mut self, client: ClientId, slot: usize) -> u32 {
        let entries = self.clients.len() + 1;
        assert!(entries < u32::MAX as usize, "issuer dictionary is full");
        let id = client.value();
        self.clients
            .repack(self.clients.bits.max(bits_for(id)), growing);
        self.clients.push(id);
        self.repeats.repack(bits_for(entries as u64), growing);
        if entries * 4 > self.index.len() * 3 {
            self.reindex();
        } else {
            self.index.set(slot, entries as u64);
        }
        entries as u32 - 1
    }

    /// Appends the issuer of the next transaction.
    pub fn push(&mut self, client: ClientId) {
        let code = match self.probe(client) {
            Ok(code) => code,
            Err(slot) => self.mint(client, slot),
        };
        self.append(code);
    }

    /// The issuer of each transaction, in transaction order.
    pub fn issuers(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.codes().map(|code| self.client(code as usize))
    }

    /// All issuers with at least one feedback, most frequent first, ties
    /// broken by ascending client id — the §4 ordering. `outcomes` holds
    /// one bit per transaction of this column.
    pub fn issuer_groups(&self, outcomes: &BitColumn) -> Vec<IssuerGroup> {
        self.issuer_groups_with(&[], outcomes)
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

    /// [`IssuerColumn::issuer_groups`] with `folded[code] = (good, total)`
    /// added to each issuer's live counts (codes past its end add nothing).
    pub(super) fn issuer_groups_with(
        &self,
        folded: &[(u32, u32)],
        outcomes: &BitColumn,
    ) -> Vec<IssuerGroup> {
        let mut tally = folded.to_vec();
        tally.resize(self.dict_len(), (0, 0));
        Self::tally(self.codes(), outcomes, &mut tally);
        let mut groups: Vec<IssuerGroup> = tally
            .iter()
            .zip(self.clients())
            .filter(|((_, total), _)| *total > 0)
            .map(|(&(good, total), client)| IssuerGroup {
                client,
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
        let mut next = vec![0u32; self.dict_len()];
        for code in self.codes() {
            next[code as usize] += 1;
        }
        // Each live code under a key that sorts it into place: its count
        // complemented, its client id, then the code itself.
        let mut live: Vec<u128> = (self.clients.values().zip(0u32..))
            .filter(|&(_, code)| next[code as usize] > 0)
            .map(|(id, code)| {
                let count = next[code as usize];
                u128::from(!count) << 96 | u128::from(id) << 32 | u128::from(code)
            })
            .collect();
        live.sort_unstable();
        let mut offset = 0;
        for key in live {
            let code = key as u32;
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

    /// The §4 issuer-frequency permutation: transaction indexes grouped by
    /// issuer, most frequent issuers first, transaction order preserved
    /// inside each group.
    pub fn frequency_order(&self) -> Vec<u32> {
        let mut order = vec![0u32; self.len()];
        self.scatter(|destination, idx| order[destination] = idx as u32);
        order
    }

    /// `outcomes` (one per transaction of this column) permuted into
    /// [`IssuerColumn::frequency_order`], scattered bit by bit without
    /// materializing the permutation.
    pub(super) fn reordered_outcomes(&self, outcomes: &BitColumn) -> BitColumn {
        let mut words = vec![0u64; self.len().div_ceil(64)];
        self.scatter(|destination, idx| {
            words[destination / 64] |= u64::from(outcomes.get(idx)) << (destination % 64);
        });
        BitColumn::from_words(words, self.len()).expect("one bit per transaction")
    }

    /// Heap bytes held by this column: every allocation at its capacity,
    /// index included.
    pub fn resident_bytes(&self) -> usize {
        capacity_bytes(&self.first_seen)
            + self.repeats.resident_bytes()
            + self.index.resident_bytes()
            + self.clients.resident_bytes()
    }

    /// The dictionary decode table in code order (snapshot payload), as
    /// the [`ClientId`]s the wire carries whatever width holds them;
    /// [`IssuerColumn::dict_len`] long.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.clients.values().map(ClientId::new)
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
        assert!(n.is_multiple_of(64), "a fold takes whole words, not {n}");
        folded.resize(self.dict_len(), (0, 0));
        Self::tally(self.codes().take(n), outcomes, folded);
        let words = n / 64;
        let minted: u32 = self.first_seen[..words]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        self.first_seen.drain(..words);
        self.repeats.drain_front(n - minted as usize);
        self.base += minted;
        self.minted -= minted;
        shrink_sparse(&mut self.first_seen);
        shrink_sparse(&mut self.repeats.words);
    }

    /// This column at the widths its dictionary's contents choose, index
    /// restored; `None` when the first implicit code or a code is out of
    /// dictionary range, a client repeats, or there is not one code per
    /// outcome.
    fn rebuilt(mut self, outcomes: &BitColumn) -> Option<Self> {
        let entries = self.dict_len();
        if self.base as usize > entries
            || self.len() != outcomes.len()
            || self.codes().any(|code| code as usize >= entries)
        {
            return None;
        }
        let widest = self.clients.values().max().unwrap_or(0);
        self.clients.repack(bits_for(widest), exact);
        self.repeats.repack(bits_for(entries as u64), exact);
        self.reindex();
        // A repeated client's probe finds its first code, not its own.
        let distinct = (self.clients.values().enumerate())
            .all(|(code, id)| self.probe(ClientId::new(id)) == Ok(code as u32));
        distinct.then_some(self)
    }

    /// Rebuilds a column from its dictionary and per-transaction codes,
    /// restoring the index. `base` is the number of issuers first seen
    /// before `codes` begins (in a folded-away prefix). The result yields
    /// exactly `codes` for any sequence and any `base`; for the parts of a
    /// column fed a client sequence one push at a time, with its `base`,
    /// it answers every query like that column and holds the same
    /// columns at the same widths, each allocated to the word.
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
        let entries = clients.len();
        if base as usize > entries {
            return None;
        }
        let widest = clients.iter().map(|client| client.value()).max();
        let mut column = IssuerColumn {
            base,
            repeats: PackedInts::new(bits_for(entries as u64)),
            clients: PackedInts::from_values(
                bits_for(widest.unwrap_or(0)),
                clients.iter().map(|client| client.value()),
                exact,
            ),
            ..IssuerColumn::default()
        };
        for code in codes {
            if code as usize >= entries {
                return None;
            }
            column.append(code);
        }
        column.first_seen.shrink_to_fit();
        column.repeats.words.shrink_to_fit();
        column.rebuilt(outcomes)
    }

    /// This column cut back to its first `len` transactions and first
    /// `dict_len` dictionary entries. Only the append-only primaries
    /// (`first_seen`, `repeats`, `clients`) are read, each cut in place,
    /// its capacity kept; [`IssuerColumn::from_parts`]'s checks hold them
    /// against `outcomes`, the widths are chosen again and the index is
    /// rebuilt. `None` when a primary is shorter than asked or the cut
    /// parts are inconsistent.
    pub(super) fn truncated(
        mut self,
        len: usize,
        dict_len: usize,
        outcomes: &BitColumn,
    ) -> Option<Self> {
        if self.len() < len || self.dict_len() < dict_len {
            return None;
        }
        self.first_seen.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            *self.first_seen.last_mut().expect("len > 0 implies a word") &=
                (1u64 << (len % 64)) - 1;
        }
        self.minted = self.first_seen.iter().map(|w| w.count_ones()).sum();
        self.repeats.truncate(len - self.minted as usize);
        self.clients.truncate(dict_len);
        self.rebuilt(outcomes)
    }

    /// Test seam: the dictionary half of a push with no code appended —
    /// mints `client` if it is new. What a panic inside
    /// [`IssuerColumn::push`] could leave.
    #[cfg(test)]
    pub(super) fn push_without_code(&mut self, client: ClientId) {
        if let Err(slot) = self.probe(client) {
            self.mint(client, slot);
        }
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

    /// The widths `column` is held at: (code bits, slot bits, id bits).
    fn widths(column: &IssuerColumn) -> (u32, u32, u32) {
        let (codes, slots, ids) = (&column.repeats, &column.index, &column.clients);
        (codes.bits, slots.bits, ids.bits)
    }

    /// `column` is held at the widths its dictionary's contents ask for —
    /// codes at the bits of its length, slots at the bits of the slot
    /// count less one, ids at the bits of its largest id — and its wire
    /// parts (`outcomes` beside them) rebuild to those widths, allocated
    /// to the word, answering alike.
    fn assert_widths_follow_contents(column: &IssuerColumn, outcomes: &BitColumn) {
        let clients: Vec<ClientId> = column.clients().collect();
        let slots = slots_for(clients.len());
        let widest = clients.iter().map(|c| c.value()).max().unwrap_or(0);
        assert_eq!(column.index.len(), slots);
        let slot_bits = bits_for(slots.saturating_sub(1) as u64);
        let code_bits = bits_for(clients.len() as u64);
        assert_eq!(widths(column), (code_bits, slot_bits, bits_for(widest)));
        let rebuilt =
            IssuerColumn::from_parts(clients, column.codes().collect(), column.base, outcomes)
                .expect("a column's own parts");
        assert_same_column(&rebuilt, column, outcomes);
    }

    /// `a` and `b` hold the same codes and clients at the same widths,
    /// weigh the same once a clone cuts each allocation to its length,
    /// and group alike.
    fn assert_same_column(a: &IssuerColumn, b: &IssuerColumn, outcomes: &BitColumn) {
        assert_eq!(widths(a), widths(b));
        assert_eq!(a.clone().resident_bytes(), b.clone().resident_bytes());
        assert!(a.codes().eq(b.codes()));
        assert!(a.clients().eq(b.clients()));
        assert_eq!(a.issuer_groups(outcomes), b.issuer_groups(outcomes));
    }

    #[test]
    fn id_bits_follow_the_largest_id() {
        let mut column = IssuerColumn::new();
        for client in [7, 9, 7, u64::from(u32::MAX)] {
            column.push(ClientId::new(client));
        }
        assert_eq!(widths(&column), (2, 2, 32), "three issuers, u32::MAX");
        column.push(ClientId::new(1 << 32));
        column.push(ClientId::new(3));
        assert_eq!(widths(&column), (3, 4, 33), "five issuers, 2^32");
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
        assert_eq!(widths(&cut), (2, 2, 32));
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
        let mut column = IssuerColumn::new();
        for i in 0..IDS as u64 {
            column.push(ClientId::new(i << 20));
        }
        assert_eq!(column.dict_len(), IDS);
        let mask = column.index.len() - 1;
        assert!(IDS * 4 <= column.index.len() * 3, "load above 3/4");
        // Total displacement from home slots = probes beyond the first,
        // summed over every issuer; linear probing at load ≤ 3/4 expects
        // about 1.5 per entry.
        let displaced: usize = (0..column.index.len())
            .filter(|&slot| column.index.get(slot) != 0)
            .map(|slot| {
                let client = column.client(column.index.get(slot) as usize - 1);
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
    #[test]
    fn a_dictionary_holding_only_id_0_packs_ids_and_codes_at_one_bit() {
        let mut column = IssuerColumn::new();
        let live: Vec<(u64, bool)> = (0..130).map(|t| (0, t % 3 == 0)).collect();
        for &(client, _) in &live {
            column.push(ClientId::new(client));
        }
        assert_eq!(widths(&column), (1, 2, 1));
        assert!(column.clients().eq([ClientId::new(0)]));
        assert!(column.codes().all(|code| code == 0));
        // One word of ids, one of slots (four of them), three of 129 repeats.
        assert_eq!(column.clone().resident_bytes(), 3 * 8 + 8 + 8 + 3 * 8);
        assert_matches_postings(&column, &live);
        assert_widths_follow_contents(&column, &bits(&live));
        let cut = column
            .truncated(0, 0, &BitColumn::new())
            .expect("the empty mark");
        assert_eq!(widths(&cut), (1, 1, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Packed integers answer like a `Vec<u64>` through pushes, sets,
        /// truncations, front drains and repacks, at every width.
        #[test]
        fn packed_ints_hold_what_a_vec_holds(
            bits in 1u32..=64,
            ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<usize>()), 0..200),
        ) {
            let mut packed = PackedInts::new(bits);
            let mut oracle: Vec<u64> = Vec::new();
            for (op, value, at) in ops {
                let value = value & packed.max_value();
                match op {
                    0 | 1 => {
                        packed.push(value);
                        oracle.push(value);
                    }
                    2 if !oracle.is_empty() => {
                        let at = at % oracle.len();
                        packed.set(at, value);
                        oracle[at] = value;
                    }
                    3 => {
                        let len = at % (oracle.len() + 1);
                        packed.truncate(len);
                        oracle.truncate(len);
                    }
                    4 => {
                        let n = at % (oracle.len() + 1);
                        packed.drain_front(n);
                        oracle.drain(..n);
                    }
                    _ => {
                        let widest = oracle.iter().copied().max().unwrap_or(0);
                        let bits = bits_for(widest).max((at % 65) as u32);
                        packed.repack(bits, growing);
                    }
                }
                prop_assert_eq!(packed.len(), oracle.len());
                prop_assert_eq!(packed.words.len(), words_for(oracle.len(), packed.bits));
                prop_assert!(packed.values().eq(oracle.iter().copied()));
                let used = oracle.len() * packed.bits as usize % 64;
                if used != 0 {
                    prop_assert_eq!(packed.words.last().map(|w| w >> used), Some(0));
                }
            }
        }

        /// Widths follow the dictionary's contents on either side of every
        /// edge: ids around 0, 1, 2^k − 1, 2^k, `u32::MAX`, `u32::MAX + 1`
        /// and `u64::MAX`, dictionaries that cross 2^k entries. The pushed
        /// column, its parts rebuilt (after a fold, with its `base`) and a
        /// column cut back to a mark against one that never saw the tail:
        /// equal widths, heap, codes, clients and groups.
        #[test]
        fn widths_follow_contents_at_the_edges(
            raw in proptest::collection::vec((0u8..8, 0u32..64, 0u64..40, any::<bool>()), 0..400),
            cut in any::<usize>(),
            fold in 0usize..4,
        ) {
            let stream: Vec<(u64, bool)> = raw
                .iter()
                .enumerate()
                .map(|(t, &(kind, k, small, good))| {
                    let id = match kind {
                        0 => small,
                        1 => (1u64 << k) - 1,
                        2 => 1u64 << k,
                        3 => u64::from(u32::MAX) - small,
                        4 => u64::from(u32::MAX) + 1 + small,
                        5 => u64::MAX - small,
                        _ => 1000 + t as u64,
                    };
                    (id, good)
                })
                .collect();
            let pushed = |stream: &[(u64, bool)]| {
                let mut column = IssuerColumn::new();
                for &(client, _) in stream {
                    column.push(ClientId::new(client));
                }
                column
            };
            let mut column = pushed(&stream);
            assert_matches_postings(&column, &stream);
            assert_widths_follow_contents(&column, &bits(&stream));

            let cut = cut % (stream.len() + 1);
            let never = pushed(&stream[..cut]);
            let head = bits(&stream[..cut]);
            let truncated = column
                .clone()
                .truncated(cut, never.dict_len(), &head)
                .expect("a mark of this column");
            assert_same_column(&truncated, &never, &head);
            assert_widths_follow_contents(&truncated, &head);

            let fold = (fold * 64).min(column.len() / 64 * 64);
            column.fold_prefix(fold, &bits(&stream), &mut Vec::new());
            prop_assert_eq!(column.base as usize, pushed(&stream[..fold]).dict_len());
            assert_widths_follow_contents(&column, &bits(&stream[fold..]));
        }
    }
}
