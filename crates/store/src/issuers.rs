//! The issuer column of [`crate::HistoryEngine`]: who issued each
//! feedback, dictionary-encoded and bit-packed.
//!
//! The online service's histories keep outcomes only (no request of it
//! reads an issuer), so this is the one place in the workspace that
//! encodes issuers: the engine keeps it beside an outcome
//! [`hp_core::history::BitColumn`] and a time column of its own, and reads
//! it back when it materializes a server's rows. The cost model, for a
//! dictionary of `d` clients whose largest id is `max id`: per
//! transaction 1 first-seen bit, and a ⌈log₂(d + 1)⌉-bit code only when
//! the issuer repeats (a transaction that mints its issuer has the next
//! code, implicitly); per distinct issuer ⌈log₂(max id + 1)⌉ bits of id +
//! `k` / load bits of index, `2^k` slots at load 3/8–3/4 (from 3/16 up to
//! 256 slots; `k` is ⌈log₂(d + 1)⌉ when the table is over half full).
//! Every width is a function of the dictionary's contents alone. Long
//! columns grow by a quarter, so with the two-bit outcome column beside
//! it measured heap is 1.4 B/feedback for a 10 000-feedback server with
//! 24 issuers and 6.8 B/feedback when all 20 000 issuers are distinct,
//! with the 20-bit ids `hp-load` sends (13.0 B with 64-bit ids; see
//! `tests/resident_accounting.rs`).

use hp_core::ClientId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

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

    /// `values` at `bits` each, in an allocation of [`growing`] words.
    fn from_values(bits: u32, values: impl ExactSizeIterator<Item = u64>) -> Self {
        let len = values.len();
        let mut words = Vec::with_capacity(growing(words_for(len, bits)));
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
        // word there is none. `next`, moved to sit above the word's
        // `64 − shift` bits (nothing when `shift` is 0).
        let high = self
            .words
            .get(word + 1)
            .map_or(0, |&next| (next << 1) << (63 - shift));
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

    /// The same integers at `bits` each.
    fn repack(&mut self, bits: u32) {
        if bits != self.bits {
            *self = PackedInts::from_values(bits, self.values());
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
/// So a first-seen issuer costs ⌈log₂(max id + 1)⌉ + `k` / load bits and
/// one more, with no allocation of its own, and a repeat ⌈log₂(d + 1)⌉ +
/// 1 bits. Nothing is counted per issuer; the one reader,
/// [`IssuerColumn::issuers`], decodes the codes in one sequential walk.
///
/// # Examples
///
/// ```
/// use hp_core::ClientId;
/// use hp_store::IssuerColumn;
///
/// let mut column = IssuerColumn::new();
/// for id in [7, 9, 7] {
///     column.push(ClientId::new(id));
/// }
/// assert!(column.issuers().eq([7, 9, 7].map(ClientId::new)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IssuerColumn {
    /// One bit per transaction, least significant first, set when its
    /// code is the next implicit one: the set bits before it. That is
    /// every transaction that minted its issuer.
    first_seen: Vec<u64>,
    /// Set bits in `first_seen`.
    minted: u32,
    /// The codes of the transactions whose bit is clear, in order.
    repeats: PackedInts,
    /// Code → client id (dictionary decode).
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

/// The words to allocate for `words` of a repacked column: a power of two
/// while short, as [`push_tight`] keeps short columns, so a short history
/// stays on the allocation sizes the allocator recycles between servers.
fn growing(words: usize) -> usize {
    if (1..1024).contains(&words) {
        words.next_power_of_two()
    } else {
        words
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
    fn len(&self) -> usize {
        self.minted as usize + self.repeats.len()
    }

    /// The per-transaction dictionary codes in transaction order.
    fn codes(&self) -> Codes<'_> {
        Codes {
            first_seen: &self.first_seen,
            repeats: self.repeats.values(),
            next: 0,
            at: 0,
            len: self.len(),
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

    /// Rebuilds the index over the dictionary in the slots [`slots_for`]
    /// asks for, allocated to the word. Each code goes to the first empty
    /// slot of its client's probe sequence, so no client is compared. A
    /// slot takes the bits of the slot count less one, above every
    /// `code + 1` the table holds before it next grows, so its width
    /// changes here and nowhere else: repacking the slots whenever `d`
    /// reached a power of two left a freed allocation per server behind,
    /// 3–4 MiB of RSS over the benchmark's 128 deep servers.
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
        self.clients.repack(self.clients.bits.max(bits_for(id)));
        self.clients.push(id);
        self.repeats.repack(bits_for(entries as u64));
        if entries * 4 > self.index.len() * 3 {
            self.reindex();
        } else {
            self.index.set(slot, entries as u64);
        }
        entries as u32 - 1
    }

    /// Appends the issuer of the next transaction: a set `first_seen` bit
    /// if it mints its code, a clear bit and the code as a repeat
    /// otherwise.
    pub fn push(&mut self, client: ClientId) {
        let at = self.len();
        if self.first_seen.len() <= at / 64 {
            push_tight(&mut self.first_seen, 0);
        }
        match self.probe(client) {
            Ok(code) => self.repeats.push(code.into()),
            Err(slot) => {
                self.mint(client, slot);
                self.first_seen[at / 64] |= 1 << (at % 64);
                self.minted += 1;
            }
        }
    }

    /// The issuer of each transaction, in transaction order.
    pub fn issuers(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.codes().map(|code| self.client(code as usize))
    }

    /// Heap bytes held by this column: every allocation at its capacity,
    /// index included.
    pub fn resident_bytes(&self) -> usize {
        capacity_bytes(&self.first_seen)
            + self.repeats.resident_bytes()
            + self.index.resident_bytes()
            + self.clients.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The widths `column` is held at: (code bits, slot bits, id bits).
    fn widths(column: &IssuerColumn) -> (u32, u32, u32) {
        let (codes, slots, ids) = (&column.repeats, &column.index, &column.clients);
        (codes.bits, slots.bits, ids.bits)
    }

    fn pushed(stream: &[u64]) -> IssuerColumn {
        let mut column = IssuerColumn::new();
        for &client in stream {
            column.push(ClientId::new(client));
        }
        column
    }

    /// `column` hands back `stream`, its dictionary is the stream's
    /// distinct ids in first-seen order, every one of them probes to its
    /// code, and it is held at the widths those contents ask for — codes
    /// at the bits of the dictionary's length, slots at the bits of the
    /// slot count less one, ids at the bits of the largest id.
    fn assert_holds(column: &IssuerColumn, stream: &[u64]) {
        assert_eq!(column.len(), stream.len());
        assert!(column
            .issuers()
            .eq(stream.iter().map(|&c| ClientId::new(c))));
        let mut seen = HashSet::new();
        let dict: Vec<u64> = stream.iter().copied().filter(|&c| seen.insert(c)).collect();
        assert!(column.clients.values().eq(dict.iter().copied()));
        for (code, &id) in dict.iter().enumerate() {
            assert_eq!(column.probe(ClientId::new(id)), Ok(code as u32));
        }
        let slots = slots_for(dict.len());
        assert_eq!(column.index.len(), slots);
        let widest = dict.iter().copied().max().unwrap_or(0);
        let expected = (
            bits_for(dict.len() as u64),
            bits_for(slots.saturating_sub(1) as u64),
            bits_for(widest),
        );
        // An empty column has packed nothing yet.
        if !dict.is_empty() {
            assert_eq!(widths(column), expected);
        }
    }

    #[test]
    fn id_bits_follow_the_largest_id() {
        let mut column = pushed(&[7, 9, 7, u64::from(u32::MAX)]);
        assert_eq!(widths(&column), (2, 2, 32), "three issuers, u32::MAX");
        column.push(ClientId::new(1 << 32));
        column.push(ClientId::new(3));
        assert_eq!(widths(&column), (3, 4, 33), "five issuers, 2^32");
        assert_holds(&column, &[7, 9, 7, u64::from(u32::MAX), 1 << 32, 3]);
    }

    #[test]
    fn ids_sharing_their_low_bits_do_not_cluster_in_the_index() {
        // 10 000 ids that differ only above bit 20: an index hashing by
        // low bits would put them all in one probe run (quadratic pushes).
        const IDS: usize = 10_000;
        let column = pushed(&(0..IDS as u64).map(|i| i << 20).collect::<Vec<_>>());
        assert_eq!(column.clients.len(), IDS);
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
        let stream = [0u64; 130];
        let column = pushed(&stream);
        assert_eq!(widths(&column), (1, 2, 1));
        assert!(column.codes().all(|code| code == 0));
        // One word of ids, one of slots (four of them), three of 129
        // repeats, three of first-seen bits.
        assert_eq!(column.clone().resident_bytes(), 3 * 8 + 8 + 8 + 3 * 8);
        assert_holds(&column, &stream);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Packed integers answer like a `Vec<u64>` through pushes, sets
        /// and repacks, at every width.
        #[test]
        fn packed_ints_hold_what_a_vec_holds(
            bits in 1u32..=64,
            ops in proptest::collection::vec((0u8..4, any::<u64>(), any::<usize>()), 0..200),
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
                    _ => {
                        let widest = oracle.iter().copied().max().unwrap_or(0);
                        packed.repack(bits_for(widest).max((at % 65) as u32));
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
        /// edge — ids around 0, 1, 2^k − 1, 2^k, `u32::MAX`,
        /// `u32::MAX + 1` and `u64::MAX`, dictionaries that cross 2^k
        /// entries — and every issuer comes back as pushed.
        #[test]
        fn widths_follow_contents_at_the_edges(
            raw in proptest::collection::vec((0u8..8, 0u32..64, 0u64..40), 0..400),
        ) {
            let stream: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(t, &(kind, k, small))| match kind {
                    0 => small,
                    1 => (1u64 << k) - 1,
                    2 => 1u64 << k,
                    3 => u64::from(u32::MAX) - small,
                    4 => u64::from(u32::MAX) + 1 + small,
                    5 => u64::MAX - small,
                    _ => 1000 + t as u64,
                })
                .collect();
            for upto in [stream.len() / 3, stream.len()] {
                assert_holds(&pushed(&stream[..upto]), &stream[..upto]);
            }
        }
    }
}
