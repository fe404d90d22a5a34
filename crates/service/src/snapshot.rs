//! Crash-safe per-shard snapshots: bounded-time recovery.
//!
//! A snapshot is a serialized image of one shard's `ServerState` map —
//! the tiered outcome columns (folded counts + full-resolution suffixes)
//! and the streaming trust states — stamped with the journal offset it
//! covers. Spilled servers are captured *by reference*: the snapshot
//! stores the cold-segment coordinates plus vital statistics instead of
//! re-reading megabytes of cold payload at checkpoint time. Boot
//! recovery becomes *newest valid snapshot + journal tail replay* instead
//! of a full journal re-fold: O(tail) instead of O(history).
//!
//! # On-disk layout
//!
//! Each shard owns, inside the durability directory, one snapshot file
//! per retained checkpoint, `shard-<i>-<seq:016x>.hps`, published through
//! [`durable::publish`]; newest `seq` wins. The files found by name are
//! the only index: the journal offset a snapshot covers and the lowest
//! cold-segment sequence it references are known for the snapshots this
//! process wrote or loaded, and unknown for the others until they are
//! read (the offset inside the file is CRC-protected, the name is not).
//! A `shard-<i>.manifest` an older build left is deleted on open.
//!
//! The header, the sealed body, the name scan, the bounded reader and
//! the error are [`hp_store::durable`]'s.
//!
//! # Snapshot file format (version 2)
//!
//! ```text
//! magic "HPSS" | version u32 | shard u32 | shards u32 | seq u64
//! | journal_records u64 | server_count u64
//! per server (ascending id):
//!   server u64 | trust tag u8
//!   tag 0 (average):  good u64 | total u64
//!   tag 1 (weighted): lambda bits u64 | r bits u64 | count u64
//!   residency tag u8
//!   tag 0 (hot):     payload_len u64 | TieredHistory::encode payload
//!   tag 1 (spilled): len u64 | version u64 | bytes u64
//!                    | seg seq u64 | seg offset u64 | seg len u32 | seg crc u32
//! trailer: crc32 (u32 LE) over everything before it
//! ```
//!
//! All integers little-endian; floats serialized via `to_bits`, so a
//! round-trip is bit-exact and recovered verdicts are bit-identical to
//! a full replay. Version-1 files (untiered histories) are rejected as
//! an unknown version and recovery falls down the chain to journal
//! replay — an upgrade costs one full re-fold, never a misread.
//!
//! A hot payload is written in the outcome-only layout
//! (`TieredHistory::encode`, first byte 2). One written before the
//! issuers left the history — first byte 0 or 1, issuer sections between
//! the header and the outcome words — still loads: the sections are
//! bounds-checked and skipped, and their folded counts must still sum to
//! the header's. The file version does not move, because a directory
//! written by that build must boot through its snapshots: its journal is
//! compacted behind them, so a fallback to replay would fail the shard.
//! The same holds for the payloads its cold segments hold.
//!
//! # Cold-segment garbage collection
//!
//! Each snapshot references a minimum segment sequence (`u64::MAX` when
//! it references none). [`SnapshotStore::segment_floor`] is the minimum
//! over *all* retained snapshots, so segments below it are unreachable
//! from every retained recovery candidate — the journal-replay fallback
//! rebuilds hot states and needs no segments at all — and can be deleted
//! at checkpoint time. While a retained snapshot's minimum is unknown
//! (after a restart, the ones not loaded) there is no floor; the first
//! checkpoint rotates such a snapshot out.
//!
//! # Fallback chain
//!
//! Loading validates the magic, version, shard identity, sequence
//! number, trust-model fingerprint, per-server internal consistency and
//! the whole-file CRC. Any mismatch rejects the candidate and recovery
//! falls back: next retained snapshot → full journal replay. The journal
//! is compacted only up to the *oldest* retained snapshot's offset, so
//! every retained candidate can still replay its tail, and only when at
//! least two retained snapshots exist — corrupting the newest always
//! leaves a recovery path.

use crate::config::TrustModel;
use crate::state::{Residency, ServerState, SpilledMeta, TrustState};
use hp_core::trust::incremental::{AverageTrustState, IncrementalTrust, WeightedTrustState};
use hp_core::{ServerId, TieredHistory};
use hp_store::durable::{self, publish, Error, Put, Reader};
use hp_store::SegmentRef;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: [u8; 4] = *b"HPSS";
const VERSION: u32 = 2;
const HEADER_LEN: usize = 40;
/// The fewest bytes a server record takes: id, trust tag, the smaller
/// trust state, residency tag and a payload length.
const MIN_SERVER_LEN: usize = 8 + 1 + 16 + 1 + 8;
const TRUST_AVERAGE: u8 = 0;
const TRUST_WEIGHTED: u8 = 1;
const RESIDENCY_HOT: u8 = 0;
const RESIDENCY_SPILLED: u8 = 1;
/// `min_seg` sentinel: the snapshot references no cold segments, so
/// every sealed segment is below its floor.
const NO_SEGMENTS: u64 = u64::MAX;
/// Snapshots kept per shard, newest first; older files are deleted after
/// each checkpoint. Two, so that compaction (up to the older one's
/// offset) always leaves a corrupted newest snapshot a fallback whose
/// journal tail still exists.
const RETAIN: usize = 2;

/// One retained snapshot the store knows about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotEntry {
    /// Monotone checkpoint sequence number (newest wins).
    pub seq: u64,
    /// Absolute journal record count the snapshot covers: `Some` once
    /// this process wrote or loaded the file, `None` while it is only
    /// known by name (the offset inside the file is CRC-protected, the
    /// name is not).
    pub journal_records: Option<u64>,
    /// Lowest cold-segment sequence the snapshot references
    /// ([`NO_SEGMENTS`] when it references none), known when
    /// `journal_records` is. An unknown one disables segment garbage
    /// collection until the entry rotates out of retention.
    pub min_seg: Option<u64>,
}

/// A successfully decoded snapshot.
#[derive(Debug)]
pub(crate) struct LoadedSnapshot {
    /// The reconstructed per-server states.
    pub states: HashMap<ServerId, ServerState>,
    /// Absolute journal record count the image covers; replay resumes
    /// from here.
    pub journal_records: u64,
    /// The snapshot's sequence number.
    pub seq: u64,
    /// Lowest cold-segment sequence a spilled server references
    /// ([`NO_SEGMENTS`] when none does).
    pub min_seg: u64,
}

/// Per-shard snapshot directory manager.
///
/// Indexes the shard's snapshot files by name and keeps `RETAIN` of them;
/// `write` is the only entry point that adds or deletes a file.
#[derive(Debug)]
pub(crate) struct SnapshotStore {
    dir: PathBuf,
    shard: u32,
    shards: u32,
    /// Known snapshots, newest (highest `seq`) first.
    entries: Vec<SnapshotEntry>,
    next_seq: u64,
}

impl SnapshotStore {
    /// Opens (creating the directory if needed) and indexes the shard's
    /// snapshots by a scan for `shard-<i>-*.hps`, newest first, their
    /// offsets unknown until loaded. The temps a crash left of them are
    /// deleted, and so are a manifest an older build kept beside them and
    /// its temp.
    pub fn open(dir: &Path, shard: u32, shards: u32) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let manifest = dir.join(format!("shard-{shard}.manifest"));
        durable::remove([durable::temp_path(&manifest), manifest])?;
        let mut entries: Vec<SnapshotEntry> =
            durable::scan_numbered(dir, &format!("shard-{shard}-"), ".hps")?
                .into_iter()
                .map(|(seq, _)| SnapshotEntry {
                    seq,
                    journal_records: None,
                    min_seg: None,
                })
                .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.seq));
        let next_seq = entries.first().map_or(0, |e| e.seq + 1);
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            shard,
            shards,
            entries,
            next_seq,
        })
    }

    /// The highest journal offset a known snapshot covers: the newest one
    /// written, or after a snapshot boot the one loaded.
    pub fn newest_offset(&self) -> Option<u64> {
        self.entries.iter().filter_map(|e| e.journal_records).max()
    }

    /// Candidate snapshots to try at recovery, newest first.
    pub fn candidates(&self) -> Vec<SnapshotEntry> {
        self.entries.clone()
    }

    /// The journal offset below which compaction is safe: the oldest
    /// retained snapshot's offset, and only when at least two retained
    /// snapshots with known offsets exist (so corrupting the newest
    /// still leaves snapshot + tail recovery, never a truncated-journal
    /// dead end).
    pub fn compact_floor(&self) -> Option<u64> {
        if self.entries.len() < 2 || self.entries.iter().any(|e| e.journal_records.is_none()) {
            return None;
        }
        self.entries.iter().filter_map(|e| e.journal_records).min()
    }

    /// The cold-segment sequence below which deletion is safe: the
    /// minimum `min_seg` across *all* retained snapshots. Every retained
    /// recovery candidate keeps its spilled references reachable
    /// (journal replay needs none), and the newest snapshot — written
    /// moments before this is consulted — covers every currently-live
    /// reference. `None` (no GC) until every retained entry's `min_seg`
    /// is known; an entry not loaded blocks GC until it rotates out.
    pub fn segment_floor(&self) -> Option<u64> {
        if self.entries.is_empty() || self.entries.iter().any(|e| e.min_seg.is_none()) {
            return None;
        }
        self.entries.iter().filter_map(|e| e.min_seg).min()
    }

    /// Serializes `states` covering the journal up to `journal_records`
    /// and makes it durable: publish the snapshot, then delete what
    /// retention dropped. Returns the snapshot's size in bytes.
    pub fn write(
        &mut self,
        states: &HashMap<ServerId, ServerState>,
        journal_records: u64,
    ) -> Result<u64, Error> {
        let seq = self.next_seq;
        let (bytes, min_seg) = encode(self.shard, self.shards, seq, journal_records, states);
        publish(&self.path(seq), |file| file.write_all(&bytes))?;
        self.next_seq = seq + 1;
        self.entries.insert(
            0,
            SnapshotEntry {
                seq,
                journal_records: Some(journal_records),
                min_seg: Some(min_seg),
            },
        );
        let evicted = self.entries.split_off(RETAIN.min(self.entries.len()));
        let _ = durable::remove(evicted.iter().map(|e| self.path(e.seq)));
        Ok(bytes.len() as u64)
    }

    /// Reads and fully validates one candidate, and records the offset
    /// and `min_seg` it carries in its entry. Any failed check returns
    /// [`Error::Corrupt`] (or `Io` when the file is unreadable) so the
    /// caller can fall down the chain.
    pub fn load(
        &mut self,
        entry: &SnapshotEntry,
        model: TrustModel,
    ) -> Result<LoadedSnapshot, Error> {
        let path = self.path(entry.seq);
        let loaded = decode(&fs::read(&path)?, &path, self.shard, self.shards, model)?;
        if loaded.seq != entry.seq {
            return Err(Error::corrupt(
                &path,
                16,
                "sequence number does not match its name",
            ));
        }
        if let Some(known) = self.entries.iter_mut().find(|e| e.seq == entry.seq) {
            known.journal_records = Some(loaded.journal_records);
            known.min_seg = Some(loaded.min_seg);
        }
        Ok(loaded)
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(snapshot_file_name(self.shard, seq))
    }
}

fn snapshot_file_name(shard: u32, seq: u64) -> String {
    durable::numbered(&format!("shard-{shard}-"), seq, ".hps")
}

/// Serializes the full state map. Servers are emitted in ascending id
/// order so identical states produce identical bytes. Returns the bytes
/// plus the lowest cold-segment sequence any spilled server references
/// ([`NO_SEGMENTS`] when none do) — the store keeps it in the snapshot's
/// entry to drive segment garbage collection.
fn encode(
    shard: u32,
    shards: u32,
    seq: u64,
    journal_records: u64,
    states: &HashMap<ServerId, ServerState>,
) -> (Vec<u8>, u64) {
    let mut servers: Vec<(&ServerId, &ServerState)> = states.iter().collect();
    servers.sort_by_key(|(id, _)| id.value());
    // Exact-size reservation (25 covers the larger trust encoding, 42 the
    // tiered payload's fixed fields): megabyte-scale bodies must not grow
    // through repeated reallocation.
    let cap = HEADER_LEN
        + 4
        + servers
            .iter()
            .map(|(_, state)| {
                8 + 25
                    + 1
                    + match state.residency() {
                        Residency::Hot(history) => 8 + 42 + history.suffix_len().div_ceil(64) * 8,
                        Residency::Spilled { .. } => 24 + 24,
                    }
            })
            .sum::<usize>();
    let mut out = Vec::with_capacity(cap);
    let mut min_seg = NO_SEGMENTS;
    out.put_header(&MAGIC, VERSION, shard);
    out.put_u32(shards);
    out.put_u64(seq);
    out.put_u64(journal_records);
    out.put_u64(servers.len() as u64);
    for (id, state) in servers {
        out.put_u64(id.value());
        match state.trust() {
            TrustState::Average(s) => {
                let (good, total) = s.raw_parts();
                out.push(TRUST_AVERAGE);
                out.put_u64(good);
                out.put_u64(total);
            }
            TrustState::Weighted(s) => {
                let (lambda, r, count) = s.raw_parts();
                out.push(TRUST_WEIGHTED);
                out.put_u64(lambda.to_bits());
                out.put_u64(r.to_bits());
                out.put_u64(count);
            }
        }
        match state.residency() {
            Residency::Hot(history) => {
                out.push(RESIDENCY_HOT);
                let payload = history.encode();
                out.put_u64(payload.len() as u64);
                out.extend_from_slice(&payload);
            }
            Residency::Spilled { meta, segment } => {
                out.push(RESIDENCY_SPILLED);
                for v in [
                    meta.len,
                    meta.version,
                    meta.bytes,
                    segment.seq,
                    segment.offset,
                ] {
                    out.put_u64(v);
                }
                out.put_u32(segment.len);
                out.put_u32(segment.crc);
                min_seg = min_seg.min(segment.seq);
            }
        }
    }
    out.seal();
    (out, min_seg)
}

/// Decodes and validates a snapshot image. The trailer CRC covers the
/// whole body, every read and count is bounded by the bytes left, server
/// ids must ascend (as `encode` writes them), and each server's trust state must be internally consistent with its
/// history (same transaction count; for a hot average-model server, the
/// same good count) and with the configured trust model — a snapshot
/// taken under a different model is rejected, not misread. Spilled
/// references are validated structurally here; whether the segment bytes
/// they name still exist and decode is checked by the recovery path
/// before the candidate is accepted (`validate_spilled_refs`), since that
/// requires the cold store.
fn decode(
    data: &[u8],
    path: &Path,
    shard: u32,
    shards: u32,
    model: TrustModel,
) -> Result<LoadedSnapshot, Error> {
    let mut r = Reader::sealed(path, data)?;
    r.header(&MAGIC, &[VERSION], Some(shard))?;
    if r.u32("truncated header")? != shards {
        return Err(r.corrupt("snapshot belongs to a different shard"));
    }
    let seq = r.u64("truncated header")?;
    let journal_records = r.u64("truncated header")?;
    let server_count = r.count(MIN_SERVER_LEN, "server count past the end of the file")?;
    let mut states = HashMap::with_capacity(server_count);
    let mut min_seg = NO_SEGMENTS;
    let mut last = None;
    for _ in 0..server_count {
        let id = r.u64("truncated server")?;
        if last >= Some(id) {
            return Err(r.corrupt("server ids not ascending"));
        }
        last = Some(id);
        let server = ServerId::new(id);
        let trust = decode_trust(&mut r, model)?;
        let (len, version, residency) = match r.u8("truncated server")? {
            RESIDENCY_HOT => {
                const PAYLOAD: &str = "truncated history payload";
                let len = r.u64(PAYLOAD)?;
                let payload = r.take(usize::try_from(len).unwrap_or(usize::MAX), PAYLOAD)?;
                // `TieredHistory::decode` revalidates every structural
                // invariant (word alignment, the folded counts, bit
                // padding) of either payload layout; only the cross-checks
                // against the record's identity and trust state remain
                // ours.
                let history = TieredHistory::decode(payload)
                    .ok_or_else(|| r.corrupt("inconsistent tiered history"))?;
                if !history.is_empty() && history.server() != Some(server) {
                    return Err(r.corrupt("history belongs to a different server"));
                }
                if matches!(&trust, TrustState::Average(s) if s.raw_parts().0 != history.good_count())
                {
                    return Err(r.corrupt("trust state disagrees with good count"));
                }
                (
                    history.len() as u64,
                    history.version(),
                    Residency::Hot(history),
                )
            }
            RESIDENCY_SPILLED => {
                const META: &str = "truncated spill metadata";
                let meta = SpilledMeta {
                    len: r.u64(META)?,
                    version: r.u64(META)?,
                    bytes: r.u64(META)?,
                };
                let segment = SegmentRef {
                    seq: r.u64(META)?,
                    offset: r.u64(META)?,
                    len: r.u32(META)?,
                    crc: r.u32(META)?,
                };
                if meta.bytes != u64::from(segment.len) {
                    return Err(r.corrupt("spill size disagrees with its segment ref"));
                }
                min_seg = min_seg.min(segment.seq);
                (meta.len, meta.version, Residency::Spilled { meta, segment })
            }
            _ => return Err(r.corrupt("unknown residency tag")),
        };
        let transactions = match &trust {
            TrustState::Average(s) => s.transactions(),
            TrustState::Weighted(s) => s.transactions(),
        };
        if transactions != len {
            return Err(r.corrupt("trust state disagrees with history length"));
        }
        if version != len {
            return Err(r.corrupt("history version disagrees with its length"));
        }
        states.insert(server, ServerState::from_snapshot(residency, trust));
    }
    if r.remaining() != 0 {
        return Err(r.corrupt("trailing bytes after last server"));
    }
    Ok(LoadedSnapshot {
        states,
        journal_records,
        seq,
        min_seg,
    })
}

fn decode_trust(r: &mut Reader<'_>, model: TrustModel) -> Result<TrustState, Error> {
    const TRUST: &str = "truncated trust state";
    match r.u8(TRUST)? {
        TRUST_AVERAGE => {
            if !matches!(model, TrustModel::Average) {
                return Err(r.corrupt("trust model mismatch"));
            }
            let (good, total) = (r.u64(TRUST)?, r.u64(TRUST)?);
            AverageTrustState::from_raw_parts(good, total)
                .map(TrustState::Average)
                .ok_or_else(|| r.corrupt("invalid average trust counters"))
        }
        TRUST_WEIGHTED => {
            let (lambda_bits, r_bits, count) = (r.u64(TRUST)?, r.u64(TRUST)?, r.u64(TRUST)?);
            let matches_model = matches!(
                model,
                TrustModel::Weighted { lambda } if lambda.to_bits() == lambda_bits
            );
            if !matches_model {
                return Err(r.corrupt("trust model mismatch"));
            }
            WeightedTrustState::from_raw_parts(
                f64::from_bits(lambda_bits),
                f64::from_bits(r_bits),
                count,
            )
            .map(TrustState::Weighted)
            .map_err(|_| r.corrupt("invalid weighted trust state"))
        }
        _ => Err(r.corrupt("unknown trust tag")),
    }
}

/// Live recovery progress, shared between the booting service and
/// whoever reports health (the edge's `/healthz` WARMING body).
///
/// All counters are monotone within one boot; readers may observe
/// mid-update combinations, which is fine for progress reporting.
#[derive(Debug, Default)]
pub struct BootProgress {
    journal_records: AtomicU64,
    replayed_records: AtomicU64,
    snapshots_loaded: AtomicU64,
    shards_total: AtomicU64,
    shards_ready: AtomicU64,
}

/// A point-in-time copy of [`BootProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootStatus {
    /// Total journal records discovered across shards (grows as shards
    /// open their journals).
    pub journal_records: u64,
    /// Records folded so far (journal replay after the snapshot, or the
    /// full journal when no snapshot was usable).
    pub replayed_records: u64,
    /// Shards that restored a valid snapshot.
    pub snapshots_loaded: u64,
    /// Shards the service is booting.
    pub shards_total: u64,
    /// Shards whose recovery finished.
    pub shards_ready: u64,
}

impl BootProgress {
    /// Fresh all-zero progress.
    pub fn new() -> Self {
        BootProgress::default()
    }

    pub(crate) fn set_shards(&self, n: u64) {
        self.shards_total.store(n, Ordering::Relaxed);
    }

    pub(crate) fn add_journal_records(&self, n: u64) {
        self.journal_records.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_replayed(&self, n: u64) {
        self.replayed_records.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_snapshot_loaded(&self) {
        self.snapshots_loaded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shard_ready(&self) {
        self.shards_ready.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy for reporting.
    pub fn status(&self) -> BootStatus {
        BootStatus {
            journal_records: self.journal_records.load(Ordering::Relaxed),
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            snapshots_loaded: self.snapshots_loaded.load(Ordering::Relaxed),
            shards_total: self.shards_total.load(Ordering::Relaxed),
            shards_ready: self.shards_ready.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, Feedback, Rating};
    use proptest::prelude::*;

    fn build_states(model: TrustModel, n: usize) -> HashMap<ServerId, ServerState> {
        let mut states: HashMap<ServerId, ServerState> = HashMap::new();
        for t in 0..n as u64 {
            let server = ServerId::new(t % 5);
            let f = Feedback::new(
                t,
                server,
                ClientId::new(t % 13),
                Rating::from_good(t % 7 != 0),
            );
            states
                .entry(server)
                .or_insert_with(|| ServerState::new(model).unwrap())
                .ingest(f, &crate::faults::ShardFaults::default());
        }
        states
    }

    /// Like [`build_states`] but compacted, so round-trips exercise the
    /// folded counts, not just the full-resolution suffix.
    fn build_tiered_states(
        model: TrustModel,
        n: usize,
        horizon: usize,
    ) -> HashMap<ServerId, ServerState> {
        let mut states = build_states(model, n);
        for state in states.values_mut() {
            state.compact(horizon);
        }
        states
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hp-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_same_states(a: &HashMap<ServerId, ServerState>, b: &HashMap<ServerId, ServerState>) {
        assert_eq!(a.len(), b.len());
        for (id, state) in a {
            let other = &b[id];
            assert_eq!(state.version(), other.version(), "server {id:?}");
            assert_eq!(state.trust(), other.trust(), "server {id:?}");
            match (state.history(), other.history()) {
                (Some(h), Some(o)) => assert_eq!(h, o, "server {id:?}"),
                (None, None) => {
                    assert_eq!(state.spilled(), other.spilled(), "server {id:?}");
                }
                _ => panic!("residency mismatch for server {id:?}"),
            }
        }
    }

    /// The sequence numbers `store` knows, newest first.
    fn seqs(store: &SnapshotStore) -> Vec<u64> {
        store.candidates().iter().map(|e| e.seq).collect()
    }

    #[test]
    fn round_trip_is_lossless_for_both_models() {
        for model in [TrustModel::Average, TrustModel::Weighted { lambda: 0.5 }] {
            let states = build_states(model, 257);
            let (bytes, min_seg) = encode(3, 8, 7, 257, &states);
            assert_eq!(min_seg, NO_SEGMENTS);
            let loaded = decode(&bytes, Path::new("x"), 3, 8, model).unwrap();
            assert_eq!(loaded.seq, 7);
            assert_eq!(loaded.journal_records, 257);
            assert_eq!(loaded.min_seg, NO_SEGMENTS);
            assert_same_states(&states, &loaded.states);
        }
    }

    #[test]
    fn round_trip_preserves_folded_counts() {
        for model in [TrustModel::Average, TrustModel::Weighted { lambda: 0.5 }] {
            // ~240 per server with horizon 64 folds two words each.
            let states = build_tiered_states(model, 1200, 64);
            let folded: usize = states
                .values()
                .map(|s| s.history().unwrap().retained_start())
                .sum();
            assert!(folded > 0, "compaction must fold a prefix");
            let (bytes, _) = encode(0, 1, 0, 1200, &states);
            let loaded = decode(&bytes, Path::new("x"), 0, 1, model).unwrap();
            assert_same_states(&states, &loaded.states);
        }
    }

    #[test]
    fn spilled_states_round_trip_and_report_min_seg() {
        let model = TrustModel::Average;
        let mut states = build_tiered_states(model, 1200, 64);
        let seg_a = SegmentRef {
            seq: 7,
            offset: 128,
            len: 333,
            crc: 0xdead_beef,
        };
        let seg_b = SegmentRef {
            seq: 3,
            offset: 64,
            len: 90,
            crc: 0x1,
        };
        states.get_mut(&ServerId::new(0)).unwrap().evict(seg_a, 333);
        states.get_mut(&ServerId::new(1)).unwrap().evict(seg_b, 90);
        let (bytes, min_seg) = encode(0, 1, 11, 1200, &states);
        assert_eq!(min_seg, 3);
        let loaded = decode(&bytes, Path::new("x"), 0, 1, model).unwrap();
        assert_eq!(loaded.min_seg, 3, "decode finds the minimum encode did");
        assert_same_states(&states, &loaded.states);
        let (meta, seg) = loaded.states[&ServerId::new(0)].spilled().unwrap();
        assert_eq!(seg, seg_a);
        assert_eq!(meta.bytes, 333);
        assert!(loaded.states[&ServerId::new(2)].history().is_some());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let model = TrustModel::Weighted { lambda: 0.5 };
        let states = build_states(model, 64);
        let (bytes, _) = encode(0, 1, 0, 64, &states);
        // Step through the file; CRC catches every flip.
        for at in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(
                decode(&bad, Path::new("x"), 0, 1, model).is_err(),
                "flip at {at} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_at_any_point_is_rejected() {
        let model = TrustModel::Average;
        let states = build_states(model, 40);
        let (bytes, _) = encode(0, 1, 0, 40, &states);
        for keep in (0..bytes.len()).step_by(5) {
            assert!(decode(&bytes[..keep], Path::new("x"), 0, 1, model).is_err());
        }
    }

    #[test]
    fn model_mismatch_is_rejected() {
        let states = build_states(TrustModel::Average, 32);
        let (bytes, _) = encode(0, 1, 0, 32, &states);
        let err = decode(
            &bytes,
            Path::new("x"),
            0,
            1,
            TrustModel::Weighted { lambda: 0.5 },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
        // Different lambda is a mismatch too.
        let states = build_states(TrustModel::Weighted { lambda: 0.5 }, 32);
        let (bytes, _) = encode(0, 1, 0, 32, &states);
        assert!(decode(
            &bytes,
            Path::new("x"),
            0,
            1,
            TrustModel::Weighted { lambda: 0.25 }
        )
        .is_err());
    }

    #[test]
    fn version_1_snapshot_is_rejected_not_misread() {
        let model = TrustModel::Average;
        let states = build_states(model, 32);
        let (mut bytes, _) = encode(0, 1, 0, 32, &states);
        // Rewrite the version field and re-stamp the trailer CRC: a
        // well-formed file from the previous format era must fall down
        // the recovery chain, not decode as garbage.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes.truncate(bytes.len() - 4);
        bytes.seal();
        let err = decode(&bytes, Path::new("x"), 0, 1, model).unwrap_err();
        assert!(matches!(
            err,
            Error::Corrupt {
                reason: "unknown version",
                ..
            }
        ));
    }

    #[test]
    fn store_retention_and_reopen_by_name() {
        let dir = temp_dir("retention");
        let model = TrustModel::Weighted { lambda: 0.5 };
        let mut store = SnapshotStore::open(&dir, 0, 1).unwrap();
        assert!(store.newest_offset().is_none());
        assert!(store.compact_floor().is_none());
        assert!(store.segment_floor().is_none());
        for k in 1..=4u64 {
            let states = build_states(model, (k * 50) as usize);
            store.write(&states, k * 50).unwrap();
        }
        assert_eq!(store.newest_offset(), Some(200));
        assert_eq!(store.compact_floor(), Some(150));
        // No retained snapshot references a segment: everything sealed is
        // below the floor.
        assert_eq!(store.segment_floor(), Some(NO_SEGMENTS));
        // Only `RETAIN` files remain on disk, and nothing else.
        let files = durable::scan_numbered(&dir, "shard-0-", ".hps").unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "no manifest");
        // A reopened store finds the same snapshots by name, their offsets
        // unknown until each is loaded.
        let mut reopened = SnapshotStore::open(&dir, 0, 1).unwrap();
        assert_eq!(seqs(&reopened), [3, 2]);
        assert_eq!(reopened.next_seq, store.next_seq);
        assert_eq!(reopened.newest_offset(), None);
        let [newest, older] = [0, 1].map(|i| reopened.candidates()[i].clone());
        let loaded = reopened.load(&newest, model).unwrap();
        assert_eq!(loaded.journal_records, 200);
        assert_same_states(&build_states(model, 200), &loaded.states);
        // The load is what makes the offset known; the older entry still
        // blocks both floors.
        assert_eq!(reopened.newest_offset(), Some(200));
        assert_eq!(reopened.compact_floor(), None);
        assert_eq!(reopened.segment_floor(), None);
        reopened.load(&older, model).unwrap();
        assert_eq!(reopened.candidates(), store.candidates());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_floor_spans_all_retained_snapshots() {
        let dir = temp_dir("segment-floor");
        let model = TrustModel::Average;
        let mut store = SnapshotStore::open(&dir, 0, 1).unwrap();
        let mut states = build_states(model, 250);
        let seg = |seq| SegmentRef {
            seq,
            offset: 0,
            len: 50,
            crc: 0,
        };
        states.get_mut(&ServerId::new(0)).unwrap().evict(seg(4), 50);
        store.write(&states, 250).unwrap();
        let mut newer = build_states(model, 250);
        newer.get_mut(&ServerId::new(1)).unwrap().evict(seg(9), 50);
        store.write(&newer, 300).unwrap();
        // The older retained snapshot still needs segment 4.
        assert_eq!(store.segment_floor(), Some(4));
        // A reopened store knows the floor once it has loaded both.
        let mut reopened = SnapshotStore::open(&dir, 0, 1).unwrap();
        for entry in reopened.candidates() {
            assert_eq!(reopened.segment_floor(), None);
            reopened.load(&entry, model).unwrap();
        }
        assert_eq!(reopened.segment_floor(), Some(4));
        // Writing a third snapshot rotates the oldest out; only segment 9
        // remains referenced.
        store.write(&build_states(model, 250), 350).unwrap();
        assert_eq!(store.segment_floor(), Some(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_renamed_snapshot() {
        let dir = temp_dir("renamed");
        let model = TrustModel::Average;
        let mut store = SnapshotStore::open(&dir, 0, 1).unwrap();
        store.write(&build_states(model, 30), 30).unwrap();
        // Pretend an old file is the newest by renaming it.
        fs::rename(
            dir.join(snapshot_file_name(0, 0)),
            dir.join(snapshot_file_name(0, 9)),
        )
        .unwrap();
        let mut reopened = SnapshotStore::open(&dir, 0, 1).unwrap();
        let cand = &reopened.candidates()[0];
        assert_eq!(cand.seq, 9);
        assert!(matches!(
            reopened.load(cand, model),
            Err(Error::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and FNV-1a of a snapshot holding hot (folded) and spilled
    /// servers under each trust model: the bytes the build before the
    /// issuers left the history wrote (2 457 B, `0xf69e_8ad5_8def_4bc2`,
    /// and 2 497 B, `0x5e5c_daea_3b51_fc78`), each hot payload rewritten
    /// by hand to the outcome-only layout — its issuer sections cut out,
    /// the layout byte put in front — and the CRC restamped. Nothing else
    /// may move.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let dir = temp_dir("pinned");
        let mut store = SnapshotStore::open(&dir, 2, 4).unwrap();
        let models = [TrustModel::Average, TrustModel::Weighted { lambda: 0.75 }];
        let pins = [(468, 0xf2cb_eb1b_85e2_a0d0), (508, 0xc3fd_0274_0930_82bc)];
        for (i, (model, pin)) in models.into_iter().zip(pins).enumerate() {
            let mut states = build_tiered_states(model, 1200, 64);
            let seg = |seq, offset| SegmentRef {
                seq,
                offset,
                len: 77,
                crc: 0x0bad_cafe,
            };
            states
                .get_mut(&ServerId::new(1))
                .unwrap()
                .evict(seg(5 + i as u64, 20), 77);
            states
                .get_mut(&ServerId::new(3))
                .unwrap()
                .evict(seg(9, 1 << 40), 77);
            store.write(&states, 1200 + 300 * i as u64).unwrap();
            let bytes = fs::read(dir.join(snapshot_file_name(2, i as u64))).unwrap();
            assert_eq!((bytes.len(), fnv1a(&bytes)), pin, "{model:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Snapshots are published through temps: the temps a crash left of
    /// this shard's files are deleted by the next open, and so are the
    /// manifest an older build kept and its temp; another shard's are
    /// not.
    #[test]
    fn open_deletes_the_temps_a_crash_left() {
        let dir = temp_dir("stale");
        let mut store = SnapshotStore::open(&dir, 1, 2).unwrap();
        store
            .write(&build_states(TrustModel::Average, 30), 30)
            .unwrap();
        let ours = [
            snapshot_file_name(1, 1) + ".tmp",
            "shard-1.manifest".to_string(),
            "shard-1.manifest.tmp".to_string(),
        ];
        let theirs = [
            snapshot_file_name(0, 1) + ".tmp",
            snapshot_file_name(10, 1) + ".tmp",
            "shard-0.manifest".to_string(),
        ];
        for name in ours.iter().chain(&theirs) {
            fs::write(dir.join(name), b"half a file").unwrap();
        }
        let reopened = SnapshotStore::open(&dir, 1, 2).unwrap();
        assert_eq!(seqs(&reopened), seqs(&store));
        for name in &ours {
            assert!(!dir.join(name).exists(), "{name} deleted");
        }
        for name in &theirs {
            assert!(dir.join(name).exists(), "{name} kept");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A trust model, the `(shard, shards)` a snapshot was written for,
    /// its bytes, and its fields as `(offset, width)`.
    type Genuine = (TrustModel, (u32, u32), Vec<u8>, Vec<(usize, usize)>);

    /// The snapshot of shard 1 of 2 the build before the issuers left the
    /// history wrote into `tests/fixtures/issuer-layout` (average trust):
    /// hot servers in the old payload layout, spilled ones by reference.
    const OLD_LAYOUT_SNAPSHOT: &[u8] =
        include_bytes!("../tests/fixtures/issuer-layout/shard-1-0000000000000001.hps");

    /// Hot and spilled servers under each trust model, encoded as shard 0
    /// of 1, and the old-layout snapshot: the snapshots
    /// `snapshot_decode_survives_hostile_bytes` mangles, with the model,
    /// the shard and the `(offset, width)` of every length, offset, count
    /// and tag field in them.
    fn genuine() -> &'static [Genuine; 3] {
        static GENUINE: std::sync::OnceLock<[Genuine; 3]> = std::sync::OnceLock::new();
        GENUINE.get_or_init(|| {
            let [average, weighted] = [TrustModel::Average, TrustModel::Weighted { lambda: 0.75 }]
                .map(|model| {
                    let mut states = build_tiered_states(model, 300, 32);
                    let seg = |seq| SegmentRef {
                        seq,
                        offset: 20,
                        len: 77,
                        crc: 0x0bad_cafe,
                    };
                    states.get_mut(&ServerId::new(1)).unwrap().evict(seg(5), 77);
                    states.get_mut(&ServerId::new(3)).unwrap().evict(seg(9), 77);
                    let (bytes, _) = encode(0, 1, 5, 300, &states);
                    let fields = snapshot_fields(&bytes);
                    (model, (0, 1), bytes, fields)
                });
            let old = OLD_LAYOUT_SNAPSHOT.to_vec();
            let fields = snapshot_fields(&old);
            [
                average,
                weighted,
                (TrustModel::Average, (1, 2), old, fields),
            ]
        })
    }

    /// `bytes` with every hot payload in the old layout rewritten to the
    /// current one — its issuer sections cut out — and the CRC restamped:
    /// what `encode` must write for the states a snapshot of either
    /// layout decodes to. Only called on bytes `decode` accepted.
    fn current_layout(bytes: &[u8]) -> Vec<u8> {
        let mut r = Reader::sealed(Path::new("walk"), bytes).unwrap();
        let mut out = r.take(32, "").unwrap().to_vec();
        let count = r.u64("").unwrap();
        out.put_u64(count);
        for _ in 0..count {
            out.put(r.take(8, "").unwrap());
            let tag = r.u8("").unwrap();
            out.push(tag);
            let trust = if tag == TRUST_AVERAGE { 16 } else { 24 };
            out.put(r.take(trust, "").unwrap());
            let residency = r.u8("").unwrap();
            out.push(residency);
            if residency != RESIDENCY_HOT {
                out.put(r.take(48, "").unwrap());
                continue;
            }
            let len = r.u64("").unwrap() as usize;
            let payload = r.take(len, "").unwrap();
            if payload[0] >= 2 {
                out.put_u64(len as u64);
                out.put(payload);
                continue;
            }
            let field = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            let (suffix, dict) = ((field(9) - field(17)) as usize, field(41) as usize);
            let words = &payload[49 + 16 * dict + 4 * suffix..];
            out.put_u64((42 + words.len()) as u64);
            out.push(2);
            out.put(&payload[..41]);
            out.put(words);
        }
        out.seal();
        out
    }

    fn snapshot_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut fields = vec![(4, 4), (8, 4), (12, 4), (16, 8), (24, 8), (32, 8)];
        let mut r = Reader::sealed(Path::new("walk"), bytes).unwrap();
        r.take(32, "").unwrap();
        let mut field = |r: &mut Reader<'_>, width: usize| {
            fields.push((r.offset() as usize, width));
            let bytes = r.take(width, "").unwrap();
            bytes.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b))
        };
        for _ in 0..field(&mut r, 8) {
            field(&mut r, 8);
            let trust = if field(&mut r, 1) == u64::from(TRUST_AVERAGE) {
                2
            } else {
                3
            };
            for _ in 0..trust {
                field(&mut r, 8);
            }
            if field(&mut r, 1) == u64::from(RESIDENCY_HOT) {
                let len = field(&mut r, 8);
                r.take(len as usize, "").unwrap();
            } else {
                for width in [8, 8, 8, 8, 8, 4, 4] {
                    field(&mut r, width);
                }
            }
        }
        fields
    }

    /// A length, offset or count the file cannot honour: any value, a
    /// small one, or one just short of the type's end.
    fn hostile() -> impl Strategy<Value = u64> {
        (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
            0 => raw,
            1 => raw % 64,
            _ => u64::MAX - raw % 64,
        })
    }

    proptest! {
        /// Whatever happened to a snapshot of either payload layout — cut
        /// or a byte flipped under its CRC, or any length, offset, count or
        /// tag field or any four bytes of the body (an old payload's issuer
        /// sections among them) overwritten and the CRC restamped —
        /// `decode` returns a typed corruption or states that encode back
        /// to exactly those bytes, less any old payload's issuer sections:
        /// never a panic, and never a map reserved for more servers than
        /// the bytes hold (an impossible server count is refused where it
        /// is read).
        #[test]
        fn snapshot_decode_survives_hostile_bytes(
            which in 0usize..3,
            mangle in (0u8..5, any::<usize>(), hostile()),
        ) {
            let (model, (shard, shards), bytes, fields) = &genuine()[which];
            let mut bytes = bytes.clone();
            let (kind, at, value) = mangle;
            let (field, width) = fields[at % fields.len()];
            match kind {
                0 => bytes.truncate(at % bytes.len()),
                1 => {
                    let at = at % bytes.len();
                    bytes[at] ^= (value as u8).max(1);
                }
                2 => {
                    bytes[field..field + width].copy_from_slice(&value.to_le_bytes()[..width]);
                    bytes.truncate(bytes.len() - 4);
                    bytes.seal();
                }
                3 => {
                    let at = HEADER_LEN + at % (bytes.len() - HEADER_LEN - 7);
                    bytes[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
                    bytes.truncate(bytes.len() - 4);
                    bytes.seal();
                }
                _ => {
                    bytes.truncate(4 + at % (bytes.len() - 4));
                    bytes.truncate(bytes.len() - 4);
                    bytes.seal();
                }
            }
            match decode(&bytes, Path::new("x"), *shard, *shards, *model) {
                Ok(loaded) => {
                    let (again, min_seg) =
                        encode(*shard, *shards, loaded.seq, loaded.journal_records, &loaded.states);
                    prop_assert_eq!(loaded.min_seg, min_seg);
                    prop_assert!(
                        again == current_layout(&bytes),
                        "{kind} at {field}: {value:#x} decodes to other bytes"
                    );
                }
                Err(Error::Corrupt { offset, reason, .. }) => {
                    let room = bytes.len().saturating_sub(HEADER_LEN + 4) / MIN_SERVER_LEN;
                    if kind == 2 && field == 32 && value > room as u64 {
                        prop_assert_eq!((offset, reason), (40, "server count past the end of the file"));
                    }
                }
                Err(e) => prop_assert!(false, "{e}"),
            }
        }
    }

    #[test]
    fn boot_progress_reports_counters() {
        let p = BootProgress::new();
        p.set_shards(4);
        p.add_journal_records(100);
        p.add_replayed(40);
        p.note_snapshot_loaded();
        p.note_shard_ready();
        let s = p.status();
        assert_eq!(s.shards_total, 4);
        assert_eq!(s.journal_records, 100);
        assert_eq!(s.replayed_records, 40);
        assert_eq!(s.snapshots_loaded, 1);
        assert_eq!(s.shards_ready, 1);
    }
}
