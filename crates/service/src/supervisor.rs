//! Shard supervision: crash containment, respawn with capped exponential
//! backoff, state recovery, and poison-record quarantine.
//!
//! Each shard thread runs a *supervisor* loop rather than the worker loop
//! directly. The supervisor owns the shard's per-server state and its
//! [`InFlight`] record buffer, both outside the worker's `catch_unwind`,
//! and
//!
//! 1. produces the shard's initial state — a fold over the journal a
//!    previous process left (durable), or nothing (ephemeral),
//! 2. runs [`worker_loop`] under `catch_unwind`,
//! 3. on panic: waits a capped exponential backoff, recovers the state,
//!    and re-enters the worker loop with the command channel — and every
//!    command still queued on it, or dequeued behind a group commit's
//!    ingest run — intact.
//!
//! How step 3 recovers depends on what the shard has besides its memory:
//!
//! * **Durable** shards have a trusted external copy. The state is
//!   thrown away and rebuilt as a pure fold over the journal (which is
//!   exactly what the live ingest path maintains, because batches are
//!   journaled before they are acknowledged or applied), starting from
//!   the newest valid snapshot.
//! * **Ephemeral** shards have only the state, so it is kept. The
//!   worker writes a [`Mark`] before each record touches its server;
//!   after a panic the supervisor rolls that one server back to the mark
//!   — trusting only the append-only columns up to the mark, rebuilding
//!   everything derived from them — and folds the rest of the in-flight
//!   batch onto the retained states. A panic with no record in flight
//!   (assessing, replying) folds nothing. A panic inside a tiering pass,
//!   the one mutation that is not an append, cannot be rolled back: the
//!   shard is failed rather than served from a torn fold.
//!
//! Two safeguards bound the damage a bad record or a persistent bug can
//! do:
//!
//! * **Quarantine.** If the fold itself panics repeatedly at the same
//!   accepted record (`QUARANTINE_AFTER` times), that single record is
//!   quarantined — skipped from this and all later folds — instead of
//!   wedging the shard forever. The journal on disk is never rewritten;
//!   quarantine is an in-memory skip set, and the count is visible as
//!   `ServiceStats::quarantined_records`.
//! * **Restart budget.** After `MAX_RESTARTS` respawns the shard is
//!   declared failed: the supervisor drops the receiver (senders see a
//!   disconnected channel and the front end reports
//!   `ServiceError::ShardUnavailable`) and `failed_shards` is bumped.

use crate::obs::ShardMetric;
use crate::shard::{
    checkpoint, tier_all, validate_spilled_refs, worker_loop, Command, InFlight, ShardContext,
    ShardHandle,
};
use crate::snapshot::ManifestEntry;
use crate::state::ServerState;
use crossbeam::channel::{self, Receiver};
use hp_core::ServerId;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Boot-progress updates are batched: one atomic add per this many
/// records folded, so progress reporting costs nothing measurable.
const PROGRESS_CHUNK: u64 = 8192;

/// Commands a shard's queue holds before `ingest_batch` applies its
/// [`IngestPolicy`](crate::IngestPolicy).
const QUEUE_CAPACITY: usize = 1024;
/// Delay before the first restart; it doubles per consecutive restart.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Upper bound on the restart delay.
const BACKOFF_CAP: Duration = Duration::from_secs(1);
/// Consecutive restarts after which the shard is declared failed.
const MAX_RESTARTS: u32 = 8;
/// Crashes of the supervisor's fold at the *same* accepted record (a
/// journal record on a durable shard, a record of the in-flight batch on
/// an ephemeral one) before that record is quarantined instead of
/// retried.
const QUARANTINE_AFTER: u32 = 2;

/// Spawns the supervised worker thread for one shard and returns its
/// handle.
pub(crate) fn spawn_supervised_shard(shard: usize, ctx: ShardContext) -> ShardHandle {
    let (tx, rx) = channel::bounded(QUEUE_CAPACITY);
    let published = Arc::clone(&ctx.published);
    let idle = Arc::clone(&ctx.idle);
    let join = thread::Builder::new()
        .name(format!("hp-shard-{shard}"))
        .spawn(move || supervise(&rx, &ctx))
        .expect("failed to spawn shard thread");
    ShardHandle {
        tx,
        join: Some(join),
        published,
        idle,
    }
}

/// The supervisor loop: recover, run, contain, repeat. Every exit that
/// is not a clean shutdown counts the shard failed and drops `rx`, so
/// senders see `ShardUnavailable`.
fn supervise(rx: &Receiver<Command>, ctx: &ShardContext) {
    let mut quarantine = Quarantine::default();
    let mut inflight = InFlight::default();
    let mut carry = None;
    // Cold start: a durable journal left by a previous process
    // incarnation is folded here before the first command; an ephemeral
    // shard starts empty.
    let cold = match &ctx.journal {
        Some(_) => rebuild(ctx, &mut quarantine),
        None => Some(HashMap::new()),
    };
    let cold = cold.and_then(|mut states| retier(&mut states, ctx).then_some(states));
    if let Some(boot) = &ctx.boot {
        boot.note_shard_ready(); // serving or failed, but no longer booting
    }
    let Some(mut states) = cold else {
        ctx.metrics().add(ShardMetric::Failed, 1);
        return;
    };
    let mut restarts: u32 = 0;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(rx, &mut states, &mut inflight, &mut carry, ctx)
        }));
        if run.is_ok() {
            return; // clean shutdown or all senders gone
        }
        restarts += 1;
        if restarts > MAX_RESTARTS {
            ctx.metrics().add(ShardMetric::Failed, 1);
            return;
        }
        ctx.metrics().add(ShardMetric::Restarts, 1);
        thread::sleep(backoff_delay(restarts));
        let recovered = match &ctx.journal {
            Some(_) => {
                // The journal already holds whatever was in flight.
                inflight.reset();
                rebuild(ctx, &mut quarantine)
                    .map(|rebuilt| states = rebuilt)
                    .is_some()
            }
            None => refold(ctx, &mut quarantine, &mut states, &mut inflight),
        };
        if !(recovered && retier(&mut states, ctx)) {
            ctx.metrics().add(ShardMetric::Failed, 1);
            return;
        }
        // Checkpoint the freshly rebuilt state: the next crash (or
        // process restart) then recovers from here instead of re-folding
        // this replay again.
        let _ = checkpoint(&states, None, ctx);
    }
}

/// Re-tiers recovered state before it serves: journal replay produces
/// fully hot histories, so recovery must re-bound resident bytes. A
/// panic in the fold is contained; false means the states are torn and
/// the shard must not serve from them.
fn retier(states: &mut HashMap<ServerId, ServerState>, ctx: &ShardContext) -> bool {
    catch_unwind(AssertUnwindSafe(|| tier_all(states, ctx))).is_ok()
}

/// Backoff before the `restart`-th respawn (1-based):
/// `BACKOFF_BASE * 2^(n-1)`, capped at `BACKOFF_CAP`.
fn backoff_delay(restart: u32) -> Duration {
    let doublings = restart.saturating_sub(1).min(20);
    BACKOFF_BASE
        .saturating_mul(1u32 << doublings)
        .min(BACKOFF_CAP)
}

/// Rebuilds a durable shard's state, trying the fastest sound path
/// first:
///
/// 1. each retained snapshot, newest first — load + validate, then fold
///    only the journal tail past its offset;
/// 2. full journal replay from record 0.
///
/// Every rejected candidate (corrupt file, missing tail, crash budget
/// exhausted) is counted as a fallback. Returns `None` only when *no*
/// path can produce a provably correct state — including a compacted
/// journal whose snapshots are all invalid, where a partial fold would
/// silently produce wrong verdicts.
fn rebuild(
    ctx: &ShardContext,
    quarantine: &mut Quarantine,
) -> Option<HashMap<ServerId, ServerState>> {
    let journal = ctx.journal.as_ref()?;
    if let Some(snaps) = &ctx.snapshots {
        let candidates = snaps.store.lock().candidates();
        for entry in candidates {
            if let Some(states) = recover_from_snapshot(ctx, quarantine, &entry) {
                return Some(states);
            }
            ctx.metrics().add(ShardMetric::SnapshotFallbacks, 1);
        }
    }
    // Fallback floor: fold the whole journal from record 0.
    let (start, feedbacks) = journal.lock().replay_from(0).ok()?;
    if start > 0 {
        // The journal was compacted (its head is gone) and no snapshot
        // was usable: a full rebuild would be missing the first `start`
        // records. Never serve from partial state — fail the shard.
        return None;
    }
    let mut states = HashMap::new();
    let mut fold = InFlight::replaying(feedbacks, 0);
    fold_tail(ctx, quarantine, &mut states, &mut fold, |states, fold| {
        states.clear();
        fold.rewind();
        true
    })
    .then_some(states)
}

/// One step of the fallback chain: load + validate `entry`, check the
/// journal actually starts where the snapshot ends, then fold the tail
/// on top. `None` means "reject this candidate, fall down the chain".
fn recover_from_snapshot(
    ctx: &ShardContext,
    quarantine: &mut Quarantine,
    entry: &ManifestEntry,
) -> Option<HashMap<ServerId, ServerState>> {
    let snaps = ctx.snapshots.as_ref()?;
    let loaded = snaps.store.lock().load(entry, ctx.model).ok()?;
    // A snapshot is only as good as the cold segments it points into:
    // fault and checksum every spilled reference *now*, so a torn or
    // missing segment rejects this candidate (falling back to an older
    // snapshot or full replay) instead of panicking the worker later.
    if !validate_spilled_refs(&loaded.states, ctx) {
        return None;
    }
    let offset = loaded.journal_records;
    let (start, tail) = ctx.journal.as_ref()?.lock().replay_from(offset).ok()?;
    if start != offset {
        // `start > offset`: the journal was compacted past this
        // snapshot's coverage, its tail is gone. `start < offset`: the
        // journal is shorter than the snapshot claims to cover (e.g. a
        // restored older journal file). Either way the snapshot + this
        // journal cannot reproduce the fold — reject.
        return None;
    }
    if let Some(boot) = &ctx.boot {
        boot.note_snapshot_loaded();
        // The prefix covered by the snapshot counts as recovered.
        boot.add_replayed(offset);
    }
    // On a crash-retry the snapshot is reloaded from disk: the on-disk
    // copy is pristine (the previous attempt only mutated its in-memory
    // clone), and the quarantine budget bounds the number of reloads.
    let mut first = Some(loaded);
    let mut states = HashMap::new();
    let mut fold = InFlight::replaying(tail, offset);
    fold_tail(ctx, quarantine, &mut states, &mut fold, |states, fold| {
        let loaded = first
            .take()
            .or_else(|| snaps.store.lock().load(entry, ctx.model).ok());
        let Some(loaded) = loaded else { return false };
        *states = loaded.states;
        fold.rewind();
        true
    })
    .then_some(states)
}

/// Recovers an ephemeral shard in place: `states` is kept, the record
/// the panic interrupted (if any) is rolled back to its mark, and what
/// `inflight` still owes is folded on. False when the retained state
/// cannot be trusted — the panic was inside a tiering fold, or a
/// history cannot honor its mark.
fn refold(
    ctx: &ShardContext,
    quarantine: &mut Quarantine,
    states: &mut HashMap<ServerId, ServerState>,
    inflight: &mut InFlight,
) -> bool {
    if inflight.folding {
        return false;
    }
    let folded = fold_tail(ctx, quarantine, states, inflight, |states, fold| {
        fold.mark.take().is_none_or(|mark| mark.roll_back(states))
    });
    if folded {
        inflight.finish();
    }
    folded
}

/// Folds the records `fold` owes onto `states`, quarantining records
/// that repeatedly crash the fold. `reset` runs before each attempt and
/// puts `states` and `fold` where the attempt starts: the initial state
/// and the top of the tail for a journal replay (a fresh empty map, a
/// freshly loaded snapshot), the mark of the interrupted record for an
/// in-place refold. False when `reset` gives up or the fold crashed
/// outside any record. A fold that completes adds the records it owed
/// to `hp_replayed_records_total`.
fn fold_tail(
    ctx: &ShardContext,
    quarantine: &mut Quarantine,
    states: &mut HashMap<ServerId, ServerState>,
    fold: &mut InFlight,
    mut reset: impl FnMut(&mut HashMap<ServerId, ServerState>, &mut InFlight) -> bool,
) -> bool {
    let records = fold.owed() as u64;
    loop {
        if !reset(states, fold) {
            return false;
        }
        // `fold` advances past each record it completes, so after a
        // panic it names the exact record that caused it.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut replayed_in_chunk = 0u64;
            fold.apply_rest(states, ctx, |index| {
                if quarantine.is_skipped(index) {
                    return false;
                }
                if let Some(boot) = &ctx.boot {
                    replayed_in_chunk += 1;
                    if replayed_in_chunk == PROGRESS_CHUNK {
                        boot.add_replayed(replayed_in_chunk);
                        replayed_in_chunk = 0;
                    }
                }
                true
            });
            if let Some(boot) = &ctx.boot {
                boot.add_replayed(replayed_in_chunk);
            }
        }));
        if attempt.is_ok() {
            // Keep staleness accounting truthful for verdicts published
            // before the crash.
            let mut published = ctx.published.lock();
            for (server, state) in states.iter() {
                if let Some(pv) = published.get_mut(server) {
                    pv.latest_version = state.version();
                }
            }
            drop(published);
            ctx.metrics().add(ShardMetric::ReplayedRecords, records);
            return true;
        }
        if fold.owed() == 0 {
            return false; // crashed outside any record: hopeless
        }
        let index = fold.next_index();
        if quarantine.note_crash(index) {
            ctx.metrics().add(ShardMetric::Quarantined, 1);
        }
        // Retry immediately: either the record is now skipped or its
        // crash count moved toward the quarantine threshold.
    }
}

/// Tracks per-record replay crashes and the resulting skip set.
#[derive(Default)]
struct Quarantine {
    crashes: HashMap<u64, u32>,
    skipped: HashSet<u64>,
}

impl Quarantine {
    fn is_skipped(&self, index: u64) -> bool {
        self.skipped.contains(&index)
    }

    /// Records a crash at `index`; returns true when this crash reaches
    /// `QUARANTINE_AFTER` and quarantines the record.
    fn note_crash(&mut self, index: u64) -> bool {
        let count = self.crashes.entry(index).or_insert(0);
        *count += 1;
        *count >= QUARANTINE_AFTER && self.skipped.insert(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRegistry;
    use crate::shard::enter_run;
    use hp_core::{ClientId, Feedback, Rating};

    /// 40 records interleaving two servers, some issuers repeating.
    fn batch() -> Vec<Feedback> {
        (0..40u64)
            .map(|t| {
                let server = ServerId::new(t % 2);
                Feedback::new(
                    t,
                    server,
                    ClientId::new(t % 7),
                    Rating::from_good(t % 5 != 0),
                )
            })
            .collect()
    }

    fn fingerprint(states: &HashMap<ServerId, ServerState>) -> Vec<(ServerId, Vec<u8>, String)> {
        let mut all: Vec<_> = states
            .iter()
            .map(|(id, s)| {
                (
                    *id,
                    s.history().unwrap().encode(),
                    format!("{:?}", s.trust()),
                )
            })
            .collect();
        all.sort();
        all
    }

    /// The worker died with record 17 applied in full but its mark still
    /// standing — the worst a mid-apply panic can leave: the refold must
    /// undo it once and apply it once.
    #[test]
    fn refold_rolls_the_marked_record_back_and_applies_the_rest() {
        let ctx = ShardContext::ephemeral(Arc::new(MetricsRegistry::new(1)));
        let mut expected = HashMap::new();
        InFlight::replaying(batch(), 0).apply_rest(&mut expected, &ctx, |_| true);

        let mut states = HashMap::new();
        let mut inflight = InFlight::replaying(batch(), 0);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            inflight.apply_rest(&mut states, &ctx, |index| {
                assert_ne!(index, 17, "the worker dies reaching record 17");
                true
            })
        }));
        assert!(crashed.is_err());
        assert_eq!(inflight.owed(), 23);
        let record = batch()[17];
        enter_run(&mut states, record.server, &ctx, &mut inflight.mark).ingest(record, &ctx.faults);
        assert_ne!(fingerprint(&states), fingerprint(&expected));

        let mut quarantine = Quarantine::default();
        assert!(refold(&ctx, &mut quarantine, &mut states, &mut inflight));
        assert_eq!(fingerprint(&states), fingerprint(&expected));
        assert_eq!(inflight.owed(), 0);
        assert_eq!(inflight.next_index(), 40, "the batch's ordinals are spent");
        let replayed = ctx.obs.snapshot().total(ShardMetric::ReplayedRecords);
        assert_eq!(replayed, 23, "the refold counts the records it owed");
    }

    /// A group commit's later batches are owed too: a worker that dies
    /// in the second of three batches leaves the rest of it and the whole
    /// third to the refold, at the ordinals the group gave them.
    #[test]
    fn refold_owes_every_batch_of_a_group() {
        let ctx = ShardContext::ephemeral(Arc::new(MetricsRegistry::new(1)));
        let mut expected = HashMap::new();
        InFlight::replaying(batch(), 0).apply_rest(&mut expected, &ctx, |_| true);

        let records = batch();
        let mut states = HashMap::new();
        let mut inflight = InFlight::default();
        inflight.begin(vec![
            records[..10].to_vec(),
            records[10..25].to_vec(),
            records[25..].to_vec(),
        ]);
        assert_eq!(inflight.owed(), 40);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            inflight.apply_rest(&mut states, &ctx, |index| {
                assert_ne!(index, 17, "the worker dies reaching record 17");
                true
            })
        }));
        assert!(crashed.is_err());
        assert_eq!((inflight.next_index(), inflight.owed()), (17, 23));

        assert!(refold(
            &ctx,
            &mut Quarantine::default(),
            &mut states,
            &mut inflight
        ));
        assert_eq!(fingerprint(&states), fingerprint(&expected));
        assert_eq!((inflight.next_index(), inflight.owed()), (40, 0));
    }

    #[test]
    fn refold_refuses_a_state_torn_inside_a_tiering_fold() {
        let ctx = ShardContext::ephemeral(Arc::new(MetricsRegistry::new(1)));
        let mut states = HashMap::new();
        let mut inflight = InFlight::default();
        inflight.folding = true;
        assert!(!refold(
            &ctx,
            &mut Quarantine::default(),
            &mut states,
            &mut inflight
        ));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_delay(1), Duration::from_millis(10));
        assert_eq!(backoff_delay(2), Duration::from_millis(20));
        assert_eq!(backoff_delay(3), Duration::from_millis(40));
        assert_eq!(backoff_delay(7), Duration::from_millis(640));
        assert_eq!(backoff_delay(8), Duration::from_secs(1));
        assert_eq!(backoff_delay(30), Duration::from_secs(1));
    }

    #[test]
    fn quarantine_trips_at_threshold_once() {
        let mut q = Quarantine::default();
        assert!(!q.note_crash(5));
        assert!(!q.is_skipped(5));
        assert!(
            q.note_crash(5),
            "second crash at the same index quarantines"
        );
        assert!(q.is_skipped(5));
        assert!(!q.note_crash(5), "already quarantined: not counted again");
        // Independent indices track independently.
        assert!(!q.note_crash(9));
    }
}
