//! Shard workers: one thread per shard, each owning the state of the
//! servers that hash to it.
//!
//! Commands travel over an MPMC channel per shard. A shard's channel is
//! FIFO, which gives the service read-your-writes per server: an `Assess`
//! enqueued after an `Ingest` for the same server observes the ingested
//! feedback, because both commands land on the same shard in order.
//!
//! Ingest is a group commit: the worker claims the whole run of ingest
//! commands at the head of its queue, journals their batches with one
//! write (and at most one fsync), replies to each caller, and only then
//! applies them in order. A caller waits for that reply, so an
//! acknowledged batch is a journaled one and a queue holds at most one
//! command per waiting caller. Every checkpoint — due after an apply,
//! asked for by [`Command::Checkpoint`], at the end of a drain or after a
//! respawn — is written on a scoped thread by one routine, [`checkpoint`].
//! The worker's part is the log-force, which with compaction on rolls the
//! journal into a sealed segment. A due or asked-for checkpoint goes on
//! acknowledging ingest meanwhile, so its fsyncs do not stall the
//! callers.
//!
//! Fault tolerance (see [`crate::supervisor`]):
//!
//! * on a durable shard every ingest batch is appended to the shard's
//!   journal **before** it is acknowledged or touches in-memory state, so
//!   the state is a pure fold over the journal and a crashed worker can
//!   be rebuilt by replay; an append that fails is refused to its callers
//!   and neither acknowledged nor applied;
//! * every ingest batch is moved into the supervisor's [`InFlight`]
//!   buffer before it is acknowledged, and each record writes a [`Mark`]
//!   before it touches its server, so an ephemeral shard — whose
//!   per-server state is the only copy — can roll one record back after a
//!   crash and apply the rest;
//! * each assessment the worker computes is *published* to a shared map
//!   readable without the worker thread, which is what lets the front end
//!   answer a typed degraded assessment when the worker is saturated or
//!   restarting;
//! * on `Shutdown` the worker drains commands that are already queued
//!   (journaling and answering them) and flushes the journal, if there
//!   is one, before exiting, so acknowledged feedback is never lost to a
//!   shutdown.

use crate::config::{SnapshotPolicy, TieringPolicy, TrustModel};
use crate::faults::ShardFaults;
use crate::journal::{FileJournal, LogForce};
use crate::obs::{LatencyPath, MetricsRegistry, ShardMetric, ShardMetrics};
use crate::snapshot::{BootProgress, SnapshotStore};
use crate::state::{ServerState, TrustState};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use hp_core::history::HistoryMark;
use hp_core::testing::MultiBehaviorTest;
use hp_core::twophase::{Assessment, ShortHistoryPolicy};
use hp_core::{CoreError, Feedback, ServerId, TieredHistory};
use hp_store::ColdStore;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stage timings measured inside the shard for one assessment, carried
/// back on the reply channel so the front end (and the edge's span
/// trees) can attribute the served latency to queue wait vs compute
/// without a second clock source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssessTimings {
    /// Time the command waited in the shard queue before the worker
    /// dequeued it, in nanoseconds.
    pub queue_wait_ns: u64,
    /// Phase-1 + phase-2 compute time inside the worker, in nanoseconds,
    /// any calibration wait included.
    pub compute_ns: u64,
    /// Whether the versioned cache answered the assessment.
    pub from_cache: bool,
}

/// One assessment answer: the verdict plus the shard-side stage timings
/// (queue wait, compute, cache provenance). The verdict is shared, not
/// cloned: the worker's versioned cache, the published-verdict map and
/// this reply all hold the same allocation.
pub(crate) type AssessReply = Result<(Arc<Assessment>, AssessTimings), CoreError>;

/// How much one shard holds right now. (Its per-tier byte sums travel
/// through the registry gauges, published before this is sent.)
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardOccupancy {
    pub servers: usize,
    pub feedbacks: usize,
}

/// The last verdict a shard published for one server, readable by the
/// front end without a round-trip through the worker thread.
#[derive(Debug, Clone)]
pub(crate) struct PublishedVerdict {
    /// The assessment as computed (shared with the worker's cache).
    pub assessment: Arc<Assessment>,
    /// The server's history version (= feedback count) it was computed at.
    pub computed_at_version: u64,
    /// The latest history version the shard has applied for this server.
    pub latest_version: u64,
}

/// Shared per-shard map of last published verdicts.
pub(crate) type Published = Arc<Mutex<HashMap<ServerId, PublishedVerdict>>>;

/// The shard's answer to one ingest command: `Ok` once the batch is
/// taken — journaled, on a durable shard — or why its journal refused it.
pub(crate) type IngestReply = Result<(), String>;

/// [`Ack`] states: one compare-exchange out of `PENDING` decides the
/// command, the shard's to `TAKEN` or its caller's to `SHED`.
const PENDING: u8 = 0;
const TAKEN: u8 = 1;
const SHED: u8 = 2;

/// How long a caller past its `TryFor` deadline gives an idle worker,
/// already woken for its command, before it looks again.
const IDLE_POLL: Duration = Duration::from_micros(100);

/// The reply slot an ingest command carries.
pub(crate) struct Ack {
    state: Arc<AtomicU8>,
    reply: Sender<IngestReply>,
}

/// The caller's end of an [`Ack`].
pub(crate) struct AckWait {
    state: Arc<AtomicU8>,
    reply: Receiver<IngestReply>,
}

/// What became of one ingest command.
pub(crate) enum Acked {
    /// The shard took the batch (journaled it, when durable).
    Taken,
    /// The shard's journal refused the batch: not acked, not applied.
    Refused(String),
    /// The caller's wait ran out first; the shard drops the batch unread.
    Shed,
    /// The worker is gone and the command with it, unread.
    Gone,
}

impl Ack {
    /// Claims the batch for the shard; false when its caller shed it.
    fn take(&self) -> bool {
        self.state
            .compare_exchange(PENDING, TAKEN, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn send(&self, reply: IngestReply) {
        let _ = self.reply.send(reply);
    }
}

impl AckWait {
    /// Waits for the shard's reply. With a `deadline` (the `TryFor`
    /// policy), a batch the shard has not taken by then is shed — unless
    /// `idle` says the worker sat waiting for work and is on its way to
    /// take it, which is no wait behind other work.
    pub(crate) fn wait(self, deadline: Option<Instant>, idle: &AtomicBool) -> Acked {
        if let Some(deadline) = deadline {
            let mut wait = deadline.saturating_duration_since(Instant::now());
            loop {
                match self.reply.recv_timeout(wait) {
                    Ok(reply) => return Self::settle(Some(reply)),
                    Err(RecvTimeoutError::Disconnected) => return Acked::Gone,
                    Err(RecvTimeoutError::Timeout) => {}
                }
                // Advisory: a stale read costs a poll or a shed, never
                // exactness — the compare-exchange below decides.
                if !idle.load(Ordering::Relaxed) {
                    let shed = self.state.compare_exchange(
                        PENDING,
                        SHED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    if shed.is_ok() {
                        return Acked::Shed;
                    }
                    break; // taken: the reply follows the journal append
                }
                wait = IDLE_POLL;
            }
        }
        Self::settle(self.reply.recv().ok())
    }

    fn settle(reply: Option<IngestReply>) -> Acked {
        match reply {
            Some(Ok(())) => Acked::Taken,
            Some(Err(reason)) => Acked::Refused(reason),
            None => Acked::Gone,
        }
    }
}

/// What the front end sends to a shard worker.
pub(crate) enum Command {
    /// Feedbacks already partitioned to this shard, in arrival order.
    Ingest {
        /// The sub-batch routed to this shard.
        batch: Vec<Feedback>,
        /// When the front end enqueued it — the start of the
        /// enqueue→apply latency measurement and the queue-wait stamp.
        enqueued_at: Instant,
        /// Where the shard says it took the batch.
        ack: Ack,
    },
    /// Servers routed to this shard, answered in request order.
    Assess {
        servers: Vec<ServerId>,
        reply: Sender<Vec<AssessReply>>,
        /// When the front end enqueued it (queue-wait attribution).
        enqueued_at: Instant,
        /// Request trace ID (0 = untraced).
        trace: u64,
    },
    Occupancy {
        reply: Sender<ShardOccupancy>,
    },
    /// Take a durable state snapshot now (and compact the journal when
    /// the policy allows). Answers what was written, or `None` when
    /// snapshots are disabled or the write failed.
    Checkpoint {
        reply: Sender<Option<CheckpointInfo>>,
    },
    Shutdown,
}

/// What one completed checkpoint did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CheckpointInfo {
    /// Serialized snapshot size in bytes.
    pub bytes: u64,
    /// Journal records dropped by the accompanying compaction (0 when
    /// compaction is disabled or nothing could be dropped).
    pub compacted: u64,
}

impl std::fmt::Debug for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Command::Ingest { batch, .. } => write!(f, "Ingest({} feedbacks)", batch.len()),
            Command::Assess { servers, .. } => write!(f, "Assess({} servers)", servers.len()),
            Command::Occupancy { .. } => write!(f, "Occupancy"),
            Command::Checkpoint { .. } => write!(f, "Checkpoint"),
            Command::Shutdown => write!(f, "Shutdown"),
        }
    }
}

impl Command {
    /// An ingest command stamped now, and the wait for its reply.
    pub(crate) fn ingest(batch: Vec<Feedback>) -> (Self, AckWait) {
        let state = Arc::new(AtomicU8::new(PENDING));
        let (reply_tx, reply_rx) = channel::bounded(1);
        let command = Command::Ingest {
            batch,
            enqueued_at: Instant::now(),
            ack: Ack {
                state: Arc::clone(&state),
                reply: reply_tx,
            },
        };
        let wait = AckWait {
            state,
            reply: reply_rx,
        };
        (command, wait)
    }

    /// An assess command stamped now.
    pub(crate) fn assess(
        servers: Vec<ServerId>,
        reply: Sender<Vec<AssessReply>>,
        trace: u64,
    ) -> Self {
        Command::Assess {
            servers,
            reply,
            enqueued_at: Instant::now(),
            trace,
        }
    }
}

/// A handle to one spawned (supervised) shard worker.
pub(crate) struct ShardHandle {
    pub(crate) tx: Sender<Command>,
    pub(crate) join: Option<JoinHandle<()>>,
    /// Verdicts last published by this shard, for degraded answers.
    pub(crate) published: Published,
    /// Set while the worker waits for work (see [`ShardContext::idle`]).
    pub(crate) idle: Arc<AtomicBool>,
}

impl ShardHandle {
    /// Commands currently queued (snapshot).
    pub fn queue_depth(&self) -> usize {
        self.tx.len()
    }

    /// Requests shutdown and joins the worker thread (idempotent).
    pub fn shutdown(&mut self) {
        let _ = self.tx.send(Command::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Snapshot machinery for one shard: the store plus the checkpoint
/// policy driving it. Absent when snapshots are disabled.
pub(crate) struct ShardSnapshots {
    pub store: Mutex<SnapshotStore>,
    pub policy: SnapshotPolicy,
}

/// Tiered-history machinery for one shard: the policy plus, when a spill
/// budget is set, the cold-segment store and the logical clock driving
/// LRU eviction.
pub(crate) struct ShardTiering {
    pub policy: TieringPolicy,
    /// Cold-segment store; `None` when only compaction is enabled.
    pub cold: Option<Mutex<ColdStore>>,
    /// Shard-local logical clock: one tick per server touch, so eviction
    /// can order servers coldest-first without wall-clock reads.
    pub clock: AtomicU64,
}

impl ShardTiering {
    pub(crate) fn new(policy: TieringPolicy, cold: Option<ColdStore>) -> Self {
        ShardTiering {
            policy,
            cold: cold.map(Mutex::new),
            clock: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Everything a shard worker (and its supervisor) needs besides the
/// command channel and the state map.
pub(crate) struct ShardContext {
    pub shard: usize,
    pub test: MultiBehaviorTest,
    pub model: TrustModel,
    pub policy: ShortHistoryPolicy,
    pub obs: Arc<MetricsRegistry>,
    /// The write-ahead journal of a durable shard; `None` on an
    /// ephemeral one, whose state survives a worker crash in place.
    pub journal: Option<Mutex<FileJournal>>,
    pub published: Published,
    pub faults: ShardFaults,
    /// Snapshot store + checkpoint policy, when snapshots are enabled.
    pub snapshots: Option<ShardSnapshots>,
    /// Tiered-history policy + cold store, when tiering is enabled.
    pub tiering: Option<ShardTiering>,
    /// Boot-time recovery progress, reported to health checks. Only the
    /// initial cold-start rebuild updates it.
    pub boot: Option<Arc<BootProgress>>,
    /// Set from the moment the worker finds its queue empty until it has
    /// claimed the command that woke it: a caller past its `TryFor`
    /// deadline waits for an idle worker instead of shedding.
    pub idle: Arc<AtomicBool>,
}

impl ShardContext {
    /// This shard's metric block in the registry.
    pub(crate) fn metrics(&self) -> &ShardMetrics {
        self.obs.shard(self.shard)
    }

    fn set_idle(&self, idle: bool) {
        self.idle.store(idle, Ordering::Relaxed);
    }
}

#[cfg(test)]
impl ShardContext {
    /// An ephemeral, untiered context for shard 0 of `obs` (unit tests).
    pub(crate) fn ephemeral(obs: Arc<MetricsRegistry>) -> Self {
        let test = hp_core::testing::BehaviorTestConfig::builder()
            .calibration_trials(200)
            .build()
            .unwrap();
        ShardContext {
            shard: 0,
            test: MultiBehaviorTest::new(test).unwrap(),
            model: TrustModel::Average,
            policy: ShortHistoryPolicy::Review,
            obs,
            journal: None,
            published: Published::default(),
            faults: ShardFaults::default(),
            snapshots: None,
            tiering: None,
            boot: None,
            idle: Arc::default(),
        }
    }
}

#[derive(PartialEq, Eq)]
pub(crate) enum Flow {
    Continue,
    Stop,
}

/// What one record is about to change, written before it changes it: the
/// server and the append marks its state can be cut back to.
pub(crate) struct Mark {
    server: ServerId,
    /// The server's state before the record; `None` when the record is
    /// the first the shard sees for it.
    prior: Option<(HistoryMark, TrustState)>,
}

impl Mark {
    /// The mark of a record about to change `server`'s resident `state`.
    fn before(server: ServerId, state: &ServerState) -> Mark {
        Mark {
            server,
            prior: Some(state.mark().expect("resident after ensure_hot")),
        }
    }

    /// Puts the marked server back as the mark found it (removing it if
    /// the record created it). False when its state cannot honor the
    /// mark.
    pub(crate) fn roll_back(self, states: &mut HashMap<ServerId, ServerState>) -> bool {
        match self.prior {
            None => {
                states.remove(&self.server);
                true
            }
            Some(prior) => states
                .get_mut(&self.server)
                .is_some_and(|state| state.roll_back(prior)),
        }
    }
}

/// Records accepted but not yet folded into the shard's state, with the
/// position of the fold. It lives in the supervisor, outside the worker's
/// `catch_unwind`, so after a panic it says exactly what the state still
/// owes: `pending[applied..]`, the first of them possibly half-applied
/// behind `mark`, then every batch `queued`. The live worker moves each
/// group commit's batches in here before it acknowledges them (no copy:
/// each is its command's own allocation, freed once folded); a journal
/// replay puts the journal tail here.
#[derive(Default)]
pub(crate) struct InFlight {
    pending: Vec<Feedback>,
    /// The rest of the group, folded after `pending`, in order.
    queued: VecDeque<Vec<Feedback>>,
    /// Ordinal of `pending[0]` among the records the shard has accepted
    /// (on a durable shard: its absolute journal index) — what quarantine
    /// bookkeeping calls the record.
    base: u64,
    /// Leading records of `pending` fully applied.
    applied: usize,
    /// Pre-image of the server `pending[applied]` is being applied to;
    /// `None` while no record is part-way.
    pub(crate) mark: Option<Mark>,
    /// Set while a tiering pass folds histories — the one mutation of an
    /// ephemeral shard's state that is not an append, so the one a panic
    /// cannot be rolled back out of.
    pub(crate) folding: bool,
}

impl InFlight {
    /// The fold of a journal tail whose first record has absolute index
    /// `base`.
    pub(crate) fn replaying(records: Vec<Feedback>, base: u64) -> Self {
        InFlight {
            pending: records,
            base,
            ..InFlight::default()
        }
    }

    /// Takes ownership of a group commit's batches, owed after whatever
    /// is owed already.
    pub(crate) fn begin(&mut self, group: Vec<Vec<Feedback>>) {
        self.queued.extend(group);
        if self.pending.is_empty() {
            debug_assert_eq!(self.applied, 0);
            self.pending = self.queued.pop_front().unwrap_or_default();
        }
    }

    /// Applies `pending[applied..]` and then each queued batch, in order;
    /// a record whose ordinal `admit` turns down is skipped for good.
    ///
    /// A run of consecutive records for one server looks its state up
    /// once, on the run's first admitted record; every record of the run
    /// still writes its own mark first and counts as applied on its own,
    /// so a panic names the exact record. Nothing evicts a state inside
    /// a run: tiering runs after the apply.
    pub(crate) fn apply_rest(
        &mut self,
        states: &mut HashMap<ServerId, ServerState>,
        ctx: &ShardContext,
        mut admit: impl FnMut(u64) -> bool,
    ) {
        loop {
            while let Some(&Feedback { server, .. }) = self.pending.get(self.applied) {
                let mut run: Option<&mut ServerState> = None;
                while let Some(&feedback) = self
                    .pending
                    .get(self.applied)
                    .filter(|feedback| feedback.server == server)
                {
                    if admit(self.next_index()) {
                        let state = match run.take() {
                            Some(state) => {
                                self.mark = Some(Mark::before(server, state));
                                state
                            }
                            None => enter_run(states, server, ctx, &mut self.mark),
                        };
                        ctx.faults.before_apply(&feedback);
                        state.ingest(feedback, &ctx.faults);
                        self.mark = None;
                        run = Some(state);
                    }
                    self.applied += 1;
                }
            }
            let Some(next) = self.queued.pop_front() else {
                return;
            };
            self.base += self.pending.len() as u64;
            self.pending = next;
            self.applied = 0;
        }
    }

    /// Records still owed to the state.
    pub(crate) fn owed(&self) -> usize {
        let queued: usize = self.queued.iter().map(Vec::len).sum();
        self.pending.len() - self.applied + queued
    }

    /// Ordinal of the next record to apply (the one part-way, if any).
    pub(crate) fn next_index(&self) -> u64 {
        self.base + self.applied as u64
    }

    /// Starts the fold of `pending` over (a replay retried from its
    /// initial state).
    pub(crate) fn rewind(&mut self) {
        debug_assert!(
            self.queued.is_empty(),
            "a live group is never refolded from its top"
        );
        self.applied = 0;
        self.mark = None;
    }

    /// Closes a fully applied batch: the buffer is freed (its ordinals
    /// are spent) and nothing is owed.
    pub(crate) fn finish(&mut self) {
        debug_assert!(self.owed() == 0 && self.mark.is_none());
        self.base += self.pending.len() as u64;
        self.pending = Vec::new();
        self.applied = 0;
    }

    /// Forgets everything: the state was rebuilt from a journal that
    /// already holds whatever was pending.
    pub(crate) fn reset(&mut self) {
        *self = InFlight::default();
    }
}

/// The worker loop proper. Runs until `Shutdown` (drain, flush, return)
/// or until every sender is gone (flush, return). Panics unwind to the
/// supervisor, which repairs `states` — from the journal, or in place
/// from `inflight` — and calls back in. `carry` holds a command a group
/// commit dequeued behind its ingest run; it lives in the supervisor too,
/// so a panic in the group's apply does not lose it.
pub(crate) fn worker_loop(
    rx: &Receiver<Command>,
    states: &mut HashMap<ServerId, ServerState>,
    inflight: &mut InFlight,
    carry: &mut Option<Command>,
    ctx: &ShardContext,
) {
    let mut worker = Worker {
        rx,
        carry,
        inflight,
        members: Vec::new(),
        touched: Vec::new(),
        ctx,
    };
    while let Some(command) = worker.next() {
        if worker.handle(command, states) == Flow::Stop {
            // Graceful shutdown: serve everything already queued, then
            // flush. Commands arriving after the drain observes an empty
            // queue are dropped (their senders see a closed channel).
            while let Some(command) = worker.carry.take().or_else(|| rx.try_recv().ok()) {
                let _ = worker.handle(command, states);
            }
            break;
        }
    }
    // Final checkpoint on graceful exit: the next boot starts from here
    // with an empty journal tail. It waits for its writer instead of
    // acknowledging: nothing would apply what arrived after the drain. A
    // failed write leaves the previous snapshot + tail path intact.
    let _ = checkpoint(states, None, ctx);
    if let Some(journal) = &ctx.journal {
        let _ = journal.lock().sync();
    }
}

/// One caller's share of a group commit.
struct Member {
    ack: Ack,
    enqueued_at: Instant,
    len: u64,
}

/// A worker for one run of [`worker_loop`]: its queue, the command a
/// group commit dequeued behind its ingest run, and the ingest it has
/// acknowledged and not yet applied — the members to time once applied
/// and the servers their batches touch. (The records themselves are in
/// [`InFlight`].)
pub(crate) struct Worker<'a> {
    rx: &'a Receiver<Command>,
    carry: &'a mut Option<Command>,
    inflight: &'a mut InFlight,
    members: Vec<Member>,
    touched: Vec<ServerId>,
    ctx: &'a ShardContext,
}

impl Worker<'_> {
    /// The carried command, else the queue's next. The worker is idle
    /// from finding its queue empty until it has claimed whatever wakes
    /// it (see [`Worker::handle`]).
    fn next(&mut self) -> Option<Command> {
        if let Some(command) = self.carry.take().or_else(|| self.rx.try_recv().ok()) {
            return Some(command);
        }
        self.ctx.set_idle(true);
        self.rx.recv().ok()
    }

    fn handle(&mut self, command: Command, states: &mut HashMap<ServerId, ServerState>) -> Flow {
        let ctx = self.ctx;
        let busy_t0 = Instant::now();
        if !matches!(command, Command::Ingest { .. }) {
            ctx.set_idle(false);
        }
        let flow = match command {
            Command::Ingest {
                batch,
                enqueued_at,
                ack,
            } => {
                self.acknowledge(batch, enqueued_at, ack);
                self.settle(states);
                Flow::Continue
            }
            Command::Assess {
                servers,
                reply,
                enqueued_at,
                trace,
            } => {
                let queue_wait_ns = enqueued_at.elapsed().as_nanos() as u64;
                ctx.metrics().queue_wait.record_ns(queue_wait_ns);
                ctx.faults.before_reply();
                let answers = servers
                    .into_iter()
                    .map(|server| assess_one(states, server, ctx, queue_wait_ns, trace))
                    .collect();
                let _ = reply.send(answers);
                Flow::Continue
            }
            Command::Occupancy { reply } => {
                // Publish the tier sums before replying: the reply is the
                // barrier `stats()` reads the gauges behind, and without
                // tiering nothing else ever publishes them.
                publish_tier_bytes(ctx, tier_bytes(states));
                let occupancy = ShardOccupancy {
                    servers: states.len(),
                    feedbacks: states.values().map(|s| s.len() as usize).sum(),
                };
                let _ = reply.send(occupancy);
                Flow::Continue
            }
            Command::Checkpoint { reply } => {
                let _ = reply.send(checkpoint(states, Some(self), ctx));
                self.settle(states);
                Flow::Continue
            }
            Command::Shutdown => Flow::Stop,
        };
        let busy_ns = busy_t0.elapsed().as_nanos() as u64;
        ctx.metrics().busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        flow
    }

    /// Claims the run of ingest commands at the head of the queue, the
    /// dequeued one first, up to the first command of another kind —
    /// which goes to `carry`, served next, so the queue stays FIFO — then
    /// journals the run with one append and replies to every member: its
    /// batches join what `inflight` owes, its members what
    /// [`Worker::settle`] applies. A command its caller has already shed
    /// is dropped unread. A refused append is replied to every member
    /// instead, and nothing of the run is kept.
    fn acknowledge(&mut self, batch: Vec<Feedback>, enqueued_at: Instant, ack: Ack) {
        let ctx = self.ctx;
        let (mut batches, mut members) = (Vec::new(), Vec::new());
        let mut next = Some((batch, enqueued_at, ack));
        while let Some((batch, enqueued_at, ack)) = next.take() {
            if ack.take() {
                let queue_wait_ns = enqueued_at.elapsed().as_nanos() as u64;
                ctx.metrics().queue_wait.record_ns(queue_wait_ns);
                members.push(Member {
                    ack,
                    enqueued_at,
                    len: batch.len() as u64,
                });
                batches.push(batch);
            }
            next = match self.rx.try_recv() {
                Ok(Command::Ingest {
                    batch,
                    enqueued_at,
                    ack,
                }) => Some((batch, enqueued_at, ack)),
                Ok(other) => {
                    *self.carry = Some(other);
                    None
                }
                Err(_) => None,
            };
        }
        ctx.set_idle(false);
        if members.is_empty() {
            return;
        }
        if let Err(reason) = journal_append(&batches, ctx) {
            for member in &members {
                member.ack.send(Err(reason.clone()));
            }
            return;
        }
        // One entry a run of one server's records, not one a record.
        for feedback in batches.iter().flatten() {
            if self.touched.last() != Some(&feedback.server) {
                self.touched.push(feedback.server);
            }
        }
        // From here the records are the supervisor's: whatever happens
        // to this worker, `inflight` says which ones the state still
        // owes. So the replies can go before the apply.
        self.inflight.begin(batches);
        for member in &members {
            member.ack.send(Ok(()));
        }
        for _ in &members {
            ctx.faults.after_journal();
        }
        self.members.extend(members);
    }

    /// Applies what the worker has acknowledged. When the apply makes a
    /// checkpoint due, the ingest commands that arrive while it is
    /// written are acknowledged meanwhile and applied after it.
    fn settle(&mut self, states: &mut HashMap<ServerId, ServerState>) {
        let ctx = self.ctx;
        while !self.members.is_empty() {
            self.apply(states);
            if checkpoint_due(ctx) {
                checkpoint(states, Some(self), ctx);
            }
        }
    }

    /// Applies everything `inflight` owes and tiers the servers it
    /// touched; nothing acknowledged is left unapplied.
    fn apply(&mut self, states: &mut HashMap<ServerId, ServerState>) {
        let ctx = self.ctx;
        self.inflight.apply_rest(states, ctx, |_| true);
        self.inflight.finish();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        {
            let mut published = ctx.published.lock();
            for server in &touched {
                if let (Some(state), Some(pv)) = (states.get(server), published.get_mut(server)) {
                    pv.latest_version = state.version();
                }
            }
        }
        let members = std::mem::take(&mut self.members);
        let applied = members.iter().map(|member| member.len).sum();
        ctx.metrics().add(ShardMetric::LastApplyVersion, applied);
        // Enqueue→apply latency, attributed to every feedback of every
        // member so the histogram count matches the `ingested` counter.
        let apply = ctx.obs.latency(LatencyPath::IngestApply);
        for member in &members {
            apply.record_n(member.enqueued_at.elapsed().as_nanos() as u64, member.len);
        }
        // Tier before checkpointing, so a checkpoint triggered by this
        // apply captures the compacted/spilled form (snapshots shrink
        // with compaction, and segment references are covered by the
        // snapshot that might reclaim their predecessors).
        self.inflight.folding = true;
        maybe_tier(states, &touched, ctx);
        self.inflight.folding = false;
    }
}

/// How often a worker waiting on a checkpoint's writer looks whether it
/// is done.
const CHECKPOINT_POLL: Duration = Duration::from_millis(1);

/// Takes a checkpoint. Every trigger calls this one routine: an apply
/// that makes one due, [`Command::Checkpoint`], the end of a drain and a
/// supervisor respawn. After the log-force, the snapshot of the state as
/// it stands is written on a scoped thread — the worker leaves the state
/// alone meanwhile. Given the `worker`, it journals and acknowledges the
/// ingest commands that arrive while the writer runs, for
/// [`Worker::settle`] to apply after it; a command of another kind ends
/// the acknowledging and is served after them, in queue order. Without
/// one, it waits for the writer. `None` when no snapshot was written.
pub(crate) fn checkpoint(
    states: &HashMap<ServerId, ServerState>,
    worker: Option<&mut Worker<'_>>,
    ctx: &ShardContext,
) -> Option<CheckpointInfo> {
    let force = force_log(ctx)?;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_checkpoint(states, &force, ctx));
        if let Some(worker) = worker {
            while worker.carry.is_none() && !writer.is_finished() {
                match worker.rx.recv_timeout(CHECKPOINT_POLL) {
                    Ok(Command::Ingest {
                        batch,
                        enqueued_at,
                        ack,
                    }) => worker.acknowledge(batch, enqueued_at, ack),
                    Ok(other) => *worker.carry = Some(other),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Appends a group's batches to the shard's journal, if it has one: one
/// write, and one fsync under `FsyncPolicy::EveryBatch`. `Err` says why
/// the journal refused them; the file holds none of them then.
fn journal_append(batches: &[Vec<Feedback>], ctx: &ShardContext) -> Result<(), String> {
    let Some(journal) = &ctx.journal else {
        return Ok(());
    };
    let mut journal = journal.lock();
    if ctx.faults.fail_append() {
        journal.fail_next_append();
    }
    let append_t0 = Instant::now();
    let info = journal
        .append_batches(batches)
        .map_err(|e| format!("journal append failed: {e}"))?;
    drop(journal);
    let append_ns = append_t0.elapsed().as_nanos() as u64;
    ctx.obs
        .latency(LatencyPath::JournalAppend)
        .record_ns(append_ns);
    let metrics = ctx.metrics();
    if info.synced {
        ctx.obs
            .latency(LatencyPath::JournalFsync)
            .record_ns(info.sync_ns);
        metrics.add(ShardMetric::JournalFsyncs, 1);
    }
    metrics.add(ShardMetric::JournalRecords, info.records);
    metrics.add(ShardMetric::JournalBytes, info.bytes);
    Ok(())
}

/// Stores `(hot suffix, spilled payload)` byte sums in the shard's
/// `hp_history_resident_bytes` gauges.
fn publish_tier_bytes(ctx: &ShardContext, (hot, spilled): (u64, u64)) {
    let metrics = ctx.metrics();
    metrics.set(ShardMetric::TierHotBytes, hot);
    metrics.set(ShardMetric::TierSpilledBytes, spilled);
}

/// Per-tier byte sums over a shard's states: `(hot suffix, spilled
/// payload)`.
fn tier_bytes(states: &HashMap<ServerId, ServerState>) -> (u64, u64) {
    let mut hot = 0;
    let mut spilled = 0;
    for state in states.values() {
        hot += state.suffix_bytes();
        if let Some((meta, _)) = state.spilled() {
            spilled += meta.bytes;
        }
    }
    (hot, spilled)
}

/// The tiering pass at an ingest-batch boundary: folds the touched
/// servers' histories past the horizon (only touched servers can newly
/// cross it — untouched ones don't grow), then enforces the spill budget
/// and publishes the per-tier residency sums it leaves.
fn maybe_tier(
    states: &mut HashMap<ServerId, ServerState>,
    touched: &[ServerId],
    ctx: &ShardContext,
) {
    let Some(tiering) = &ctx.tiering else { return };
    let mut folded = 0u64;
    for server in touched {
        if let Some(state) = states.get_mut(server) {
            ctx.faults.in_tiering();
            state.last_touch = tiering.tick();
            folded += state.compact(tiering.policy.horizon) as u64;
        }
    }
    if folded > 0 {
        ctx.metrics().add(ShardMetric::TierCompacted, folded);
    }
    let sums = enforce_spill_budget(states, ctx);
    debug_assert_eq!(sums, tier_bytes(states));
    publish_tier_bytes(ctx, sums);
}

/// Re-tiers every server: compaction for all, then the spill budget.
/// Used after a supervisor recovery — journal replay produces fully hot
/// states, so recovery must re-bound residency before the shard serves.
pub(crate) fn tier_all(states: &mut HashMap<ServerId, ServerState>, ctx: &ShardContext) {
    if ctx.tiering.is_none() {
        return;
    }
    let all: Vec<ServerId> = states.keys().copied().collect();
    maybe_tier(states, &all, ctx);
}

/// Evicts the coldest hot histories until the hot tier fits the spill
/// budget, writing all victims' payloads as one sealed segment. A failed
/// segment write is counted and skipped — the shard stays over budget
/// but correct, and the next batch boundary retries. Returns
/// [`tier_bytes`] as the evictions leave it, from the one walk over the
/// states this pass makes.
fn enforce_spill_budget(
    states: &mut HashMap<ServerId, ServerState>,
    ctx: &ShardContext,
) -> (u64, u64) {
    let unchanged = tier_bytes(states);
    let (hot_total, spilled_total) = unchanged;
    let Some(tiering) = &ctx.tiering else {
        return unchanged;
    };
    let (Some(budget), Some(cold)) = (tiering.policy.spill_budget_bytes, tiering.cold.as_ref())
    else {
        return unchanged;
    };
    if hot_total <= budget {
        return unchanged;
    }
    // Victim order: smallest last-touch tick first (least recently used).
    let mut victims: Vec<(u64, ServerId)> = states
        .iter()
        .filter(|(_, s)| !s.is_spilled())
        .map(|(id, s)| (s.last_touch, *id))
        .collect();
    victims.sort_unstable();
    let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut chosen: Vec<ServerId> = Vec::new();
    let (mut freed, mut written) = (0u64, 0u64);
    for (_, id) in victims {
        if hot_total - freed <= budget {
            break;
        }
        let state = &states[&id];
        freed += state.suffix_bytes();
        records.push((
            id.value(),
            state.history().expect("victims are hot").encode(),
        ));
        chosen.push(id);
    }
    if records.is_empty() {
        return unchanged;
    }
    let refs = match cold.lock().write_segment(&records) {
        Ok(refs) => refs,
        Err(_) => {
            ctx.metrics().add(ShardMetric::TierSpillFailures, 1);
            return unchanged;
        }
    };
    debug_assert_eq!(refs.len(), chosen.len());
    for ((id, segment), (_, payload)) in chosen.into_iter().zip(refs).zip(&records) {
        states
            .get_mut(&id)
            .expect("victim still in map")
            .evict(segment, payload.len() as u64);
        written += payload.len() as u64;
        ctx.metrics().add(ShardMetric::TierEvictions, 1);
    }
    (hot_total - freed, spilled_total + written)
}

/// Faults a spilled history back into memory before it is read or
/// written.
///
/// # Panics
///
/// Panics when the segment cannot produce the exact bytes that were
/// spilled (I/O error, torn write, checksum mismatch): the worker
/// unwinds to the supervisor, whose rebuild revalidates every segment
/// reference — a snapshot holding the bad reference is rejected and
/// recovery falls back to an older snapshot or full journal replay.
fn ensure_hot(server: ServerId, state: &mut ServerState, ctx: &ShardContext) {
    if !state.is_spilled() {
        return;
    }
    let (_, segment) = state.spilled().expect("spilled state has a segment");
    let tiering = ctx
        .tiering
        .as_ref()
        .expect("spilled state without tiering context");
    let cold = tiering
        .cold
        .as_ref()
        .expect("spilled state without a cold store");
    let payload = cold
        .lock()
        .fault(server.value(), &segment)
        .unwrap_or_else(|e| panic!("cold segment fault failed for {server}: {e}"));
    let history = TieredHistory::decode(&payload)
        .unwrap_or_else(|| panic!("cold segment payload for {server} failed validation"));
    state.restore(history);
    ctx.metrics().add(ShardMetric::TierFaults, 1);
}

/// Faults and checksum-verifies every spilled segment reference in
/// `states`, discarding the payloads. Returns false when any reference
/// cannot produce a valid history — including when the context has no
/// cold store to fault from (e.g. spilling was disabled across a
/// restart): the caller must reject the state rather than serve with
/// unreachable histories.
pub(crate) fn validate_spilled_refs(
    states: &HashMap<ServerId, ServerState>,
    ctx: &ShardContext,
) -> bool {
    for (server, state) in states {
        let Some((_, segment)) = state.spilled() else {
            continue;
        };
        let Some(cold) = ctx.tiering.as_ref().and_then(|t| t.cold.as_ref()) else {
            return false;
        };
        let Ok(payload) = cold.lock().fault(server.value(), &segment) else {
            return false;
        };
        if TieredHistory::decode(&payload).is_none() {
            return false;
        }
    }
    true
}

/// Whether `interval_records` records have been journalled past the
/// newest snapshot, so an automatic checkpoint is due.
fn checkpoint_due(ctx: &ShardContext) -> bool {
    let (Some(snaps), Some(journal)) = (&ctx.snapshots, &ctx.journal) else {
        return false;
    };
    let interval = snaps.policy.interval_records;
    let records = journal.lock().records();
    let last = snaps.store.lock().newest_offset().unwrap_or(0);
    interval > 0 && records.saturating_sub(last) >= interval
}

/// The log-force before a checkpoint, on the worker: the snapshot will
/// claim to cover journal offset N, the journal's record count now, and
/// the state must be the fold of exactly those records. With compaction
/// on, the live journal file is rolled into a sealed segment (two
/// renames, no copy, no fsync under `FsyncPolicy::Never`), so the
/// fsyncs that make the N records durable fall on a file no append
/// touches; either way they are left to [`write_checkpoint`], off the
/// worker. `None` without snapshots (which are validated to need a
/// durable journal) or when the roll fails.
fn force_log(ctx: &ShardContext) -> Option<LogForce> {
    let snaps = ctx.snapshots.as_ref()?;
    let mut journal = ctx.journal.as_ref()?.lock();
    let force = journal.force(snaps.policy.compact_journal);
    force
        .map_err(|_| ctx.metrics().add(ShardMetric::SnapshotFailures, 1))
        .ok()
}

/// Makes the records `force` covers durable — a snapshot that covers
/// records the journal could still lose would outlive them after a crash
/// — then writes the snapshot of `states`, their fold, and compacts the
/// journal if the policy allows: the sealed segments below the oldest
/// retained snapshot are deleted, whole, without the journal's lock.
/// Failures are counted, never panicked: a shard that cannot snapshot
/// still has its journal.
fn write_checkpoint(
    states: &HashMap<ServerId, ServerState>,
    force: &LogForce,
    ctx: &ShardContext,
) -> Option<CheckpointInfo> {
    let snaps = ctx.snapshots.as_ref()?;
    let journal = ctx.journal.as_ref()?;
    ctx.faults.before_log_sync();
    if force.sync().is_err() {
        ctx.metrics().add(ShardMetric::SnapshotFailures, 1);
        return None;
    }
    journal.lock().forced(force);
    let mut store = snaps.store.lock();
    match store.write(states, force.records) {
        Ok(bytes) => {
            let compacted = if snaps.policy.compact_journal {
                // Only up to the *oldest* retained snapshot, and only
                // with >= 2 retained: every candidate in the fallback
                // chain keeps a replayable tail.
                store
                    .compact_floor()
                    .and_then(|floor| crate::journal::compact(journal, floor).ok())
                    .unwrap_or(0)
            } else {
                0
            };
            ctx.metrics().add(ShardMetric::SnapshotsWritten, 1);
            ctx.metrics().add(ShardMetric::SnapshotBytes, bytes);
            // Reclaim cold segments nothing references any more: every
            // live segment reference is covered by the snapshot just
            // written (tiering runs before checkpointing), so segments
            // below the oldest retained snapshot's floor are dead. No
            // floor is known while any retained snapshot was found by the
            // directory scan rather than the manifest (its `min_seg` is
            // unknown) — reclamation simply waits it out.
            if let Some(tiering) = &ctx.tiering {
                if let (Some(cold), Some(floor)) = (&tiering.cold, store.segment_floor()) {
                    let _ = cold.lock().remove_below(floor);
                }
            }
            Some(CheckpointInfo { bytes, compacted })
        }
        Err(_) => {
            ctx.metrics().add(ShardMetric::SnapshotFailures, 1);
            None
        }
    }
}

/// Looks `server`'s state up for a run of its records (creating it on
/// first sight, faulting it back in when spilled), writing the mark of
/// the run's first record before anything changes. Shared by the live
/// ingest path and every replay so all are the same fold.
pub(crate) fn enter_run<'a>(
    states: &'a mut HashMap<ServerId, ServerState>,
    server: ServerId,
    ctx: &ShardContext,
    mark: &mut Option<Mark>,
) -> &'a mut ServerState {
    match states.entry(server) {
        std::collections::hash_map::Entry::Occupied(e) => {
            let state = e.into_mut();
            ensure_hot(server, state, ctx);
            *mark = Some(Mark::before(server, state));
            state
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            *mark = Some(Mark {
                server,
                prior: None,
            });
            // The model was validated at service start, so construction
            // cannot fail here.
            e.insert(ServerState::new(ctx.model).expect("validated trust model"))
        }
    }
}

fn assess_one(
    states: &mut HashMap<ServerId, ServerState>,
    server: ServerId,
    ctx: &ShardContext,
    queue_wait_ns: u64,
    trace: u64,
) -> AssessReply {
    let cal0 = hp_stats::thread_calibration_nanos();
    let t0 = Instant::now();
    let reply = match states.get_mut(&server) {
        Some(state) => {
            ctx.faults.in_assess();
            // A version-current cached verdict answers without the bits;
            // only a miss needs the history resident. The fault time (if
            // any) counts toward this assessment's compute latency.
            if state.is_spilled() && !state.cache_current() {
                ensure_hot(server, state, ctx);
            }
            let reply = state.assess(&ctx.test, ctx.policy);
            if let Ok((assessment, _)) = &reply {
                let version = state.version();
                ctx.published.lock().insert(
                    server,
                    PublishedVerdict {
                        assessment: Arc::clone(assessment),
                        computed_at_version: version,
                        latest_version: version,
                    },
                );
            }
            reply
        }
        // Unknown server: assess an empty history without permanently
        // allocating state for it (queries must not grow the map, and
        // must not grow the published cache either).
        None => {
            ServerState::new(ctx.model).and_then(|mut state| state.assess(&ctx.test, ctx.policy))
        }
    };
    // Every serve is a cache hit or a miss (a failed one is a miss), so
    // hits + misses = served + degraded holds by construction.
    let from_cache = matches!(reply, Ok((_, true)));
    let outcome = if from_cache {
        ShardMetric::CacheHits
    } else {
        ShardMetric::CacheMisses
    };
    ctx.metrics().add(ShardMetric::Served, 1);
    ctx.metrics().add(outcome, 1);
    let compute_ns = t0.elapsed().as_nanos() as u64;
    // Calibration wait is attributed to its own histogram so cold-start
    // threshold computation never pollutes the compute path's quantiles;
    // the timings keep the total so e2e = queue wait + compute holds.
    let calibration_ns = hp_stats::thread_calibration_nanos()
        .saturating_sub(cal0)
        .min(compute_ns);
    ctx.obs
        .latency(LatencyPath::AssessCompute)
        .record_ns_traced(compute_ns - calibration_ns, trace);
    if calibration_ns > 0 {
        ctx.obs
            .latency(LatencyPath::AssessCalibration)
            .record_ns_traced(calibration_ns, trace);
    }
    reply.map(|(assessment, _)| {
        (
            assessment,
            AssessTimings {
                queue_wait_ns,
                compute_ns,
                from_cache,
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::spawn_supervised_shard;
    use crossbeam::channel;
    use hp_core::{ClientId, Rating};

    /// Sends one ingest command and waits until the shard has taken it.
    fn ingest(handle: &ShardHandle, batch: Vec<Feedback>) {
        let (command, wait) = Command::ingest(batch);
        handle.tx.send(command).unwrap();
        assert!(matches!(wait.wait(None, &handle.idle), Acked::Taken));
    }

    fn spawn() -> (ShardHandle, Arc<MetricsRegistry>) {
        let obs = Arc::new(MetricsRegistry::new(1));
        let ctx = ShardContext::ephemeral(Arc::clone(&obs));
        let handle = spawn_supervised_shard(0, ctx);
        (handle, obs)
    }

    #[test]
    fn ingest_then_assess_sees_the_feedback() {
        let (handle, obs) = spawn();
        let server = ServerId::new(9);
        let batch: Vec<Feedback> = (0..250)
            .map(|t| {
                Feedback::new(
                    t,
                    server,
                    ClientId::new(t % 5),
                    Rating::from_good(t % 13 != 0),
                )
            })
            .collect();
        ingest(&handle, batch);
        let (reply_tx, reply_rx) = channel::unbounded();
        handle
            .tx
            .send(Command::assess(vec![server], reply_tx, 0))
            .unwrap();
        let (assessment, timings) = reply_rx.recv().unwrap().remove(0).unwrap();
        assert!(assessment.trust().is_some() || assessment.is_rejected());
        assert!(!timings.from_cache, "first assessment computes");
        assert!(timings.compute_ns > 0, "compute time is measured");

        let (snap_tx, snap_rx) = channel::unbounded();
        handle
            .tx
            .send(Command::Occupancy { reply: snap_tx })
            .unwrap();
        let snap = snap_rx.recv().unwrap();
        assert_eq!(snap.servers, 1);
        assert_eq!(snap.feedbacks, 250);

        // The verdict was published for degraded reads.
        let published = handle.published.lock();
        let pv = published.get(&server).expect("published verdict");
        assert_eq!(pv.computed_at_version, 250);
        assert_eq!(pv.latest_version, 250);
        drop(published);

        // The registry observed the work: enqueue→apply was attributed to
        // every feedback and the compute path recorded one serve.
        let snap = obs.snapshot();
        assert_eq!(snap.latency(LatencyPath::IngestApply).count, 250);
        assert_eq!(
            snap.latency(LatencyPath::JournalAppend).count,
            0,
            "no journal"
        );
        assert_eq!(snap.latency(LatencyPath::AssessCompute).count, 1);
        assert_eq!(snap.shards[0].get(ShardMetric::JournalRecords), 0);
        assert_eq!(snap.shards[0].get(ShardMetric::LastApplyVersion), 250);
        // Queue-wait attribution: the ingest and the assess both waited
        // (however briefly) in the shard queue, and the worker's busy
        // time is accounted toward utilization.
        assert_eq!(snap.queue_waits[0].count, 2);
        assert!(snap.utilizations[0] > 0.0);
    }

    #[test]
    fn unknown_server_not_tracked() {
        let (handle, _obs) = spawn();
        let (reply_tx, reply_rx) = channel::unbounded();
        handle
            .tx
            .send(Command::assess(vec![ServerId::new(404)], reply_tx, 0))
            .unwrap();
        assert!(reply_rx.recv().unwrap()[0].is_ok());
        let (snap_tx, snap_rx) = channel::unbounded();
        handle
            .tx
            .send(Command::Occupancy { reply: snap_tx })
            .unwrap();
        assert_eq!(snap_rx.recv().unwrap().servers, 0);
        assert!(handle.published.lock().is_empty());
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (mut handle, _obs) = spawn();
        handle.shutdown();
        assert!(handle.tx.send(Command::Shutdown).is_err() || handle.join.is_none());
    }

    #[test]
    fn ingest_updates_published_latest_version() {
        let (handle, _obs) = spawn();
        let server = ServerId::new(11);
        let batch = |from: u64, n: u64| -> Vec<Feedback> {
            (from..from + n)
                .map(|t| Feedback::new(t, server, ClientId::new(0), Rating::Positive))
                .collect()
        };
        ingest(&handle, batch(0, 120));
        let (reply_tx, reply_rx) = channel::unbounded();
        handle
            .tx
            .send(Command::assess(vec![server], reply_tx, 0))
            .unwrap();
        reply_rx.recv().unwrap().remove(0).unwrap();
        ingest(&handle, batch(120, 30));
        // Round-trip a snapshot so the ingest is surely applied.
        let (snap_tx, snap_rx) = channel::unbounded();
        handle
            .tx
            .send(Command::Occupancy { reply: snap_tx })
            .unwrap();
        snap_rx.recv().unwrap();
        let published = handle.published.lock();
        let pv = published.get(&server).unwrap();
        assert_eq!(pv.computed_at_version, 120);
        assert_eq!(pv.latest_version, 150, "ingest must advance staleness info");
    }
}
