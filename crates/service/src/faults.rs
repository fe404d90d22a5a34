//! Deterministic fault injection for chaos testing.
//!
//! Compiled into the service only with the `fault-injection` cargo
//! feature; without it every hook is a zero-sized no-op that the
//! optimizer deletes, so production builds pay nothing.
//!
//! A [`FaultPlan`] is attached to [`crate::ServiceConfig`] and describes
//! *deterministic* failures — no randomness, no timing races:
//!
//! * **panic at the Nth ingest command** on a chosen shard, fired once,
//!   *after* the command's batch is journaled but before it is applied
//!   (the worst-ordering crash: durable but not yet in memory);
//! * **poison feedback record**: applying a specific `(server, time)`
//!   feedback panics every time — including during replay — until the
//!   supervisor quarantines it;
//! * **mid-apply tear**: applying a specific `(server, time)` feedback
//!   panics *inside* the apply — after the history push and before the
//!   trust update — once, or every time until quarantined: the crash the
//!   rollback of an ephemeral shard's retained state exists for;
//! * **panic in an assessment / in a tiering pass**, each fired once: a
//!   crash with no record in flight, and a crash inside the one mutation
//!   that is not append-only;
//! * **delayed assessment replies**: the worker sleeps before answering,
//!   driving the deadline/degraded-answer path;
//! * **a failed journal append**: the Nth append on a chosen shard writes
//!   half its frames and fails as a full disk would, once — the typed
//!   refusal path of a durable shard;
//! * **a held log-force**: a checkpoint's writer waits at a
//!   [`CheckpointGate`] before its fsyncs until the test opens it — the
//!   stall the worker must keep acknowledging through.
//!
//! The chaos suites (`tests/chaos.rs`, `tests/recovery.rs`) assert that
//! under every plan the recovered service's verdicts stay bit-identical
//! to the offline assessor over the durable feedback sequence.

#![cfg_attr(not(feature = "fault-injection"), allow(dead_code))]

use hp_core::Feedback;
#[cfg(feature = "fault-injection")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a mid-apply panic leaves the record's server state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearPoint {
    /// The history holds the record, the trust state does not.
    AfterHistoryPush,
}

/// A deterministic plan of faults to inject into shard workers.
///
/// Only available with the `fault-injection` feature. All triggers are
/// optional and independent; the default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic on this shard index…
    pub panic_shard: Option<usize>,
    /// …when it journals its Nth ingest command (1-based), once. The
    /// panic fires after the batch is journaled but before it is applied,
    /// simulating a crash between the WAL write and the memory apply.
    pub panic_at_command: u64,
    /// Applying the feedback with this `(server raw id, time)` panics
    /// every time, including journal replay, until quarantined.
    pub poison: Option<(u64, u64)>,
    /// Sleep this long before serving each `Assess` command
    /// (stalling the whole shard, not just the reply).
    pub assess_delay: Option<Duration>,
    /// Applying the feedback with this `(server raw id, time)` panics
    /// part-way through, leaving its server's state torn at the
    /// [`TearPoint`].
    pub mid_apply: Option<(u64, u64, TearPoint)>,
    /// Whether [`FaultPlan::mid_apply`] fires on every application of the
    /// record (until it is quarantined) instead of only the first.
    pub mid_apply_persistent: bool,
    /// Panic inside the first assessment a worker computes, once.
    pub panic_in_assess: bool,
    /// Panic inside the first tiering pass that has a history to fold
    /// (compaction), once.
    pub panic_in_tiering: bool,
    /// The journal append `(shard, nth)` (1-based; one per group commit)
    /// writes half its frames, then fails with `StorageFull`, once.
    pub append_failure: Option<(usize, u64)>,
    /// Every checkpoint's writer waits at this gate, on every shard,
    /// before the fsyncs of its log-force, until the gate is opened.
    pub checkpoint_gate: Option<CheckpointGate>,
}

/// A gate shut until [`CheckpointGate::open`]: a checkpoint's writer
/// waits at it (see [`FaultPlan::checkpoint_gate`]). Clones share the
/// gate; two gates are equal when they are the same gate.
#[derive(Debug, Clone, Default)]
pub struct CheckpointGate(Arc<(Mutex<GateState>, Condvar)>);

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    reached: bool,
}

impl CheckpointGate {
    /// Opens the gate for good, releasing every writer waiting at it.
    pub fn open(&self) {
        self.update(|state| state.open = true);
    }

    /// Waits until a writer has reached the gate, for at most `bound`;
    /// returns whether one has.
    pub fn wait_reached(&self, bound: Duration) -> bool {
        let (lock, cv) = &*self.0;
        let state = lock.lock().unwrap_or_else(|e| e.into_inner());
        let waited = cv.wait_timeout_while(state, bound, |state| !state.reached);
        waited.unwrap_or_else(|e| e.into_inner()).0.reached
    }

    /// Marks the gate reached, then waits until it is open.
    fn pass(&self) {
        self.update(|state| state.reached = true);
        let (lock, cv) = &*self.0;
        let state = lock.lock().unwrap_or_else(|e| e.into_inner());
        let _open = cv.wait_while(state, |state| !state.open);
    }

    fn update(&self, change: impl FnOnce(&mut GateState)) {
        let (lock, cv) = &*self.0;
        change(&mut lock.lock().unwrap_or_else(|e| e.into_inner()));
        cv.notify_all();
    }
}

impl PartialEq for CheckpointGate {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CheckpointGate {}

impl FaultPlan {
    /// Plan that panics `shard` on its `nth` journaled ingest (1-based).
    #[must_use]
    pub fn panic_at(mut self, shard: usize, nth: u64) -> Self {
        self.panic_shard = Some(shard);
        self.panic_at_command = nth;
        self
    }

    /// Plan with a poison feedback record at `(server, time)`.
    #[must_use]
    pub fn with_poison(mut self, server: u64, time: u64) -> Self {
        self.poison = Some((server, time));
        self
    }

    /// Plan that panics once in the middle of applying `(server, time)`.
    #[must_use]
    pub fn with_mid_apply_panic(mut self, server: u64, time: u64, point: TearPoint) -> Self {
        self.mid_apply = Some((server, time, point));
        self
    }

    /// Makes the mid-apply panic fire on every application of its record.
    #[must_use]
    pub fn persistently(mut self) -> Self {
        self.mid_apply_persistent = true;
        self
    }

    /// Plan that panics once inside an assessment.
    #[must_use]
    pub fn with_assess_panic(mut self) -> Self {
        self.panic_in_assess = true;
        self
    }

    /// Plan that panics once inside a tiering pass.
    #[must_use]
    pub fn with_tiering_panic(mut self) -> Self {
        self.panic_in_tiering = true;
        self
    }

    /// Plan that delays every assessment reply by `delay`.
    #[must_use]
    pub fn with_assess_delay(mut self, delay: Duration) -> Self {
        self.assess_delay = Some(delay);
        self
    }

    /// Plan that fails `shard`'s `nth` journal append (1-based), once.
    #[must_use]
    pub fn with_append_failure(mut self, shard: usize, nth: u64) -> Self {
        self.append_failure = Some((shard, nth));
        self
    }

    /// Plan whose checkpoint writers wait at `gate` before their fsyncs.
    #[must_use]
    pub fn with_checkpoint_gate(mut self, gate: CheckpointGate) -> Self {
        self.checkpoint_gate = Some(gate);
        self
    }
}

/// Per-shard runtime fault state: the plan plus trigger bookkeeping that
/// must survive worker respawns (an `Arc` shared with the supervisor).
#[derive(Debug, Default)]
pub(crate) struct ShardFaults {
    #[cfg(feature = "fault-injection")]
    inner: Option<Arc<FaultRuntime>>,
}

#[cfg(feature = "fault-injection")]
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    shard: usize,
    commands_seen: AtomicU64,
    appends_seen: AtomicU64,
    panic_fired: AtomicBool,
    mid_apply_fired: AtomicBool,
    assess_fired: AtomicBool,
    tiering_fired: AtomicBool,
}

#[cfg(feature = "fault-injection")]
impl FaultRuntime {
    /// Panics the first time it is reached with `armed` set.
    fn panic_once(&self, armed: bool, fired: &AtomicBool, place: &str) {
        if armed && !fired.swap(true, Ordering::Relaxed) {
            panic!("fault injection: shard {} panicking in {place}", self.shard);
        }
    }
}

impl Clone for ShardFaults {
    fn clone(&self) -> Self {
        ShardFaults {
            #[cfg(feature = "fault-injection")]
            inner: self.inner.clone(),
        }
    }
}

impl ShardFaults {
    /// Fault state for shard `shard` under `plan` (`None` = no faults).
    #[cfg(feature = "fault-injection")]
    pub fn new(plan: Option<&FaultPlan>, shard: usize) -> Self {
        ShardFaults {
            inner: plan.map(|plan| {
                Arc::new(FaultRuntime {
                    plan: plan.clone(),
                    shard,
                    commands_seen: AtomicU64::new(0),
                    appends_seen: AtomicU64::new(0),
                    panic_fired: AtomicBool::new(false),
                    mid_apply_fired: AtomicBool::new(false),
                    assess_fired: AtomicBool::new(false),
                    tiering_fired: AtomicBool::new(false),
                })
            }),
        }
    }

    /// Fault state for shard `shard` of the service described by
    /// `config` — a no-op state unless the `fault-injection` feature is
    /// on *and* the config carries a plan.
    pub fn for_config(config: &crate::config::ServiceConfig, shard: usize) -> Self {
        #[cfg(feature = "fault-injection")]
        {
            ShardFaults::new(config.fault_plan(), shard)
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            let _ = (config, shard);
            ShardFaults::default()
        }
    }

    /// Called once per ingest command, after its batch is journaled;
    /// panics when the plan's one-shot command trigger is reached.
    #[inline]
    pub fn after_journal(&self) {
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            if rt.plan.panic_shard != Some(rt.shard) || rt.plan.panic_at_command == 0 {
                return;
            }
            let seen = rt.commands_seen.fetch_add(1, Ordering::Relaxed) + 1;
            if seen == rt.plan.panic_at_command && !rt.panic_fired.swap(true, Ordering::Relaxed) {
                panic!(
                    "fault injection: shard {} panicking at command {seen}",
                    rt.shard
                );
            }
        }
    }

    /// Called before each feedback is applied (live and replay); panics
    /// if the feedback is the plan's poison record.
    #[inline]
    pub fn before_apply(&self, feedback: &Feedback) {
        #[cfg(not(feature = "fault-injection"))]
        let _ = feedback;
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            if rt.plan.poison == Some((feedback.server.value(), feedback.time)) {
                panic!(
                    "fault injection: poison feedback s{} t{}",
                    feedback.server.value(),
                    feedback.time
                );
            }
        }
    }

    /// Called as a feedback is pushed onto its server's history: where
    /// the plan wants this application torn, if it does. The caller
    /// leaves the state at that point and panics.
    #[inline]
    pub fn mid_apply(&self, feedback: &Feedback) -> Option<TearPoint> {
        #[cfg(not(feature = "fault-injection"))]
        let _ = feedback;
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            if let Some((server, time, point)) = rt.plan.mid_apply {
                if (server, time) == (feedback.server.value(), feedback.time)
                    && (!rt.mid_apply_fired.swap(true, Ordering::Relaxed)
                        || rt.plan.mid_apply_persistent)
                {
                    return Some(point);
                }
            }
        }
        None
    }

    /// Called inside each computed assessment; panics once per the plan.
    #[inline]
    pub fn in_assess(&self) {
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            rt.panic_once(rt.plan.panic_in_assess, &rt.assess_fired, "an assessment");
        }
    }

    /// Called before each history a tiering pass folds; panics once per
    /// the plan.
    #[inline]
    pub fn in_tiering(&self) {
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            rt.panic_once(
                rt.plan.panic_in_tiering,
                &rt.tiering_fired,
                "a tiering pass",
            );
        }
    }

    /// Called before each journal append; true when the plan wants this
    /// one to fail.
    #[inline]
    pub fn fail_append(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            if let Some((shard, nth)) = rt.plan.append_failure {
                return shard == rt.shard
                    && rt.appends_seen.fetch_add(1, Ordering::Relaxed) + 1 == nth;
            }
        }
        false
    }

    /// Called by a checkpoint's writer before the fsyncs of its
    /// log-force; waits at the plan's gate while it is shut.
    #[inline]
    pub fn before_log_sync(&self) {
        #[cfg(feature = "fault-injection")]
        if let Some(gate) = self
            .inner
            .as_ref()
            .and_then(|rt| rt.plan.checkpoint_gate.as_ref())
        {
            gate.pass();
        }
    }

    /// Called before an assessment command is served; sleeps per the
    /// plan, stalling the worker with the command already dequeued.
    #[inline]
    pub fn before_reply(&self) {
        #[cfg(feature = "fault-injection")]
        if let Some(rt) = &self.inner {
            if let Some(delay) = rt.plan.assess_delay {
                std::thread::sleep(delay);
            }
        }
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use hp_core::{ClientId, Rating, ServerId};

    #[test]
    fn command_trigger_fires_once_on_its_shard() {
        let plan = FaultPlan::default().panic_at(1, 2);
        let faults = ShardFaults::new(Some(&plan), 1);
        faults.after_journal(); // command 1: no panic
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faults.after_journal()));
        assert!(panicked.is_err(), "command 2 must panic");
        faults.after_journal(); // one-shot: command 3 survives

        // A different shard never fires.
        let other = ShardFaults::new(Some(&plan), 0);
        for _ in 0..5 {
            other.after_journal();
        }
    }

    #[test]
    fn mid_apply_fires_once_unless_persistent() {
        let record = Feedback::new(3, ServerId::new(7), ClientId::new(0), Rating::Positive);
        let other = Feedback::new(4, ServerId::new(7), ClientId::new(0), Rating::Positive);
        let plan = FaultPlan::default().with_mid_apply_panic(7, 3, TearPoint::AfterHistoryPush);
        let faults = ShardFaults::new(Some(&plan), 0);
        assert_eq!(faults.mid_apply(&other), None);
        assert_eq!(faults.mid_apply(&record), Some(TearPoint::AfterHistoryPush));
        assert_eq!(faults.mid_apply(&record), None, "one-shot");
        let faults = ShardFaults::new(Some(&plan.persistently()), 0);
        for _ in 0..3 {
            assert_eq!(faults.mid_apply(&record), Some(TearPoint::AfterHistoryPush));
        }
    }

    #[test]
    fn poison_panics_on_exact_record_only() {
        let plan = FaultPlan::default().with_poison(7, 3);
        let faults = ShardFaults::new(Some(&plan), 0);
        let clean = Feedback::new(2, ServerId::new(7), ClientId::new(0), Rating::Positive);
        faults.before_apply(&clean);
        let poison = Feedback::new(3, ServerId::new(7), ClientId::new(0), Rating::Positive);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faults.before_apply(&poison)
        }));
        assert!(panicked.is_err());
    }
}
