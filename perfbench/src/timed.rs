//! Host-time spans for the traced run, recorded from outside the program.
//!
//! [`TimedPolicy`] forwards every [`Policy`] method to the policy under
//! test and times the ones that do scheduling work; [`drive_traced`]
//! replaces `Machine::run` with the same batched loop built from public
//! entry points (`EventQueue::pop_batch` / `take_batched` and
//! `Machine::handle`) and times each event by its [`Event`] kind. Spans
//! are aggregated in memory (count, total, self time) and read out when
//! the run ends.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use skyloft::machine::{Event, Machine};
use skyloft::task::{TaskId, TaskTable};
use skyloft::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
use skyloft_sim::{EventQueue, Nanos};

/// Event kinds the traced loop splits host time by, in report order.
pub const EVENT_KINDS: [&str; 11] = [
    "timer_fire",
    "ipi_arrive",
    "segment_done",
    "quantum_check",
    "start_core",
    "place_task",
    "rq_aqm_tick",
    "core_alloc_tick",
    "call",
    "recur",
    "chaos",
];

fn kind_of(ev: &Event) -> usize {
    match ev {
        Event::TimerFire { .. } => 0,
        Event::IpiArrive { .. } => 1,
        Event::SegmentDone { .. } => 2,
        Event::QuantumCheck { .. } => 3,
        Event::StartCore { .. } => 4,
        Event::PlaceTask { .. } => 5,
        Event::RqAqmTick => 6,
        Event::CoreAllocTick => 7,
        Event::Call(_) => 8,
        Event::Recur(_) => 9,
        #[allow(unreachable_patterns)]
        _ => 10,
    }
}

/// Timed policy operations, in report order. `other` collects the
/// remaining Table 2 operations (`task_init`, `task_terminate`,
/// `task_block`) so policy time is fully subtracted from handler self
/// time.
pub const POLICY_OPS: [&str; 11] = [
    "task_enqueue",
    "task_dequeue",
    "enqueue_batch",
    "pick_batch",
    "task_wakeup",
    "sched_timer_tick",
    "sched_balance",
    "sched_poll",
    "check_wakeup_preempt",
    "queue_delay",
    "other",
];

const ENQUEUE: usize = 0;
const DEQUEUE: usize = 1;
const ENQUEUE_BATCH: usize = 2;
const PICK_BATCH: usize = 3;
const WAKEUP: usize = 4;
const TIMER_TICK: usize = 5;
const BALANCE: usize = 6;
const POLL: usize = 7;
const WAKEUP_PREEMPT: usize = 8;
const QUEUE_DELAY: usize = 9;
const OTHER: usize = 10;

/// One span aggregate: how many spans, their total host time, and their
/// self time (total minus the time of child spans inside them).
#[derive(Default)]
pub struct Span {
    pub n: Cell<u64>,
    pub ns: Cell<u64>,
    pub self_ns: Cell<u64>,
}

impl Span {
    fn add(&self, ns: u64, self_ns: u64) {
        self.n.set(self.n.get() + 1);
        self.ns.set(self.ns.get() + ns);
        self.self_ns.set(self.self_ns.get() + self_ns);
    }
}

/// Every span aggregate of one traced run.
#[derive(Default)]
pub struct Prof {
    /// `EventQueue::pop_batch` calls (one per same-timestamp batch).
    pub pop: Span,
    /// Same-timestamp batches drained.
    pub batches: Cell<u64>,
    /// Largest pending-event count seen at a batch boundary.
    pub pending_max: Cell<u64>,
    /// Event handlers by [`EVENT_KINDS`] index; self time excludes the
    /// policy spans they contain.
    pub events: [Span; EVENT_KINDS.len()],
    /// Policy operations by [`POLICY_OPS`] index (leaf spans).
    pub ops: [Span; POLICY_OPS.len()],
    /// Running total of policy-op host time, read around each handler to
    /// get its child time.
    policy_ns: Cell<u64>,
}

impl Prof {
    fn op(&self, op: usize, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.ops[op].add(ns, ns);
        self.policy_ns.set(self.policy_ns.get() + ns);
    }
}

/// Runs `m` until `deadline` exactly as `Machine::run` does (same-timestamp
/// batches, claims redeemed in order), timing every pop and every handler.
/// Returns the number of events handled.
pub fn drive_traced(
    m: &mut Machine,
    q: &mut EventQueue<Event>,
    deadline: Nanos,
    prof: &Prof,
) -> u64 {
    let mut batch = Vec::new();
    let mut handled = 0;
    loop {
        let t0 = Instant::now();
        let at = q.pop_batch(deadline, &mut batch);
        let ns = t0.elapsed().as_nanos() as u64;
        prof.pop.add(ns, ns);
        if at.is_none() {
            break;
        }
        prof.batches.set(prof.batches.get() + 1);
        prof.pending_max
            .set(prof.pending_max.get().max(q.len() as u64));
        for claim in batch.drain(..) {
            let Some(ev) = q.take_batched(claim) else {
                continue;
            };
            let kind = kind_of(&ev);
            let child0 = prof.policy_ns.get();
            let t0 = Instant::now();
            m.handle(ev, q);
            let ns = t0.elapsed().as_nanos() as u64;
            let child = prof.policy_ns.get() - child0;
            prof.events[kind].add(ns, ns.saturating_sub(child));
            handled += 1;
        }
    }
    q.advance_to(deadline);
    handled
}

/// A forwarding [`Policy`] that times the policy under test. Every method
/// forwards, including the batch and wakeup entry points whose defaults
/// would otherwise bypass the inner policy's overrides; the traced-vs-
/// untraced outcome check holds it to that.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    prof: Rc<Prof>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>, prof: Rc<Prof>) -> Self {
        TimedPolicy { inner, prof }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn sched_init(&mut self, env: &SchedEnv) {
        self.inner.sched_init(env)
    }

    fn task_init(&mut self, tasks: &mut TaskTable, t: TaskId, now: Nanos) {
        let t0 = Instant::now();
        self.inner.task_init(tasks, t, now);
        self.prof.op(OTHER, t0);
    }

    fn task_terminate(&mut self, tasks: &mut TaskTable, t: TaskId, now: Nanos) {
        let t0 = Instant::now();
        self.inner.task_terminate(tasks, t, now);
        self.prof.op(OTHER, t0);
    }

    fn task_enqueue(
        &mut self,
        tasks: &mut TaskTable,
        t: TaskId,
        cpu_hint: Option<CoreId>,
        flags: EnqueueFlags,
        now: Nanos,
    ) {
        let t0 = Instant::now();
        self.inner.task_enqueue(tasks, t, cpu_hint, flags, now);
        self.prof.op(ENQUEUE, t0);
    }

    fn task_dequeue(&mut self, tasks: &mut TaskTable, cpu: CoreId, now: Nanos) -> Option<TaskId> {
        let t0 = Instant::now();
        let r = self.inner.task_dequeue(tasks, cpu, now);
        self.prof.op(DEQUEUE, t0);
        r
    }

    fn enqueue_batch(
        &mut self,
        tasks: &mut TaskTable,
        batch: &[(TaskId, Option<CoreId>, EnqueueFlags)],
        now: Nanos,
    ) {
        let t0 = Instant::now();
        self.inner.enqueue_batch(tasks, batch, now);
        self.prof.op(ENQUEUE_BATCH, t0);
    }

    fn pick_batch(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        max: usize,
        now: Nanos,
        out: &mut Vec<TaskId>,
    ) {
        let t0 = Instant::now();
        self.inner.pick_batch(tasks, cpu, max, now, out);
        self.prof.op(PICK_BATCH, t0);
    }

    fn task_block(&mut self, tasks: &mut TaskTable, t: TaskId, cpu: CoreId, now: Nanos) {
        let t0 = Instant::now();
        self.inner.task_block(tasks, t, cpu, now);
        self.prof.op(OTHER, t0);
    }

    fn task_wakeup(&mut self, tasks: &mut TaskTable, t: TaskId, hint: Option<CoreId>, now: Nanos) {
        let t0 = Instant::now();
        self.inner.task_wakeup(tasks, t, hint, now);
        self.prof.op(WAKEUP, t0);
    }

    fn sched_timer_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        current: TaskId,
        ran: Nanos,
        now: Nanos,
    ) -> bool {
        let t0 = Instant::now();
        let r = self.inner.sched_timer_tick(tasks, cpu, current, ran, now);
        self.prof.op(TIMER_TICK, t0);
        r
    }

    fn sched_balance(&mut self, tasks: &mut TaskTable, cpu: CoreId, now: Nanos) -> Option<TaskId> {
        let t0 = Instant::now();
        let r = self.inner.sched_balance(tasks, cpu, now);
        self.prof.op(BALANCE, t0);
        r
    }

    fn sched_poll(
        &mut self,
        tasks: &mut TaskTable,
        idle_workers: &[CoreId],
        now: Nanos,
        out: &mut Vec<(CoreId, TaskId)>,
    ) {
        let t0 = Instant::now();
        self.inner.sched_poll(tasks, idle_workers, now, out);
        self.prof.op(POLL, t0);
    }

    fn quantum(&self) -> Option<Nanos> {
        self.inner.quantum()
    }

    fn check_wakeup_preempt(
        &mut self,
        tasks: &TaskTable,
        woken: TaskId,
        cpu: CoreId,
        current: TaskId,
        ran: Nanos,
        now: Nanos,
    ) -> bool {
        let t0 = Instant::now();
        let r = self
            .inner
            .check_wakeup_preempt(tasks, woken, cpu, current, ran, now);
        self.prof.op(WAKEUP_PREEMPT, t0);
        r
    }

    fn queue_delay(&self, tasks: &TaskTable, now: Nanos) -> Option<Nanos> {
        let t0 = Instant::now();
        let r = self.inner.queue_delay(tasks, now);
        self.prof.op(QUEUE_DELAY, t0);
        r
    }

    fn queue_len(&self) -> Option<usize> {
        self.inner.queue_len()
    }
}
