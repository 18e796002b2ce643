//! Deterministic fault injection and recovery (the "chaos" layer).
//!
//! Skyloft's correctness rests on fragile per-event disciplines: the §3.2
//! SN-armed-PIR timer trick silently degrades to run-to-completion if a
//! single self-IPI is lost, the Single Binding Rule dies with a stalled
//! kernel thread, and §6's blocking events take a core out mid-request.
//! This module makes those failure modes *first-class and reproducible*:
//!
//! * A seeded [`FaultPlan`] describes which faults to inject — dropped or
//!   delayed timer-arming self-IPIs, dropped/delayed preempt and revoke
//!   IPIs, page faults of running kernel threads, execution stalls of
//!   whole cores. Plans draw from their own deterministic RNG
//!   ([`ChaosEngine`]), so a `(machine seed, plan seed)` pair replays
//!   bit-identically.
//! * The recovery half (one switch, [`Machine::recovery`]) is the framework
//!   learning to survive them: a watchdog that re-arms a lost §3.2 arming
//!   and migrates the runqueue of a stalled worker, bounded
//!   retry-with-backoff on §5.2 revoke IPIs, and end-to-end wiring of the
//!   §6 [`FaultMonitor`] so a page fault parks the thread and a substitute
//!   application's thread takes the core mid-run.
//!
//! Injection happens at the existing `Machine::handle` choke points, and
//! every recovery action flows through the `trace` layer, so the runtime
//! invariant checker validates the machine *through* each fault, not just
//! around it. Nothing fires until [`Machine::install_fault_plan`] is
//! called: a machine without a plan schedules no chaos event and takes no
//! fault branch, so its event stream is exactly that of a fault-free
//! machine.
//!
//! [`FaultMonitor`]: skyloft_kmod::FaultMonitor

use skyloft_hw::CoreId;
use skyloft_kmod::{KthreadState, Tid};
use skyloft_sim::{Distribution, EventQueue, Nanos, Rng};

use crate::conf::PreemptMechanism;
use crate::machine::{CoreRole, Event, IpiPurpose, Machine};
use crate::ops::{EnqueueFlags, PolicyKind};
use crate::task::{AppId, TaskId, TaskState};
use crate::trace::TraceKind;

/// Period of the recovery watchdog that scans worker cores for a lost
/// §3.2 arming (empty PIR) and for stalled workers. It models a monitor
/// thread on a non-isolated core, so its scans cost the workers nothing.
const WATCHDOG_PERIOD: Nanos = Nanos::from_us(25);
/// Minimum no-progress window before a busy worker counts as stalled
/// (scaled up on slow-tick platforms; see `Machine::stall_threshold`).
const STALL_DETECT_AFTER: Nanos = Nanos::from_us(100);
/// How long after sending a §5.2 revoke IPI the allocator waits for the
/// grant state to clear before resending (doubling on each resend).
const REVOKE_RETRY_TIMEOUT: Nanos = Nanos::from_us(5);
/// Revoke resends before the allocator abandons the cycle and lets a
/// later congestion tick start over.
const REVOKE_RETRY_BUDGET: u32 = 3;

/// A recurring injected fault: occurrences arrive as a Poisson process
/// with the given mean interval, each lasting `duration`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeriodicFault {
    /// Mean gap between occurrences (exponentially distributed).
    pub mean_interval: Nanos,
    /// How long each occurrence lasts.
    pub duration: Nanos,
}

/// A seeded, deterministic description of which faults to inject.
///
/// All probabilities are per-opportunity: `drop_arming_p` is evaluated at
/// every delivered user-timer interrupt, the IPI knobs at every sent
/// preempt/revoke notification. The default plan injects nothing (useful
/// to enable the recovery machinery without faults).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injection RNG (independent of the machine seed).
    pub seed: u64,
    /// Probability that the §3.2 handler's re-arm self-IPI is lost before
    /// reaching the PIR (evaluated per delivered timer interrupt).
    pub drop_arming_p: f64,
    /// Probability that a preempt IPI notification is lost in the fabric.
    pub drop_preempt_p: f64,
    /// With probability `.0`, delay a preempt IPI by `.1`.
    pub delay_preempt: Option<(f64, Nanos)>,
    /// Probability that a §5.2 revoke IPI notification is lost.
    pub drop_revoke_p: f64,
    /// With probability `.0`, delay a revoke IPI by `.1`.
    pub delay_revoke: Option<(f64, Nanos)>,
    /// Page-fault a running kernel thread on a random worker (§6).
    pub page_fault: Option<PeriodicFault>,
    /// Stall a random busy worker (SMI / host-interference model).
    pub stall: Option<PeriodicFault>,
    /// Probability that an RX-ring poll visit is skipped entirely
    /// (evaluated per poll round; models a distracted polling core).
    pub drop_rx_poll_p: f64,
    /// With probability `.0`, add `.1` of latency to a poll round's
    /// drained batch before hand-off to the workers.
    pub delay_rx_poll: Option<(f64, Nanos)>,
    /// Periodically wedge an RSS indirection-table entry onto a fixed
    /// ring for the fault's duration (models a stuck NIC redirection
    /// update), concentrating load on one RX ring.
    pub stuck_indirection: Option<PeriodicFault>,
    /// Scope core-level faults (arming drops, IPI drops/delays, page
    /// faults, stalls) to cores whose *active application* is this one;
    /// `None` (the default) injects machine-wide. Scoping is
    /// draw-then-filter: the injection RNG is consumed exactly as in an
    /// unscoped run and only the fault's *effect* is suppressed on
    /// non-matching cores, so adding a scope never perturbs the fault
    /// schedule other apps would have seen — the RNG-neutrality the
    /// replay tests in `tests/chaos.rs` pin down. Data-plane faults
    /// (RX-poll drops/delays, indirection sticks) hit the shared NIC and
    /// are deliberately *not* scoped.
    pub target_app: Option<AppId>,
}

impl FaultPlan {
    /// An empty plan drawing from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the arming-drop probability.
    pub fn drop_arming(mut self, p: f64) -> Self {
        self.drop_arming_p = p;
        self
    }

    /// Sets the preempt-IPI drop probability.
    pub fn drop_preempt(mut self, p: f64) -> Self {
        self.drop_preempt_p = p;
        self
    }

    /// Delays preempt IPIs by `d` with probability `p`.
    pub fn delay_preempt(mut self, p: f64, d: Nanos) -> Self {
        self.delay_preempt = Some((p, d));
        self
    }

    /// Sets the revoke-IPI drop probability.
    pub fn drop_revoke(mut self, p: f64) -> Self {
        self.drop_revoke_p = p;
        self
    }

    /// Delays revoke IPIs by `d` with probability `p`.
    pub fn delay_revoke(mut self, p: f64, d: Nanos) -> Self {
        self.delay_revoke = Some((p, d));
        self
    }

    /// Page-faults a random running kernel thread for `duration`, at mean
    /// intervals of `mean_interval`.
    pub fn page_faults(mut self, mean_interval: Nanos, duration: Nanos) -> Self {
        self.page_fault = Some(PeriodicFault {
            mean_interval,
            duration,
        });
        self
    }

    /// Stalls a random busy worker for `duration`, at mean intervals of
    /// `mean_interval`.
    pub fn stalls(mut self, mean_interval: Nanos, duration: Nanos) -> Self {
        self.stall = Some(PeriodicFault {
            mean_interval,
            duration,
        });
        self
    }

    /// Sets the RX-poll drop probability (whole poll visits skipped).
    pub fn drop_rx_polls(mut self, p: f64) -> Self {
        self.drop_rx_poll_p = p;
        self
    }

    /// Delays an RX poll round's hand-off by `d` with probability `p`.
    pub fn delay_rx_polls(mut self, p: f64, d: Nanos) -> Self {
        self.delay_rx_poll = Some((p, d));
        self
    }

    /// Wedges an RSS indirection entry for `duration`, at mean intervals
    /// of `mean_interval`.
    pub fn stuck_indirections(mut self, mean_interval: Nanos, duration: Nanos) -> Self {
        self.stuck_indirection = Some(PeriodicFault {
            mean_interval,
            duration,
        });
        self
    }

    /// Scopes core-level faults to cores actively running `app` (see
    /// [`FaultPlan::target_app`] for the exact semantics).
    pub fn scope_to_app(mut self, app: AppId) -> Self {
        self.target_app = Some(app);
        self
    }
}

/// Counters of faults actually injected while a plan ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosStats {
    /// §3.2 re-arm self-IPIs dropped.
    pub armings_dropped: u64,
    /// Preempt IPI notifications dropped.
    pub preempts_dropped: u64,
    /// Preempt IPI notifications delayed.
    pub preempts_delayed: u64,
    /// Revoke IPI notifications dropped.
    pub revokes_dropped: u64,
    /// Revoke IPI notifications delayed.
    pub revokes_delayed: u64,
    /// Page faults injected into running kernel threads.
    pub page_faults_injected: u64,
    /// Core stalls injected.
    pub stalls_injected: u64,
    /// RX-ring poll visits skipped.
    pub rx_polls_dropped: u64,
    /// RX poll rounds delayed before hand-off.
    pub rx_polls_delayed: u64,
    /// RSS indirection-table entries wedged.
    pub indirection_sticks: u64,
}

/// An installed [`FaultPlan`] plus its RNG and injection counters.
#[derive(Clone, Debug)]
pub struct ChaosEngine {
    /// The plan being executed.
    pub plan: FaultPlan,
    /// What was injected so far.
    pub stats: ChaosStats,
    rng: Rng,
    /// When the next indirection-stick fires (lazily drawn: the data
    /// plane is poller-driven, not event-driven, so the schedule advances
    /// only as polls ask).
    next_indirection_stick: Option<Nanos>,
}

impl ChaosEngine {
    /// Builds an engine for `plan`, seeding the injection RNG from it.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosEngine {
            rng: Rng::seed_from_u64(plan.seed ^ 0xC4A0_5BAD),
            plan,
            stats: ChaosStats::default(),
            next_indirection_stick: None,
        }
    }
}

/// Chaos-layer simulation events, wrapped as [`Event::Chaos`].
#[derive(Clone, Copy, Debug)]
pub enum ChaosEvent {
    /// Periodic recovery scan: re-arm lost §3.2 armings, detect stalled
    /// workers (models a monitor thread on a non-isolated core).
    Watchdog,
    /// Injector tick: page-fault a random running kernel thread.
    PageFaultTick,
    /// Injector tick: stall a random busy worker.
    StallTick,
    /// An injected page fault resolved (the userfaultfd monitor served the
    /// page); the blocked thread becomes parked again.
    FaultResolve {
        /// Core the faulted thread is bound to.
        core: CoreId,
        /// The faulted kernel thread.
        tid: Tid,
    },
    /// Bounded-retry timer for an in-flight §5.2 revoke.
    RevokeRetry {
        /// Core being revoked.
        core: CoreId,
        /// Revoke-cycle generation (stale retries are ignored).
        epoch: u32,
        /// Resends performed so far.
        attempt: u32,
    },
}

impl Machine {
    /// Installs a fault plan. Must be called before [`Machine::start`];
    /// starting a machine with a plan installed also activates the
    /// recovery machinery unless [`Machine::recovery`] is off (set
    /// `recovery = false` to watch the faults run their course).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert!(!self.started, "install fault plans before start()");
        self.chaos = Some(ChaosEngine::new(plan));
    }

    /// Whether core `core`'s §3.2 arming is currently known-lost to an
    /// injected fault (the invariant checker tolerates an empty PIR only
    /// in this state).
    pub fn core_arming_lost(&self, core: CoreId) -> bool {
        self.cores[core].arming_lost
    }

    /// Schedules the chaos machinery at start time. Nothing is scheduled
    /// without an installed plan, so plan-free machines process exactly
    /// the event stream of a machine without the fault layer.
    pub(crate) fn chaos_start(&mut self, q: &mut EventQueue<Event>) {
        if self.chaos.is_none() {
            return;
        }
        let watchdog_useful = matches!(self.plat.mech, PreemptMechanism::UserTimer { .. })
            || self.policy.kind() == PolicyKind::PerCpu;
        if self.recovery && watchdog_useful {
            q.schedule_after(WATCHDOG_PERIOD, Event::Chaos(ChaosEvent::Watchdog));
        }
        let eng = self.chaos.as_mut().expect("plan installed");
        if let Some(pf) = eng.plan.page_fault {
            let gap = Distribution::Exponential(pf.mean_interval).sample(&mut eng.rng);
            q.schedule_after(gap.max(Nanos(1)), Event::Chaos(ChaosEvent::PageFaultTick));
        }
        if let Some(st) = eng.plan.stall {
            let gap = Distribution::Exponential(st.mean_interval).sample(&mut eng.rng);
            q.schedule_after(gap.max(Nanos(1)), Event::Chaos(ChaosEvent::StallTick));
        }
    }

    /// Dispatches a chaos event to its handler.
    pub(crate) fn on_chaos_event(&mut self, ev: ChaosEvent, q: &mut EventQueue<Event>) {
        match ev {
            ChaosEvent::Watchdog => self.on_watchdog(q),
            ChaosEvent::PageFaultTick => self.on_page_fault_tick(q),
            ChaosEvent::StallTick => self.on_stall_tick(q),
            ChaosEvent::FaultResolve { core, tid } => self.on_fault_resolve(q, core, tid),
            ChaosEvent::RevokeRetry {
                core,
                epoch,
                attempt,
            } => self.on_revoke_retry(q, core, epoch, attempt),
        }
    }

    // ------------------------------------------------------------------
    // Injection hooks (called from the machine's event handlers)
    // ------------------------------------------------------------------

    /// Whether `core` is outside the plan's fault scope: a `target_app`
    /// is set and the core is not actively running it. Scoped-out cores
    /// still consume the same injection RNG draws (draw-then-filter);
    /// only the fault's effect is suppressed.
    fn chaos_scoped_out(&self, core: CoreId) -> bool {
        match self.chaos.as_ref().and_then(|e| e.plan.target_app) {
            Some(app) => self.cores[core].cur_app != Some(app),
            None => false,
        }
    }

    /// Whether the §3.2 handler's re-arm self-IPI should be dropped now.
    /// Marks the core's arming as lost so the watchdog (and the invariant
    /// checker's budget) know the empty PIR is an injected state.
    pub(crate) fn chaos_drop_arming(&mut self, core: CoreId) -> bool {
        let scoped_out = self.chaos_scoped_out(core);
        let Some(eng) = self.chaos.as_mut() else {
            return false;
        };
        if !eng.rng.chance(eng.plan.drop_arming_p) {
            return false;
        }
        if scoped_out {
            return false;
        }
        eng.stats.armings_dropped += 1;
        self.cores[core].arming_lost = true;
        true
    }

    /// Fate of a preempt/revoke notification to `core`: `None` means the
    /// fabric lost it (any posted PIR bit stays set, but the core is never
    /// interrupted); `Some(d)` adds `d` of extra delivery latency. Both
    /// chance draws happen before the scope filter so scoped plans stay
    /// RNG-aligned with unscoped ones.
    pub(crate) fn chaos_ipi_extra_delay(
        &mut self,
        core: CoreId,
        purpose: IpiPurpose,
    ) -> Option<Nanos> {
        let scoped_out = self.chaos_scoped_out(core);
        let Some(eng) = self.chaos.as_mut() else {
            return Some(Nanos::ZERO);
        };
        let (drop_p, delay) = match purpose {
            IpiPurpose::Preempt => (eng.plan.drop_preempt_p, eng.plan.delay_preempt),
            IpiPurpose::Revoke => (eng.plan.drop_revoke_p, eng.plan.delay_revoke),
        };
        if eng.rng.chance(drop_p) {
            if scoped_out {
                return Some(Nanos::ZERO);
            }
            match purpose {
                IpiPurpose::Preempt => eng.stats.preempts_dropped += 1,
                IpiPurpose::Revoke => eng.stats.revokes_dropped += 1,
            }
            return None;
        }
        if let Some((p, d)) = delay {
            if eng.rng.chance(p) {
                if scoped_out {
                    return Some(Nanos::ZERO);
                }
                match purpose {
                    IpiPurpose::Preempt => eng.stats.preempts_delayed += 1,
                    IpiPurpose::Revoke => eng.stats.revokes_delayed += 1,
                }
                return Some(d);
            }
        }
        Some(Nanos::ZERO)
    }

    /// Fate of one RX-ring poll visit: `None` skips the visit entirely
    /// (the ring keeps aging), `Some(d)` proceeds with `d` of extra
    /// hand-off latency (`ZERO` normally). When the data-plane knobs are
    /// unset this returns without touching the injection RNG, so plans
    /// written before these knobs existed replay bit-identically.
    pub fn chaos_rx_poll_fate(&mut self) -> Option<Nanos> {
        let Some(eng) = self.chaos.as_mut() else {
            return Some(Nanos::ZERO);
        };
        if eng.plan.drop_rx_poll_p == 0.0 && eng.plan.delay_rx_poll.is_none() {
            return Some(Nanos::ZERO);
        }
        if eng.rng.chance(eng.plan.drop_rx_poll_p) {
            eng.stats.rx_polls_dropped += 1;
            return None;
        }
        if let Some((p, d)) = eng.plan.delay_rx_poll {
            if eng.rng.chance(p) {
                eng.stats.rx_polls_delayed += 1;
                return Some(d);
            }
        }
        Some(Nanos::ZERO)
    }

    /// Asks whether an RSS indirection-stick fault fires at `now`; if so,
    /// returns how long the wedged entry should stay stuck. Poller-driven
    /// (the NIC lives outside this crate), so the Poisson schedule is
    /// drawn lazily on first call and advanced per firing. Consumes no
    /// RNG when the knob is unset.
    pub fn chaos_indirection_stick(&mut self, now: Nanos) -> Option<Nanos> {
        let eng = self.chaos.as_mut()?;
        let si = eng.plan.stuck_indirection?;
        let next = match eng.next_indirection_stick {
            Some(t) => t,
            None => {
                let gap = Distribution::Exponential(si.mean_interval).sample(&mut eng.rng);
                let t = now + gap.max(Nanos(1));
                eng.next_indirection_stick = Some(t);
                t
            }
        };
        if now < next {
            return None;
        }
        let gap = Distribution::Exponential(si.mean_interval).sample(&mut eng.rng);
        eng.next_indirection_stick = Some(now + gap.max(Nanos(1)));
        eng.stats.indirection_sticks += 1;
        Some(si.duration)
    }

    /// If `core` is inside an injected stall, the instant it resumes.
    pub(crate) fn stall_resume_at(&self, core: CoreId, now: Nanos) -> Option<Nanos> {
        let until = self.cores[core].stalled_until;
        (until > now).then_some(until)
    }

    /// Records a progress heartbeat for `core` (tick processed, task
    /// switched in, segment completed) — the watchdog's stall signal.
    pub(crate) fn note_progress(&mut self, core: CoreId, now: Nanos) {
        self.cores[core].last_progress = now;
    }

    /// Whether application `app` can take core `core` right now: either
    /// its kernel thread is already active there, or it is parked and
    /// wakeable/switchable (not fault-blocked).
    pub(crate) fn kthread_ready(&self, core: CoreId, app: AppId) -> bool {
        let c = &self.cores[core];
        if c.cur_app == Some(app) {
            return true;
        }
        match c.kthreads.get(app) {
            Some(&tid) => matches!(
                self.kmod.kthread(tid).map(|t| t.state),
                Ok(KthreadState::Inactive)
            ),
            None => false,
        }
    }

    /// Whether the centralized dispatcher may place work on `core`: cores
    /// with an unresolved fault-blocked thread are skipped (conservative —
    /// the §6 substitute may still run its own app's queued work through
    /// the per-core loop).
    pub(crate) fn core_usable(&self, core: CoreId) -> bool {
        self.kmod.fault_blocked_on(core).is_none()
    }

    /// Dequeue-side readiness filter for the per-CPU loop: skips tasks
    /// whose application cannot take `core` right now (its kernel thread
    /// is fault-blocked), re-queueing them for after resolution. A no-op
    /// without an installed plan.
    pub(crate) fn filter_ready(
        &mut self,
        core: CoreId,
        first: Option<TaskId>,
        now: Nanos,
    ) -> Option<TaskId> {
        if self.chaos.is_none() {
            return first;
        }
        let mut skipped = Vec::new();
        let mut cand = first;
        while let Some(t) = cand {
            if self.kthread_ready(core, self.tasks.get(t).app) {
                break;
            }
            skipped.push(t);
            cand = self.policy.task_dequeue(&mut self.tasks, core, now);
        }
        for t in skipped {
            self.policy
                .task_enqueue(&mut self.tasks, t, Some(core), EnqueueFlags::Preempted, now);
            self.dispatch_gen += 1;
        }
        cand
    }

    /// Arms the bounded revoke-retry timer after the §5.2 allocator sends
    /// a revoke IPI. Retries only run while a fault plan is installed (the
    /// only source of lost revokes in this simulated world).
    pub(crate) fn after_revoke_sent(&mut self, q: &mut EventQueue<Event>, core: CoreId) {
        if self.chaos.is_none() || !self.recovery {
            return;
        }
        let epoch = self.cores[core].revoke_epoch.wrapping_add(1);
        self.cores[core].revoke_epoch = epoch;
        q.schedule_after(
            REVOKE_RETRY_TIMEOUT,
            Event::Chaos(ChaosEvent::RevokeRetry {
                core,
                epoch,
                attempt: 0,
            }),
        );
    }

    // ------------------------------------------------------------------
    // Direct injection (also used by the periodic injector ticks)
    // ------------------------------------------------------------------

    /// Page-faults the kernel thread active on `core` (§6 blocking event):
    /// the running task is frozen and re-enqueued, the thread blocks in
    /// the kernel, and — if another application has a parked thread on the
    /// core — the [`FaultMonitor`] wakes it as a substitute. The fault
    /// resolves after `duration`. Returns whether a fault was injected
    /// (`false` when the core has no active thread or is mid-stall).
    ///
    /// [`FaultMonitor`]: skyloft_kmod::FaultMonitor
    pub fn inject_page_fault(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        duration: Nanos,
    ) -> bool {
        let now = q.now();
        if core >= self.cores.len() || self.cores[core].role != CoreRole::Worker {
            return false;
        }
        if self.stall_resume_at(core, now).is_some() {
            return false;
        }
        let Some(app) = self.cores[core].cur_app else {
            return false;
        };
        let tid = self.cores[core].kthreads[app];
        if self.kmod.kthread(tid).map(|t| t.state) != Ok(KthreadState::Active) {
            return false;
        }

        // Freeze whatever is running: the kernel thread is about to leave
        // the runnable set mid-segment.
        let stopped = self.cores[core].current.take();
        self.refresh_idle(core);
        if let Some(t) = stopped {
            self.cancel_completion(q, core);
            self.close_busy(now, core);
            let remaining = self.cores[core].seg_end.saturating_sub(now);
            let task = self.tasks.get_mut(t);
            let executed = task.remaining.saturating_sub(remaining);
            task.total_ran += executed;
            task.remaining = remaining;
            task.state = TaskState::Runnable;
            task.preempt_count += 1;
            task.runnable_since = now;
        }

        let sub = self
            .fault_monitor
            .on_fault(&mut self.kmod, tid)
            .expect("fault preconditions checked above");
        self.stats.fault_blocks += 1;
        self.trace_emit(now, Some(core), stopped, TraceKind::FaultBlock);
        match sub {
            Some(s) => {
                let sub_app = self.kmod.kthread(s).expect("substitute exists").app;
                self.cores[core].cur_app = Some(sub_app);
                self.stats.fault_substitutions += 1;
            }
            None => self.cores[core].cur_app = None,
        }
        // The frozen task goes back to the queues; the readiness guards
        // keep it from being run while its kernel thread is blocked.
        if let Some(t) = stopped {
            if Some(t) != self.cores[core].be_task {
                self.enqueue_task(q, t, EnqueueFlags::Preempted, None, None);
            }
            // A BE spin task stays machine-managed and parked-in-place.
        }
        // Let the substitute look for runnable work of its own.
        if sub.is_some() && self.cores[core].is_idle() {
            self.schedule_loop(q, core, Nanos::ZERO);
        }
        q.schedule_after(
            duration,
            Event::Chaos(ChaosEvent::FaultResolve { core, tid }),
        );
        true
    }

    /// Stalls `core` for `duration`: the current segment is extended and
    /// timer/IPI processing is suppressed until the stall ends (SMI or
    /// host-interference model). Returns whether a stall was injected
    /// (`false` on an idle or already-stalled core).
    pub fn inject_stall(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        duration: Nanos,
    ) -> bool {
        let now = q.now();
        if core >= self.cores.len() || self.cores[core].role != CoreRole::Worker {
            return false;
        }
        if self.cores[core].current.is_none() || self.stall_resume_at(core, now).is_some() {
            return false;
        }
        self.cores[core].stalled_until = now + duration;
        self.delay_current(q, core, duration);
        true
    }

    // ------------------------------------------------------------------
    // Recovery handlers
    // ------------------------------------------------------------------

    /// The periodic recovery scan: re-arm workers whose PIR an injected
    /// drop emptied, and migrate the runqueues of workers that stopped
    /// making progress. Runs only with [`Machine::recovery`] on.
    fn on_watchdog(&mut self, q: &mut EventQueue<Event>) {
        q.schedule_after(WATCHDOG_PERIOD, Event::Chaos(ChaosEvent::Watchdog));
        let now = q.now();
        if matches!(self.plat.mech, PreemptMechanism::UserTimer { .. }) {
            for i in 0..self.worker_cores.len() {
                let core = self.worker_cores[i];
                let Some(upid) = self.cores[core].upid else {
                    continue;
                };
                if self.uintr.pir_armed(upid) {
                    continue;
                }
                let arm = self.cores[core]
                    .arm_entry
                    .expect("UserTimer worker is configured");
                self.uintr.senduipi(arm);
                self.cores[core].arming_lost = false;
                self.stats.timer_rearms += 1;
                self.trace_emit(
                    now,
                    Some(core),
                    self.cores[core].current,
                    TraceKind::TimerRearm,
                );
            }
        }
        if self.policy.kind() == PolicyKind::PerCpu {
            for i in 0..self.worker_cores.len() {
                let core = self.worker_cores[i];
                let Some(threshold) = self.stall_threshold(core) else {
                    continue;
                };
                if self.cores[core].current.is_none() {
                    continue;
                }
                if now.saturating_sub(self.cores[core].last_progress) <= threshold {
                    continue;
                }
                self.migrate_runqueue(q, core, now);
            }
        }
    }

    /// No-progress window after which a busy worker counts as stalled:
    /// at least [`STALL_DETECT_AFTER`], scaled up on slow-tick platforms so
    /// a healthy worker between ticks is never misdiagnosed. `None` on
    /// mechanisms without a periodic heartbeat.
    fn stall_threshold(&self, core: CoreId) -> Option<Nanos> {
        let tick = match self.plat.mech {
            PreemptMechanism::UserTimer { .. } | PreemptMechanism::KernelTick { .. } => {
                if !self.apic.timer_active(core) {
                    return None;
                }
                self.apic.timer(core).period()
            }
            PreemptMechanism::UserIpi => self.utimer_period?,
            _ => return None,
        };
        Some(STALL_DETECT_AFTER.max(Nanos(tick.0.saturating_mul(8))))
    }

    /// Drains the runqueue of a stalled worker onto its healthy siblings.
    fn migrate_runqueue(&mut self, q: &mut EventQueue<Event>, core: CoreId, now: Nanos) {
        let n = self.worker_cores.len();
        let mut migrated = 0u64;
        let mut cursor = 0usize;
        while let Some(t) = self.policy.task_dequeue(&mut self.tasks, core, now) {
            let app = self.tasks.get(t).app;
            let mut target = None;
            for k in 0..n {
                let cand = self.worker_cores[(core + 1 + cursor + k) % n];
                if cand == core
                    || self.stall_resume_at(cand, now).is_some()
                    || !self.kthread_ready(cand, app)
                {
                    continue;
                }
                target = Some(cand);
                cursor += k + 1;
                break;
            }
            let Some(target) = target else {
                // No healthy sibling can take it; put it back and stop.
                self.policy.task_enqueue(
                    &mut self.tasks,
                    t,
                    Some(core),
                    EnqueueFlags::Preempted,
                    now,
                );
                self.dispatch_gen += 1;
                break;
            };
            self.policy.task_enqueue(
                &mut self.tasks,
                t,
                Some(target),
                EnqueueFlags::Preempted,
                now,
            );
            self.dispatch_gen += 1;
            self.tasks.get_mut(t).last_cpu = Some(target);
            migrated += 1;
            self.trace_emit(now, Some(target), Some(t), TraceKind::TaskMigrated);
            if self.cores[target].is_idle() {
                self.kick(q, target);
            }
        }
        if migrated > 0 {
            self.stats.stalls_detected += 1;
            self.stats.tasks_migrated += migrated;
            self.trace_emit(
                now,
                Some(core),
                self.cores[core].current,
                TraceKind::WorkerStalled,
            );
        }
    }

    /// An injected page fault resolved: the blocked thread becomes parked
    /// again (it does *not* preempt the substitute), and an idle core is
    /// kicked so queued work held back by the readiness guards can run.
    fn on_fault_resolve(&mut self, q: &mut EventQueue<Event>, core: CoreId, tid: Tid) {
        if self.fault_monitor.on_resolved(&mut self.kmod, tid).is_err() {
            return;
        }
        self.stats.fault_resolves += 1;
        self.trace_emit(
            q.now(),
            Some(core),
            self.cores[core].current,
            TraceKind::FaultResolve,
        );
        if self.cores[core].is_idle() {
            self.kick(q, core);
        }
    }

    /// Bounded retry-with-backoff for a §5.2 revoke whose IPI never took
    /// effect. Stale epochs (a newer cycle started) and completed revokes
    /// are ignored; at budget exhaustion the in-flight marker clears so a
    /// later congestion tick can start a fresh cycle.
    fn on_revoke_retry(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        epoch: u32,
        attempt: u32,
    ) {
        let c = &self.cores[core];
        if c.revoke_epoch != epoch || !c.revoking || !c.granted_to_be {
            return;
        }
        if attempt >= REVOKE_RETRY_BUDGET {
            self.cores[core].revoking = false;
            return;
        }
        self.stats.ipi_retries += 1;
        self.trace_emit(
            q.now(),
            Some(core),
            self.cores[core].be_task,
            TraceKind::IpiRetry,
        );
        self.send_preempt_ipi(q, core, None, IpiPurpose::Revoke);
        let doublings = (attempt + 1).min(16);
        let backoff = Nanos(REVOKE_RETRY_TIMEOUT.0.saturating_mul(1u64 << doublings));
        q.schedule_after(
            backoff,
            Event::Chaos(ChaosEvent::RevokeRetry {
                core,
                epoch,
                attempt: attempt + 1,
            }),
        );
    }

    // ------------------------------------------------------------------
    // Periodic injector ticks
    // ------------------------------------------------------------------

    fn on_page_fault_tick(&mut self, q: &mut EventQueue<Event>) {
        let (core, duration) = {
            let Some(eng) = self.chaos.as_mut() else {
                return;
            };
            let Some(pf) = eng.plan.page_fault else {
                return;
            };
            let gap = Distribution::Exponential(pf.mean_interval).sample(&mut eng.rng);
            q.schedule_after(gap.max(Nanos(1)), Event::Chaos(ChaosEvent::PageFaultTick));
            let idx = eng.rng.next_below(self.worker_cores.len() as u64) as usize;
            (self.worker_cores[idx], pf.duration)
        };
        // Draw-then-filter: the gap and victim draws above happened
        // regardless of scope, so scoped plans replay on the same
        // schedule; only the injection itself is suppressed.
        if self.chaos_scoped_out(core) {
            return;
        }
        if self.inject_page_fault(q, core, duration) {
            self.chaos
                .as_mut()
                .expect("plan installed")
                .stats
                .page_faults_injected += 1;
        }
    }

    fn on_stall_tick(&mut self, q: &mut EventQueue<Event>) {
        let (core, duration) = {
            let Some(eng) = self.chaos.as_mut() else {
                return;
            };
            let Some(st) = eng.plan.stall else {
                return;
            };
            let gap = Distribution::Exponential(st.mean_interval).sample(&mut eng.rng);
            q.schedule_after(gap.max(Nanos(1)), Event::Chaos(ChaosEvent::StallTick));
            let idx = eng.rng.next_below(self.worker_cores.len() as u64) as usize;
            (self.worker_cores[idx], st.duration)
        };
        // Draw-then-filter, as in on_page_fault_tick.
        if self.chaos_scoped_out(core) {
            return;
        }
        if self.inject_stall(q, core, duration) {
            self.chaos
                .as_mut()
                .expect("plan installed")
                .stats
                .stalls_injected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_value_types_with_builders() {
        let p = FaultPlan::seeded(7)
            .drop_arming(0.01)
            .drop_preempt(0.05)
            .delay_preempt(0.1, Nanos::from_us(3))
            .drop_revoke(0.5)
            .page_faults(Nanos::from_ms(2), Nanos::from_us(100))
            .stalls(Nanos::from_ms(5), Nanos::from_us(50));
        assert_eq!(p.seed, 7);
        assert_eq!(p.drop_arming_p, 0.01);
        assert_eq!(
            p.page_fault,
            Some(PeriodicFault {
                mean_interval: Nanos::from_ms(2),
                duration: Nanos::from_us(100),
            })
        );
        assert_eq!(p, p.clone());
        assert_eq!(FaultPlan::default().drop_arming_p, 0.0);
    }

    #[test]
    fn engines_draw_deterministically_from_the_plan_seed() {
        let mut a = ChaosEngine::new(FaultPlan::seeded(11).drop_arming(0.5));
        let mut b = ChaosEngine::new(FaultPlan::seeded(11).drop_arming(0.5));
        let da: Vec<bool> = (0..64).map(|_| a.rng.chance(0.5)).collect();
        let db: Vec<bool> = (0..64).map(|_| b.rng.chance(0.5)).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&x| x) && da.iter().any(|&x| !x));
    }
}
