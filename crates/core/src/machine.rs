//! The simulated machine: per-core main loops, preemption plumbing, and
//! multi-application switching.
//!
//! This module is the framework half of Skyloft (§3.1's Library OS): it owns
//! the cores, drives the [`Policy`] through the Table 2 operations, delivers
//! preemption through the mechanistic UINTR/APIC models, and enforces the
//! Single Binding Rule through the kernel-module model on every
//! inter-application switch.
//!
//! Execution model: the machine is the event handler of a
//! `skyloft_sim::EventQueue<Event>`. Tasks execute as *segments* of compute
//! time; a segment is preemptible at any nanosecond because preemption
//! events (timer ticks, user IPIs) simply cancel the segment-completion
//! event and recompute the remaining work. Scheduling-path overheads
//! (context switches, interrupt handlers, wakeup costs) are charged by
//! delaying the next segment's start, exactly as they would steal time on
//! real hardware.

use skyloft_hw::apic::TIMER_VECTOR;
use skyloft_hw::costs::{self, CostModel};
use skyloft_hw::uintr::{Recognition, UittEntry};
use skyloft_hw::{Apic, CoreId, UintrFabric, UpidId};
use skyloft_kmod::FaultMonitor;
use skyloft_kmod::{Kmod, Tid};
use skyloft_sim::{EventQueue, Nanos, Rng, Token};

use crate::aqm::{queued, Brownout, RunqueueAqm, Victims};
use crate::chaos::{ChaosEngine, ChaosEvent};
use crate::conf::{
    BrownoutConfig, CoreAllocConfig, Platform, PreemptMechanism, RunqueueAqmConfig, SloClass,
};
use crate::ops::{EnqueueFlags, Policy, PolicyKind, SchedEnv};
use crate::stats::Stats;
use crate::task::{AppId, Behavior, RequestMeta, Step, Task, TaskId, TaskState, TaskTable};
use crate::trace::TraceKind;

/// ESTIMATE — cost of a Linux kernel timer interrupt + scheduler tick path
/// (IRQ entry/exit, `update_curr`, possible resched). Not measured by the
/// paper; consistent with the kernel-IPI receive cost of Table 6.
pub const KERNEL_TICK_COST: Nanos = Nanos(791); // KERNEL_IPI.receive cycles @ 2 GHz

/// User vector used for preemption IPIs.
const PREEMPT_VECTOR: u8 = 1;

/// Most applications one machine hosts: ids 0..=254 fit 8 bits with the
/// all-ones value to spare (the scheduling trace packs the id beside a
/// 24-bit task index and uses that value for "no application").
pub(crate) const MAX_APPS: usize = 255;

/// Signature of a [`Call`] event body.
pub type CallFn = Box<dyn FnOnce(&mut Machine, &mut EventQueue<Event>)>;

/// A boxed callback event: how workloads (load generators, measurement
/// phases) hook into the machine without the machine knowing about them.
pub struct Call(pub CallFn);

impl std::fmt::Debug for Call {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Call(..)")
    }
}

/// A reusable callback: invoked when its event fires; returning
/// `Some(at)` re-schedules the *same* box at `at`.
pub type RecurFn = Box<dyn FnMut(&mut Machine, &mut EventQueue<Event>) -> Option<Nanos>>;

/// A self-rescheduling callback event. Unlike [`Call`], the closure box is
/// carried from firing to firing, so periodic or chained hooks (open-loop
/// arrival generators, measurement phases) cost one allocation for the
/// whole chain instead of one per link.
pub struct Recur(pub RecurFn);

impl std::fmt::Debug for Recur {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recur(..)")
    }
}

/// Why a preemption IPI was sent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IpiPurpose {
    /// Preempt the current task and reschedule (dispatcher quantum, wakeup
    /// preemption).
    Preempt,
    /// Reclaim a core granted to the best-effort application (§5.2).
    Revoke,
}

/// Simulation events.
#[derive(Debug)]
pub enum Event {
    /// Periodic LAPIC timer (or kernel tick) fired on a core.
    TimerFire {
        /// Receiving core.
        core: CoreId,
    },
    /// A preemption notification arrived at a core.
    IpiArrive {
        /// Receiving core.
        core: CoreId,
        /// What the sender wants.
        purpose: IpiPurpose,
        /// Preempt only if this task is still current (None = always).
        expect: Option<TaskId>,
    },
    /// The current compute segment of a core finished.
    SegmentDone {
        /// The core.
        core: CoreId,
    },
    /// Dispatcher-side quantum check for a centralized policy.
    QuantumCheck {
        /// Worker core being checked.
        core: CoreId,
        /// Task that was running when the check was armed.
        task: TaskId,
    },
    /// An idle core looks for work (delayed by the platform wake latency).
    StartCore {
        /// The core.
        core: CoreId,
    },
    /// The dispatcher's placement reaches a worker (centralized policies).
    PlaceTask {
        /// Target worker.
        core: CoreId,
        /// Task to run.
        task: TaskId,
    },
    /// Periodic core-allocator decision (§5.2 multi-application runs).
    CoreAllocTick,
    /// Periodic runqueue-AQM sojourn poll ([`Machine::set_runqueue_aqm`]).
    RqAqmTick,
    /// Fault-injection or recovery machinery (see [`crate::chaos`]).
    Chaos(ChaosEvent),
    /// External callback.
    Call(Call),
    /// Self-rescheduling external callback (see [`Recur`]).
    Recur(Recur),
}

/// Role of a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoreRole {
    /// Runs application tasks.
    Worker,
    /// Dedicated dispatcher (centralized policies) or emulated-timer core;
    /// never runs tasks.
    Dispatcher,
}

/// Application priority class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppKind {
    /// Latency-critical.
    Lc,
    /// Best-effort (batch).
    Be,
}

/// One registered application.
#[derive(Debug)]
pub struct AppDesc {
    /// Display name.
    pub name: String,
    /// Priority class.
    pub kind: AppKind,
    /// Live task count.
    pub live_tasks: usize,
    /// SLO class registered via [`Machine::set_slo_class`]; `None` means
    /// the app predates per-class overload control (never shed by the
    /// runqueue AQM, judged against global thresholds only).
    pub slo: Option<SloClass>,
}

/// Per-core scheduler state.
pub struct CoreState {
    /// Role of this core.
    pub role: CoreRole,
    /// Currently running task.
    pub current: Option<TaskId>,
    /// Application whose kernel thread is active on this core.
    pub cur_app: Option<AppId>,
    /// Scheduled completion time of the current segment.
    pub seg_end: Nanos,
    /// When the current task started running on this core.
    pub run_start: Nanos,
    /// Cancellation token of the pending `SegmentDone`.
    pub done_token: Option<Token>,
    /// Kernel threads bound to this core, indexed by `AppId`.
    pub kthreads: Vec<Tid>,
    /// Whether the core-allocator granted this core to the BE application.
    pub granted_to_be: bool,
    /// A revoke IPI is in flight.
    pub revoking: bool,
    /// A `StartCore`/`PlaceTask` is in flight; don't double-kick. A
    /// `StartCore` ([`Machine::kick`]) goes to a core that work was queued
    /// on while it was idle, except to the core a preempted or yielding
    /// task just left: that core runs its own schedule loop at once and is
    /// kicked only if the loop leaves it idle.
    pub incoming: bool,
    /// Busy-accounting anchor: since when, and for which app.
    pub busy_since: Option<(Nanos, AppId)>,
    /// Machine-managed best-effort spin task pinned to this core
    /// (centralized multi-application runs).
    pub be_task: Option<TaskId>,
    /// Consecutive core-allocator observations of this core being idle.
    pub idle_checks: u32,
    /// Receiver UPID for user interrupts on this core.
    pub upid: Option<UpidId>,
    /// UITT entry used for the SN-self-post arming trick (§3.2).
    pub arm_entry: Option<UittEntry>,
    /// An injected fault dropped this core's §3.2 re-arm; its PIR is
    /// legitimately empty until the watchdog re-arms it.
    pub arming_lost: bool,
    /// Injected stall: the core processes no interrupts and makes no
    /// progress until this instant.
    pub stalled_until: Nanos,
    /// Last progress heartbeat (tick processed, task switched in, segment
    /// completed) — the watchdog's stall-detection signal.
    pub last_progress: Nanos,
    /// Generation counter of §5.2 revoke cycles; retries from a stale
    /// cycle are ignored.
    pub revoke_epoch: u32,
}

impl CoreState {
    fn new(role: CoreRole) -> Self {
        CoreState {
            role,
            current: None,
            cur_app: None,
            seg_end: Nanos::ZERO,
            run_start: Nanos::ZERO,
            done_token: None,
            kthreads: Vec::new(),
            granted_to_be: false,
            revoking: false,
            incoming: false,
            busy_since: None,
            be_task: None,
            idle_checks: 0,
            upid: None,
            arm_entry: None,
            arming_lost: false,
            stalled_until: Nanos::ZERO,
            last_progress: Nanos::ZERO,
            revoke_epoch: 0,
        }
    }

    /// Whether the core is idle and not already being kicked.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && !self.incoming
    }
}

/// Machine construction parameters.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Platform (mechanisms + costs).
    pub plat: Platform,
    /// Number of worker cores (the dispatcher, if any, is an extra core).
    pub n_workers: usize,
    /// RNG seed for everything in this machine.
    pub seed: u64,
    /// Enable the §5.2 core allocator (centralized multi-app runs).
    pub core_alloc: Option<CoreAllocConfig>,
    /// Emulate per-CPU timers with a dedicated core sending user IPIs every
    /// given period (§5.3's "utimer"); requires `UserIpi` mechanism with a
    /// per-CPU policy.
    pub utimer_period: Option<Nanos>,
}

/// Options for [`Machine::spawn`].
pub struct SpawnOpts {
    /// Owning application.
    pub app: AppId,
    /// Preferred/pinned core.
    pub pin: Option<CoreId>,
    /// Request accounting (RPC-style tasks).
    pub req: Option<RequestMeta>,
    /// Scheduling weight (1024 = nice 0).
    pub weight: u32,
    /// Whether wakeup latencies of this task are recorded.
    pub record_wakeup: bool,
}

impl SpawnOpts {
    /// Default options for an application.
    pub fn app(app: AppId) -> Self {
        SpawnOpts {
            app,
            pin: None,
            req: None,
            weight: 1024,
            record_wakeup: true,
        }
    }
}

/// A NIC data-plane event for [`Machine::note_net`]: the stable public
/// subset of trace kinds a network driver outside this crate may emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetTrace {
    /// A datagram was steered into an RX ring.
    RxEnqueue,
    /// A full RX ring tail-dropped a datagram.
    RxDrop,
    /// The polling core drained a burst from an RX ring.
    RxPoll,
    /// The CoDel drop law shed a datagram at the polling core.
    AqmDrop,
    /// Deadline-aware admission shed a request at poll time.
    AdmissionShed,
    /// A client retry datagram reached the NIC.
    NetRetry,
}

/// A best-effort spin task: computes forever in fixed chunks.
pub struct Spin {
    chunk: Nanos,
}

impl Spin {
    /// Creates a spinner with the given chunk size.
    pub fn new(chunk: Nanos) -> Self {
        Spin { chunk }
    }
}

impl Behavior for Spin {
    fn step(&mut self, _now: Nanos, _id: TaskId) -> Step {
        Step::Compute(self.chunk)
    }
}

/// The simulated machine.
pub struct Machine {
    /// Platform description.
    pub plat: Platform,
    /// The scheduling policy under test.
    pub policy: Box<dyn Policy>,
    /// Shared task table.
    pub tasks: TaskTable,
    /// Per-core state.
    pub cores: Vec<CoreState>,
    /// Indices of worker cores.
    pub worker_cores: Vec<CoreId>,
    /// The dispatcher core, if the platform dedicates one.
    pub dispatcher: Option<CoreId>,
    /// Registered applications.
    pub apps: Vec<AppDesc>,
    /// UINTR architectural state.
    pub uintr: UintrFabric,
    /// Local APICs.
    pub apic: Apic,
    /// Kernel-module model.
    pub kmod: Kmod,
    /// NUMA-aware cost model.
    pub costs: CostModel,
    /// Machine RNG (forked for workloads).
    pub rng: Rng,
    /// Measurements.
    pub stats: Stats,
    /// Core-allocator configuration, when enabled.
    pub core_alloc: Option<CoreAllocConfig>,
    /// The registered best-effort application.
    pub be_app: Option<AppId>,
    /// Brownout controller ([`Machine::set_brownout`]); `None` leaves the
    /// §5.2 allocator's behaviour untouched.
    brownout: Option<Brownout>,
    /// Runqueue AQM ([`Machine::set_runqueue_aqm`]): CoDel on scheduler
    /// queue sojourn, the second containment ring behind the RX-ring AQM.
    rq_aqm: Option<RunqueueAqm>,
    /// Whether the recovery mechanisms for injected faults run (watchdog
    /// re-arm, stall migration, revoke retries, preempt rechecks; see
    /// [`crate::chaos`]). On by default; they only activate while a fault
    /// plan is installed.
    pub recovery: bool,
    /// Installed fault-injection engine ([`Machine::install_fault_plan`]).
    pub chaos: Option<ChaosEngine>,
    /// §6 userfaultfd-style blocking-event monitor.
    pub fault_monitor: FaultMonitor,
    /// utimer emulation period.
    pub(crate) utimer_period: Option<Nanos>,
    /// Round-robin cursor for queue placement.
    rr_cursor: usize,
    /// Bitmask of dispatchable worker cores (idle, not granted to the BE
    /// app), one bit per core in u64 words — the same layout
    /// `uthread::park` uses. Maintained by [`Machine::refresh_idle`] at
    /// every grant/revoke/run/stop transition so [`Machine::dispatch`]
    /// iterates set bits instead of re-filtering `worker_cores`.
    idle_mask: Vec<u64>,
    /// Scratch buffer of idle workers, reused across [`Machine::dispatch`]
    /// calls so the hot path does not allocate.
    idle_scratch: Vec<CoreId>,
    /// Scratch buffer for `sched_poll` placements (same reuse).
    poll_scratch: Vec<(CoreId, TaskId)>,
    /// Free list of recycled [`OneShot`] request bodies (see
    /// [`Machine::pooled_oneshot`]); bounded so a burst cannot pin memory.
    /// The boxes themselves are the pooled resource — each is handed back
    /// out as a `Box<dyn Behavior>` without reallocating.
    #[allow(clippy::vec_box)]
    oneshot_pool: Vec<Box<crate::task::OneShot>>,
    /// The dispatcher/agent core is a serialized resource: it is busy with
    /// earlier placements until this time (ghOSt's transaction commits make
    /// this the throughput bottleneck, §5.2).
    dispatcher_free_at: Nanos,
    /// Re-entrancy guard for [`Machine::dispatch`]: a trigger landing while
    /// a pass is committing placements folds into that pass instead of
    /// re-entering (and double-charging `dispatcher_free_at`).
    in_dispatch: bool,
    /// Set by a dispatch trigger that arrived mid-pass; the pass loop
    /// re-polls before returning.
    dispatch_dirty: bool,
    /// Monotone change counter for the centralized dispatch inputs: bumped
    /// by every policy enqueue and every idle-set 0→1 transition. Together
    /// with `last_poll` it coalesces same-timestamp dispatch triggers —
    /// see [`Machine::dispatch`].
    pub(crate) dispatch_gen: u64,
    /// `(timestamp, dispatch_gen)` at the last completed dispatch pass. A
    /// re-trigger with both unchanged is provably fruitless and skipped.
    last_poll: (Nanos, u64),
    pub(crate) started: bool,
    /// Scheduling trace rings + runtime invariant checker (see
    /// [`crate::trace`]); fed by [`Machine::handle`] on every event.
    pub tracer: crate::trace::Tracer,
}

impl Machine {
    /// Builds a machine. Call [`Machine::add_app`] for each application and
    /// then [`Machine::start`] before running events.
    pub fn new(cfg: MachineConfig, policy: Box<dyn Policy>) -> Machine {
        let n_workers = cfg.n_workers;
        assert!(n_workers > 0, "machine needs at least one worker core");
        let needs_extra = cfg.plat.dedicated_dispatcher || cfg.utimer_period.is_some();
        let total = n_workers + usize::from(needs_extra);
        assert!(
            cfg.plat.topo.n_cores() >= total,
            "topology too small: {} cores for {} needed",
            cfg.plat.topo.n_cores(),
            total
        );
        let mut cores: Vec<CoreState> = (0..n_workers)
            .map(|_| CoreState::new(CoreRole::Worker))
            .collect();
        let dispatcher = if needs_extra {
            cores.push(CoreState::new(CoreRole::Dispatcher));
            Some(n_workers)
        } else {
            None
        };
        let worker_cores: Vec<CoreId> = (0..n_workers).collect();
        // Every worker starts idle and ungranted: its mask bit is set.
        let mut idle_mask = vec![0u64; total.div_ceil(64)];
        for &c in &worker_cores {
            idle_mask[c / 64] |= 1 << (c % 64);
        }
        let kmod = Kmod::new(cfg.plat.topo.n_cores(), &(0..total).collect::<Vec<_>>());
        let mut stats = Stats::new();
        stats.finished_by_core = vec![0; total];
        Machine {
            uintr: UintrFabric::new(cfg.plat.topo.n_cores()),
            apic: Apic::new(cfg.plat.topo.n_cores()),
            kmod,
            costs: CostModel::new(cfg.plat.topo),
            rng: Rng::seed_from_u64(cfg.seed),
            policy,
            tasks: TaskTable::new(),
            cores,
            worker_cores,
            dispatcher,
            apps: Vec::new(),
            stats,
            core_alloc: cfg.core_alloc,
            be_app: None,
            brownout: None,
            rq_aqm: None,
            recovery: true,
            chaos: None,
            fault_monitor: FaultMonitor::new(),
            utimer_period: cfg.utimer_period,
            rr_cursor: 0,
            idle_mask,
            idle_scratch: Vec::new(),
            poll_scratch: Vec::new(),
            oneshot_pool: Vec::new(),
            dispatcher_free_at: Nanos::ZERO,
            in_dispatch: false,
            dispatch_dirty: false,
            dispatch_gen: 0,
            // Sentinel generation: the first dispatch must never be skipped.
            last_poll: (Nanos::ZERO, u64::MAX),
            plat: cfg.plat,
            started: false,
            tracer: crate::trace::Tracer::new(total),
        }
    }

    /// Registers an application. The first application binds an active
    /// kernel thread per worker core; later ones park theirs (§3.3, §4.1).
    ///
    /// For a [`AppKind::Be`] application under a centralized policy, a
    /// machine-managed spin task is attached to every worker core; the core
    /// allocator grants and revokes cores for it.
    ///
    /// # Panics
    ///
    /// Panics after start, and when 255 applications are already
    /// registered (an app id must fit the trace's 8-bit field).
    pub fn add_app(&mut self, name: &str, kind: AppKind) -> AppId {
        assert!(!self.started, "add apps before start");
        let app = self.apps.len();
        assert!(app < MAX_APPS, "at most {MAX_APPS} applications");
        self.apps.push(AppDesc {
            name: name.to_string(),
            kind,
            live_tasks: 0,
            slo: None,
        });
        self.stats.busy_by_app.push(0);
        for &core in &self.worker_cores.clone() {
            let tid = self.kmod.create_kthread(app);
            if app == 0 {
                self.kmod
                    .bind_active(tid, core)
                    .expect("first app binds active");
                self.cores[core].cur_app = Some(0);
            } else {
                self.kmod.park_on_cpu(tid, core).expect("park new app");
            }
            self.cores[core].kthreads.push(tid);
        }
        if kind == AppKind::Be && self.policy.kind() == PolicyKind::Centralized {
            assert!(self.be_app.is_none(), "one BE app supported");
            self.be_app = Some(app);
            for &core in &self.worker_cores.clone() {
                let id = self.insert_task(
                    app,
                    Box::new(Spin::new(Nanos::from_us(50))),
                    None,
                    1024,
                    false,
                    Some(core),
                );
                self.cores[core].be_task = Some(id);
            }
        }
        app
    }

    /// Finalizes configuration: initializes the policy, arms user-space
    /// timers (the §3.2 delegation sequence), and schedules the periodic
    /// machinery. Must be called exactly once, before the first event runs.
    pub fn start(&mut self, q: &mut EventQueue<Event>) {
        assert!(!self.started, "start called twice");
        assert!(!self.apps.is_empty(), "add at least one application");
        self.started = true;
        let env = SchedEnv {
            worker_cores: self.worker_cores.clone(),
            dispatcher: self.dispatcher,
        };
        self.policy.sched_init(&env);

        match self.plat.mech {
            PreemptMechanism::UserTimer { hz } => {
                for &core in &self.worker_cores.clone() {
                    // §3.2 configuration: (1) UPID with SN set, UINV = timer
                    // vector; (2) self-SENDUIPI to populate the PIR.
                    let upid = self.uintr.alloc_upid(TIMER_VECTOR, core);
                    self.uintr.bind_receiver(core, upid, TIMER_VECTOR);
                    self.uintr.set_sn(upid, true);
                    self.uintr.set_user_mode(core, true);
                    let arm = UittEntry { upid, user_vec: 0 };
                    self.uintr.senduipi(arm);
                    self.cores[core].upid = Some(upid);
                    self.cores[core].arm_entry = Some(arm);
                    // Kernel-module timer configuration (Table 3).
                    self.kmod
                        .timer_set_hz(&mut self.apic, core, hz)
                        .expect("timer hz");
                    self.kmod
                        .timer_enable(&mut self.apic, core)
                        .expect("timer enable");
                    let period = self.apic.timer(core).period();
                    // Stagger first expiries to avoid artificial lockstep.
                    let first = period + Nanos(core as u64 * 101 % period.0.max(1));
                    q.schedule(first, Event::TimerFire { core });
                }
            }
            PreemptMechanism::KernelTick { hz } => {
                for &core in &self.worker_cores.clone() {
                    self.apic.set_hz(core, hz);
                    self.apic.set_enabled(core, true);
                    let period = self.apic.timer(core).period();
                    let first = period + Nanos(core as u64 * 307 % period.0.max(1));
                    q.schedule(first, Event::TimerFire { core });
                }
            }
            PreemptMechanism::UserIpi => {
                // Receiver setup for preemption IPIs from the dispatcher or
                // utimer core.
                for &core in &self.worker_cores.clone() {
                    let upid = self.uintr.alloc_upid(PREEMPT_VECTOR, core);
                    self.uintr.bind_receiver(core, upid, PREEMPT_VECTOR);
                    self.uintr.set_user_mode(core, true);
                    self.cores[core].upid = Some(upid);
                    self.cores[core].arm_entry = Some(UittEntry { upid, user_vec: 1 });
                }
                if let Some(period) = self.utimer_period {
                    // §5.3 utimer: a dedicated core broadcasts user IPIs.
                    for &core in &self.worker_cores.clone() {
                        let first = period + Nanos(core as u64 * 101 % period.0.max(1));
                        q.schedule(first, Event::TimerFire { core });
                    }
                }
            }
            _ => {}
        }

        if let (Some(alloc), Some(_)) = (&self.core_alloc, self.be_app) {
            q.schedule(alloc.interval, Event::CoreAllocTick);
        }
        if let Some(aqm) = &self.rq_aqm {
            q.schedule(aqm.cfg().poll_every, Event::RqAqmTick);
        }
        self.chaos_start(q);
    }

    /// Runs the machine until `deadline`. Returns events processed.
    ///
    /// Events are drained in same-timestamp batches
    /// ([`skyloft_sim::run_batched_until`]), so per-event fixed costs —
    /// the deadline compare, the wheel re-probe, the trace-activity check
    /// and the post-event invariant validation — are paid once per batch.
    /// Handler order is identical to the serial event-at-a-time loop
    /// (same `(time, seq)` order; see [`Machine::handle_batch`]).
    pub fn run(&mut self, q: &mut EventQueue<Event>, deadline: Nanos) -> u64 {
        assert!(self.started, "call start() first");
        let mut batch = Vec::new();
        let mut handled = 0u64;
        skyloft_sim::run_batched_until(self, q, deadline, &mut batch, |m, at, b, q| {
            handled += m.handle_batch(at, b, q);
        });
        handled
    }

    /// Busy nanoseconds of an application since the last stats reset,
    /// including the still-open run intervals of currently executing tasks
    /// (a BE spin task may run for the whole window without ever stopping).
    pub fn busy_ns(&self, app: AppId, now: Nanos) -> u64 {
        let mut total = self.stats.busy_by_app[app];
        for c in &self.cores {
            if let Some((since, a)) = c.busy_since {
                if a == app {
                    total += now.saturating_sub(since).0;
                }
            }
        }
        total
    }

    /// CPU share of an application over the worker cores since the last
    /// stats reset (Figure 7c's metric). This is the single authoritative
    /// share computation: it builds on [`Machine::busy_ns`], so tasks that
    /// are *still running* (a BE spinner that never stops inside the
    /// measurement window) are counted via their open busy intervals.
    pub fn app_share(&self, app: AppId, now: Nanos) -> f64 {
        let capacity =
            now.saturating_sub(self.stats.since).0 as f64 * self.worker_cores.len() as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        self.busy_ns(app, now) as f64 / capacity
    }

    /// Resets measurement state at a warmup boundary.
    pub fn reset_stats(&mut self, now: Nanos) {
        self.stats.reset(now);
        for c in &mut self.cores {
            if let Some((_, app)) = c.busy_since {
                c.busy_since = Some((now, app));
            }
        }
    }

    /// Records a NIC data-plane event into the scheduling trace (§3.5).
    /// `core` is the worker core whose RX ring the event concerns.
    pub fn note_net(&mut self, now: Nanos, core: Option<CoreId>, what: NetTrace) {
        let kind = match what {
            NetTrace::RxEnqueue => TraceKind::RxEnqueue,
            NetTrace::RxDrop => TraceKind::RxDrop,
            NetTrace::RxPoll => TraceKind::RxPoll,
            NetTrace::AqmDrop => TraceKind::AqmDrop,
            NetTrace::AdmissionShed => TraceKind::AdmissionShed,
            NetTrace::NetRetry => TraceKind::NetRetry,
        };
        self.trace_emit(now, core, None, kind);
    }

    /// Arms the LC/BE brownout controller. Once armed, the polling core's
    /// overload samples ([`Machine::note_overload_sample`]) drive a
    /// hysteretic engage/release loop: while engaged, every core-allocator
    /// tick behaves as congested, shedding BE share before LC is touched.
    pub fn set_brownout(&mut self, cfg: BrownoutConfig) {
        self.brownout = Some(Brownout::new(cfg));
    }

    /// Registers `app`'s SLO class: its per-class deadline and retry
    /// fraction. Apps without a class are never shed by the runqueue AQM
    /// or by displacement.
    pub fn set_slo_class(&mut self, app: AppId, slo: SloClass) {
        self.apps[app].slo = Some(slo);
    }

    /// Arms the runqueue AQM: every `poll_every` the machine feeds each
    /// app's worst runqueue sojourn into a per-app CoDel controller; past
    /// target/interval, the controller condemns the oldest queued task of
    /// a *sheddable* app (one whose [`SloClass::slo`] is at least
    /// `sheddable_slo`; see [`RunqueueAqm`]). Condemned tasks are
    /// terminated, not run, when a scheduling path next dequeues them.
    /// Must be called before [`Machine::start`].
    pub fn set_runqueue_aqm(&mut self, cfg: RunqueueAqmConfig) {
        assert!(!self.started, "arm the runqueue AQM before start");
        self.rq_aqm = Some(RunqueueAqm::new(cfg));
    }

    /// Whether the brownout controller is shedding BE share.
    pub fn browned_out(&self) -> bool {
        self.brownout.as_ref().is_some_and(Brownout::engaged)
    }

    /// Total engage/release transitions the brownout controller performed.
    pub fn brownout_transitions(&self) -> u64 {
        self.brownout.as_ref().map_or(0, Brownout::transitions)
    }

    /// Feeds one overload sample from the polling core: the oldest RX-ring
    /// sojourn observed this poll round, plus whether the drained batch hit
    /// worker backpressure (a full downstream queue). Backpressure
    /// inflates the sample by half the engage threshold so a saturated
    /// pipeline with artificially short rings still trips the controller.
    /// The EWMA of these samples is compared against the hysteresis band:
    /// engage above `enter_sojourn`, release below `exit_sojourn`, and
    /// never flip twice within `min_dwell`.
    pub fn note_overload_sample(&mut self, now: Nanos, sojourn: Nanos, backpressured: bool) {
        let Some(b) = self.brownout.as_mut() else {
            return;
        };
        let flipped = b.on_sample(now, sojourn, backpressured);
        if let Some(on) = flipped {
            let kind = if on {
                TraceKind::BrownoutShed
            } else {
                TraceKind::BrownoutClear
            };
            self.trace_emit(now, None, None, kind);
        }
    }

    /// Creates a task without enqueueing it (internal + BE tasks).
    fn insert_task(
        &mut self,
        app: AppId,
        behavior: Box<dyn Behavior>,
        req: Option<RequestMeta>,
        weight: u32,
        record_wakeup: bool,
        home: Option<CoreId>,
    ) -> TaskId {
        self.apps[app].live_tasks += 1;
        self.tasks.insert(|id| Task {
            id,
            app,
            state: TaskState::Runnable,
            pd: crate::task::PolicyData {
                weight,
                ..Default::default()
            },
            behavior: Some(behavior),
            remaining: Nanos::ZERO,
            req,
            runnable_since: Nanos::ZERO,
            measure_wakeup: false,
            record_wakeup,
            last_cpu: None,
            home,
            preempt_count: 0,
            total_ran: Nanos::ZERO,
            shed: false,
        })
    }

    /// Spawns a task and enqueues it (the `uthread_create` path; the 191 ns
    /// creation cost of Table 7 is charged to the spawning side by the
    /// workload model where relevant).
    pub fn spawn(
        &mut self,
        q: &mut EventQueue<Event>,
        behavior: Box<dyn Behavior>,
        opts: SpawnOpts,
    ) -> TaskId {
        assert!(opts.app < self.apps.len(), "spawn into unknown app");
        let id = self.insert_task(
            opts.app,
            behavior,
            opts.req,
            opts.weight,
            opts.record_wakeup,
            opts.pin,
        );
        let now = q.now();
        self.tasks.get_mut(id).runnable_since = now;
        self.policy.task_init(&mut self.tasks, id, now);
        self.enqueue_task(q, id, EnqueueFlags::New, opts.pin, None);
        id
    }

    /// Returns a [`crate::task::OneShot`] behavior box for `service`,
    /// reusing a recycled box from the machine's free list when one is
    /// available. Completed one-shot requests flow back into the list, so
    /// steady-state RPC workloads allocate no behavior boxes at all.
    pub fn pooled_oneshot(&mut self, service: Nanos) -> Box<dyn Behavior> {
        match self.oneshot_pool.pop() {
            Some(mut b) => {
                b.reset(service);
                b
            }
            None => Box::new(crate::task::OneShot::new(service)),
        }
    }

    /// Spawns a one-shot request of the given service time and class.
    pub fn spawn_request(
        &mut self,
        q: &mut EventQueue<Event>,
        app: AppId,
        service: Nanos,
        class: u8,
        pin: Option<CoreId>,
    ) -> TaskId {
        let req = RequestMeta {
            arrival: q.now(),
            service,
            class,
        };
        let behavior = self.pooled_oneshot(service);
        self.spawn(
            q,
            behavior,
            SpawnOpts {
                app,
                pin,
                req: Some(req),
                weight: 1024,
                record_wakeup: true,
            },
        )
    }

    /// Wakes a blocked task (the `task_wakeup` entry point). `hint` is the
    /// waker's core. Spurious wakes of non-blocked tasks are ignored.
    pub fn wake(&mut self, q: &mut EventQueue<Event>, target: TaskId, hint: Option<CoreId>) {
        if !self.tasks.contains(target) {
            return;
        }
        let now = q.now();
        {
            let t = self.tasks.get_mut(target);
            if t.state != TaskState::Blocked {
                return;
            }
            t.state = TaskState::Runnable;
            t.runnable_since = now;
            t.measure_wakeup = t.record_wakeup;
        }
        self.enqueue_task(q, target, EnqueueFlags::Wakeup, hint, None);
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Processes one event: records it in the scheduling trace, dispatches
    /// it to its handler, and — in debug/test builds — validates the
    /// machine invariants afterwards ([`crate::trace::violations_of`]).
    pub fn handle(&mut self, ev: Event, q: &mut EventQueue<Event>) {
        crate::trace::check_ts(q.now());
        self.trace_raw(&ev, q.now());
        self.dispatch_event(ev, q);
        self.check_invariants(q.now());
    }

    /// Processes one same-timestamp batch of events drained by
    /// [`skyloft_sim::EventQueue::pop_batch`].
    ///
    /// Decision-identical to calling [`Machine::handle`] on each event in
    /// `(time, seq)` order: claims are redeemed one at a time, so a
    /// handler that cancels a later event of the *same* timestamp (a
    /// preemption cancelling a pending segment completion) makes that
    /// claim redeem to `None` and the event is skipped, exactly as if it
    /// had been removed from the wheel. The batch prologue hoists the
    /// trace-activity check, and the invariant validation runs once at the
    /// end of the batch — a subset of the serial per-event checkpoints, so
    /// any state that validates serially validates here too. Returns the
    /// number of events handled.
    pub fn handle_batch(
        &mut self,
        at: Nanos,
        batch: &mut Vec<skyloft_sim::BatchSlot>,
        q: &mut EventQueue<Event>,
    ) -> u64 {
        crate::trace::check_ts(at);
        let tracing = self.tracer.is_active();
        let mut handled = 0;
        for claim in batch.drain(..) {
            let Some(ev) = q.take_batched(claim) else {
                continue;
            };
            if tracing {
                self.trace_raw(&ev, at);
            }
            self.dispatch_event(ev, q);
            handled += 1;
        }
        self.check_invariants(at);
        handled
    }

    /// Dispatches one event to its handler.
    fn dispatch_event(&mut self, ev: Event, q: &mut EventQueue<Event>) {
        match ev {
            Event::TimerFire { core } => self.on_timer_fire(q, core),
            Event::IpiArrive {
                core,
                purpose,
                expect,
            } => self.on_ipi(q, core, purpose, expect),
            Event::SegmentDone { core } => self.on_segment_done(q, core),
            Event::QuantumCheck { core, task } => self.on_quantum_check(q, core, task),
            Event::StartCore { core } => {
                self.check_kick_is_live(core, q.now());
                self.cores[core].incoming = false;
                self.refresh_idle(core);
                if self.cores[core].current.is_none() {
                    self.schedule_loop(q, core, Nanos::ZERO);
                }
            }
            Event::PlaceTask { core, task } => {
                self.cores[core].incoming = false;
                self.refresh_idle(core);
                if !self.tasks.contains(task) {
                    return;
                }
                // The runqueue AQM condemned this task after the dispatcher
                // committed the placement: collect it and let the now-idle
                // worker ask for more work.
                if self.tasks.get(task).shed {
                    self.shed_task(q, core, task);
                    self.dispatch(q);
                    return;
                }
                // A fault may have blocked this core's kernel thread after
                // the dispatcher committed the placement; re-queue instead
                // of violating the Single Binding Rule.
                if !self.kthread_ready(core, self.tasks.get(task).app) {
                    let now = q.now();
                    self.policy.task_enqueue(
                        &mut self.tasks,
                        task,
                        None,
                        EnqueueFlags::Preempted,
                        now,
                    );
                    self.dispatch_gen += 1;
                    return;
                }
                debug_assert!(self.cores[core].current.is_none());
                self.run_task(q, core, task, Nanos::ZERO);
            }
            Event::CoreAllocTick => self.on_core_alloc(q),
            Event::RqAqmTick => self.on_rq_aqm_tick(q),
            Event::Chaos(ev) => self.on_chaos_event(ev, q),
            Event::Call(call) => (call.0)(self, q),
            Event::Recur(mut r) => {
                if let Some(at) = (r.0)(self, q) {
                    q.schedule(at, Event::Recur(r));
                }
            }
        }
    }

    fn on_timer_fire(&mut self, q: &mut EventQueue<Event>, core: CoreId) {
        // Re-arm the periodic source.
        match self.plat.mech {
            PreemptMechanism::UserTimer { .. } | PreemptMechanism::KernelTick { .. } => {
                if !self.apic.timer_active(core) {
                    return;
                }
                let period = self.apic.timer(core).period();
                q.schedule_after(period, Event::TimerFire { core });
            }
            PreemptMechanism::UserIpi => {
                let Some(period) = self.utimer_period else {
                    return;
                };
                q.schedule_after(period, Event::TimerFire { core });
            }
            _ => return,
        }

        // An injected stall suppresses interrupt processing on this core;
        // the periodic source keeps firing (re-armed above) and takes
        // effect again once the stall ends.
        if self.stall_resume_at(core, q.now()).is_some() {
            return;
        }

        match self.plat.mech {
            PreemptMechanism::UserTimer { .. } => {
                // Mechanistic §3.2 path: the LAPIC raises TIMER_VECTOR; the
                // core recognizes it as a user interrupt only if the PIR was
                // armed.
                match self.uintr.on_interrupt_arrival(core, TIMER_VECTOR) {
                    Recognition::Pending => {
                        if self.uintr.deliverable(core) {
                            self.uintr.begin_delivery(core);
                            // Handler body (Listing 1): re-arm the PIR with
                            // a SN self-post, then run sched_timer_tick. An
                            // installed fault plan may eat the re-arm here —
                            // the §3.2 single point of failure.
                            let arm = self.cores[core].arm_entry.expect("armed core");
                            if !self.chaos_drop_arming(core) {
                                self.uintr.senduipi(arm);
                            }
                            self.uintr.uiret(core);
                            self.stats.timer_delivered += 1;
                            let cost = costs::USER_TIMER_RECEIVE.to_nanos()
                                + costs::SENDUIPI_SN.to_nanos();
                            self.timer_tick(q, core, cost);
                        }
                    }
                    Recognition::Lost => {
                        self.stats.timer_lost += 1;
                        // Losses caused by an injected arming drop are
                        // expected; widen the checker's budget so only
                        // *unexplained* losses trip the invariant.
                        if self.cores[core].arming_lost {
                            self.tracer.checker.allowed_timer_lost += 1;
                        }
                        self.trace_emit(
                            q.now(),
                            Some(core),
                            self.cores[core].current,
                            TraceKind::TimerLost,
                        );
                    }
                    Recognition::Legacy => {}
                }
            }
            PreemptMechanism::KernelTick { .. } => {
                self.stats.timer_delivered += 1;
                self.timer_tick(q, core, KERNEL_TICK_COST);
            }
            PreemptMechanism::UserIpi => {
                // utimer: the dedicated core sends a user IPI; model the
                // delivery latency before the tick takes effect.
                let from = self.dispatcher.unwrap_or(core);
                let mech = self.costs.user_ipi(from, core);
                q.schedule_after(
                    mech.send_ns() + mech.delivery_ns(),
                    Event::IpiArrive {
                        core,
                        purpose: IpiPurpose::Preempt,
                        expect: None,
                    },
                );
            }
            _ => {}
        }
    }

    /// Shared tick logic: consult the policy, preempt or just charge the
    /// handler cost.
    fn timer_tick(&mut self, q: &mut EventQueue<Event>, core: CoreId, handler_cost: Nanos) {
        let Some(t) = self.cores[core].current else {
            return;
        };
        let now = q.now();
        self.note_progress(core, now);
        let ran = now.saturating_sub(self.cores[core].run_start);
        let preempt = self
            .policy
            .sched_timer_tick(&mut self.tasks, core, t, ran, now);
        if preempt {
            self.stats.preemptions += 1;
            self.preempt_current(q, core, handler_cost);
        } else {
            self.delay_current(q, core, handler_cost);
        }
    }

    fn on_ipi(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        purpose: IpiPurpose,
        expect: Option<TaskId>,
    ) {
        // A stalled core recognizes nothing until the stall ends; the
        // notification stays latched and is processed at resume time.
        if let Some(resume) = self.stall_resume_at(core, q.now()) {
            q.schedule(
                resume,
                Event::IpiArrive {
                    core,
                    purpose,
                    expect,
                },
            );
            return;
        }
        // Mechanistic recognition for user-IPI platforms.
        if matches!(self.plat.mech, PreemptMechanism::UserIpi)
            && self.uintr.on_interrupt_arrival(core, PREEMPT_VECTOR) == Recognition::Pending
            && self.uintr.deliverable(core)
        {
            self.uintr.begin_delivery(core);
            self.uintr.uiret(core);
        }
        if let Some(exp) = expect {
            if self.cores[core].current != Some(exp) {
                self.stats.spurious_ipis += 1;
                if purpose == IpiPurpose::Revoke {
                    self.cores[core].revoking = false;
                }
                return;
            }
        }
        let recv = self.ipi_receive_cost(core);
        match purpose {
            IpiPurpose::Preempt => {
                if self.cores[core].current.is_none() {
                    // utimer tick on an idle core.
                    return;
                }
                // For utimer ticks (expect == None) ask the policy, like a
                // timer tick; for dispatcher preemptions the decision was
                // already made.
                if expect.is_none() && self.utimer_period.is_some() {
                    self.timer_tick(q, core, recv);
                } else {
                    self.stats.preemptions += 1;
                    self.preempt_current(q, core, recv);
                }
            }
            IpiPurpose::Revoke => {
                self.cores[core].revoking = false;
                // Only an actual grant-state transition counts: a stray or
                // duplicate revoke on a core the allocator never granted
                // must not inflate `be_revokes` or disturb the core.
                if !self.cores[core].granted_to_be {
                    self.stats.spurious_ipis += 1;
                    return;
                }
                self.cores[core].granted_to_be = false;
                self.refresh_idle(core);
                self.stats.be_revokes += 1;
                self.trace_emit(
                    q.now(),
                    Some(core),
                    self.cores[core].be_task,
                    TraceKind::Revoke,
                );
                if let Some(cur) = self.cores[core].current {
                    if Some(cur) == self.cores[core].be_task {
                        self.park_be_task(q, core, recv);
                    }
                    // Otherwise an LC task already occupies the core; there
                    // is nothing to reschedule.
                    return;
                }
                self.schedule_loop(q, core, recv);
            }
        }
    }

    fn ipi_receive_cost(&self, core: CoreId) -> Nanos {
        let from = self.dispatcher.unwrap_or(0);
        match self.plat.mech {
            PreemptMechanism::UserIpi | PreemptMechanism::UserTimer { .. } => {
                self.costs.user_ipi(from, core).receive_ns()
            }
            PreemptMechanism::PostedIpi => costs::POSTED_IPI.receive_ns(),
            PreemptMechanism::KernelIpi => {
                self.costs.kernel_ipi(from, core).receive_ns() + costs::GhostCost::INSTALL_THREAD
            }
            PreemptMechanism::Signal => costs::SIGNAL.receive_ns(),
            PreemptMechanism::KernelTick { .. } => self.costs.kernel_ipi(from, core).receive_ns(),
            PreemptMechanism::None => Nanos::ZERO,
        }
    }

    /// Sends a preemption notification to `core` using the platform's
    /// mechanism; the effect lands after send + delivery latency.
    pub fn send_preempt_ipi(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        expect: Option<TaskId>,
        purpose: IpiPurpose,
    ) {
        let from = self.dispatcher.unwrap_or(0);
        let mech = match self.plat.mech {
            PreemptMechanism::UserIpi => {
                // Go through the UINTR fabric so architectural stats stay
                // faithful (the receiver was bound with PREEMPT_VECTOR).
                if let Some(upid) = self.cores[core].upid {
                    let _ = self.uintr.senduipi(UittEntry {
                        upid,
                        user_vec: PREEMPT_VECTOR,
                    });
                }
                self.costs.user_ipi(from, core)
            }
            // Skyloft per-CPU platforms can still send cross-core user IPIs
            // (wakeup preemption); the receiver descriptor is the timer
            // UPID, so only the cost model is applied here.
            PreemptMechanism::UserTimer { .. } => self.costs.user_ipi(from, core),
            PreemptMechanism::PostedIpi => costs::POSTED_IPI,
            PreemptMechanism::KernelIpi | PreemptMechanism::KernelTick { .. } => {
                self.costs.kernel_ipi(from, core)
            }
            PreemptMechanism::Signal => self.costs.signal(from, core),
            PreemptMechanism::None => return,
        };
        // An installed fault plan may lose the notification in the fabric
        // (any posted PIR bit stays set, but the core is never interrupted)
        // or delay its delivery.
        let Some(extra) = self.chaos_ipi_extra_delay(core, purpose) else {
            return;
        };
        q.schedule_after(
            mech.send_ns() + mech.delivery_ns() + extra,
            Event::IpiArrive {
                core,
                purpose,
                expect,
            },
        );
    }

    fn on_segment_done(&mut self, q: &mut EventQueue<Event>, core: CoreId) {
        self.cores[core].done_token = None;
        self.note_progress(core, q.now());
        let t = self.cores[core]
            .current
            .expect("segment completion on idle core");
        {
            let task = self.tasks.get_mut(t);
            task.total_ran += task.remaining;
            task.remaining = Nanos::ZERO;
        }
        self.advance_task(q, core, Nanos::ZERO);
    }

    fn on_quantum_check(&mut self, q: &mut EventQueue<Event>, core: CoreId, task: TaskId) {
        if self.cores[core].current != Some(task) {
            return;
        }
        let now = q.now();
        let ran = now.saturating_sub(self.cores[core].run_start);
        if self
            .policy
            .sched_timer_tick(&mut self.tasks, core, task, ran, now)
        {
            self.stats.preemptions += 1;
            self.send_preempt_ipi(q, core, Some(task), IpiPurpose::Preempt);
            // Recovery for lost preempt IPIs: keep checking; if the IPI
            // landed the task is gone and the recheck returns early above.
            if self.chaos.is_some() && self.recovery {
                if let Some(quantum) = self.policy.quantum() {
                    q.schedule_after(quantum, Event::QuantumCheck { core, task });
                }
            }
        } else if let Some(quantum) = self.policy.quantum() {
            q.schedule_after(quantum, Event::QuantumCheck { core, task });
        }
    }

    fn on_core_alloc(&mut self, q: &mut EventQueue<Event>) {
        let Some(cfg) = self.core_alloc else { return };
        q.schedule_after(cfg.interval, Event::CoreAllocTick);
        let Some(be) = self.be_app else { return };
        let now = q.now();
        let delay = self.policy.queue_delay(&self.tasks, now);
        // A browned-out machine treats every alloc tick as congested: the
        // revoke branch reclaims BE cores one per tick and the grant branch
        // never runs, so BE share decays until the overload signal clears.
        let congested = delay.is_some_and(|d| d > cfg.congestion_delay) || self.browned_out();
        // Index loops: `worker_cores` is never mutated here, so iterating
        // by position avoids cloning the core list on every alloc tick.
        if congested {
            // Reclaim one BE core per decision (Shenango revokes
            // incrementally).
            for i in 0..self.worker_cores.len() {
                let core = self.worker_cores[i];
                let c = &self.cores[core];
                if c.granted_to_be && !c.revoking {
                    self.cores[core].revoking = true;
                    self.cores[core].idle_checks = 0;
                    self.send_preempt_ipi(q, core, None, IpiPurpose::Revoke);
                    self.after_revoke_sent(q, core);
                    break;
                }
            }
            for i in 0..self.worker_cores.len() {
                let core = self.worker_cores[i];
                self.cores[core].idle_checks = 0;
            }
        } else if self.policy.queue_len().unwrap_or(0) == 0 {
            // Grant a persistently idle LC core to the BE app.
            let mut granted = false;
            for i in 0..self.worker_cores.len() {
                let core = self.worker_cores[i];
                if self.cores[core].granted_to_be || !self.cores[core].is_idle() {
                    self.cores[core].idle_checks = 0;
                    continue;
                }
                self.cores[core].idle_checks += 1;
                if !granted
                    && self.cores[core].idle_checks >= cfg.grant_after_idle_checks
                    && self.kthread_ready(core, be)
                {
                    let c = &mut self.cores[core];
                    c.idle_checks = 0;
                    c.granted_to_be = true;
                    granted = true;
                    let be_task = c.be_task;
                    self.refresh_idle(core);
                    self.stats.be_grants += 1;
                    self.trace_emit(now, Some(core), be_task, TraceKind::Grant);
                    if let Some(be_task) = be_task {
                        self.run_task(q, core, be_task, Nanos::ZERO);
                    }
                }
            }
        } else {
            for i in 0..self.worker_cores.len() {
                let core = self.worker_cores[i];
                self.cores[core].idle_checks = 0;
            }
        }
    }

    /// One runqueue-AQM poll: condemn the victims the drop law selects
    /// (see [`RunqueueAqm`]), and feed the worst sojourn to the brownout
    /// controller so scheduler-side congestion engages the same
    /// graceful-degradation path as NIC-side congestion.
    fn on_rq_aqm_tick(&mut self, q: &mut EventQueue<Event>) {
        let Some(mut aqm) = self.rq_aqm.take() else {
            return;
        };
        let now = q.now();
        q.schedule_after(aqm.cfg().poll_every, Event::RqAqmTick);
        let mut condemned = Vec::new();
        let worst = aqm.tick(
            now,
            queued(&self.tasks, &self.cores),
            &self.apps,
            &mut condemned,
        );
        for t in condemned {
            self.tasks.get_mut(t).shed = true;
        }
        if let Some(w) = worst {
            self.note_overload_sample(now, w, false);
        }
        self.rq_aqm = Some(aqm);
    }

    /// Condemns the oldest queued request of any application whose
    /// registered SLO class is strictly looser than `slo`: the
    /// displacement half of per-class admission. When the admission
    /// controller sheds a tight-class request at the NIC, the congestion
    /// that doomed it is queued batch work — reclaiming one batch slot
    /// per tight-class shed is the feedback that makes *future*
    /// tight-class requests admittable again. Works with or without the
    /// runqueue AQM armed, and picks its victim by the AQM's rule
    /// (`aqm::Victims`); the condemned task is terminated (not run) at its
    /// next dequeue, exactly like an AQM victim. Returns whether a victim
    /// existed.
    pub fn shed_for_class(&mut self, slo: Nanos) -> bool {
        let apps = &self.apps;
        let looser = |app: AppId| apps[app].slo.is_some_and(|s| s.slo > slo);
        // A shed of the loosest class, the common case, has nothing to
        // displace: skip the scan.
        if !(0..apps.len()).any(looser) {
            return false;
        }
        let victim =
            Victims::collect(apps.len(), queued(&self.tasks, &self.cores), looser).take_oldest();
        let Some(victim) = victim else {
            return false;
        };
        self.tasks.get_mut(victim).shed = true;
        true
    }

    /// Terminates an AQM-condemned task at dequeue time instead of
    /// running it. Mirrors `finish_current`'s teardown — in particular the
    /// completion *is* credited to the task's home core so the NIC data
    /// plane's backpressure window keeps retiring — but records no
    /// response-latency sample: the shed shows up in
    /// [`Stats::rq_sheds`]/per-class counters, not the goodput histogram.
    fn shed_task(&mut self, q: &mut EventQueue<Event>, core: CoreId, t: TaskId) {
        let now = q.now();
        self.trace_emit(now, Some(core), Some(t), TraceKind::RqShed);
        let credit = self.tasks.get(t).home.unwrap_or(core);
        if let Some(slot) = self.stats.finished_by_core.get_mut(credit) {
            *slot += 1;
        }
        let class = self.tasks.get(t).req.map_or(0, |r| r.class);
        self.stats.rq_sheds += 1;
        self.stats.rq_sheds_by_class[crate::stats::class_slot(class)] += 1;
        self.policy.task_terminate(&mut self.tasks, t, now);
        let app = self.tasks.get(t).app;
        self.apps[app].live_tasks -= 1;
        let mut task = self.tasks.remove(t);
        const ONESHOT_POOL_CAP: usize = 1024;
        if self.oneshot_pool.len() < ONESHOT_POOL_CAP {
            if let Some(b) = task.behavior.take() {
                if let Some(os) = b.recycle() {
                    self.oneshot_pool.push(os);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Scheduling internals
    // ------------------------------------------------------------------

    /// Enqueues a runnable task and kicks the machinery that will run it.
    ///
    /// `leaving` is the core `t` has just left when that core runs its own
    /// schedule loop right after ([`Machine::requeue_and_reschedule`]).
    /// Queued there, `t` needs no kick: the loop looks for work at once.
    /// Returns whether that kick was held back.
    pub(crate) fn enqueue_task(
        &mut self,
        q: &mut EventQueue<Event>,
        t: TaskId,
        flags: EnqueueFlags,
        hint: Option<CoreId>,
        leaving: Option<CoreId>,
    ) -> bool {
        let now = q.now();
        match self.policy.kind() {
            PolicyKind::Centralized => {
                self.policy
                    .task_enqueue(&mut self.tasks, t, hint, flags, now);
                self.dispatch_gen += 1;
                self.dispatch(q);
            }
            PolicyKind::PerCpu => {
                let cpu = self.pick_enqueue_cpu(t, hint);
                self.policy
                    .task_enqueue(&mut self.tasks, t, Some(cpu), flags, now);
                if self.cores[cpu].is_idle() {
                    if leaving == Some(cpu) {
                        return true;
                    }
                    self.kick(q, cpu);
                } else if flags == EnqueueFlags::Wakeup || flags == EnqueueFlags::New {
                    // Wakeup preemption: ask the policy whether the woken
                    // task should preempt the core it was queued on.
                    if let Some(cur) = self.cores[cpu].current {
                        let ran = now.saturating_sub(self.cores[cpu].run_start);
                        if self
                            .policy
                            .check_wakeup_preempt(&self.tasks, t, cpu, cur, ran, now)
                        {
                            self.send_preempt_ipi(q, cpu, Some(cur), IpiPurpose::Preempt);
                        }
                    }
                }
            }
        }
        false
    }

    /// Wakes idle `core`: marks a `StartCore` in flight and sends it.
    pub(crate) fn kick(&mut self, q: &mut EventQueue<Event>, core: CoreId) {
        debug_assert!(self.cores[core].is_idle());
        self.cores[core].incoming = true;
        self.refresh_idle(core);
        q.schedule_after(self.plat.wake_latency, Event::StartCore { core });
    }

    /// Re-enqueues `t`, which has just left `core`, and runs `core`'s
    /// schedule loop at once (the preempt and yield paths). If `t` was
    /// queued on `core` itself, the kick [`Machine::enqueue_task`] held
    /// back is sent only when the loop leaves the core idle, for example
    /// when a readiness guard filtered every queued task; otherwise it
    /// would land on a core that is already running its next task. Until
    /// then `core` carries no `incoming` mark, which is sound because
    /// nothing between the requeue and `run_task` asks whether it is idle.
    fn requeue_and_reschedule(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        t: TaskId,
        flags: EnqueueFlags,
        overhead: Nanos,
    ) {
        let held = self.enqueue_task(q, t, flags, Some(core), Some(core));
        self.schedule_loop(q, core, overhead);
        if held && self.cores[core].is_idle() {
            self.kick(q, core);
        }
    }

    /// Chooses the runqueue core for a per-CPU enqueue, mirroring Linux's
    /// `select_task_rq`: an idle core if one exists (preferring the task's
    /// previous core, then the waker's), otherwise the previous core for
    /// cache affinity — critically *not* the waker's core, or every thread
    /// a message thread wakes would pile onto the waker's one queue —
    /// and round-robin for tasks that never ran.
    fn pick_enqueue_cpu(&mut self, t: TaskId, hint: Option<CoreId>) -> CoreId {
        let app = self.tasks.get(t).app;
        let last = self.tasks.get(t).last_cpu;
        for c in [last, hint].into_iter().flatten() {
            if c < self.cores.len()
                && self.cores[c].role == CoreRole::Worker
                && self.cores[c].is_idle()
                && self.can_queue_on(c, app)
            {
                return c;
            }
        }
        if let Some(&c) = self
            .worker_cores
            .iter()
            .find(|&&c| self.cores[c].is_idle() && self.can_queue_on(c, app))
        {
            return c;
        }
        if let Some(c) = last {
            if c < self.cores.len()
                && self.cores[c].role == CoreRole::Worker
                && self.can_queue_on(c, app)
            {
                return c;
            }
        }
        // Use the cursor before advancing it so the rotation starts at
        // worker 0 and visits every worker exactly once per lap.
        let n = self.worker_cores.len();
        for k in 0..n {
            let c = self.worker_cores[(self.rr_cursor + k) % n];
            if self.can_queue_on(c, app) {
                self.rr_cursor = (self.rr_cursor + k + 1) % n;
                return c;
            }
        }
        // Every core vetoed (all kernel threads fault-blocked); fall back
        // to the plain rotation — the resolve path will re-kick the queue.
        let c = self.worker_cores[self.rr_cursor % n];
        self.rr_cursor = (self.rr_cursor + 1) % n;
        c
    }

    /// Recomputes `core`'s bit in the idle-core bitmask. Must be called
    /// after any mutation of a core's `current`, `incoming`, or
    /// `granted_to_be` — the transitions that change whether the
    /// dispatcher may place work on it.
    #[inline]
    pub(crate) fn refresh_idle(&mut self, core: CoreId) {
        let c = &self.cores[core];
        let dispatchable = c.role == CoreRole::Worker && c.is_idle() && !c.granted_to_be;
        let bit = 1u64 << (core % 64);
        let word = &mut self.idle_mask[core / 64];
        if dispatchable {
            // A 0→1 transition grows the dispatchable set: invalidate any
            // completed dispatch pass at this timestamp.
            if *word & bit == 0 {
                *word |= bit;
                self.dispatch_gen += 1;
            }
        } else {
            *word &= !bit;
        }
    }

    /// Centralized dispatch: hand queued tasks to idle LC-owned workers.
    ///
    /// Same-timestamp dispatch triggers are coalesced behind a change
    /// generation: the preempt/yield paths fire `dispatch` twice in a row
    /// (once from the re-enqueue, once from the freed core's schedule
    /// loop), and the second trigger — same timestamp, no enqueue, no new
    /// idle core since the completed pass — is provably fruitless, so one
    /// `sched_poll` serves the whole burst. Coalescing never *defers* a
    /// productive poll (that could reorder placements); it only skips
    /// exact re-polls, so decisions are byte-identical to polling on every
    /// trigger. A trigger landing while a pass is mid-commit sets the
    /// dirty flag and folds into the current pass instead of re-entering
    /// and double-charging `dispatcher_free_at`.
    pub(crate) fn dispatch(&mut self, q: &mut EventQueue<Event>) {
        if self.policy.kind() != PolicyKind::Centralized {
            return;
        }
        if self.in_dispatch {
            self.dispatch_dirty = true;
            return;
        }
        if self.last_poll == (q.now(), self.dispatch_gen) {
            return;
        }
        self.in_dispatch = true;
        loop {
            self.dispatch_dirty = false;
            self.dispatch_pass(q);
            if !self.dispatch_dirty {
                break;
            }
        }
        self.in_dispatch = false;
    }

    /// One dispatch pass: poll the policy over the usable idle set and
    /// commit the placements on the serialized dispatcher core.
    ///
    /// Runs at dispatch rate on the hot path, so the idle list and the
    /// placement list live in machine-owned scratch buffers instead of
    /// fresh allocations, and the idle-worker set comes from the
    /// incrementally maintained bitmask instead of a `worker_cores` scan.
    /// Only `core_usable`, the §6 check that skips a core whose kernel
    /// thread is fault-blocked, is asked per set bit; the kernel module
    /// answers it from a per-core count, so it is O(1) while no fault is
    /// outstanding on that core.
    fn dispatch_pass(&mut self, q: &mut EventQueue<Event>) {
        let mut idle = std::mem::take(&mut self.idle_scratch);
        idle.clear();
        for (wi, &word) in self.idle_mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.core_usable(c) {
                    idle.push(c);
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            let oracle: Vec<CoreId> = self
                .worker_cores
                .iter()
                .copied()
                .filter(|&c| {
                    self.cores[c].is_idle() && !self.cores[c].granted_to_be && self.core_usable(c)
                })
                .collect();
            debug_assert_eq!(idle, oracle, "idle-core bitmask out of sync");
        }
        if idle.is_empty() {
            self.idle_scratch = idle;
            // An empty usable-idle set is still a completed (vacuous)
            // pass: until an enqueue or an idle transition bumps the
            // generation, nothing at this timestamp can make it fruitful.
            self.last_poll = (q.now(), self.dispatch_gen);
            return;
        }
        let now = q.now();
        let mut placements = std::mem::take(&mut self.poll_scratch);
        placements.clear();
        self.policy
            .sched_poll(&mut self.tasks, &idle, now, &mut placements);
        // Placements serialize on the dispatcher core.
        let mut busy_until = self.dispatcher_free_at.max(now);
        for &(core, task) in &placements {
            debug_assert!(self.cores[core].is_idle());
            self.cores[core].incoming = true;
            self.refresh_idle(core);
            busy_until += self.plat.dispatch_cost;
            q.schedule(
                busy_until + self.plat.dispatch_latency,
                Event::PlaceTask { core, task },
            );
        }
        self.dispatcher_free_at = busy_until;
        self.idle_scratch = idle;
        self.poll_scratch = placements;
        // Committing placements only *clears* idle bits, so the generation
        // recorded here still matches the inputs this pass saw.
        self.last_poll = (now, self.dispatch_gen);
    }

    /// The per-core main scheduling loop (§4.1's idle user thread).
    pub(crate) fn schedule_loop(
        &mut self,
        q: &mut EventQueue<Event>,
        core: CoreId,
        overhead: Nanos,
    ) {
        debug_assert!(self.cores[core].current.is_none());
        if self.cores[core].granted_to_be {
            if let Some(be) = self.cores[core].be_task {
                let be_app = self.tasks.get(be).app;
                if self.tasks.get(be).state == TaskState::Runnable
                    && self.kthread_ready(core, be_app)
                {
                    self.run_task(q, core, be, overhead);
                    return;
                }
            }
        }
        match self.policy.kind() {
            PolicyKind::Centralized => {
                // Worker goes idle; the dispatcher will place work.
                self.dispatch(q);
            }
            PolicyKind::PerCpu => {
                let now = q.now();
                loop {
                    let next = self
                        .policy
                        .task_dequeue(&mut self.tasks, core, now)
                        .or_else(|| self.policy.sched_balance(&mut self.tasks, core, now));
                    // Collect AQM-condemned tasks instead of running them,
                    // then keep looking for live work.
                    if let Some(t) = next {
                        if self.tasks.get(t).shed {
                            self.shed_task(q, core, t);
                            continue;
                        }
                    }
                    let next = self.filter_ready(core, next, now);
                    if let Some(t) = next {
                        self.run_task(q, core, t, overhead);
                    }
                    return;
                }
            }
        }
    }

    /// Switches to `t` on `core`, charging same-app or cross-app switch
    /// costs, then begins executing it.
    fn run_task(&mut self, q: &mut EventQueue<Event>, core: CoreId, t: TaskId, overhead: Nanos) {
        let mut overhead = overhead;
        let now = q.now();
        debug_assert!(self.cores[core].current.is_none());
        debug_assert_eq!(
            self.tasks.get(t).state,
            TaskState::Runnable,
            "running a non-runnable task"
        );
        let app = self.tasks.get(t).app;
        let cur_app = self.cores[core].cur_app;
        if cur_app != Some(app) {
            // Inter-application switch through the kernel module (§3.3).
            match cur_app {
                Some(prev) => {
                    let cur_tid = self.cores[core].kthreads[prev];
                    let tgt_tid = self.cores[core].kthreads[app];
                    self.kmod
                        .switch_to(cur_tid, tgt_tid)
                        .expect("single binding rule upheld by construction");
                }
                // The previous kernel thread fault-blocked with no
                // substitute (§6), leaving the core free; wake the target
                // application's parked thread onto it.
                None => {
                    let tgt_tid = self.cores[core].kthreads[app];
                    self.kmod
                        .wakeup(tgt_tid)
                        .expect("readiness guards admit only wakeable threads");
                }
            }
            overhead += self.plat.cross_app_switch;
            self.stats.app_switches += 1;
            self.cores[core].cur_app = Some(app);
        } else {
            overhead += self.plat.same_app_switch;
            self.stats.uthread_switches += 1;
        }
        {
            let task = self.tasks.get_mut(t);
            if task.measure_wakeup {
                task.measure_wakeup = false;
                let lat = (now + overhead).saturating_sub(task.runnable_since);
                self.stats.wakeup_hist.record(lat.0);
            }
            task.state = TaskState::Running;
            task.last_cpu = Some(core);
        }
        let c = &mut self.cores[core];
        c.current = Some(t);
        c.incoming = false;
        c.run_start = now;
        c.busy_since = Some((now, app));
        self.refresh_idle(core);
        self.note_progress(core, now);
        self.trace_emit(now, Some(core), Some(t), TraceKind::Switch);
        self.advance_task(q, core, overhead);
    }

    /// Steps the current task's behavior until it produces a compute
    /// segment (scheduled as a `SegmentDone` event) or leaves the core.
    fn advance_task(&mut self, q: &mut EventQueue<Event>, core: CoreId, overhead: Nanos) {
        let mut overhead = overhead;
        let now = q.now();
        let t = self.cores[core].current.expect("advance on idle core");
        let mut segment = self.tasks.get(t).remaining;
        if segment == Nanos::ZERO {
            let mut behavior = self
                .tasks
                .get_mut(t)
                .behavior
                .take()
                .expect("task without behavior");
            let mut steps = 0u32;
            loop {
                steps += 1;
                assert!(steps < 10_000, "behavior produced 10k zero-time steps");
                match behavior.step(now, t) {
                    Step::Compute(d) if d > Nanos::ZERO => {
                        segment = d;
                        break;
                    }
                    Step::Compute(_) => continue,
                    Step::Wake(target) => {
                        overhead += self.plat.wake_cost;
                        self.wake(q, target, Some(core));
                    }
                    Step::Yield => {
                        self.tasks.get_mut(t).behavior = Some(behavior);
                        self.stop_current(q, core, TaskState::Runnable);
                        // Re-stamp the wait anchor: the task's queue
                        // sojourn (queue_delay contract, runqueue AQM)
                        // starts at the yield, not the previous wake.
                        self.tasks.get_mut(t).runnable_since = now;
                        self.requeue_and_reschedule(q, core, t, EnqueueFlags::Yield, overhead);
                        return;
                    }
                    Step::Block => {
                        self.tasks.get_mut(t).behavior = Some(behavior);
                        self.stop_current(q, core, TaskState::Blocked);
                        self.policy.task_block(&mut self.tasks, t, core, now);
                        self.schedule_loop(q, core, overhead);
                        return;
                    }
                    Step::Exit => {
                        // Hand the box back so finish_current can recycle
                        // one-shot bodies into the pool.
                        self.tasks.get_mut(t).behavior = Some(behavior);
                        self.finish_current(q, core);
                        self.schedule_loop(q, core, overhead);
                        return;
                    }
                }
            }
            self.tasks.get_mut(t).behavior = Some(behavior);
            self.tasks.get_mut(t).remaining = segment;
        }
        let end = now + overhead + segment;
        let c = &mut self.cores[core];
        c.seg_end = end;
        debug_assert!(c.done_token.is_none());
        c.done_token = Some(q.schedule(end, Event::SegmentDone { core }));
        // Centralized quantum enforcement: the dispatcher watches this
        // worker. BE spin tasks are managed by the core allocator, not the
        // dispatcher, so they get no quantum checks.
        if self.policy.kind() == PolicyKind::Centralized && Some(t) != self.cores[core].be_task {
            if let Some(quantum) = self.policy.quantum() {
                if segment > quantum {
                    q.schedule(
                        now + overhead + quantum,
                        Event::QuantumCheck { core, task: t },
                    );
                }
            }
        }
    }

    /// Removes the current task from the core (yield/block path), closing
    /// busy accounting and cancelling the pending segment event.
    fn stop_current(&mut self, q: &mut EventQueue<Event>, core: CoreId, new_state: TaskState) {
        let t = self.cores[core].current.take().expect("no current task");
        self.refresh_idle(core);
        if let Some(tok) = self.cores[core].done_token.take() {
            q.cancel(tok);
        }
        self.close_busy(q.now(), core);
        self.tasks.get_mut(t).state = new_state;
        self.trace_emit(
            q.now(),
            Some(core),
            Some(t),
            if new_state == TaskState::Blocked {
                TraceKind::Block
            } else {
                TraceKind::Yield
            },
        );
    }

    /// Preempts the current task: remaining work is recomputed from the
    /// cancelled segment, the task re-enters the runqueue, and the core
    /// reschedules after `overhead` (the interrupt-handler cost).
    fn preempt_current(&mut self, q: &mut EventQueue<Event>, core: CoreId, overhead: Nanos) {
        let now = q.now();
        let t = self.cores[core].current.take().expect("preempt idle core");
        self.refresh_idle(core);
        if let Some(tok) = self.cores[core].done_token.take() {
            q.cancel(tok);
        }
        self.close_busy(now, core);
        let remaining = self.cores[core].seg_end.saturating_sub(now);
        {
            let task = self.tasks.get_mut(t);
            let executed = task.remaining.saturating_sub(remaining);
            task.total_ran += executed;
            task.remaining = remaining;
            task.state = TaskState::Runnable;
            task.preempt_count += 1;
            task.runnable_since = now;
        }
        self.trace_emit(now, Some(core), Some(t), TraceKind::Preempt);
        // The §5.2 core allocator parks BE tasks instead of re-enqueueing
        // them into the LC policy.
        if Some(t) == self.cores[core].be_task {
            self.schedule_loop(q, core, overhead);
            return;
        }
        self.requeue_and_reschedule(q, core, t, EnqueueFlags::Preempted, overhead);
    }

    /// Parks the machine-managed BE task on a revoked core.
    fn park_be_task(&mut self, q: &mut EventQueue<Event>, core: CoreId, overhead: Nanos) {
        let now = q.now();
        let t = self.cores[core].current.take().expect("park idle core");
        self.refresh_idle(core);
        debug_assert_eq!(Some(t), self.cores[core].be_task);
        if let Some(tok) = self.cores[core].done_token.take() {
            q.cancel(tok);
        }
        self.close_busy(now, core);
        let remaining = self.cores[core].seg_end.saturating_sub(now);
        let task = self.tasks.get_mut(t);
        task.remaining = remaining;
        task.state = TaskState::Runnable;
        task.preempt_count += 1;
        self.trace_emit(now, Some(core), Some(t), TraceKind::Park);
        self.schedule_loop(q, core, overhead);
    }

    /// Completes the current task: request accounting, policy teardown,
    /// slot recycling, application liveness.
    fn finish_current(&mut self, q: &mut EventQueue<Event>, core: CoreId) {
        let now = q.now();
        let t = self.cores[core].current.take().expect("finish idle core");
        self.refresh_idle(core);
        self.close_busy(now, core);
        self.trace_emit(now, Some(core), Some(t), TraceKind::Finish);
        // Completion is credited to the task's home (pinned) core, not
        // the core that happened to run it: the NIC data plane's
        // backpressure window counts requests it handed to worker `c` and
        // must see them retire at `c` even if a stealing policy migrated
        // the task.
        let credit = self.tasks.get(t).home.unwrap_or(core);
        if let Some(slot) = self.stats.finished_by_core.get_mut(credit) {
            *slot += 1;
        }
        if let Some(req) = self.tasks.get(t).req {
            self.stats
                .record_request(req.class, now - req.arrival, req.service);
            self.stats.last_completion = now;
        }
        self.policy.task_terminate(&mut self.tasks, t, now);
        let app = self.tasks.get(t).app;
        self.apps[app].live_tasks -= 1;
        let mut task = self.tasks.remove(t);
        // Recycle one-shot request bodies for pooled_oneshot; the bound
        // keeps a pathological burst from pinning memory forever.
        const ONESHOT_POOL_CAP: usize = 1024;
        if self.oneshot_pool.len() < ONESHOT_POOL_CAP {
            if let Some(b) = task.behavior.take() {
                if let Some(os) = b.recycle() {
                    self.oneshot_pool.push(os);
                }
            }
        }
    }

    pub(crate) fn close_busy(&mut self, now: Nanos, core: CoreId) {
        if let Some((since, app)) = self.cores[core].busy_since.take() {
            self.stats.busy_by_app[app] += now.saturating_sub(since).0;
        }
    }

    /// Applies an extra delay (interrupt handler, tick processing) to the
    /// currently running segment.
    pub(crate) fn delay_current(&mut self, q: &mut EventQueue<Event>, core: CoreId, cost: Nanos) {
        if cost == Nanos::ZERO {
            return;
        }
        let c = &mut self.cores[core];
        let Some(tok) = c.done_token.take() else {
            return;
        };
        c.seg_end += cost;
        c.done_token = q.reschedule(tok, c.seg_end);
        debug_assert!(c.done_token.is_some(), "stale segment token");
    }

    /// Whether a per-CPU enqueue may target `core` for a task of `app`:
    /// with a fault plan installed, cores whose kernel thread for the app
    /// is fault-blocked are vetoed.
    fn can_queue_on(&self, core: CoreId, app: AppId) -> bool {
        self.chaos.is_none() || self.kthread_ready(core, app)
    }
}

#[cfg(test)]
mod tests;
