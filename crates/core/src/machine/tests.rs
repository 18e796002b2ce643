//! Machine integration tests: preemption plumbing, multi-application
//! switching, dispatcher behaviour, core allocation.

use skyloft_hw::Topology;
use skyloft_sim::{EventQueue, Nanos};

use crate::builtin::{CentralizedFcfs, GlobalFifo};
use crate::conf::{CoreAllocConfig, Platform};
use crate::machine::{AppKind, Call, Event, IpiPurpose, Machine, MachineConfig, SpawnOpts};
use crate::ops::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
use crate::task::{Behavior, Step, TaskId, TaskTable};

fn percpu_machine(workers: usize, policy: Box<dyn Policy>) -> (Machine, EventQueue<Event>) {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(workers + 1), 100_000),
        n_workers: workers,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, policy);
    m.add_app("app0", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    (m, q)
}

fn central_machine(
    workers: usize,
    quantum: Option<Nanos>,
    core_alloc: Option<CoreAllocConfig>,
) -> (Machine, EventQueue<Event>) {
    let cfg = MachineConfig {
        plat: Platform::skyloft_centralized(Topology::single(workers + 1)),
        n_workers: workers,
        seed: 42,
        core_alloc,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(CentralizedFcfs::new(quantum)));
    m.add_app("lc", AppKind::Lc);
    let q = EventQueue::new();
    (m, q)
}

#[test]
fn single_request_completes_with_latency() {
    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    m.spawn_request(&mut q, 0, Nanos::from_us(10), 0, None);
    m.run(&mut q, Nanos::from_ms(1));
    assert_eq!(m.stats.completed, 1);
    let p50 = m.stats.resp_hist.percentile(50.0);
    // Response = wake latency (100) + switch (37) + 10us service.
    assert!((10_100..10_600).contains(&p50), "response {p50}");
}

#[test]
fn fifo_runs_to_completion_without_preemption() {
    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    // A 1 ms task followed by a 10 us task: FIFO (no tick preemption) must
    // finish the long one first even though timer interrupts fire.
    m.spawn_request(&mut q, 0, Nanos::from_ms(1), 1, None);
    m.spawn_request(&mut q, 0, Nanos::from_us(10), 0, None);
    m.run(&mut q, Nanos::from_ms(5));
    assert_eq!(m.stats.completed, 2);
    // The short request waited behind the long one (head-of-line blocking).
    let short_p50 = m.stats.resp_by_class[0].percentile(50.0);
    assert!(
        short_p50 > 1_000_000,
        "short request should HoL-block: {short_p50}"
    );
    // Timer interrupts were delivered but caused no preemptions.
    assert!(
        m.stats.timer_delivered > 50,
        "delivered {}",
        m.stats.timer_delivered
    );
    assert_eq!(m.stats.timer_lost, 0);
    assert_eq!(m.stats.preemptions, 0);
}

/// A per-CPU round-robin test policy with a tiny slice, to exercise the
/// user-timer preemption path end to end.
struct TinyRr {
    queue: std::collections::VecDeque<TaskId>,
    slice: Nanos,
}

impl Policy for TinyRr {
    fn name(&self) -> &'static str {
        "tiny-rr"
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::PerCpu
    }
    fn sched_init(&mut self, _env: &SchedEnv) {}
    fn task_init(&mut self, _t: &mut TaskTable, _id: TaskId, _now: Nanos) {}
    fn task_terminate(&mut self, _t: &mut TaskTable, _id: TaskId, _now: Nanos) {}
    fn task_enqueue(
        &mut self,
        _t: &mut TaskTable,
        id: TaskId,
        _cpu: Option<CoreId>,
        _f: EnqueueFlags,
        _now: Nanos,
    ) {
        self.queue.push_back(id);
    }
    fn task_dequeue(&mut self, _t: &mut TaskTable, _cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        self.queue.pop_front()
    }
    fn sched_timer_tick(
        &mut self,
        _t: &mut TaskTable,
        _cpu: CoreId,
        _cur: TaskId,
        ran: Nanos,
        _now: Nanos,
    ) -> bool {
        ran >= self.slice && !self.queue.is_empty()
    }
}

#[test]
fn user_timer_preemption_round_robins() {
    let (mut m, mut q) = percpu_machine(
        1,
        Box::new(TinyRr {
            queue: Default::default(),
            slice: Nanos::from_us(20),
        }),
    );
    // Two 200 us tasks on one core with a 20 us slice @ 100 kHz (10 us
    // ticks): they must interleave, so both finish near 400 us rather than
    // one at 200 us and the other at 400 us.
    m.spawn_request(&mut q, 0, Nanos::from_us(200), 0, None);
    m.spawn_request(&mut q, 0, Nanos::from_us(200), 1, None);
    m.run(&mut q, Nanos::from_ms(2));
    assert_eq!(m.stats.completed, 2);
    assert!(
        m.stats.preemptions >= 8,
        "preemptions {}",
        m.stats.preemptions
    );
    let a = m.stats.resp_by_class[0].percentile(50.0);
    let b = m.stats.resp_by_class[1].percentile(50.0);
    // Processor sharing: both completions land in the last quarter.
    assert!(a > 300_000, "first task response {a}");
    assert!(b > 300_000, "second task response {b}");
    // The UINTR timer path stayed armed the whole time.
    assert_eq!(m.stats.timer_lost, 0);
    assert!(m.uintr.stats.recognized > 0);
}

/// Counted work on the per-CPU preempt path: a preempting core runs its
/// own schedule loop at once, so it sends itself no `StartCore`. The only
/// kick is the one that woke the idle worker for the first task.
#[test]
fn preemption_sends_no_self_kicks() {
    use crate::trace::TraceKind;

    let (mut m, mut q) = percpu_machine(
        1,
        Box::new(TinyRr {
            queue: Default::default(),
            slice: Nanos::from_us(20),
        }),
    );
    m.spawn_request(&mut q, 0, Nanos::from_ms(2), 0, None);
    m.spawn_request(&mut q, 0, Nanos::from_ms(2), 1, None);
    m.run(&mut q, Nanos::from_ms(3));
    assert!(m.stats.preemptions > 0, "no preemptions");
    assert_eq!(m.tracer.dropped(), 0, "trace ring overflowed");
    let kicks = m
        .tracer
        .events()
        .filter(|e| e.kind == TraceKind::StartCore)
        .count();
    assert_eq!(kicks, 1, "{} preemptions", m.stats.preemptions);
}

/// The live-kick check fires on a `StartCore` that lands on a busy core.
#[test]
fn checker_flags_a_kick_on_a_busy_core() {
    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    m.tracer.checker.enabled = true;
    m.tracer.checker.panic_on_violation = false;
    m.spawn_request(&mut q, 0, Nanos::from_us(100), 0, None);
    m.run(&mut q, Nanos::from_us(50));
    let core = m.worker_cores[0];
    assert!(m.cores[core].current.is_some());
    q.schedule_after(Nanos::ZERO, Event::StartCore { core });
    m.run(&mut q, Nanos::from_us(60));
    let vs = m.tracer.checker.violations();
    assert!(
        vs.len() == 1 && vs[0].contains("StartCore landed"),
        "{vs:?}"
    );
}

struct WakerThenBlock {
    target: TaskId,
    woke: bool,
}

impl Behavior for WakerThenBlock {
    fn step(&mut self, _now: Nanos, _id: TaskId) -> Step {
        if !self.woke {
            self.woke = true;
            Step::Wake(self.target)
        } else {
            Step::Exit
        }
    }
}

struct BlockOnce {
    blocked: bool,
}

impl Behavior for BlockOnce {
    fn step(&mut self, _now: Nanos, _id: TaskId) -> Step {
        if !self.blocked {
            self.blocked = true;
            Step::Block
        } else {
            Step::Exit
        }
    }
}

#[test]
fn wakeup_latency_is_recorded() {
    let (mut m, mut q) = percpu_machine(2, Box::new(GlobalFifo::new()));
    let sleeper = m.spawn(
        &mut q,
        Box::new(BlockOnce { blocked: false }),
        SpawnOpts::app(0),
    );
    // Let the sleeper run and block.
    m.run(&mut q, Nanos::from_us(50));
    // Waker wakes it from another task.
    m.spawn(
        &mut q,
        Box::new(WakerThenBlock {
            target: sleeper,
            woke: false,
        }),
        SpawnOpts::app(0),
    );
    m.run(&mut q, Nanos::from_ms(1));
    assert!(m.stats.wakeup_hist.count() >= 1);
    let p99 = m.stats.wakeup_hist.percentile(99.0);
    // Idle core available: wakeup latency ~ wake_latency + switch.
    assert!(p99 < 1_000, "wakeup latency {p99}");
    assert_eq!(m.apps[0].live_tasks, 0);
}

#[test]
fn cross_app_switch_goes_through_kmod() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
        n_workers: 1,
        seed: 7,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
    m.add_app("a", AppKind::Lc);
    m.add_app("b", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    m.spawn_request(&mut q, 0, Nanos::from_us(5), 0, None);
    m.spawn_request(&mut q, 1, Nanos::from_us(5), 0, None);
    m.spawn_request(&mut q, 0, Nanos::from_us(5), 0, None);
    m.run(&mut q, Nanos::from_ms(1));
    assert_eq!(m.stats.completed, 3);
    // a -> b -> a: two inter-application switches, both via the module.
    assert_eq!(m.stats.app_switches, 2);
    assert_eq!(m.kmod.stats.switches, 2);
    m.kmod.check_binding_rule().unwrap();
    // Cross-app switches are ~50x costlier than same-app ones.
    assert_eq!(m.plat.cross_app_switch, Nanos(1_905));
}

#[test]
fn centralized_dispatch_and_quantum_preemption() {
    let (mut m, mut q) = central_machine(2, Some(Nanos::from_us(30)), None);
    m.start(&mut q);
    // One long (10 ms) and many short (4 us) requests: with a 30 us
    // quantum the shorts must not wait for the long request.
    m.spawn_request(&mut q, 0, Nanos::from_ms(10), 1, None);
    m.spawn_request(&mut q, 0, Nanos::from_ms(10), 1, None);
    for _ in 0..50 {
        m.spawn_request(&mut q, 0, Nanos::from_us(4), 0, None);
    }
    m.run(&mut q, Nanos::from_ms(60));
    assert_eq!(m.stats.completed, 52);
    let short_p99 = m.stats.resp_by_class[0].percentile(99.0);
    // 50 shorts sharing slots with two preempted longs: worst case a few
    // hundred us, not 10 ms.
    assert!(short_p99 < 2_000_000, "short p99 {short_p99}");
    // FCFS re-enqueues preempted longs at the back, so each long is
    // preempted once while shorts drain, then runs out its quantum checks
    // against an empty queue.
    assert!(
        m.stats.preemptions >= 2,
        "preemptions {}",
        m.stats.preemptions
    );
}

#[test]
fn centralized_without_quantum_hol_blocks() {
    let (mut m, mut q) = central_machine(1, None, None);
    m.start(&mut q);
    m.spawn_request(&mut q, 0, Nanos::from_ms(10), 1, None);
    m.spawn_request(&mut q, 0, Nanos::from_us(4), 0, None);
    m.run(&mut q, Nanos::from_ms(30));
    assert_eq!(m.stats.completed, 2);
    let short = m.stats.resp_by_class[0].percentile(50.0);
    assert!(short > 9_000_000, "short blocked behind long: {short}");
    assert_eq!(m.stats.preemptions, 0);
}

#[test]
fn core_allocator_grants_and_revokes() {
    let alloc = CoreAllocConfig {
        interval: Nanos::from_us(5),
        congestion_delay: Nanos::from_us(10),
        grant_after_idle_checks: 2,
    };
    let (mut m, mut q) = central_machine(2, Some(Nanos::from_us(30)), Some(alloc));
    let be = m.add_app("batch", AppKind::Be);
    m.start(&mut q);
    // Idle LC: the allocator must grant cores to the BE app.
    m.run(&mut q, Nanos::from_ms(1));
    assert!(m.stats.be_grants >= 1, "grants {}", m.stats.be_grants);
    let be_busy_at_idle = m.busy_ns(be, q.now());
    assert!(be_busy_at_idle > 0, "BE app should have run");

    // Now flood the LC app; the allocator must revoke cores back.
    for _ in 0..500 {
        m.spawn_request(&mut q, 0, Nanos::from_us(100), 0, None);
    }
    m.run(&mut q, Nanos::from_ms(60));
    assert!(m.stats.be_revokes >= 1, "revokes {}", m.stats.be_revokes);
    assert!(m.stats.completed >= 500, "completed {}", m.stats.completed);
    m.kmod.check_binding_rule().unwrap();
}

#[test]
fn be_share_tracks_lc_load() {
    let alloc = CoreAllocConfig::default();
    let (mut m, mut q) = central_machine(4, Some(Nanos::from_us(30)), Some(alloc));
    m.add_app("batch", AppKind::Be);
    m.start(&mut q);
    m.run(&mut q, Nanos::from_ms(2));
    m.reset_stats(q.now());
    m.run(&mut q, Nanos::from_ms(10));
    let share_idle = m.app_share(1, q.now());
    assert!(
        share_idle > 0.8,
        "idle LC should cede most cores: {share_idle}"
    );
}

#[test]
fn brownout_hysteresis_engages_and_releases() {
    use crate::conf::BrownoutConfig;
    let (mut m, _q) = central_machine(2, None, None);
    m.set_brownout(BrownoutConfig::default()); // enter 50us / exit 10us / dwell 100us
    assert!(!m.browned_out());
    // Sustained overload: the EWMA crosses the engage threshold within a
    // handful of samples, and the min-dwell gate opens at 100 us.
    let mut now = Nanos::ZERO;
    for _ in 0..150 {
        now += Nanos::from_us(1);
        m.note_overload_sample(now, Nanos::from_us(200), false);
    }
    assert!(m.browned_out(), "sustained overload must engage");
    assert_eq!(m.brownout_transitions(), 1);
    // Mid-band samples (between exit and enter): hysteresis holds.
    for _ in 0..200 {
        now += Nanos::from_us(1);
        m.note_overload_sample(now, Nanos::from_us(30), false);
    }
    assert!(m.browned_out(), "mid-band must not release");
    assert_eq!(m.brownout_transitions(), 1);
    // Quiet rings: the EWMA decays below the exit threshold.
    for _ in 0..300 {
        now += Nanos::from_us(1);
        m.note_overload_sample(now, Nanos::ZERO, false);
    }
    assert!(!m.browned_out(), "quiet rings must release");
    assert_eq!(m.brownout_transitions(), 2);
    // Backpressure alone (half-threshold penalty) never engages; it only
    // tips the balance when sojourns are already elevated.
    for _ in 0..300 {
        now += Nanos::from_us(1);
        m.note_overload_sample(now, Nanos::ZERO, true);
    }
    assert!(!m.browned_out());
}

#[test]
fn brownout_revokes_be_cores_even_when_lc_is_idle() {
    use crate::conf::BrownoutConfig;
    let alloc = CoreAllocConfig {
        interval: Nanos::from_us(5),
        congestion_delay: Nanos::from_us(10),
        grant_after_idle_checks: 2,
    };
    let (mut m, mut q) = central_machine(2, Some(Nanos::from_us(30)), Some(alloc));
    m.add_app("batch", AppKind::Be);
    m.set_brownout(BrownoutConfig::default());
    m.start(&mut q);
    // Idle LC: the allocator grants cores to the BE app as usual — the
    // controller is armed but disengaged.
    m.run(&mut q, Nanos::from_ms(1));
    assert!(m.stats.be_grants >= 1, "grants {}", m.stats.be_grants);
    assert!(!m.browned_out());
    // The polling core reports sustained ring overload: the scheduler
    // queues are empty (LC idle), yet the machine must shed BE share.
    let mut now = q.now();
    for _ in 0..200 {
        now += Nanos::from_us(1);
        m.note_overload_sample(now, Nanos::from_us(500), true);
    }
    assert!(m.browned_out());
    let grants_at_engage = m.stats.be_grants;
    m.run(&mut q, Nanos::from_ms(2));
    assert!(
        m.stats.be_revokes >= 1,
        "brownout must reclaim BE cores: revokes {}",
        m.stats.be_revokes
    );
    assert_eq!(
        m.stats.be_grants, grants_at_engage,
        "no BE grants while browned out"
    );
    m.kmod.check_binding_rule().unwrap();
}

#[test]
fn call_events_run() {
    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    q.schedule(
        Nanos::from_us(5),
        Event::Call(Call(Box::new(|m, q| {
            m.spawn_request(q, 0, Nanos::from_us(1), 0, None);
        }))),
    );
    m.run(&mut q, Nanos::from_ms(1));
    assert_eq!(m.stats.completed, 1);
}

#[test]
fn yield_rotates_between_tasks() {
    struct YieldN {
        left: u32,
    }
    impl Behavior for YieldN {
        fn step(&mut self, _now: Nanos, _id: TaskId) -> Step {
            if self.left == 0 {
                return Step::Exit;
            }
            self.left -= 1;
            if self.left % 2 == 1 {
                Step::Compute(Nanos(500))
            } else {
                Step::Yield
            }
        }
    }
    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    m.spawn(&mut q, Box::new(YieldN { left: 10 }), SpawnOpts::app(0));
    m.spawn(&mut q, Box::new(YieldN { left: 10 }), SpawnOpts::app(0));
    m.run(&mut q, Nanos::from_ms(1));
    assert_eq!(m.apps[0].live_tasks, 0);
    // 5 yields each, all on the same core with same-app fast-path switches.
    assert!(m.stats.uthread_switches >= 10);
    assert_eq!(m.stats.app_switches, 0);
}

#[test]
fn stats_reset_clears_but_keeps_busy_anchors() {
    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    m.spawn_request(&mut q, 0, Nanos::from_ms(5), 0, None);
    m.run(&mut q, Nanos::from_ms(1));
    m.reset_stats(q.now());
    assert_eq!(m.stats.completed, 0);
    m.run(&mut q, Nanos::from_ms(10));
    assert_eq!(m.stats.completed, 1);
    // Busy time counted after reset must be ~4 ms, not 5.
    let busy = m.stats.busy_by_app[0];
    assert!((3_500_000..4_500_000).contains(&busy), "busy {busy}");
}

#[test]
fn round_robin_placement_starts_at_worker_zero() {
    use std::cell::RefCell;
    use std::rc::Rc;

    /// FIFO that records the core hint of every enqueue.
    struct RecordingFifo {
        queue: std::collections::VecDeque<TaskId>,
        placements: Rc<RefCell<Vec<Option<CoreId>>>>,
    }
    impl Policy for RecordingFifo {
        fn name(&self) -> &'static str {
            "recording-fifo"
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::PerCpu
        }
        fn sched_init(&mut self, _env: &SchedEnv) {}
        fn task_init(&mut self, _t: &mut TaskTable, _id: TaskId, _now: Nanos) {}
        fn task_terminate(&mut self, _t: &mut TaskTable, _id: TaskId, _now: Nanos) {}
        fn task_enqueue(
            &mut self,
            _t: &mut TaskTable,
            id: TaskId,
            cpu: Option<CoreId>,
            _f: EnqueueFlags,
            _now: Nanos,
        ) {
            self.placements.borrow_mut().push(cpu);
            self.queue.push_back(id);
        }
        fn task_dequeue(
            &mut self,
            _t: &mut TaskTable,
            _cpu: CoreId,
            _now: Nanos,
        ) -> Option<TaskId> {
            self.queue.pop_front()
        }
    }

    let placements = Rc::new(RefCell::new(Vec::new()));
    let (mut m, mut q) = percpu_machine(
        3,
        Box::new(RecordingFifo {
            queue: Default::default(),
            placements: placements.clone(),
        }),
    );
    // Occupy every worker with a long pinned task.
    for c in 0..3 {
        m.spawn_request(&mut q, 0, Nanos::from_ms(10), 0, Some(c));
    }
    m.run(&mut q, Nanos::from_us(5));
    for c in 0..3 {
        assert!(m.cores[c].current.is_some(), "core {c} should be busy");
    }
    placements.borrow_mut().clear();
    // Never-run, unpinned tasks arriving while every core is busy must be
    // spread round-robin starting at worker 0 — regression test for the
    // cursor being advanced before use, which made worker 0 the *last*
    // choice of every lap.
    for _ in 0..3 {
        m.spawn_request(&mut q, 0, Nanos::from_us(1), 0, None);
    }
    assert_eq!(*placements.borrow(), vec![Some(0), Some(1), Some(2)]);
}

#[test]
fn revoke_counters_track_state_transitions() {
    let alloc = CoreAllocConfig {
        interval: Nanos::from_us(5),
        congestion_delay: Nanos::from_us(10),
        grant_after_idle_checks: 2,
    };
    let (mut m, mut q) = central_machine(2, Some(Nanos::from_us(30)), Some(alloc));
    m.add_app("batch", AppKind::Be);
    m.start(&mut q);

    // A stray revoke IPI at a core the allocator never granted must not
    // count as a revocation or disturb the core's grant state.
    m.handle(
        Event::IpiArrive {
            core: 0,
            purpose: IpiPurpose::Revoke,
            expect: None,
        },
        &mut q,
    );
    assert_eq!(m.stats.be_revokes, 0);
    assert!(m.stats.spurious_ipis >= 1);

    // Idle LC: the allocator grants cores to the BE app.
    m.run(&mut q, Nanos::from_ms(1));
    assert!(m.stats.be_grants >= 1, "grants {}", m.stats.be_grants);
    let core = m
        .worker_cores
        .iter()
        .copied()
        .find(|&c| m.cores[c].granted_to_be)
        .expect("a granted core");

    // A real revoke counts exactly once and clears the grant...
    let before = m.stats.be_revokes;
    m.handle(
        Event::IpiArrive {
            core,
            purpose: IpiPurpose::Revoke,
            expect: None,
        },
        &mut q,
    );
    assert_eq!(m.stats.be_revokes, before + 1);
    assert!(!m.cores[core].granted_to_be);

    // ...and a duplicate revoke for the same core is spurious.
    m.handle(
        Event::IpiArrive {
            core,
            purpose: IpiPurpose::Revoke,
            expect: None,
        },
        &mut q,
    );
    assert_eq!(m.stats.be_revokes, before + 1);
}

#[test]
fn app_share_counts_still_running_be_spinner() {
    let alloc = CoreAllocConfig::default();
    let (mut m, mut q) = central_machine(2, Some(Nanos::from_us(30)), Some(alloc));
    let be = m.add_app("batch", AppKind::Be);
    m.start(&mut q);
    m.run(&mut q, Nanos::from_ms(2));
    m.reset_stats(q.now());
    m.run(&mut q, Nanos::from_ms(5));
    let now = q.now();
    // The spinner has been running the whole window without stopping, so
    // its busy interval is still open: the closed-interval counter alone
    // undercounts, and the share must come from `Machine::busy_ns`.
    assert!(
        m.busy_ns(be, now) > m.stats.busy_by_app[be],
        "open interval missing: busy_ns {} vs closed {}",
        m.busy_ns(be, now),
        m.stats.busy_by_app[be]
    );
    let share = m.app_share(be, now);
    assert!(share > 0.8, "running spinner must be counted: {share}");
}

#[test]
fn trace_records_events_and_exports_chrome_json() {
    use crate::trace::TraceKind;

    let (mut m, mut q) = percpu_machine(1, Box::new(GlobalFifo::new()));
    // On in every build profile, not only under debug assertions.
    m.tracer.checker.enabled = true;
    m.spawn_request(&mut q, 0, Nanos::from_us(30), 0, None);
    m.spawn_request(&mut q, 0, Nanos::from_us(30), 1, None);
    m.run(&mut q, Nanos::from_ms(1));
    assert!(m.tracer.checker.checks_run() > 0, "checker must have run");
    assert!(m.tracer.checker.violations().is_empty());
    let kinds: Vec<_> = m.tracer.events().map(|e| e.kind).collect();
    for kind in [TraceKind::TimerFire, TraceKind::Switch, TraceKind::Finish] {
        assert!(kinds.contains(&kind), "missing {kind:?} in {kinds:?}");
    }
    let json = m.trace_to_chrome_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""), "run slices present");
    assert!(
        json.contains("\"name\":\"app0/"),
        "slices named by app/task"
    );
}

#[test]
fn utimer_emulation_preempts_via_ipis() {
    let mut plat = Platform::skyloft_centralized(Topology::single(3));
    plat.mech = crate::conf::PreemptMechanism::UserIpi;
    plat.dedicated_dispatcher = true;
    let cfg = MachineConfig {
        plat,
        n_workers: 1,
        seed: 9,
        core_alloc: None,
        utimer_period: Some(Nanos::from_us(5)),
    };
    // Per-CPU FIFO policy driven by utimer IPIs acting as ticks.
    let mut m = Machine::new(
        cfg,
        Box::new(TinyRr {
            queue: Default::default(),
            slice: Nanos::from_us(5),
        }),
    );
    m.add_app("a", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    m.spawn_request(&mut q, 0, Nanos::from_us(100), 0, None);
    m.spawn_request(&mut q, 0, Nanos::from_us(100), 1, None);
    m.run(&mut q, Nanos::from_ms(1));
    assert_eq!(m.stats.completed, 2);
    assert!(
        m.stats.preemptions >= 4,
        "preemptions {}",
        m.stats.preemptions
    );
}

#[test]
fn runtime_trace_disable_records_nothing() {
    // The cached `tracing_active` flag must make the emit paths a single
    // branch: with the ring disabled at runtime, no TraceEvent is
    // constructed (nothing buffered, nothing evicted), while scheduling
    // decisions and the independently-controlled invariant checker are
    // unaffected.
    let run_one = |active: bool| {
        let (mut m, mut q) = percpu_machine(2, Box::new(GlobalFifo::new()));
        m.tracer.set_active(active);
        m.tracer.checker.enabled = true;
        for i in 0..8 {
            m.spawn_request(&mut q, 0, Nanos::from_us(20 + i * 3), 0, None);
        }
        m.run(&mut q, Nanos::from_ms(1));
        m
    };
    let off = run_one(false);
    assert!(off.tracer.is_empty(), "disabled ring must stay empty");
    assert_eq!(
        off.tracer.dropped(),
        0,
        "nothing constructed, nothing evicted"
    );
    assert!(
        off.tracer.checker.checks_run() > 0,
        "checker is independent"
    );
    let on = run_one(true);
    assert!(!on.tracer.is_empty());
    // Identical decisions either way.
    assert_eq!(off.stats.completed, on.stats.completed);
    assert_eq!(
        off.stats.resp_hist.percentile(99.0),
        on.stats.resp_hist.percentile(99.0)
    );
}

#[test]
fn batched_run_is_decision_identical_to_serial_handling() {
    // Machine-level differential for the batch pipeline: the same workload
    // driven through `Machine::run` (same-timestamp batches, coalesced
    // dispatch triggers) and through the serial event-at-a-time loop must
    // produce identical statistics. Bursts of arrivals share timestamps
    // with quantum checks and preemptions, so this exercises multi-event
    // batches, the dispatch generation skip, and intra-batch cancellation
    // (a preemption cancelling a same-timestamp segment completion).
    let build = || {
        let (mut m, mut q) = central_machine(2, Some(Nanos::from_us(5)), None);
        m.start(&mut q);
        for i in 0..60u64 {
            let at = Nanos((i / 5) * 5_000);
            let service = Nanos::from_us(3 + (i % 7) * 4);
            let class = (i % 3) as u8;
            q.schedule(
                at,
                Event::Call(Call(Box::new(move |m, q| {
                    m.spawn_request(q, 0, service, class, None);
                }))),
            );
        }
        (m, q)
    };
    let deadline = Nanos::from_ms(20);
    let (mut serial_m, mut serial_q) = build();
    skyloft_sim::run_until(&mut serial_m, &mut serial_q, deadline, |m, ev, q| {
        m.handle(ev, q)
    });
    let (mut batched_m, mut batched_q) = build();
    batched_m.run(&mut batched_q, deadline);
    assert_eq!(batched_m.stats.completed, serial_m.stats.completed);
    assert!(batched_m.stats.completed > 0, "workload must complete work");
    assert_eq!(batched_m.stats.preemptions, serial_m.stats.preemptions);
    assert!(serial_m.stats.preemptions > 0, "workload must preempt");
    assert_eq!(batched_m.stats.app_switches, serial_m.stats.app_switches);
    assert_eq!(
        batched_m.stats.uthread_switches,
        serial_m.stats.uthread_switches
    );
    assert_eq!(batched_m.stats.spurious_ipis, serial_m.stats.spurious_ipis);
    for p in [50.0, 90.0, 99.0, 100.0] {
        assert_eq!(
            batched_m.stats.resp_hist.percentile(p),
            serial_m.stats.resp_hist.percentile(p),
            "p{p} diverged"
        );
    }
    assert_eq!(batched_q.now(), serial_q.now());
    assert_eq!(batched_q.len(), serial_q.len());
}

/// Requests queued behind one worker that a 10 ms unclassed request
/// holds: unclassed (app 0), LC (app 1, 200 µs SLO) and, with `batch`,
/// batch (app 2, 5 ms SLO) requests arrive at 5, 10, 15 and 20 µs. A
/// second batch request ties the first one at 10 µs. Returns the machine
/// and the queued `[unclassed, lc, batch]` task ids, oldest first.
fn queued_mix(
    rq_aqm: Option<crate::conf::RunqueueAqmConfig>,
    batch: bool,
) -> (Machine, EventQueue<Event>, [Vec<TaskId>; 3]) {
    use crate::conf::SloClass;
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
        n_workers: 1,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
    m.add_app("unclassed", AppKind::Lc);
    m.add_app("lc", AppKind::Lc);
    m.add_app("batch", AppKind::Lc);
    m.set_slo_class(1, SloClass::latency_critical(Nanos::from_us(200)));
    m.set_slo_class(2, SloClass::batch(Nanos::from_ms(5)));
    if let Some(cfg) = rq_aqm {
        m.set_runqueue_aqm(cfg);
    }
    let mut q = EventQueue::new();
    m.start(&mut q);
    m.spawn_request(&mut q, 0, Nanos::from_ms(10), 0, None);
    let mut ids: [Vec<TaskId>; 3] = Default::default();
    for k in 1..=4u64 {
        m.run(&mut q, Nanos::from_us(5 * k));
        let apps: &[usize] = match (batch, k) {
            (false, _) => &[0, 1],
            (true, 2) => &[0, 2, 1, 2],
            (true, _) => &[0, 2, 1],
        };
        for &app in apps {
            ids[app].push(m.spawn_request(&mut q, app, Nanos::from_us(5), 0, None));
        }
    }
    (m, q, ids)
}

/// The queued tasks of `ids` the overload stack has condemned.
fn condemned(m: &Machine, ids: &[TaskId]) -> Vec<TaskId> {
    ids.iter()
        .copied()
        .filter(|&t| m.tasks.get(t).shed)
        .collect()
}

#[test]
fn shed_for_class_condemns_the_oldest_looser_task() {
    let lc_slo = Nanos::from_us(200);
    let (mut m, _q, [unclassed, lc, batch]) = queued_mix(None, true);
    assert!(m.shed_for_class(lc_slo));
    assert_eq!(condemned(&m, &batch), batch[..1]);
    // The next call skips the condemned task: its same-instant twin,
    // spawned after it, is next.
    assert!(m.shed_for_class(lc_slo));
    assert_eq!(condemned(&m, &batch), batch[..2]);
    // Nothing is looser than batch, and LC and unclassed work is never a
    // displacement victim.
    assert!(!m.shed_for_class(Nanos::from_ms(5)));
    assert!(condemned(&m, &lc).is_empty());
    assert!(condemned(&m, &unclassed).is_empty());
}

#[test]
fn shed_for_class_finds_no_victim_without_looser_work() {
    let (mut m, _q, [unclassed, lc, _]) = queued_mix(None, false);
    // Only LC (not looser than itself) and unclassed work is queued.
    assert!(!m.shed_for_class(Nanos::from_us(200)));
    assert!(condemned(&m, &lc).is_empty());
    assert!(condemned(&m, &unclassed).is_empty());
}

#[test]
fn rq_aqm_condemns_batch_oldest_first_under_congestion() {
    let cfg = crate::conf::RunqueueAqmConfig {
        interval: Nanos::from_us(100),
        ..Default::default()
    };
    let (mut m, mut q, [unclassed, lc, batch]) = queued_mix(Some(cfg), true);
    // The worker stays held, so LC and unclassed sojourn grow past their
    // targets and their controllers keep firing. Every drop takes the
    // oldest batch task still queued; at every tick the condemned set is
    // a prefix of the batch tasks in age order.
    let mut seen = 0;
    for tick in 1..=300u64 {
        m.run(&mut q, Nanos::from_us(20 + 10 * tick));
        let shed = condemned(&m, &batch);
        assert_eq!(shed, batch[..shed.len()], "tick {tick}");
        assert!(shed.len() >= seen);
        seen = shed.len();
        assert!(condemned(&m, &lc).is_empty(), "LC shed at tick {tick}");
        assert!(condemned(&m, &unclassed).is_empty());
    }
    assert_eq!(
        seen,
        batch.len(),
        "sustained congestion sheds every batch task"
    );
    assert_eq!(m.stats.rq_sheds, 0, "condemned tasks are reaped at dequeue");
}

/// App ids fit 8 bits with one value to spare: 255 applications register,
/// the 256th is refused rather than aliasing another app's id.
#[test]
#[should_panic(expected = "at most 255 applications")]
fn add_app_refuses_the_256th_application() {
    let (mut m, _q) = central_machine(1, None, None);
    for i in 1..crate::machine::MAX_APPS {
        assert_eq!(m.add_app(&format!("app{i}"), AppKind::Lc), i);
    }
    m.add_app("one too many", AppKind::Lc);
}
