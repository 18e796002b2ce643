//! Counted-work gate: heap allocations per simulated event.
//!
//! A counting global allocator tallies the allocations of the test thread
//! alone (a thread-local counter, so tests running in parallel do not
//! see each other's). Each test warms its machine up, then counts the
//! allocations of a measured window and divides by the events handled in
//! it. Virtual-time runs are deterministic, so the count is exact and
//! cannot flake; a ceiling is the measured ratio plus a margin, and a
//! change that starts allocating on a per-event path trips it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skyloft::builtin::GlobalFifo;
use skyloft::conf::{RunqueueAqmConfig, SloClass};
use skyloft::machine::{AppKind, Call, Event, Machine, MachineConfig};
use skyloft::{Platform, SchedParams};
use skyloft_apps::schbench;
use skyloft_apps::synthetic::{install_tenants, OverloadControl, Tenant};
use skyloft_hw::Topology;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::{AdmissionConfig, CodelConfig, NicConfig, RetryPolicy};
use skyloft_policies::Eevdf;
use skyloft_sim::{Distribution, EventQueue, Nanos};

/// Forwards to the system allocator, counting each allocation and
/// reallocation made by the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counter is gone.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: forwards every call unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local that allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `m` to `warm`, then to `warm + measure`, and returns the
/// allocations per event of the second window with its event count.
///
/// Debug builds run the invariant checker after every event batch, so
/// there the window counts the checker's allocations too.
fn allocs_per_event(
    m: &mut Machine,
    q: &mut EventQueue<Event>,
    warm: Nanos,
    measure: Nanos,
) -> (f64, u64) {
    m.run(q, warm);
    let before = allocs();
    let events = m.run(q, warm + measure);
    let n = allocs() - before;
    assert!(events > 0, "the measured window handled no events");
    (n as f64 / events as f64, events)
}

/// `slo_sweep`'s 2x point at test scale: an LC tenant and a batch tenant
/// on one shared NIC plane of 4 workers, with ring CoDel, per-class
/// admission, class-provisioned retries and the runqueue AQM all armed.
/// Wire transits and poll hand-offs are boxed callbacks, so the ratio sits
/// well above zero (0.469 measured); the 0.5 ceiling catches a new
/// per-poll or per-tick allocation such as rebuilding the poller's drain
/// buffers (0.64 before they were kept).
#[test]
fn tenants_overload_allocations_per_event() {
    const WORKERS: usize = 4;
    const LC_SLO: Nanos = Nanos::from_us(200);
    const BATCH_SLO: Nanos = Nanos::from_ms(5);
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), 100_000),
        n_workers: WORKERS,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
    m.add_app("lc", AppKind::Lc);
    m.add_app("batch", AppKind::Lc);
    m.set_slo_class(0, SloClass::latency_critical(LC_SLO));
    m.set_slo_class(1, SloClass::batch(BATCH_SLO));
    m.set_runqueue_aqm(RunqueueAqmConfig {
        interval: Nanos::from_us(100),
        ..Default::default()
    });
    let mut q = EventQueue::new();
    m.start(&mut q);

    let (warm, measure) = (Nanos::from_ms(20), Nanos::from_ms(30));
    let tenant = |rate, service, app: usize, seed| Tenant {
        gen: OpenLoop::new(
            rate,
            Distribution::Constant(service),
            Nanos::from_us(100),
            seed,
        ),
        app,
        class: Some(app as u8),
    };
    let mut adm = AdmissionConfig::default();
    adm.class_slo[0] = Some(LC_SLO);
    adm.class_slo[1] = Some(BATCH_SLO);
    let mut frac = [None; skyloft_net::overload::MAX_CLASSES];
    frac[0] = Some(SloClass::latency_critical(LC_SLO).retry_frac);
    frac[1] = Some(SloClass::batch(BATCH_SLO).retry_frac);
    let ctl = OverloadControl {
        codel: Some(CodelConfig::default()),
        admission: Some(adm),
        retry: Some(RetryPolicy::default()),
        retry_frac: Some(frac),
    };
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = Nanos::from_ms(1);
    install_tenants(
        &mut q,
        vec![
            tenant(1_000_000.0, Nanos::from_us(2), 0, 3),
            tenant(120_000.0, Nanos::from_us(50), 1, 4),
        ],
        nic,
        warm + measure,
        None,
        ctl,
    );

    let (ratio, events) = allocs_per_event(&mut m, &mut q, warm, measure);
    // The window's work, counted exactly: a change that adds, drops or
    // reorders an event moves this count.
    assert_eq!(events, 210_338, "events in the measured window");
    // At 2x load admission sheds first (and spends retries); the ring
    // CoDel and the runqueue AQM still sample and scan every poll/tick.
    assert!(m.stats.admission_sheds > 0 && m.stats.retries_spent > 0);
    assert!(
        ratio <= 0.5,
        "{ratio:.4} allocations per event over {events} events (ceiling 0.5)"
    );
}

/// Per-CPU EEVDF under 100 kHz user timers with an oversubscribed
/// schbench: timer delivery, preemption and the policy's runqueue ops
/// reuse their storage, so steady state allocates almost nothing (13
/// allocations in 16,164 events, 0.0008 per event). The 0.002 ceiling
/// leaves room for a few more, not for one per timer tick.
#[test]
fn eevdf_percpu_allocations_per_event() {
    const WORKERS: usize = 8;
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), 100_000),
        n_workers: WORKERS,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(Eevdf::new(SchedParams::SKYLOFT_EEVDF)));
    m.add_app("app", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    q.schedule(
        Nanos::from_us(3),
        Event::Call(Call(Box::new(|m, q| {
            schbench::spawn(m, q, 0, 4 * WORKERS, schbench::DEFAULT_WORK);
        }))),
    );

    let (ratio, events) = allocs_per_event(&mut m, &mut q, Nanos::from_ms(10), Nanos::from_ms(20));
    assert_eq!(events, 16_164, "events in the measured window");
    assert!(m.stats.preemptions > 0, "the timers must preempt");
    assert!(
        ratio <= 0.002,
        "{ratio:.5} allocations per event over {events} events (ceiling 0.002)"
    );
}
