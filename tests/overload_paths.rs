//! Pins the decisions of the NIC-plane overload stack (DESIGN.md §13,
//! §16) on two short runs, one per admission law: the exact per-class
//! ledgers, runqueue-AQM sheds, brownout transitions and response p99.
//! Any change to who is shed, retried or displaced moves at least one of
//! these numbers; the figure goldens catch the same drift, but only in
//! the slower golden-regeneration job.

use skyloft::conf::{BrownoutConfig, RunqueueAqmConfig, SloClass};
use skyloft::machine::{AppKind, Machine, MachineConfig};
use skyloft::stats::Stats;
use skyloft::Platform;
use skyloft_apps::memcached::{usr_distribution, usr_threshold};
use skyloft_apps::synthetic::{install_tenants, OverloadControl, Tenant};
use skyloft_hw::Topology;
use skyloft_net::{AdmissionConfig, CodelConfig, NicConfig, OpenLoop, RetryPolicy};
use skyloft_policies::WorkStealing;
use skyloft_sim::{Distribution, EventQueue, Nanos};

const WORKERS: usize = 4;

fn machine(apps: usize) -> Machine {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), 100_000),
        n_workers: WORKERS,
        seed: 11,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(WorkStealing::new(Some(Nanos::from_us(30)))));
    for i in 0..apps {
        m.add_app(&format!("app{i}"), AppKind::Lc);
    }
    m
}

fn nic() -> NicConfig {
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = Nanos::from_ms(1);
    nic
}

/// Every per-class ledger array, in a fixed order.
fn ledgers(s: &Stats) -> [[u64; 4]; 8] {
    [
        s.generated_by_class,
        s.delivered_by_class,
        s.rx_drops_by_class,
        s.aqm_drops_by_class,
        s.sheds_by_class,
        s.retries_by_class,
        s.completed_by_class,
        s.rq_sheds_by_class,
    ]
}

/// Asserts the run's pinned outcome, with the invariant checker clean.
fn assert_pinned(m: &Machine, ledger: [[u64; 4]; 8], brownouts: u64, p99: u64) {
    let s = &m.stats;
    assert_eq!(ledgers(s), ledger, "per-class ledgers");
    assert_eq!(s.in_flight_by_class, [0; 4], "drained by end of run");
    assert_eq!(m.brownout_transitions(), brownouts, "brownout transitions");
    assert_eq!(s.resp_hist.percentile(99.0), p99, "response p99 (ns)");
    assert!(m.tracer.checker.violations().is_empty());
}

/// One unclassed tenant at 2x saturation with every layer armed: the
/// single-SLO admission law, and one retry bucket shared by the USR
/// load's two classes (GETs are class 0, SETs class 1).
#[test]
fn single_slo_law_and_shared_retry_bucket() {
    let mut m = machine(1);
    m.set_brownout(BrownoutConfig::default());
    let mut q = EventQueue::new();
    m.start(&mut q);
    let gen = OpenLoop::new(4_000_000.0, usr_distribution(), usr_threshold(), 5);
    let tenant = Tenant {
        gen,
        app: 0,
        class: None,
    };
    let mut ctl = OverloadControl::full();
    ctl.admission = Some(AdmissionConfig {
        slo: Nanos::from_us(150),
        ..Default::default()
    });
    install_tenants(&mut q, vec![tenant], nic(), Nanos::from_ms(3), None, ctl);
    m.run(&mut q, Nanos::from_ms(15));
    assert_pinned(
        &m,
        [
            [12725, 34, 0, 0], // generated
            [6072, 20, 0, 0],  // delivered
            [0, 0, 0, 0],      // ring drops
            [39, 0, 0, 0],     // CoDel drops
            [5858, 12, 0, 0],  // admission sheds
            [756, 2, 0, 0],    // retries
            [6072, 20, 0, 0],  // completed
            [0, 0, 0, 0],      // runqueue-AQM sheds
        ],
        2,
        7_012_351,
    );
}

/// An LC and a batch tenant on one plane with the full class stack: the
/// cross-class admission law, per-class retry buckets, displacement of
/// queued batch work by LC sheds, and the runqueue AQM.
#[test]
fn class_law_buckets_and_displacement() {
    let mut m = machine(2);
    m.set_brownout(BrownoutConfig::default());
    m.set_slo_class(0, SloClass::latency_critical(Nanos::from_us(200)));
    m.set_slo_class(1, SloClass::batch(Nanos::from_ms(5)));
    m.set_runqueue_aqm(RunqueueAqmConfig {
        interval: Nanos::from_us(100),
        ..Default::default()
    });
    let mut q = EventQueue::new();
    m.start(&mut q);
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
    let tenants = vec![
        tenant(800_000.0, Nanos::from_us(2), 0, 3),
        tenant(200_000.0, Nanos::from_us(50), 1, 4),
    ];
    let mut adm = AdmissionConfig::default();
    adm.class_slo[0] = Some(Nanos::from_us(200));
    adm.class_slo[1] = Some(Nanos::from_ms(5));
    let mut frac = [None; skyloft_net::overload::MAX_CLASSES];
    frac[0] = Some(SloClass::latency_critical(Nanos::from_us(200)).retry_frac);
    frac[1] = Some(SloClass::batch(Nanos::from_ms(5)).retry_frac);
    let ctl = OverloadControl {
        codel: Some(CodelConfig::default()),
        admission: Some(adm),
        retry: Some(RetryPolicy::default()),
        retry_frac: Some(frac),
    };
    // A two-deep worker window keeps LC datagrams waiting in the rings
    // behind admitted batch work, so LC requests age past their deadline
    // and shed while batch tasks sit queued: displacement has victims.
    let mut nic = nic();
    nic.worker_depth = 2;
    install_tenants(&mut q, tenants, nic, Nanos::from_ms(3), None, ctl);
    m.run(&mut q, Nanos::from_ms(15));
    assert_pinned(
        &m,
        [
            [2422, 635, 0, 0], // generated
            [2271, 119, 0, 0], // delivered
            [0, 0, 0, 0],      // ring drops
            [0, 1, 0, 0],      // CoDel drops
            [84, 503, 0, 0],   // admission sheds
            [67, 12, 0, 0],    // retries
            [2271, 100, 0, 0], // completed
            [0, 23, 0, 0],     // runqueue-AQM and displacement sheds
        ],
        8,
        6_029_311,
    );
}
