//! The three simulator workloads: how each is set up from the seed, how
//! it is run, and the virtual outcomes it yields.

use std::rc::Rc;

use skyloft::builtin::GlobalFifo;
use skyloft::conf::{RunqueueAqmConfig, SloClass};
use skyloft::machine::{AppKind, Call, Event, Machine, MachineConfig};
use skyloft::{Platform, Policy, SchedParams, Stats};
use skyloft_apps::schbench;
use skyloft_apps::synthetic::{
    dispersive, dispersive_threshold, install_open_loop_net, install_tenants, OverloadControl,
    Placement, Tenant,
};
use skyloft_bench::build;
use skyloft_bench::setup::{FIG5_CORES, FIG7_QUANTUM, FIG7_WORKERS, SEED};
use skyloft_hw::Topology;
use skyloft_metrics::Histogram;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::{AdmissionConfig, CodelConfig, RetryPolicy};
use skyloft_policies::{Eevdf, Shinjuku};
use skyloft_sim::{Distribution, EventQueue, Nanos};

use crate::timed::{drive_traced, Prof, TimedPolicy};

/// Offered load of `dispersive_central`: ~76% of the 20 workers'
/// capacity for 99.5% x 4 us + 0.5% x 10 ms requests, just below the
/// Figure 7a knee.
const DISPERSIVE_RPS: f64 = 280_000.0;
/// Figure 7a's latency limit on the p99.
const DISPERSIVE_LIMIT: Nanos = Nanos::from_us(350);
/// Figure 5's most oversubscribed point.
const SCHBENCH_WORKERS: usize = 64;
/// The schbench instance starts at a seed-drawn instant inside this span,
/// so its phase against the 100 kHz timers is an input of the run.
const SCHBENCH_PHASE: u64 = 100_000;
/// `slo_sweep`'s 2x point: LC holds half of the 4 workers, batch
/// supplies the other 6 cores' worth of demand.
const TENANT_WORKERS: usize = 4;
const LC_RATE: f64 = 1_000_000.0;
const LC_SERVICE: Nanos = Nanos::from_us(2);
const LC_SLO: Nanos = Nanos::from_us(200);
const BATCH_RATE: f64 = 120_000.0;
const BATCH_SERVICE: Nanos = Nanos::from_us(50);
const BATCH_SLO: Nanos = Nanos::from_ms(5);
const CLIENT_TIMEOUT: Nanos = Nanos::from_ms(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    DispersiveCentral,
    SchbenchEevdf,
    TenantsOverload,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::DispersiveCentral,
            Workload::SchbenchEevdf,
            Workload::TenantsOverload,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DispersiveCentral => "dispersive_central",
            Workload::SchbenchEevdf => "schbench_eevdf",
            Workload::TenantsOverload => "tenants_overload",
        }
    }

    /// Virtual windows: warmup, measurement, drain after the last arrival.
    fn windows(self) -> (Nanos, Nanos, Nanos) {
        match self {
            // Three Figure 7a windows: the 0.5% of 10 ms requests carry
            // half the work, and their clustering moves the p99 from seed
            // to seed; 400 ms alone left a 12% quartile spread.
            Workload::DispersiveCentral => (
                Nanos::from_ms(100),
                Nanos::from_ms(1200),
                Nanos::from_ms(20),
            ),
            Workload::SchbenchEevdf => (Nanos::from_ms(100), Nanos::from_ms(400), Nanos::ZERO),
            Workload::TenantsOverload => {
                (Nanos::from_ms(20), Nanos::from_ms(100), Nanos::from_ms(20))
            }
        }
    }
}

/// SplitMix64: derives each generator's seed from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn policy_of(w: Workload, prof: Option<&Rc<Prof>>) -> Box<dyn Policy> {
    let inner: Box<dyn Policy> = match w {
        Workload::DispersiveCentral => Box::new(Shinjuku::new(Some(FIG7_QUANTUM))),
        Workload::SchbenchEevdf => Box::new(Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
        Workload::TenantsOverload => Box::new(GlobalFifo::new()),
    };
    match prof {
        Some(p) => Box::new(TimedPolicy::new(inner, Rc::clone(p))),
        None => inner,
    }
}

fn started(mut m: Machine) -> (Machine, EventQueue<Event>) {
    let mut q = EventQueue::new();
    m.start(&mut q);
    (m, q)
}

/// `build::skyloft_shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM), false)` with
/// the policy passed in, so the traced run can wrap it.
fn shinjuku_machine(policy: Box<dyn Policy>) -> (Machine, EventQueue<Event>) {
    let topo = if FIG7_WORKERS < Topology::PAPER_SERVER.n_cores() {
        Topology::PAPER_SERVER
    } else {
        Topology::single(FIG7_WORKERS + 1)
    };
    let cfg = MachineConfig {
        plat: Platform::skyloft_centralized(topo),
        n_workers: FIG7_WORKERS,
        seed: SEED,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, policy);
    m.add_app("lc", AppKind::Lc);
    started(m)
}

/// `slo_sweep`'s machine: both SLO classes registered and the runqueue
/// AQM armed with its microsecond-scale CoDel interval.
fn tenants_machine(policy: Box<dyn Policy>) -> (Machine, EventQueue<Event>) {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(TENANT_WORKERS), 100_000),
        n_workers: TENANT_WORKERS,
        seed: SEED,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, policy);
    m.add_app("lc", AppKind::Lc);
    m.add_app("batch", AppKind::Lc);
    m.set_slo_class(0, SloClass::latency_critical(LC_SLO));
    m.set_slo_class(1, SloClass::batch(BATCH_SLO));
    m.set_runqueue_aqm(RunqueueAqmConfig {
        interval: Nanos::from_us(100),
        ..Default::default()
    });
    started(m)
}

/// `slo_sweep`'s controller: per-class admission, ring CoDel, and retry
/// budgets provisioned per class.
fn tenants_control() -> OverloadControl {
    let mut adm = AdmissionConfig::default();
    adm.class_slo[0] = Some(LC_SLO);
    adm.class_slo[1] = Some(BATCH_SLO);
    let mut frac = [None; skyloft_net::overload::MAX_CLASSES];
    frac[0] = Some(SloClass::latency_critical(LC_SLO).retry_frac);
    frac[1] = Some(SloClass::batch(BATCH_SLO).retry_frac);
    OverloadControl {
        codel: Some(CodelConfig::default()),
        admission: Some(adm),
        retry: Some(RetryPolicy::default()),
        retry_frac: Some(frac),
    }
}

/// Installs the workload's load, generated from `seed`, on a started
/// machine.
fn install(w: Workload, seed: u64, q: &mut EventQueue<Event>) {
    let (warm, measure, _) = w.windows();
    match w {
        Workload::DispersiveCentral => {
            let gen = OpenLoop::new(
                DISPERSIVE_RPS,
                dispersive(),
                dispersive_threshold(),
                mix(seed, 1),
            );
            install_open_loop_net(q, gen, 0, Placement::Queue, warm + measure, None);
        }
        Workload::SchbenchEevdf => {
            let at = Nanos(mix(seed, 2) % SCHBENCH_PHASE);
            let spawn = move |m: &mut Machine, q: &mut EventQueue<Event>| {
                schbench::spawn(m, q, 0, SCHBENCH_WORKERS, schbench::DEFAULT_WORK);
            };
            q.schedule(at, Event::Call(Call(Box::new(spawn))));
        }
        Workload::TenantsOverload => {
            let tenant = |rate, service, app: usize, salt| Tenant {
                gen: OpenLoop::new(
                    rate,
                    Distribution::Constant(service),
                    Nanos::from_us(100),
                    mix(seed, salt),
                ),
                app,
                class: Some(app as u8),
            };
            let tenants = vec![
                tenant(LC_RATE, LC_SERVICE, 0, 3),
                tenant(BATCH_RATE, BATCH_SERVICE, 1, 4),
            ];
            let mut nic = NicConfig::for_workers(TENANT_WORKERS);
            nic.client_timeout = CLIENT_TIMEOUT;
            install_tenants(q, tenants, nic, warm + measure, None, tenants_control());
        }
    }
}

/// Builds the machine and installs the load: everything before the first
/// event. With `prof`, the policy is wrapped in a [`TimedPolicy`].
pub fn setup(w: Workload, seed: u64, prof: Option<&Rc<Prof>>) -> (Machine, EventQueue<Event>) {
    let policy = policy_of(w, prof);
    let (m, mut q) = match w {
        Workload::DispersiveCentral => shinjuku_machine(policy),
        Workload::SchbenchEevdf => build::skyloft_percpu(FIG5_CORES, 100_000, policy),
        Workload::TenantsOverload => tenants_machine(policy),
    };
    install(w, seed, &mut q);
    (m, q)
}

/// The machine `build::skyloft_shinjuku` returns, with the same load: the
/// reference `dispersive_central`'s own machine must match.
pub fn figure_machine(seed: u64) -> (Machine, EventQueue<Event>) {
    let (m, mut q) = build::skyloft_shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM), false);
    install(Workload::DispersiveCentral, seed, &mut q);
    (m, q)
}

/// How a run advances the machine.
pub enum Drive<'a> {
    /// `Machine::run`, as the figure binaries run it.
    Run,
    /// The timed loop of [`drive_traced`].
    Traced(&'a Prof),
}

impl Drive<'_> {
    fn to(&self, m: &mut Machine, q: &mut EventQueue<Event>, deadline: Nanos) -> u64 {
        match self {
            Drive::Run => m.run(q, deadline),
            Drive::Traced(p) => drive_traced(m, q, deadline, p),
        }
    }
}

/// Virtual outcomes of one run. Every field is decided by the simulation
/// alone, so two runs of one seed must agree exactly, whatever the host
/// did and however the run was driven or traced.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub events: u64,
    /// Primary-class latency samples in the measurement window.
    pub samples: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub goodput_rps: f64,
    pub batch_samples: u64,
    pub batch_goodput_rps: f64,
    /// Requests (datagrams on the NIC path) offered in the window, and
    /// those dropped, shed, or unfinished after the drain.
    pub offered: u64,
    pub lost: u64,
    /// Whole-run layer counters, `(metric name, value, unit)`.
    pub layer: Vec<(&'static str, f64, &'static str)>,
    /// `slo_sweep`'s ledger checks on the final state (NIC path only).
    pub ledger: Vec<(&'static str, bool, String)>,
}

/// Percentile `p` of `h`, interpolated linearly inside the histogram
/// bucket that holds the rank (buckets are 1/64 of their magnitude wide;
/// the bucket's upper bound alone would read the same across seeds).
fn percentile(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let hit = h.percentile(p);
    let width = if hit < 64 {
        1
    } else {
        1u64 << (63 - hit.leading_zeros() - 6)
    };
    let start = hit & !(width - 1);
    let before = if start == 0 { 0 } else { h.count_le(start - 1) };
    let inside = (h.count_le(start + width - 1) - before).max(1);
    let frac = (rank - before) as f64 / inside as f64;
    ((start as f64 - 1.0) + frac * width as f64).min(h.max() as f64) / 1000.0
}

/// Counters `Stats::reset` clears at the warmup boundary; whole-run
/// totals add the warmup part back.
fn cleared(s: &Stats) -> [u64; 7] {
    [
        s.timer_delivered,
        s.timer_lost,
        s.spurious_ipis,
        s.ipi_retries,
        s.preemptions,
        s.app_switches,
        s.timeouts,
    ]
}

/// Ledger counters `Stats::reset` preserves; window figures subtract the
/// warmup part.
fn ledger(s: &Stats) -> [u64; 8] {
    [
        s.net_generated,
        s.net_delivered,
        s.rx_ring_drops,
        s.aqm_drops,
        s.admission_sheds,
        s.retries_spent,
        s.rq_sheds,
        s.completed_by_class[1],
    ]
}

/// Runs the set-up machine through warmup, measurement and drain.
pub fn run(w: Workload, m: &mut Machine, q: &mut EventQueue<Event>, drive: &Drive) -> Outcome {
    let (warm, measure, drain) = w.windows();
    let mut events = drive.to(m, q, warm);
    let warm_cleared = cleared(&m.stats);
    let warm_ledger = ledger(&m.stats);
    m.reset_stats(q.now());
    events += drive.to(m, q, warm + measure + drain);
    let s = &m.stats;
    let secs = measure.as_secs();
    let end_cleared = cleared(s);
    let end_ledger = ledger(s);
    let total: Vec<u64> = warm_cleared
        .iter()
        .zip(&end_cleared)
        .map(|(a, b)| a + b)
        .collect();
    let win: Vec<u64> = end_ledger
        .iter()
        .zip(&warm_ledger)
        .map(|(e, w)| e - w)
        .collect();
    let live: u64 = m.apps.iter().map(|a| a.live_tasks as u64).sum();

    let (primary, limit) = match w {
        Workload::DispersiveCentral => (&s.resp_hist, Some(DISPERSIVE_LIMIT)),
        Workload::SchbenchEevdf => (&s.wakeup_hist, None),
        Workload::TenantsOverload => (&s.resp_by_class[0], Some(LC_SLO)),
    };
    let within = limit.map_or(primary.count(), |l| primary.count_le(l.0));
    // A request the client gave up on enters the class histogram at the
    // 1 ms timeout, inside batch's 5 ms SLO, so batch goodput counts
    // completions (the class ledger) minus those slower than the SLO.
    // (LC's 200 us SLO is below the timeout, so its count needs no fix.)
    let (batch_samples, batch_within) = match w {
        Workload::TenantsOverload => {
            let b = &s.resp_by_class[1];
            (b.count(), win[7] - (b.count() - b.count_le(BATCH_SLO.0)))
        }
        _ => (0, 0),
    };
    let (offered, lost) = match w {
        // Open loop on the teleport path: every arrival is a task.
        Workload::DispersiveCentral => (s.resp_hist.count() + live, live + s.timeouts),
        // Closed loop: a request is one worker wakeup, and none is lost.
        Workload::SchbenchEevdf => (s.wakeup_hist.count(), 0),
        // Open loop through the NIC plane: datagrams in the window.
        Workload::TenantsOverload => (win[0], win[2] + win[3] + win[4] + win[6] + live),
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |name, v: u64| (name, v as f64, "count");
    let layer = vec![
        count("hw.timer_delivered", total[0]),
        count("hw.timer_lost", total[1]),
        count("hw.spurious_ipis", total[2]),
        count("hw.ipi_retries", total[3]),
        ("hw.preempt_per_tick", ratio(total[4], total[0]), "ratio"),
        count("kmod.app_switches", total[5]),
        count("core.preemptions", total[4]),
        count("net.generated", end_ledger[0]),
        count("net.delivered", end_ledger[1]),
        count("net.rx_ring_drops", end_ledger[2]),
        count("net.aqm_drops", end_ledger[3]),
        count("net.admission_sheds", end_ledger[4]),
        count("net.retries", end_ledger[5]),
        count("net.timeouts", total[6]),
        count("net.rq_sheds", end_ledger[6]),
        count("net.rx_occ_p99", s.rx_occ_hist.percentile(99.0)),
        (
            "net.useful_frac",
            ratio(within + batch_within, win[0]),
            "ratio",
        ),
    ];
    Outcome {
        events,
        samples: primary.count(),
        p50_us: percentile(primary, 50.0),
        p99_us: percentile(primary, 99.0),
        goodput_rps: within as f64 / secs,
        batch_samples,
        batch_goodput_rps: batch_within as f64 / secs,
        offered,
        lost,
        layer,
        ledger: if w == Workload::TenantsOverload {
            conservation(s)
        } else {
            Vec::new()
        },
    }
}

/// `slo_sweep`'s conservation assertions, as named checks: every datagram
/// generated is delivered, dropped at a ring or by CoDel, shed at
/// admission, or retried; nothing is left in flight after the drain; and
/// the per-class ledgers tile the global ones.
fn conservation(s: &Stats) -> Vec<(&'static str, bool, String)> {
    let buckets =
        s.net_delivered + s.rx_ring_drops + s.aqm_drops + s.admission_sheds + s.retries_spent;
    vec![
        (
            "datagram_conservation",
            s.net_generated == buckets,
            format!("generated {} vs buckets {buckets}", s.net_generated),
        ),
        (
            "zero_in_flight_after_drain",
            s.net_in_flight == 0,
            format!("in flight {}", s.net_in_flight),
        ),
        (
            "class_ledgers_tile",
            s.generated_by_class.iter().sum::<u64>() == s.net_generated
                && s.delivered_by_class.iter().sum::<u64>() == s.net_delivered
                && s.sheds_by_class.iter().sum::<u64>() == s.admission_sheds,
            "per-class generated/delivered/shed sum to the globals".into(),
        ),
    ]
}
