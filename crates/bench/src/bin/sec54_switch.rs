//! §5.4: thread-switching costs — Skyloft's inter-application switch
//! (1905 ns) against Linux's runnable-to-runnable (1124 ns) and
//! wake-another-thread (2471 ns) switches, measured through the machine.
//!
//! Method: run a chain of alternating tasks on one core and derive the
//! per-switch overhead from the end-to-end completion time minus the pure
//! compute time.

use skyloft::builtin::GlobalFifo;
use skyloft::machine::{AppKind, Event, Machine, MachineConfig};
use skyloft::Platform;
use skyloft_baselines::linux;
use skyloft_bench::setup::SEED;
use skyloft_bench::Cli;
use skyloft_hw::Topology;
use skyloft_metrics::Table;
use skyloft_sim::{EventQueue, Nanos};

const N_PAIRS: u64 = 500;
const WORK: Nanos = Nanos::from_us(2);

/// Runs `2 * N_PAIRS` tasks alternating between two apps (or one app) on a
/// single core; returns the measured per-switch overhead in ns. `label`
/// names the run's `--trace` dump file.
fn measure(cli: &Cli, plat: Platform, two_apps: bool, label: &str) -> (f64, u64) {
    let cfg = MachineConfig {
        plat,
        n_workers: 1,
        seed: SEED,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
    m.add_app("a", AppKind::Lc);
    if two_apps {
        m.add_app("b", AppKind::Lc);
    }
    let mut q: EventQueue<Event> = EventQueue::new();
    m.start(&mut q);
    let t0 = q.now();
    for i in 0..(2 * N_PAIRS) {
        let app = if two_apps { (i % 2) as usize } else { 0 };
        m.spawn_request(&mut q, app, WORK, 0, Some(0));
    }
    m.run(&mut q, Nanos::from_secs(5));
    assert_eq!(m.stats.completed, 2 * N_PAIRS);
    // The periodic timer keeps the event queue alive until the deadline;
    // the chain itself ends at the last request's completion.
    let total = m.stats.last_completion - t0;
    let compute = WORK * (2 * N_PAIRS);
    let overhead_per_switch = (total - compute).0 as f64 / (2 * N_PAIRS) as f64;
    cli.dump_trace(&m, label);
    (overhead_per_switch, m.stats.app_switches)
}

fn main() {
    let cli = Cli::parse(&[]);
    let topo = Topology::single(2);
    let mut t = Table::new(&["path", "measured ns/switch", "paper ns", "app switches"]);

    let (same, sw) = measure(
        &cli,
        Platform::skyloft_percpu(topo, 100_000),
        false,
        "skyloft same-app",
    );
    t.row_owned(vec![
        "Skyloft same-app uthread switch".into(),
        format!("{same:.0}"),
        "37 (Table 7 yield)".into(),
        sw.to_string(),
    ]);

    let (cross, sw) = measure(
        &cli,
        Platform::skyloft_percpu(topo, 100_000),
        true,
        "skyloft inter-app",
    );
    t.row_owned(vec![
        "Skyloft inter-application switch".into(),
        format!("{cross:.0}"),
        "1905".into(),
        sw.to_string(),
    ]);

    let (lin, _) = measure(&cli, linux::platform(topo, 1_000), false, "linux kthreads");
    t.row_owned(vec![
        "Linux kthread switch (runnable)".into(),
        format!("{lin:.0}"),
        "1124".into(),
        "0".to_string(),
    ]);
    t.row_owned(vec![
        "Linux switch w/ wakeup".into(),
        format!(
            "{}",
            (linux::platform(topo, 1_000).wake_cost + linux::platform(topo, 1_000).wake_latency).0
        ),
        "2471".into(),
        "-".into(),
    ]);

    cli.emit("sec54_switch", "§5.4: thread switching costs", &t);
    assert!(
        cross > 10.0 * same,
        "inter-app must dwarf same-app switches"
    );
    assert!(
        (cross - 1905.0).abs() < 200.0,
        "inter-app ≈ 1905 ns: {cross}"
    );
    println!("Shape checks passed: inter-app (≈1.9 us) >> same-app (≈37 ns); Linux between.");
}
