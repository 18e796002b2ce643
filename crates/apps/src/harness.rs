//! Load-sweep harness shared by the figure benches (§5.2–§5.3).
//!
//! For each offered rate: build a fresh machine, install the open-loop
//! arrival process, warm up, reset measurements, measure, and collect a
//! [`LoadPoint`]. The same harness drives every system (Skyloft,
//! Shinjuku, ghOSt, Shenango, Linux) so comparisons differ only in the
//! machine builder passed in.
//!
//! Sweep points are independent simulations, so the harness can fan them
//! out across host threads ([`run_sweep_threaded`], or `SKYLOFT_THREADS`
//! for the default [`run_sweep`] path). Each point is seeded from
//! `(spec.seed, rate)` alone — never from which thread ran it — and
//! results are collected in rate order, so the parallel sweep is
//! bit-identical to the serial one.

use skyloft::machine::{Event, Machine};
use skyloft_metrics::{LoadPoint, Series};
use skyloft_net::loadgen::{NetProfile, OpenLoop};
use skyloft_sim::{Distribution, EventQueue, Nanos};

use crate::synthetic::{install_open_loop_net, Placement};

/// Sweep parameters.
#[derive(Clone)]
pub struct SweepSpec {
    /// Series name (system under test).
    pub name: String,
    /// Offered rates in requests per second.
    pub rates: Vec<f64>,
    /// Service-time distribution.
    pub service: Distribution,
    /// Class threshold (see [`OpenLoop`]).
    pub class_threshold: Nanos,
    /// Request placement.
    pub placement: Placement,
    /// Target application id.
    pub app: usize,
    /// Warmup time before measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// Base RNG seed.
    pub seed: u64,
    /// Dump the scheduling trace of each measured point as Chrome-trace
    /// JSON. Each point writes its own file,
    /// `<path>.<system>.<rate>.json`, so a multi-system multi-rate run
    /// keeps every trace instead of the last machine overwriting all the
    /// others (and concurrent sweep threads never share a file).
    pub trace: Option<std::path::PathBuf>,
    /// Lossy-network profile; `None` models the perfect wire. Timed-out
    /// requests enter the histograms at the timeout value (see
    /// [`crate::synthetic::install_open_loop_net`]).
    pub net: Option<NetProfile>,
}

impl SweepSpec {
    /// A reasonable default window: 50 ms warmup, 300 ms measurement,
    /// no trace dump.
    pub fn new(name: impl Into<String>, rates: Vec<f64>, service: Distribution) -> Self {
        SweepSpec {
            name: name.into(),
            rates,
            service,
            class_threshold: Nanos::from_us(100),
            placement: Placement::Queue,
            app: 0,
            warmup: Nanos::from_ms(50),
            measure: Nanos::from_ms(300),
            seed: SKY_SEED,
            trace: None,
            net: None,
        }
    }
}

const SKY_SEED: u64 = 0x5359_4c4f_4654; // "SYLOFT"

/// A machine/queue factory for sweep points. `Sync` so independent
/// points can be built from worker threads ([`run_sweep_threaded`]).
pub type Builder<'a> = &'a (dyn Fn() -> (Machine, EventQueue<Event>) + Sync);

/// Number of sweep worker threads requested via `SKYLOFT_THREADS`
/// (default 1, i.e. serial).
pub fn sweep_threads() -> usize {
    std::env::var("SKYLOFT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// `s` as a filename-safe slug: ASCII alphanumerics lowercased, every
/// other character replaced by `-`.
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Runs one load point on a freshly built machine and returns its
/// measurements.
pub fn run_point(spec: &SweepSpec, rate: f64, build: Builder<'_>) -> LoadPoint {
    let (mut m, mut q) = build();
    let gen = OpenLoop::new(
        rate,
        spec.service.clone(),
        spec.class_threshold,
        spec.seed ^ (rate as u64),
    );
    let end = spec.warmup + spec.measure;
    install_open_loop_net(
        &mut q,
        gen,
        spec.app,
        spec.placement.clone(),
        end,
        spec.net.clone(),
    );
    m.run(&mut q, spec.warmup);
    m.reset_stats(q.now());
    // Arrivals stop exactly at `end`; requests still in flight then are
    // counted against throughput, as an open-loop client would observe.
    m.run(&mut q, end);
    let now = q.now();
    let mut p = LoadPoint::from_hist(rate, m.stats.achieved_rps(now), &m.stats.resp_hist);
    if m.stats.slowdown_hist.count() > 0 {
        p.slowdown_p999 = Some(m.stats.slowdown_hist.percentile(99.9) as f64 / 1000.0);
    }
    let be = m.apps.iter().position(|a| a.kind == skyloft::AppKind::Be);
    if let Some(be) = be {
        p.be_share = Some(m.app_share(be, now));
    }
    if let Some(base) = &spec.trace {
        // One file per point, `<base>.<system>.<rate>.json`.
        let path = std::path::PathBuf::from(format!(
            "{}.{}.{}.json",
            base.display(),
            slug(&spec.name),
            rate as u64
        ));
        match m.write_trace(&path) {
            Ok(()) => eprintln!(
                "trace: wrote {} ({} rps point of {})",
                path.display(),
                rate,
                spec.name
            ),
            Err(e) => eprintln!("trace: failed to write {}: {}", path.display(), e),
        }
    }
    p
}

/// Runs the full sweep, fanning points across `SKYLOFT_THREADS` host
/// threads (serial by default). Output is bit-identical regardless of
/// thread count — see [`run_sweep_threaded`].
pub fn run_sweep(spec: &SweepSpec, build: Builder<'_>) -> Series {
    run_sweep_threaded(spec, build, sweep_threads())
}

/// Runs the full sweep on `threads` worker threads.
///
/// Determinism argument: every point's simulation is seeded from
/// `(spec.seed, rate)` only, each point gets a freshly built machine and
/// queue, and results land in a slot indexed by the point's position in
/// `spec.rates`. Thread count and scheduling order therefore cannot
/// change any point's value or the order of the returned series — the
/// result is bit-identical to the serial sweep.
pub fn run_sweep_threaded(spec: &SweepSpec, build: Builder<'_>, threads: usize) -> Series {
    let mut series = Series::new(spec.name.clone());
    for p in par_map(&spec.rates, threads, &|&rate| run_point(spec, rate, build)) {
        series.push(p);
    }
    series
}

/// Maps `f` over `items` on `threads` host threads, returning results in
/// input order (bit-identical to the serial map). Jobs are pulled from a
/// shared atomic counter, so threads stay busy even when job runtimes are
/// skewed. With `threads <= 1` this is a plain serial loop.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: &(dyn Fn(&T) -> R + Sync),
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("slot poisoned") = Some(f(item));
            });
        }
    })
    .expect("parallel map worker panicked");
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every job filled its slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft::builtin::CentralizedFcfs;
    use skyloft::machine::{AppKind, MachineConfig};
    use skyloft::Platform;
    use skyloft_hw::Topology;

    fn builder() -> (Machine, EventQueue<Event>) {
        let cfg = MachineConfig {
            plat: Platform::skyloft_centralized(Topology::single(5)),
            n_workers: 4,
            seed: 77,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(
            cfg,
            Box::new(CentralizedFcfs::new(Some(Nanos::from_us(30)))),
        );
        m.add_app("lc", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        (m, q)
    }

    #[test]
    fn latency_grows_with_load() {
        let spec = SweepSpec {
            warmup: Nanos::from_ms(10),
            measure: Nanos::from_ms(80),
            ..SweepSpec::new(
                "fcfs",
                vec![50_000.0, 350_000.0],
                Distribution::Constant(Nanos::from_us(10)),
            )
        };
        let s = run_sweep(&spec, &builder);
        assert_eq!(s.points.len(), 2);
        // 4 workers x 10us = 400k rps capacity; at 50k the system idles,
        // at 350k it queues.
        assert!(s.points[0].p99_us < s.points[1].p99_us);
        assert!(s.points[0].achieved_rps > 40_000.0);
        assert!(s.points[1].achieved_rps > 250_000.0);
    }

    #[test]
    fn points_are_deterministic() {
        let spec = SweepSpec {
            warmup: Nanos::from_ms(5),
            measure: Nanos::from_ms(20),
            ..SweepSpec::new(
                "det",
                vec![100_000.0],
                Distribution::Constant(Nanos::from_us(5)),
            )
        };
        let a = run_point(&spec, 100_000.0, &builder);
        let b = run_point(&spec, 100_000.0, &builder);
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_sweep_is_bit_identical_to_serial() {
        let spec = SweepSpec {
            warmup: Nanos::from_ms(5),
            measure: Nanos::from_ms(30),
            ..SweepSpec::new(
                "par",
                vec![50_000.0, 150_000.0, 250_000.0, 350_000.0, 380_000.0],
                Distribution::Constant(Nanos::from_us(10)),
            )
        };
        let serial = run_sweep_threaded(&spec, &builder, 1);
        let par = run_sweep_threaded(&spec, &builder, 8);
        assert_eq!(serial.name, par.name);
        assert_eq!(serial.points, par.points);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(&items, 1, &|&x| x * x);
        let par = par_map(&items, 8, &|&x| x * x);
        assert_eq!(serial, par);
        assert_eq!(par[36], 36 * 36);
    }
}
