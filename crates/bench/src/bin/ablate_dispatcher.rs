//! Ablation: centralized-scheduler scalability (§2.2, §3.2).
//!
//! The paper motivates per-CPU user timers by arguing that a dedicated
//! dispatcher "can introduce bottlenecks, particularly in systems with
//! many cores". Skyloft's own dispatcher is a ~0.1 μs shared-memory write
//! per placement, so its knee sits far beyond this machine; the bottleneck
//! is vivid for an *agent-based* centralized framework, where every
//! placement costs a kernel message plus a transaction commit (ghOSt,
//! ~μs-serialized). This sweep holds per-core offered load fixed and
//! scales the worker count: per-CPU Skyloft and dispatcher-based Skyloft
//! keep scaling, while the ghOSt agent saturates. Interestingly the
//! failure mode is not throughput — when the agent backlogs, workers
//! simply run to completion, so placements (and preemptions) collapse and
//! throughput self-stabilizes — it is the *tail*: without affordable
//! preemption, head-of-line blocking returns and p99 explodes.

use skyloft_apps::harness::{par_map, run_point, sweep_threads, SweepSpec};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, Placement};
use skyloft_bench::{build, scaled, Cli};
use skyloft_metrics::Table;
use skyloft_sim::Nanos;

const PER_CORE_RPS: f64 = 17_000.0; // ~92% per-core utilization

fn main() {
    let cli = Cli::parse(&[]);
    let worker_counts = [4usize, 8, 16, 24, 32, 40];
    let mut t = Table::new(&[
        "workers",
        "Skyloft per-CPU eff",
        "Skyloft dispatcher eff",
        "ghOSt agent eff",
        "ghOSt p99 (us)",
    ]);
    let mut sky_disp_eff = Vec::new();
    let mut percpu_eff = Vec::new();
    let mut ghost_eff = Vec::new();
    let mut ghost_p99 = Vec::new();
    let mut sky_disp_p99 = Vec::new();
    // Each worker count's three systems are independent machines; fan
    // the sweep across SKYLOFT_THREADS host threads.
    let points = par_map(&worker_counts, sweep_threads(), &|&w| {
        let rate = PER_CORE_RPS * w as f64;
        let spec = SweepSpec {
            class_threshold: dispersive_threshold(),
            placement: Placement::Queue,
            warmup: scaled(Nanos::from_ms(50)),
            measure: scaled(Nanos::from_ms(250)),
            ..cli.sweep("ablate", vec![rate], dispersive())
        };
        let central = run_point(&spec, rate, &|| {
            build::skyloft_shinjuku(w, Some(Nanos::from_us(30)), false)
        });
        let ghost = run_point(&spec, rate, &|| {
            build::ghost_shinjuku(w, Some(Nanos::from_us(30)), false)
        });
        // Direct pinning: this ablation isolates the *dispatch* cost, so
        // the NIC data plane (rings, polling core) must not be a variable.
        let mut spec_rss = spec.clone();
        spec_rss.placement = Placement::RssDirect { n: w };
        let percpu = run_point(&spec_rss, rate, &|| {
            build::skyloft_ws(w, Some(Nanos::from_us(30)))
        });
        eprintln!("  workers={w} done");
        (central, ghost, percpu)
    });
    for (&w, (central, ghost, percpu)) in worker_counts.iter().zip(&points) {
        let rate = PER_CORE_RPS * w as f64;
        sky_disp_eff.push(central.achieved_rps / rate);
        percpu_eff.push(percpu.achieved_rps / rate);
        ghost_eff.push(ghost.achieved_rps / rate);
        ghost_p99.push(ghost.p99_us);
        sky_disp_p99.push(central.p99_us);
        t.row_owned(vec![
            w.to_string(),
            format!("{:.3}", percpu.achieved_rps / rate),
            format!("{:.3}", central.achieved_rps / rate),
            format!("{:.3}", ghost.achieved_rps / rate),
            format!("{:.1}", ghost.p99_us),
        ]);
    }
    cli.emit(
        "ablate_dispatcher",
        "Ablation: centralized-scheduler scalability (fixed per-core load)",
        &t,
    );
    let last = worker_counts.len() - 1;
    assert!(
        percpu_eff[last] > 0.97 && sky_disp_eff[last] > 0.97,
        "Skyloft variants keep efficiency at 40 cores: percpu {:.3}, dispatcher {:.3}",
        percpu_eff[last],
        sky_disp_eff[last]
    );
    // ghOSt at small scale is comparable to Skyloft's dispatcher; at 40
    // cores its agent can no longer afford preemption and the tail
    // detonates, while Skyloft's dispatcher tail stays in the same decade.
    assert!(
        ghost_p99[0] < 10.0 * sky_disp_p99[0],
        "ghOSt small-scale p99 should be same order: {:.1} vs {:.1}",
        ghost_p99[0],
        sky_disp_p99[0]
    );
    assert!(
        ghost_p99[last] > 5.0 * ghost_p99[1],
        "ghOSt p99 must blow up with scale: {:?}",
        ghost_p99
    );
    assert!(
        ghost_p99[last] > 5.0 * sky_disp_p99[last],
        "ghOSt p99 ({:.0}us) must dwarf Skyloft's ({:.0}us) at 40 cores",
        ghost_p99[last],
        sky_disp_p99[last]
    );
    println!(
        "Shape checks passed: at 40 workers Skyloft keeps ~100% efficiency and \
         a {:.0} us p99; the saturated ghOSt agent reaches {:.0} us p99.",
        sky_disp_p99[last], ghost_p99[last]
    );
}
