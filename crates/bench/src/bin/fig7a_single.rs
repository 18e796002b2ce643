//! Figure 7a: 99% tail latency vs load for the dispersive workload
//! (99.5% × 4 μs + 0.5% × 10 ms), single application.
//!
//! Systems: Skyloft-Shinjuku (15 μs and 30 μs quanta), the original
//! Shinjuku, the ghOSt-Shinjuku agent, and Linux CFS. Expected shape
//! (§5.2): Skyloft ≈ Shinjuku at the top; ghOSt reaches ~80% of Skyloft's
//! maximum throughput with ~3× the low-load p99; Linux CFS saturates
//! around ~59%.

use skyloft_apps::harness::{run_sweep, SweepSpec};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, Placement};
use skyloft_bench::setup::{FIG7_LINUX_WORKERS, FIG7_QUANTUM, FIG7_WORKERS};
use skyloft_bench::{build, out, scaled, Cli};
use skyloft_metrics::Series;
use skyloft_sim::Nanos;

fn rates() -> Vec<f64> {
    [25, 50, 100, 150, 200, 240, 280, 295, 310, 330, 350, 370]
        .iter()
        .map(|k| *k as f64 * 1000.0)
        .collect()
}

fn spec(cli: &Cli, name: &str) -> SweepSpec {
    SweepSpec {
        class_threshold: dispersive_threshold(),
        placement: Placement::Queue,
        warmup: scaled(Nanos::from_ms(100)),
        measure: scaled(Nanos::from_ms(400)),
        ..cli.sweep(name, rates(), dispersive())
    }
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut all: Vec<Series> = Vec::new();

    let s = run_sweep(&spec(&cli, "Skyloft (30us)"), &|| {
        build::skyloft_shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM), false)
    });
    all.push(s);
    eprintln!("  skyloft-30 done");
    all.push(run_sweep(&spec(&cli, "Skyloft (15us)"), &|| {
        build::skyloft_shinjuku(FIG7_WORKERS, Some(Nanos::from_us(15)), false)
    }));
    eprintln!("  skyloft-15 done");
    all.push(run_sweep(&spec(&cli, "Shinjuku"), &|| {
        build::shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM))
    }));
    eprintln!("  shinjuku done");
    all.push(run_sweep(&spec(&cli, "ghOSt"), &|| {
        build::ghost_shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM), false)
    }));
    eprintln!("  ghost done");
    let mut linux_spec = spec(&cli, "Linux CFS");
    // Direct RSS pinning: Linux receives via kernel NAPI, not the DPDK
    // data plane, so the flow hash pins cores without bounded RX rings.
    linux_spec.placement = Placement::RssDirect {
        n: FIG7_LINUX_WORKERS,
    };
    all.push(run_sweep(&linux_spec, &|| {
        build::linux_cfs_fig7(FIG7_LINUX_WORKERS, false)
    }));
    eprintln!("  linux done");

    let t = out::figure_table("offered kRPS", |p| p.p99_us, &all);
    cli.emit(
        "fig7a_single",
        "Figure 7a: p99 latency (us) vs offered load",
        &t,
    );
    let t2 = out::figure_table("offered kRPS", |p| p.achieved_rps / 1000.0, &all);
    cli.emit(
        "fig7a_tput",
        "Figure 7a: achieved kRPS vs offered load",
        &t2,
    );

    // Maximum throughput under a 99th-percentile SLO (the paper compares
    // saturation points; 300 us holds all preemptive systems' knees).
    const SLO_US: f64 = 350.0;
    println!("max throughput at p99 <= {SLO_US} us:");
    let max: Vec<(String, f64)> = all
        .iter()
        .map(|s| (s.name.clone(), s.max_tput_under_p99_slo(SLO_US)))
        .collect();
    for (n, v) in &max {
        println!("  {n:<16} {:.0} kRPS", v / 1000.0);
    }
    let get = |n: &str| max.iter().find(|(x, _)| x == n).unwrap().1;
    let sky = get("Skyloft (30us)");
    let shinjuku = get("Shinjuku");
    let ghost = get("ghOSt");
    let linux = get("Linux CFS");
    assert!(sky > 0.0, "skyloft must meet the SLO somewhere");
    assert!(
        (shinjuku / sky) > 0.85,
        "Shinjuku ({shinjuku:.0}) should be close to Skyloft ({sky:.0})"
    );
    assert!(
        ghost < 0.95 * sky,
        "ghOSt ({ghost:.0}) must trail Skyloft ({sky:.0}); paper: 80.1%"
    );
    assert!(
        linux < 0.8 * sky,
        "Linux CFS ({linux:.0}) must trail Skyloft ({sky:.0}); paper: 58.7%"
    );
    // Low-load tail: ghOSt ~3x Skyloft (paper).
    let sky_low = all[0].points[0].p99_us;
    let ghost_low = all[3].points[0].p99_us;
    assert!(
        ghost_low > 2.0 * sky_low,
        "ghOSt low-load p99 ({ghost_low:.1}us) must be ~3x Skyloft's ({sky_low:.1}us)"
    );
    println!(
        "Shape checks passed: Skyloft ≈ Shinjuku > ghOSt ({:.0}%) > Linux CFS ({:.0}%); \
         ghOSt low-load p99 = {:.1}x Skyloft.",
        100.0 * ghost / sky,
        100.0 * linux / sky,
        ghost_low / sky_low
    );
}
