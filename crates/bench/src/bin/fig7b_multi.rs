//! Figures 7b and 7c: the dispersive workload co-located with a
//! best-effort batch application.
//!
//! Skyloft and ghOSt run the centralized policy with Shenango-style core
//! allocation; Linux CFS time-shares a nice-19 batch app by weight; the
//! original Shinjuku cannot host a second application at all (batch share
//! is structurally zero). Expected shape (§5.2): Skyloft keeps Figure 7a's
//! tail latency while the batch application's CPU share tracks the LC
//! load — high at low load, near zero at saturation — comparably to ghOSt
//! and Linux.

use skyloft_apps::harness::{run_sweep, SweepSpec};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, Placement};
use skyloft_bench::setup::{FIG7_LINUX_WORKERS, FIG7_QUANTUM, FIG7_WORKERS};
use skyloft_bench::{build, out, scaled, Cli};
use skyloft_metrics::Series;

fn rates() -> Vec<f64> {
    [25, 50, 100, 150, 200, 240, 280, 295, 310, 330, 350]
        .iter()
        .map(|k| *k as f64 * 1000.0)
        .collect()
}

fn spec(cli: &Cli, name: &str) -> SweepSpec {
    SweepSpec {
        class_threshold: dispersive_threshold(),
        placement: Placement::Queue,
        warmup: scaled(skyloft_sim::Nanos::from_ms(100)),
        measure: scaled(skyloft_sim::Nanos::from_ms(400)),
        ..cli.sweep(name, rates(), dispersive())
    }
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut all: Vec<Series> = Vec::new();
    all.push(run_sweep(&spec(&cli, "Skyloft+batch"), &|| {
        build::skyloft_shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM), true)
    }));
    eprintln!("  skyloft+batch done");
    all.push(run_sweep(&spec(&cli, "ghOSt+batch"), &|| {
        build::ghost_shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM), true)
    }));
    eprintln!("  ghost+batch done");
    let mut linux_spec = spec(&cli, "Linux CFS+batch");
    // Direct RSS pinning (kernel NAPI path, no DPDK rings) — see fig7a.
    linux_spec.placement = Placement::RssDirect {
        n: FIG7_LINUX_WORKERS,
    };
    all.push(run_sweep(&linux_spec, &|| {
        build::linux_cfs_fig7(FIG7_LINUX_WORKERS, true)
    }));
    eprintln!("  linux+batch done");
    // Shinjuku cannot run the batch app; its latency series is the 7a one
    // and its batch share is identically zero.
    let mut shinjuku = run_sweep(&spec(&cli, "Shinjuku (no batch)"), &|| {
        build::shinjuku(FIG7_WORKERS, Some(FIG7_QUANTUM))
    });
    for p in &mut shinjuku.points {
        p.be_share = Some(0.0);
    }
    all.push(shinjuku);
    eprintln!("  shinjuku done");

    let t = out::figure_table("offered kRPS", |p| p.p99_us, &all);
    cli.emit(
        "fig7b_multi",
        "Figure 7b: p99 latency (us) with batch co-location",
        &t,
    );
    let t2 = out::figure_table("offered kRPS", |p| p.be_share.unwrap_or(0.0) * 100.0, &all);
    cli.emit(
        "fig7c_cpushare",
        "Figure 7c: batch application CPU share (%)",
        &t2,
    );

    // Shape checks.
    let sky = &all[0];
    let ghost = &all[1];
    let linux = &all[2];
    let shinjuku = &all[3];
    // (1) Batch share falls with LC load for Skyloft.
    let sky_low = sky.points.first().unwrap().be_share.unwrap();
    let sky_high = sky.points.last().unwrap().be_share.unwrap();
    assert!(
        sky_low > 0.5,
        "at low load the batch app should hold most cores: {sky_low:.2}"
    );
    assert!(
        sky_high < sky_low / 2.0,
        "at saturation the batch share must collapse: {sky_high:.2} vs {sky_low:.2}"
    );
    // (2) Comparable share to ghOSt and Linux at low load.
    let ghost_low = ghost.points.first().unwrap().be_share.unwrap();
    let linux_low = linux.points.first().unwrap().be_share.unwrap();
    assert!(
        (sky_low - ghost_low).abs() < 0.3 && (sky_low - linux_low).abs() < 0.35,
        "batch shares should be comparable: skyloft {sky_low:.2} ghost {ghost_low:.2} linux {linux_low:.2}"
    );
    // (3) Shinjuku gives the batch app nothing.
    assert!(shinjuku.points.iter().all(|p| p.be_share.unwrap() == 0.0));
    // (4) Co-location must not wreck Skyloft's tail: still beats ghOSt.
    const SLO_US: f64 = 350.0;
    let sky_max = sky.max_tput_under_p99_slo(SLO_US);
    let ghost_max = ghost.max_tput_under_p99_slo(SLO_US);
    assert!(
        ghost_max < sky_max,
        "Skyloft ({sky_max:.0}) must out-sustain ghOSt ({ghost_max:.0}); paper: +19%"
    );
    println!(
        "Shape checks passed: batch share {:.0}% -> {:.0}% across the sweep (Skyloft); \
         Shinjuku 0%; Skyloft max tput {:.0} kRPS vs ghOSt {:.0} kRPS.",
        sky_low * 100.0,
        sky_high * 100.0,
        sky_max / 1000.0,
        ghost_max / 1000.0
    );
}
