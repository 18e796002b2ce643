//! Figure 8a: Memcached with the USR workload (99.8% GET / 0.2% SET),
//! Skyloft work stealing vs Shenango, 4 worker cores.
//!
//! Expected shape (§5.3): the two systems are within ~2% of each other's
//! maximum throughput (light-tailed workloads don't need preemption), and
//! Skyloft's tails are slightly lower at low load because Shenango pays
//! kernel wake-ups for its parked cores.

use skyloft_apps::harness::{run_sweep, SweepSpec};
use skyloft_apps::memcached::{usr_distribution, usr_threshold};
use skyloft_apps::synthetic::Placement;
use skyloft_bench::setup::FIG8A_WORKERS;
use skyloft_bench::{build, out, scaled, Cli};
use skyloft_sim::Nanos;

fn rates() -> Vec<f64> {
    [200, 400, 600, 800, 1000, 1200, 1400, 1600, 1750, 1850]
        .iter()
        .map(|k| *k as f64 * 1000.0)
        .collect()
}

fn spec(cli: &Cli, name: &str) -> SweepSpec {
    SweepSpec {
        class_threshold: usr_threshold(),
        placement: Placement::Rss { n: FIG8A_WORKERS },
        warmup: scaled(Nanos::from_ms(50)),
        measure: scaled(Nanos::from_ms(200)),
        ..cli.sweep(name, rates(), usr_distribution())
    }
}

fn main() {
    let cli = Cli::parse(&[]);
    let sky = run_sweep(&spec(&cli, "Skyloft"), &|| {
        build::skyloft_ws(FIG8A_WORKERS, None)
    });
    eprintln!("  skyloft done");
    let shen = run_sweep(&spec(&cli, "Shenango"), &|| {
        build::shenango_ws(FIG8A_WORKERS)
    });
    eprintln!("  shenango done");

    let all = vec![sky, shen];
    let t = out::figure_table("offered kRPS", |p| p.p99_us, &all);
    cli.emit(
        "fig8a_memcached",
        "Figure 8a: Memcached USR p99 latency (us)",
        &t,
    );
    let t2 = out::figure_table("offered kRPS", |p| p.achieved_rps / 1000.0, &all);
    cli.emit("fig8a_tput", "Figure 8a: achieved kRPS", &t2);

    const SLO_US: f64 = 100.0;
    let sky_max = all[0].max_tput_under_p99_slo(SLO_US);
    let shen_max = all[1].max_tput_under_p99_slo(SLO_US);
    let ratio = sky_max / shen_max;
    assert!(
        (0.93..=1.15).contains(&ratio),
        "Skyloft ({sky_max:.0}) within a few % of Shenango ({shen_max:.0}); paper: within 2%"
    );
    // Low-load tails: Skyloft at or below Shenango.
    let sky_low = all[0].points[0].p99_us;
    let shen_low = all[1].points[0].p99_us;
    assert!(
        sky_low <= shen_low,
        "Skyloft low-load p99 ({sky_low:.1}us) should not exceed Shenango's ({shen_low:.1}us)"
    );
    println!(
        "Shape checks passed: max tput ratio {:.3} (paper: ~1.0); low-load p99 {:.1} vs {:.1} us.",
        ratio, sky_low, shen_low
    );
}
