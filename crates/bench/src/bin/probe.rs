//! Calibration probe: runs one (system, rate) point of the dispersive
//! workload and prints machine counters (queue depth, preemptions,
//! spurious IPIs) alongside the harness measurement. Not part of the
//! experiment set; useful when re-tuning baseline cost constants.
//!
//! Usage: `probe [ghost|sky|shinjuku] [rate_rps]`.
use skyloft_apps::harness::{run_point, SweepSpec};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, Placement};
use skyloft_bench::{build, Cli};
use skyloft_sim::Nanos;

fn main() {
    let cli = Cli::parse(&["SYSTEM", "RATE"]);
    let sys = cli.args.first().map(|s| s.as_str()).unwrap_or("ghost");
    let rate: f64 = cli
        .args
        .get(1)
        .map(|s| s.parse().expect("RATE is requests per second"))
        .unwrap_or(350_000.0);
    let spec = SweepSpec {
        class_threshold: dispersive_threshold(),
        placement: Placement::Queue,
        warmup: Nanos::from_ms(50),
        measure: Nanos::from_ms(200),
        // The manually driven machine below dumps the trace instead, so
        // its counters and the dumped trace describe the same run.
        trace: None,
        ..SweepSpec::new(sys, vec![rate], dispersive())
    };
    // Build once more manually to read machine stats after the run.
    let (mut m, mut q) = match sys {
        "ghost" => build::ghost_shinjuku(20, Some(Nanos::from_us(30)), false),
        "sky" => build::skyloft_shinjuku(20, Some(Nanos::from_us(30)), false),
        _ => build::shinjuku(20, Some(Nanos::from_us(30))),
    };
    let gen = skyloft_net::loadgen::OpenLoop::new(rate, dispersive(), dispersive_threshold(), 1);
    skyloft_apps::synthetic::install_open_loop_net(
        &mut q,
        gen,
        0,
        Placement::Queue,
        Nanos::from_ms(250),
        None,
    );
    m.run(&mut q, Nanos::from_ms(50));
    m.reset_stats(q.now());
    m.run(&mut q, Nanos::from_ms(250));
    cli.dump_trace(&m, sys);
    println!(
        "{sys}@{rate}: completed={} achieved={:.0} p99={:.1}us preempt={} spurious={} queue_len={:?}",
        m.stats.completed,
        m.stats.achieved_rps(q.now()),
        m.stats.resp_hist.percentile(99.0) as f64 / 1000.0,
        m.stats.preemptions,
        m.stats.spurious_ipis,
        m.policy.queue_len(),
    );
    let p = run_point(
        &spec,
        rate,
        &(|| match sys {
            "ghost" => build::ghost_shinjuku(20, Some(Nanos::from_us(30)), false),
            "sky" => build::skyloft_shinjuku(20, Some(Nanos::from_us(30)), false),
            _ => build::shinjuku(20, Some(Nanos::from_us(30))),
        }),
    );
    println!("point: {p:?}");
}
