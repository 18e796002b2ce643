//! Ablation: the preemption-quantum trade-off (§5.2).
//!
//! "The choice of preemption quantum has a significant impact on tail
//! latency and maximum throughput. We find that a preemption quantum of
//! 30 μs yields the best results. While higher preemption frequencies can
//! further reduce tail latency, they also increase the overhead from
//! interrupt handling, which reduces maximum throughput."
//!
//! This sweep quantifies exactly that trade-off on the dispersive
//! workload. Raw completions are dominated by the 99.5% short requests, so
//! the cost side shows up where it is actually paid: the long requests,
//! which absorb one interrupt + context-switch round per quantum. Short
//! p99 falls as the quantum shrinks; long p99 (and hence sustainable load
//! under any whole-distribution SLO) degrades.

use skyloft_apps::harness::{par_map, run_point, sweep_threads, SweepSpec};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, Placement};
use skyloft_bench::setup::FIG7_WORKERS;
use skyloft_bench::{build, scaled, Cli};
use skyloft_metrics::Table;
use skyloft_sim::Nanos;

fn main() {
    let cli = Cli::parse(&[]);
    let quanta_us = [5u64, 10, 15, 30, 60, 120, 240];
    let mid_rate = 280_000.0; // ~76% load: tail-latency regime
    let hot_rate = 345_000.0; // ~93% load: the cost side becomes visible
    let mut t = Table::new(&[
        "quantum (us)",
        "short p99 @280k (us)",
        "long p99 @345k (ms)",
        "preempt IPIs/long-req",
    ]);
    let mut short_tail = Vec::new();
    let mut long_tail = Vec::new();
    // Each quantum's two load points are independent machines; fan the
    // whole sweep across SKYLOFT_THREADS host threads.
    let points = par_map(&quanta_us, sweep_threads(), &|&q_us| {
        let quantum = Nanos::from_us(q_us);
        let spec = |r: f64| SweepSpec {
            class_threshold: dispersive_threshold(),
            placement: Placement::Queue,
            warmup: scaled(Nanos::from_ms(50)),
            measure: scaled(Nanos::from_ms(300)),
            ..cli.sweep("q", vec![r], dispersive())
        };
        let mid = run_point(&spec(mid_rate), mid_rate, &|| {
            build::skyloft_shinjuku(FIG7_WORKERS, Some(quantum), false)
        });
        let hot = run_point(&spec(hot_rate), hot_rate, &|| {
            build::skyloft_shinjuku(FIG7_WORKERS, Some(quantum), false)
        });
        eprintln!("  quantum={q_us}us done");
        (mid, hot)
    });
    for (&q_us, (mid, hot)) in quanta_us.iter().zip(&points) {
        // Dispatcher interrupts per long request = 10 ms / quantum.
        let ipis_per_long = 10_000.0 / q_us as f64;
        short_tail.push(mid.p99_us);
        // The long class is the 99.5th..100th percentile band; its p99
        // within-class comes from p999 of the whole distribution.
        long_tail.push(hot.p999_us / 1000.0);
        t.row_owned(vec![
            q_us.to_string(),
            format!("{:.1}", mid.p99_us),
            format!("{:.1}", hot.p999_us / 1000.0),
            format!("{:.0}", ipis_per_long),
        ]);
    }
    cli.emit(
        "ablate_quantum",
        "Ablation: preemption quantum vs short tails and long-request cost",
        &t,
    );
    // Shape: smaller quanta give lower short p99...
    assert!(
        short_tail.first().unwrap() * 2.0 < *short_tail.last().unwrap(),
        "short p99 must grow with the quantum: {short_tail:?}"
    );
    // ...but longs pay for the preemption churn: the smallest quantum must
    // be measurably worse for them than the largest.
    assert!(
        long_tail[0] > long_tail[long_tail.len() - 1],
        "long p999 should shrink with larger quanta: {long_tail:?}"
    );
    println!(
        "Shape checks passed: short p99 {:.0}->{:.0} us while long p999 {:.1}->{:.1} ms \
         across quanta — the paper picks 30 us as the balance.",
        short_tail[0],
        short_tail[short_tail.len() - 1],
        long_tail[0],
        long_tail[long_tail.len() - 1]
    );
}
