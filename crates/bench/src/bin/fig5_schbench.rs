//! Figure 5: schbench wakeup latency across scheduling policies.
//!
//! 24 isolated cores, one message thread, worker threads swept past the
//! core count, ~2300 μs of work per request (the paper's defaults). The
//! expected shape: all schedulers are fast while workers ≤ cores; once the
//! machine is oversubscribed, wakeup latency is bounded by preemption
//! granularity — Skyloft's 100 kHz user-space timers hold it around 10²
//! μs while Linux's tick-limited schedulers blow up to around 10⁴ μs, and
//! within each family EEVDF ≤ CFS ≤ RR.

use skyloft_apps::harness::{par_map, sweep_threads};
use skyloft_apps::schbench::DEFAULT_WORK;
use skyloft_bench::setup::FIG5_CORES;
use skyloft_bench::{build, schbench_util, Cli};
use skyloft_metrics::Table;

const WORKER_COUNTS: &[usize] = &[8, 16, 24, 32, 48, 64];

fn main() {
    let cli = Cli::parse(&[]);
    let configs = build::fig5_configs();
    let mut header = vec!["workers".to_string()];
    header.extend(configs.iter().map(|(n, _)| format!("{n} p99(us)")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);

    // Every (workers, config) cell is an independent simulation; fan the
    // grid across SKYLOFT_THREADS host threads in row-major order.
    let cells: Vec<(usize, usize)> = (0..WORKER_COUNTS.len())
        .flat_map(|wi| (0..configs.len()).map(move |ci| (wi, ci)))
        .collect();
    let stats = par_map(&cells, sweep_threads(), &|&(wi, ci)| {
        schbench_util::run(
            &|| configs[ci].1(FIG5_CORES),
            WORKER_COUNTS[wi],
            DEFAULT_WORK,
        )
    });

    let mut results = vec![vec![0.0f64; WORKER_COUNTS.len()]; configs.len()];
    for (&(wi, ci), stats) in cells.iter().zip(&stats) {
        let (name, workers) = (configs[ci].0, WORKER_COUNTS[wi]);
        results[ci][wi] = stats.p99_us;
        eprintln!(
            "  [{name} workers={workers}] p50={:.0}us p99={:.0}us n={} preempt={} ticks={}",
            stats.p50_us, stats.p99_us, stats.samples, stats.preemptions, stats.ticks
        );
    }
    for (wi, &workers) in WORKER_COUNTS.iter().enumerate() {
        let mut row = vec![workers.to_string()];
        row.extend((0..configs.len()).map(|ci| format!("{:.0}", results[ci][wi])));
        t.row_owned(row);
    }
    cli.emit(
        "fig5_schbench",
        "Figure 5: schbench wakeup latency (p99, us)",
        &t,
    );

    // Shape checks at the most oversubscribed point (64 workers, 24 cores).
    let last = WORKER_COUNTS.len() - 1;
    let by_name = |needle: &str| -> f64 {
        configs
            .iter()
            .position(|(n, _)| *n == needle)
            .map(|i| results[i][last])
            .expect("config present")
    };
    let sky_cfs = by_name("Skyloft CFS");
    let sky_eevdf = by_name("Skyloft EEVDF");
    let lin_cfs_def = by_name("Linux CFS (default)");
    let lin_cfs_tuned = by_name("Linux CFS (tuned)");
    assert!(
        lin_cfs_def > 20.0 * sky_cfs,
        "Linux default CFS ({lin_cfs_def:.0}us) must be orders of magnitude above Skyloft CFS ({sky_cfs:.0}us)"
    );
    assert!(
        lin_cfs_tuned > 3.0 * sky_cfs,
        "even tuned Linux CFS ({lin_cfs_tuned:.0}us) stays above Skyloft ({sky_cfs:.0}us): tick-limited"
    );
    assert!(
        sky_eevdf <= sky_cfs * 1.5,
        "Skyloft EEVDF ({sky_eevdf:.0}us) should be at or below CFS ({sky_cfs:.0}us)"
    );
    println!("Shape checks passed: Skyloft ~10^2 us vs Linux ~10^3-10^4 us at 64 workers.");
}
