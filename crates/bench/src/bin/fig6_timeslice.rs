//! Figure 6: schbench wakeup latency as a function of the RR time slice.
//!
//! Skyloft RR at 100 kHz with slices from 5 μs to 500 μs, plus
//! Skyloft-FIFO (an infinite slice — no preemption). Expected shape:
//! wakeup latency is roughly proportional to the slice once workers
//! oversubscribe the cores, with FIFO worst (a woken worker waits for
//! whole 2.3 ms requests).

use skyloft_apps::harness::{par_map, sweep_threads};
use skyloft_apps::schbench::DEFAULT_WORK;
use skyloft_bench::setup::FIG5_CORES;
use skyloft_bench::{build, schbench_util, Cli};
use skyloft_metrics::Table;
use skyloft_policies::RoundRobin;
use skyloft_sim::Nanos;

const WORKER_COUNTS: &[usize] = &[8, 16, 24, 32, 48, 64];
const SLICES_US: &[u64] = &[5, 10, 25, 50, 100, 500];

fn main() {
    let cli = Cli::parse(&[]);
    let mut header = vec!["workers".to_string()];
    header.extend(SLICES_US.iter().map(|s| format!("{s}us p99")));
    header.push("FIFO p99".to_string());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);

    // (workers, slice) grid plus a FIFO column (`slice = None`): all
    // independent simulations, fanned across SKYLOFT_THREADS threads.
    let cells: Vec<(usize, Option<u64>)> = WORKER_COUNTS
        .iter()
        .flat_map(|&w| {
            SLICES_US
                .iter()
                .map(move |&s| (w, Some(s)))
                .chain(std::iter::once((w, None)))
        })
        .collect();
    let stats = par_map(&cells, sweep_threads(), &|&(workers, slice_us)| {
        match slice_us {
            Some(slice_us) => {
                let slice = Nanos::from_us(slice_us);
                // The timer must tick at least as often as the slice.
                let hz = 1_000_000_000 / slice.0.min(Nanos::from_us(10).0);
                schbench_util::run(
                    &|| {
                        build::skyloft_percpu(
                            FIG5_CORES,
                            hz,
                            Box::new(RoundRobin::new(Some(slice))),
                        )
                    },
                    workers,
                    DEFAULT_WORK,
                )
            }
            None => schbench_util::run(
                &|| build::skyloft_percpu(FIG5_CORES, 100_000, Box::new(RoundRobin::new(None))),
                workers,
                DEFAULT_WORK,
            ),
        }
    });

    let mut at64: Vec<(u64, f64)> = Vec::new();
    let mut fifo64 = 0.0;
    let per_row = SLICES_US.len() + 1;
    for (wi, &workers) in WORKER_COUNTS.iter().enumerate() {
        let mut row = vec![workers.to_string()];
        for (&(_, slice_us), stats) in cells[wi * per_row..(wi + 1) * per_row]
            .iter()
            .zip(&stats[wi * per_row..])
        {
            if workers == 64 {
                match slice_us {
                    Some(s) => at64.push((s, stats.p99_us)),
                    None => fifo64 = stats.p99_us,
                }
            }
            row.push(format!("{:.0}", stats.p99_us));
        }
        t.row_owned(row);
        eprintln!("  workers={workers} done");
    }
    cli.emit(
        "fig6_timeslice",
        "Figure 6: schbench p99 wakeup latency (us) vs RR time slice",
        &t,
    );

    // Shape: at 64 workers, latency grows with the slice and FIFO is worst.
    let small = at64.iter().find(|(s, _)| *s == 5).unwrap().1;
    let large = at64.iter().find(|(s, _)| *s == 500).unwrap().1;
    assert!(
        large > 2.0 * small,
        "p99 must grow with the slice: 5us -> {small:.0}, 500us -> {large:.0}"
    );
    assert!(
        fifo64 >= large,
        "FIFO ({fifo64:.0}us) must be at least the largest slice ({large:.0}us)"
    );
    println!("Shape checks passed: wakeup latency ∝ time slice; FIFO worst.");
}
