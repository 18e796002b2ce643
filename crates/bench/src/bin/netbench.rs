//! Network data-plane saturation sweep (§3.5): p99 vs offered load for
//! the memcached USR workload, run twice per rate — once through the
//! multi-queue NIC model (`Placement::Rss`, bounded RX rings + polling
//! core) and once over the pre-change direct path (`Placement::RssDirect`,
//! flow-hash pinning with no rings).
//!
//! The shape this records is the PR's bugfix: past saturation the direct
//! path accumulates an unbounded in-simulator spawn queue, so its p99
//! grows with the measurement window; the NIC path tail-drops at the
//! rings, so delivered requests stay fast and dropped ones surface at the
//! client timeout — p99 is bounded by the timeout no matter how far past
//! saturation the sweep pushes.
//!
//! Results go to `netbench.csv`; `--write` records the direct series as
//! `pre_change` and the NIC series as `current` in the repo-root
//! `BENCH_net.json`; `--check` gates CI on the semantic shape (NIC overload p99 bounded by the timeout, drops
//! observed, direct tail far worse) plus a regression bound against the
//! stored NIC numbers.

use skyloft_apps::harness::{par_map, sweep_threads};
use skyloft_apps::memcached::{usr_distribution, usr_threshold};
use skyloft_apps::synthetic::{install_open_loop_net, Placement};
use skyloft_bench::baseline::{Baseline, Gate, Section};
use skyloft_bench::{build, scaled, Cli};
use skyloft_metrics::Table;
use skyloft_net::loadgen::{NetProfile, OpenLoop};
use skyloft_sim::Nanos;

const WORKERS: usize = 4;
/// Client retransmission/abandon timeout: the bound the NIC path's tail
/// must respect past saturation.
const TIMEOUT: Nanos = Nanos::from_ms(1);
const SEED: u64 = 0x6E65_7462; // "netb"

/// The NIC path's overload tail may not grow past 1.3x the stored one.
const BASELINE: Baseline = Baseline {
    file: "BENCH_net.json",
    gates: &[Gate::at_most("current", "overload_p99_us", 1.3)],
};

/// Offered rates in rps. 4 workers x (1.5 us GET + ~0.5 us stack) put
/// capacity near 2.0 M rps; the last two points are past saturation.
fn rates() -> Vec<f64> {
    vec![
        600_000.0,
        1_000_000.0,
        1_400_000.0,
        1_800_000.0,
        2_200_000.0,
        2_600_000.0,
    ]
}

/// One measured sweep point, with the data-plane counters the stock
/// harness `LoadPoint` does not carry.
struct NetPoint {
    rate: f64,
    achieved_rps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    drops: u64,
    timeouts: u64,
    occ_max: u64,
}

fn run_net_point(rate: f64, placement: Placement) -> NetPoint {
    let (mut m, mut q) = build::skyloft_ws(WORKERS, Some(Nanos::from_us(30)));
    let gen = OpenLoop::new(
        rate,
        usr_distribution(),
        usr_threshold(),
        SEED ^ (rate as u64),
    );
    let warmup = scaled(Nanos::from_ms(50));
    let end = warmup + scaled(Nanos::from_ms(200));
    let net = NetProfile::lossy(0, 0.0, 0.0, TIMEOUT);
    install_open_loop_net(&mut q, gen, 0, placement, end, Some(net));
    m.run(&mut q, warmup);
    m.reset_stats(q.now());
    m.run(&mut q, end);
    let now = q.now();
    // The conservation invariant must hold on every NIC-routed point: no
    // datagram may vanish outside the drop counters.
    assert_eq!(
        m.stats.net_generated,
        m.stats.net_delivered + m.stats.rx_ring_drops + m.stats.net_in_flight,
        "datagram conservation violated at {rate} rps"
    );
    let h = &m.stats.resp_hist;
    NetPoint {
        rate,
        achieved_rps: m.stats.achieved_rps(now),
        p50_us: h.percentile(50.0) as f64 / 1000.0,
        p99_us: h.percentile(99.0) as f64 / 1000.0,
        p999_us: h.percentile(99.9) as f64 / 1000.0,
        drops: m.stats.rx_ring_drops,
        timeouts: m.stats.timeouts,
        occ_max: m.stats.rx_occ_hist.max(),
    }
}

fn run_series(placement: &Placement) -> Vec<NetPoint> {
    let rs = rates();
    par_map(&rs, sweep_threads(), &|&rate| {
        run_net_point(rate, placement.clone())
    })
}

/// The metrics a series contributes to the baseline: the knee-side
/// point (last rate under nominal capacity) and the overload point (last
/// rate of the sweep).
fn section(name: &str, points: &[NetPoint]) -> Section {
    let sat = &points[points.len() - 3]; // 1.8 M — just under capacity
    let over = points.last().expect("sweep has points");
    Section::new(
        name,
        [
            ("sat_p99_us", sat.p99_us, 1),
            ("overload_p99_us", over.p99_us, 1),
            ("overload_p999_us", over.p999_us, 1),
            ("overload_achieved_rps", over.achieved_rps, 0),
            ("overload_drops", over.drops as f64, 0),
            ("overload_occ_max", over.occ_max as f64, 0),
        ],
    )
}

fn shape(direct: &[NetPoint], nic: &[NetPoint]) -> Vec<String> {
    let timeout_us = TIMEOUT.0 as f64 / 1000.0;
    let nic_over = nic.last().expect("sweep has points");
    let direct_over = direct.last().expect("sweep has points");
    let mut fails = Vec::new();
    // (1) Bounded tail past saturation: the NIC path's p99 may not exceed
    // the client timeout by more than measurement slack.
    if nic_over.p99_us > timeout_us * 1.15 {
        fails.push(format!(
            "NIC overload p99 {:.1} us exceeds the {timeout_us:.0} us client timeout",
            nic_over.p99_us
        ));
    }
    // (2) Overload must manifest as tail-drops, not hidden queues.
    if nic_over.drops == 0 {
        fails.push(format!("no RX ring drops at {} rps", nic_over.rate));
    }
    // (3) The pre-change path demonstrates the bug: its overload tail is
    // an unbounded queue, far beyond the NIC path's timeout-bounded tail.
    if direct_over.p99_us < 1.5 * nic_over.p99_us {
        fails.push(format!(
            "direct overload p99 {:.1} us should dwarf NIC's {:.1} us",
            direct_over.p99_us, nic_over.p99_us
        ));
    }
    fails
}

fn main() {
    let cli = Cli::parse(&["--check", "--write"]);

    eprintln!("netbench: sweeping direct (pre-change) path...");
    let direct = run_series(&Placement::RssDirect { n: WORKERS });
    eprintln!("netbench: sweeping NIC data plane...");
    let nic = run_series(&Placement::Rss { n: WORKERS });

    let mut t = Table::new(&[
        "offered kRPS",
        "series",
        "achieved kRPS",
        "p50 (us)",
        "p99 (us)",
        "p99.9 (us)",
        "rx drops",
        "timeouts",
        "ring occ max",
    ]);
    for (name, series) in [("direct", &direct), ("nic", &nic)] {
        for p in series.iter() {
            t.row_owned(vec![
                format!("{:.0}", p.rate / 1000.0),
                name.to_string(),
                format!("{:.0}", p.achieved_rps / 1000.0),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p99_us),
                format!("{:.1}", p.p999_us),
                p.drops.to_string(),
                p.timeouts.to_string(),
                p.occ_max.to_string(),
            ]);
        }
    }
    cli.emit(
        "netbench",
        "NIC data plane: USR p99 vs load past saturation (direct vs rings)",
        &t,
    );
    let over = nic.last().expect("sweep has points");
    println!(
        "overload ({:.1} M rps): nic p99 {:.0} us ({} drops), direct p99 {:.0} us",
        over.rate / 1e6,
        over.p99_us,
        over.drops,
        direct.last().expect("sweep has points").p99_us
    );

    let sections = [section("pre_change", &direct), section("current", &nic)];
    cli.finish(&BASELINE, &sections, || shape(&direct, &nic));
}
