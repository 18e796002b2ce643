//! Table 5: parameters for the scheduling policies of §5.1.

use skyloft::SchedParams;
use skyloft_bench::Cli;
use skyloft_metrics::Table;
use skyloft_sim::Nanos;

fn fmt(n: Nanos) -> String {
    format!("{n}")
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut t = Table::new(&[
        "policy",
        "timer hz",
        "min_granularity / base_slice",
        "time_slice / sched_latency",
    ]);
    let rows: Vec<(&str, u64, Option<Nanos>, Option<Nanos>)> = vec![
        (
            "Linux RR (default)",
            250,
            None,
            Some(SchedParams::LINUX_RR_DEFAULT.time_slice),
        ),
        (
            "Linux CFS (default)",
            250,
            Some(SchedParams::LINUX_CFS_DEFAULT.min_granularity),
            Some(SchedParams::LINUX_CFS_DEFAULT.sched_latency),
        ),
        (
            "Linux CFS (tuned)",
            1_000,
            Some(SchedParams::LINUX_CFS_TUNED.min_granularity),
            Some(SchedParams::LINUX_CFS_TUNED.sched_latency),
        ),
        (
            "Linux EEVDF (default)",
            1_000,
            Some(SchedParams::LINUX_EEVDF_DEFAULT.min_granularity),
            None,
        ),
        (
            "Linux EEVDF (tuned)",
            1_000,
            Some(SchedParams::LINUX_EEVDF_TUNED.min_granularity),
            None,
        ),
        (
            "Skyloft RR",
            100_000,
            None,
            Some(SchedParams::SKYLOFT_RR.time_slice),
        ),
        (
            "Skyloft CFS",
            100_000,
            Some(SchedParams::SKYLOFT_CFS.min_granularity),
            Some(SchedParams::SKYLOFT_CFS.sched_latency),
        ),
        (
            "Skyloft EEVDF",
            100_000,
            Some(SchedParams::SKYLOFT_EEVDF.min_granularity),
            None,
        ),
    ];
    for (name, hz, gran, slice) in rows {
        t.row_owned(vec![
            name.to_string(),
            hz.to_string(),
            gran.map(fmt).unwrap_or_else(|| "-".into()),
            slice.map(fmt).unwrap_or_else(|| "-".into()),
        ]);
    }
    cli.emit("tab5_params", "Table 5: scheduling-policy parameters", &t);
}
