//! Policy hot-path microbenchmark: per-policy enqueue/pick/dequeue cost
//! and pick throughput at task populations {16, 256, 4096, 65536}, for
//! the optimized implementations *and* the frozen pre-optimization
//! oracles in `skyloft_policies::reference` (DESIGN.md §14), plus an
//! end-to-end high-population machine sweep on EEVDF.
//!
//! Results go to `polbench.csv`; `--write` records them into the
//! repo-root `BENCH_policy.json` (one section per policy), with the
//! oracle's numbers alongside as the pre-optimization reference.
//! `--check` is the CI gate: it fails on a >30% pick-throughput
//! regression against the stored baseline, and it fails outright if
//! EEVDF's pick throughput at the 4096-task population is not at least
//! 5x the oracle's — the headline claim of the incremental-accounting
//! rework, re-proven on every run.

use std::time::Instant;

use skyloft::ops::{EnqueueFlags, Policy, SchedEnv};
use skyloft::task::{Task, TaskId, TaskTable};
use skyloft::SchedParams;
use skyloft_apps::schbench;
use skyloft_bench::baseline::{Baseline, Gate, Section};
use skyloft_bench::{build, fast_factor, scaled, Cli};
use skyloft_metrics::Table;
use skyloft_policies::{cfs, eevdf, reference, rr, shinjuku, shinjuku_shenango, work_stealing};
use skyloft_sim::Nanos;

const POPULATIONS: [usize; 4] = [16, 256, 4096, 65536];
const WORKER_CORES: usize = 4;
/// The population the CI gate and the baseline floors key on.
const GATE_POP: usize = 4096;
const GATE_SPEEDUP: f64 = 5.0;

/// 30% pick-throughput floors at [`GATE_POP`] for the optimized
/// policies; the oracles are the yardstick, not the product.
const BASELINE: Baseline = Baseline {
    file: "BENCH_policy.json",
    gates: &[
        Gate::at_least("eevdf", "picks_per_sec_4096", 0.7),
        Gate::at_least("cfs", "picks_per_sec_4096", 0.7),
        Gate::at_least("rr", "picks_per_sec_4096", 0.7),
        Gate::at_least("work_stealing", "picks_per_sec_4096", 0.7),
        Gate::at_least("shinjuku", "picks_per_sec_4096", 0.7),
        Gate::at_least("shinjuku_shenango", "picks_per_sec_4096", 0.7),
    ],
};

/// One policy variant under test.
struct Contender {
    /// Section name in `BENCH_policy.json` / row label in the CSV.
    name: &'static str,
    mk: fn() -> Box<dyn Policy>,
}

fn contenders() -> Vec<Contender> {
    fn b<P: Policy + 'static>(p: P) -> Box<dyn Policy> {
        Box::new(p)
    }
    vec![
        Contender {
            name: "eevdf",
            mk: || b(eevdf::Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
        },
        Contender {
            name: "eevdf_oracle",
            mk: || b(reference::Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
        },
        Contender {
            name: "cfs",
            mk: || b(cfs::Cfs::new(SchedParams::SKYLOFT_CFS)),
        },
        Contender {
            name: "cfs_oracle",
            mk: || b(reference::Cfs::new(SchedParams::SKYLOFT_CFS)),
        },
        Contender {
            name: "rr",
            mk: || b(rr::RoundRobin::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "rr_oracle",
            mk: || b(reference::RoundRobin::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "work_stealing",
            mk: || b(work_stealing::WorkStealing::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "work_stealing_oracle",
            mk: || b(reference::WorkStealing::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "shinjuku",
            mk: || b(shinjuku::Shinjuku::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "shinjuku_oracle",
            mk: || b(reference::Shinjuku::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "shinjuku_shenango",
            mk: || {
                b(shinjuku_shenango::ShinjukuShenango::new(Some(
                    Nanos::from_us(20),
                )))
            },
        },
        Contender {
            name: "shinjuku_shenango_oracle",
            mk: || b(reference::ShinjukuShenango::new(Some(Nanos::from_us(20)))),
        },
    ]
}

#[derive(Clone, Copy)]
struct PopSample {
    enqueue_ns: f64,
    pick_ns: f64,
    dequeue_ns: f64,
    picks_per_sec: f64,
}

/// Pick+requeue iterations at steady population `n`: enough for stable
/// timing, bounded so the O(n)-per-pick oracles stay affordable at the
/// top population. `SKYLOFT_FAST` shrinks the budget for smoke runs.
fn iters_for(n: usize) -> usize {
    let base = match n {
        0..=64 => 200_000,
        65..=1024 => 50_000,
        1025..=8192 => 20_000,
        _ => 2_000,
    };
    (base / fast_factor() as usize).max(100)
}

/// Measures one policy at one population: enqueue all `n` tasks, run the
/// steady-state pick+requeue loop round-robin over the worker cores, then
/// drain to empty. Vruntimes and weights are spread so the weighted
/// policies exercise their accumulator math rather than an all-ties
/// degenerate queue.
fn bench_policy(mk: fn() -> Box<dyn Policy>, n: usize) -> PopSample {
    let cores: Vec<usize> = (0..WORKER_CORES).collect();
    let mut p = mk();
    p.sched_init(&SchedEnv {
        worker_cores: cores.clone(),
        dispatcher: None,
    });
    let mut tasks = TaskTable::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            let id = tasks.insert(|id| Task::bare(id, 0));
            p.task_init(&mut tasks, id, Nanos(i as u64));
            let pd = &mut tasks.get_mut(id).pd;
            pd.weight = [1024u32, 423, 2048, 88761][i % 4];
            pd.vruntime = (i as u64).wrapping_mul(7919) % 1_000_000;
            pd.deadline = pd.vruntime + 1 + (i as u64) % 50_000;
            id
        })
        .collect();

    let t0 = Instant::now();
    for (i, &id) in ids.iter().enumerate() {
        p.task_enqueue(
            &mut tasks,
            id,
            Some(cores[i % cores.len()]),
            EnqueueFlags::New,
            Nanos(i as u64),
        );
    }
    let enqueue_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;

    let iters = iters_for(n);
    let mut now = Nanos(1_000_000);
    let mut picked = 0u64;
    let t0 = Instant::now();
    for k in 0..iters {
        let cpu = cores[k % cores.len()];
        now += Nanos(97);
        let t = p
            .task_dequeue(&mut tasks, cpu, now)
            .or_else(|| p.sched_balance(&mut tasks, cpu, now));
        if let Some(t) = t {
            picked += 1;
            p.task_enqueue(&mut tasks, t, Some(cpu), EnqueueFlags::Preempted, now);
        }
    }
    let pick_wall = t0.elapsed().as_secs_f64();
    let pick_ns = pick_wall * 1e9 / iters.max(1) as f64;
    let picks_per_sec = picked as f64 / pick_wall;

    let mut drained = 0usize;
    let t0 = Instant::now();
    while drained < n {
        let mut any = false;
        for &cpu in &cores {
            now += Nanos(97);
            if let Some(t) = p
                .task_dequeue(&mut tasks, cpu, now)
                .or_else(|| p.sched_balance(&mut tasks, cpu, now))
            {
                p.task_terminate(&mut tasks, t, now);
                tasks.remove(t);
                drained += 1;
                any = true;
            }
        }
        assert!(any, "policy lost tasks: drained {drained} of {n}");
    }
    let dequeue_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;

    PopSample {
        enqueue_ns,
        pick_ns,
        dequeue_ns,
        picks_per_sec,
    }
}

/// End-to-end high-population sweep: schbench with a large worker herd on
/// per-CPU EEVDF, where every timer tick and wakeup goes through the
/// incremental accounting. Returns simulator events/sec.
fn run_end_to_end() -> f64 {
    let t0 = Instant::now();
    let (mut m, mut q) = build::skyloft_percpu(
        8,
        100_000,
        Box::new(eevdf::Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
    );
    schbench::spawn(&mut m, &mut q, 0, 1024, schbench::DEFAULT_WORK);
    let events = m.run(&mut q, scaled(Nanos::from_ms(200)));
    events as f64 / t0.elapsed().as_secs_f64()
}

/// `(contender name, per-population samples)`.
type ContenderResult = (&'static str, Vec<(usize, PopSample)>);

fn section(name: &str, samples: &[(usize, PopSample)]) -> Section {
    Section::new(
        name,
        samples.iter().flat_map(|(n, s)| {
            [
                (format!("enqueue_ns_{n}"), s.enqueue_ns, 1),
                (format!("pick_ns_{n}"), s.pick_ns, 1),
                (format!("dequeue_ns_{n}"), s.dequeue_ns, 1),
                (format!("picks_per_sec_{n}"), s.picks_per_sec, 0),
            ]
        }),
    )
}

fn main() {
    let cli = Cli::parse(&["--check", "--write"]);

    let mut t = Table::new(&[
        "policy",
        "population",
        "enqueue_ns",
        "pick_ns",
        "dequeue_ns",
        "picks_per_sec",
    ]);
    let mut results: Vec<ContenderResult> = Vec::new();
    for c in contenders() {
        eprintln!("polbench: measuring {}...", c.name);
        let mut samples = Vec::new();
        for n in POPULATIONS {
            let s = bench_policy(c.mk, n);
            t.row_owned(vec![
                c.name.to_string(),
                n.to_string(),
                format!("{:.1}", s.enqueue_ns),
                format!("{:.1}", s.pick_ns),
                format!("{:.1}", s.dequeue_ns),
                format!("{:.0}", s.picks_per_sec),
            ]);
            samples.push((n, s));
        }
        results.push((c.name, samples));
    }
    eprintln!("polbench: measuring end-to-end high-population sweep...");
    let e2e_events_per_sec = run_end_to_end();
    cli.emit("polbench", "Policy hot-path microbenchmark", &t);
    println!("end-to-end eevdf schbench events/sec: {e2e_events_per_sec:.0}");

    let gate_pick = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, s)| s.iter().find(|(p, _)| *p == GATE_POP))
            .map(|(_, s)| s.picks_per_sec)
            .unwrap_or(0.0)
    };
    let speedup = gate_pick("eevdf") / gate_pick("eevdf_oracle").max(1.0);
    println!("eevdf pick speedup vs oracle at {GATE_POP} tasks: {speedup:.1}x");

    let mut sections: Vec<Section> = results
        .iter()
        .map(|(name, samples)| section(name, samples))
        .collect();
    sections.push(Section::new(
        "end_to_end",
        [
            (
                "eevdf_schbench_events_per_sec".to_string(),
                e2e_events_per_sec,
                0,
            ),
            (format!("eevdf_speedup_vs_oracle_{GATE_POP}"), speedup, 1),
        ],
    ));
    cli.finish(&BASELINE, &sections, || {
        if speedup < GATE_SPEEDUP {
            vec![format!(
                "eevdf pick throughput at {GATE_POP} tasks is only {speedup:.1}x the oracle \
                 (need >= {GATE_SPEEDUP:.0}x)"
            )]
        } else {
            Vec::new()
        }
    });
}
