//! Measurement side of the workload benchmark (see `NOTES.md`).
//!
//! ```text
//! skyloft-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Simulator workloads run in this process for `--seconds`: with
//! `--trace 0` they report end-to-end metrics (host set-up and run time
//! as `Machine::run` runs, peak RSS, and the virtual outcomes); with
//! `--trace 1` they report the per-layer split of a separate timed run
//! whose virtual outcomes must equal the untimed run's. `uthread_fanout`
//! runs one fan-out per process; `run.py` launches and watches those.
//! The last stdout line is a JSON report that `run.py` turns into the
//! benchmark's result line.

mod calib;
mod fanout;
mod sim;
mod timed;

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sim::{Drive, Outcome, Workload};
use timed::{Prof, EVENT_KINDS, POLICY_OPS};

/// Counts every heap allocation (alloc + realloc) the process makes, for
/// `sim.allocs_per_event` (the technique `simbench` uses).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Set-ups timed per measured run: set-up is sub-millisecond, so each run
/// builds the machine several times and `setup_s` is their median.
const SETUPS_PER_RUN: usize = 5;
/// Runs made even when `--seconds` is used up sooner.
const MIN_RUNS: usize = 3;

/// Resident-memory high-water mark of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Report {
    checks: Vec<(String, bool, String)>,
    /// Operations attempted and failed (runs for the simulator
    /// workloads, tasks for `uthread_fanout`).
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            }
        };
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"name\": \"{}\", \"ok\": {ok}, \"detail\": \"{}\"}}",
                    esc(n),
                    esc(d)
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    esc(&m.name),
                    num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect();
        format!(
            "{{\"checks\": [{}], \"attempted\": {}, \"failed\": {}, \"metrics\": [{}]}}",
            checks.join(", "),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Compares every run's outcome with the first one's; a mismatch means
/// the program is not deterministic, or the way it was driven changed a
/// decision.
fn same_outcomes(r: &mut Report, name: &str, outs: &[Outcome]) -> u64 {
    let bad = outs.iter().filter(|o| **o != outs[0]).count() as u64;
    let detail = if bad == 0 {
        format!("{} runs agree", outs.len())
    } else {
        let o = outs.iter().find(|o| **o != outs[0]).expect("a mismatch");
        format!(
            "{bad} of {} runs differ: {:?} vs {:?}",
            outs.len(),
            outs[0],
            o
        )
    };
    r.check(name, bad == 0, detail);
    bad
}

/// One untimed run as users run the program: returns the set-up times,
/// the run time, the allocations the run made, and its outcome.
fn plain_run(w: Workload, seed: u64, tracer: bool) -> (Vec<f64>, f64, u64, Outcome) {
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut built = None;
    for _ in 0..SETUPS_PER_RUN {
        let t0 = Instant::now();
        let b = sim::setup(w, seed, None);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (mut m, mut q) = built.expect("at least one set-up");
    m.tracer.set_active(tracer);
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let out = sim::run(w, &mut m, &mut q, &Drive::Run);
    let secs = t0.elapsed().as_secs_f64();
    (setups, secs, ALLOCS.load(Ordering::Relaxed) - a0, out)
}

/// Adds the workload's virtual outcomes (identical in every run).
fn outcome_metrics(r: &mut Report, o: &Outcome) {
    r.metric("p50_us", o.p50_us, "us", o.samples);
    r.metric("p99_us", o.p99_us, "us", o.samples);
    r.metric("goodput_rps", o.goodput_rps, "req/s", o.samples);
    r.metric(
        "batch_goodput_rps",
        o.batch_goodput_rps,
        "req/s",
        o.batch_samples,
    );
    let frac = if o.offered == 0 {
        0.0
    } else {
        o.lost as f64 / o.offered as f64
    };
    r.metric("fail_frac", frac, "ratio", o.offered);
}

fn run_untraced(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    let (mut setups, mut runs, mut outs, mut refs) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while outs.len() < MIN_RUNS || start.elapsed() < budget {
        refs.push(calib::measure());
        let (s, secs, _, out) = plain_run(w, seed, true);
        setups.extend(s);
        runs.push(secs);
        outs.push(out);
    }
    r.attempted = outs.len() as u64;
    r.failed = same_outcomes(&mut r, "runs_deterministic", &outs);
    check_outcome(&mut r, w, seed, &outs[0]);
    // Interference from other tenants of the host only adds time, so the
    // fastest repeat is the run's own cost. Host times are then stated at
    // the reference host speed: scaled by how much slower than on the
    // reference host the fixed reference workload ran at its fastest
    // meanwhile (see `calib`). The raw figures are printed beside them.
    let n = runs.len() as u64;
    let ref_min = min(&refs);
    let speed = calib::REFERENCE_S / ref_min;
    r.metric("setup_s", median(&setups) * speed, "s", setups.len() as u64);
    r.metric("run_s", min(&runs) * speed, "s", n);
    r.metric("run_wall_min_s", min(&runs), "s", n);
    r.metric("run_wall_median_s", median(&runs), "s", n);
    r.metric("reference_min_s", ref_min, "s", n);
    match peak_rss_child(w, seed) {
        Ok(mb) => r.metric("peak_rss_mb", mb, "MB", 1),
        Err(e) => r.check("peak_rss_child", false, e),
    }
    outcome_metrics(&mut r, &outs[0]);
    r
}

/// Checks an outcome must pass besides determinism.
fn check_outcome(r: &mut Report, w: Workload, seed: u64, o: &Outcome) {
    r.check(
        "latency_samples_recorded",
        o.samples > 0 && o.p99_us > 0.0,
        format!("{} samples, p99 {} us", o.samples, o.p99_us),
    );
    if w == Workload::DispersiveCentral {
        let (mut m, mut q) = sim::figure_machine(seed);
        let reference = sim::run(w, &mut m, &mut q, &Drive::Run);
        r.check(
            "matches_build_skyloft_shinjuku",
            reference == *o,
            if reference == *o {
                format!("{} events, p99 {} us", o.events, o.p99_us)
            } else {
                format!("build::skyloft_shinjuku gave {reference:?}")
            },
        );
    }
    for (name, ok, detail) in &o.ledger {
        r.check(name, *ok, detail.clone());
    }
}

fn run_traced(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    let mut outs = Vec::new();
    let (mut on, mut off, mut traced, mut allocs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pop = Vec::new();
    let mut ev_s = vec![Vec::new(); EVENT_KINDS.len()];
    let mut ev_self = vec![Vec::new(); EVENT_KINDS.len()];
    let mut op_s = vec![Vec::new(); POLICY_OPS.len()];
    let mut last: Option<Rc<Prof>> = None;
    let start = Instant::now();
    while traced.len() < MIN_RUNS || start.elapsed() < budget {
        // As run_s measures it: the scheduling tracer at its default.
        let (_, secs, a, out) = plain_run(w, seed, true);
        on.push(secs);
        allocs.push(a as f64 / out.events.max(1) as f64);
        outs.push(out);
        // The same with the scheduling tracer off: core.trace_s.
        let (_, secs, _, out) = plain_run(w, seed, false);
        off.push(secs);
        outs.push(out);
        // The timed run: wrapped policy, driven loop.
        let prof = Rc::new(Prof::default());
        let (mut m, mut q) = sim::setup(w, seed, Some(&prof));
        let t0 = Instant::now();
        let out = sim::run(w, &mut m, &mut q, &Drive::Traced(&prof));
        traced.push(t0.elapsed().as_secs_f64());
        outs.push(out);
        pop.push(prof.pop.ns.get() as f64 * 1e-9);
        for (k, s) in prof.events.iter().enumerate() {
            ev_s[k].push(s.ns.get() as f64 * 1e-9);
            ev_self[k].push(s.self_ns.get() as f64 * 1e-9);
        }
        for (k, s) in prof.ops.iter().enumerate() {
            op_s[k].push(s.ns.get() as f64 * 1e-9);
        }
        last = Some(prof);
    }
    let prof = last.expect("at least one timed run");
    r.attempted = outs.len() as u64;
    r.failed = same_outcomes(&mut r, "traced_equals_untraced", &outs);
    check_outcome(&mut r, w, seed, &outs[0]);
    let o = &outs[0];
    let n = traced.len() as u64;
    let run_on = median(&on);
    r.metric("sim.events", o.events as f64, "count", 1);
    r.metric("sim.batches", prof.batches.get() as f64, "count", 1);
    r.metric("sim.pop_s", median(&pop), "s", n);
    r.metric("sim.events_per_s", o.events as f64 / run_on, "1/s", n);
    r.metric("sim.allocs_per_event", median(&allocs), "ratio", n);
    r.metric("sim.pending_max", prof.pending_max.get() as f64, "count", 1);
    for (k, name) in EVENT_KINDS.iter().enumerate() {
        if *name == "chaos" {
            continue;
        }
        let span = &prof.events[k];
        r.metric(&format!("core.{name}.n"), span.n.get() as f64, "count", 1);
        r.metric(&format!("core.{name}.s"), median(&ev_s[k]), "s", n);
        r.metric(&format!("core.{name}.self_s"), median(&ev_self[k]), "s", n);
    }
    r.metric("core.trace_s", run_on - median(&off), "s", n);
    for (k, name) in POLICY_OPS.iter().enumerate() {
        let span = &prof.ops[k];
        r.metric(
            &format!("policies.{name}.n"),
            span.n.get() as f64,
            "count",
            1,
        );
        r.metric(&format!("policies.{name}.s"), median(&op_s[k]), "s", n);
    }
    for &(name, v, unit) in &o.layer {
        r.metric(name, v, unit, 1);
    }
    r.metric("bench.trace_overhead_s", median(&traced) - run_on, "s", n);
    r
}

/// Peak RSS of a fresh process that sets the workload up and runs it
/// once, as a user runs it. (This process builds and drops many machines,
/// so its own high-water mark depends on heap fragmentation.)
fn peak_rss_child(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--once", "1"])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mb) if out.status.success() && mb > 0.0 => Ok(mb),
        _ => Err(format!("child exited {}: {text:?}", out.status)),
    }
}

/// The `--once` child: one set-up and one run, then its peak RSS.
fn run_once(w: Workload, seed: u64) {
    let (mut m, mut q) = sim::setup(w, seed, None);
    sim::run(w, &mut m, &mut q, &Drive::Run);
    println!("{}", peak_rss_mb());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    once: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val != "0",
            "--once" => args.once = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skyloft-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let report = if args.workload == "uthread_fanout" {
        fanout::run(args.seed, args.trace)
    } else {
        let Some(w) = Workload::parse(&args.workload) else {
            eprintln!("skyloft-perfbench: unknown workload {:?}", args.workload);
            std::process::exit(2);
        };
        if args.once {
            run_once(w, args.seed);
            return;
        }
        if args.trace {
            run_traced(w, args.seed, budget)
        } else {
            run_untraced(w, args.seed, budget)
        }
    };
    println!("{}", report.to_json());
}
