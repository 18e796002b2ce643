//! `uthread_fanout`: the real green-thread runtime, one fan-out per
//! process. The main green thread spawns waves of tasks; each task yields
//! a seed-drawn number of times and then increments a shared counter
//! under the runtime's `Mutex`; the main thread joins the wave before the
//! next. Progress goes to stdout after every wave, so the parent can
//! count the tasks a crashed or hung run never finished.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use skyloft_uthread::stack::fresh_stack_count;
use skyloft_uthread::{spawn, yield_now, Mutex, Runtime};

use crate::sim::mix;
use crate::Report;

/// Tasks per run, and per wave.
pub const TASKS: u64 = 65_536;
const WAVE: u64 = 256;

/// Host-time spans of the runtime's entry points; statistics only, so
/// `Relaxed` (nothing is published through them).
#[derive(Default)]
struct Spans {
    n: [AtomicU64; 4],
    ns: [AtomicU64; 4],
}

const SPAWN: usize = 0;
const JOIN: usize = 1;
const YIELD: usize = 2;
const LOCK: usize = 3;
const NAMES: [&str; 4] = ["spawn", "join", "yield", "mutex_lock"];

impl Spans {
    /// Runs `f`, timing it under `op` when `on`.
    fn time<R>(&self, on: bool, op: usize, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.n[op].fetch_add(1, Ordering::Relaxed);
        self.ns[op].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

/// Runs one fan-out and returns its report. Panics or hangs inside the
/// runtime end the process instead; the parent's watchdog accounts for
/// them.
pub fn run(seed: u64, trace: bool) -> Report {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counter = Arc::new(Mutex::new(0u64));
    let spans = Arc::new(Spans::default());
    let main_started = Arc::new(AtomicU64::new(0));
    println!("tasks {TASKS}");
    let fresh0 = fresh_stack_count();
    let t0 = Instant::now();
    {
        let (counter, spans, main_started) = (
            Arc::clone(&counter),
            Arc::clone(&spans),
            Arc::clone(&main_started),
        );
        Runtime::run(workers, move || {
            main_started.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut done = 0;
            while done < TASKS {
                let handles: Vec<_> = (done..done + WAVE)
                    .map(|i| {
                        let yields = 1 + mix(seed, i) % 4;
                        let (counter, task_spans) = (Arc::clone(&counter), Arc::clone(&spans));
                        spans.time(trace, SPAWN, || {
                            spawn(move || {
                                for _ in 0..yields {
                                    task_spans.time(trace, YIELD, yield_now);
                                }
                                *task_spans.time(trace, LOCK, || counter.lock()) += 1;
                            })
                        })
                    })
                    .collect();
                for h in handles {
                    spans.time(trace, JOIN, || h.join());
                }
                done += WAVE;
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "progress {done}");
                let _ = out.flush();
            }
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    let setup = main_started.load(Ordering::Relaxed) as f64 * 1e-9;
    let total = *counter.lock();
    let mut r = Report::default();
    r.check(
        "counter_equals_tasks_spawned",
        total == TASKS,
        format!("counter {total} vs {TASKS} spawned"),
    );
    r.attempted = TASKS;
    r.failed = TASKS - total.min(TASKS);
    if trace {
        for (op, name) in NAMES.iter().enumerate() {
            let n = spans.n[op].load(Ordering::Relaxed);
            let ns = spans.ns[op].load(Ordering::Relaxed);
            r.metric(&format!("uthread.{name}.n"), n as f64, "count", 1);
            r.metric(&format!("uthread.{name}.s"), ns as f64 * 1e-9, "s", 1);
        }
        let fresh = fresh_stack_count() - fresh0;
        r.metric("uthread.fresh_stacks", fresh as f64, "count", 1);
        r.metric("uthread.tasks_done", total as f64, "count", 1);
    } else {
        r.metric("setup_s", setup, "s", 1);
        r.metric("run_s", wall - setup, "s", 1);
    }
    r.metric("peak_rss_mb", crate::peak_rss_mb(), "MB", 1);
    r.metric("workers", workers as f64, "count", 1);
    r
}
