//! Table 7: threading-operation costs, measured for real on this host.
//!
//! Skyloft's user-level threading (the `skyloft-uthread` runtime with its
//! assembly context switch and pooled stacks) against `std::thread`
//! (pthread). Go is unavailable offline; the paper's Go column is printed
//! for reference. Absolute numbers depend on this host's CPU — the shape
//! to check is uthread yield/spawn/condvar being orders of magnitude below
//! pthread, with mutex near parity (both are one uncontended CAS).
//!
//! Run this alone: the pthread ping-pongs bounce between OS threads, so a
//! busy single-CPU host starves them (iteration counts are sized for that).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::Instant;

use skyloft_bench::Cli;
use skyloft_metrics::Table;
use skyloft_uthread::{spawn, yield_now, Condvar, Mutex, Runtime};

fn ns_per(total: std::time::Duration, iters: u64) -> f64 {
    total.as_nanos() as f64 / iters as f64
}

fn uthread_yield_ns(iters: u64) -> f64 {
    let out = Arc::new(StdMutex::new(0.0));
    let o = out.clone();
    Runtime::run(1, move || {
        let t0 = Instant::now();
        for _ in 0..iters {
            yield_now();
        }
        *o.lock().unwrap() = ns_per(t0.elapsed(), iters);
    });
    let v = *out.lock().unwrap();
    v
}

fn uthread_spawn_ns(iters: u64) -> f64 {
    let out = Arc::new(StdMutex::new(0.0));
    let o = out.clone();
    Runtime::run(1, move || {
        // Warm the stack pool so the steady-state (recycled-stack) spawn
        // cost is measured, as in the paper's pooled runtime.
        let warm: Vec<_> = (0..64).map(|_| spawn(|| {})).collect();
        for h in warm {
            h.join();
        }
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            handles.push(spawn(|| {}));
        }
        let spawn_time = t0.elapsed();
        for h in handles {
            h.join();
        }
        *o.lock().unwrap() = ns_per(spawn_time, iters);
    });
    let v = *out.lock().unwrap();
    v
}

fn uthread_mutex_ns(iters: u64) -> f64 {
    let out = Arc::new(StdMutex::new(0.0));
    let o = out.clone();
    Runtime::run(1, move || {
        let m = Mutex::new(0u64);
        let t0 = Instant::now();
        for _ in 0..iters {
            *m.lock() += 1;
        }
        *o.lock().unwrap() = ns_per(t0.elapsed(), iters);
    });
    let v = *out.lock().unwrap();
    v
}

fn uthread_condvar_ns(iters: u64) -> f64 {
    let out = Arc::new(StdMutex::new(0.0));
    let o = out.clone();
    Runtime::run(1, move || {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let pong = spawn(move || {
            for _ in 0..iters {
                let mut g = m2.lock();
                while !*g {
                    g = cv2.wait(g);
                }
                *g = false;
                drop(g);
                cv2.notify_one();
            }
        });
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut g = m.lock();
            *g = true;
            drop(g);
            cv.notify_one();
            let mut g = m.lock();
            while *g {
                g = cv.wait(g);
            }
            drop(g);
        }
        let d = t0.elapsed();
        pong.join();
        // Two signal+wake handoffs per round.
        *o.lock().unwrap() = ns_per(d, iters * 2);
    });
    let v = *out.lock().unwrap();
    v
}

fn pthread_yield_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::thread::yield_now();
    }
    ns_per(t0.elapsed(), iters)
}

fn pthread_spawn_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..iters).map(|_| std::thread::spawn(|| {})).collect();
    let spawn_time = t0.elapsed();
    for h in handles {
        h.join().unwrap();
    }
    ns_per(spawn_time, iters)
}

fn pthread_mutex_ns(iters: u64) -> f64 {
    let m = StdMutex::new(0u64);
    let t0 = Instant::now();
    for _ in 0..iters {
        *m.lock().unwrap() += 1;
    }
    ns_per(t0.elapsed(), iters)
}

fn pthread_condvar_ns(iters: u64) -> f64 {
    // NOTE: waits are timed. On this machine's kernel, untimed
    // `Condvar::wait` ping-pongs occasionally lose a wakeup and deadlock
    // (both threads parked in `futex_wait` with the token set — observed
    // repeatedly on 6.18.x; the protocol is the textbook two-phase
    // predicate loop). A 2 ms timeout converts that into a bounded retry
    // and fires only when a wakeup was lost, so it does not skew the
    // common-case measurement.
    const PATIENCE: std::time::Duration = std::time::Duration::from_millis(2);
    let pair = Arc::new((StdMutex::new(false), StdCondvar::new()));
    let p2 = pair.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let pong = std::thread::spawn(move || {
        let (m, cv) = &*p2;
        loop {
            let mut g = m.lock().unwrap();
            while !*g {
                let (guard, _timed_out) = cv.wait_timeout(g, PATIENCE).unwrap();
                g = guard;
                if s2.load(Ordering::Acquire) {
                    return;
                }
            }
            *g = false;
            drop(g);
            cv.notify_one();
        }
    });
    let (m, cv) = &*pair;
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut g = m.lock().unwrap();
        *g = true;
        drop(g);
        cv.notify_one();
        let mut g = m.lock().unwrap();
        while *g {
            let (guard, _timed_out) = cv.wait_timeout(g, PATIENCE).unwrap();
            g = guard;
        }
        drop(g);
    }
    let d = t0.elapsed();
    stop.store(true, Ordering::Release);
    cv.notify_all();
    pong.join().unwrap();
    ns_per(d, iters * 2)
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut t = Table::new(&[
        "operation",
        "pthread (ns)",
        "Skyloft uthread (ns)",
        "paper pthread/Go/Skyloft",
    ]);
    eprintln!("[tab7] pthread yield");
    let y_p = pthread_yield_ns(30_000);
    eprintln!("[tab7] uthread yield");
    let y_u = uthread_yield_ns(200_000);
    t.row_owned(vec![
        "Yield".into(),
        format!("{y_p:.0}"),
        format!("{y_u:.0}"),
        "898 / 108 / 37".into(),
    ]);
    eprintln!("[tab7] pthread spawn");
    let s_p = pthread_spawn_ns(1_000);
    eprintln!("[tab7] uthread spawn");
    let s_u = uthread_spawn_ns(50_000);
    t.row_owned(vec![
        "Spawn".into(),
        format!("{s_p:.0}"),
        format!("{s_u:.0}"),
        "15418 / 503 / 191".into(),
    ]);
    eprintln!("[tab7] pthread mutex");
    let m_p = pthread_mutex_ns(1_000_000);
    eprintln!("[tab7] uthread mutex");
    let m_u = uthread_mutex_ns(1_000_000);
    t.row_owned(vec![
        "Mutex".into(),
        format!("{m_p:.0}"),
        format!("{m_u:.0}"),
        "28 / 25 / 27".into(),
    ]);
    eprintln!("[tab7] pthread condvar");
    let c_p = pthread_condvar_ns(5_000);
    eprintln!("[tab7] uthread condvar");
    let c_u = uthread_condvar_ns(50_000);
    t.row_owned(vec![
        "Condvar".into(),
        format!("{c_p:.0}"),
        format!("{c_u:.0}"),
        "2532 / 262 / 86".into(),
    ]);
    cli.emit(
        "tab7_threadops",
        "Table 7: threading operations (host-measured)",
        &t,
    );

    assert!(s_u < s_p / 5.0, "uthread spawn must be far below pthread");
    assert!(c_u < c_p / 2.0, "uthread condvar must beat pthread");
    println!("Shape checks passed: uthread spawn/condvar ≪ pthread; mutex comparable.");
}
