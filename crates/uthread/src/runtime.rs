//! The M:N scheduler: OS worker threads running green threads over
//! work-stealing deques.
//!
//! Ownership discipline: a task is owned by exactly one place at a time —
//! a runqueue (local deque or injector), the worker currently running it
//! (`WorkerCtx::current`), or a wait list (mutex/condvar/join). The
//! [`crate::task::UTask`] state machine provides the transitions between
//! those owners; every `unsafe` block below leans on that discipline.

use std::cell::{Cell, RefCell};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::deque::{Injector, Stealer, Worker as Deque};

use crate::context::{seed_stack, skyloft_ctx_switch};
use crate::park::IdleWorkers;
use crate::stack::{Stack, StackPool};
use crate::task::{state, UTask};

/// Stacks cached per worker before spilling to the shared pool: spawn
/// and exit recycle stacks thread-locally in steady state, so the hot
/// path never touches the pool's lock.
const WORKER_STACK_CACHE: usize = 16;

/// The shared runtime state.
pub struct Runtime {
    injector: Injector<Arc<UTask>>,
    stealers: Vec<Stealer<Arc<UTask>>>,
    pool: StackPool,
    live: AtomicUsize,
    shutdown: AtomicBool,
    idle: IdleWorkers,
}

/// Per-OS-thread worker context; lives on the worker's stack for the whole
/// run and is reached through a thread-local pointer.
struct WorkerCtx {
    rt: Arc<Runtime>,
    /// This worker's index (its bit in the idle mask).
    index: usize,
    local: Deque<Arc<UTask>>,
    /// Saved scheduler stack pointer while a task runs.
    sched_sp: std::cell::UnsafeCell<*mut u8>,
    current: RefCell<Option<Arc<UTask>>>,
    /// Worker-private free stacks (overflow goes to `rt.pool`).
    stack_cache: RefCell<Vec<Stack>>,
}

impl WorkerCtx {
    /// Grabs an execution stack: worker cache first, shared pool second.
    fn take_stack(&self) -> Stack {
        self.stack_cache
            .borrow_mut()
            .pop()
            .unwrap_or_else(|| self.rt.pool.take())
    }

    /// Recycles an execution stack: worker cache first, shared pool on
    /// cache overflow.
    fn put_stack(&self, s: Stack) {
        let mut cache = self.stack_cache.borrow_mut();
        if cache.len() < WORKER_STACK_CACHE {
            cache.push(s);
        } else {
            drop(cache);
            self.rt.pool.put(s);
        }
    }
}

thread_local! {
    static WORKER: Cell<*const WorkerCtx> = const { Cell::new(std::ptr::null()) };
}

fn with_worker<R>(f: impl FnOnce(&WorkerCtx) -> R) -> R {
    WORKER.with(|w| {
        let p = w.get();
        assert!(
            !p.is_null(),
            "this operation must run inside Runtime::run (on a uthread)"
        );
        // SAFETY: the pointer targets the WorkerCtx on this OS thread's
        // stack, alive for the whole worker loop; it is cleared before the
        // loop returns.
        unsafe { f(&*p) }
    })
}

impl Runtime {
    /// Runs `main` as the first green thread on `n_workers` OS threads;
    /// returns when every green thread has finished.
    pub fn run(n_workers: usize, main: impl FnOnce() + Send + 'static) {
        assert!(n_workers > 0, "need at least one worker");
        WORKER.with(|w| assert!(w.get().is_null(), "nested Runtime::run"));
        let deques: Vec<Deque<Arc<UTask>>> = (0..n_workers).map(|_| Deque::new_fifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let rt = Arc::new(Runtime {
            injector: Injector::new(),
            stealers,
            pool: StackPool::new(),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: IdleWorkers::new(n_workers),
        });
        rt.live.fetch_add(1, Ordering::AcqRel);
        rt.injector.push(UTask::new(Box::new(main)));
        let handles: Vec<_> = deques
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || worker_loop(rt, index, local))
            })
            .collect();
        // Join every worker before surfacing any failure: bailing on the
        // first dead worker would abandon the rest mid-shutdown (detached
        // threads still touching the runtime while the caller unwinds).
        let mut failures = Vec::new();
        for (index, h) in handles.into_iter().enumerate() {
            if let Err(payload) = h.join() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                failures.push(format!("worker {index}: {msg}"));
            }
        }
        assert!(
            failures.is_empty(),
            "{} worker thread(s) panicked: {}",
            failures.len(),
            failures.join("; ")
        );
    }

    fn schedule(&self, ctx: Option<&WorkerCtx>, t: Arc<UTask>) {
        match ctx {
            Some(c) => c.local.push(t),
            None => self.injector.push(t),
        }
        // The push above is visible before the fence inside notify_one;
        // see park.rs for the lost-wakeup argument.
        self.idle.notify_one();
    }
}

fn worker_loop(rt: Arc<Runtime>, index: usize, local: Deque<Arc<UTask>>) {
    let ctx = WorkerCtx {
        rt: Arc::clone(&rt),
        index,
        local,
        sched_sp: std::cell::UnsafeCell::new(std::ptr::null_mut()),
        current: RefCell::new(None),
        stack_cache: RefCell::new(Vec::new()),
    };
    WORKER.with(|w| w.set(&ctx as *const WorkerCtx));
    loop {
        if let Some(t) = find_task(&ctx) {
            run_one(&ctx, t);
            continue;
        }
        if rt.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Announce idleness, then re-scan every queue before actually
        // parking: together with the notifier's push-then-notify order
        // this closes the sleep/notify race without any shared lock
        // (protocol and fences in park.rs).
        rt.idle.prepare(ctx.index);
        if rt.shutdown.load(Ordering::Acquire) {
            rt.idle.cancel(ctx.index);
            break;
        }
        match find_task(&ctx) {
            Some(t) => {
                rt.idle.cancel(ctx.index);
                run_one(&ctx, t);
            }
            None => rt.idle.park(ctx.index),
        }
    }
    // Hand cached stacks back so later runtimes can reuse the memory
    // through the shared pool's bounded free list.
    for s in ctx.stack_cache.borrow_mut().drain(..) {
        rt.pool.put(s);
    }
    WORKER.with(|w| w.set(std::ptr::null()));
}

fn find_task(ctx: &WorkerCtx) -> Option<Arc<UTask>> {
    if let Some(t) = ctx.local.pop() {
        return Some(t);
    }
    // Drain the injector, then steal from siblings.
    loop {
        let s = ctx.rt.injector.steal_batch_and_pop(&ctx.local);
        if let crossbeam::deque::Steal::Success(t) = s {
            return Some(t);
        }
        if !s.is_retry() {
            break;
        }
    }
    for st in &ctx.rt.stealers {
        loop {
            match st.steal() {
                crossbeam::deque::Steal::Success(t) => return Some(t),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
    }
    None
}

/// Runs one task until it switches back (yield, block, or exit).
fn run_one(ctx: &WorkerCtx, task: Arc<UTask>) {
    task.state.store(state::RUNNING, Ordering::Release);
    // SAFETY: the task is exclusively owned here (it came off a runqueue),
    // so touching its stack/saved_sp cells is unaliased.
    unsafe {
        if (*task.stack.get()).is_none() {
            let stack = ctx.take_stack();
            let sp = seed_stack(stack.top(), Arc::as_ptr(&task) as *mut u8);
            *task.saved_sp.get() = sp;
            *task.stack.get() = Some(stack);
        }
    }
    let sp = unsafe { *task.saved_sp.get() };
    ctx.current.replace(Some(task));
    // SAFETY: `sp` is either a freshly seeded frame or the frame saved by
    // this task's last switch-out; `sched_sp` is this worker's own slot.
    unsafe { skyloft_ctx_switch(ctx.sched_sp.get(), sp) };
    // The task switched back: decide where it goes next.
    let task = ctx.current.replace(None).expect("current task vanished");
    match task.state() {
        state::RUNNABLE => ctx.rt.schedule(Some(ctx), task),
        state::BLOCKING => {
            if !task.try_park() {
                // A wake raced in; the task is runnable again.
                ctx.rt.schedule(Some(ctx), task);
            }
        }
        state::DONE => {
            // SAFETY: the task is finished and switched out; nothing will
            // touch its stack again.
            let stack = unsafe { (*task.stack.get()).take() };
            if let Some(s) = stack {
                ctx.put_stack(s);
            }
            if ctx.rt.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                ctx.rt.shutdown.store(true, Ordering::Release);
                ctx.rt.idle.notify_all();
            }
        }
        other => unreachable!("task switched out in state {other}"),
    }
}

/// Rust-side first frame of every green thread; reached from the assembly
/// trampoline with the task pointer planted at seed time.
///
/// # Safety
///
/// Called only by the trampoline with the pointer passed to `seed_stack`,
/// which is the `Arc<UTask>` kept alive by the running worker's `current`
/// slot.
#[unsafe(no_mangle)]
unsafe extern "C" fn skyloft_thread_entry(task_ptr: *mut u8) {
    // SAFETY: see function docs.
    let task: &UTask = unsafe { &*(task_ptr as *const UTask) };
    // SAFETY: the entry closure is taken exactly once, here.
    let entry = unsafe { (*task.entry.get()).take().expect("entry already taken") };
    // Do not unwind across the assembly frame below.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(entry));
    task.state.store(state::DONE, Ordering::Release);
    let joiners = std::mem::take(&mut *task.joiners.lock());
    with_worker(|ctx| {
        for j in joiners {
            if j.try_wake() {
                ctx.rt.schedule(Some(ctx), j);
            }
        }
    });
    switch_to_sched();
    unreachable!("finished task resumed");
}

/// Switches from the current task back to the worker's scheduler context.
pub(crate) fn switch_to_sched() {
    let (save, restore) = with_worker(|ctx| {
        let cur = ctx.current.borrow();
        let task = cur.as_ref().expect("switch_to_sched outside a task");
        // SAFETY: reading this worker's own sched_sp slot; the task's
        // saved_sp cell is owned by the running task (us).
        (task.saved_sp.get(), unsafe { *ctx.sched_sp.get() })
    });
    // SAFETY: `restore` is the scheduler frame this worker saved when it
    // switched into us; `save` is our own slot.
    unsafe { skyloft_ctx_switch(save, restore) };
    // NOTE: we may resume on a *different* worker; take no references
    // across this point.
}

/// The currently running green thread.
pub(crate) fn current_task() -> Arc<UTask> {
    with_worker(|ctx| {
        ctx.current
            .borrow()
            .as_ref()
            .expect("not inside a uthread")
            .clone()
    })
}

/// Wakes a task (no-op if it is not blocked), scheduling it locally.
pub(crate) fn wake_task(t: Arc<UTask>) {
    if t.try_wake() {
        with_worker(|ctx| ctx.rt.schedule(Some(ctx), t));
    }
}

/// Handle to a spawned green thread.
pub struct JoinHandle {
    task: Arc<UTask>,
}

impl JoinHandle {
    /// Blocks the calling green thread until the target finishes.
    pub fn join(self) {
        if self.task.is_done() {
            return;
        }
        let me = current_task();
        {
            let mut joiners = self.task.joiners.lock();
            if self.task.is_done() {
                return;
            }
            me.state.store(state::BLOCKING, Ordering::Release);
            joiners.push(Arc::clone(&me));
        }
        // Registered: the target's exit will wake us exactly once, even if
        // it finishes before we get here. Switch out unconditionally so
        // that wake is consumed now; returning without switching would
        // leave it pending, to resume this task later while it is blocked
        // somewhere else.
        switch_to_sched();
        while !self.task.is_done() {
            yield_now();
        }
    }

    /// Whether the target has finished.
    pub fn is_finished(&self) -> bool {
        self.task.is_done()
    }
}

/// Spawns a green thread onto the current runtime (Table 7's `Spawn`
/// operation: a pooled stack and a deque push, no kernel involvement).
///
/// # Panics
///
/// Panics when called outside [`Runtime::run`].
pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
    let task = UTask::new(Box::new(f));
    with_worker(|ctx| {
        ctx.rt.live.fetch_add(1, Ordering::AcqRel);
        ctx.rt.schedule(Some(ctx), Arc::clone(&task));
    });
    JoinHandle { task }
}

/// Cooperatively yields the processor (Table 7's `Yield`).
pub fn yield_now() {
    let me = current_task();
    me.state.store(state::RUNNABLE, Ordering::Release);
    switch_to_sched();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn main_runs_to_completion() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        Runtime::run(1, move || f2.store(true, Ordering::Release));
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn spawn_and_join_many() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        Runtime::run(4, move || {
            let handles: Vec<_> = (0..100)
                .map(|i| {
                    let s = s.clone();
                    spawn(move || {
                        s.fetch_add(i, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn yield_interleaves_two_tasks() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l = log.clone();
        // One worker: interleaving can only come from yields.
        Runtime::run(1, move || {
            let l1 = l.clone();
            let a = spawn(move || {
                for i in 0..5 {
                    l1.lock().push(('a', i));
                    yield_now();
                }
            });
            let l2 = l.clone();
            let b = spawn(move || {
                for i in 0..5 {
                    l2.lock().push(('b', i));
                    yield_now();
                }
            });
            a.join();
            b.join();
        });
        let log = log.lock();
        assert_eq!(log.len(), 10);
        // Both tasks made progress before either finished.
        let first_b = log.iter().position(|&(c, _)| c == 'b').unwrap();
        let last_a = log.iter().rposition(|&(c, _)| c == 'a').unwrap();
        assert!(first_b < last_a, "tasks did not interleave: {log:?}");
    }

    #[test]
    fn nested_spawns() {
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        Runtime::run(2, move || {
            let c2 = c.clone();
            spawn(move || {
                let c3 = c2.clone();
                spawn(move || {
                    c3.fetch_add(1, Ordering::Relaxed);
                })
                .join();
                c2.fetch_add(1, Ordering::Relaxed);
            })
            .join();
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_task_does_not_kill_runtime() {
        let ok = Arc::new(AtomicBool::new(false));
        let o = ok.clone();
        Runtime::run(2, move || {
            let h = spawn(|| panic!("intentional test panic"));
            h.join();
            o.store(true, Ordering::Release);
        });
        assert!(ok.load(Ordering::Acquire));
    }

    #[test]
    fn stacks_are_recycled_across_tasks() {
        Runtime::run(1, || {
            for _ in 0..50 {
                spawn(|| {}).join();
            }
        });
    }

    /// Satellite regression test for the idle-path wakeup protocol (the
    /// race formerly closed by re-checking under the global idle lock):
    /// park a worker, wake it with exactly one schedule/notify, and
    /// require the wakeup to land in a small fraction of the park
    /// backstop — a lost notification would only surface at the
    /// backstop timeout and fail the latency bound.
    #[test]
    fn parked_worker_wakes_on_single_notify() {
        use std::time::{Duration, Instant};
        let latency_us = Arc::new(AtomicU64::new(u64::MAX));
        let l2 = latency_us.clone();
        Runtime::run(2, move || {
            // Give the second worker time to scan, find nothing, and
            // park via the eventcount.
            std::thread::sleep(Duration::from_millis(20));
            let t0 = Instant::now();
            let l3 = l2.clone();
            let h = spawn(move || {
                l3.store(t0.elapsed().as_micros() as u64, Ordering::Release);
            });
            // Busy-hold this worker (no yield): the task can only run if
            // the single notify actually woke the parked sibling, which
            // then steals it from our local deque.
            while !h.is_finished() {
                std::hint::spin_loop();
            }
            h.join();
        });
        let us = latency_us.load(Ordering::Acquire);
        assert!(
            us < 25_000,
            "wake latency {us}us — the single notify was lost and the park backstop fired"
        );
    }
}
