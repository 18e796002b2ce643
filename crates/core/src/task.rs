//! User-thread (task) model: the fundamental scheduling unit (§3.1).
//!
//! A task mirrors the paper's user thread structure: fields *shared* with
//! every application's scheduler instance (state, owning application, the
//! policy-defined data slot) and *private* fields (the execution context —
//! here, the task's [`Behavior`] program and its remaining compute time).

use skyloft_sim::Nanos;

/// Owning application id (index into the machine's application table).
pub type AppId = usize;

/// Most slots a [`TaskTable`] grows to, so a slot index fits 24 bits with
/// the all-ones value to spare (the scheduling trace packs the index
/// beside an 8-bit application id and uses that value for "no task").
pub(crate) const MAX_TASK_SLOTS: usize = (1 << 24) - 1;

/// Generational task handle. Indexes a slot in the [`TaskTable`]; the
/// generation makes handles to recycled slots detectably stale.
///
/// The `Ord` implementation gives policies a stable, unique tie-break key
/// for ordered runqueues (e.g. CFS's vruntime tree).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    pub(crate) idx: u32,
    pub(crate) generation: u32,
}

impl std::fmt::Debug for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}v{}", self.idx, self.generation)
    }
}

/// Lifecycle state of a user thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// In a runqueue, waiting for a core.
    Runnable,
    /// Executing on a core.
    Running,
    /// Waiting for [`crate::machine::Machine`]-level wakeup.
    Blocked,
    /// Finished; the slot is about to be recycled.
    Exited,
}

/// What a task asks the scheduler to do next, returned by
/// [`Behavior::step`].
#[derive(Debug)]
pub enum Step {
    /// Execute for the given duration (preemptible at any nanosecond).
    Compute(Nanos),
    /// Voluntarily yield the core, staying runnable.
    Yield,
    /// Block until another task (or the framework) wakes this task.
    Block,
    /// Wake the given task, then continue stepping (consumes the wake-path
    /// cost but no simulated compute).
    Wake(TaskId),
    /// Terminate.
    Exit,
}

/// A task's program: a small coroutine the framework repeatedly steps.
///
/// Behaviors model application code. They run in the single-threaded
/// simulation, so they may share state via `Rc<RefCell<..>>`.
pub trait Behavior {
    /// Produces the task's next action. `now` is virtual time;
    /// `self_id` the task's own handle.
    fn step(&mut self, now: Nanos, self_id: TaskId) -> Step;

    /// Hands the behavior box back for reuse if it is a plain [`OneShot`].
    ///
    /// RPC workloads create and destroy a `OneShot` per request — the
    /// machine keeps a free list of these boxes so the request hot path
    /// does not allocate (see `Machine::pooled_oneshot`). Other behaviors
    /// return `None` and are dropped as before.
    fn recycle(self: Box<Self>) -> Option<Box<OneShot>> {
        None
    }
}

/// A one-shot request body: compute for the service time, then exit. This is
/// the behavior of every RPC-style request in the evaluation workloads.
pub struct OneShot {
    service: Option<Nanos>,
}

impl OneShot {
    /// Creates a request that computes `service` then exits.
    pub fn new(service: Nanos) -> Self {
        OneShot {
            service: Some(service),
        }
    }

    /// Re-arms a recycled request body with a fresh service time.
    pub fn reset(&mut self, service: Nanos) {
        self.service = Some(service);
    }
}

impl Behavior for OneShot {
    fn step(&mut self, _now: Nanos, _id: TaskId) -> Step {
        match self.service.take() {
            Some(s) => Step::Compute(s),
            None => Step::Exit,
        }
    }

    fn recycle(self: Box<Self>) -> Option<Box<OneShot>> {
        Some(self)
    }
}

/// Request accounting attached to RPC-style tasks.
#[derive(Clone, Copy, Debug)]
pub struct RequestMeta {
    /// Arrival time (load generator timestamp).
    pub arrival: Nanos,
    /// Total service demand, for slowdown computation.
    pub service: Nanos,
    /// Workload-defined class (e.g. 0 = GET, 1 = SCAN).
    pub class: u8,
}

/// Policy-defined per-task data (§3.4: "an extra field reserved for
/// policy-defined data"). A fixed slot rather than a boxed any: policies in
/// the paper store a handful of scalars (vruntime, deadline, lag, slice).
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyData {
    /// CFS virtual runtime / EEVDF virtual runtime (ns, weighted).
    pub vruntime: u64,
    /// EEVDF virtual deadline.
    pub deadline: u64,
    /// EEVDF lag (can be negative).
    pub lag: i64,
    /// Time executed in the current slice.
    pub slice_used: Nanos,
    /// Scheduling weight (nice-derived; 1024 = nice 0).
    pub weight: u32,
    /// Runqueue slot index, owned by the policy currently queueing the
    /// task: the task's position (or insertion sequence) inside that
    /// policy's queue structure, kept up to date by the structure itself.
    /// It buys O(1)/O(log n) removal of a *specific* task where a naive
    /// queue would pay a linear `retain`/`position` scan. Only meaningful
    /// while the task is queued; stale otherwise.
    pub rq_slot: u32,
    /// Free scratch words for custom policies.
    pub scratch: [u64; 2],
}

/// One user thread.
pub struct Task {
    /// This task's handle.
    pub id: TaskId,
    /// Owning application (shared field).
    pub app: AppId,
    /// Lifecycle state (shared field).
    pub state: TaskState,
    /// Policy-defined data (shared field).
    pub pd: PolicyData,
    /// The task's program (private field).
    pub behavior: Option<Box<dyn Behavior>>,
    /// Remaining nanoseconds of the current compute segment; nonzero when
    /// the task was preempted mid-segment.
    pub remaining: Nanos,
    /// Request accounting, if this task is an RPC-style request.
    pub req: Option<RequestMeta>,
    /// When the task last became runnable (wakeup-latency measurement).
    pub runnable_since: Nanos,
    /// Set when the task was woken and has not run since (so the machine
    /// records its wakeup latency exactly once per wake).
    pub measure_wakeup: bool,
    /// Whether this task's wakeup latencies go into the wakeup histogram
    /// (schbench measures workers, not the message thread).
    pub record_wakeup: bool,
    /// Core the task last ran on (cache-affinity hints for per-CPU
    /// policies).
    pub last_cpu: Option<usize>,
    /// Core the task was spawned pinned to, when any. Completion
    /// accounting (`Stats::finished_by_core`) is credited here rather
    /// than to the core that happened to run the task, so the NIC data
    /// plane's per-worker backpressure window stays consistent even under
    /// policies that migrate pinned tasks.
    pub home: Option<usize>,
    /// Number of times the task was preempted.
    pub preempt_count: u32,
    /// Total time the task has executed.
    pub total_ran: Nanos,
    /// Marked by the runqueue AQM: this queued task is condemned and must
    /// be terminated (not run) the next time a scheduling path dequeues
    /// it. Lazy shedding — the AQM cannot reach inside a policy's queue
    /// structure, so it flags the task and the machine collects it.
    pub shed: bool,
}

impl Task {
    /// Builds a minimal runnable task with no behavior — handy for policy
    /// unit tests that only exercise queue logic.
    pub fn bare(id: TaskId, app: AppId) -> Task {
        Task {
            id,
            app,
            state: TaskState::Runnable,
            pd: PolicyData {
                weight: 1024,
                ..PolicyData::default()
            },
            behavior: None,
            remaining: Nanos::ZERO,
            req: None,
            runnable_since: Nanos::ZERO,
            measure_wakeup: false,
            record_wakeup: true,
            last_cpu: None,
            home: None,
            preempt_count: 0,
            total_ran: Nanos::ZERO,
            shed: false,
        }
    }
}

/// Slab arena of tasks with generational handles.
#[derive(Default)]
pub struct TaskTable {
    slots: Vec<Option<Task>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TaskTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no tasks are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a task built from its future id.
    ///
    /// # Panics
    ///
    /// Panics if every slot is live and the table already holds 2^24 - 1
    /// slots (a slot index must fit the trace's 24-bit field).
    pub fn insert(&mut self, build: impl FnOnce(TaskId) -> Task) -> TaskId {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                assert!(
                    self.slots.len() < MAX_TASK_SLOTS,
                    "task table full: {MAX_TASK_SLOTS} live task slots"
                );
                self.slots.push(None);
                self.generations.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let id = TaskId {
            idx,
            generation: self.generations[idx as usize],
        };
        let task = build(id);
        debug_assert_eq!(task.id, id, "task must carry the id it was built with");
        self.slots[idx as usize] = Some(task);
        self.live += 1;
        id
    }

    /// Removes a task, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or the slot is empty.
    pub fn remove(&mut self, id: TaskId) -> Task {
        assert_eq!(
            self.generations[id.idx as usize], id.generation,
            "stale task handle {id:?}"
        );
        let t = self.slots[id.idx as usize]
            .take()
            .expect("removing an empty task slot");
        self.generations[id.idx as usize] = self.generations[id.idx as usize].wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        t
    }

    /// Whether `id` refers to a live task.
    pub fn contains(&self, id: TaskId) -> bool {
        (id.idx as usize) < self.slots.len()
            && self.generations[id.idx as usize] == id.generation
            && self.slots[id.idx as usize].is_some()
    }

    /// The application of task `id`, or `None` if the handle is stale: one
    /// generation check where [`TaskTable::contains`] and
    /// [`TaskTable::get`] make two.
    pub fn app_of(&self, id: TaskId) -> Option<AppId> {
        let i = id.idx as usize;
        if self.generations.get(i) != Some(&id.generation) {
            return None;
        }
        self.slots[i].as_ref().map(|t| t.app)
    }

    /// Immutable access.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn get(&self, id: TaskId) -> &Task {
        assert_eq!(
            self.generations[id.idx as usize], id.generation,
            "stale task handle {id:?}"
        );
        self.slots[id.idx as usize]
            .as_ref()
            .expect("accessing an empty task slot")
    }

    /// Mutable access.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn get_mut(&mut self, id: TaskId) -> &mut Task {
        assert_eq!(
            self.generations[id.idx as usize], id.generation,
            "stale task handle {id:?}"
        );
        self.slots[id.idx as usize]
            .as_mut()
            .expect("accessing an empty task slot")
    }

    /// Iterates over live tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(table: &mut TaskTable, app: AppId) -> TaskId {
        table.insert(|id| {
            let mut t = Task::bare(id, app);
            t.behavior = Some(Box::new(OneShot::new(Nanos(100))));
            t
        })
    }

    #[test]
    fn insert_get_remove() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, 0);
        let b = mk(&mut t, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).app, 0);
        assert_eq!(t.get(b).app, 1);
        t.remove(a);
        assert_eq!(t.len(), 1);
        assert!(!t.contains(a));
        assert!(t.contains(b));
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, 0);
        t.remove(a);
        let b = mk(&mut t, 7);
        assert_eq!(a.idx, b.idx, "slot should be recycled");
        assert_ne!(a.generation, b.generation);
        assert!(!t.contains(a));
        assert!(t.contains(b));
        assert_eq!(t.app_of(a), None, "a stale handle resolves no app");
        assert_eq!(t.app_of(b), Some(7));
        let beyond = TaskId {
            idx: 99,
            generation: 0,
        };
        assert_eq!(t.app_of(beyond), None);
    }

    #[test]
    #[should_panic(expected = "stale task handle")]
    fn stale_access_panics() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, 0);
        t.remove(a);
        mk(&mut t, 1);
        let _ = t.get(a);
    }

    #[test]
    fn oneshot_computes_then_exits() {
        let mut b = OneShot::new(Nanos(42));
        let id = TaskId {
            idx: 0,
            generation: 0,
        };
        match b.step(Nanos::ZERO, id) {
            Step::Compute(n) => assert_eq!(n, Nanos(42)),
            other => panic!("expected Compute, got {other:?}"),
        }
        assert!(matches!(b.step(Nanos::ZERO, id), Step::Exit));
    }

    #[test]
    fn iter_sees_live_only() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, 0);
        mk(&mut t, 1);
        t.remove(a);
        let apps: Vec<AppId> = t.iter().map(|x| x.app).collect();
        assert_eq!(apps, vec![1]);
    }
}
