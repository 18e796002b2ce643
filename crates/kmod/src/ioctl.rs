//! The kernel-module operations (Table 3), modelled as methods on [`Kmod`].
//!
//! The real module is a misc device at `/dev/skyloft` reached via
//! `ioctl()`; its value is that thread state transitions happen *atomically*
//! in the kernel, so the Single Binding Rule can never be observed broken.
//! The model keeps that atomicity trivially (single-threaded simulation) and
//! verifies the rule after every mutating operation in debug builds.

use std::cell::RefCell;

use skyloft_hw::{Apic, CoreId};
use skyloft_sim::Nanos;

use crate::kthread::{AppId, Kthread, KthreadState, Tid};
use crate::{KmodError, Result};

/// Operation counters (used by §5.4 microbenchmarks).
#[derive(Clone, Debug, Default)]
pub struct KmodStats {
    /// `skyloft_switch_to` invocations (inter-application switches).
    pub switches: u64,
    /// `skyloft_wakeup` invocations.
    pub wakeups: u64,
    /// `skyloft_park_on_cpu` invocations.
    pub parks: u64,
}

/// The Skyloft kernel module state: the kernel-thread table and the set of
/// isolated cores.
#[derive(Clone, Debug)]
pub struct Kmod {
    threads: Vec<Kthread>,
    isolated: Vec<bool>,
    /// Cached active thread per core (`None` for cores with no active
    /// Skyloft thread).
    active_on: Vec<Option<Tid>>,
    /// Per-core count of `FaultBlocked` threads bound to the core, so
    /// [`Kmod::fault_blocked_on`] answers "none" without a table scan.
    fault_blocked: Vec<u32>,
    /// Per-core `(active, fault-blocked)` tallies of
    /// [`Kmod::check_binding_rule`], kept between calls so the check
    /// allocates nothing.
    tallies: RefCell<Vec<(u32, u32)>>,
    /// Operation counters.
    pub stats: KmodStats,
}

/// Cost of the kernel half of an inter-application switch. The measured
/// end-to-end inter-app switch is 1905 ns (§5.4); of that, the user-space
/// save/restore is the uthread switch cost, and the rest — suspending one
/// kernel thread, waking another, and runqueue manipulation — happens here.
pub const SWITCH_TO_KERNEL_NS: Nanos = Nanos(1_905 - 37);

/// Cost of `skyloft_wakeup` on an inactive kernel thread (a kernel wakeup
/// path; §5.4 measures Linux's wake-another-thread switch at 2471 ns, of
/// which the wakeup syscall half is roughly this much).
pub const WAKEUP_KERNEL_NS: Nanos = Nanos(1_100);

impl Kmod {
    /// Creates the module state for a machine of `n_cores`, with
    /// `isolated` marking the cores reserved for Skyloft via `isolcpus`.
    pub fn new(n_cores: usize, isolated_cores: &[CoreId]) -> Self {
        let mut isolated = vec![false; n_cores];
        for &c in isolated_cores {
            assert!(c < n_cores, "isolated core {c} out of range");
            isolated[c] = true;
        }
        Kmod {
            threads: Vec::new(),
            isolated,
            active_on: vec![None; n_cores],
            fault_blocked: vec![0; n_cores],
            tallies: RefCell::new(vec![(0, 0); n_cores]),
            stats: KmodStats::default(),
        }
    }

    /// Whether `core` is isolated for Skyloft.
    pub fn is_isolated(&self, core: CoreId) -> bool {
        self.isolated.get(core).copied().unwrap_or(false)
    }

    /// All isolated cores, ascending.
    pub fn isolated_cores(&self) -> Vec<CoreId> {
        (0..self.isolated.len())
            .filter(|&c| self.isolated[c])
            .collect()
    }

    /// Creates a kernel thread for `app` (pthread_create in the daemon or
    /// application startup path, §4.1). The thread starts unbound and
    /// inactive; callers either `bind_active` it (the first application) or
    /// `park_on_cpu` it (subsequent applications).
    pub fn create_kthread(&mut self, app: AppId) -> Tid {
        self.threads.push(Kthread {
            app,
            core: None,
            state: KthreadState::Inactive,
        });
        self.threads.len() - 1
    }

    /// Looks up a thread.
    pub fn kthread(&self, tid: Tid) -> Result<&Kthread> {
        self.threads.get(tid).ok_or(KmodError::NoSuchThread)
    }

    /// The active kernel thread currently occupying `core`, if any.
    pub fn active_thread(&self, core: CoreId) -> Option<Tid> {
        self.active_on.get(core).copied().flatten()
    }

    /// Binds `tid` to `core` and makes it active — the daemon's launch path
    /// (`sched_setaffinity` + run). Fails if the core already has an active
    /// Skyloft thread.
    pub fn bind_active(&mut self, tid: Tid, core: CoreId) -> Result<()> {
        self.check_core(core)?;
        if let Some(other) = self.active_on[core] {
            if other != tid {
                return Err(KmodError::BindingRuleViolation { core });
            }
        }
        self.check_rebindable(tid)?;
        // Re-binding an active thread vacates its previous core.
        self.set_state(tid, Some(core), KthreadState::Active);
        self.debug_check_rule();
        Ok(())
    }

    /// `skyloft_park_on_cpu(cpu_id)`: binds the calling kernel thread to
    /// `core` and immediately suspends it (Table 3). Used when launching
    /// every application after the first, so new threads never compete with
    /// the incumbent (§3.3).
    pub fn park_on_cpu(&mut self, tid: Tid, core: CoreId) -> Result<()> {
        self.check_core(core)?;
        self.check_rebindable(tid)?;
        // If the thread was the active occupant somewhere, vacate that core.
        self.set_state(tid, Some(core), KthreadState::Inactive);
        self.stats.parks += 1;
        self.debug_check_rule();
        Ok(())
    }

    /// `skyloft_switch_to(target_tid)`: atomically suspends the calling
    /// (currently active) thread and wakes the target thread bound to the
    /// same core (Table 3). Returns the kernel-side cost to charge.
    ///
    /// Both transitions happen in one kernel entry precisely so the Single
    /// Binding Rule holds at every observable instant (§3.3).
    pub fn switch_to(&mut self, cur: Tid, target: Tid) -> Result<Nanos> {
        let core = {
            let c = self.threads.get(cur).ok_or(KmodError::NoSuchThread)?;
            if c.state != KthreadState::Active {
                return Err(KmodError::InvalidState);
            }
            c.core.ok_or(KmodError::InvalidState)?
        };
        {
            let t = self.threads.get(target).ok_or(KmodError::NoSuchThread)?;
            if t.state != KthreadState::Inactive || t.core != Some(core) {
                return Err(KmodError::InvalidState);
            }
        }
        self.set_state(cur, Some(core), KthreadState::Inactive);
        self.set_state(target, Some(core), KthreadState::Active);
        self.stats.switches += 1;
        self.debug_check_rule();
        Ok(SWITCH_TO_KERNEL_NS)
    }

    /// `skyloft_wakeup(tid)`: wakes an inactive kernel thread (Table 3).
    /// Fails with a binding-rule violation if its core already has an
    /// active occupant.
    pub fn wakeup(&mut self, tid: Tid) -> Result<Nanos> {
        let t = self.threads.get(tid).ok_or(KmodError::NoSuchThread)?;
        if t.state != KthreadState::Inactive {
            return Err(KmodError::InvalidState);
        }
        let core = t.core.ok_or(KmodError::InvalidState)?;
        if self.active_on[core].is_some() {
            return Err(KmodError::BindingRuleViolation { core });
        }
        self.set_state(tid, Some(core), KthreadState::Active);
        self.stats.wakeups += 1;
        self.debug_check_rule();
        Ok(WAKEUP_KERNEL_NS)
    }

    /// Terminates all kernel threads of an application (§3.3, application
    /// termination). Active threads are conceptually rebound to
    /// non-isolated cores before exiting; inactive ones receive a
    /// termination signal. Either way they leave the isolated cores.
    pub fn terminate_app(&mut self, app: AppId) -> Result<()> {
        for tid in 0..self.threads.len() {
            if self.threads[tid].app != app || self.threads[tid].state == KthreadState::Exited {
                continue;
            }
            self.set_state(tid, None, KthreadState::Exited);
        }
        self.debug_check_rule();
        Ok(())
    }

    /// `skyloft_timer_enable()` (Table 3): enables user-space timer
    /// interrupts on `core` by starting its LAPIC timer. The UINV/UPID.SN
    /// configuration half happens in the UINTR fabric.
    pub fn timer_enable(&mut self, apic: &mut Apic, core: CoreId) -> Result<()> {
        self.check_core(core)?;
        apic.set_enabled(core, true);
        Ok(())
    }

    /// `skyloft_timer_set_hz(hz)` (Table 3): programs the LAPIC timer
    /// frequency of `core`.
    pub fn timer_set_hz(&mut self, apic: &mut Apic, core: CoreId, hz: u64) -> Result<()> {
        self.check_core(core)?;
        apic.set_hz(core, hz);
        Ok(())
    }

    /// Verifies the Single Binding Rule over the whole table, and that the
    /// per-core caches (active thread, fault-blocked count) agree with it.
    /// Tests call this directly; mutating operations run it in debug
    /// builds. One pass over the table, then one over the cores.
    pub fn check_binding_rule(&self) -> Result<()> {
        let mut counts = self.tallies.borrow_mut();
        counts.fill((0, 0));
        for t in &self.threads {
            match (t.core, t.state) {
                (Some(c), KthreadState::Active) => counts[c].0 += 1,
                (Some(c), KthreadState::FaultBlocked) => counts[c].1 += 1,
                _ => {}
            }
        }
        for (core, &(actives, blocked)) in counts.iter().enumerate() {
            if blocked != self.fault_blocked[core] {
                return Err(KmodError::InvalidState);
            }
            if !self.isolated[core] {
                continue;
            }
            if actives > 1 {
                return Err(KmodError::BindingRuleViolation { core });
            }
            // The cache must agree with the table.
            match self.active_on[core] {
                Some(tid) => {
                    if !self.threads[tid].is_active_on(core) {
                        return Err(KmodError::InvalidState);
                    }
                }
                None => {
                    if actives != 0 {
                        return Err(KmodError::InvalidState);
                    }
                }
            }
        }
        Ok(())
    }

    fn check_core(&self, core: CoreId) -> Result<()> {
        if core >= self.isolated.len() || !self.isolated[core] {
            return Err(KmodError::BadCore);
        }
        Ok(())
    }

    pub(crate) fn debug_check_rule(&self) {
        debug_assert_eq!(self.check_binding_rule(), Ok(()));
    }

    /// Rejects re-binding `tid` (`bind_active`, `park_on_cpu`) unless it
    /// is active or parked: an exited thread is gone, and only
    /// `fault_resolve` may take a thread out of `FaultBlocked`.
    fn check_rebindable(&self, tid: Tid) -> Result<()> {
        match self.kthread(tid)?.state {
            KthreadState::Active | KthreadState::Inactive => Ok(()),
            KthreadState::FaultBlocked | KthreadState::Exited => Err(KmodError::InvalidState),
        }
    }

    /// The one place a thread's `core` and `state` change. Keeps both
    /// per-core caches in step: leaving `Active` vacates the core's active
    /// slot and entering it claims the slot; leaving or entering
    /// `FaultBlocked` moves the core's fault-blocked count. Callers check
    /// the operation's preconditions (the Single Binding Rule included)
    /// first.
    pub(crate) fn set_state(&mut self, tid: Tid, core: Option<CoreId>, state: KthreadState) {
        let old = &self.threads[tid];
        if let Some(c) = old.core {
            match old.state {
                KthreadState::Active => self.active_on[c] = None,
                KthreadState::FaultBlocked => self.fault_blocked[c] -= 1,
                _ => {}
            }
        }
        if let Some(c) = core {
            match state {
                KthreadState::Active => self.active_on[c] = Some(tid),
                KthreadState::FaultBlocked => self.fault_blocked[c] += 1,
                _ => {}
            }
        }
        let t = &mut self.threads[tid];
        t.core = core;
        t.state = state;
    }

    /// A parked (inactive) thread bound to `core`, if any. Only the fault
    /// path asks, so this stays a table scan.
    pub fn parked_thread_on(&self, core: CoreId) -> Option<Tid> {
        self.threads
            .iter()
            .position(|t| t.state == KthreadState::Inactive && t.core == Some(core))
    }

    /// The lowest-tid fault-blocked thread bound to `core`, if any (§6).
    /// The centralized dispatcher asks this for every idle worker on every
    /// poll, so a zero per-core count answers "none" without touching the
    /// thread table; only a core with a fault outstanding is scanned.
    #[inline]
    pub fn fault_blocked_on(&self, core: CoreId) -> Option<Tid> {
        match self.fault_blocked.get(core) {
            Some(&n) if n > 0 => self
                .threads
                .iter()
                .position(|t| t.state == KthreadState::FaultBlocked && t.core == Some(core)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Kmod {
        // 8-core machine, cores 2..=5 isolated.
        Kmod::new(8, &[2, 3, 4, 5])
    }

    #[test]
    fn daemon_binds_active() {
        let mut k = setup();
        let t = k.create_kthread(0);
        k.bind_active(t, 2).unwrap();
        assert_eq!(k.active_thread(2), Some(t));
        assert_eq!(k.kthread(t).unwrap().state, KthreadState::Active);
    }

    #[test]
    fn second_app_parks_then_switches() {
        let mut k = setup();
        let a0 = k.create_kthread(0);
        k.bind_active(a0, 2).unwrap();
        let a1 = k.create_kthread(1);
        k.park_on_cpu(a1, 2).unwrap();
        assert_eq!(k.active_thread(2), Some(a0));
        let cost = k.switch_to(a0, a1).unwrap();
        assert!(cost > Nanos(1_000));
        assert_eq!(k.active_thread(2), Some(a1));
        assert_eq!(k.kthread(a0).unwrap().state, KthreadState::Inactive);
        k.check_binding_rule().unwrap();
    }

    #[test]
    fn binding_rule_blocks_second_active() {
        let mut k = setup();
        let a0 = k.create_kthread(0);
        let a1 = k.create_kthread(1);
        k.bind_active(a0, 3).unwrap();
        assert_eq!(
            k.bind_active(a1, 3),
            Err(KmodError::BindingRuleViolation { core: 3 })
        );
        // Waking a parked thread on an occupied core also fails.
        k.park_on_cpu(a1, 3).unwrap();
        assert_eq!(
            k.wakeup(a1),
            Err(KmodError::BindingRuleViolation { core: 3 })
        );
    }

    #[test]
    fn wakeup_after_vacate_succeeds() {
        let mut k = setup();
        let a0 = k.create_kthread(0);
        let a1 = k.create_kthread(1);
        k.bind_active(a0, 4).unwrap();
        k.park_on_cpu(a1, 4).unwrap();
        // a0 parks itself (e.g. application blocked).
        k.park_on_cpu(a0, 4).unwrap();
        assert_eq!(k.active_thread(4), None);
        k.wakeup(a1).unwrap();
        assert_eq!(k.active_thread(4), Some(a1));
    }

    #[test]
    fn switch_to_requires_same_core() {
        let mut k = setup();
        let a0 = k.create_kthread(0);
        let a1 = k.create_kthread(1);
        k.bind_active(a0, 2).unwrap();
        k.park_on_cpu(a1, 3).unwrap();
        assert_eq!(k.switch_to(a0, a1), Err(KmodError::InvalidState));
    }

    #[test]
    fn switch_from_inactive_fails() {
        let mut k = setup();
        let a0 = k.create_kthread(0);
        let a1 = k.create_kthread(1);
        k.park_on_cpu(a0, 2).unwrap();
        k.park_on_cpu(a1, 2).unwrap();
        assert_eq!(k.switch_to(a0, a1), Err(KmodError::InvalidState));
    }

    #[test]
    fn non_isolated_core_rejected() {
        let mut k = setup();
        let t = k.create_kthread(0);
        assert_eq!(k.bind_active(t, 0), Err(KmodError::BadCore));
        assert_eq!(k.park_on_cpu(t, 7), Err(KmodError::BadCore));
        assert_eq!(k.bind_active(t, 100), Err(KmodError::BadCore));
    }

    #[test]
    fn terminate_app_frees_cores() {
        let mut k = setup();
        let a0 = k.create_kthread(0);
        let a0b = k.create_kthread(0);
        let b0 = k.create_kthread(1);
        k.bind_active(a0, 2).unwrap();
        k.park_on_cpu(a0b, 3).unwrap();
        k.park_on_cpu(b0, 2).unwrap();
        k.terminate_app(0).unwrap();
        assert_eq!(k.active_thread(2), None);
        assert_eq!(k.kthread(a0).unwrap().state, KthreadState::Exited);
        assert_eq!(k.kthread(a0b).unwrap().state, KthreadState::Exited);
        // The parked thread of app 1 can now take the core.
        k.wakeup(b0).unwrap();
        assert_eq!(k.active_thread(2), Some(b0));
    }

    #[test]
    fn exited_thread_cannot_be_reused() {
        let mut k = setup();
        let t = k.create_kthread(0);
        k.bind_active(t, 2).unwrap();
        k.terminate_app(0).unwrap();
        assert_eq!(k.bind_active(t, 2), Err(KmodError::InvalidState));
        assert_eq!(k.park_on_cpu(t, 2), Err(KmodError::InvalidState));
    }

    #[test]
    fn timer_ops_program_apic() {
        let mut k = setup();
        let mut apic = Apic::new(8);
        k.timer_set_hz(&mut apic, 2, 100_000).unwrap();
        k.timer_enable(&mut apic, 2).unwrap();
        assert!(apic.timer_active(2));
        assert_eq!(apic.timer(2).period(), Nanos::from_us(10));
        assert_eq!(k.timer_enable(&mut apic, 0), Err(KmodError::BadCore));
    }

    #[test]
    fn isolated_cores_listed() {
        let k = setup();
        assert_eq!(k.isolated_cores(), vec![2, 3, 4, 5]);
        assert!(k.is_isolated(2));
        assert!(!k.is_isolated(0));
    }

    #[test]
    fn check_fails_when_fault_count_disagrees_with_table() {
        let mut k = setup();
        let t = k.create_kthread(0);
        k.bind_active(t, 2).unwrap();
        k.fault_block(t).unwrap();
        k.check_binding_rule().unwrap();
        k.fault_blocked[2] = 0;
        assert_eq!(k.check_binding_rule(), Err(KmodError::InvalidState));
        k.fault_blocked[2] = 1;
        k.fault_blocked[3] = 1;
        assert_eq!(k.check_binding_rule(), Err(KmodError::InvalidState));
    }
}
