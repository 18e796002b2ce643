//! Blocking-event handling (§6 "Blocking events").
//!
//! An *active* kernel thread can block passively in the kernel — the
//! canonical case is a page fault. Under the Single Binding Rule that
//! would leave its isolated core dead until the fault resolves. The §6
//! design monitors such blockages with `userfaultfd` from a non-isolated
//! core and reschedules a *different application's* kernel thread onto the
//! blocked core in the meantime, without ever violating the rule (the
//! faulted thread is not runnable, so it does not count as active).
//!
//! [`FaultMonitor`] models that component; the state transitions live in
//! [`Kmod`].

use crate::ioctl::Kmod;
use crate::kthread::{KthreadState, Tid};
use crate::{KmodError, Result};

impl Kmod {
    /// The active thread `tid` page-faults: it leaves the runnable set
    /// (its core becomes free for another application's parked thread)
    /// but stays bound to the core.
    pub fn fault_block(&mut self, tid: Tid) -> Result<()> {
        let t = self.kthread(tid)?;
        if t.state != KthreadState::Active {
            return Err(KmodError::InvalidState);
        }
        let core = t.core.ok_or(KmodError::InvalidState)?;
        self.set_state(tid, Some(core), KthreadState::FaultBlocked);
        self.debug_check_rule();
        Ok(())
    }

    /// The monitor resolved `tid`'s fault (e.g. served the page via
    /// userfaultfd): the thread becomes inactive/parked, eligible for
    /// `skyloft_wakeup` when its core frees up.
    pub fn fault_resolve(&mut self, tid: Tid) -> Result<()> {
        let t = self.kthread(tid)?;
        if t.state != KthreadState::FaultBlocked {
            return Err(KmodError::InvalidState);
        }
        self.set_state(tid, t.core, KthreadState::Inactive);
        self.debug_check_rule();
        Ok(())
    }
}

/// A userfaultfd-style monitor: tracks outstanding faults and, on each
/// fault, names a substitute (parked) thread that may take the core.
#[derive(Debug, Default)]
pub struct FaultMonitor {
    outstanding: Vec<Tid>,
    faults_handled: u64,
    substitutions: u64,
}

impl FaultMonitor {
    /// Creates an idle monitor.
    pub fn new() -> Self {
        FaultMonitor::default()
    }

    /// Handles a fault on `tid`: blocks it in the kernel model and picks a
    /// parked thread bound to the same core to run instead, waking it.
    /// Returns the substitute, if any was available.
    pub fn on_fault(&mut self, kmod: &mut Kmod, tid: Tid) -> Result<Option<Tid>> {
        let core = kmod.kthread(tid)?.core.ok_or(KmodError::InvalidState)?;
        kmod.fault_block(tid)?;
        self.outstanding.push(tid);
        self.faults_handled += 1;
        let substitute = kmod.parked_thread_on(core);
        if let Some(sub) = substitute {
            kmod.wakeup(sub)?;
            self.substitutions += 1;
        }
        Ok(substitute)
    }

    /// The fault data arrived; resolve it. The thread does *not* preempt
    /// the substitute — it waits parked until the scheduler switches back.
    pub fn on_resolved(&mut self, kmod: &mut Kmod, tid: Tid) -> Result<()> {
        kmod.fault_resolve(tid)?;
        self.outstanding.retain(|&t| t != tid);
        Ok(())
    }

    /// Faults currently outstanding.
    pub fn outstanding(&self) -> &[Tid] {
        &self.outstanding
    }

    /// Whether `tid` has an unresolved fault.
    pub fn is_outstanding(&self, tid: Tid) -> bool {
        self.outstanding.contains(&tid)
    }

    /// Total faults this monitor has handled.
    pub fn faults_handled(&self) -> u64 {
        self.faults_handled
    }

    /// Faults where a substitute thread was woken onto the core.
    pub fn substitutions(&self) -> u64 {
        self.substitutions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Kmod, Tid, Tid) {
        let mut k = Kmod::new(4, &[0, 1]);
        let a = k.create_kthread(0);
        let b = k.create_kthread(1);
        k.bind_active(a, 0).unwrap();
        k.park_on_cpu(b, 0).unwrap();
        (k, a, b)
    }

    #[test]
    fn fault_frees_core_for_other_app() {
        let (mut k, a, b) = setup();
        let mut mon = FaultMonitor::new();
        let sub = mon.on_fault(&mut k, a).unwrap();
        assert_eq!(sub, Some(b), "the parked thread takes the core");
        assert_eq!(k.active_thread(0), Some(b));
        assert_eq!(k.kthread(a).unwrap().state, KthreadState::FaultBlocked);
        k.check_binding_rule().unwrap();
    }

    #[test]
    fn resolved_thread_waits_parked_until_switch() {
        let (mut k, a, b) = setup();
        let mut mon = FaultMonitor::new();
        mon.on_fault(&mut k, a).unwrap();
        mon.on_resolved(&mut k, a).unwrap();
        assert_eq!(k.kthread(a).unwrap().state, KthreadState::Inactive);
        assert_eq!(k.active_thread(0), Some(b), "substitute keeps running");
        assert!(mon.outstanding().is_empty());
        // The scheduler later switches back through the normal path.
        k.switch_to(b, a).unwrap();
        assert_eq!(k.active_thread(0), Some(a));
        k.check_binding_rule().unwrap();
    }

    #[test]
    fn fault_with_no_substitute_idles_core() {
        let mut k = Kmod::new(4, &[0]);
        let a = k.create_kthread(0);
        k.bind_active(a, 0).unwrap();
        let mut mon = FaultMonitor::new();
        let sub = mon.on_fault(&mut k, a).unwrap();
        assert_eq!(sub, None);
        assert_eq!(k.active_thread(0), None);
        // Resolution makes the thread wakeable again.
        mon.on_resolved(&mut k, a).unwrap();
        k.wakeup(a).unwrap();
        assert_eq!(k.active_thread(0), Some(a));
    }

    #[test]
    fn invalid_transitions_rejected() {
        let (mut k, a, b) = setup();
        assert_eq!(k.fault_block(b), Err(KmodError::InvalidState)); // parked
        assert_eq!(k.fault_resolve(a), Err(KmodError::InvalidState)); // active
        k.fault_block(a).unwrap();
        assert_eq!(k.fault_block(a), Err(KmodError::InvalidState)); // double
                                                                    // A fault-blocked thread cannot be woken before resolution.
        assert_eq!(k.wakeup(a), Err(KmodError::InvalidState));
    }

    #[test]
    fn only_resolution_leaves_fault_blocked() {
        // Re-binding or parking a fault-blocked thread would clear its
        // fault behind the monitor's back.
        let (mut k, a, _) = setup();
        let mut mon = FaultMonitor::new();
        mon.on_fault(&mut k, a).unwrap();
        assert_eq!(k.bind_active(a, 1), Err(KmodError::InvalidState));
        assert_eq!(k.park_on_cpu(a, 0), Err(KmodError::InvalidState));
        assert_eq!(k.park_on_cpu(a, 1), Err(KmodError::InvalidState));
        assert_eq!(k.kthread(a).unwrap().state, KthreadState::FaultBlocked);
        assert_eq!(k.fault_blocked_on(0), Some(a));
        assert!(mon.is_outstanding(a));
        mon.on_resolved(&mut k, a).unwrap();
        assert_eq!(k.fault_blocked_on(0), None);
        k.park_on_cpu(a, 1).unwrap();
        k.check_binding_rule().unwrap();
    }
}
