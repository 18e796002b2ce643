//! Platform and scheduling-parameter configuration.
//!
//! A [`Platform`] describes *which mechanisms* a system uses (how
//! preemption signals reach cores, what switches and wakeups cost). The
//! Skyloft platforms use the paper's measured constants; comparator
//! platforms (built in `skyloft-baselines`) use the same structure with
//! their own mechanisms, so all systems run on one engine.
//!
//! [`SchedParams`] captures Table 5's per-policy tunables.

use skyloft_hw::costs::SwitchCost;
use skyloft_hw::Topology;
use skyloft_sim::Nanos;

/// How preemption notifications reach worker cores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreemptMechanism {
    /// Per-core LAPIC timer delegated to user space via UINTR (§3.2):
    /// Skyloft's per-CPU platforms, at up to 100 kHz.
    UserTimer {
        /// Timer frequency in Hz.
        hz: u64,
    },
    /// A dedicated dispatcher/timer core sends user IPIs (`SENDUIPI`):
    /// Skyloft's centralized platform and the §5.3 "utimer" emulation.
    UserIpi,
    /// Dispatcher sends VT-x posted interrupts (Shinjuku on Dune).
    PostedIpi,
    /// Kernel IPIs triggered through the kernel (ghOSt agents).
    KernelIpi,
    /// Linux signals (Shenango's preemption path for core reallocation;
    /// not usable for in-application μs-scale preemption).
    Signal,
    /// Kernel scheduler tick (native Linux policies), bounded at 1000 Hz.
    KernelTick {
        /// CONFIG_HZ.
        hz: u64,
    },
    /// No preemption (run-to-completion / purely cooperative).
    None,
}

/// Mechanism-independent platform description.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Display name (experiment output).
    pub name: &'static str,
    /// Machine topology.
    pub topo: Topology,
    /// Preemption mechanism.
    pub mech: PreemptMechanism,
    /// Context-switch cost between user threads of the same application.
    pub same_app_switch: Nanos,
    /// Context-switch cost when the next thread belongs to another
    /// application (Skyloft: kernel-module switch, §5.4).
    pub cross_app_switch: Nanos,
    /// CPU cost on the waker's core for a wakeup/enqueue.
    pub wake_cost: Nanos,
    /// Latency from a wakeup to the woken core reacting (kernel wake paths
    /// are slow; user-space pollers are fast).
    pub wake_latency: Nanos,
    /// Dispatcher decision cost per placement (centralized platforms:
    /// queue pop + worker slot write; ghOSt: message + transaction commit).
    pub dispatch_cost: Nanos,
    /// Latency from the dispatcher writing a placement to the worker
    /// noticing it (worker poll granularity).
    pub dispatch_latency: Nanos,
    /// Whether a dedicated core is consumed by the dispatcher (Shinjuku,
    /// Skyloft-centralized, ghOSt global agent) — it cannot run tasks.
    pub dedicated_dispatcher: bool,
}

impl Platform {
    /// Skyloft per-CPU platform: user-space timer interrupts at `hz`
    /// (Table 5 uses 100 kHz), user-space switches and wakeups.
    pub fn skyloft_percpu(topo: Topology, hz: u64) -> Platform {
        Platform {
            name: "Skyloft",
            topo,
            mech: PreemptMechanism::UserTimer { hz },
            same_app_switch: SwitchCost::UTHREAD_SWITCH,
            cross_app_switch: SwitchCost::INTER_APP_SWITCH,
            wake_cost: SwitchCost::UTHREAD_WAKE,
            // An idle Skyloft core spins on the runqueue; reaction is the
            // poll-loop granularity.
            wake_latency: Nanos(100),
            dispatch_cost: Nanos::ZERO,
            dispatch_latency: Nanos::ZERO,
            dedicated_dispatcher: false,
        }
    }

    /// Skyloft centralized platform: a dispatcher core preempts workers
    /// with user IPIs (§5.2).
    pub fn skyloft_centralized(topo: Topology) -> Platform {
        Platform {
            name: "Skyloft-Shinjuku",
            topo,
            mech: PreemptMechanism::UserIpi,
            same_app_switch: SwitchCost::UTHREAD_SWITCH,
            cross_app_switch: SwitchCost::INTER_APP_SWITCH,
            wake_cost: SwitchCost::UTHREAD_WAKE,
            wake_latency: Nanos(100),
            // Dispatcher pop + shared-memory slot write.
            dispatch_cost: Nanos(120),
            // Worker spin-polls its slot.
            dispatch_latency: Nanos(100),
            dedicated_dispatcher: true,
        }
    }
}

/// Per-policy tunables (Table 5).
#[derive(Clone, Copy, Debug)]
pub struct SchedParams {
    /// Round-robin time slice (`time_slice`).
    pub time_slice: Nanos,
    /// CFS/EEVDF minimum granularity / base slice (`min_granularity`,
    /// `base_slice`).
    pub min_granularity: Nanos,
    /// CFS scheduling-latency target (`sched_latency`).
    pub sched_latency: Nanos,
    /// CFS wakeup granularity (`sched_wakeup_granularity`): a woken task
    /// preempts the running one only if its vruntime is behind by more
    /// than this. Linux's default is ~4 ms on a 24-core box (1 ms ×
    /// log-scaling) and Table 5's tuning does not touch it — which is why
    /// even "tuned" Linux CFS cannot reach μs wakeup latency.
    pub wakeup_gran: Nanos,
}

impl SchedParams {
    /// Skyloft RR (Table 5): 100 kHz timer, 50 μs slice.
    pub const SKYLOFT_RR: SchedParams = SchedParams {
        time_slice: Nanos::from_us(50),
        min_granularity: Nanos::from_us(50),
        sched_latency: Nanos::from_us(50),
        wakeup_gran: Nanos::from_us(25),
    };

    /// Skyloft CFS (Table 5): 12.5 μs granularity, 50 μs latency target.
    pub const SKYLOFT_CFS: SchedParams = SchedParams {
        time_slice: Nanos::from_us(50),
        min_granularity: Nanos(12_500),
        sched_latency: Nanos::from_us(50),
        wakeup_gran: Nanos::from_us(25),
    };

    /// Skyloft EEVDF (Table 5): 12.5 μs base slice.
    pub const SKYLOFT_EEVDF: SchedParams = SchedParams {
        time_slice: Nanos::from_us(50),
        min_granularity: Nanos(12_500),
        sched_latency: Nanos::from_us(50),
        wakeup_gran: Nanos::from_us(25),
    };

    /// Linux RR default (Table 5): 100 ms slice at 250 Hz.
    pub const LINUX_RR_DEFAULT: SchedParams = SchedParams {
        time_slice: Nanos::from_ms(100),
        min_granularity: Nanos::from_ms(100),
        sched_latency: Nanos::from_ms(100),
        wakeup_gran: Nanos::from_ms(4),
    };

    /// Linux CFS default (Table 5): 3 ms granularity, 24 ms latency.
    pub const LINUX_CFS_DEFAULT: SchedParams = SchedParams {
        time_slice: Nanos::from_ms(24),
        min_granularity: Nanos::from_ms(3),
        sched_latency: Nanos::from_ms(24),
        wakeup_gran: Nanos::from_ms(4),
    };

    /// Linux CFS tuned (Table 5): 12.5 μs granularity, 50 μs latency at
    /// 1000 Hz.
    pub const LINUX_CFS_TUNED: SchedParams = SchedParams {
        time_slice: Nanos::from_us(50),
        min_granularity: Nanos(12_500),
        sched_latency: Nanos::from_us(50),
        wakeup_gran: Nanos::from_ms(4),
    };

    /// Linux EEVDF default (Table 5): 3 ms base slice.
    pub const LINUX_EEVDF_DEFAULT: SchedParams = SchedParams {
        time_slice: Nanos::from_ms(3),
        min_granularity: Nanos::from_ms(3),
        sched_latency: Nanos::from_ms(24),
        wakeup_gran: Nanos::from_ms(4),
    };

    /// Linux EEVDF tuned (Table 5): 12.5 μs base slice.
    pub const LINUX_EEVDF_TUNED: SchedParams = SchedParams {
        time_slice: Nanos(12_500),
        min_granularity: Nanos(12_500),
        sched_latency: Nanos::from_us(50),
        wakeup_gran: Nanos::from_ms(4),
    };
}

/// Core-allocation configuration for multi-application runs (§5.2,
/// Shenango-style congestion detection).
#[derive(Clone, Copy, Debug)]
pub struct CoreAllocConfig {
    /// Allocator decision period (Shenango/Caladan use 5 μs).
    pub interval: Nanos,
    /// Queueing delay above which the LC application is congested and
    /// reclaims a core from the BE application.
    pub congestion_delay: Nanos,
    /// Consecutive idle checks before a core is granted to the BE
    /// application.
    pub grant_after_idle_checks: u32,
}

impl Default for CoreAllocConfig {
    fn default() -> Self {
        CoreAllocConfig {
            interval: Nanos::from_us(5),
            congestion_delay: Nanos::from_us(10),
            grant_after_idle_checks: 4,
        }
    }
}

/// Per-application SLO class (DESIGN.md §16).
///
/// Registered on an application via `Machine::set_slo_class`; every
/// class-aware overload decision reads it: deadline admission sheds a
/// request against *its own application's* `slo` rather than a machine
/// global, the load generator scales its per-class retry token bucket by
/// `retry_frac`, and the runqueue AQM treats applications with a looser
/// SLO as sheddable before tighter ones. Applications without a class
/// behave exactly as before this type existed — every consumer falls back
/// to its pre-class global path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloClass {
    /// The application's service-level objective: the response-time bound
    /// its requests are admitted against.
    pub slo: Nanos,
    /// Fraction of this class's offered load it may spend on retries,
    /// in permille (‰) of generated requests.
    pub retry_frac: u32,
}

impl SloClass {
    /// A latency-critical class: tight SLO, modest retries.
    pub fn latency_critical(slo: Nanos) -> Self {
        SloClass {
            slo,
            retry_frac: 100,
        }
    }

    /// A batch/best-effort class: loose SLO, few retries.
    pub fn batch(slo: Nanos) -> Self {
        SloClass {
            slo,
            retry_frac: 20,
        }
    }
}

/// Runqueue-AQM configuration (the scheduler-side containment ring,
/// DESIGN.md §16).
///
/// The RX-ring CoDel (DESIGN.md §13) bounds sojourn for load that enters
/// through the NIC; load injected directly via `spawn_request` bypasses
/// it. This second ring watches the *runqueues* instead: every
/// `poll_every`, the machine measures each application's worst queued-task
/// sojourn (the policies' unified `queue_delay` clock) and feeds it into a
/// per-application CoDel instance. Past target/interval the AQM sheds the
/// oldest queued request of a *sheddable* application — one whose
/// [`SloClass::slo`] is at least `sheddable_slo` (unclassed applications
/// are never shed) — and feeds the sojourn into the brownout controller
/// so scheduler-side congestion also revokes BE cores.
#[derive(Clone, Copy, Debug)]
pub struct RunqueueAqmConfig {
    /// CoDel target: runqueue sojourn below this is acceptable. An
    /// application with an [`SloClass`] uses `slo / 2` as its personal
    /// target instead.
    pub target: Nanos,
    /// CoDel initial interval: sojourn must stay above target this long
    /// before the first shed.
    pub interval: Nanos,
    /// How often the machine samples the runqueues.
    pub poll_every: Nanos,
    /// Applications whose class SLO is at least this loose are sheddable.
    pub sheddable_slo: Nanos,
}

impl Default for RunqueueAqmConfig {
    fn default() -> Self {
        RunqueueAqmConfig {
            target: Nanos::from_us(50),
            interval: Nanos::from_us(500),
            poll_every: Nanos::from_us(10),
            sheddable_slo: Nanos::from_ms(1),
        }
    }
}

/// Brownout controller configuration (overload control, DESIGN.md §13).
///
/// The polling core feeds the machine a congestion sample per poll visit
/// (max head-of-ring sojourn plus whether any worker window was
/// backpressured); the machine folds it into an EWMA and, while the EWMA
/// sits above `enter_sojourn`, treats the best-effort application as if
/// the LC app were congested: BE cores are revoked and grants are
/// suppressed — *shed BE share before touching LC requests*. Hysteresis
/// comes from two sides so the controller cannot chatter at the
/// threshold: re-admission requires the EWMA below the (lower)
/// `exit_sojourn`, and no transition may follow another within
/// `min_dwell`.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// EWMA of ring sojourn above which the brownout engages.
    pub enter_sojourn: Nanos,
    /// EWMA below which the brownout releases (must be `< enter_sojourn`
    /// for hysteresis).
    pub exit_sojourn: Nanos,
    /// EWMA weight as a right-shift (3 → α = ⅛ per sample).
    pub ewma_shift: u32,
    /// Minimum time between brownout state transitions.
    pub min_dwell: Nanos,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enter_sojourn: Nanos::from_us(50),
            exit_sojourn: Nanos::from_us(10),
            ewma_shift: 3,
            min_dwell: Nanos::from_us(100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skyloft_percpu_platform_shape() {
        let p = Platform::skyloft_percpu(Topology::single(4), 100_000);
        assert!(matches!(
            p.mech,
            PreemptMechanism::UserTimer { hz: 100_000 }
        ));
        assert!(!p.dedicated_dispatcher);
        assert_eq!(p.same_app_switch, Nanos(37));
        assert_eq!(p.cross_app_switch, Nanos(1_905));
    }

    #[test]
    fn centralized_platform_has_dispatcher() {
        let p = Platform::skyloft_centralized(Topology::single(21));
        assert!(p.dedicated_dispatcher);
        assert!(matches!(p.mech, PreemptMechanism::UserIpi));
    }

    #[test]
    fn table5_parameters() {
        assert_eq!(SchedParams::SKYLOFT_CFS.min_granularity, Nanos(12_500));
        assert_eq!(SchedParams::SKYLOFT_RR.time_slice, Nanos::from_us(50));
        assert_eq!(
            SchedParams::LINUX_CFS_DEFAULT.sched_latency,
            Nanos::from_ms(24)
        );
        assert_eq!(
            SchedParams::LINUX_RR_DEFAULT.time_slice,
            Nanos::from_ms(100)
        );
    }

    #[test]
    fn core_alloc_defaults_match_shenango() {
        let c = CoreAllocConfig::default();
        assert_eq!(c.interval, Nanos::from_us(5));
    }

    #[test]
    fn slo_class_presets() {
        let lc = SloClass::latency_critical(Nanos::from_us(200));
        let be = SloClass::batch(Nanos::from_ms(5));
        assert!(lc.slo < be.slo);
        assert!(lc.retry_frac > be.retry_frac);
    }

    #[test]
    fn runqueue_aqm_defaults_are_ordered() {
        let c = RunqueueAqmConfig::default();
        assert!(c.target < c.interval);
        assert!(c.poll_every < c.interval);
        assert!(c.sheddable_slo > c.target, "only loose classes shed");
    }
}
