//! Property-based tests (proptest) for the core data structures and
//! invariants.

use proptest::prelude::*;

use skyloft::builtin::GlobalFifo;
use skyloft::ops::{EnqueueFlags, Policy, SchedEnv};
use skyloft::task::{Task, TaskTable};
use skyloft_hw::uintr::UittEntry;
use skyloft_hw::UintrFabric;
use skyloft_kmod::{Kmod, KthreadState, Tid};
use skyloft_metrics::Histogram;
use skyloft_policies::{Cfs, Eevdf, WorkStealing};
use skyloft_sim::{Distribution, EventQueue, Nanos, Rng};

proptest! {
    /// The event queue pops in non-decreasing time order under arbitrary
    /// interleavings of schedules and cancellations.
    #[test]
    fn event_queue_total_order(ops in prop::collection::vec((0u64..1_000, prop::bool::ANY), 1..200)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut tokens = Vec::new();
        let mut live = 0usize;
        for (delay, cancel) in ops {
            let tok = q.schedule_after(Nanos(delay), delay);
            tokens.push(tok);
            live += 1;
            if cancel && !tokens.is_empty() {
                let t = tokens.swap_remove(tokens.len() / 2);
                if q.cancel(t).is_some() {
                    live -= 1;
                }
            }
        }
        prop_assert_eq!(q.len(), live);
        let mut prev = Nanos::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= prev);
            prev = at;
            popped += 1;
        }
        prop_assert_eq!(popped, live);
    }

    /// Histogram percentiles are within the documented relative error of
    /// the exact order statistic.
    #[test]
    fn histogram_percentile_accuracy(mut values in prop::collection::vec(1u64..10_000_000, 10..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
            let exact = values[rank.clamp(1, values.len()) - 1] as f64;
            let got = h.percentile(p) as f64;
            prop_assert!(
                (got - exact).abs() <= exact * 0.04 + 1.0,
                "p{}: got {} exact {}", p, got, exact
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *values.last().unwrap());
        prop_assert_eq!(h.min(), *values.first().unwrap());
    }

    /// Task slab: arbitrary insert/remove sequences never confuse handles.
    #[test]
    fn task_table_handles_stay_distinct(ops in prop::collection::vec(prop::bool::ANY, 1..300)) {
        let mut table = TaskTable::new();
        let mut live = Vec::new();
        for (i, insert) in ops.into_iter().enumerate() {
            if insert || live.is_empty() {
                let id = table.insert(|id| Task::bare(id, i % 7));
                live.push((id, i % 7));
            } else {
                let (id, _) = live.swap_remove(i % live.len());
                table.remove(id);
                prop_assert!(!table.contains(id));
            }
            for &(id, app) in &live {
                prop_assert!(table.contains(id));
                prop_assert_eq!(table.get(id).app, app);
            }
        }
        prop_assert_eq!(table.len(), live.len());
    }

    /// UINTR: posting any set of vectors and then receiving the
    /// notification delivers exactly the posted set, highest vector first.
    #[test]
    fn uintr_pir_round_trip(mut vectors in prop::collection::vec(0u8..64, 1..20)) {
        let mut f = UintrFabric::new(1);
        let upid = f.alloc_upid(0xe1, 0);
        f.bind_receiver(0, upid, 0xe1);
        f.set_user_mode(0, true);
        for &v in &vectors {
            f.senduipi(UittEntry { upid, user_vec: v });
        }
        f.on_interrupt_arrival(0, 0xe1);
        vectors.sort_unstable();
        vectors.dedup();
        let mut delivered = Vec::new();
        while f.deliverable(0) {
            delivered.push(f.begin_delivery(0));
            f.uiret(0);
        }
        let mut expect = vectors.clone();
        expect.reverse();
        prop_assert_eq!(delivered, expect);
    }

    /// Policies preserve the multiset of enqueued tasks: everything
    /// enqueued comes back out exactly once (FIFO, CFS, EEVDF, WS).
    #[test]
    fn policies_preserve_task_multiset(
        placements in prop::collection::vec((0usize..4, 0u64..1_000_000), 1..100),
        policy_sel in 0u8..4,
    ) {
        let mut policy: Box<dyn Policy> = match policy_sel {
            0 => Box::new(GlobalFifo::new()),
            1 => Box::new(Cfs::new(skyloft::SchedParams::SKYLOFT_CFS)),
            2 => Box::new(Eevdf::new(skyloft::SchedParams::SKYLOFT_EEVDF)),
            _ => Box::new(WorkStealing::new(Some(Nanos::from_us(5)))),
        };
        policy.sched_init(&SchedEnv { worker_cores: (0..4).collect(), dispatcher: None });
        let mut tasks = TaskTable::new();
        let mut ids = std::collections::HashSet::new();
        for (cpu, vr) in placements {
            let id = tasks.insert(|id| Task::bare(id, 0));
            policy.task_init(&mut tasks, id, Nanos::ZERO);
            tasks.get_mut(id).pd.vruntime = vr;
            policy.task_enqueue(&mut tasks, id, Some(cpu), EnqueueFlags::New, Nanos(vr));
            ids.insert(id);
        }
        let mut out = std::collections::HashSet::new();
        for cpu in 0..4usize {
            while let Some(t) = policy
                .task_dequeue(&mut tasks, cpu, Nanos(2_000_000))
                .or_else(|| policy.sched_balance(&mut tasks, cpu, Nanos(2_000_000)))
            {
                prop_assert!(out.insert(t), "task dequeued twice");
            }
        }
        prop_assert_eq!(out, ids);
    }

    /// The kernel-module model never violates the Single Binding Rule, no
    /// matter the op sequence (invalid ops must error, not corrupt), and
    /// the answers it serves from per-core caches (`fault_blocked_on`,
    /// gated by a fault-blocked count, and `active_thread`) equal a plain
    /// scan of the thread table, the oracle. Ops cover every transition,
    /// §6 faults and app termination included; `check_binding_rule`
    /// recounts both caches against the table after every one.
    #[test]
    fn kmod_binding_rule_is_invariant(
        ops in prop::collection::vec((0u8..9, 0usize..12, 0usize..12, 0usize..10), 1..300),
    ) {
        let mut k = Kmod::new(8, &[0, 1, 2, 3]);
        let mut tids: Vec<Tid> = Vec::new();
        for (op, a, b, core) in ops {
            let pick = |i: usize| if tids.is_empty() { i } else { tids[i % tids.len()] };
            let (x, y) = (pick(a), pick(b));
            // Outcomes don't matter; the invariants must hold after every op.
            let _ = match op {
                0 | 1 => {
                    tids.push(k.create_kthread(a % 3));
                    Ok(())
                }
                2 => k.bind_active(x, core),
                3 => k.park_on_cpu(x, core),
                4 => k.switch_to(x, y).map(drop),
                5 => k.wakeup(x).map(drop),
                6 => k.fault_block(x),
                7 => k.fault_resolve(x),
                _ => k.terminate_app(a % 3),
            };
            prop_assert_eq!(k.check_binding_rule(), Ok(()));
            for c in 0..10 {
                let blocked = reference_scan(&k, c, KthreadState::FaultBlocked);
                prop_assert_eq!(k.fault_blocked_on(c), blocked);
                prop_assert_eq!(k.active_thread(c), reference_scan(&k, c, KthreadState::Active));
            }
        }
    }

    /// Sampled service times stay within the distribution's support, and
    /// slowdown is always at least 1.
    #[test]
    fn distribution_support_and_slowdown(seed in 0u64..u64::MAX) {
        let mut rng = Rng::seed_from_u64(seed);
        let d = Distribution::Bimodal {
            p_long: 0.5,
            short: Nanos(950),
            long: Nanos(591_000),
        };
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            prop_assert!(s == Nanos(950) || s == Nanos(591_000));
            let resp = s + Nanos(rng.next_below(10_000));
            prop_assert!(skyloft_metrics::slowdown(resp.0, s.0) >= 1.0);
        }
    }

    /// A burst of requests through a real machine always completes exactly
    /// once each, regardless of sizes and pinning.
    #[test]
    fn machine_completes_every_request(
        reqs in prop::collection::vec((1u64..200_000, 0usize..3), 1..40),
        seed in 0u64..1_000,
    ) {
        use skyloft::machine::{AppKind, Machine, MachineConfig};
        use skyloft::Platform;
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(skyloft_hw::Topology::single(3), 100_000),
            n_workers: 3,
            seed,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(WorkStealing::new(Some(Nanos::from_us(20)))));
        m.add_app("p", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        let n = reqs.len() as u64;
        for (svc, pin) in reqs {
            m.spawn_request(&mut q, 0, Nanos(svc), 0, Some(pin));
        }
        m.run(&mut q, Nanos::from_secs(1));
        prop_assert_eq!(m.stats.completed, n);
        prop_assert_eq!(m.apps[0].live_tasks, 0);
        prop_assert_eq!(m.stats.timer_lost, 0);
    }

    /// Random workloads across machine shapes (per-CPU user timers,
    /// centralized dispatch with the core allocator and a BE app, utimer
    /// emulation) run with the runtime invariant checker validating the
    /// machine after every event: zero violations, zero lost timer
    /// interrupts, and every request still completes exactly once.
    ///
    /// Arrivals are staggered across a 140 ms window and the run spans
    /// 150 ms of virtual time, so the event queue's timing wheel crosses
    /// many level-1/level-2 refills and a level-3 cascade boundary
    /// (2^24 granules span ≈ 8.6 s; level boundaries at ~33 μs, ~2.1 ms,
    /// ~134 ms) while the checker watches every event. Each case runs a
    /// second time with its arrivals squeezed 1000× into the first 140 μs,
    /// so requests queue behind each other and per-CPU tasks get
    /// preempted: the staggered arrivals alone almost never overlap.
    #[test]
    fn machine_invariants_hold_on_random_workloads(
        reqs in prop::collection::vec((1u64..150_000, 0usize..4, 0u64..140_000_000), 1..30),
        shape in 0u8..4,
        seed in 0u64..1_000,
    ) {
        for squeeze in [1, 1_000] {
            run_checked_workload(&reqs, shape, seed, squeeze);
        }
    }
}

/// One run of [`machine_invariants_hold_on_random_workloads`]: `reqs` are
/// `(service ns, pin, arrival ns)`, with arrivals divided by `squeeze`.
fn run_checked_workload(reqs: &[(u64, usize, u64)], shape: u8, seed: u64, squeeze: u64) {
    use skyloft::builtin::CentralizedFcfs;
    use skyloft::machine::{AppKind, Machine, MachineConfig};
    use skyloft::{CoreAllocConfig, Platform, PreemptMechanism};
    let workers = 3usize;
    let topo = skyloft_hw::Topology::single(workers + 1);
    let (plat, core_alloc, utimer, policy): (Platform, _, _, Box<dyn Policy>) = match shape {
        0 => (
            Platform::skyloft_percpu(topo, 100_000),
            None,
            None,
            Box::new(WorkStealing::new(Some(Nanos::from_us(20)))),
        ),
        1 => (
            Platform::skyloft_percpu(topo, 100_000),
            None,
            None,
            Box::new(Cfs::new(skyloft::SchedParams::SKYLOFT_CFS)),
        ),
        2 => (
            Platform::skyloft_centralized(topo),
            Some(CoreAllocConfig::default()),
            None,
            Box::new(CentralizedFcfs::new(Some(Nanos::from_us(30)))),
        ),
        _ => {
            let mut p = Platform::skyloft_percpu(topo, 100_000);
            p.mech = PreemptMechanism::UserIpi;
            (
                p,
                None,
                Some(Nanos::from_us(5)),
                Box::new(WorkStealing::new(Some(Nanos::from_us(20)))),
            )
        }
    };
    let cfg = MachineConfig {
        plat,
        n_workers: workers,
        seed,
        core_alloc,
        utimer_period: utimer,
    };
    let mut m = Machine::new(cfg, policy);
    m.add_app("lc", AppKind::Lc);
    if shape == 2 {
        m.add_app("batch", AppKind::Be);
    }
    let mut q = EventQueue::new();
    m.start(&mut q);
    let n = reqs.len() as u64;
    for (i, &(svc, pin, arrive)) in reqs.iter().enumerate() {
        use skyloft::machine::Call;
        let pin = (pin < workers).then_some(pin);
        let class = (i % 4) as u8;
        q.schedule(
            Nanos(arrive / squeeze),
            skyloft::machine::Event::Call(Call(Box::new(
                move |m: &mut Machine, q: &mut EventQueue<skyloft::machine::Event>| {
                    m.spawn_request(q, 0, Nanos(svc), class, pin);
                },
            ))),
        );
    }
    m.run(&mut q, Nanos::from_ms(150));
    prop_assert_eq!(m.stats.completed, n);
    prop_assert_eq!(m.stats.timer_lost, 0);
    prop_assert!(m.tracer.checker.checks_run() > 0);
    prop_assert!(m.tracer.checker.violations().is_empty());
}

/// The lowest-tid thread bound to `core` in `state`, by a plain scan of
/// the kernel-thread table through the public API.
fn reference_scan(k: &Kmod, core: usize, state: KthreadState) -> Option<Tid> {
    (0..)
        .map_while(|tid| k.kthread(tid).ok().map(|t| (tid, t)))
        .find(|(_, t)| t.state == state && t.core == Some(core))
        .map(|(tid, _)| tid)
}
