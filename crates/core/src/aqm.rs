//! The machine's overload state; `Machine` keeps only the hooks (arming,
//! the periodic tick, and the mark-and-reap of condemned tasks).
//!
//! * [`RunqueueAqm`] — CoDel on *scheduler* queue sojourn, the second
//!   containment ring behind the RX-ring AQM: requests injected via
//!   `spawn_request`, or a backlog that builds up inside the runqueues,
//!   bypass the rings. Every `poll_every` each app's worst sojourn feeds
//!   a per-app controller; a firing condemns the oldest queued request of
//!   a *sheddable* app, which is terminated, not run, at its next
//!   dequeue. The drop law is the RX-ring `Codel` of `skyloft-net`
//!   (Nichols & Jacobson, CACM 2012), duplicated because `skyloft-net`
//!   deliberately depends only on `skyloft-sim`.
//! * `Victims` — the victim choice the AQM tick and displacement
//!   (`Machine::shed_for_class`) share: one scan of the `queued` tasks,
//!   oldest first, ties within an app in scan order, ties across apps to
//!   the first app.
//! * `Brownout` — an EWMA of overload samples with a hysteresis band;
//!   while engaged, the §5.2 core allocator treats every tick as
//!   congested and sheds BE share before LC is touched.
//!
//! All are pure data structures driven with explicit `now` values, so
//! they are deterministic and directly unit-testable.

use skyloft_sim::Nanos;

use crate::conf::{BrownoutConfig, RunqueueAqmConfig};
use crate::machine::{AppDesc, CoreState};
use crate::task::{AppId, TaskId, TaskState, TaskTable};

/// Per-app CoDel state (the same fields as the RX-ring controller).
#[derive(Clone, Copy, Debug, Default)]
struct CodelState {
    /// Instant dropping may begin (first-above + interval), while the
    /// sojourn is currently above target.
    first_above: Option<Nanos>,
    /// Whether the controller is in the dropping state.
    dropping: bool,
    /// Next scheduled drop while dropping.
    drop_next: Nanos,
    /// Drops in the current episode (sets the √count rate).
    count: u32,
    /// `count` when the last episode ended (quick re-entry refinement).
    last_count: u32,
}

/// A queued task as overload control sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Queued {
    app: AppId,
    task: TaskId,
    /// When the task last became runnable.
    since: Nanos,
}

/// The tasks overload control may condemn, in table order: runnable and
/// not yet condemned. Machine-managed BE spinners are skipped — they
/// park outside the policy queues, and their "sojourn" is idle time, not
/// congestion.
pub(crate) fn queued<'a>(
    tasks: &'a TaskTable,
    cores: &'a [CoreState],
) -> impl Iterator<Item = Queued> + 'a {
    tasks
        .iter()
        .filter(move |t| {
            t.state == TaskState::Runnable
                && !t.shed
                && t.home.is_none_or(|h| cores[h].be_task != Some(t.id))
        })
        .map(|t| Queued {
            app: t.app,
            task: t.id,
            since: t.runnable_since,
        })
}

/// Victim pools from one scan of queued tasks: each eligible app's tasks,
/// handed out oldest first. Ties within an app go in scan order; across
/// apps, the first app in order wins.
#[derive(Debug, Default)]
pub(crate) struct Victims {
    /// Per app, eligible or not, its oldest queued instant.
    oldest: Vec<Option<Nanos>>,
    /// Per eligible app, its tasks newest first, so the oldest pops off
    /// the end (a stable ascending sort, reversed: ties pop in scan order).
    pools: Vec<Vec<(Nanos, TaskId)>>,
}

impl Victims {
    /// Pools the tasks of `queued` whose app is `eligible`, for a machine
    /// of `n_apps` applications.
    pub(crate) fn collect(
        n_apps: usize,
        queued: impl Iterator<Item = Queued>,
        eligible: impl Fn(AppId) -> bool,
    ) -> Self {
        let mut v = Victims::default();
        v.refill(n_apps, queued, eligible);
        v
    }

    /// [`Victims::collect`] in place: the previous pools are discarded but
    /// their buffers are kept, so a periodic scan allocates only when a
    /// pool outgrows every earlier one.
    pub(crate) fn refill(
        &mut self,
        n_apps: usize,
        queued: impl Iterator<Item = Queued>,
        eligible: impl Fn(AppId) -> bool,
    ) {
        self.oldest.clear();
        self.oldest.resize(n_apps, None);
        self.pools.resize_with(n_apps, Vec::new);
        for p in &mut self.pools {
            p.clear();
        }
        for q in queued {
            if self.oldest[q.app].is_none_or(|o| q.since < o) {
                self.oldest[q.app] = Some(q.since);
            }
            if eligible(q.app) {
                self.pools[q.app].push((q.since, q.task));
            }
        }
        for p in &mut self.pools {
            p.sort_by_key(|&(since, _)| since);
            p.reverse();
        }
    }

    /// Takes `app`'s oldest remaining task.
    pub(crate) fn take(&mut self, app: AppId) -> Option<TaskId> {
        self.pools[app].pop().map(|(_, t)| t)
    }

    /// Takes the oldest remaining task of any app.
    pub(crate) fn take_oldest(&mut self) -> Option<TaskId> {
        let mut best: Option<(AppId, Nanos)> = None;
        for (app, p) in self.pools.iter().enumerate() {
            if let Some(&(since, _)) = p.last() {
                if best.is_none_or(|(_, b)| since < b) {
                    best = Some((app, since));
                }
            }
        }
        self.take(best?.0)
    }
}

/// The machine-side runqueue AQM: one CoDel controller per application.
#[derive(Debug)]
pub struct RunqueueAqm {
    cfg: RunqueueAqmConfig,
    /// Controllers, indexed by `AppId` (grown on demand).
    apps: Vec<CodelState>,
    /// The victim pools, refilled at every tick.
    victims: Victims,
}

impl RunqueueAqm {
    /// A quiescent AQM with the given law parameters.
    pub fn new(cfg: RunqueueAqmConfig) -> Self {
        RunqueueAqm {
            cfg,
            apps: Vec::new(),
            victims: Victims::default(),
        }
    }

    /// The law parameters.
    pub fn cfg(&self) -> RunqueueAqmConfig {
        self.cfg
    }

    /// One poll over the `queued` tasks of the machine running `apps`.
    /// Feeds each app's worst sojourn into
    /// its controller and appends every victim the drop law owes to
    /// `condemned`. Returns the worst sojourn across apps (`None` when
    /// nothing is queued), the brownout controller's sample.
    ///
    /// An app is sheddable when its class SLO is at least
    /// `sheddable_slo`; unclassed and tight-deadline (LC) apps are never
    /// shed — their congestion sheds *other* (batch) apps instead. Each
    /// drop condemns the firing app's own oldest queued task when it is
    /// sheddable, else the oldest queued task of any sheddable app.
    pub(crate) fn tick(
        &mut self,
        now: Nanos,
        queued: impl Iterator<Item = Queued>,
        apps: &[AppDesc],
        condemned: &mut Vec<TaskId>,
    ) -> Option<Nanos> {
        let sheddable_slo = self.cfg.sheddable_slo;
        let sheddable = |app: AppId| apps[app].slo.is_some_and(|s| s.slo >= sheddable_slo);
        // Whole pools, not just each app's head: the tick is far coarser
        // than per-dequeue CoDel, so one firing may owe several drops.
        let mut victims = std::mem::take(&mut self.victims);
        victims.refill(apps.len(), queued, sheddable);
        let mut worst: Option<Nanos> = None;
        for (app, desc) in apps.iter().enumerate() {
            let Some(since) = victims.oldest[app] else {
                continue;
            };
            let sojourn = now.saturating_sub(since);
            worst = Some(worst.map_or(sojourn, |w| w.max(sojourn)));
            // An app with a registered SLO is judged against half its own
            // deadline; unclassed apps use the configured target.
            let target = desc.slo.map(|s| Nanos(s.slo.0 / 2));
            // Drain every drop the law owes at this tick (CoDel fires at
            // `interval/√count` spacing, which can be shorter than the
            // poll period once count grows). Out of victims ⇒ stop
            // sampling so count doesn't inflate on no-op fires.
            while self.on_sample(app, now, sojourn, target) {
                let victim = if sheddable(app) {
                    victims.take(app)
                } else {
                    victims.take_oldest()
                };
                let Some(v) = victim else {
                    break;
                };
                condemned.push(v);
            }
        }
        self.victims = victims;
        worst
    }

    /// Feeds `app`'s worst-sojourn sample into its controller. `target`
    /// overrides the configured default (an app with a registered SLO
    /// class is judged against half its own deadline). Returns `true`
    /// when the drop law says to shed one queued request now.
    pub fn on_sample(
        &mut self,
        app: AppId,
        now: Nanos,
        sojourn: Nanos,
        target: Option<Nanos>,
    ) -> bool {
        if self.apps.len() <= app {
            self.apps.resize(app + 1, CodelState::default());
        }
        let target = target.unwrap_or(self.cfg.target);
        let interval = self.cfg.interval;
        let c = &mut self.apps[app];
        if sojourn < target {
            c.first_above = None;
            c.dropping = false;
            return false;
        }
        match c.first_above {
            None => {
                c.first_above = Some(now + interval);
                false
            }
            Some(fa) if !c.dropping => {
                if now < fa {
                    return false;
                }
                c.dropping = true;
                c.count = if c.last_count > 2 && now < c.drop_next + interval {
                    c.last_count - 2
                } else {
                    1
                };
                c.drop_next = control_law(now, interval, c.count);
                true
            }
            Some(_) => {
                if now < c.drop_next {
                    return false;
                }
                c.count += 1;
                c.last_count = c.count;
                c.drop_next = control_law(c.drop_next, interval, c.count);
                true
            }
        }
    }
}

/// The LC/BE brownout controller: an EWMA of the overload samples the
/// polling core (and the runqueue AQM tick) report, compared against a
/// hysteresis band — engage above `enter_sojourn`, release below
/// `exit_sojourn`, and never flip twice within `min_dwell`.
#[derive(Debug)]
pub(crate) struct Brownout {
    cfg: BrownoutConfig,
    /// EWMA of the overload signal, in nanoseconds.
    ewma: Nanos,
    engaged: bool,
    /// Instant of the last transition (hysteresis dwell).
    last_transition: Nanos,
    transitions: u64,
}

impl Brownout {
    /// A disengaged controller.
    pub fn new(cfg: BrownoutConfig) -> Self {
        Brownout {
            cfg,
            ewma: Nanos::ZERO,
            engaged: false,
            last_transition: Nanos::ZERO,
            transitions: 0,
        }
    }

    /// Whether the brownout is engaged (BE share being shed).
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Engage/release transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Folds one sample into the EWMA: the observed sojourn, inflated by
    /// half the engage threshold when `backpressured` so a saturated
    /// pipeline with artificially short rings still trips the controller.
    /// Returns the new state when this sample flipped it.
    pub fn on_sample(&mut self, now: Nanos, sojourn: Nanos, backpressured: bool) -> Option<bool> {
        let cfg = self.cfg;
        let penalty = if backpressured {
            Nanos(cfg.enter_sojourn.0 / 2)
        } else {
            Nanos::ZERO
        };
        let sample = (sojourn + penalty).0 as i128;
        let ewma = self.ewma.0 as i128;
        self.ewma = Nanos((ewma + ((sample - ewma) >> cfg.ewma_shift)) as u64);
        let dwelled = now.saturating_sub(self.last_transition) >= cfg.min_dwell;
        let flip = if self.engaged {
            self.ewma < cfg.exit_sojourn
        } else {
            self.ewma > cfg.enter_sojourn
        };
        if !(flip && dwelled) {
            return None;
        }
        self.engaged = !self.engaged;
        self.last_transition = now;
        self.transitions += 1;
        Some(self.engaged)
    }
}

/// `t + interval/√count`: the CoDel control law spacing successive drops.
fn control_law(t: Nanos, interval: Nanos, count: u32) -> Nanos {
    t + Nanos((interval.0 as f64 / (count.max(1) as f64).sqrt()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunqueueAqmConfig {
        RunqueueAqmConfig {
            target: Nanos::from_us(50),
            interval: Nanos::from_us(500),
            poll_every: Nanos::from_us(10),
            sheddable_slo: Nanos::from_ms(1),
        }
    }

    fn tid(idx: u32) -> TaskId {
        TaskId { idx, generation: 0 }
    }

    #[test]
    fn below_target_never_fires() {
        let mut a = RunqueueAqm::new(cfg());
        for i in 0..10_000u64 {
            assert!(!a.on_sample(0, Nanos(i * 100), Nanos::from_us(49), None));
        }
    }

    #[test]
    fn sustained_excess_fires_after_one_interval() {
        let mut a = RunqueueAqm::new(cfg());
        let sojourn = Nanos::from_us(200);
        assert!(!a.on_sample(0, Nanos::ZERO, sojourn, None));
        assert!(!a.on_sample(0, Nanos::from_us(499), sojourn, None));
        assert!(a.on_sample(0, Nanos::from_us(500), sojourn, None));
    }

    #[test]
    fn per_app_state_is_independent() {
        let mut a = RunqueueAqm::new(cfg());
        let high = Nanos::from_us(200);
        // App 0 builds up an above-target episode; app 1 stays quiet.
        assert!(!a.on_sample(0, Nanos::ZERO, high, None));
        assert!(!a.on_sample(1, Nanos::ZERO, Nanos::from_us(1), None));
        assert!(a.on_sample(0, Nanos::from_us(500), high, None));
        // App 1's first above-target sample only arms its own interval.
        assert!(!a.on_sample(1, Nanos::from_us(500), high, None));
    }

    #[test]
    fn target_override_uses_class_deadline() {
        let mut a = RunqueueAqm::new(cfg());
        // 100 µs sojourn, 300 µs override target: quiescent forever.
        for i in 0..200u64 {
            assert!(!a.on_sample(
                0,
                Nanos(i * 10_000),
                Nanos::from_us(100),
                Some(Nanos::from_us(300)),
            ));
        }
        // Same sojourn against a 40 µs override fires after an interval.
        let tight = Some(Nanos::from_us(40));
        assert!(!a.on_sample(1, Nanos::ZERO, Nanos::from_us(100), tight));
        assert!(a.on_sample(1, Nanos::from_us(500), Nanos::from_us(100), tight));
    }

    #[test]
    fn victims_go_oldest_first_with_stable_ties() {
        let q = |app, idx, since| Queued {
            app,
            task: tid(idx),
            since: Nanos(since),
        };
        // App 2 is not eligible; apps 0 and 1 tie at 100.
        let scan = [
            q(0, 1, 300),
            q(1, 2, 100),
            q(0, 3, 100),
            q(0, 4, 200),
            q(2, 5, 10),
            q(0, 6, 100),
        ];
        let mut v = Victims::collect(3, scan.into_iter(), |app| app < 2);
        // Within app 0, the 100 tie goes in scan order.
        assert_eq!(v.take(0), Some(tid(3)));
        // Across apps the first app wins a tie: app 0's remaining 100
        // before app 1's.
        assert_eq!(v.take_oldest(), Some(tid(6)));
        assert_eq!(v.take_oldest(), Some(tid(2)));
        assert_eq!(v.take_oldest(), Some(tid(4)));
        assert_eq!(v.take(1), None);
        assert_eq!(v.take_oldest(), Some(tid(1)));
        assert_eq!(v.take_oldest(), None, "app 2 was never eligible");
    }

    #[test]
    fn recovery_resets_episode() {
        let mut a = RunqueueAqm::new(cfg());
        let high = Nanos::from_us(200);
        let mut now = Nanos::ZERO;
        for _ in 0..200 {
            a.on_sample(0, now, high, None);
            now += Nanos::from_us(10);
        }
        // Below target: controller leaves dropping; next excursion re-arms.
        assert!(!a.on_sample(0, now, Nanos::from_us(1), None));
        assert!(!a.on_sample(0, now + Nanos::from_us(10), high, None));
    }
}
