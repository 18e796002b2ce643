//! Overload control for the RX path: CoDel-style active queue management
//! and deadline-aware admission.
//!
//! PR 5's rings tail-drop: a packet is rejected only when the ring is
//! physically full, so under sustained overload every *delivered* packet
//! has first aged through a full ring — at 256 slots and ~2 µs of service
//! that is hundreds of microseconds of sojourn, far past a ~200 µs SLO.
//! Goodput (completions within the SLO) collapses to zero even though
//! throughput looks healthy. The fix is the classic AQM insight: drop
//! *early and a little* instead of *late and in bulk*.
//!
//! Two mechanisms compose here, both exercised at the polling core:
//!
//! * [`Codel`] — the CoDel drop law (Nichols & Jacobson, CACM 2012) on
//!   each ring. Tracks the head packet's *sojourn time* (now − enqueue
//!   timestamp). While sojourn stays below `target` nothing happens; once
//!   it has exceeded `target` for a full `interval` the controller enters
//!   the dropping state and sheds packets at a rate that grows with the
//!   square root of the drop count (`drop_next = now + interval/√count`),
//!   which drives a standing queue back to `target` without reacting to
//!   transient bursts.
//! * [`AdmissionCtl`] — deadline-aware admission. Even a packet that
//!   survives the ring may be doomed: if the worker's backlog times the
//!   EWMA service estimate already exceeds the packet's remaining SLO
//!   budget, serving it wastes capacity that a younger request could have
//!   used. [`AdmissionCtl::should_shed`] makes that call at poll time —
//!   a cheap early drop instead of an expensive late timeout.
//!
//! Both are pure data structures (no RNG, no clock of their own), driven
//! with explicit `now` values, so they are directly property-testable and
//! deterministic under simulation.

use skyloft_sim::Nanos;

/// Number of distinct SLO classes the admission controller tracks.
/// Mirrors `skyloft_core::stats::MAX_CLASSES` — this crate deliberately
/// depends only on `skyloft-sim`, so the constant is duplicated rather
/// than imported; the cross-crate agreement is pinned by the ledger
/// invariants in the integration suites.
pub const MAX_CLASSES: usize = 4;

/// Folds a wire-format class byte into a tracked class slot (classes
/// past the last slot share it, same rule as the core stats ledgers).
pub fn class_slot(class: u8) -> usize {
    (class as usize).min(MAX_CLASSES - 1)
}

/// Parameters of the CoDel drop law.
///
/// The canonical internet defaults are 5 ms / 100 ms; a kernel-bypass
/// memcached server runs about three orders of magnitude faster, so the
/// defaults here scale the same ~1:20 ratio down to microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodelConfig {
    /// Acceptable standing-queue sojourn. Below this the controller is
    /// quiescent.
    pub target: Nanos,
    /// How long sojourn must stay above `target` before dropping starts;
    /// also the initial spacing of drops.
    pub interval: Nanos,
}

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: Nanos::from_us(25),
            interval: Nanos::from_us(500),
        }
    }
}

/// Per-ring CoDel state machine. Feed every dequeued packet's sojourn
/// through [`Codel::on_packet`]; `true` means *shed this packet*.
#[derive(Clone, Debug)]
pub struct Codel {
    cfg: CodelConfig,
    /// When the sojourn first exceeded `target` plus one `interval`
    /// (i.e. the instant dropping may begin), if it is currently above.
    first_above: Option<Nanos>,
    /// Whether the controller is in the dropping state.
    dropping: bool,
    /// Next scheduled drop while in the dropping state.
    drop_next: Nanos,
    /// Drops in the current dropping episode (sets the √count rate).
    count: u32,
    /// `count` when the last episode ended, for the CoDel "resume at
    /// nearly the old rate" refinement on quick re-entry.
    last_count: u32,
}

impl Codel {
    /// A quiescent controller with the given law parameters.
    pub fn new(cfg: CodelConfig) -> Self {
        Codel {
            cfg,
            first_above: None,
            dropping: false,
            drop_next: Nanos::ZERO,
            count: 0,
            last_count: 0,
        }
    }

    /// Whether the controller is currently in the dropping state.
    pub fn dropping(&self) -> bool {
        self.dropping
    }

    /// `interval / sqrt(count)`: the control law spacing successive drops.
    fn control_law(&self, t: Nanos) -> Nanos {
        t + Nanos((self.cfg.interval.0 as f64 / (self.count.max(1) as f64).sqrt()) as u64)
    }

    /// Judges one dequeued packet: `sojourn` is how long it sat in the
    /// ring, `now` the dequeue instant. Returns `true` when the drop law
    /// says to shed it.
    pub fn on_packet(&mut self, now: Nanos, sojourn: Nanos) -> bool {
        if sojourn < self.cfg.target {
            // Queue is fine: leave the dropping state and forget the
            // above-target episode.
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        match self.first_above {
            None => {
                // First packet above target: arm the interval timer.
                self.first_above = Some(now + self.cfg.interval);
                false
            }
            Some(fa) if !self.dropping => {
                if now < fa {
                    return false;
                }
                // Sojourn stayed above target for a whole interval:
                // enter the dropping state and shed this packet. Resume
                // near the previous rate when the last episode was
                // recent (we are oscillating around the operating
                // point), else restart gently.
                self.dropping = true;
                self.count = if self.last_count > 2 && now < self.drop_next + self.cfg.interval {
                    self.last_count - 2
                } else {
                    1
                };
                self.drop_next = self.control_law(now);
                true
            }
            Some(_) => {
                if now < self.drop_next {
                    return false;
                }
                self.count += 1;
                self.last_count = self.count;
                self.drop_next = self.control_law(self.drop_next);
                true
            }
        }
    }
}

/// Parameters of deadline-aware admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// End-to-end latency budget a request must finish within to count.
    /// Also the fallback budget for classes without a `class_slo` entry.
    pub slo: Nanos,
    /// EWMA weight as a right-shift: the estimate moves by
    /// `(sample − estimate) / 2^ewma_shift` per observation (3 → α = ⅛).
    pub ewma_shift: u32,
    /// Seed value of the service estimate before any observation.
    pub init_service: Nanos,
    /// Per-class SLO overrides: a request of class `c` is shed against
    /// `class_slo[class_slot(c)]` when set. Setting any entry selects the
    /// cross-class law (see [`AdmissionCtl`]); all `None` (the default)
    /// keeps the single-SLO law.
    pub class_slo: [Option<Nanos>; MAX_CLASSES],
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            slo: Nanos::from_us(200),
            ewma_shift: 3,
            init_service: Nanos::from_us(2),
            class_slo: [None; MAX_CLASSES],
        }
    }
}

/// Deadline-aware admission controller: an integer EWMA of observed
/// per-request service (worker-side, stack overhead included) plus the
/// shed decision "the predicted finish already misses the deadline".
///
/// The configuration picks one of two laws, once, at construction:
///
/// * **Single-SLO** (no `class_slo` entry set): one service estimate,
///   one deadline, and the caller's count of requests ahead on the
///   request's worker.
/// * **Cross-class** (any `class_slo` entry set): per-class cost and
///   backlog estimates, so a 5 ms batch request cannot inflate the
///   service estimate a 200 µs LC request is judged by, and each class
///   is shed against its own deadline, never a blended one.
///
/// Callers drive both laws through the same three calls:
/// [`AdmissionCtl::resync_backlog`] once per poll round,
/// [`AdmissionCtl::should_shed`] per request, and
/// [`AdmissionCtl::observe`] per admitted request.
#[derive(Clone, Debug)]
pub struct AdmissionCtl {
    cfg: AdmissionConfig,
    /// Whether the cross-class law is in force (any `class_slo` set).
    classed: bool,
    /// Service estimates (integer EWMA) per class slot; the single-SLO
    /// law keeps one, in slot 0.
    est: [Nanos; MAX_CLASSES],
    /// Per-class admitted-but-unfinished counts per worker: resynced
    /// each poll round, grown by every admit in between.
    class_backlog: [u64; MAX_CLASSES],
}

impl AdmissionCtl {
    /// A controller seeded at `cfg.init_service`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionCtl {
            classed: cfg.class_slo.iter().any(Option::is_some),
            est: [cfg.init_service; MAX_CLASSES],
            class_backlog: [0; MAX_CLASSES],
            cfg,
        }
    }

    /// The estimate slot `class` is judged by: its own under the
    /// cross-class law, the shared slot 0 otherwise.
    fn slot(&self, class: u8) -> usize {
        if self.classed {
            class_slot(class)
        } else {
            0
        }
    }

    /// The service estimate a request of `class` is judged by.
    pub fn estimate(&self, class: u8) -> Nanos {
        self.est[self.slot(class)]
    }

    /// The registered deadline for one class (`None` when unregistered,
    /// and always under the single-SLO law).
    pub fn class_slo(&self, class: u8) -> Option<Nanos> {
        self.cfg.class_slo[class_slot(class)]
    }

    /// Records one admitted request of `class` whose marginal cost was
    /// `service`: folds it into the service estimates and, under the
    /// cross-class law, counts it toward its class's backlog until the
    /// next [`AdmissionCtl::resync_backlog`].
    pub fn observe(&mut self, class: u8, service: Nanos) {
        let slot = self.slot(class);
        let est = self.est[slot].0 as i128;
        let delta = service.0 as i128 - est;
        self.est[slot] = Nanos((est + (delta >> self.cfg.ewma_shift)) as u64);
        if self.classed {
            self.class_backlog[slot] += 1;
        }
    }

    /// Resets each class's backlog to ground truth, once per poll round:
    /// `in_service(c)` is how many class-`c` requests were handed to
    /// workers and have neither completed nor been shed. It is divided
    /// by the worker count, because the law predicts a single queue
    /// draining at the class's per-request estimate while the machine
    /// drains RSS-spread backlog on all workers in parallel. A no-op
    /// under the single-SLO law, which takes its backlog per request.
    pub fn resync_backlog(&mut self, workers: usize, in_service: impl Fn(usize) -> u64) {
        if !self.classed {
            return;
        }
        let workers = workers.max(1) as u64;
        for (c, backlog) in self.class_backlog.iter_mut().enumerate() {
            *backlog = in_service(c) / workers;
        }
    }

    /// Whether to shed a request of `class` sent at `sent` and examined
    /// at `now`: shed when even an optimistic finish time already misses
    /// its deadline.
    ///
    /// Under the single-SLO law the finish is `now + (backlog + 1) ×
    /// estimate`, with `backlog` the requests already ahead of it on its
    /// worker, against `sent + slo`.
    ///
    /// Under the cross-class law `backlog` is unused: the request is
    /// judged against its class's own deadline (the global `slo` for an
    /// unregistered class), and the work ahead spans *every* class — the
    /// data plane hands all admitted requests to the same runqueues, so
    /// a tight-class arrival drains behind the loose-class backlog too;
    /// modeling only its own class would admit 200 µs requests into a
    /// multi-millisecond batch queue and deliver them all late.
    /// Per-class cost estimates keep the sum honest (60 queued batch
    /// requests cost 60 × 50 µs, not 60 × a blended mean).
    pub fn should_shed(&self, class: u8, now: Nanos, sent: Nanos, backlog: usize) -> bool {
        if !self.classed {
            let finish = now + Nanos(self.est[0].0.saturating_mul(backlog as u64 + 1));
            return finish > sent + self.cfg.slo;
        }
        let slot = class_slot(class);
        let slo = self.cfg.class_slo[slot].unwrap_or(self.cfg.slo);
        let mut ahead = 0u64;
        // Tightest deadline among classes with work in flight: a looser
        // request must not deepen the shared queue past what the most
        // demanding live tenant can drain through — its own 5 ms budget
        // would happily stack minutes of work in front of a 200 µs
        // neighbour.
        let mut tightest = slo;
        for c in 0..MAX_CLASSES {
            ahead = ahead.saturating_add(self.est[c].0.saturating_mul(self.class_backlog[c]));
            if self.class_backlog[c] > 0 {
                if let Some(s) = self.cfg.class_slo[c] {
                    tightest = tightest.min(s);
                }
            }
        }
        let work = ahead.saturating_add(self.est[slot].0);
        if now + Nanos(work) > sent + slo {
            return true;
        }
        // The cap only binds classes looser than the tightest live one
        // (the tight class is already governed by its own deadline), and
        // admits at most a quarter of that budget as queued work: the
        // remaining three quarters cover the tight class's ring wait,
        // own service, and scheduling jitter — a tail that a `slo / 2`
        // queue was measured to push just past the deadline.
        slo > tightest && work > tightest.0 / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn law() -> CodelConfig {
        CodelConfig {
            target: Nanos::from_us(25),
            interval: Nanos::from_us(500),
        }
    }

    #[test]
    fn below_target_never_drops() {
        let mut c = Codel::new(law());
        for i in 0..10_000u64 {
            let now = Nanos(i * 100);
            assert!(!c.on_packet(now, Nanos::from_us(24)), "dropped at {now:?}");
        }
        assert!(!c.dropping());
    }

    #[test]
    fn sustained_excess_enters_dropping_after_one_interval() {
        let mut c = Codel::new(law());
        let sojourn = Nanos::from_us(100);
        // Above target but within the first interval: no drops yet.
        assert!(!c.on_packet(Nanos::ZERO, sojourn));
        assert!(!c.on_packet(Nanos::from_us(499), sojourn));
        // One interval elapsed: the next above-target packet is shed.
        assert!(c.on_packet(Nanos::from_us(500), sojourn));
        assert!(c.dropping());
    }

    #[test]
    fn drop_rate_accelerates_with_sqrt_count() {
        let mut c = Codel::new(law());
        let sojourn = Nanos::from_us(100);
        let mut now = Nanos::ZERO;
        let mut drops = Vec::new();
        // Feed a packet every 10 µs with a stuck-high sojourn; record the
        // drop instants.
        for _ in 0..1_000 {
            if c.on_packet(now, sojourn) {
                drops.push(now);
            }
            now += Nanos::from_us(10);
        }
        assert!(drops.len() >= 4, "only {} drops", drops.len());
        // Successive inter-drop gaps shrink (interval/√count).
        let gap1 = drops[1] - drops[0];
        let last_gap = drops[drops.len() - 1] - drops[drops.len() - 2];
        assert!(
            last_gap < gap1,
            "drop rate did not accelerate: first gap {gap1:?}, last {last_gap:?}"
        );
    }

    #[test]
    fn recovery_leaves_dropping_state() {
        let mut c = Codel::new(law());
        let high = Nanos::from_us(100);
        let mut now = Nanos::ZERO;
        for _ in 0..200 {
            c.on_packet(now, high);
            now += Nanos::from_us(10);
        }
        assert!(c.dropping());
        // Queue drained: one below-target packet resets the controller.
        assert!(!c.on_packet(now, Nanos::from_us(1)));
        assert!(!c.dropping());
        // And the next above-target packet starts a fresh interval, not
        // an immediate drop.
        assert!(!c.on_packet(now + Nanos::from_us(10), high));
    }

    #[test]
    fn admission_ewma_converges() {
        let mut a = AdmissionCtl::new(AdmissionConfig {
            init_service: Nanos::from_us(2),
            ..AdmissionConfig::default()
        });
        for _ in 0..200 {
            a.observe(0, Nanos::from_us(6));
        }
        let est = a.estimate(0);
        assert!(
            (Nanos::from_us(5)..=Nanos::from_us(7)).contains(&est),
            "estimate {est:?} did not converge to ~6µs"
        );
    }

    #[test]
    fn admission_sheds_only_doomed_requests() {
        let a = AdmissionCtl::new(AdmissionConfig::default());
        let sent = Nanos::from_ms(1);
        // Fresh request, empty worker: plenty of budget left.
        assert!(!a.should_shed(0, sent + Nanos::from_us(10), sent, 0));
        // Same age but 120 requests ahead at ~2µs each = 242µs to go:
        // already past the 200µs budget.
        assert!(a.should_shed(0, sent + Nanos::from_us(10), sent, 120));
        // Old request: even an empty worker cannot save it.
        assert!(a.should_shed(0, sent + Nanos::from_us(199), sent, 1));
    }

    #[test]
    fn single_slo_law_shares_one_estimate_across_classes() {
        let mut a = AdmissionCtl::new(AdmissionConfig::default());
        for _ in 0..200 {
            a.observe(1, Nanos::from_us(50));
        }
        // Class 1's samples moved the one shared estimate, so a class-0
        // request is judged by it too, with the caller's backlog.
        assert_eq!(a.estimate(0), a.estimate(1));
        assert!(a.estimate(0) > Nanos::from_us(40));
        let sent = Nanos::from_ms(1);
        assert!(!a.should_shed(0, sent, sent, 2));
        assert!(a.should_shed(0, sent, sent, 4));
        // A backlog resync is a no-op: the per-request backlog governs.
        a.resync_backlog(1, |_| 1_000);
        assert!(!a.should_shed(0, sent, sent, 2));
    }

    fn classed() -> AdmissionConfig {
        let mut class_slo = [None; MAX_CLASSES];
        class_slo[0] = Some(Nanos::from_us(200)); // LC
        class_slo[1] = Some(Nanos::from_ms(5)); // batch
        AdmissionConfig {
            class_slo,
            ..AdmissionConfig::default()
        }
    }

    /// A classed controller whose LC and batch estimates sit near 2 µs
    /// and 50 µs, with the per-worker backlogs `[lc, batch]`.
    fn warmed(backlog: [u64; 2]) -> AdmissionCtl {
        let mut a = AdmissionCtl::new(classed());
        for _ in 0..200 {
            a.observe(0, Nanos::from_us(2));
            a.observe(1, Nanos::from_us(50));
        }
        a.resync_backlog(1, |c| backlog.get(c).copied().unwrap_or(0));
        a
    }

    #[test]
    fn per_class_shed_uses_own_deadline() {
        let mut a = AdmissionCtl::new(classed());
        // 60 queued batch requests ≈ 122 µs to drain at the 2 µs initial
        // estimate.
        a.resync_backlog(1, |c| if c == 1 { 60 } else { 0 });
        let sent = Nanos::from_ms(1);
        let now = sent + Nanos::from_us(150);
        // The 200 µs LC request is doomed; the 5 ms batch one is fine.
        // The per-request backlog argument plays no part in this law.
        assert!(a.should_shed(0, now, sent, 0));
        assert!(!a.should_shed(1, now, sent, 1_000));
    }

    #[test]
    fn live_tight_class_caps_loose_admits() {
        // ~4 batch requests (~200 µs) queued: well inside batch's own
        // 5 ms budget, so with no tighter class in flight it is admitted.
        let sent = Nanos::from_ms(1);
        let now = sent + Nanos::from_us(10);
        assert!(!warmed([0, 4]).should_shed(1, now, sent, 0));
        // One LC request in flight makes the 200 µs class live: the
        // shared queue is now capped at a quarter of that deadline, and
        // the same batch request sheds.
        assert!(warmed([1, 4]).should_shed(1, now, sent, 0));
    }

    #[test]
    fn per_class_estimates_are_independent() {
        let a = warmed([0, 0]);
        assert!(a.estimate(0) < Nanos::from_us(4));
        assert!(a.estimate(1) > Nanos::from_us(40));
        // A batch-heavy tail must not poison the LC estimate: a fresh LC
        // request with an empty LC backlog survives even while class 1's
        // estimate sits at ~50 µs.
        let sent = Nanos::from_ms(1);
        assert!(!a.should_shed(0, sent + Nanos::from_us(10), sent, 0));
    }

    #[test]
    fn cross_class_backlog_counts_against_a_tight_deadline() {
        // No LC backlog at all, but ~6 batch requests (~300 µs of work)
        // queued ahead in the shared runqueues: a fresh 200 µs request
        // cannot make it and must shed; the batch class itself has 5 ms
        // of budget and sails through.
        let a = warmed([0, 6]);
        let sent = Nanos::from_ms(1);
        assert!(a.should_shed(0, sent + Nanos::from_us(10), sent, 0));
        assert!(!a.should_shed(1, sent + Nanos::from_us(10), sent, 0));
    }

    #[test]
    fn backlog_resyncs_per_worker_and_grows_with_admits() {
        let mut a = AdmissionCtl::new(classed());
        let sent = Nanos::from_ms(1);
        let now = sent + Nanos::from_us(1);
        // 400 LC requests in service at the 2 µs seed estimate: spread
        // over 4 workers that is 200 µs of queue per worker (doomed),
        // over 8 workers 100 µs (admitted).
        a.resync_backlog(4, |c| if c == 0 { 400 } else { 0 });
        assert!(a.should_shed(0, now, sent, 0));
        a.resync_backlog(8, |c| if c == 0 { 400 } else { 0 });
        assert!(!a.should_shed(0, now, sent, 0));
        // Each admit between resyncs counts toward its class's backlog:
        // 49 more LC admits bring the queue to 198 µs of work.
        for _ in 0..49 {
            a.observe(0, Nanos::from_us(2));
        }
        assert!(a.should_shed(0, now, sent, 0));
        // Classes past the last slot share it.
        a.resync_backlog(1, |c| if c == MAX_CLASSES - 1 { 1_000 } else { 0 });
        assert!(a.should_shed(9, now, sent, 0));
    }
}
