//! The §3.5 multi-queue NIC data plane.
//!
//! Skyloft's evaluation runs memcached-style traffic through DPDK: the
//! NIC RSS-hashes each arriving datagram through the indirection table
//! onto one of N bounded RX descriptor rings (one per worker core), and a
//! dedicated polling core drains the rings in bursts, handing each packet
//! to its worker. Two properties of that pipeline dominate behaviour near
//! saturation, and both exist only because the rings are *bounded*:
//!
//! * **Tail drop.** A full ring rejects the datagram — the client learns
//!   via its timeout. Past saturation the server's queues therefore stay
//!   bounded and p99 is capped near the client timeout, instead of
//!   queueing delay growing without limit for as long as the overload
//!   lasts.
//! * **Backpressure.** The polling core only moves a packet to a worker
//!   that has room in its bounded in-service window; otherwise the packet
//!   waits in the ring and, under sustained overload, the ring fills and
//!   drops. Work the server cannot absorb is shed at the NIC, where it is
//!   cheap, not accumulated in scheduler queues, where it is not.
//!
//! [`MultiQueueNic`] is the host-side state machine for all of that:
//! rings, indirection table, per-ring drop/occupancy accounting, and the
//! polling core's serialization clock ([`MultiQueueNic::poller_admit_on`])
//! charging [`crate::nic::RX_POLL_COST`] per packet. It is driven from
//! the simulation by the arrival installer in `skyloft-apps` (events in,
//! spawned tasks out); this module itself is pure data structure, so it
//! is directly property-testable.

use skyloft_sim::Nanos;

use crate::nic::RX_POLL_COST;
use crate::overload::{Codel, CodelConfig};
use crate::ring::Ring;
use crate::rss::RssHasher;

/// Configuration of the NIC model and its polling core.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// RX rings (one per worker core the NIC steers to).
    pub n_rings: usize,
    /// Descriptor slots per ring; a full ring tail-drops.
    pub ring_capacity: usize,
    /// Max packets the polling core takes from one ring per poll visit
    /// (DPDK `rx_burst` size).
    pub poll_batch: usize,
    /// Period of the polling core's visit to the rings. Real DPDK
    /// busy-polls; the interval is the simulation's discretization of that
    /// loop and bounds the extra latency an uncontended packet sees.
    pub poll_interval: Nanos,
    /// Per-worker in-service window: the poller hands a worker at most
    /// this many not-yet-finished requests before leaving further packets
    /// in the ring (backpressure; without it overload would simply move
    /// the unbounded queue from the NIC into the scheduler).
    pub worker_depth: usize,
    /// Client abandon timeout for a tail-dropped datagram when no
    /// explicit [`crate::loadgen::NetProfile`] provides one: the request
    /// enters the latency histograms at this value.
    pub client_timeout: Nanos,
}

impl NicConfig {
    /// The default §3.5 configuration for `n` worker cores: 256-slot
    /// rings, 32-packet bursts, 500 ns poll discretization, a 32-request
    /// in-service window, and a 10 ms client timeout.
    pub fn for_workers(n: usize) -> Self {
        NicConfig {
            n_rings: n,
            ring_capacity: 256,
            poll_batch: 32,
            poll_interval: Nanos(500),
            worker_depth: 32,
            client_timeout: Nanos::from_ms(10),
        }
    }
}

/// A multi-queue NIC: RSS steering into bounded per-core RX rings, plus
/// the polling core's serialization clock.
#[derive(Clone, Debug)]
pub struct MultiQueueNic<T> {
    cfg: NicConfig,
    hasher: RssHasher,
    /// Ring entries carry their enqueue timestamp so AQM can measure the
    /// sojourn time at dequeue.
    rings: Vec<Ring<(Nanos, T)>>,
    /// Datagrams accepted into a ring, total.
    pub enqueued: u64,
    /// Datagrams drained by the polling core, total.
    pub polled: u64,
    /// Per-ring packets shed by the CoDel drop law (0 when AQM is off).
    aqm_dropped: Vec<u64>,
    /// Per-ring CoDel state when AQM is enabled; `None` keeps the PR 5
    /// pure tail-drop behaviour bit-for-bit.
    codel: Option<Vec<Codel>>,
    /// The polling core is busy with earlier packets until this instant.
    poller_free_at: Nanos,
    /// Per-ring adaptive estimate of the per-packet poll cost, seeded at
    /// [`RX_POLL_COST`] and folded toward the observed handoff cost by an
    /// integer EWMA (`est += (sample - est) >> 3`). Stays exactly at the
    /// seed while observed bursts cost the nominal amount, so runs without
    /// poller perturbation reproduce the fixed-cost clock bit-for-bit.
    poll_cost_est: Vec<Nanos>,
}

impl<T> MultiQueueNic<T> {
    /// Builds the NIC from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no rings, zero-capacity
    /// rings, empty bursts, or a zero in-service window).
    pub fn new(cfg: NicConfig) -> Self {
        assert!(cfg.poll_batch > 0, "poll batch must be positive");
        assert!(cfg.worker_depth > 0, "worker depth must be positive");
        MultiQueueNic {
            hasher: RssHasher::new(cfg.n_rings),
            rings: (0..cfg.n_rings)
                .map(|_| Ring::new(cfg.ring_capacity))
                .collect(),
            enqueued: 0,
            polled: 0,
            aqm_dropped: vec![0; cfg.n_rings],
            codel: None,
            poller_free_at: Nanos::ZERO,
            poll_cost_est: vec![RX_POLL_COST; cfg.n_rings],
            cfg,
        }
    }

    /// Enables the CoDel drop law on every ring (one independent
    /// controller per ring, as real per-queue AQM runs). Until this is
    /// called the NIC tail-drops only, exactly as PR 5 shipped it.
    pub fn set_codel(&mut self, law: CodelConfig) {
        self.codel = Some((0..self.rings.len()).map(|_| Codel::new(law)).collect());
    }

    /// The configuration this NIC was built with.
    pub fn cfg(&self) -> &NicConfig {
        &self.cfg
    }

    /// Number of RX rings.
    pub fn n_rings(&self) -> usize {
        self.rings.len()
    }

    /// The RSS hasher (Toeplitz + indirection table).
    pub fn hasher(&self) -> &RssHasher {
        &self.hasher
    }

    /// Mutable access to the hasher, for indirection-table rewrites.
    pub fn hasher_mut(&mut self) -> &mut RssHasher {
        &mut self.hasher
    }

    /// Steers a datagram of flow `(src_ip, dst_ip, src_port, dst_port)`
    /// into its RSS ring, stamped with its arrival instant `now` (the
    /// sojourn clock AQM reads at dequeue). Returns `Ok(ring)` when
    /// queued; on a full ring the datagram is tail-dropped (counted on
    /// the ring) and the target ring comes back as `Err(ring)`.
    pub fn enqueue_flow(
        &mut self,
        now: Nanos,
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        item: T,
    ) -> Result<usize, usize> {
        let ring = self
            .hasher
            .ring_for_flow(src_ip, dst_ip, src_port, dst_port);
        if self.rings[ring].push((now, item)) {
            self.enqueued += 1;
            Ok(ring)
        } else {
            Err(ring)
        }
    }

    /// Steers a datagram whose Toeplitz hash is already known. Steering,
    /// stamping, and drop accounting are identical to
    /// [`MultiQueueNic::enqueue_flow`]; only the hash computation is
    /// skipped. This is the steady-state path for callers that cache the
    /// per-flow hash (e.g. the load generator, whose flows are fixed for
    /// a connection's lifetime), so the 12-byte Toeplitz walk runs once
    /// per flow instead of once per packet.
    pub fn enqueue_hashed(&mut self, now: Nanos, hash: u32, item: T) -> Result<usize, usize> {
        let ring = self.hasher.ring_for_hash(hash);
        if self.rings[ring].push((now, item)) {
            self.enqueued += 1;
            Ok(ring)
        } else {
            Err(ring)
        }
    }

    /// Asks the ring's CoDel controller about a packet dequeued at `now`
    /// that was enqueued at `ts`; `true` means shed it. Always `false`
    /// when AQM is off.
    fn aqm_verdict(&mut self, ring: usize, now: Nanos, ts: Nanos) -> bool {
        self.codel
            .as_mut()
            .is_some_and(|codel| codel[ring].on_packet(now, now.saturating_sub(ts)))
    }

    /// Drains up to `max` packets from `ring` at instant `now`, FIFO.
    /// Kept packets append to `out` as `(enqueue_time, packet)`; packets
    /// the CoDel drop law sheds append to `shed` instead (and count in
    /// [`MultiQueueNic::aqm_drops`], not toward `max` — shedding is how
    /// the poller catches up, so it must not eat the burst). Returns how
    /// many were kept.
    pub fn drain(
        &mut self,
        now: Nanos,
        ring: usize,
        max: usize,
        out: &mut Vec<(Nanos, T)>,
        shed: &mut Vec<T>,
    ) -> usize {
        let mut taken = 0;
        while taken < max {
            match self.rings[ring].pop() {
                Some((ts, p)) => {
                    if self.aqm_verdict(ring, now, ts) {
                        self.aqm_dropped[ring] += 1;
                        shed.push(p);
                    } else {
                        out.push((ts, p));
                        taken += 1;
                    }
                }
                None => break,
            }
        }
        self.polled += taken as u64;
        taken
    }

    /// Sojourn time of the oldest packet waiting in `ring` (`None` when
    /// empty) — the brownout controller's congestion signal.
    pub fn oldest_sojourn(&self, ring: usize, now: Nanos) -> Option<Nanos> {
        self.rings[ring]
            .front()
            .map(|&(ts, _)| now.saturating_sub(ts))
    }

    /// The ring's current per-packet poll-cost estimate. Starts at
    /// [`RX_POLL_COST`] and tracks the observed cost as
    /// [`MultiQueueNic::poller_admit_on`] folds samples in — the honest
    /// per-packet figure admission control should charge for NIC-side
    /// delay, rather than the nominal constant.
    pub fn poll_cost(&self, ring: usize) -> Nanos {
        self.poll_cost_est[ring]
    }

    /// Advances the polling core's serialization clock over a burst of
    /// `n` packets drained from `ring`, starting no earlier than `now`:
    /// each packet costs [`RX_POLL_COST`], and the burst is handed to the
    /// worker when its last packet has been processed, plus `extra` (stall
    /// time the poll visit itself suffered — fault injection, IRQ steals —
    /// which holds up this burst's delivery but does not occupy the poll
    /// loop for later bursts). Returns that handoff instant. The clock is
    /// what bounds the poller at `1/RX_POLL_COST` packets per second
    /// machine-wide. The burst's *observed* per-packet cost, stall
    /// included, is folded back into the ring's estimate by an integer
    /// EWMA with a 1/8 gain, so sustained perturbation raises the
    /// per-packet figure admission control charges for NIC-side delay.
    /// With `extra` zero the sample equals the nominal cost and nothing
    /// drifts.
    pub fn poller_admit_on(&mut self, now: Nanos, ring: usize, n: usize, extra: Nanos) -> Nanos {
        let start = now.max(self.poller_free_at);
        let done = start + RX_POLL_COST * n as u64;
        self.poller_free_at = done;
        let handoff = done + extra;
        if n > 0 {
            let sample = (handoff.0 - start.0) / n as u64;
            let est = self.poll_cost_est[ring].0 as i64;
            let next = est + ((sample as i64 - est) >> 3);
            self.poll_cost_est[ring] = Nanos(next.max(0) as u64);
        }
        handoff
    }

    /// Current occupancy of `ring`.
    pub fn occupancy(&self, ring: usize) -> usize {
        self.rings[ring].len()
    }

    /// Packets currently queued across all rings.
    pub fn total_occupancy(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Tail drops recorded on `ring`.
    pub fn drops(&self, ring: usize) -> u64 {
        self.rings[ring].drops
    }

    /// Tail drops across all rings.
    pub fn total_drops(&self) -> u64 {
        self.rings.iter().map(|r| r.drops).sum()
    }

    /// Packets shed by the CoDel drop law on `ring`.
    pub fn aqm_drops(&self, ring: usize) -> u64 {
        self.aqm_dropped[ring]
    }

    /// Packets shed by the CoDel drop law across all rings.
    pub fn total_aqm_drops(&self) -> u64 {
        self.aqm_dropped.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic(n: usize, cap: usize) -> MultiQueueNic<u64> {
        MultiQueueNic::new(NicConfig {
            ring_capacity: cap,
            ..NicConfig::for_workers(n)
        })
    }

    #[test]
    fn steers_by_rss_and_counts() {
        let mut n = nic(4, 64);
        let mut seen = [0u64; 4];
        for port in 0..64u16 {
            let r = n
                .enqueue_flow(
                    Nanos::ZERO,
                    0x0a00_0001,
                    0x0a00_0002,
                    20_000 + port,
                    11_211,
                    port as u64,
                )
                .expect("rings not full");
            assert_eq!(
                r,
                n.hasher()
                    .ring_for_flow(0x0a00_0001, 0x0a00_0002, 20_000 + port, 11_211)
            );
            seen[r] += 1;
        }
        assert_eq!(n.enqueued, 64);
        assert_eq!(seen.iter().sum::<u64>(), 64);
        assert_eq!(n.total_occupancy(), 64 - n.total_drops() as usize);
    }

    #[test]
    fn hashed_enqueue_matches_flow_enqueue() {
        let mut by_flow = nic(4, 8);
        let mut by_hash = nic(4, 8);
        for port in 0..40u16 {
            let flow = (0x0a00_0001, 0x0a00_0002, 20_000 + port, 11_211u16);
            let hash = by_hash.hasher().hash_flow(flow.0, flow.1, flow.2, flow.3);
            let a = by_flow.enqueue_flow(
                Nanos(port as u64),
                flow.0,
                flow.1,
                flow.2,
                flow.3,
                port as u64,
            );
            let b = by_hash.enqueue_hashed(Nanos(port as u64), hash, port as u64);
            assert_eq!(a, b, "port {port} steered differently");
        }
        assert_eq!(by_flow.enqueued, by_hash.enqueued);
        for r in 0..4 {
            assert_eq!(by_flow.occupancy(r), by_hash.occupancy(r));
            assert_eq!(by_flow.drops(r), by_hash.drops(r));
            let (mut oa, mut ob) = (Vec::new(), Vec::new());
            let mut shed = Vec::new();
            by_flow.drain(Nanos(100), r, 64, &mut oa, &mut shed);
            by_hash.drain(Nanos(100), r, 64, &mut ob, &mut shed);
            assert_eq!(oa, ob, "ring {r} contents diverged");
        }
    }

    #[test]
    fn full_ring_tail_drops_and_reports_the_ring() {
        let mut n = nic(1, 2);
        let t = Nanos::ZERO;
        assert!(n.enqueue_flow(t, 1, 2, 3, 4, 10).is_ok());
        assert!(n.enqueue_flow(t, 1, 2, 3, 4, 11).is_ok());
        assert_eq!(n.enqueue_flow(t, 1, 2, 3, 4, 12), Err(0));
        assert_eq!(n.total_drops(), 1);
        assert_eq!(n.enqueued, 2);
        // FIFO drain skips the dropped datagram entirely.
        let (mut out, mut shed) = (Vec::new(), Vec::new());
        assert_eq!(n.drain(t, 0, 8, &mut out, &mut shed), 2);
        assert_eq!(out, vec![(t, 10), (t, 11)]);
        assert!(shed.is_empty());
        assert_eq!(n.polled, 2);
    }

    #[test]
    fn drain_respects_burst_size() {
        let mut n = nic(1, 16);
        for i in 0..10 {
            n.enqueue_flow(Nanos(i), 1, 2, 3, 4, i).unwrap();
        }
        let (mut out, mut shed) = (Vec::new(), Vec::new());
        assert_eq!(n.drain(Nanos(100), 0, 4, &mut out, &mut shed), 4);
        assert_eq!(n.occupancy(0), 6);
        let vals: Vec<u64> = out.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        // Timestamps come back exactly as stamped at enqueue.
        assert_eq!(out[2].0, Nanos(2));
    }

    #[test]
    fn codel_sheds_aged_packets_without_eating_the_burst() {
        use crate::overload::CodelConfig;
        let mut n = nic(1, 64);
        n.set_codel(CodelConfig {
            target: Nanos::from_us(25),
            interval: Nanos::from_us(100),
        });
        // 40 packets enqueued at t=0, drained in bursts of 8 far later:
        // every sojourn is way above target, so once the first interval
        // has passed the drop law starts shedding.
        for i in 0..40u64 {
            n.enqueue_flow(Nanos::ZERO, 1, 2, 3, 4, i).unwrap();
        }
        let (mut out, mut shed) = (Vec::new(), Vec::new());
        let mut now = Nanos::from_us(500);
        while n.occupancy(0) > 0 {
            n.drain(now, 0, 8, &mut out, &mut shed);
            now += Nanos::from_us(50);
        }
        assert!(!shed.is_empty(), "sustained overload never shed");
        assert_eq!(n.total_aqm_drops(), shed.len() as u64);
        // Every packet is accounted exactly once, in arrival order.
        assert_eq!(out.len() + shed.len(), 40);
        assert_eq!(n.polled, out.len() as u64);
        let mut all: Vec<u64> = out.iter().map(|&(_, v)| v).collect();
        all.extend_from_slice(&shed);
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn codel_quiet_below_target() {
        use crate::overload::CodelConfig;
        let mut n = nic(1, 64);
        n.set_codel(CodelConfig::default());
        let (mut out, mut shed) = (Vec::new(), Vec::new());
        let mut now = Nanos::ZERO;
        for i in 0..500u64 {
            n.enqueue_flow(now, 1, 2, 3, 4, i).unwrap();
            // Drained almost immediately: sojourn 1µs, far below target.
            now += Nanos::from_us(1);
            n.drain(now, 0, 8, &mut out, &mut shed);
        }
        assert!(
            shed.is_empty(),
            "AQM shed {} uncongested packets",
            shed.len()
        );
        assert_eq!(n.total_aqm_drops(), 0);
    }

    #[test]
    fn oldest_sojourn_tracks_the_head() {
        let mut n = nic(1, 8);
        assert_eq!(n.oldest_sojourn(0, Nanos(100)), None);
        n.enqueue_flow(Nanos(100), 1, 2, 3, 4, 1).unwrap();
        n.enqueue_flow(Nanos(400), 1, 2, 3, 4, 2).unwrap();
        assert_eq!(n.oldest_sojourn(0, Nanos(600)), Some(Nanos(500)));
        let (mut out, mut shed) = (Vec::new(), Vec::new());
        n.drain(Nanos(600), 0, 1, &mut out, &mut shed);
        assert_eq!(n.oldest_sojourn(0, Nanos(600)), Some(Nanos(200)));
    }

    #[test]
    fn poller_clock_serializes_bursts() {
        let mut n = nic(1, 16);
        // First burst of 4 from t=0: done at 4 * RX_POLL_COST.
        let d1 = n.poller_admit_on(Nanos::ZERO, 0, 4, Nanos::ZERO);
        assert_eq!(d1, RX_POLL_COST * 4);
        // A burst requested at an earlier time still queues behind it.
        let d2 = n.poller_admit_on(Nanos(10), 0, 2, Nanos::ZERO);
        assert_eq!(d2, d1 + RX_POLL_COST * 2);
        // After the poller goes idle, the clock restarts at `now`.
        let late = d2 + Nanos::from_us(5);
        assert_eq!(
            n.poller_admit_on(late, 0, 1, Nanos::ZERO),
            late + RX_POLL_COST
        );
    }

    #[test]
    fn adaptive_poll_cost_is_inert_without_perturbation() {
        let mut n = nic(2, 16);
        assert_eq!(n.poll_cost(0), RX_POLL_COST);
        // With no extra stall the sample equals the estimate, the
        // estimate never drifts, and the clock charges the nominal cost
        // burst for burst across both rings.
        let mut free_at = Nanos::ZERO;
        let mut now = Nanos::ZERO;
        for i in 0..50usize {
            let k = 1 + i % 7;
            let a = n.poller_admit_on(now, i % 2, k, Nanos::ZERO);
            free_at = now.max(free_at) + RX_POLL_COST * k as u64;
            assert_eq!(a, free_at, "burst {i} diverged");
            now += Nanos(130);
        }
        assert_eq!(n.poll_cost(0), RX_POLL_COST);
        assert_eq!(n.poll_cost(1), RX_POLL_COST);
    }

    #[test]
    fn adaptive_poll_cost_tracks_sustained_stalls() {
        let mut n = nic(2, 16);
        // Every 4-packet burst on ring 0 suffers a 400 ns stall: the true
        // per-packet cost is RX_POLL_COST + 100. The EWMA converges
        // toward it from the seed, monotonically, without overshooting.
        let mut now = Nanos::ZERO;
        let mut prev = n.poll_cost(0);
        for _ in 0..200 {
            let handoff = n.poller_admit_on(now, 0, 4, Nanos(400));
            now = handoff + Nanos::from_us(2);
            let est = n.poll_cost(0);
            assert!(est >= prev, "estimate regressed: {est:?} < {prev:?}");
            prev = est;
        }
        let est = n.poll_cost(0);
        assert!(
            est > RX_POLL_COST && est <= RX_POLL_COST + Nanos(100),
            "estimate {est:?} outside (seed, seed+100]"
        );
        // Convergence should get within EWMA quantization of the truth.
        assert!(est >= RX_POLL_COST + Nanos(90), "estimate {est:?} stalled");
        // The untouched ring keeps the seed.
        assert_eq!(n.poll_cost(1), RX_POLL_COST);
    }

    #[test]
    fn adaptive_poll_cost_recovers_after_stalls_stop() {
        let mut n = nic(1, 16);
        let mut now = Nanos::ZERO;
        for _ in 0..200 {
            now = n.poller_admit_on(now, 0, 4, Nanos(400)) + Nanos::from_us(2);
        }
        let inflated = n.poll_cost(0);
        assert!(inflated > RX_POLL_COST);
        for _ in 0..200 {
            now = n.poller_admit_on(now, 0, 4, Nanos::ZERO) + Nanos::from_us(2);
        }
        let recovered = n.poll_cost(0);
        assert!(
            recovered < inflated && recovered <= RX_POLL_COST + Nanos(1),
            "estimate {recovered:?} failed to decay from {inflated:?}"
        );
    }
}
