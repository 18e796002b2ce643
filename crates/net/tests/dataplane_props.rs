//! Property tests for the NIC data-plane building blocks (§3.5):
//! the bounded RX ring and the RSS indirection table.
//!
//! The ring's contract is what the conservation invariant leans on —
//! every offered item is either delivered in FIFO order or counted as a
//! drop, never both, never neither. The indirection table's contract is
//! what keeps flow-to-core steering stable: hashes map to valid rings,
//! and a table rewrite moves only the entries that were actually
//! remapped.

use proptest::prelude::*;

use skyloft_net::{Ring, RssHasher, INDIRECTION_ENTRIES};

proptest! {
    /// Offered = delivered + dropped, delivery preserves FIFO order, and
    /// occupancy never exceeds capacity, for any interleaving of pushes
    /// and pops.
    #[test]
    fn ring_conserves_and_stays_fifo(
        capacity in 1usize..64,
        ops in prop::collection::vec((0u8..3, 0u64..1_000_000), 1..400),
    ) {
        let mut r: Ring<u64> = Ring::new(capacity);
        let mut offered: Vec<u64> = Vec::new();
        let mut accepted: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        for (op, val) in ops {
            match op {
                // Pushes are twice as likely as pops so full rings occur.
                0 | 1 => {
                    offered.push(val);
                    let was_full = r.is_full();
                    let ok = r.push(val);
                    prop_assert_eq!(ok, !was_full, "push must fail iff full");
                    if ok {
                        accepted.push(val);
                    }
                }
                _ => {
                    if let Some(v) = r.pop() {
                        popped.push(v);
                    } else {
                        prop_assert!(r.is_empty());
                    }
                }
            }
            prop_assert!(r.len() <= capacity, "occupancy above capacity");
            // Conservation at every step: everything offered is either
            // still queued, already delivered, or a counted drop.
            prop_assert_eq!(
                offered.len() as u64,
                (r.len() + popped.len()) as u64 + r.drops,
                "offered != queued + delivered + dropped"
            );
        }
        // Drain: what comes out is exactly the accepted sequence, in order.
        while let Some(v) = r.pop() {
            popped.push(v);
        }
        prop_assert_eq!(popped, accepted, "delivery must be FIFO over accepted items");
        prop_assert_eq!(offered.len() as u64, accepted.len() as u64 + r.drops);
    }

    /// Every hash maps to a ring the hasher was built for, via an
    /// indirection entry the hash's low bits select.
    #[test]
    fn indirection_maps_every_hash_to_a_valid_ring(
        n_rings in 1usize..64,
        hashes in prop::collection::vec(0u32..=u32::MAX, 1..200),
    ) {
        let h = RssHasher::new(n_rings);
        for hash in hashes {
            let ring = h.ring_for_hash(hash);
            prop_assert!(ring < n_rings, "ring {} out of range for {} rings", ring, n_rings);
            prop_assert_eq!(
                ring,
                h.indirection()[(hash as usize) & (INDIRECTION_ENTRIES - 1)] as usize,
                "steering must go through the indirection table"
            );
        }
    }

    /// Rewriting the indirection table moves exactly the remapped
    /// entries: hashes whose entry kept its value keep their ring, hashes
    /// whose entry changed follow the new value.
    #[test]
    fn rewrite_moves_only_remapped_entries(
        n_rings in 2usize..32,
        remap in prop::collection::vec((0usize..INDIRECTION_ENTRIES, 0u16..32), 0..64),
        hashes in prop::collection::vec(0u32..=u32::MAX, 1..200),
    ) {
        let mut h = RssHasher::new(n_rings);
        let before = *h.indirection();
        let mut table = before;
        for (slot, ring) in remap {
            table[slot] = ring % n_rings as u16;
        }
        let mapped_before: Vec<usize> = hashes.iter().map(|&x| h.ring_for_hash(x)).collect();
        h.set_indirection(table);
        for (&hash, &was) in hashes.iter().zip(&mapped_before) {
            let slot = (hash as usize) & (INDIRECTION_ENTRIES - 1);
            let now = h.ring_for_hash(hash);
            if table[slot] == before[slot] {
                prop_assert_eq!(now, was, "unremapped entry {} moved", slot);
            } else {
                prop_assert_eq!(now, table[slot] as usize, "remapped entry {} ignored", slot);
            }
        }
    }
}

mod overload_props {
    use proptest::prelude::*;

    proptest! {
        /// The retry token bucket is a hard budget: under ANY interleaving of
        /// offered requests and adversarial spend attempts (bursts, droughts,
        /// spend-every-chance), retries spent never exceed
        /// `requests * permille / 1000 + burst`.
        #[test]
        fn retry_budget_never_exceeds_bound(
            permille in 0u32..=1000,
            burst in 1u32..64,
            // true = offer a request, false = attempt a retry spend.
            ops in prop::collection::vec(prop::bool::ANY, 1..2000),
        ) {
            use skyloft_net::RetryBudget;
            let mut b = RetryBudget::new(permille, burst);
            let mut requests = 0u64;
            for offer in ops {
                if offer {
                    b.on_request();
                    requests += 1;
                } else {
                    b.try_spend();
                }
                let bound = (requests * u64::from(permille)) / 1000 + u64::from(burst);
                prop_assert!(
                    b.spent() <= bound,
                    "spent {} > bound {} after {} requests",
                    b.spent(), bound, requests
                );
            }
        }

        /// Decorrelated-jitter backoff never leaves its [base, cap] envelope,
        /// for any policy shape and however long the retry storm runs.
        #[test]
        fn backoff_delays_stay_in_envelope(
            base in 1u64..1_000_000,
            extra in 0u64..100_000_000,
            seed in 0u64..=u64::MAX,
            draws in 1usize..200,
        ) {
            use skyloft_net::Backoff;
            use skyloft_sim::Nanos;
            let cap = Nanos(base + extra);
            let mut bo = Backoff::new(Nanos(base), cap, seed);
            for _ in 0..draws {
                let d = bo.next_delay();
                prop_assert!(d >= Nanos(base) && d <= cap, "delay {:?} outside [{}, {:?}]", d, base, cap);
            }
        }

        /// The AQM-equipped NIC conserves datagrams under any interleaving of
        /// enqueues and drains at arbitrary (monotone) times: everything
        /// accepted is delivered, CoDel-shed, or still queued — exactly once,
        /// and in FIFO order within each ring.
        #[test]
        fn codel_nic_conserves_datagrams(
            cap in 2usize..64,
            target_us in 1u64..100,
            interval_us in 10u64..1000,
            ops in prop::collection::vec((prop::bool::ANY, 0u16..4096, 1u64..50_000), 1..500),
        ) {
            use skyloft_net::dataplane::{MultiQueueNic, NicConfig};
            use skyloft_net::{CodelConfig};
            use skyloft_sim::Nanos;
            let mut nic: MultiQueueNic<u64> = MultiQueueNic::new(NicConfig {
                ring_capacity: cap,
                ..NicConfig::for_workers(2)
            });
            nic.set_codel(CodelConfig {
                target: Nanos::from_us(target_us),
                interval: Nanos::from_us(interval_us),
            });
            let mut now = Nanos::ZERO;
            let mut seq = 0u64;
            let (mut out, mut shed) = (Vec::new(), Vec::new());
            let mut tail_dropped = 0u64;
            for (is_enq, port, dt) in ops {
                now += Nanos(dt);
                if is_enq {
                    if nic.enqueue_flow(now, 1, 2, port, 9, seq).is_err() {
                        tail_dropped += 1;
                    }
                    seq += 1;
                } else {
                    for ring in 0..nic.n_rings() {
                        nic.drain(now, ring, 8, &mut out, &mut shed);
                    }
                }
                prop_assert_eq!(
                    seq,
                    out.len() as u64 + shed.len() as u64 + tail_dropped
                        + nic.total_occupancy() as u64,
                    "offered != kept + aqm-shed + tail-dropped + queued"
                );
                prop_assert_eq!(nic.total_aqm_drops(), shed.len() as u64);
            }
            // Final drain far in the future: everything left comes out (kept
            // or shed), and each datagram appears exactly once overall.
            now += Nanos::from_ms(100);
            while nic.total_occupancy() > 0 {
                for ring in 0..nic.n_rings() {
                    nic.drain(now, ring, 8, &mut out, &mut shed);
                }
                now += Nanos::from_us(100);
            }
            let mut all: Vec<u64> = out.iter().map(|&(_, v)| v).collect();
            all.extend_from_slice(&shed);
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len() as u64, seq - tail_dropped, "lost or duplicated datagrams");
        }
    }
}
