//! A fixed reference workload that measures how fast the host runs
//! simulator-like code right now, so `setup_s` and `run_s` can be stated
//! at one reference host speed.
//!
//! On a shared VM the simulator's speed for identical work shifts by up
//! to 1.7x between quiet and busy phases of the other tenants, while a
//! latency-bound ALU loop does not move: the slowdown hits cache- and
//! branch-heavy code. This workload is built like a discrete-event
//! simulator (a binary-heap event queue, handlers behind trait objects,
//! 4 MB of state) so it slows down with the simulator. It is the
//! benchmark's own code and does not change with the program, so a
//! change to the program moves the scaled times fully.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The reference workload's fastest time on a quiet 2-vCPU Xeon VM:
/// scaled times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.065;

const EVENTS: usize = 500_000;
const ENTITIES: u32 = 4096;
const TABLE: usize = 1 << 19;

fn xorshift(r: &mut u64) -> u64 {
    *r ^= *r << 13;
    *r ^= *r >> 7;
    *r ^= *r << 17;
    *r
}

trait Handler {
    /// Handles one event at `now`; returns the delay to its next event.
    fn fire(&mut self, now: u64, rng: &mut u64, table: &[u64]) -> u64;
}

struct Accumulate(Vec<u64>);
struct Gather(Vec<u64>);
struct Shuffle(u64, Vec<u32>);

impl Handler for Accumulate {
    fn fire(&mut self, now: u64, rng: &mut u64, table: &[u64]) -> u64 {
        let i = xorshift(rng) as usize % self.0.len();
        self.0[i] = self.0[i].wrapping_add(table[(now as usize ^ i) % TABLE]);
        100 + (self.0[i] & 1023)
    }
}

impl Handler for Gather {
    fn fire(&mut self, now: u64, rng: &mut u64, table: &[u64]) -> u64 {
        let mut s = 0;
        for k in 0..8 {
            s ^= table[xorshift(rng) as usize % TABLE] >> k;
        }
        self.0.push(s ^ now);
        if self.0.len() > 64 {
            self.0.clear();
        }
        50 + (s & 4095)
    }
}

impl Handler for Shuffle {
    fn fire(&mut self, now: u64, rng: &mut u64, _table: &[u64]) -> u64 {
        self.0 = self.0.wrapping_add(now);
        let r = xorshift(rng);
        if r.is_multiple_of(3) {
            self.1.sort_unstable();
        }
        self.1[r as usize % 32] = r as u32;
        10 + (r & 255)
    }
}

/// Runs the reference workload once; returns its host time in seconds
/// (its set-up excluded).
pub fn measure() -> f64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let table: Vec<u64> = (0..TABLE as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut handlers: Vec<Box<dyn Handler>> = (0..ENTITIES as u64)
        .map(|i| -> Box<dyn Handler> {
            match i % 3 {
                0 => Box::new(Accumulate(vec![i; 64])),
                1 => Box::new(Gather(Vec::with_capacity(65))),
                _ => Box::new(Shuffle(0, vec![0; 32])),
            }
        })
        .collect();
    let mut queue = BinaryHeap::new();
    for e in 0..ENTITIES {
        queue.push(Reverse((xorshift(&mut rng) & 65535, e)));
    }
    let t0 = Instant::now();
    for _ in 0..EVENTS {
        let Reverse((now, e)) = queue.pop().expect("every pop pushes one back");
        let delay = handlers[e as usize].fire(now, &mut rng, &table);
        let next = if delay % 8 == 0 {
            xorshift(&mut rng) as u32 % ENTITIES
        } else {
            e
        };
        queue.push(Reverse((now + delay, next)));
    }
    std::hint::black_box(queue.len());
    t0.elapsed().as_secs_f64()
}
