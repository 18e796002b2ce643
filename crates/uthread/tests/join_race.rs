//! Regression test for a `JoinHandle::join` race: when the target
//! finished right after the joiner registered, `join` returned without
//! switching out, and the target's pending wake later resumed the joiner
//! while it was blocked elsewhere ("task switched out in state 1"),
//! after which the runtime hung. Run under a timeout so a hang fails the
//! test instead of stalling the suite.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use skyloft_uthread::{spawn, yield_now, Mutex, Runtime};

const WAVES: u64 = 400;
const WAVE: u64 = 64;

#[test]
fn join_survives_targets_finishing_while_it_registers() {
    let counter = Arc::new(Mutex::new(0u64));
    let (tx, rx) = mpsc::channel();
    let c = Arc::clone(&counter);
    let runner = std::thread::spawn(move || {
        Runtime::run(2, move || {
            for wave in 0..WAVES {
                let handles: Vec<_> = (0..WAVE)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        spawn(move || {
                            for _ in 0..(wave + i) % 4 {
                                yield_now();
                            }
                            *c.lock() += 1;
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
            }
        });
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("runtime panicked or hung");
    runner.join().expect("runtime thread panicked");
    assert_eq!(*counter.lock(), WAVES * WAVE);
}
