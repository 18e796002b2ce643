//! The original `BinaryHeap`-backed event queue, kept as a differential
//! oracle for the timing-wheel [`crate::EventQueue`].
//!
//! This is the seed implementation, bit-for-bit: events are totally
//! ordered by `(time, seq)`, cancellation marks a generation-checked slot
//! dead, and dead heap entries are skipped on pop. It is compiled only for
//! tests and under the `reference-queue` feature, where property tests
//! drive identical operation sequences through both queues and assert the
//! observable streams match (see `crates/sim` unit tests and the CI
//! feature matrix).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Handle to an event scheduled on a [`ReferenceQueue`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RefToken {
    slot: u32,
    generation: u32,
}

struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A time-ordered queue of events of type `E`, heap-backed.
pub struct ReferenceQueue<E> {
    now: Nanos,
    seq: u64,
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        ReferenceQueue {
            now: Nanos::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of live (non-cancelled) scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: Nanos, event: E) -> RefToken {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.payload = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(event),
                });
                s
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
        self.live += 1;
        RefToken { slot, generation }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Nanos, event: E) -> RefToken {
        let at = self.now + delay;
        self.schedule(at, event)
    }

    /// Cancels a scheduled event; `None` if already fired/cancelled/stale.
    pub fn cancel(&mut self, token: RefToken) -> Option<E> {
        let sl = self.slots.get_mut(token.slot as usize)?;
        if sl.generation != token.generation {
            return None;
        }
        let payload = sl.payload.take()?;
        self.live -= 1;
        Some(payload)
    }

    /// Returns the timestamp of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.skim_dead();
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Removes and returns the next live event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        loop {
            let Reverse((t, _, slot)) = self.heap.pop()?;
            let sl = &mut self.slots[slot as usize];
            if let Some(ev) = sl.payload.take() {
                sl.generation = sl.generation.wrapping_add(1);
                self.free.push(slot);
                self.live -= 1;
                debug_assert!(t >= self.now);
                self.now = t;
                return Some((t, ev));
            }
            // Cancelled entry: recycle its slot and keep looking.
            sl.generation = sl.generation.wrapping_add(1);
            self.free.push(slot);
        }
    }

    /// [`ReferenceQueue::pop`], but only if the next live event fires
    /// strictly before `deadline` (mirrors
    /// [`crate::EventQueue::pop_before`]).
    pub fn pop_before(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        match self.peek_time() {
            Some(t) if t < deadline => self.pop(),
            _ => None,
        }
    }

    /// Serial definition of [`crate::EventQueue::pop_batch`]: repeated
    /// [`ReferenceQueue::pop_before`] while the timestamp stays constant.
    /// This *is* the batch-path specification — the wheel's bucket-walk
    /// fast path is held to this loop by the differential proptests.
    pub fn pop_batch(&mut self, deadline: Nanos, out: &mut Vec<E>) -> Option<Nanos> {
        out.clear();
        let (at, first) = self.pop_before(deadline)?;
        out.push(first);
        while self.peek_time() == Some(at) {
            let (_, ev) = self.pop().expect("peeked live event");
            out.push(ev);
        }
        Some(at)
    }

    /// Advances the clock to `t` if it is in the future.
    pub fn advance_to(&mut self, t: Nanos) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Drops cancelled entries from the top of the heap so `peek_time` sees
    /// a live event.
    fn skim_dead(&mut self) {
        while let Some(Reverse((_, _, slot))) = self.heap.peek() {
            let sl = &mut self.slots[*slot as usize];
            if sl.payload.is_some() {
                break;
            }
            sl.generation = sl.generation.wrapping_add(1);
            self.free.push(*slot);
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod differential_tests {
    //! Differential property tests: the timing-wheel
    //! [`crate::EventQueue`] must be observationally identical to this
    //! reference queue under arbitrary interleavings of `schedule`,
    //! `schedule_after`, `cancel`, `reschedule`, `pop`, `pop_before`,
    //! `pop_batch` and `peek_time` — same `(time, payload)` stream, same
    //! `len`, same clock, same cancel results (token semantics included).
    //! The oracle for `reschedule` is `cancel` + `schedule`.

    use super::*;
    use crate::{BatchSlot, EventQueue, Token};
    use proptest::prelude::*;

    /// A reschedule target `delta`-ish after `now`: near enough to land in
    /// `cur` or level 0, anywhere in the wheel, or in the overflow heap.
    fn target(now: Nanos, delta: u64, k: usize) -> Nanos {
        Nanos(
            now.0
                + match k % 3 {
                    0 => delta % 1_024,
                    1 => delta % 100_000,
                    _ => delta,
                },
        )
    }

    /// Reschedules payload `p`'s event on both queues and checks they agree
    /// on whether it was still pending. Returns the moved payload.
    fn reschedule_both(
        wheel: &mut EventQueue<u64>,
        heap: &mut ReferenceQueue<u64>,
        tokens: &mut [(Token, RefToken)],
        p: usize,
        at: Nanos,
    ) -> Option<u64> {
        let (tw, th) = tokens[p];
        let moved = wheel.reschedule(tw, at);
        let cancelled = heap.cancel(th);
        prop_assert_eq!(moved.is_some(), cancelled.is_some());
        if let (Some(nw), Some(payload)) = (moved, cancelled) {
            prop_assert_eq!(payload, p as u64);
            tokens[p] = (nw, heap.schedule(at, payload));
        }
        cancelled
    }

    /// Payloads the oracle still holds at exactly `at`, in pop order: the
    /// rest of a batch whose head was just popped.
    fn pending_at(heap: &ReferenceQueue<u64>, at: Nanos) -> Vec<u64> {
        let mut v: Vec<(u64, u64)> = heap
            .heap
            .iter()
            .filter(|Reverse((t, _, _))| *t == at)
            .filter_map(|Reverse((_, seq, slot))| {
                heap.slots[*slot as usize].payload.map(|p| (*seq, p))
            })
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, p)| p).collect()
    }

    proptest! {
        #[test]
        fn wheel_matches_reference_heap(
            ops in prop::collection::vec(
                (0u64..11, 0u64..30_000_000_000, 0usize..1024),
                1..250,
            ),
        ) {
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: ReferenceQueue<u64> = ReferenceQueue::new();
            // Indexed by payload: a reschedule replaces its event's entry.
            let mut tokens: Vec<(Token, RefToken)> = Vec::new();
            let mut payload = 0u64;
            let mut claims: Vec<BatchSlot> = Vec::new();
            let mut batch_w: Vec<u64> = Vec::new();
            let mut batch_h: Vec<u64> = Vec::new();

            for &(kind, delta, k) in &ops {
                match kind {
                    // Absolute schedule; deltas span every wheel level
                    // plus the overflow heap.
                    0 => {
                        let at = Nanos(wheel.now().0 + delta);
                        let tw = wheel.schedule(at, payload);
                        let th = heap.schedule(at, payload);
                        tokens.push((tw, th));
                        payload += 1;
                    }
                    // Near-future absolute schedule (the common case).
                    1 => {
                        let at = Nanos(wheel.now().0 + delta % 100_000);
                        let tw = wheel.schedule(at, payload);
                        let th = heap.schedule(at, payload);
                        tokens.push((tw, th));
                        payload += 1;
                    }
                    // Quantized schedule: heavy same-timestamp collisions
                    // so `pop_batch` regularly sees multi-event batches.
                    2 => {
                        let at = Nanos(wheel.now().0 + (delta % 8) * 1_000);
                        let tw = wheel.schedule(at, payload);
                        let th = heap.schedule(at, payload);
                        tokens.push((tw, th));
                        payload += 1;
                    }
                    // Relative schedule.
                    3 => {
                        let d = Nanos(delta % 5_000);
                        let tw = wheel.schedule_after(d, payload);
                        let th = heap.schedule_after(d, payload);
                        tokens.push((tw, th));
                        payload += 1;
                    }
                    // Cancel an arbitrary issued token, possibly stale.
                    4 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let (tw, th) = tokens[k % tokens.len()];
                        prop_assert_eq!(wheel.cancel(tw), heap.cancel(th));
                    }
                    5 => {
                        prop_assert_eq!(wheel.pop(), heap.pop());
                    }
                    // Deadline-bounded pop.
                    6 => {
                        let deadline = Nanos(wheel.now().0 + 1 + delta % 1_000_000);
                        prop_assert_eq!(
                            wheel.pop_before(deadline),
                            heap.pop_before(deadline)
                        );
                    }
                    // Same-timestamp batch drain: the wheel's bucket-walk
                    // fast path against the oracle's loop of serial pops.
                    7 => {
                        let deadline = Nanos(wheel.now().0 + 1 + delta % 1_000_000);
                        prop_assert_eq!(
                            wheel.pop_batch(deadline, &mut claims),
                            heap.pop_batch(deadline, &mut batch_h)
                        );
                        batch_w.clear();
                        batch_w.extend(
                            claims.drain(..).filter_map(|c| wheel.take_batched(c)),
                        );
                        prop_assert_eq!(&batch_w, &batch_h);
                    }
                    // Reschedule an arbitrary issued token, possibly
                    // stale, into `cur`, any wheel level or the overflow.
                    8 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let at = target(wheel.now(), delta, k);
                        let p = k % tokens.len();
                        reschedule_both(&mut wheel, &mut heap, &mut tokens, p, at);
                    }
                    // A batch whose first handler cancels or reschedules
                    // another event of the same timestamp, which the wheel
                    // has already claimed: that claim must redeem `None`,
                    // exactly as the serial loop never pops the event.
                    9 => {
                        let deadline = Nanos(wheel.now().0 + 1 + delta % 1_000_000);
                        let at_w = wheel.pop_batch(deadline, &mut claims);
                        let head = heap.pop_before(deadline);
                        prop_assert_eq!(at_w, head.map(|(t, _)| t));
                        let Some((at, first)) = head else {
                            continue;
                        };
                        let mut rest = claims.drain(..);
                        prop_assert_eq!(
                            wheel.take_batched(rest.next().expect("batch head")),
                            Some(first)
                        );
                        let same = pending_at(&heap, at);
                        let p = match same.len() {
                            0 => k % tokens.len(),
                            n => same[k % n] as usize,
                        };
                        let touched = if delta % 2 == 0 {
                            let (tw, th) = tokens[p];
                            let cancelled = wheel.cancel(tw);
                            prop_assert_eq!(cancelled, heap.cancel(th));
                            cancelled
                        } else {
                            let to = target(at, delta / 2, k / 3);
                            reschedule_both(&mut wheel, &mut heap, &mut tokens, p, to)
                        };
                        let want: Vec<u64> =
                            same.into_iter().filter(|&q| Some(q) != touched).collect();
                        batch_w.clear();
                        batch_w.extend(rest.filter_map(|c| wheel.take_batched(c)));
                        prop_assert_eq!(&batch_w, &want);
                        for &q in &want {
                            prop_assert_eq!(heap.pop(), Some((at, q)));
                        }
                    }
                    _ => {
                        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    }
                }
                wheel.assert_garbage_free();
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.now(), heap.now());
            }

            // Drain both to the end: the remaining streams must match.
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty());
        }

        #[test]
        fn wheel_stream_is_sorted_and_complete(
            times in prop::collection::vec(0u64..20_000_000_000, 1..300),
        ) {
            let mut q: EventQueue<usize> = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Nanos(t), i);
            }
            let mut got = Vec::new();
            let mut prev: Option<(Nanos, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((pt, pi)) = prev {
                    // Total (time, seq) order; payload == schedule seq here.
                    prop_assert!(t > pt || (t == pt && i > pi));
                }
                prev = Some((t, i));
                got.push(i);
            }
            got.sort_unstable();
            prop_assert_eq!(got, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
