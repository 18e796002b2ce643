//! Cancellable, deterministic event queue backed by a hierarchical timing
//! wheel.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is a
//! monotonically increasing counter assigned at scheduling time, so two
//! events at the same timestamp fire in scheduling order — this makes every
//! run with the same seed bit-identical, which the experiment harness relies
//! on.
//!
//! # Why a wheel
//!
//! Almost every event a Skyloft machine schedules is near-future: quantum
//! checks and §3.2 self-IPI re-arms land ~30 μs out, NIC arrivals a few μs
//! out, timer ticks 10 μs out. A binary heap pays `O(log n)` twice per
//! event for what is effectively insertion into a short sliding window. The
//! wheel makes `schedule` an `O(1)` bucket push and amortizes ordering into
//! one small sort per bucket drain:
//!
//! * time is divided into **granules** of 2^[`GSHIFT`] ns (512 ns);
//! * [`LEVELS`] levels of [`SLOTS`] buckets each cover granule deltas of
//!   `64^(l+1)`, giving the wheel a total span of 2^24 granules (~8.6 s of
//!   virtual time) — events beyond the span park in an overflow heap;
//! * a drained bucket is sorted by the unique `(time, seq)` key into `cur`
//!   (descending, so popping from the back yields ascending order), which
//!   makes the pop order independent of bucket insertion order and keeps
//!   the old heap's deterministic contract bit-for-bit.
//!
//! The wheel holds only live entries. Every payload slot records where its
//! entry is parked — a bucket and an index, the sorted window `cur`, the
//! overflow heap, or claimed by a batch — so [`EventQueue::cancel`] unlinks
//! the entry and frees the slot at once: O(1) in a bucket (a `swap_remove`
//! plus one index fix), a scan from the back and a removal in `cur`, where
//! the cost grows with the entry's distance from the back.
//! [`EventQueue::reschedule`] unlinks an entry and parks it at its new time
//! without its payload leaving the slot: the per-tick pattern of pushing a
//! running segment's end out by the interrupt-handler cost. Pop,
//! peek, drain and cascade therefore never meet a dead entry and skip
//! nothing. The one exception is the overflow heap, whose entries cannot be
//! unlinked: a cancelled overflow entry stays behind as a tombstone and
//! keeps its slot reserved until it pops, so it can never be mistaken for a
//! later event in the same slot. A slot's generation is bumped whenever it
//! is freed or its event rescheduled, so a stale [`Token`] or [`BatchSlot`]
//! never touches a later event.
//!
//! The previous `BinaryHeap` implementation survives as
//! [`crate::reference::ReferenceQueue`] (test builds and the
//! `reference-queue` feature) and serves as the differential oracle for the
//! wheel's property tests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// log2 of the granule size in nanoseconds (512 ns granules).
const GSHIFT: u32 = 9;
/// log2 of the slot count per level.
const LSHIFT: u32 = 6;
/// Buckets per level.
const SLOTS: u64 = 1 << LSHIFT;
/// Wheel levels; level `l` buckets granule deltas below `64^(l+1)`.
const LEVELS: usize = 4;
/// Total wheel span in granules; events further out go to the overflow
/// heap.
const SPAN: u64 = 1 << (LSHIFT * LEVELS as u32);

#[inline]
fn granule(at: Nanos) -> u64 {
    at.0 >> GSHIFT
}

/// Handle to a scheduled event, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Token {
    slot: u32,
    generation: u32,
}

/// Where a slot's entry is parked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// On the free list.
    Free,
    /// At `buckets[bucket][index]`.
    Bucket { bucket: u16, index: u32 },
    /// In the sorted window `cur`.
    Cur,
    /// In the overflow heap.
    Overflow,
    /// A cancelled overflow entry: the slot stays reserved until its heap
    /// entry pops.
    Tombstone,
    /// Drained by [`EventQueue::pop_batch`], awaiting
    /// [`EventQueue::take_batched`].
    Claimed,
}

struct Slot<E> {
    generation: u32,
    loc: Loc,
    payload: Option<E>,
}

/// A claim on one event drained by [`EventQueue::pop_batch`].
///
/// The underlying payload slot stays live (and cancellable or
/// reschedulable through its [`Token`]) until the claim is redeemed with
/// [`EventQueue::take_batched`]. The claim carries the slot generation, so
/// once its event is cancelled or rescheduled it redeems `None`, even
/// after the slot is reused. Deliberately not `Copy`/`Clone`: each claim
/// must be redeemed exactly once, and move semantics make
/// double-redemption a compile error.
#[derive(Debug)]
pub struct BatchSlot {
    slot: u32,
    generation: u32,
}

/// A parked `(time, seq)` key plus the payload slot it refers to.
#[derive(Clone, Copy, Debug)]
struct Entry {
    at: Nanos,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

/// A time-ordered queue of events of type `E`.
pub struct EventQueue<E> {
    now: Nanos,
    seq: u64,
    /// Granule watermark: every pending entry with `granule < focus` has
    /// been moved into `cur`. The focus only ever advances; it may run
    /// ahead of `now` (peeking materializes the next bucket), which is why
    /// `schedule` must accept times below the focus and sort them into
    /// `cur` directly.
    focus: u64,
    /// The materialized near-future window, sorted by `(time, seq)`
    /// descending so `pop` is a `Vec::pop` from the back.
    cur: Vec<Entry>,
    /// `LEVELS × SLOTS` buckets, flattened level-major.
    buckets: Vec<Vec<Entry>>,
    /// Entries parked per level.
    counts: [usize; LEVELS],
    /// Events beyond the wheel span, plus the tombstones of cancelled ones.
    overflow: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            now: Nanos::ZERO,
            seq: 0,
            focus: 0,
            cur: Vec::new(),
            buckets: (0..LEVELS * SLOTS as usize).map(|_| Vec::new()).collect(),
            counts: [0; LEVELS],
            overflow: BinaryHeap::new(),
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
    /// Panics if `at` is before the current time: the simulation cannot
    /// travel backwards.
    pub fn schedule(&mut self, at: Nanos, event: E) -> Token {
        self.assert_not_past(at);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].payload = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    loc: Loc::Free,
                    payload: Some(event),
                });
                s
            }
        };
        self.live += 1;
        let seq = self.next_seq();
        self.insert_entry(Entry { at, seq, slot });
        Token {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Nanos, event: E) -> Token {
        let at = self.now + delay;
        self.schedule(at, event)
    }

    /// Cancels a scheduled event, unlinking it and freeing its slot.
    /// Returns the payload if the event was still pending, or `None` if it
    /// already fired, was already cancelled, or the token is stale.
    pub fn cancel(&mut self, token: Token) -> Option<E> {
        let slot = token.slot;
        let sl = self.slots.get_mut(slot as usize)?;
        if sl.generation != token.generation || sl.payload.is_none() {
            return None;
        }
        self.live -= 1;
        match sl.loc {
            Loc::Overflow => sl.loc = Loc::Tombstone,
            loc => {
                self.unlink(slot, loc);
                self.free_slot(slot);
            }
        }
        // Taken last: a payload held across the unlink is spilled, and
        // the spill costs more than the unlink.
        self.slots[slot as usize].payload.take()
    }

    /// Moves a pending event to fire at `at` instead. The semantics are
    /// those of [`EventQueue::cancel`] followed by
    /// [`EventQueue::schedule`]: the event takes a fresh sequence number,
    /// and the old token and any [`BatchSlot`] claim on it go stale. But
    /// the payload stays in its slot (unless the event was parked in the
    /// overflow heap, which leaves a tombstone holding the old slot).
    /// Returns the new token, or `None` — scheduling nothing — if the
    /// event already fired, was cancelled, or the token is stale.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn reschedule(&mut self, token: Token, at: Nanos) -> Option<Token> {
        self.assert_not_past(at);
        let slot = token.slot;
        let sl = self.slots.get_mut(slot as usize)?;
        if sl.generation != token.generation || sl.payload.is_none() {
            return None;
        }
        let loc = sl.loc;
        if loc == Loc::Overflow {
            let event = self.cancel(token).expect("live overflow entry");
            return Some(self.schedule(at, event));
        }
        sl.generation = sl.generation.wrapping_add(1);
        let generation = sl.generation;
        self.unlink(slot, loc);
        let seq = self.next_seq();
        self.insert_entry(Entry { at, seq, slot });
        Some(Token { slot, generation })
    }

    /// Returns the timestamp of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.head().map(|e| e.at)
    }

    /// Removes and returns the next live event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let e = self.head()?;
        Some(self.fire(e))
    }

    /// [`EventQueue::pop`], but only if the next live event fires strictly
    /// before `deadline` — the single-pass form of peek-compare-pop that
    /// the [`crate::run_until`] driver loop runs per event.
    pub fn pop_before(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        let e = self.head().filter(|e| e.at < deadline)?;
        Some(self.fire(e))
    }

    /// Drains *every* pending entry sharing the minimum live timestamp
    /// (strictly before `deadline`) into `out`, in `(time, seq)` order,
    /// advances the clock to that timestamp, and returns it. `out` is
    /// cleared first — callers keep one scratch buffer alive across calls
    /// so the batch path never allocates in steady state.
    ///
    /// The drained [`BatchSlot`]s are *claims*, not payloads: each must be
    /// redeemed exactly once with [`EventQueue::take_batched`], which
    /// yields the event — or `None` if it was cancelled or rescheduled in
    /// the meantime. This indirection is what makes batching
    /// decision-identical to a serial [`EventQueue::pop_before`] loop: a
    /// handler that cancels a later event *of the same timestamp* (a
    /// preemption cancelling the pending segment completion) still hits a
    /// live, cancellable slot, exactly as it would were the event still
    /// parked in the wheel.
    ///
    /// Cost-wise the batch pays the deadline compare, wheel re-probe, and
    /// refill check once per *batch* instead of once per event: same
    /// timestamp ⇒ same granule ⇒ same level-0 bucket, so after the head
    /// probe the remaining batch entries are contiguous at the tail of the
    /// materialized window and the drain is a straight run of `Vec::pop`s.
    /// Equivalence with the serial loop is pinned by the `reference-queue`
    /// differential proptests.
    pub fn pop_batch(&mut self, deadline: Nanos, out: &mut Vec<BatchSlot>) -> Option<Nanos> {
        out.clear();
        let at = self.head().filter(|e| e.at < deadline)?.at;
        debug_assert!(at >= self.now);
        self.now = at;
        loop {
            while let Some(e) = self.cur.last() {
                if e.at != at {
                    return Some(at);
                }
                let slot = e.slot;
                self.cur.pop();
                let sl = &mut self.slots[slot as usize];
                sl.loc = Loc::Claimed;
                out.push(BatchSlot {
                    slot,
                    generation: sl.generation,
                });
            }
            // The window emptied on a batch boundary. A refill cannot
            // surface an earlier key (the head probe saw the global
            // minimum), so continue only while the next granule still
            // holds entries at exactly `at`.
            if !self.refill() {
                return Some(at);
            }
        }
    }

    /// Redeems one [`BatchSlot`] drained by [`EventQueue::pop_batch`]:
    /// returns the event, or `None` if it was cancelled or rescheduled
    /// after the batch was drained. Each slot must be redeemed exactly once
    /// (enforced by move semantics — [`BatchSlot`] is not `Copy`).
    pub fn take_batched(&mut self, claim: BatchSlot) -> Option<E> {
        let sl = &self.slots[claim.slot as usize];
        if sl.generation != claim.generation {
            return None;
        }
        debug_assert_eq!(sl.loc, Loc::Claimed);
        Some(self.release(claim.slot))
    }

    /// Advances the clock to `t` if it is in the future (used by drivers
    /// when a deadline passes with no event).
    pub fn advance_to(&mut self, t: Nanos) {
        if t > self.now {
            self.now = t;
        }
    }

    fn assert_not_past(&self, at: Nanos) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// The next entry in `(time, seq)` order, refilling `cur` if it ran
    /// dry.
    #[inline]
    fn head(&mut self) -> Option<Entry> {
        if self.cur.is_empty() && !self.refill() {
            return None;
        }
        self.cur.last().copied()
    }

    /// Pops the head entry `e` off `cur`, advances the clock to it, and
    /// returns its event.
    #[inline]
    fn fire(&mut self, e: Entry) -> (Nanos, E) {
        self.cur.pop();
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        (e.at, self.release(e.slot))
    }

    /// Takes the payload of an entry that left the queue and frees its
    /// slot.
    #[inline]
    fn release(&mut self, slot: u32) -> E {
        self.free_slot(slot);
        self.live -= 1;
        self.slots[slot as usize]
            .payload
            .take()
            .expect("parked entries are live")
    }

    /// Bumps a slot's generation and returns it to the free list.
    #[inline]
    fn free_slot(&mut self, slot: u32) {
        let sl = &mut self.slots[slot as usize];
        sl.generation = sl.generation.wrapping_add(1);
        sl.loc = Loc::Free;
        self.free.push(slot);
    }

    /// Removes `slot`'s entry from `loc`, the bucket or `cur` it is parked
    /// in; a claimed entry has already left the wheel.
    fn unlink(&mut self, slot: u32, loc: Loc) {
        match loc {
            Loc::Bucket { bucket, index } => {
                let list = &mut self.buckets[bucket as usize];
                list.swap_remove(index as usize);
                if let Some(moved) = list.get(index as usize) {
                    self.slots[moved.slot as usize].loc = Loc::Bucket { bucket, index };
                }
                self.counts[bucket as usize >> LSHIFT] -= 1;
            }
            Loc::Cur => {
                // Both the scan and the removal cost the entry's distance
                // from the back, where the soonest entries sit: O(|cur|)
                // at worst.
                let i = self
                    .cur
                    .iter()
                    .rposition(|e| e.slot == slot)
                    .expect("entry parked in cur");
                self.cur.remove(i);
            }
            Loc::Claimed => {}
            loc => unreachable!("unlinking a slot parked at {loc:?}"),
        }
    }

    /// Parks an entry at the right place for its distance from the focus:
    /// into `cur` (sorted) when its granule is already below the focus,
    /// into the overflow heap beyond the wheel span, else into the wheel
    /// bucket whose level covers the distance. Records the place in the
    /// entry's slot.
    fn insert_entry(&mut self, e: Entry) {
        let g = granule(e.at);
        let loc = if g < self.focus {
            let key = e.key();
            let idx = self.cur.partition_point(|x| x.key() > key);
            self.cur.insert(idx, e);
            Loc::Cur
        } else if g - self.focus >= SPAN {
            self.overflow.push(Reverse((e.at, e.seq, e.slot)));
            Loc::Overflow
        } else {
            let level = match g - self.focus {
                d if d < SLOTS => 0,
                d if d < SLOTS * SLOTS => 1,
                d if d < SLOTS * SLOTS * SLOTS => 2,
                _ => 3,
            };
            let b =
                level * SLOTS as usize + ((g >> (LSHIFT * level as u32)) & (SLOTS - 1)) as usize;
            let list = &mut self.buckets[b];
            list.push(e);
            self.counts[level] += 1;
            Loc::Bucket {
                bucket: b as u16,
                index: (list.len() - 1) as u32,
            }
        };
        self.slots[e.slot as usize].loc = loc;
    }

    /// Drains level-0 bucket `b` into `cur` and sorts it descending by
    /// `(time, seq)`.
    fn drain_level0(&mut self, b: usize) {
        let list = &mut self.buckets[b];
        self.counts[0] -= list.len();
        for e in list.drain(..) {
            self.slots[e.slot as usize].loc = Loc::Cur;
            self.cur.push(e);
        }
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }

    /// Re-places every entry parked in bucket `b` of `level` relative to
    /// the (just advanced) focus.
    fn cascade(&mut self, level: usize, idx: usize) {
        let b = level * SLOTS as usize + idx;
        if self.buckets[b].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.buckets[b]);
        self.counts[level] -= list.len();
        for e in list.drain(..) {
            self.insert_entry(e);
        }
        self.buckets[b] = list;
    }

    /// Moves the focus forward to `new`, cascading the destination's
    /// higher-level buckets (top level first, so re-placed entries land in
    /// buckets that are themselves cascaded next).
    fn enter(&mut self, new: u64) {
        let old = self.focus;
        debug_assert!(new > old);
        self.focus = new;
        for level in (1..LEVELS).rev() {
            let sh = LSHIFT * level as u32;
            if (old >> sh) != (new >> sh) {
                self.cascade(level, ((new >> sh) & (SLOTS - 1)) as usize);
            }
        }
    }

    /// Scans `level`'s buckets within its parent window, strictly after the
    /// bucket holding the focus (that one was cascaded on entry). On a hit
    /// the focus enters the found window; returns whether anything was
    /// found.
    fn scan_upper(&mut self, level: usize) -> bool {
        let sh = LSHIFT * level as u32;
        let cur_slot = self.focus >> sh;
        let end = cur_slot | (SLOTS - 1);
        for s in (cur_slot + 1)..=end {
            let b = level * SLOTS as usize + (s & (SLOTS - 1)) as usize;
            if !self.buckets[b].is_empty() {
                self.enter(s << sh);
                return true;
            }
        }
        false
    }

    /// Refills `cur` with the next non-empty granule's entries, advancing
    /// the focus across wheel levels and the overflow heap as needed.
    /// Returns `false` when nothing is pending anywhere.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        loop {
            // Overflow entries the advancing focus has brought within the
            // wheel span must re-enter the wheel *before* any same-range
            // wheel entry is chosen, or they would fire out of order.
            while let Some(&Reverse((at, _, _))) = self.overflow.peek() {
                if granule(at) >= self.focus.saturating_add(SPAN) {
                    break;
                }
                let Reverse((at, seq, slot)) = self.overflow.pop().expect("peeked");
                match self.slots[slot as usize].loc {
                    Loc::Overflow => self.insert_entry(Entry { at, seq, slot }),
                    // The slot was held for this tombstone until now.
                    Loc::Tombstone => self.free_slot(slot),
                    loc => unreachable!("overflow entry for a slot parked at {loc:?}"),
                }
            }
            if !self.cur.is_empty() {
                // An overflow entry landed below the focus.
                return true;
            }
            if self.counts[0] > 0 {
                let end = self.focus | (SLOTS - 1);
                for g in self.focus..=end {
                    let b = (g & (SLOTS - 1)) as usize;
                    if !self.buckets[b].is_empty() {
                        // Drain before advancing: `enter(g + 1)` may cross
                        // into the next l1 window and cascade next-window
                        // entries into this same bucket index.
                        self.drain_level0(b);
                        self.enter(g + 1);
                        return true;
                    }
                }
                // Level-0 entries can sit at most one window ahead of the
                // focus that placed them (delta < 64).
                self.enter(end + 1);
                continue;
            }
            let mut advanced = false;
            for level in 1..LEVELS {
                if self.counts[level] == 0 {
                    continue;
                }
                if !self.scan_upper(level) {
                    // All of this level's entries are past the parent
                    // window; step into the next one (the entry cascade
                    // will pull them down).
                    let sh = LSHIFT * (level + 1) as u32;
                    self.enter(((self.focus >> sh) + 1) << sh);
                }
                advanced = true;
                break;
            }
            if advanced {
                continue;
            }
            // Wheel fully empty: jump to the overflow's horizon, if any.
            match self.overflow.peek() {
                Some(&Reverse((at, _, _))) => {
                    // No cascade needed: every wheel bucket is empty.
                    self.focus = granule(at).max(self.focus);
                    debug_assert!(self.counts.iter().all(|&c| c == 0));
                }
                None => return false,
            }
        }
    }
}

/// Test-only views of the queue's storage.
#[cfg(test)]
impl<E> EventQueue<E> {
    /// Entries parked in the buckets, `cur` and the overflow heap
    /// (tombstones included).
    pub(crate) fn parked(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.cur.len() + self.overflow.len()
    }

    /// Asserts the garbage-free invariant: the buckets and `cur` hold only
    /// live entries, each exactly where its slot says it is parked, and
    /// every slot is either live or free (or a reserved tombstone).
    pub(crate) fn assert_garbage_free(&self) {
        let mut per_level = [0usize; LEVELS];
        for (b, list) in self.buckets.iter().enumerate() {
            per_level[b >> LSHIFT] += list.len();
            for (i, e) in list.iter().enumerate() {
                let sl = &self.slots[e.slot as usize];
                assert!(sl.payload.is_some(), "cancelled entry parked in bucket {b}");
                let want = Loc::Bucket {
                    bucket: b as u16,
                    index: i as u32,
                };
                assert_eq!(sl.loc, want, "slot {} misfiled", e.slot);
            }
        }
        assert_eq!(per_level, self.counts);
        for w in self.cur.windows(2) {
            assert!(w[0].key() > w[1].key(), "cur out of order");
        }
        for e in &self.cur {
            let sl = &self.slots[e.slot as usize];
            assert!(sl.payload.is_some(), "cancelled entry parked in cur");
            assert_eq!(sl.loc, Loc::Cur);
        }
        for &s in &self.free {
            let sl = &self.slots[s as usize];
            assert!(sl.loc == Loc::Free && sl.payload.is_none());
        }
        let tombstones = self
            .slots
            .iter()
            .filter(|s| s.loc == Loc::Tombstone)
            .count();
        let live = self.slots.iter().filter(|s| s.payload.is_some()).count();
        assert_eq!(live, self.live);
        assert_eq!(live + tombstones + self.free.len(), self.slots.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), 'c');
        q.schedule(Nanos(10), 'a');
        q.schedule(Nanos(20), 'b');
        let mut out = String::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, "abc");
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos(5), i);
        }
        let mut prev = -1i64;
        while let Some((_, e)) = q.pop() {
            assert!(e as i64 > prev);
            prev = e as i64;
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(42), ());
        assert_eq!(q.now(), Nanos(0));
        q.pop();
        assert_eq!(q.now(), Nanos(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn cannot_schedule_into_past() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), ());
        q.pop();
        q.schedule(Nanos(5), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(Nanos(10), 1);
        q.schedule(Nanos(20), 2);
        assert_eq!(q.cancel(t1), Some(1));
        assert_eq!(q.len(), 1);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_twice_is_none() {
        let mut q = EventQueue::new();
        let t = q.schedule(Nanos(10), 7);
        assert_eq!(q.cancel(t), Some(7));
        assert_eq!(q.cancel(t), None);
    }

    #[test]
    fn stale_token_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(Nanos(10), 1);
        q.pop(); // t1 fires; slot recycled.
        let _t2 = q.schedule(Nanos(20), 2);
        // t1's token points at the recycled slot but the generation differs.
        assert_eq!(q.cancel(t1), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_after_uses_now() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(100), 0);
        q.pop();
        q.schedule_after(Nanos(5), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Nanos(105));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let t = q.schedule(Nanos(10), 1);
        q.schedule(Nanos(20), 2);
        q.cancel(t);
        assert_eq!(q.peek_time(), Some(Nanos(20)));
    }

    #[test]
    fn many_slots_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            let toks: Vec<_> = (0..100)
                .map(|i| q.schedule(Nanos(round * 1000 + i), i))
                .collect();
            for t in toks.iter().step_by(2) {
                q.cancel(*t);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            assert_eq!(n, 50);
        }
        // Slot storage is exactly the in-flight peak: cancel frees its
        // slot at once.
        assert_eq!(q.slots.len(), 100);
        q.assert_garbage_free();
    }

    #[test]
    fn pop_before_stops_at_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), 1);
        q.schedule(Nanos(20), 2);
        q.schedule(Nanos(30), 3);
        assert_eq!(q.pop_before(Nanos(25)), Some((Nanos(10), 1)));
        assert_eq!(q.pop_before(Nanos(25)), Some((Nanos(20), 2)));
        assert_eq!(q.pop_before(Nanos(25)), None);
        // The deadline event is untouched and the clock did not jump.
        assert_eq!(q.now(), Nanos(20));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Nanos(30), 3)));
    }

    #[test]
    fn pop_before_skips_cancelled_at_head() {
        let mut q = EventQueue::new();
        let t = q.schedule(Nanos(10), 1);
        q.schedule(Nanos(20), 2);
        q.cancel(t);
        assert_eq!(q.pop_before(Nanos(100)), Some((Nanos(20), 2)));
        assert_eq!(q.pop_before(Nanos(100)), None);
    }

    #[test]
    fn order_holds_across_wheel_levels_and_overflow() {
        // One event per decade from 1 μs to ~20 s: levels 0–3 plus the
        // overflow heap all participate.
        let times: Vec<u64> = vec![
            1_000,          // level 0
            100_000,        // level 0/1
            1_000_000,      // level 1
            40_000_000,     // level 2
            1_000_000_000,  // level 3
            8_000_000_000,  // level 3 (near span edge)
            20_000_000_000, // overflow
            30_000_000_000, // overflow
        ];
        let mut q = EventQueue::new();
        // Schedule in reverse so wheel placement happens far from pop
        // order.
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(Nanos(t), i);
        }
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.0, i));
        }
        let want: Vec<(u64, usize)> = times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn schedule_below_advanced_focus_still_fires_in_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(1_000_000), 'z');
        // Peeking materializes the far event, advancing the focus well
        // past granule 0 while `now` stays 0.
        assert_eq!(q.peek_time(), Some(Nanos(1_000_000)));
        assert_eq!(q.now(), Nanos(0));
        // New near events must still fire first.
        q.schedule(Nanos(500), 'a');
        q.schedule(Nanos(800), 'b');
        let mut out = String::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, "abz");
    }

    #[test]
    fn cancel_while_parked_in_high_level_bucket() {
        let mut q = EventQueue::new();
        let far = q.schedule(Nanos(50_000_000), 1); // level 2/3
        q.schedule(Nanos(60_000_000), 2);
        assert_eq!(q.cancel(far), Some(1));
        assert_eq!(q.pop(), Some((Nanos(60_000_000), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_pop_and_reschedule_chain() {
        // The self-rescheduling pattern every periodic timer uses.
        let mut q = EventQueue::new();
        q.schedule(Nanos(10_000), 0u64);
        let mut fired = 0u64;
        while let Some((t, n)) = q.pop() {
            fired += 1;
            if fired < 1000 {
                q.schedule(t + Nanos(10_000), n + 1);
            }
        }
        assert_eq!(fired, 1000);
        assert_eq!(q.now(), Nanos(10_000_000));
    }

    /// Drains one batch and redeems every claim, returning the payloads.
    fn redeem_all<E>(q: &mut EventQueue<E>, deadline: Nanos) -> Option<(Nanos, Vec<E>)> {
        let mut batch = Vec::new();
        let at = q.pop_batch(deadline, &mut batch)?;
        let evs = batch.drain(..).filter_map(|s| q.take_batched(s)).collect();
        Some((at, evs))
    }

    #[test]
    fn pop_batch_drains_exactly_the_tied_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(Nanos(100), i);
        }
        q.schedule(Nanos(101), 100); // same granule, later timestamp
        q.schedule(Nanos(900), 200);
        let (at, evs) = redeem_all(&mut q, Nanos(1_000)).unwrap();
        assert_eq!(at, Nanos(100));
        assert_eq!(evs, (0..8).collect::<Vec<_>>());
        assert_eq!(q.now(), Nanos(100));
        assert_eq!(
            redeem_all(&mut q, Nanos(1_000)),
            Some((Nanos(101), vec![100]))
        );
        assert_eq!(
            redeem_all(&mut q, Nanos(1_000)),
            Some((Nanos(900), vec![200]))
        );
        assert_eq!(redeem_all(&mut q, Nanos(1_000)), None);
    }

    #[test]
    fn pop_batch_respects_deadline_and_skips_cancelled() {
        let mut q = EventQueue::new();
        let t = q.schedule(Nanos(10), 1);
        q.schedule(Nanos(10), 2);
        q.schedule(Nanos(10), 3);
        q.schedule(Nanos(25), 4);
        q.cancel(t);
        assert_eq!(redeem_all(&mut q, Nanos(20)), Some((Nanos(10), vec![2, 3])));
        // The event at the deadline stays put, exactly like `pop_before`.
        assert_eq!(redeem_all(&mut q, Nanos(20)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Nanos(25), 4)));
    }

    #[test]
    fn batched_entries_stay_cancellable_until_taken() {
        // The property that makes batching safe for the machine: a handler
        // running mid-batch can still cancel a later event of the *same*
        // timestamp (preemption cancelling a pending segment completion),
        // exactly as if the event were still parked in the wheel.
        let mut q = EventQueue::new();
        let t1 = q.schedule(Nanos(10), 1);
        let t2 = q.schedule(Nanos(10), 2);
        let t3 = q.schedule(Nanos(10), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Nanos(100), &mut batch), Some(Nanos(10)));
        assert_eq!(batch.len(), 3);
        // Cancel the middle event after the batch was drained but before
        // it was redeemed: the cancel must succeed and return the payload.
        assert_eq!(q.cancel(t2), Some(2));
        let got: Vec<_> = batch.drain(..).filter_map(|s| q.take_batched(s)).collect();
        assert_eq!(got, vec![1, 3]);
        // Redeemed slots are recycled, so the original tokens go stale.
        assert_eq!(q.cancel(t1), None);
        assert_eq!(q.cancel(t3), None);
        assert_eq!(q.len(), 0);
        // The queue stays fully usable afterwards (slots were recycled).
        q.schedule(Nanos(20), 9);
        assert_eq!(q.pop(), Some((Nanos(20), 9)));
    }

    #[test]
    fn pop_batch_matches_repeated_pop_across_levels() {
        // Ties scattered over wheel levels and the overflow heap: the
        // concatenation of batches must equal the serial pop sequence.
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..200u64 {
                let t = match i % 5 {
                    0 => 1_000,
                    1 => 1_000_000,
                    2 => 40_000_000,
                    3 => 1_000_000_000,
                    _ => 20_000_000_000,
                };
                q.schedule(Nanos(t + (i % 3) * 512), i);
            }
            q
        };
        let mut serial = build();
        let mut want = Vec::new();
        while let Some((t, e)) = serial.pop() {
            want.push((t, e));
        }
        let mut batched = build();
        let mut got = Vec::new();
        while let Some((at, evs)) = redeem_all(&mut batched, Nanos(u64::MAX)) {
            for e in evs {
                got.push((at, e));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn dense_same_granule_ties_across_refills() {
        let mut q = EventQueue::new();
        // Two dense batches in distinct granules plus a far batch that
        // cascades down later.
        for i in 0..50 {
            q.schedule(Nanos(100 + i % 3), i);
            q.schedule(Nanos(700_000 + i % 3), 100 + i);
        }
        let mut prev = (Nanos(0), -1i64);
        let mut n = 0;
        while let Some((t, e)) = q.pop() {
            // (time, schedule order) must be strictly increasing within a
            // timestamp.
            if t == prev.0 {
                assert!((e as i64) > prev.1, "tie broken out of order");
            }
            assert!(t >= prev.0);
            prev = (t, e as i64);
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn reschedule_moves_the_event_with_a_fresh_seq() {
        let mut q = EventQueue::new();
        let a = q.schedule(Nanos(10), 'a');
        q.schedule(Nanos(20), 'b');
        q.schedule(Nanos(30), 'c');
        // Moved onto `b`'s timestamp, `a` now ties behind it: the fresh
        // sequence number orders it after everything scheduled earlier.
        let a2 = q.reschedule(a, Nanos(20)).unwrap();
        assert_ne!(a, a2);
        assert_eq!(q.cancel(a), None, "the old token is stale");
        assert_eq!(q.reschedule(a, Nanos(40)), None);
        assert_eq!(q.len(), 3);
        q.assert_garbage_free();
        let mut out = String::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, "bac");
        assert_eq!(q.reschedule(a2, Nanos(50)), None, "already fired");
        assert_eq!(q.slots.len(), 3);
    }

    #[test]
    fn reschedule_from_cur_and_every_level() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(1_000_000), 'z');
        // Peeking materializes `z` into `cur` and runs the focus ahead, so
        // `a` lands in `cur` too.
        assert_eq!(q.peek_time(), Some(Nanos(1_000_000)));
        let a = q.schedule(Nanos(500), 'a');
        let b = q.schedule(Nanos(40_000_000), 'b'); // level 2
        let c = q.schedule(Nanos(2_000_000_000), 'c'); // level 3
        q.assert_garbage_free();
        q.reschedule(a, Nanos(3_000_000_000)).unwrap();
        q.reschedule(b, Nanos(600)).unwrap();
        q.reschedule(c, Nanos(900_000)).unwrap();
        q.assert_garbage_free();
        assert_eq!(q.slots.len(), 4);
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            got.push((t.0, e));
            q.assert_garbage_free();
        }
        assert_eq!(
            got,
            vec![
                (600, 'b'),
                (900_000, 'c'),
                (1_000_000, 'z'),
                (3_000_000_000, 'a')
            ]
        );
    }

    #[test]
    fn rescheduled_100k_times_leaves_no_garbage() {
        // The per-tick pattern: one pending segment end pushed out by the
        // handler cost on every tick, while the tick event itself pops and
        // re-arms.
        let mut q = EventQueue::new();
        let mut seg_end = Nanos(5_000);
        let mut seg = q.schedule(seg_end, 0u32);
        q.schedule(Nanos(1_000), 1u32);
        for i in 0..100_000u64 {
            seg_end += Nanos(if i % 3 == 0 { 700 } else { 150 });
            seg = q.reschedule(seg, seg_end).unwrap();
            let (t, e) = q.pop().unwrap();
            assert_eq!(e, 1, "the segment end was always pushed past the tick");
            q.schedule(t + Nanos(300), 1);
        }
        assert_eq!(q.slots.len(), 2);
        assert_eq!(q.parked(), q.len());
        q.assert_garbage_free();
    }

    #[test]
    fn schedule_cancel_storm_leaves_no_garbage() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(100), u64::MAX);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..100_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Near, mid and far: `cur`, the wheel levels and the overflow.
            let at = match i % 4 {
                0 => rng % 2_000,
                1 => rng % 200_000,
                2 => rng % 200_000_000,
                _ => rng % 8_000_000_000,
            };
            let t = q.schedule(Nanos(at), i);
            assert_eq!(q.cancel(t), Some(i));
        }
        assert_eq!(q.slots.len(), 2);
        assert_eq!(q.parked(), q.len());
        q.assert_garbage_free();
        assert_eq!(q.pop(), Some((Nanos(100), u64::MAX)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_overflow_entry_never_pops_after_slot_reuse() {
        let mut q = EventQueue::new();
        let far = q.schedule(Nanos(20_000_000_000), 'x');
        assert_eq!(q.cancel(far), Some('x'));
        // The tombstone holds its slot: a new event takes a fresh one.
        q.schedule(Nanos(20_000_000_000), 'y');
        assert_eq!(q.slots.len(), 2);
        q.assert_garbage_free();
        assert_eq!(q.pop(), Some((Nanos(20_000_000_000), 'y')));
        // Both slots are free again; reuse them at the very same time.
        assert_eq!(q.free.len(), 2);
        q.schedule(Nanos(20_000_000_000), 'z');
        q.schedule(Nanos(30_000_000_000), 'w');
        assert_eq!(q.slots.len(), 2);
        assert_eq!(q.pop(), Some((Nanos(20_000_000_000), 'z')));
        assert_eq!(q.pop(), Some((Nanos(30_000_000_000), 'w')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.cancel(far), None);
        q.assert_garbage_free();
    }

    #[test]
    fn rescheduled_overflow_entry_pops_once() {
        let mut q = EventQueue::new();
        let far = q.schedule(Nanos(20_000_000_000), 'x');
        let near = q.reschedule(far, Nanos(1_000)).unwrap();
        assert_eq!(q.len(), 1);
        q.assert_garbage_free();
        assert_eq!(q.pop(), Some((Nanos(1_000), 'x')));
        assert_eq!(q.cancel(near), None);
        // The tombstone left behind in the overflow heap fires nothing.
        assert_eq!(q.pop(), None);
        assert_eq!(q.parked(), 0);
        q.assert_garbage_free();
    }

    #[test]
    fn claim_goes_stale_on_reschedule_or_cancel() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(Nanos(10), 1);
        let t2 = q.schedule(Nanos(10), 2);
        let t3 = q.schedule(Nanos(10), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Nanos(100), &mut batch), Some(Nanos(10)));
        let mut claims = batch.drain(..);
        assert_eq!(q.take_batched(claims.next().unwrap()), Some(1));
        // The first handler moves the second event and cancels the third;
        // the third's slot is reused at once by a new event.
        let t2 = q.reschedule(t2, Nanos(15)).unwrap();
        assert_eq!(q.cancel(t3), Some(3));
        q.schedule(Nanos(10), 4);
        assert_eq!(q.take_batched(claims.next().unwrap()), None);
        assert_eq!(q.take_batched(claims.next().unwrap()), None);
        drop(claims);
        assert_eq!(q.cancel(t1), None);
        q.assert_garbage_free();
        assert_eq!(q.pop(), Some((Nanos(10), 4)));
        assert_eq!(q.pop(), Some((Nanos(15), 2)));
        assert_eq!(q.cancel(t2), None);
        assert_eq!(q.slots.len(), 3);
    }
}
