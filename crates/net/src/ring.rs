//! Bounded rings with drop accounting.
//!
//! Models the shared ring buffers between the DPDK polling core and the
//! isolated worker cores (§3.5). Under overload a full ring tail-drops,
//! exactly as a NIC RX queue would. [`crate::dataplane::MultiQueueNic`]
//! owns one `Ring` per worker and is what the load sweeps route through
//! (`Placement::Rss`), so behaviour past saturation is bounded queues plus
//! counted drops rather than unbounded in-simulator spawn queues.

use std::collections::VecDeque;

/// A bounded FIFO ring of `T`.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Items rejected because the ring was full.
    pub drops: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            drops: 0,
        }
    }

    /// Attempts to enqueue; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, item: T) -> bool {
        if self.buf.len() == self.capacity {
            self.drops += 1;
            return false;
        }
        self.buf.push_back(item);
        true
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.buf.pop_front()
    }

    /// The oldest item, without dequeuing it. AQM reads the head's
    /// enqueue timestamp here to compute the sojourn time.
    pub fn front(&self) -> Option<&T> {
        self.buf.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// The fixed capacity this ring was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        for i in 0..3 {
            assert!(r.push(i));
        }
        assert_eq!(r.pop(), Some(0));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn drops_when_full() {
        let mut r = Ring::new(2);
        assert!(r.push(1));
        assert!(r.push(2));
        assert!(r.is_full());
        assert!(!r.push(3));
        assert_eq!(r.drops, 1);
        r.pop();
        assert!(r.push(3));
        assert_eq!(r.drops, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Ring::<u8>::new(0);
    }
}
