//! Bounded FIFO queues with occupancy accounting.
//!
//! The LLC Rx ingress queues and the routing-layer arbitration points are
//! bounded; credit-based backpressure exists precisely to keep them from
//! overflowing. [`BoundedFifo`] counts rejects so tests can assert that a
//! correctly credited link never drops.

use std::collections::VecDeque;

/// A FIFO with a hard capacity.
///
/// The capacity is a limit, not a reservation: storage grows on demand
/// up to the deepest the queue has been, so a queue that never fills
/// holds only what it used.
///
/// # Example
///
/// ```
/// use simkit::queue::BoundedFifo;
///
/// let mut q = BoundedFifo::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert!(q.push(3).is_err()); // full: rejected, value handed back
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.rejected(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedFifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    stats: FifoStats,
}

/// Occupancy bookkeeping, split out of the push fast path: `push`
/// inlines to a bounds check plus a `push_back`, and the counter
/// updates sit in cold/batched paths where the optimizer keeps them
/// off the hot loop.
#[derive(Debug, Clone, Copy, Default)]
struct FifoStats {
    rejected: u64,
    high_water: usize,
    total_pushed: u64,
}

impl FifoStats {
    #[inline]
    fn record_push(&mut self, occupancy: usize) {
        self.total_pushed += 1;
        if occupancy > self.high_water {
            self.high_water = occupancy;
        }
    }
}

impl<T> BoundedFifo<T> {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedFifo {
            items: VecDeque::new(),
            capacity,
            stats: FifoStats::default(),
        }
    }

    /// Attempts to enqueue; on a full queue the value is returned in `Err`.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity.
    #[inline]
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(self.reject(item));
        }
        self.items.push_back(item);
        self.stats.record_push(self.items.len());
        Ok(())
    }

    /// The reject path is cold by construction: credit-based
    /// backpressure exists precisely so this never runs on a healthy
    /// link.
    #[cold]
    fn reject(&mut self, item: T) -> T {
        self.stats.rejected += 1;
        item
    }

    /// Moves items from the front of `pending` into the queue until the
    /// queue is full or `pending` is empty. Returns how many moved.
    ///
    /// This is the batched ingress path (used by the LLC Rx): one
    /// capacity computation and one bookkeeping update cover the whole
    /// burst, instead of per-item checks — and unlike a `push` loop it
    /// never counts would-be overflow as rejects, so callers can leave
    /// the remainder in `pending` for the next cycle.
    pub fn extend_while_free(&mut self, pending: &mut Vec<T>) -> usize {
        let take = self.free_slots().min(pending.len());
        if take == 0 {
            return 0;
        }
        self.items.extend(pending.drain(..take));
        self.stats.total_pushed += take as u64;
        if self.items.len() > self.stats.high_water {
            self.stats.high_water = self.items.len();
        }
        take
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining free slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pushes rejected because the queue was full.
    pub fn rejected(&self) -> u64 {
        self.stats.rejected
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.stats.high_water
    }

    /// Total successful pushes.
    pub fn total_pushed(&self) -> u64 {
        self.stats.total_pushed
    }

    /// Iterates over queued items front-to-back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedFifo::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_enforced_and_counted() {
        let mut q = BoundedFifo::new(3);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.free_slots(), 0);
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.push(100), Err(100));
        assert_eq!(q.rejected(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = BoundedFifo::new(10);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.pop();
        q.pop();
        q.push(3).unwrap();
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.total_pushed(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedFifo::<u8>::new(0);
    }

    #[test]
    fn extend_while_free_takes_only_what_fits() {
        let mut q = BoundedFifo::new(4);
        q.push(0).unwrap();
        let mut pending = vec![1, 2, 3, 4, 5];
        assert_eq!(q.extend_while_free(&mut pending), 3);
        assert_eq!(pending, vec![4, 5]); // remainder stays, in order
        assert!(q.is_full());
        assert_eq!(q.rejected(), 0); // deferral is not a drop
        assert_eq!(q.total_pushed(), 4);
        assert_eq!(q.high_water(), 4);
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.extend_while_free(&mut pending), 2);
        assert_eq!(q.len(), 2);
        assert!(pending.is_empty());
    }

    #[test]
    fn extend_into_full_queue_is_a_no_op() {
        let mut q = BoundedFifo::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let mut pending = vec![3];
        assert_eq!(q.extend_while_free(&mut pending), 0);
        assert_eq!(pending, vec![3]);
        assert_eq!(q.rejected(), 0);
    }
}
