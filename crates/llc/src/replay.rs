//! The Tx-side replay buffer.
//!
//! Transmitted frames are retained until cumulatively acknowledged; on a
//! replay request the Tx re-emits, **in order**, every retained frame
//! starting from the requested identifier.

use std::collections::VecDeque;

use crate::error::LlcError;
use crate::frame::{Frame, FrameId};

/// Retention buffer for unacknowledged frames.
///
/// The capacity bounds how many frames the buffer retains; storage
/// grows on demand up to the deepest window the link actually used, so
/// an idle or lightly loaded link holds no frame storage.
///
/// # Example
///
/// ```
/// use llc::frame::{Frame, FrameId};
/// use llc::replay::ReplayBuffer;
///
/// let mut rb: ReplayBuffer<(u32, usize)> = ReplayBuffer::new(8);
/// rb.retain(Frame::Data { id: FrameId(0), entries: vec![].into() }).unwrap();
/// rb.retain(Frame::Data { id: FrameId(1), entries: vec![].into() }).unwrap();
/// let replayed = rb.frames_from(FrameId(0));
/// assert_eq!(replayed.len(), 2);
/// rb.ack_through(FrameId(1));
/// assert!(rb.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer<T> {
    frames: VecDeque<Frame<T>>,
    capacity: usize,
}

impl<T: Clone> ReplayBuffer<T> {
    /// Creates a buffer retaining up to `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer cannot be empty");
        ReplayBuffer {
            frames: VecDeque::new(),
            capacity,
        }
    }

    /// Whether another frame can be retained.
    pub(crate) fn has_room(&self) -> bool {
        self.frames.len() < self.capacity
    }

    /// Retains a transmitted data frame.
    ///
    /// # Errors
    ///
    /// [`LlcError::ReplayOverflow`] if the buffer is full (the Tx must
    /// check for room before transmitting),
    /// [`LlcError::ControlFrameInDataPath`] if the frame is not a data
    /// frame, and [`LlcError::NonSequentialRetention`] if the frame id is
    /// not the successor of the last retained frame.
    pub fn retain(&mut self, frame: Frame<T>) -> Result<(), LlcError> {
        if !self.has_room() {
            return Err(LlcError::ReplayOverflow {
                capacity: self.capacity,
            });
        }
        let Some(id) = frame.id() else {
            return Err(LlcError::ControlFrameInDataPath);
        };
        if let Some(last) = self.frames.back().and_then(Frame::id) {
            if id != last.next() {
                return Err(LlcError::NonSequentialRetention {
                    expected: last.next(),
                    got: id,
                });
            }
        }
        self.frames.push_back(frame);
        Ok(())
    }

    /// Drops every frame with id serially ≤ `through` (cumulative ack).
    /// Returns the number of *transactions* the acknowledged frames
    /// carried, so the Tx can account for them as delivered.
    pub fn ack_through(&mut self, through: FrameId) -> usize {
        let mut acked_txns = 0;
        while let Some(front) = self.frames.front().and_then(Frame::id) {
            if front.seq_le(through) {
                if let Some(f) = self.frames.pop_front() {
                    acked_txns += f.txn_count();
                }
            } else {
                break;
            }
        }
        acked_txns
    }

    /// Returns clones of every retained frame with id serially ≥ `from`,
    /// in order. Frames older than `from` were already received and are
    /// skipped.
    pub fn frames_from(&self, from: FrameId) -> Vec<Frame<T>> {
        self.frames
            .iter()
            .filter(|f| f.id().is_some_and(|id| id.seq_ge(from)))
            .cloned()
            .collect()
    }

    /// Oldest retained frame id, if any.
    pub(crate) fn oldest(&self) -> Option<FrameId> {
        self.frames.front().and_then(Frame::id)
    }

    /// Number of retained frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Total transactions carried by the retained frames.
    pub(crate) fn txn_count(&self) -> usize {
        self.frames.iter().map(Frame::txn_count).sum()
    }

    /// Whether nothing is awaiting acknowledgement.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Test hook: silently discards the oldest retained frame *without*
    /// accounting for its transactions, deliberately violating flit
    /// conservation so tests can prove the debug-build checker catches
    /// leaks.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn leak_one(&mut self) -> Option<Frame<T>> {
        self.frames.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(id: u64) -> Frame<(u32, usize)> {
        Frame::Data {
            id: FrameId(id),
            entries: vec![].into(),
        }
    }

    #[test]
    fn ack_is_cumulative() {
        let mut rb = ReplayBuffer::new(10);
        for i in 0..5 {
            rb.retain(data(i)).unwrap();
        }
        rb.ack_through(FrameId(2));
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.oldest(), Some(FrameId(3)));
    }

    #[test]
    fn replay_from_midpoint() {
        let mut rb = ReplayBuffer::new(10);
        for i in 0..5 {
            rb.retain(data(i)).unwrap();
        }
        let frames = rb.frames_from(FrameId(3));
        let ids: Vec<u64> = frames.iter().map(|f| f.id().unwrap().0).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn ack_of_unknown_id_is_noop() {
        let mut rb = ReplayBuffer::new(4);
        rb.retain(data(7)).unwrap();
        assert_eq!(rb.ack_through(FrameId(3)), 0);
        assert_eq!(rb.len(), 1);
    }

    #[test]
    fn ack_and_replay_survive_id_wraparound() {
        let mut rb = ReplayBuffer::new(8);
        // Retain u64::MAX-1, u64::MAX, 0, 1 — a run across the wrap.
        rb.retain(data(u64::MAX - 1)).unwrap();
        rb.retain(data(u64::MAX)).unwrap();
        rb.retain(data(0)).unwrap();
        rb.retain(data(1)).unwrap();
        // Ack through the wrap point drops the two pre-wrap frames.
        rb.ack_through(FrameId(u64::MAX));
        assert_eq!(rb.oldest(), Some(FrameId(0)));
        assert_eq!(rb.len(), 2);
        // Replay from a pre-wrap id returns everything still retained.
        rb.retain(data(2)).unwrap();
        let ids: Vec<u64> = rb
            .frames_from(FrameId(0))
            .iter()
            .map(|f| f.id().unwrap().0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn ack_reports_transactions_freed() {
        let mut rb = ReplayBuffer::new(4);
        rb.retain(Frame::Data {
            id: FrameId(0),
            entries: vec![
                crate::frame::Entry::Txn((1u32, 1usize)),
                crate::frame::Entry::Txn((2, 1)),
                crate::frame::Entry::Nop,
            ]
            .into(),
        })
        .unwrap();
        assert_eq!(rb.ack_through(FrameId(0)), 2);
    }

    #[test]
    fn overflow_is_an_error() {
        let mut rb = ReplayBuffer::new(1);
        rb.retain(data(0)).unwrap();
        assert_eq!(
            rb.retain(data(1)),
            Err(LlcError::ReplayOverflow { capacity: 1 })
        );
    }

    #[test]
    fn gap_in_retention_is_an_error() {
        let mut rb = ReplayBuffer::new(4);
        rb.retain(data(0)).unwrap();
        assert_eq!(
            rb.retain(data(2)),
            Err(LlcError::NonSequentialRetention {
                expected: FrameId(1),
                got: FrameId(2),
            })
        );
    }

    #[test]
    fn control_frame_retention_is_an_error() {
        let mut rb: ReplayBuffer<(u32, usize)> = ReplayBuffer::new(4);
        let ctrl = Frame::Control(crate::frame::Control::Ack(FrameId(0)));
        assert_eq!(rb.retain(ctrl), Err(LlcError::ControlFrameInDataPath));
    }
}
