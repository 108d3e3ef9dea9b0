//! LLC frames: fixed-size groups of flits with sequential identifiers.
//!
//! "All transactions from active thymesisflows that reach the LLC layer
//! of a network channel are grouped in frames composed of a pre-defined
//! number of flits. Incomplete frames are padded with single-flit nop
//! transaction headers for immediate transmission. In addition, special
//! single-flit frames are used as in-band messages to transfer replay
//! requests to the Tx side."

use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::flit::{FlitSized, FLIT_BYTES};

/// Sequential frame identifier assigned by the Tx side.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct FrameId(pub u64);

impl FrameId {
    /// The next identifier in sequence. Wraps at `u64::MAX`: frame ids
    /// form a serial-number space, not a linear one, so a long-lived
    /// link rolls over instead of panicking.
    pub fn next(self) -> FrameId {
        FrameId(self.0.wrapping_add(1))
    }

    /// The previous identifier in sequence (wrapping).
    pub fn prev(self) -> FrameId {
        FrameId(self.0.wrapping_sub(1))
    }

    /// Serial-number comparison (RFC 1982 style): `self` is *before*
    /// `other` when the wrapping distance from `self` to `other` is less
    /// than half the id space. Protocol-order checks (duplicate/gap
    /// detection, cumulative acks) must use this instead of the derived
    /// `Ord`, which breaks across the `u64::MAX → 0` wrap. The window of
    /// outstanding ids is bounded by the replay buffer (≪ 2⁶³), so the
    /// half-space rule is always unambiguous.
    pub(crate) fn seq_cmp(self, other: FrameId) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else if other.0.wrapping_sub(self.0) < (1 << 63) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    }

    /// Serial `self < other`.
    pub(crate) fn seq_lt(self, other: FrameId) -> bool {
        self.seq_cmp(other) == std::cmp::Ordering::Less
    }

    /// Serial `self <= other`.
    pub(crate) fn seq_le(self, other: FrameId) -> bool {
        self.seq_cmp(other) != std::cmp::Ordering::Greater
    }

    /// Serial `self > other`.
    pub(crate) fn seq_gt(self, other: FrameId) -> bool {
        self.seq_cmp(other) == std::cmp::Ordering::Greater
    }

    /// Serial `self >= other`.
    pub(crate) fn seq_ge(self, other: FrameId) -> bool {
        self.seq_cmp(other) != std::cmp::Ordering::Less
    }
}

impl std::fmt::Display for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// One slot of a frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Entry<T> {
    /// An upper-layer transaction occupying one or more flits.
    Txn(T),
    /// A single-flit nop used to pad incomplete frames.
    Nop,
}

/// In-band control carried as special single-flit frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Control {
    /// Cumulative acknowledgement: every frame up to and including the
    /// identifier has been received intact.
    Ack(FrameId),
    /// Request in-order replay starting from the identifier: one per
    /// gap, and a lost one is retried by the driver's tail-replay kick.
    ReplayRequest(FrameId),
}

/// A frame's payload: the entry slice behind an [`Arc`].
///
/// Retaining a frame in the replay buffer — and retransmitting it on a
/// replay request — clones the frame; sharing the entries makes both a
/// refcount bump instead of a deep copy. The entries live inline in the
/// `Arc` allocation, so framing costs one allocation per frame. The
/// wrapper is transparent in use: it derefs to `[Entry<T>]` and is built
/// from a `Vec<Entry<T>>` or an entry iterator at the points where
/// payloads are born (assembly and wire decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload<T>(Arc<[Entry<T>]>);

impl<T> Payload<T> {
    /// Whether two payloads share the same backing allocation (a
    /// retransmission is a refcount bump, not a deep copy).
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Payload<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The transactions carried, in order, skipping nop padding.
    pub(crate) fn txns(&self) -> impl Iterator<Item = &T> {
        self.0.iter().filter_map(|e| match e {
            Entry::Txn(t) => Some(t),
            Entry::Nop => None,
        })
    }
}

impl<T> std::ops::Deref for Payload<T> {
    type Target = [Entry<T>];

    fn deref(&self) -> &[Entry<T>] {
        &self.0
    }
}

impl<T> From<Vec<Entry<T>>> for Payload<T> {
    fn from(entries: Vec<Entry<T>>) -> Self {
        Payload(entries.into())
    }
}

impl<T> FromIterator<Entry<T>> for Payload<T> {
    /// Collects straight into the shared allocation; an exact-size
    /// source such as `Vec::drain` allocates exactly once.
    fn from_iter<I: IntoIterator<Item = Entry<T>>>(iter: I) -> Self {
        Payload(iter.into_iter().collect())
    }
}

// The vendored serde has no blanket Arc impls; delegate to the slice
// so wire formats are unchanged by the sharing.
impl<T: Serialize> Serialize for Payload<T> {
    fn serialize(&self) -> Value {
        (&*self.0).serialize()
    }
}

impl<T: Deserialize> Deserialize for Payload<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(Vec::<Entry<T>>::deserialize(v)?.into())
    }
}

/// A frame on the wire: either a data frame of flit entries or a
/// single-flit in-band control message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Frame<T> {
    /// A data frame.
    Data {
        /// Sequential identifier.
        id: FrameId,
        /// Transactions plus nop padding, shared across retained copies.
        entries: Payload<T>,
    },
    /// A single-flit in-band control frame.
    Control(Control),
}

impl<T: FlitSized> Frame<T> {
    /// Total flits this frame occupies on the wire (data frames include a
    /// CRC/header flit; control frames are a single flit).
    pub fn flits(&self) -> usize {
        match self {
            Frame::Data { entries, .. } => {
                entries
                    .iter()
                    .map(|e| match e {
                        Entry::Txn(t) => t.flits(),
                        Entry::Nop => 1,
                    })
                    .sum::<usize>()
                    + 1
            }
            Frame::Control(_) => 1,
        }
    }

    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        // tflint::allow(TF005): usize → u64 widens on every supported target.
        (self.flits() * FLIT_BYTES) as u64
    }
}

impl<T> Frame<T> {
    /// The frame identifier of a data frame.
    pub fn id(&self) -> Option<FrameId> {
        match self {
            Frame::Data { id, .. } => Some(*id),
            Frame::Control(_) => None,
        }
    }

    /// Number of transaction entries carried (excluding nop padding).
    pub(crate) fn txn_count(&self) -> usize {
        match self {
            Frame::Data { entries, .. } => entries
                .iter()
                .filter(|e| matches!(e, Entry::Txn(_)))
                .count(),
            Frame::Control(_) => 0,
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial), used by the frame integrity check.
///
/// The simulation decides corruption via fault injection, but the CRC is
/// real: golden-value tests pin the implementation and the encode path
/// uses it for the header flit.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// Assembles transactions into maximal data frames of `frame_flits`,
/// nop-padding the final frame. Messages never split across frames.
///
/// # Panics
///
/// Panics if any message is larger than a whole frame payload.
pub fn assemble<T: FlitSized>(
    txns: Vec<T>,
    frame_flits: usize,
    next_id: FrameId,
) -> (Vec<Frame<T>>, FrameId) {
    let mut frames = Vec::new();
    let next = assemble_into(txns, frame_flits, next_id, &mut Vec::new(), |f| {
        frames.push(f)
    });
    (frames, next)
}

/// [`assemble`] without the intermediate vectors: entries gather in the
/// caller's reusable `entries` buffer (left empty, capacity kept), each
/// sealed frame goes straight to `emit`, and the returned id is the one
/// after the last frame. Each frame costs one allocation, its payload.
///
/// # Panics
///
/// Panics if any message is larger than a whole frame payload.
pub(crate) fn assemble_into<T: FlitSized>(
    txns: impl IntoIterator<Item = T>,
    frame_flits: usize,
    mut next_id: FrameId,
    entries: &mut Vec<Entry<T>>,
    mut emit: impl FnMut(Frame<T>),
) -> FrameId {
    let payload_flits = frame_flits - 1; // header/CRC flit
    entries.clear();
    let mut used = 0usize;
    let mut seal = |entries: &mut Vec<Entry<T>>, used: usize, id: FrameId| {
        entries.extend((used..payload_flits).map(|_| Entry::Nop));
        emit(Frame::Data {
            id,
            entries: entries.drain(..).collect(),
        });
    };
    for t in txns {
        let f = t.flits();
        assert!(
            f <= payload_flits,
            "message of {f} flits exceeds frame payload of {payload_flits}"
        );
        if used + f > payload_flits {
            seal(entries, used, next_id);
            next_id = next_id.next();
            used = 0;
        }
        used += f;
        entries.push(Entry::Txn(t));
    }
    if !entries.is_empty() {
        seal(entries, used, next_id);
        next_id = next_id.next();
    }
    next_id
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = (u32, usize);

    /// The transactions a frame carries, without nop padding.
    fn txns(f: &Frame<Msg>) -> Vec<Msg> {
        match f {
            Frame::Data { entries, .. } => entries.txns().cloned().collect(),
            Frame::Control(_) => Vec::new(),
        }
    }

    #[test]
    fn crc32_golden_values() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn assemble_packs_and_pads() {
        // Frame of 8 flits -> 7 payload flits. Three 2-flit messages fill
        // 6 flits; one nop pads the 7th.
        let txns: Vec<Msg> = vec![(1, 2), (2, 2), (3, 2)];
        let (frames, next) = assemble(txns, 8, FrameId(0));
        assert_eq!(frames.len(), 1);
        assert_eq!(next, FrameId(1));
        assert_eq!(frames[0].flits(), 8);
        match &frames[0] {
            Frame::Data { entries, .. } => {
                let nops = entries.iter().filter(|e| matches!(e, Entry::Nop)).count();
                assert_eq!(nops, 1);
            }
            _ => panic!("expected data frame"),
        }
    }

    #[test]
    fn messages_never_split_across_frames() {
        // 7 payload flits; a 5-flit then a 4-flit message must occupy two
        // frames (4 doesn't fit after 5).
        let (frames, _) = assemble(vec![(1, 5), (2, 4)], 8, FrameId(10));
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].id(), Some(FrameId(10)));
        assert_eq!(frames[1].id(), Some(FrameId(11)));
        assert_eq!(txns(&frames[0]), vec![(1, 5)]);
        assert_eq!(txns(&frames[1]), vec![(2, 4)]);
    }

    proptest::proptest! {
        #[test]
        fn frame_flit_budget_is_respected(
            sizes in proptest::collection::vec(1usize..=7, 1..200),
        ) {
            // Every assembled frame is exactly `frame_flits` flits:
            // padding with nops, never splitting a message.
            let msgs: Vec<Msg> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u32, s))
                .collect();
            let (frames, _) = assemble(msgs.clone(), 8, FrameId(0));
            let carried: Vec<Msg> = frames.iter().flat_map(txns).collect();
            proptest::prop_assert_eq!(carried, msgs);
            for f in frames {
                proptest::prop_assert_eq!(f.flits(), 8);
                proptest::prop_assert_eq!(f.wire_bytes(), 256);
            }
        }
    }

    #[test]
    fn ids_are_sequential() {
        let txns: Vec<Msg> = (0..20).map(|i| (i, 7)).collect();
        let (frames, next) = assemble(txns, 8, FrameId(5));
        assert_eq!(frames.len(), 20);
        assert_eq!(next, FrameId(25));
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.id(), Some(FrameId(5 + i as u64)));
        }
    }

    #[test]
    fn frame_ids_wrap_and_compare_serially() {
        let last = FrameId(u64::MAX);
        let first = last.next();
        assert_eq!(first, FrameId(0));
        assert_eq!(first.prev(), last);
        // Across the wrap the derived Ord inverts, but serial order holds.
        assert!(last.seq_lt(first));
        assert!(first.seq_gt(last));
        assert!(last.seq_le(last));
        assert!(first.seq_ge(last));
        assert_eq!(last.seq_cmp(last), std::cmp::Ordering::Equal);
        // Assembly rolls straight through the wrap with sequential ids.
        let txns: Vec<Msg> = (0..4).map(|i| (i, 7)).collect();
        let (frames, next) = assemble(txns, 8, FrameId(u64::MAX - 1));
        let ids: Vec<u64> = frames.iter().map(|f| f.id().unwrap().0).collect();
        assert_eq!(ids, vec![u64::MAX - 1, u64::MAX, 0, 1]);
        assert_eq!(next, FrameId(2));
    }

    #[test]
    fn control_frames_are_single_flit() {
        let f: Frame<Msg> = Frame::Control(Control::ReplayRequest(FrameId(3)));
        assert_eq!(f.flits(), 1);
        assert_eq!(f.wire_bytes(), 32);
        assert!(f.id().is_none());
        assert!(txns(&f).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds frame payload")]
    fn oversized_message_panics() {
        let _ = assemble(vec![(0u32, 9usize)], 8, FrameId(0));
    }

    #[test]
    fn cloned_frames_share_payload() {
        let (frames, _) = assemble::<Msg>(vec![(1, 2), (2, 2)], 8, FrameId(0));
        let copy = frames[0].clone();
        match (&frames[0], &copy) {
            (Frame::Data { entries: a, .. }, Frame::Data { entries: b, .. }) => {
                assert!(a.ptr_eq(b), "clone deep-copied the payload");
                assert_eq!(a.len(), b.len());
            }
            _ => panic!("expected data frames"),
        }
    }
}
