//! Frame wire format: serialize frames to 32 B-flit byte streams with a
//! real CRC32, and recover them at the far end.
//!
//! The discrete-event simulation decides corruption statistically, but a
//! credible LLC also needs a concrete encoding: this module defines one
//! and proves the CRC catches bit damage. Layout (little endian):
//!
//! ```text
//! header flit (32 B):
//!   0..2   magic  "TF"            12..26  reserved (zero)
//!   2..3   kind   (0 data, 1 ack, 2 replay request)
//!   3..4   entry count            26..28  payload flit count
//!   4..12  frame id / ctrl arg    28..32  CRC32 over everything else
//! entry flits: per entry, 1 descriptor flit
//!   0..1   kind (0 txn, 1 nop)    8..16   payload word a
//!   1..8   reserved               16..24  payload word b
//! ```
//!
//! Upper layers describe their message payload as two `u64` words via
//! [`WireCodec`]; that is enough for the transaction headers that cross
//! the datapath (tag + address / tag + opcode).

use crate::flit::{FlitSized, FLIT_BYTES};
use crate::frame::{crc32, Control, Entry, Frame, FrameId};

/// Encode/decode hooks for the transported message type.
pub trait WireCodec: FlitSized + Sized {
    /// Packs the message into two words.
    fn pack(&self) -> (u64, u64);
    /// Recovers the message from two words.
    fn unpack(words: (u64, u64)) -> Self;
}

impl WireCodec for (u32, usize) {
    fn pack(&self) -> (u64, u64) {
        (self.0 as u64, self.1 as u64)
    }
    fn unpack(words: (u64, u64)) -> Self {
        // The low 32 bits carry the tag; the mask makes the narrowing
        // infallible for `try_from`.
        let tag = u32::try_from(words.0 & u64::from(u32::MAX)).unwrap_or(0);
        (tag, words.1 as usize)
    }
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Byte stream is not a whole number of flits or too short.
    BadLength(usize),
    /// Magic bytes missing.
    BadMagic,
    /// CRC mismatch: the frame was damaged in flight.
    BadCrc {
        /// CRC carried in the header.
        expected: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Unknown kind/entry tags.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLength(n) => write!(f, "bad wire length {n}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadCrc { expected, computed } => {
                write!(f, "crc mismatch: header {expected:#x}, computed {computed:#x}")
            }
            WireError::Malformed => write!(f, "malformed frame"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(bytes)
}

/// Serializes a frame into whole flits.
pub fn encode<T: WireCodec>(frame: &Frame<T>) -> Vec<u8> {
    match frame {
        Frame::Control(c) => {
            let mut flit = vec![0u8; FLIT_BYTES];
            flit[0] = b'T';
            flit[1] = b'F';
            let (kind, arg) = match c {
                Control::Ack(id) => (1u8, id.0),
                Control::ReplayRequest(id) => (2, id.0),
            };
            flit[2] = kind;
            put_u64(&mut flit, 4, arg);
            let crc = crc32(&flit[..28]);
            flit[28..32].copy_from_slice(&crc.to_le_bytes());
            flit
        }
        Frame::Data { id, entries } => {
            let mut buf = vec![0u8; FLIT_BYTES * (1 + entries.len())];
            buf[0] = b'T';
            buf[1] = b'F';
            buf[2] = 0;
            // `LlcConfig::validate` caps frames at 256 flits, so the
            // entry count always fits the header byte.
            buf[3] = u8::try_from(entries.len()).unwrap_or(u8::MAX);
            put_u64(&mut buf, 4, id.0);
            let payload_flits: usize = entries
                .iter()
                .map(|e| match e {
                    Entry::Txn(t) => t.flits(),
                    Entry::Nop => 1,
                })
                .sum();
            let payload_flits = u16::try_from(payload_flits).unwrap_or(u16::MAX);
            buf[26..28].copy_from_slice(&payload_flits.to_le_bytes());
            for (i, e) in entries.iter().enumerate() {
                let off = FLIT_BYTES * (1 + i);
                match e {
                    Entry::Nop => buf[off] = 1,
                    Entry::Txn(t) => {
                        buf[off] = 0;
                        let (a, b) = t.pack();
                        put_u64(&mut buf, off + 8, a);
                        put_u64(&mut buf, off + 16, b);
                    }
                }
            }
            // CRC over everything except the CRC field itself.
            let mut covered = Vec::with_capacity(buf.len() - 4);
            covered.extend_from_slice(&buf[..28]);
            covered.extend_from_slice(&buf[32..]);
            let crc = crc32(&covered);
            buf[28..32].copy_from_slice(&crc.to_le_bytes());
            buf
        }
    }
}

/// Recovers a frame from the wire, verifying magic and CRC.
///
/// # Errors
///
/// Returns the reason the frame must be discarded (and replayed).
pub fn decode<T: WireCodec>(bytes: &[u8]) -> Result<Frame<T>, WireError> {
    if bytes.len() < FLIT_BYTES || !bytes.len().is_multiple_of(FLIT_BYTES) {
        return Err(WireError::BadLength(bytes.len()));
    }
    if &bytes[0..2] != b"TF" {
        return Err(WireError::BadMagic);
    }
    let expected = get_u32(bytes, 28);
    let computed = if bytes.len() == FLIT_BYTES {
        crc32(&bytes[..28])
    } else {
        let mut covered = Vec::with_capacity(bytes.len() - 4);
        covered.extend_from_slice(&bytes[..28]);
        covered.extend_from_slice(&bytes[32..]);
        crc32(&covered)
    };
    if expected != computed {
        return Err(WireError::BadCrc { expected, computed });
    }
    match bytes[2] {
        1 => Ok(Frame::Control(Control::Ack(FrameId(get_u64(bytes, 4))))),
        2 => Ok(Frame::Control(Control::ReplayRequest(FrameId(get_u64(
            bytes, 4,
        ))))),
        0 => {
            let count = usize::from(bytes[3]);
            if bytes.len() < FLIT_BYTES * (1 + count) {
                return Err(WireError::BadLength(bytes.len()));
            }
            let id = FrameId(get_u64(bytes, 4));
            let mut entries = Vec::with_capacity(count);
            for i in 0..count {
                let off = FLIT_BYTES * (1 + i);
                match bytes[off] {
                    1 => entries.push(Entry::Nop),
                    0 => entries.push(Entry::Txn(T::unpack((
                        get_u64(bytes, off + 8),
                        get_u64(bytes, off + 16),
                    )))),
                    _ => return Err(WireError::Malformed),
                }
            }
            Ok(Frame::Data {
                id,
                entries: entries.into(),
            })
        }
        _ => Err(WireError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::assemble;

    type Msg = (u32, usize);

    #[test]
    fn data_frame_round_trips() {
        let (frames, _) = assemble(vec![(7u32, 3usize), (9, 2)], 8, FrameId(5));
        for f in frames {
            let bytes = encode(&f);
            let back: Frame<Msg> = decode(&bytes).expect("clean decode");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn control_frames_round_trip() {
        for c in [
            Control::Ack(FrameId(42)),
            Control::ReplayRequest(FrameId(7)),
        ] {
            let f: Frame<Msg> = Frame::Control(c);
            let bytes = encode(&f);
            assert_eq!(bytes.len(), FLIT_BYTES);
            let back: Frame<Msg> = decode(&bytes).expect("clean decode");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn single_bit_damage_is_caught() {
        let (frames, _) = assemble(vec![(1u32, 2usize)], 8, FrameId(0));
        let clean = encode(&frames[0]);
        for bit in 0..clean.len() * 8 {
            let mut damaged = clean.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let r: Result<Frame<Msg>, _> = decode(&damaged);
            assert!(
                r.is_err() || r.as_ref().ok() == Some(&frames[0]),
                "bit {bit} slipped through as a different frame"
            );
            // Bits outside the magic always trip the CRC specifically.
            if bit >= 16 && !(224..256).contains(&bit) {
                assert!(
                    matches!(r, Err(WireError::BadCrc { .. })),
                    "bit {bit}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn bit_flip_sweep_classifies_every_error() {
        // The exhaustive form of `single_bit_damage_is_caught`: each
        // flipped bit must land in exactly one detector — the two magic
        // bytes trip BadMagic, every other bit (header, payload, and the
        // CRC field itself) trips BadCrc. A clean decode or any other
        // error kind is a detector hole.
        let (frames, _) = assemble(vec![(7u32, 3usize), (9, 2)], 8, FrameId(0));
        let control: Frame<Msg> = Frame::Control(Control::ReplayRequest(FrameId(99)));
        for clean in [encode(&frames[0]), encode(&control)] {
            let total = clean.len() * 8;
            let mut bad_magic = 0;
            let mut bad_crc = 0;
            for bit in 0..total {
                let mut damaged = clean.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                match decode::<Msg>(&damaged) {
                    Err(WireError::BadMagic) => {
                        assert!(bit < 16, "bit {bit}: BadMagic outside the magic");
                        bad_magic += 1;
                    }
                    Err(WireError::BadCrc { .. }) => {
                        assert!(bit >= 16, "bit {bit}: BadCrc inside the magic");
                        bad_crc += 1;
                    }
                    Err(e) => panic!("bit {bit}: unexpected error {e}"),
                    Ok(_) => panic!("bit {bit}: undetected corruption"),
                }
            }
            assert_eq!(bad_magic, 16);
            assert_eq!(bad_crc, total - 16);
        }
    }

    #[test]
    fn bad_lengths_and_magic_rejected() {
        assert_eq!(
            decode::<Msg>(&[0u8; 16]),
            Err(WireError::BadLength(16))
        );
        let mut flit = vec![0u8; 32];
        flit[0] = b'X';
        assert_eq!(decode::<Msg>(&flit), Err(WireError::BadMagic));
    }

    #[test]
    fn unknown_control_kinds_are_malformed() {
        // The control kinds are 1 (ack) and 2 (replay request): an
        // intact header carrying any other decodes as malformed, not
        // as a control frame.
        for kind in [3u8, 4, 255] {
            let mut flit = encode::<Msg>(&Frame::Control(Control::Ack(FrameId(12))));
            flit[2] = kind;
            let crc = crc32(&flit[..28]);
            flit[28..32].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                decode::<Msg>(&flit),
                Err(WireError::Malformed),
                "kind {kind}"
            );
        }
    }
}
