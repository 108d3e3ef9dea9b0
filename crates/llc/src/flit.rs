//! Flit sizing.
//!
//! "The ThymesisFlow LLC design features a 32 B wide datapath" — every
//! unit crossing the network is a whole number of 32-byte flits.

/// Width of the LLC datapath: one flit is 32 bytes.
pub const FLIT_BYTES: usize = 32;

/// Anything the LLC can transport: the upper layer declares how many
/// flits each message occupies on the wire.
///
/// A 128 B write is 1 header flit + 4 data flits; a read request is a
/// single header flit; a read response is 1 + 4 flits.
pub trait FlitSized {
    /// Number of 32 B flits this message occupies.
    fn flits(&self) -> usize;
}

// Convenient for tests and generic harnesses: `(payload, flit_count)`.
impl<T> FlitSized for (T, usize) {
    fn flits(&self) -> usize {
        self.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_is_flit_sized() {
        let msg = ("read", 1usize);
        assert_eq!(msg.flits(), 1);
    }
}
