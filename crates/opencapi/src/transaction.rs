//! OpenCAPI transaction-layer commands as they cross the ThymesisFlow
//! datapath.
//!
//! The POWER9 emits 128 B (cacheline) loads and stores; on the 32 B LLC
//! datapath a cacheline of payload is 4 flits, and every command carries
//! a single header flit. Responses mirror requests.

use serde::{Deserialize, Serialize};

use llc::flit::FlitSized;

/// POWER9 cacheline size: every ld/st transaction moves 128 bytes.
pub const CACHELINE_BYTES: u32 = 128;

/// Transaction tag correlating requests and responses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TagId(pub u64);

/// The operation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOp {
    /// A load: request is header-only, response carries the cacheline.
    Read,
    /// A store: request carries the cacheline, response is header-only.
    Write,
}

/// A memory transaction request crossing the datapath.
///
/// The meaning of `addr` depends on where the transaction is observed
/// (real address at the M1 port, device-internal after capture, effective
/// address of the donor after RMMU translation) — the `rmmu` crate owns
/// those distinctions; at this layer it is an opaque 64-bit address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Correlation tag.
    pub tag: TagId,
    /// Load or store.
    pub op: MemOp,
    /// Transaction address (cacheline aligned).
    pub addr: u64,
    /// Transaction size in bytes.
    pub bytes: u32,
}

impl MemRequest {
    /// A cacheline load at `addr`.
    pub fn read(tag: u64, addr: u64) -> Self {
        MemRequest {
            tag: TagId(tag),
            op: MemOp::Read,
            addr,
            bytes: CACHELINE_BYTES,
        }
    }

    /// A cacheline store at `addr`.
    pub fn write(tag: u64, addr: u64) -> Self {
        MemRequest {
            tag: TagId(tag),
            op: MemOp::Write,
            addr,
            bytes: CACHELINE_BYTES,
        }
    }

    /// Whether the address is aligned to the transaction size.
    pub(crate) fn is_aligned(&self) -> bool {
        self.bytes.is_power_of_two() && self.addr.is_multiple_of(self.bytes as u64)
    }

    /// The matching response.
    pub fn response(&self) -> MemResponse {
        MemResponse {
            tag: self.tag,
            op: self.op,
            bytes: self.bytes,
        }
    }
}

impl FlitSized for MemRequest {
    fn flits(&self) -> usize {
        match self.op {
            // Header flit only; the data comes back in the response.
            MemOp::Read => 1,
            // The store payload; command metadata rides the first data
            // flit's sideband (TL template packing).
            MemOp::Write => (self.bytes as usize).div_ceil(llc::flit::FLIT_BYTES),
        }
    }
}

/// A memory transaction response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemResponse {
    /// Correlation tag (matches the request).
    pub tag: TagId,
    /// The operation this responds to.
    pub op: MemOp,
    /// Transaction size in bytes.
    pub bytes: u32,
}

impl FlitSized for MemResponse {
    fn flits(&self) -> usize {
        match self.op {
            // Read response carries the cacheline (metadata in the first
            // flit's sideband).
            MemOp::Read => (self.bytes as usize).div_ceil(llc::flit::FLIT_BYTES),
            // Write completion is header-only.
            MemOp::Write => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacheline_geometry() {
        let r = MemRequest::read(1, 0x1000);
        assert_eq!(r.bytes, 128);
        assert!(r.is_aligned());
    }

    #[test]
    fn flit_counts_match_the_paper_datapath() {
        let read = MemRequest::read(0, 0);
        let write = MemRequest::write(0, 0);
        assert_eq!(read.flits(), 1);
        assert_eq!(write.flits(), 4);
        assert_eq!(read.response().flits(), 4);
        assert_eq!(write.response().flits(), 1);
    }

    #[test]
    fn response_preserves_tag() {
        let r = MemRequest::write(42, 0x80);
        let resp = r.response();
        assert_eq!(resp.tag, TagId(42));
        assert_eq!(resp.op, MemOp::Write);
    }

    #[test]
    fn misalignment_detected() {
        let mut r = MemRequest::read(0, 0x1004);
        assert!(!r.is_aligned());
        r.addr = 0x1080;
        assert!(r.is_aligned());
    }
}
