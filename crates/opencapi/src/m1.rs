//! The M1-mode (memory controller) attachment used by the compute
//! endpoint.
//!
//! "The POWER9 firmware assigns at runtime a portion of the host real
//! address space to the compute endpoint. […] The real address is
//! received by the ThymesisFlow device in its internal representation
//! (the Device Internal Address Space is always starting from address
//! 0x0)."

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::transaction::MemRequest;

/// An address in the device-internal address space (starts at 0x0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DeviceAddress(u64);

impl DeviceAddress {
    /// Wraps a raw device-internal address.
    pub const fn new(addr: u64) -> Self {
        DeviceAddress(addr)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DeviceAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:#x}", self.0)
    }
}

/// Rejection reasons for transactions presented to the M1 port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum M1Error {
    /// The real address falls outside the window firmware assigned.
    OutsideWindow {
        /// The offending real address.
        addr: u64,
    },
    /// The transaction is not cacheline aligned.
    Misaligned {
        /// The offending real address.
        addr: u64,
    },
}

impl fmt::Display for M1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            M1Error::OutsideWindow { addr } => {
                write!(f, "real address {addr:#x} outside the M1 window")
            }
            M1Error::Misaligned { addr } => {
                write!(f, "transaction at {addr:#x} not cacheline aligned")
            }
        }
    }
}

impl std::error::Error for M1Error {}

/// The compute endpoint's host-facing memory port.
///
/// Cacheline traffic whose real address falls in the assigned window is
/// captured and rebased into the device-internal address space, where the
/// RMMU takes over.
///
/// # Example
///
/// ```
/// use opencapi::m1::M1Endpoint;
/// use opencapi::transaction::MemRequest;
///
/// let mut m1 = M1Endpoint::new(0x1_0000_0000, 1 << 30);
/// let dev = m1.accept(&MemRequest::write(1, 0x1_0000_1000))?;
/// assert_eq!(dev.as_u64(), 0x1000);
/// # Ok::<(), opencapi::m1::M1Error>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct M1Endpoint {
    window_base: u64,
    window_len: u64,
    accepted: u64,
    rejected: u64,
}

impl M1Endpoint {
    /// Creates a port with the real-address window firmware assigned.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or not cacheline aligned.
    pub fn new(window_base: u64, window_len: u64) -> Self {
        assert!(window_len > 0, "empty M1 window");
        assert!(
            window_base.is_multiple_of(128) && window_len.is_multiple_of(128),
            "M1 window must be cacheline aligned"
        );
        M1Endpoint {
            window_base,
            window_len,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Base of the assigned real-address window.
    pub fn window_base(&self) -> u64 {
        self.window_base
    }

    /// Whether a real address falls inside the window.
    pub(crate) fn covers(&self, addr: u64) -> bool {
        addr >= self.window_base && addr - self.window_base < self.window_len
    }

    /// Accepts a host transaction, translating its real address into the
    /// device-internal space.
    ///
    /// # Errors
    ///
    /// Rejects transactions outside the window or misaligned ones.
    pub fn accept(&mut self, req: &MemRequest) -> Result<DeviceAddress, M1Error> {
        if !req.is_aligned() {
            self.rejected += 1;
            return Err(M1Error::Misaligned { addr: req.addr });
        }
        let end_ok = self.covers(req.addr)
            && req.addr - self.window_base + req.bytes as u64 <= self.window_len;
        if !end_ok {
            self.rejected += 1;
            return Err(M1Error::OutsideWindow { addr: req.addr });
        }
        self.accepted += 1;
        Ok(DeviceAddress::new(req.addr - self.window_base))
    }

    /// Transactions captured so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Transactions rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebase_to_internal_space() {
        let mut m1 = M1Endpoint::new(0x2000_0000, 0x1000_0000);
        let dev = m1.accept(&MemRequest::read(0, 0x2000_0000)).unwrap();
        assert_eq!(dev.as_u64(), 0);
        let dev = m1.accept(&MemRequest::read(0, 0x2FFF_FF80)).unwrap();
        assert_eq!(dev.as_u64(), 0x0FFF_FF80);
        assert_eq!(m1.accepted(), 2);
    }

    #[test]
    fn outside_window_rejected() {
        let mut m1 = M1Endpoint::new(0x2000_0000, 0x1000);
        assert!(matches!(
            m1.accept(&MemRequest::read(0, 0x1FFF_FF80)),
            Err(M1Error::OutsideWindow { .. })
        ));
        // Last cacheline of the window is fine; the one after is not.
        assert!(m1.accept(&MemRequest::read(0, 0x2000_0F80)).is_ok());
        assert!(m1.accept(&MemRequest::read(0, 0x2000_1000)).is_err());
        assert_eq!(m1.rejected(), 2);
    }

    #[test]
    fn misaligned_rejected() {
        let mut m1 = M1Endpoint::new(0, 0x1000);
        let mut req = MemRequest::read(0, 0x40);
        assert!(matches!(
            m1.accept(&req),
            Err(M1Error::Misaligned { .. })
        ));
        req.addr = 0x80;
        assert!(m1.accept(&req).is_ok());
    }

    #[test]
    #[should_panic(expected = "cacheline aligned")]
    fn bad_window_panics() {
        M1Endpoint::new(0x10, 0x1000);
    }
}
