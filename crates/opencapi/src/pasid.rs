//! Process Address Space ID (PASID) registry.
//!
//! "The stealing process allows ThymesisFlow to access the memory
//! reserved by registering its Process Address Space ID (PASID) with the
//! memory-stealing endpoint hardware." A C1-mode device may only master
//! transactions inside regions registered under a valid PASID.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A process address-space identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Pasid(pub u32);

impl fmt::Display for Pasid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pasid:{:#x}", self.0)
    }
}

/// A registered, pinned effective-address region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Base effective address (cacheline aligned).
    pub ea_base: u64,
    /// Length in bytes (cacheline multiple).
    pub len: u64,
}

impl Region {
    /// Whether `[addr, addr + bytes)` falls entirely inside the region.
    pub fn contains(&self, addr: u64, bytes: u64) -> bool {
        addr >= self.ea_base
            && bytes <= self.len
            && addr - self.ea_base <= self.len - bytes
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PasidError {
    /// The PASID is already registered.
    AlreadyRegistered(Pasid),
    /// The region is not cacheline aligned/sized.
    Misaligned,
    /// The PASID is unknown.
    Unknown(Pasid),
}

impl fmt::Display for PasidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PasidError::AlreadyRegistered(p) => write!(f, "{p} already registered"),
            PasidError::Misaligned => write!(f, "region not cacheline aligned"),
            PasidError::Unknown(p) => write!(f, "unknown {p}"),
        }
    }
}

impl std::error::Error for PasidError {}

/// The memory-stealing endpoint's PASID table.
///
/// # Example
///
/// ```
/// use opencapi::pasid::{Pasid, PasidTable, Region};
///
/// let mut t = PasidTable::new();
/// t.register(Pasid(3), Region { ea_base: 0x10_0000, len: 0x8000 })?;
/// assert!(t.authorizes(Pasid(3), 0x10_0080, 128));
/// assert!(!t.authorizes(Pasid(3), 0x18_0000, 128));
/// # Ok::<(), opencapi::pasid::PasidError>(())
/// ```
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct PasidTable {
    entries: BTreeMap<Pasid, Region>,
}

impl PasidTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pinned region under a PASID.
    ///
    /// # Errors
    ///
    /// Fails if the PASID is taken or the region is not cacheline
    /// aligned and sized.
    pub fn register(&mut self, pasid: Pasid, region: Region) -> Result<(), PasidError> {
        if !region.ea_base.is_multiple_of(128) || !region.len.is_multiple_of(128) || region.len == 0 {
            return Err(PasidError::Misaligned);
        }
        if self.entries.contains_key(&pasid) {
            return Err(PasidError::AlreadyRegistered(pasid));
        }
        self.entries.insert(pasid, region);
        Ok(())
    }

    /// Whether an access is authorized under the given PASID.
    pub fn authorizes(&self, pasid: Pasid, addr: u64, bytes: u64) -> bool {
        self.entries
            .get(&pasid)
            .is_some_and(|r| r.contains(addr, bytes))
    }

    /// The region registered under a PASID.
    pub fn region(&self, pasid: Pasid) -> Option<Region> {
        self.entries.get(&pasid).copied()
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no PASID is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region {
            ea_base: 0x1000,
            len: 0x1000,
        }
    }

    #[test]
    fn register_and_authorize() {
        let mut t = PasidTable::new();
        t.register(Pasid(1), region()).unwrap();
        assert!(t.authorizes(Pasid(1), 0x1000, 128));
        assert!(t.authorizes(Pasid(1), 0x1F80, 128));
        assert!(!t.authorizes(Pasid(1), 0x2000, 128)); // one past the end
        assert!(!t.authorizes(Pasid(2), 0x1000, 128)); // wrong pasid
    }

    #[test]
    fn boundary_overflow_is_rejected() {
        let mut t = PasidTable::new();
        t.register(Pasid(1), region()).unwrap();
        // Access straddling the end of the region.
        assert!(!t.authorizes(Pasid(1), 0x1F80, 256));
        // Access whose addr+bytes would overflow u64.
        assert!(!t.authorizes(Pasid(1), u64::MAX - 64, 128));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut t = PasidTable::new();
        t.register(Pasid(1), region()).unwrap();
        assert_eq!(
            t.register(Pasid(1), region()),
            Err(PasidError::AlreadyRegistered(Pasid(1)))
        );
    }

    #[test]
    fn misaligned_region_rejected() {
        let mut t = PasidTable::new();
        assert_eq!(
            t.register(
                Pasid(1),
                Region {
                    ea_base: 0x1001,
                    len: 0x1000
                }
            ),
            Err(PasidError::Misaligned)
        );
        assert_eq!(
            t.register(
                Pasid(1),
                Region {
                    ea_base: 0x1000,
                    len: 0
                }
            ),
            Err(PasidError::Misaligned)
        );
    }
}
