//! The C1-mode (accelerator) attachment used by the memory-stealing
//! endpoint.
//!
//! In C1 mode the device masters cache-coherent transactions into the
//! effective address space of the stealing process "without the
//! intervention of host processors or any DMA engine". Two properties of
//! the real port are modelled carefully because the paper's bandwidth
//! analysis hinges on them (§VI-C):
//!
//! * transactions are validated against the PASID-registered region;
//! * the port's sustainable bandwidth depends on the **transaction
//!   size**: with the 128 B ld/st transactions the POWER9 issues, the
//!   port peaks around 16 GiB/s; 256 B transactions would reach 20 GiB/s.
//!   This is why channel bonding buys only ~30% rather than 2×.

use std::fmt;


use simkit::bandwidth::{Rate, SerializedLine};
use simkit::time::SimTime;

use crate::pasid::{Pasid, PasidError, PasidTable, Region};
use crate::transaction::MemRequest;

/// Per-transaction fixed overhead of the C1 engine (command issue,
/// coherence handshake). Calibrated so that 128 B transactions sustain
/// ≈16 GiB/s and 256 B transactions ≈20 GiB/s, the two operating points
/// the paper reports.
const TXN_OVERHEAD: SimTime = SimTime::from_ps(2_980);

/// Raw streaming rate of the port once a transaction is issued.
const RAW_GIB_PER_SEC: f64 = 26.67;

/// Rejection reasons for mastered transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C1Error {
    /// No PASID authorizes the target region.
    Unauthorized {
        /// The offending effective address.
        addr: u64,
    },
    /// The transaction is not cacheline aligned.
    Misaligned {
        /// The offending effective address.
        addr: u64,
    },
}

impl fmt::Display for C1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            C1Error::Unauthorized { addr } => {
                write!(f, "no registered pasid authorizes access at {addr:#x}")
            }
            C1Error::Misaligned { addr } => {
                write!(f, "transaction at {addr:#x} not cacheline aligned")
            }
        }
    }
}

impl std::error::Error for C1Error {}

/// The memory-stealing endpoint's transaction-mastering port.
///
/// # Example
///
/// ```
/// use opencapi::c1::C1Port;
/// use opencapi::pasid::{Pasid, Region};
/// use opencapi::transaction::MemRequest;
/// use simkit::time::SimTime;
///
/// let mut c1 = C1Port::new();
/// c1.register(Pasid(1), Region { ea_base: 0x10_0000, len: 1 << 20 })?;
/// let done = c1.master(SimTime::ZERO, &MemRequest::read(0, 0x10_0080), Pasid(1))
///     .expect("authorized");
/// assert!(done > SimTime::ZERO);
/// # Ok::<(), opencapi::pasid::PasidError>(())
/// ```
#[derive(Debug)]
pub struct C1Port {
    pasids: PasidTable,
    engine: SerializedLine,
    overhead_total: SimTime,
    mastered: u64,
    faulted: u64,
}

impl Default for C1Port {
    fn default() -> Self {
        Self::new()
    }
}

impl C1Port {
    /// Creates an idle port with no registrations.
    pub fn new() -> Self {
        C1Port {
            pasids: PasidTable::new(),
            engine: SerializedLine::new(Rate::from_gib_per_sec(RAW_GIB_PER_SEC)),
            overhead_total: SimTime::ZERO,
            mastered: 0,
            faulted: 0,
        }
    }

    /// Registers a stolen region under a PASID.
    ///
    /// # Errors
    ///
    /// See [`PasidTable::register`].
    pub fn register(&mut self, pasid: Pasid, region: Region) -> Result<(), PasidError> {
        self.pasids.register(pasid, region)
    }

    /// Masters one transaction into host memory; returns the instant the
    /// port completes it (excluding DRAM service, which the host model
    /// adds).
    ///
    /// # Errors
    ///
    /// Rejects unauthorized or misaligned transactions — "compute
    /// endpoint configurations allow memory transaction forwarding only
    /// towards legal destinations, and fail otherwise".
    pub fn master(
        &mut self,
        now: SimTime,
        req: &MemRequest,
        pasid: Pasid,
    ) -> Result<SimTime, C1Error> {
        if !req.is_aligned() {
            self.faulted += 1;
            return Err(C1Error::Misaligned { addr: req.addr });
        }
        if !self.pasids.authorizes(pasid, req.addr, req.bytes as u64) {
            self.faulted += 1;
            return Err(C1Error::Unauthorized { addr: req.addr });
        }
        self.mastered += 1;
        self.overhead_total += TXN_OVERHEAD;
        // The engine serializes: per-transaction overhead plus streaming.
        // The overhead occupies the engine too, so concurrent bursts
        // still sustain at most `bytes / (overhead + bytes/raw_rate)`.
        let done = self
            .engine
            .enqueue_with_overhead(now, req.bytes as u64, TXN_OVERHEAD);
        Ok(done)
    }

    /// Sustainable bandwidth for back-to-back transactions of
    /// `txn_bytes`, in bytes/second. This is the §VI-C analysis:
    /// `bytes / (overhead + bytes/raw_rate)`.
    pub fn sustained_rate(txn_bytes: u32) -> Rate {
        let raw = Rate::from_gib_per_sec(RAW_GIB_PER_SEC);
        let per_txn = TXN_OVERHEAD + raw.transfer_time(txn_bytes as u64);
        Rate::from_bytes_per_sec(txn_bytes as f64 / per_txn.as_secs_f64())
    }

    /// Transactions mastered so far.
    pub fn mastered(&self) -> u64 {
        self.mastered
    }

    /// Transactions rejected so far.
    pub fn faulted(&self) -> u64 {
        self.faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port_with_region() -> C1Port {
        let mut c1 = C1Port::new();
        c1.register(
            Pasid(7),
            Region {
                ea_base: 0x100_0000,
                len: 1 << 24,
            },
        )
        .unwrap();
        c1
    }

    #[test]
    fn sustained_rate_matches_paper_operating_points() {
        // 128 B transactions: ~16 GiB/s (the paper's measured cap).
        let r128 = C1Port::sustained_rate(128).as_gib_per_sec();
        assert!((r128 - 16.0).abs() < 0.5, "128B rate {r128}");
        // 256 B transactions: ~20 GiB/s (the paper's measured alternative).
        let r256 = C1Port::sustained_rate(256).as_gib_per_sec();
        assert!((r256 - 20.0).abs() < 0.5, "256B rate {r256}");
    }

    #[test]
    fn authorized_access_completes() {
        let mut c1 = port_with_region();
        let t = c1
            .master(SimTime::ZERO, &MemRequest::read(0, 0x100_0000), Pasid(7))
            .unwrap();
        assert!(t >= TXN_OVERHEAD);
        assert_eq!(c1.mastered(), 1);
    }

    #[test]
    fn unauthorized_access_fails() {
        let mut c1 = port_with_region();
        let err = c1
            .master(SimTime::ZERO, &MemRequest::read(0, 0x80), Pasid(7))
            .unwrap_err();
        assert!(matches!(err, C1Error::Unauthorized { .. }));
        // Wrong pasid on a good address fails too.
        assert!(c1
            .master(SimTime::ZERO, &MemRequest::read(0, 0x100_0000), Pasid(8))
            .is_err());
        assert_eq!(c1.faulted(), 2);
    }

    #[test]
    fn back_to_back_transactions_sustain_16gib() {
        let mut c1 = port_with_region();
        let n = 10_000u64;
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let addr = 0x100_0000 + (i % 1024) * 128;
            now = c1
                .master(now, &MemRequest::read(i, addr), Pasid(7))
                .unwrap();
        }
        let gib = (n * 128) as f64 / now.as_secs_f64() / (1u64 << 30) as f64;
        assert!((gib - 16.0).abs() < 1.0, "sustained {gib} GiB/s");
    }
}
