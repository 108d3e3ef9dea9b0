//! Flow-plan computation: which network / PASID / donor window a path
//! uses, as a pure function of its place in the topology.
//!
//! This math used to be hand-coded inside `FabricBuilder::fan_out` in
//! the core crate; it lives here so route identity is owned by the
//! routing layer and core only *instantiates* plans. Every constant is
//! part of the repo's bit-for-bit parity surface — the reference plan
//! is the exact flow the pre-fabric monolithic `Datapath` hardwired,
//! and the donor plan is the exact per-donor fan-out arithmetic from
//! the original builder.

use std::fmt;

use opencapi::pasid::Pasid;
use rmmu::flow::NetworkId;

/// The donor-side effective address every plan is based at.
pub(crate) const DONOR_EA_BASE: u64 = 0x7000_0000_0000;

/// Address-space stride between donors: 1 TiB apart, so donor windows
/// can never alias whatever share size a rack hands out.
pub(crate) const DONOR_EA_STRIDE: u64 = 0x0100_0000_0000;

/// The identity of one software-defined flow: the network it is routed
/// on, the PASID its translations are tagged with, where in the
/// donor's address space it lands, and its human-readable label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPlan {
    /// The network (route-table key) carrying the flow.
    pub network: NetworkId,
    /// The PASID the donor validates translations against.
    pub pasid: Pasid,
    /// Base effective address in the donor's memory.
    pub donor_ea: u64,
    /// Stable label (`reference`, `donor0`, …).
    pub label: String,
}

impl FlowPlan {
    /// The reference point-to-point flow: network 1, PASID 42, donor EA
    /// `0x7000_0000_0000` — the constants the monolithic `Datapath`
    /// hardwired before the fabric existed.
    pub fn reference() -> Self {
        FlowPlan {
            network: NetworkId(1),
            pasid: Pasid(42),
            donor_ea: DONOR_EA_BASE,
            label: "reference".to_string(),
        }
    }

    /// The plan for fan-out donor `d`: network `d+1` (networks are
    /// 1-based), PASID `100+d`, donor EA staggered 1 TiB apart from
    /// `0x7000_0000_0000`, labelled `donor{d}`.
    pub fn donor(d: usize) -> Self {
        // Donor counts are rack-scale; u32 is never exceeded.
        let dn = d as u32;
        FlowPlan {
            network: NetworkId(dn + 1),
            pasid: Pasid(100 + dn),
            donor_ea: DONOR_EA_BASE + d as u64 * DONOR_EA_STRIDE,
            label: format!("donor{d}"),
        }
    }

    /// The `(forward, reverse)` reference channel seeds for channel
    /// `c` — the `100+i`/`200+i` pairs the monolith used.
    pub fn reference_seeds(channels: usize) -> Vec<(u64, u64)> {
        (0..channels as u64).map(|i| (100 + i, 200 + i)).collect()
    }
}

impl fmt::Display for FlowPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (net{} {} ea {:#x})",
            self.label, self.network.0, self.pasid, self.donor_ea
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_plan_matches_the_monolith_constants() {
        let p = FlowPlan::reference();
        assert_eq!(p.network, NetworkId(1));
        assert_eq!(p.pasid, Pasid(42));
        assert_eq!(p.donor_ea, 0x7000_0000_0000);
        assert_eq!(p.label, "reference");
        assert_eq!(FlowPlan::reference_seeds(2), vec![(100, 200), (101, 201)]);
    }

    #[test]
    fn donor_plans_stagger_without_aliasing() {
        let a = FlowPlan::donor(0);
        let b = FlowPlan::donor(3);
        assert_eq!(a.network, NetworkId(1));
        assert_eq!(a.pasid, Pasid(100));
        assert_eq!(a.donor_ea, DONOR_EA_BASE);
        assert_eq!(b.network, NetworkId(4));
        assert_eq!(b.pasid, Pasid(103));
        assert_eq!(b.donor_ea, DONOR_EA_BASE + 3 * DONOR_EA_STRIDE);
        assert_eq!(b.label, "donor3");
        // A full-stride share still cannot alias the next donor.
        assert!(a.donor_ea + DONOR_EA_STRIDE <= b.donor_ea);
    }
}
