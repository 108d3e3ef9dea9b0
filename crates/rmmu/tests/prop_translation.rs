//! Property tests: section-table translation invariants.

use opencapi::m1::DeviceAddress;
use proptest::prelude::*;
use rmmu::flow::NetworkId;
use rmmu::section::{RmmuError, SectionEntry, SectionTable};

/// Sections in the reference-checked table, and their size (2^20 bytes).
const SECTIONS: u64 = 8;
const SECTION_BITS: u32 = 20;
const NETWORKS: u32 = 2;

/// One step of a random table workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Program(u64, SectionEntry),
    Unprogram(u64),
}

/// Steps over 2 networks, two programs to one unprogram, with indices
/// up to one past the table and remote bases on a half-section grid
/// (so a new range can overlap two programmed ones) or misaligned.
fn op() -> impl Strategy<Value = Op> {
    let half = (1u64 << SECTION_BITS) / 2;
    let program = move || {
        let base = prop_oneof![(0u64..6).prop_map(move |k| k * half), Just(64u64)];
        (0..=SECTIONS, base, 0u32..NETWORKS)
            .prop_map(|(i, b, n)| Op::Program(i, SectionEntry::new(b, NetworkId(n))))
    };
    prop_oneof![program(), program(), (0..=SECTIONS).prop_map(Op::Unprogram)]
}

/// The table as a plain array, checked by scanning every entry.
struct Reference(Vec<Option<SectionEntry>>);

impl Reference {
    fn program(&mut self, index: u64, entry: SectionEntry) -> Result<(), RmmuError> {
        let size = 1u64 << SECTION_BITS;
        let slot = self
            .0
            .get(index as usize)
            .ok_or(RmmuError::BadIndex(index))?;
        if entry.remote_ea_base % 128 != 0 {
            return Err(RmmuError::Misaligned(entry.remote_ea_base));
        }
        if slot.is_some() {
            return Err(RmmuError::Occupied(index));
        }
        for (i, other) in self.0.iter().enumerate() {
            if let Some(o) = other {
                if o.network == entry.network
                    && entry.remote_ea_base < o.remote_ea_base + size
                    && o.remote_ea_base < entry.remote_ea_base + size
                {
                    return Err(RmmuError::Aliases {
                        with_section: i as u64,
                    });
                }
            }
        }
        self.0[index as usize] = Some(entry);
        Ok(())
    }

    fn unprogram(&mut self, index: u64) -> Result<SectionEntry, RmmuError> {
        let slot = self
            .0
            .get_mut(index as usize)
            .ok_or(RmmuError::BadIndex(index))?;
        slot.take().ok_or(RmmuError::Unmapped(index))
    }

    fn sections_of(&self, network: NetworkId) -> Vec<u64> {
        (0..SECTIONS)
            .filter(|&i| self.0[i as usize].is_some_and(|e| e.network == network))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Translation preserves the in-section offset and never crosses the
    /// mapped remote window.
    #[test]
    fn offset_preserved_and_bounded(
        section in 0u64..8,
        offset_cl in 0u64..(1 << 21), // cachelines within a 256 MiB section
        base_sections in 1u64..1000,
    ) {
        let mut t = SectionTable::new(28, 8);
        let size = t.section_size();
        let base = base_sections * size;
        t.program(section, SectionEntry::new(base, NetworkId(1))).unwrap();
        let offset = offset_cl * 128;
        let addr = DeviceAddress::new(section * size + offset);
        let got = t.translate(addr).unwrap();
        prop_assert_eq!(got.remote_ea.as_u64(), base + offset);
        prop_assert!(got.remote_ea.as_u64() >= base);
        prop_assert!(got.remote_ea.as_u64() < base + size);
        prop_assert_eq!(got.section, section);
    }

    /// Two distinct programmed sections on the same flow never produce
    /// the same remote address (no aliasing).
    #[test]
    fn no_aliasing_between_sections(
        bases in prop::collection::vec(0u64..64, 2..8),
        probe_cl in 0u64..(1 << 21),
    ) {
        let mut t = SectionTable::new(28, 8);
        let size = t.section_size();
        let mut programmed: Vec<u64> = Vec::new();
        for (i, b) in bases.iter().enumerate() {
            match t.program(i as u64, SectionEntry::new(b * size, NetworkId(0))) {
                Ok(()) => programmed.push(i as u64),
                Err(RmmuError::Aliases { .. }) => {} // correctly rejected
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
        // Probe the same in-section offset in every programmed section:
        // all results must be distinct.
        let offset = probe_cl * 128;
        let mut seen = std::collections::HashSet::new();
        for &s in &programmed {
            let ea = t
                .translate(DeviceAddress::new(s * size + offset))
                .unwrap()
                .remote_ea
                .as_u64();
            prop_assert!(seen.insert(ea), "aliased address {ea:#x}");
        }
    }

    /// Random program/unprogram sequences over 2 networks return exactly
    /// what a full-table scan returns, including the lowest aliasing
    /// section, and leave the same entries behind.
    #[test]
    fn matches_a_full_table_scan(ops in prop::collection::vec(op(), 1..48)) {
        let mut t = SectionTable::new(SECTION_BITS, SECTIONS);
        let mut reference = Reference(vec![None; SECTIONS as usize]);
        for (step, &o) in ops.iter().enumerate() {
            match o {
                Op::Program(i, e) => {
                    prop_assert_eq!(t.program(i, e), reference.program(i, e), "step {}: {:?}", step, o);
                }
                Op::Unprogram(i) => {
                    prop_assert_eq!(t.unprogram(i), reference.unprogram(i), "step {}: {:?}", step, o);
                }
            }
            for i in 0..SECTIONS {
                prop_assert_eq!(t.entry(i), reference.0[i as usize]);
            }
            for n in 0..NETWORKS {
                prop_assert_eq!(t.sections_of(NetworkId(n)), reference.sections_of(NetworkId(n)));
            }
        }
    }

    /// program -> unprogram -> translate faults; reprogramming restores.
    #[test]
    fn lifecycle_round_trip(section in 0u64..8, base in 1u64..100) {
        let mut t = SectionTable::new(28, 8);
        let size = t.section_size();
        let entry = SectionEntry::new(base * size, NetworkId(2));
        t.program(section, entry).unwrap();
        prop_assert_eq!(t.entry(section), Some(entry));
        let removed = t.unprogram(section).unwrap();
        prop_assert_eq!(removed, entry);
        prop_assert!(t.translate(DeviceAddress::new(section * size)).is_err());
        t.program(section, entry).unwrap();
        prop_assert!(t.translate(DeviceAddress::new(section * size)).is_ok());
    }
}
