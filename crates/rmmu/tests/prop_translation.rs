//! Property tests: section-table translation invariants, and the
//! two-level table against a dense one-entry-per-section reference.

use opencapi::m1::DeviceAddress;
use proptest::prelude::*;
use rmmu::flow::NetworkId;
use rmmu::section::{
    EffectiveAddress, RmmuError, SectionEntry, SectionTable, Translated, MAX_SECTIONS,
};

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
struct Reference {
    section_bits: u32,
    entries: Vec<Option<SectionEntry>>,
    translations: u64,
    faults: u64,
}

impl Reference {
    fn new(section_bits: u32, sections: u64) -> Self {
        Reference {
            section_bits,
            entries: vec![None; sections as usize],
            translations: 0,
            faults: 0,
        }
    }

    fn program(&mut self, index: u64, entry: SectionEntry) -> Result<(), RmmuError> {
        let size = 1u64 << self.section_bits;
        let slot = self
            .entries
            .get(index as usize)
            .ok_or(RmmuError::BadIndex(index))?;
        if entry.remote_ea_base % 128 != 0 {
            return Err(RmmuError::Misaligned(entry.remote_ea_base));
        }
        if slot.is_some() {
            return Err(RmmuError::Occupied(index));
        }
        for (i, other) in self.entries.iter().enumerate() {
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
        self.entries[index as usize] = Some(entry);
        Ok(())
    }

    fn unprogram(&mut self, index: u64) -> Result<SectionEntry, RmmuError> {
        let slot = self
            .entries
            .get_mut(index as usize)
            .ok_or(RmmuError::BadIndex(index))?;
        slot.take().ok_or(RmmuError::Unmapped(index))
    }

    fn translate(&mut self, addr: DeviceAddress) -> Result<Translated, RmmuError> {
        let index = addr.as_u64() >> self.section_bits;
        let entry = match self.entries.get(index as usize) {
            Some(Some(e)) => *e,
            missing => {
                self.faults += 1;
                return Err(match missing {
                    None => RmmuError::BadIndex(index),
                    Some(_) => RmmuError::Unmapped(index),
                });
            }
        };
        self.translations += 1;
        let offset = addr.as_u64() & ((1u64 << self.section_bits) - 1);
        Ok(Translated {
            remote_ea: EffectiveAddress::new(entry.remote_ea_base + offset),
            network: entry.network,
            bonded: entry.bonded,
            section: index,
        })
    }

    fn first_free_run(&self, run: u64) -> Option<u64> {
        if run == 0 {
            return None;
        }
        let mut len = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            len = if e.is_some() { 0 } else { len + 1 };
            if len == run {
                return Some(i as u64 + 1 - run);
            }
        }
        None
    }

    fn programmed(&self) -> Vec<u64> {
        (0..self.entries.len() as u64)
            .filter(|&i| self.entries[i as usize].is_some())
            .collect()
    }

    fn sections_of(&self, network: NetworkId) -> Vec<u64> {
        (0..self.entries.len() as u64)
            .filter(|&i| self.entries[i as usize].is_some_and(|e| e.network == network))
            .collect()
    }
}

/// Window sizes of the two-level check, in sections: one section, one
/// short of a 256-section root, one past it, a window ending mid-root,
/// a rack fabric's 1 TiB and the largest window the fabric accepts.
const WINDOWS: [u64; 6] = [1, 255, 257, 600, 4_096, MAX_SECTIONS];

/// Section size of the two-level check: the prototype's 256 MiB.
const WIDE_BITS: u32 = 28;

/// A section picked relative to the window: one of four roots (first,
/// second, middle, last) and a lane inside it, so picks cluster on root
/// edges; lanes past the window's end give out-of-range indices.
#[derive(Debug, Clone, Copy)]
struct Spot {
    root: u8,
    lane: u64,
}

impl Spot {
    fn index(self, sections: u64) -> u64 {
        let roots = sections.div_ceil(256);
        let root = match self.root % 4 {
            0 => 0,
            1 => 1,
            2 => roots / 2,
            _ => roots - 1,
        };
        root * 256 + self.lane
    }
}

fn spot() -> impl Strategy<Value = Spot> {
    let lane = prop_oneof![Just(0u64), Just(1u64), Just(254u64), Just(255u64), 0u64..256];
    (0u8..4, lane).prop_map(|(root, lane)| Spot { root, lane })
}

/// One step of the two-level check.
#[derive(Debug, Clone, Copy)]
enum WideOp {
    Program(Spot, SectionEntry),
    Unprogram(Spot),
    /// Translate an address `offset` cachelines into the spot's section.
    Translate(Spot, u64),
    /// Search for a free run; the pick resolves against the window.
    FreeRun(usize),
}

fn wide_op() -> impl Strategy<Value = WideOp> {
    let half = (1u64 << WIDE_BITS) / 2;
    let program = move || {
        let base = prop_oneof![(0u64..12).prop_map(move |k| k * half), Just(64u64)];
        (spot(), base, 0u32..NETWORKS)
            .prop_map(|(at, b, n)| WideOp::Program(at, SectionEntry::new(b, NetworkId(n))))
    };
    prop_oneof![
        program(),
        program(),
        program(),
        spot().prop_map(WideOp::Unprogram),
        (spot(), 0u64..(1 << 21)).prop_map(|(at, cl)| WideOp::Translate(at, cl)),
        (0usize..11).prop_map(WideOp::FreeRun),
    ]
}

/// Run lengths that cross root edges, up to one past the window.
fn run_length(pick: usize, sections: u64) -> u64 {
    [1, 2, 3, 255, 256, 257, 511, 513, sections - 1, sections, sections + 1][pick]
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
        let mut reference = Reference::new(SECTION_BITS, SECTIONS);
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
                prop_assert_eq!(t.entry(i), reference.entries[i as usize]);
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

    /// The two-level table answers every program, unprogram, translate
    /// and free-run call exactly as a dense one-entry-per-section array
    /// does, on windows from one section to `MAX_SECTIONS`, with picks
    /// clustered on root edges; after every step both hold the same
    /// entries, per-network lists and counters.
    #[test]
    fn two_level_table_matches_a_dense_reference(
        window in 0usize..WINDOWS.len(),
        ops in prop::collection::vec(wide_op(), 1..64),
    ) {
        let sections = WINDOWS[window];
        let mut t = SectionTable::new(WIDE_BITS, sections);
        let mut reference = Reference::new(WIDE_BITS, sections);
        let size = 1u64 << WIDE_BITS;
        for (step, &o) in ops.iter().enumerate() {
            match o {
                WideOp::Program(at, e) => {
                    let i = at.index(sections);
                    prop_assert_eq!(t.program(i, e), reference.program(i, e), "step {}: {:?}", step, o);
                }
                WideOp::Unprogram(at) => {
                    let i = at.index(sections);
                    prop_assert_eq!(t.unprogram(i), reference.unprogram(i), "step {}: {:?}", step, o);
                }
                WideOp::Translate(at, cl) => {
                    let addr = DeviceAddress::new(at.index(sections) * size + cl * 128);
                    prop_assert_eq!(t.translate(addr), reference.translate(addr), "step {}: {:?}", step, o);
                }
                WideOp::FreeRun(pick) => {
                    let run = run_length(pick, sections);
                    prop_assert_eq!(t.first_free_run(run), reference.first_free_run(run), "step {}: run {}", step, run);
                }
            }
            let programmed = reference.programmed();
            prop_assert_eq!(t.programmed(), programmed.clone(), "step {}", step);
            for &i in &programmed {
                prop_assert_eq!(t.entry(i), reference.entries[i as usize]);
            }
            for n in 0..NETWORKS {
                prop_assert_eq!(t.sections_of(NetworkId(n)), reference.sections_of(NetworkId(n)));
            }
            prop_assert_eq!((t.translations(), t.faults()), (reference.translations, reference.faults));
        }
        prop_assert_eq!(t.entry(sections), None);
    }
}
