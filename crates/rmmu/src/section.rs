//! The section table: one entry per Linux sparse-memory section.
//!
//! # Layout
//!
//! [`SectionTable`] is a two-level section array, the layout Linux uses
//! for its own sparse-memory sections under `SPARSEMEM_EXTREME` (and
//! `hostsim::hotplug` uses for the host's). The high bits of a section
//! index pick a *root* covering 256 consecutive sections; the low 8 bits
//! pick the entry inside it. A root is allocated by the first
//! [`SectionTable::program`] that lands in it and freed when
//! [`SectionTable::unprogram`] clears its last entry, so a table holds
//! one 8-byte root pointer per 256 sections of window plus 4 KiB per
//! root something is programmed in. A rack fabric's 1 TiB window (4,096
//! sections) costs 128 bytes before any lease attaches, where one entry
//! per section cost 64 KiB. Translation stays two indexings.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use opencapi::m1::DeviceAddress;

use crate::flow::NetworkId;

/// Default section size: 2^28 = 256 MiB (the Linux sparse memory model
/// section granularity used for hotplug on the prototype kernel).
pub const DEFAULT_SECTION_BITS: u32 = 28;

/// The most sections a device window may span: 2^16 sections of 256 MiB
/// map 16 TiB. The fabric refuses a bigger window. Table memory no
/// longer follows this limit: a [`SectionTable`] allocates a root only
/// where a section is programmed, and the root pointers it allocates up
/// front take 2 KiB for a 16 TiB window.
pub const MAX_SECTIONS: u64 = 1 << 16;

/// Section-index bits resolved inside one root.
const ROOT_SHIFT: u32 = 8;

/// Sections per root of the two-level table.
const ROOT_SECTIONS: usize = 1 << ROOT_SHIFT;

/// A donor-side effective address produced by RMMU translation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct EffectiveAddress(u64);

impl EffectiveAddress {
    /// Wraps a raw effective address.
    pub const fn new(addr: u64) -> Self {
        EffectiveAddress(addr)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EffectiveAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ea:{:#x}", self.0)
    }
}

/// One programmed section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionEntry {
    /// Donor-side effective address the section maps to ("the address
    /// offset that must be applied to convert the transaction address
    /// from the internal device representation to the effective address
    /// of the memory-stealing counterpart").
    pub remote_ea_base: u64,
    /// Network identifier for the routing layer.
    pub network: NetworkId,
    /// Whether the flow uses channel bonding.
    pub bonded: bool,
}

impl SectionEntry {
    /// An entry mapping the section to `remote_ea_base` on flow
    /// `network`, without bonding.
    pub fn new(remote_ea_base: u64, network: NetworkId) -> Self {
        SectionEntry {
            remote_ea_base,
            network,
            bonded: false,
        }
    }

    /// Enables channel bonding for this flow.
    pub fn bonded(mut self) -> Self {
        self.bonded = true;
        self
    }
}

/// RMMU errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmmuError {
    /// The section index exceeds the table.
    BadIndex(u64),
    /// The entry's remote base is not cacheline aligned.
    Misaligned(u64),
    /// The section is already programmed.
    Occupied(u64),
    /// The new entry's remote range overlaps an existing one on the same
    /// flow (would alias donor memory).
    Aliases {
        /// The section whose mapping would be aliased.
        with_section: u64,
    },
    /// Translation hit an unprogrammed section ("fail otherwise").
    Unmapped(u64),
}

impl fmt::Display for RmmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmmuError::BadIndex(i) => write!(f, "section index {i} out of range"),
            RmmuError::Misaligned(a) => write!(f, "remote base {a:#x} not aligned"),
            RmmuError::Occupied(i) => write!(f, "section {i} already programmed"),
            RmmuError::Aliases { with_section } => {
                write!(f, "remote range aliases section {with_section}")
            }
            RmmuError::Unmapped(i) => write!(f, "section {i} not programmed"),
        }
    }
}

impl std::error::Error for RmmuError {}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translated {
    /// The donor-side effective address.
    pub remote_ea: EffectiveAddress,
    /// Forwarding identifier for the routing layer.
    pub network: NetworkId,
    /// Whether the flow is bonded.
    pub bonded: bool,
    /// The section that served the translation.
    pub section: u64,
}

/// The entries of [`ROOT_SECTIONS`] consecutive sections.
#[derive(Debug, Clone)]
struct Root {
    /// Programmed entries; the root is freed when the last one goes.
    programmed: usize,
    entries: [Option<SectionEntry>; ROOT_SECTIONS],
}

impl Root {
    fn empty() -> Box<Root> {
        Box::new(Root {
            programmed: 0,
            entries: [None; ROOT_SECTIONS],
        })
    }
}

/// The root slot and the entry index of section `index`.
fn locate(index: u64) -> (usize, usize) {
    (
        (index >> ROOT_SHIFT) as usize,
        (index % ROOT_SECTIONS as u64) as usize,
    )
}

/// The entry programmed at an in-range section `index`, if any.
fn lookup(roots: &[Option<Box<Root>>], index: u64) -> Option<SectionEntry> {
    let (root, at) = locate(index);
    roots[root].as_ref().and_then(|r| r.entries[at])
}

/// The RMMU section table.
///
/// A bit range of the device-internal address indexes the table: address
/// bits `[section_bits ..]` select the section, the low bits are the
/// offset within it. Entries live in the two-level array described in
/// the [module docs](self).
///
/// Programmed sections are also indexed by network, so the alias check
/// of [`SectionTable::program`] visits only the sections of the new
/// entry's flow, not the whole table.
#[derive(Debug, Clone)]
pub struct SectionTable {
    section_bits: u32,
    sections: u64,
    /// One slot per [`ROOT_SECTIONS`] sections; `None` until something
    /// is programmed there.
    roots: Vec<Option<Box<Root>>>,
    /// Programmed section indices per network, ascending.
    by_network: BTreeMap<NetworkId, Vec<u64>>,
    translations: u64,
    faults: u64,
}

impl SectionTable {
    /// Creates a table of `sections` sections of `2^section_bits` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `section_bits` is outside `[20, 40]` (1 MiB – 1 TiB) or
    /// `sections == 0`.
    pub fn new(section_bits: u32, sections: u64) -> Self {
        assert!(
            (20..=40).contains(&section_bits),
            "unreasonable section size: 2^{section_bits}"
        );
        assert!(sections > 0, "table needs at least one section");
        SectionTable {
            section_bits,
            sections,
            roots: vec![None; sections.div_ceil(ROOT_SECTIONS as u64) as usize],
            by_network: BTreeMap::new(),
            translations: 0,
            faults: 0,
        }
    }

    /// A table with the prototype's default 256 MiB sections covering
    /// `window_bytes` of device address space.
    pub fn with_default_sections(window_bytes: u64) -> Self {
        let size = 1u64 << DEFAULT_SECTION_BITS;
        Self::new(DEFAULT_SECTION_BITS, window_bytes.div_ceil(size).max(1))
    }

    /// Section size in bytes.
    pub fn section_size(&self) -> u64 {
        1 << self.section_bits
    }

    /// Number of sections in the table.
    pub fn sections(&self) -> u64 {
        self.sections
    }

    /// The section index a device address falls in.
    pub fn index_of(&self, addr: DeviceAddress) -> u64 {
        addr.as_u64() >> self.section_bits
    }

    /// Programs a section.
    ///
    /// # Errors
    ///
    /// Fails on bad indices, misaligned bases, occupied sections, and on
    /// remote ranges that would alias an existing mapping on the same
    /// network flow.
    pub fn program(&mut self, index: u64, entry: SectionEntry) -> Result<(), RmmuError> {
        if index >= self.sections {
            return Err(RmmuError::BadIndex(index));
        }
        if !entry.remote_ea_base.is_multiple_of(128) {
            return Err(RmmuError::Misaligned(entry.remote_ea_base));
        }
        if lookup(&self.roots, index).is_some() {
            return Err(RmmuError::Occupied(index));
        }
        let size = self.section_size();
        let aliases = |o: SectionEntry| {
            entry.remote_ea_base < o.remote_ea_base + size
                && o.remote_ea_base < entry.remote_ea_base + size
        };
        let flow = self.by_network.entry(entry.network).or_default();
        if let Some(&i) = flow
            .iter()
            .find(|&&i| lookup(&self.roots, i).is_some_and(aliases))
        {
            return Err(RmmuError::Aliases { with_section: i });
        }
        let at = flow.partition_point(|&i| i < index);
        flow.insert(at, index);
        let (root, at) = locate(index);
        let root = self.roots[root].get_or_insert_with(Root::empty);
        root.entries[at] = Some(entry);
        root.programmed += 1;
        Ok(())
    }

    /// Clears a section (detach path).
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range or the section is unmapped.
    pub fn unprogram(&mut self, index: u64) -> Result<SectionEntry, RmmuError> {
        if index >= self.sections {
            return Err(RmmuError::BadIndex(index));
        }
        let (slot, at) = locate(index);
        let root = self.roots[slot]
            .as_mut()
            .ok_or(RmmuError::Unmapped(index))?;
        let entry = root.entries[at].take().ok_or(RmmuError::Unmapped(index))?;
        root.programmed -= 1;
        if root.programmed == 0 {
            self.roots[slot] = None;
        }
        if let Some(flow) = self.by_network.get_mut(&entry.network) {
            flow.retain(|&i| i != index);
            if flow.is_empty() {
                self.by_network.remove(&entry.network);
            }
        }
        Ok(entry)
    }

    /// Translates a device-internal address to the donor-side effective
    /// address plus forwarding information.
    ///
    /// # Errors
    ///
    /// Fails on addresses beyond the table or in unprogrammed sections —
    /// the control plane's safety property ("allow memory transactions
    /// forwarding only towards legal destinations, and fail otherwise").
    pub fn translate(&mut self, addr: DeviceAddress) -> Result<Translated, RmmuError> {
        let index = self.index_of(addr);
        if index >= self.sections {
            self.faults += 1;
            return Err(RmmuError::BadIndex(index));
        }
        let Some(entry) = lookup(&self.roots, index) else {
            self.faults += 1;
            return Err(RmmuError::Unmapped(index));
        };
        self.translations += 1;
        let offset = addr.as_u64() & (self.section_size() - 1);
        Ok(Translated {
            remote_ea: EffectiveAddress::new(entry.remote_ea_base + offset),
            network: entry.network,
            bonded: entry.bonded,
            section: index,
        })
    }

    /// The entry programmed at `index`, if any.
    pub fn entry(&self, index: u64) -> Option<SectionEntry> {
        (index < self.sections)
            .then(|| lookup(&self.roots, index))
            .flatten()
    }

    /// The first index of `run` consecutive unprogrammed sections, if
    /// the table still has such a run (the per-lease window carving the
    /// fabric attach path uses). An unallocated root counts as one free
    /// stretch of up to 256 sections, so the search visits only the
    /// entries of roots something is programmed in.
    pub fn first_free_run(&self, run: u64) -> Option<u64> {
        if run == 0 || run > self.sections {
            return None;
        }
        let mut start = 0u64;
        let mut len = 0u64;
        for (slot, root) in self.roots.iter().enumerate() {
            let base = (slot as u64) << ROOT_SHIFT;
            let span = (ROOT_SECTIONS as u64).min(self.sections - base);
            let Some(root) = root else {
                if len == 0 {
                    start = base;
                }
                len += span;
                if len >= run {
                    return Some(start);
                }
                continue;
            };
            for (i, e) in root.entries[..span as usize].iter().enumerate() {
                if e.is_some() {
                    len = 0;
                    continue;
                }
                if len == 0 {
                    start = base + i as u64;
                }
                len += 1;
                if len == run {
                    return Some(start);
                }
            }
        }
        None
    }

    /// Indices of sections programmed onto `network` (the teardown path:
    /// detaching a flow unprograms exactly these).
    pub fn sections_of(&self, network: NetworkId) -> Vec<u64> {
        self.by_network.get(&network).cloned().unwrap_or_default()
    }

    /// Indices of programmed sections, ascending.
    pub fn programmed(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (slot, root) in self.roots.iter().enumerate() {
            let Some(root) = root else { continue };
            let base = (slot as u64) << ROOT_SHIFT;
            for (i, e) in root.entries.iter().enumerate() {
                if e.is_some() {
                    out.push(base + i as u64);
                }
            }
        }
        out
    }

    /// Successful translations served.
    pub fn translations(&self) -> u64 {
        self.translations
    }

    /// Translation faults (unmapped / out-of-range).
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SectionTable {
        SectionTable::new(28, 4) // 4 x 256 MiB
    }

    #[test]
    fn translation_applies_offset_and_tags() {
        let mut t = table();
        t.program(1, SectionEntry::new(0xA000_0000, NetworkId(9)).bonded())
            .unwrap();
        let size = t.section_size();
        let got = t.translate(DeviceAddress::new(size + 0x4_2000)).unwrap();
        assert_eq!(got.remote_ea.as_u64(), 0xA000_0000 + 0x4_2000);
        assert_eq!(got.network, NetworkId(9));
        assert!(got.bonded);
        assert_eq!(got.section, 1);
    }

    #[test]
    fn unmapped_section_faults() {
        let mut t = table();
        assert_eq!(
            t.translate(DeviceAddress::new(0)),
            Err(RmmuError::Unmapped(0))
        );
        assert_eq!(t.faults(), 1);
    }

    #[test]
    fn out_of_range_faults() {
        let mut t = table();
        let beyond = t.section_size() * 4;
        assert_eq!(
            t.translate(DeviceAddress::new(beyond)),
            Err(RmmuError::BadIndex(4))
        );
    }

    #[test]
    fn occupied_section_rejected() {
        let mut t = table();
        t.program(0, SectionEntry::new(0, NetworkId(0))).unwrap();
        assert_eq!(
            t.program(0, SectionEntry::new(1 << 30, NetworkId(1))),
            Err(RmmuError::Occupied(0))
        );
    }

    #[test]
    fn aliasing_on_same_flow_rejected() {
        let mut t = table();
        t.program(0, SectionEntry::new(1 << 30, NetworkId(7)))
            .unwrap();
        // Overlapping remote range on the same network id.
        let overlapping = (1 << 30) + t.section_size() / 2;
        assert!(matches!(
            t.program(1, SectionEntry::new(overlapping, NetworkId(7))),
            Err(RmmuError::Aliases { with_section: 0 })
        ));
        // Same range on a *different* flow (different donor) is legal.
        t.program(1, SectionEntry::new(1 << 30, NetworkId(8)))
            .unwrap();
    }

    #[test]
    fn unprogram_then_reuse() {
        let mut t = table();
        t.program(2, SectionEntry::new(0x4000_0000, NetworkId(1)))
            .unwrap();
        let e = t.unprogram(2).unwrap();
        assert_eq!(e.remote_ea_base, 0x4000_0000);
        assert_eq!(
            t.translate(DeviceAddress::new(2 * t.section_size())),
            Err(RmmuError::Unmapped(2))
        );
        t.program(2, SectionEntry::new(0x8000_0000, NetworkId(1)))
            .unwrap();
    }

    #[test]
    fn misaligned_base_rejected() {
        let mut t = table();
        assert_eq!(
            t.program(0, SectionEntry::new(0x1001, NetworkId(0))),
            Err(RmmuError::Misaligned(0x1001))
        );
    }

    #[test]
    fn free_run_search_skips_programmed_islands() {
        let mut t = SectionTable::new(28, 8);
        t.program(2, SectionEntry::new(0x1000_0000, NetworkId(1)))
            .unwrap();
        t.program(5, SectionEntry::new(0x9000_0000, NetworkId(2)))
            .unwrap();
        assert_eq!(t.first_free_run(1), Some(0));
        assert_eq!(t.first_free_run(2), Some(0));
        // Longest gaps are two wide (0–1, 3–4, 6–7): no run of three.
        assert_eq!(t.first_free_run(3), None);
        assert_eq!(t.first_free_run(0), None);
        assert_eq!(t.first_free_run(9), None);
        // A fully programmed table has no runs.
        let mut full = SectionTable::new(28, 2);
        full.program(0, SectionEntry::new(0, NetworkId(1))).unwrap();
        full.program(1, SectionEntry::new(1 << 30, NetworkId(1)))
            .unwrap();
        assert_eq!(full.first_free_run(1), None);
    }

    #[test]
    fn sections_of_groups_by_network() {
        let mut t = SectionTable::new(28, 6);
        t.program(0, SectionEntry::new(0x1000_0000, NetworkId(7)))
            .unwrap();
        t.program(1, SectionEntry::new(0x5000_0000, NetworkId(7)))
            .unwrap();
        t.program(4, SectionEntry::new(0x9000_0000, NetworkId(8)))
            .unwrap();
        assert_eq!(t.sections_of(NetworkId(7)), vec![0, 1]);
        assert_eq!(t.sections_of(NetworkId(8)), vec![4]);
        assert!(t.sections_of(NetworkId(9)).is_empty());
    }

    #[test]
    fn roots_are_allocated_on_program_and_freed_with_their_last_section() {
        // A rack fabric's 1 TiB window: 4,096 sections in 16 roots.
        let mut t = SectionTable::with_default_sections(1 << 40);
        let live_roots = |t: &SectionTable| t.roots.iter().flatten().count();
        assert_eq!(t.roots.len(), 16);
        assert_eq!(live_roots(&t), 0);
        for (i, index) in [255u64, 256, 4_095].into_iter().enumerate() {
            let base = (i as u64 + 1) << 30;
            t.program(index, SectionEntry::new(base, NetworkId(3))).unwrap();
        }
        assert_eq!(live_roots(&t), 3);
        assert_eq!(t.programmed(), vec![255, 256, 4_095]);
        t.unprogram(256).unwrap();
        assert_eq!(live_roots(&t), 2);
        assert_eq!(t.unprogram(256), Err(RmmuError::Unmapped(256)));
        t.unprogram(255).unwrap();
        t.unprogram(4_095).unwrap();
        assert_eq!(live_roots(&t), 0);
        assert!(t.sections_of(NetworkId(3)).is_empty());
        assert_eq!(t.first_free_run(4_096), Some(0));
    }

    #[test]
    fn default_sections_cover_window() {
        let t = SectionTable::with_default_sections(3 << 30); // 3 GiB
        assert_eq!(t.sections(), 12); // 12 x 256 MiB
        assert_eq!(t.section_size(), 256 << 20);
    }
}
