//! Linux sparse-memory hotplug.
//!
//! "The logical attachment of disaggregated memory to a running Linux
//! kernel is performed using the Linux memory hotplug functionality […]
//! The only information needed to hotplug a memory section is its start
//! address in the physical address space where the compute endpoint is
//! mapped. The orchestration software […] passes this information to the
//! agent, which uses the memory hotplug subsystem to probe and online
//! the new memory."
//!
//! Sections move through the classic lifecycle:
//! `Absent → Present (offline) → Online → Offline → Absent`.
//!
//! # Layout
//!
//! [`SparseMemory`] keeps the layout Linux uses under
//! `SPARSEMEM_EXTREME`: a two-level section array. A section's number is
//! its start address over [`SECTION_BYTES`]. The high bits of that
//! number pick a *root* covering [`SECTIONS_PER_ROOT`] consecutive
//! sections (64 GiB of address space); the low 8 bits pick one small
//! `(state, node)` entry inside it. A root is allocated by the first
//! probe that lands in it and freed when its last section is removed,
//! so the registry holds only the roots that something occupies. Beside
//! the array, every NUMA node keeps its present and online section
//! counts and the span of section numbers its sections lie in.
//!
//! What each host operation costs:
//!
//! - **Boot** registers each socket's DRAM as one run
//!   ([`SparseMemory::probe_online_run`]): one overlap check and one
//!   count update for the whole run, then one entry write per section.
//!   An AC922's 2,048 DRAM sections fill 8 roots.
//! - **Attach** registers the ThymesisFlow window as one run too. It
//!   allocates a root only if no other window already shares it.
//! - **Detach** lists the node's sections with
//!   [`SparseMemory::sections_of`], which walks only the roots inside
//!   the node's span and stops at its last present section. A window's
//!   teardown therefore visits the window's own root, never the host's
//!   DRAM. [`SparseMemory::online_bytes`] reads a counter.

use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;

use serde::{DeError, Deserialize, Serialize, Value};

/// Section size (matches the RMMU and kernel sparse model: 256 MiB).
pub const SECTION_BYTES: u64 = 256 << 20;

/// Section-number bits resolved inside one root.
const ROOT_SHIFT: u32 = 8;

/// Sections per root of the two-level section array: 256 consecutive
/// sections, 64 GiB of address space.
pub const SECTIONS_PER_ROOT: u64 = 1 << ROOT_SHIFT;

/// [`SECTIONS_PER_ROOT`] as an array length.
const ROOT_ENTRIES: usize = 1 << ROOT_SHIFT;

/// The highest section number the 64-bit address space holds.
const LAST_SECTION: u64 = u64::MAX / SECTION_BYTES;

/// Lifecycle state of one sparse section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SectionState {
    /// Probed (struct pages allocated) but not yet online.
    Present,
    /// Online: pages are in the allocator of the owning NUMA node.
    Online,
}

/// One present section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// Start real address (section aligned).
    pub start: u64,
    /// Lifecycle state.
    pub state: SectionState,
    /// The NUMA node the section belongs to.
    pub node: u32,
}

/// Hotplug errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotplugError {
    /// Start address not section aligned.
    Misaligned(u64),
    /// The section is already present.
    AlreadyPresent(u64),
    /// The section is not present.
    NotPresent(u64),
    /// Operation invalid in the current state (e.g. removing an online
    /// section).
    BadState(u64),
}

impl fmt::Display for HotplugError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotplugError::Misaligned(a) => write!(f, "address {a:#x} not section aligned"),
            HotplugError::AlreadyPresent(a) => write!(f, "section at {a:#x} already present"),
            HotplugError::NotPresent(a) => write!(f, "no section at {a:#x}"),
            HotplugError::BadState(a) => write!(f, "section at {a:#x} in wrong state"),
        }
    }
}

impl std::error::Error for HotplugError {}

/// One present section's entry in its root.
#[derive(Debug, Clone, Copy)]
struct Entry {
    state: SectionState,
    node: u32,
}

/// The entries of [`SECTIONS_PER_ROOT`] consecutive sections.
#[derive(Debug, Clone)]
struct Root {
    /// Occupied entries; the root is freed when the last one goes.
    present: usize,
    entries: [Option<Entry>; ROOT_ENTRIES],
}

impl Root {
    fn empty() -> Box<Root> {
        Box::new(Root {
            present: 0,
            entries: [None; ROOT_ENTRIES],
        })
    }
}

/// One NUMA node's sections, counted.
#[derive(Debug, Clone, Copy)]
struct NodeSections {
    present: u64,
    online: u64,
    /// The lowest and highest section number probed for the node since
    /// its present count last rose from zero: every present section of
    /// the node lies between them.
    first: u64,
    last: u64,
}

/// The root and the entry index of a section-aligned address.
fn locate(start: u64) -> Option<(u64, usize)> {
    let section = start.is_multiple_of(SECTION_BYTES).then_some(start / SECTION_BYTES)?;
    Some((
        section >> ROOT_SHIFT,
        (section % SECTIONS_PER_ROOT) as usize,
    ))
}

/// The start address of entry `index` in root `root`.
fn start_of(root: u64, index: usize) -> u64 {
    ((root << ROOT_SHIFT) | index as u64) * SECTION_BYTES
}

/// The entry indices of root `root` that section numbers `first..=last`
/// cover; the root must lie inside their span.
fn entries_in(root: u64, first: u64, last: u64) -> RangeInclusive<usize> {
    let base = root << ROOT_SHIFT;
    let lo = first.max(base) - base;
    let hi = last.min(base + SECTIONS_PER_ROOT - 1) - base;
    lo as usize..=hi as usize
}

/// The sparse-memory section registry of one host, laid out as the
/// two-level section array described in the [module docs](self).
///
/// # Example
///
/// ```
/// use hostsim::hotplug::{SparseMemory, SectionState, SECTION_BYTES};
///
/// let mut mem = SparseMemory::new();
/// mem.probe(SECTION_BYTES * 4, 1)?; // node 1 = the CPU-less remote node
/// mem.online(SECTION_BYTES * 4)?;
/// assert_eq!(mem.online_bytes(1), SECTION_BYTES);
/// // Boot-style: 8 sections of node 0 probed and onlined in one run.
/// mem.probe_online_run(SECTION_BYTES * 8, 8, 0)?;
/// assert_eq!(mem.online_bytes(0), 8 * SECTION_BYTES);
/// assert_eq!(mem.hotplug_events(), 2 + 16);
/// # Ok::<(), hostsim::hotplug::HotplugError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    roots: BTreeMap<u64, Box<Root>>,
    nodes: BTreeMap<u32, NodeSections>,
    hotplug_events: u64,
}

impl SparseMemory {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_aligned(start: u64) -> Result<(), HotplugError> {
        if !start.is_multiple_of(SECTION_BYTES) {
            Err(HotplugError::Misaligned(start))
        } else {
            Ok(())
        }
    }

    /// The entry of the section at `start`, if it is present.
    fn entry(&self, start: u64) -> Option<Entry> {
        let (root, index) = locate(start)?;
        self.roots.get(&root)?.entries[index]
    }

    /// Counts `sections` new sections of `node` between section numbers
    /// `first` and `last`.
    fn count_in(&mut self, node: u32, first: u64, last: u64, sections: u64) -> &mut NodeSections {
        let c = self.nodes.entry(node).or_insert(NodeSections {
            present: 0,
            online: 0,
            first,
            last,
        });
        c.present += sections;
        c.first = c.first.min(first);
        c.last = c.last.max(last);
        c
    }

    /// Fills section numbers `first..=last`, all absent, with `entry`.
    fn fill(&mut self, first: u64, last: u64, entry: Entry) {
        for r in first >> ROOT_SHIFT..=last >> ROOT_SHIFT {
            let root = self.roots.entry(r).or_insert_with(Root::empty);
            let slots = &mut root.entries[entries_in(r, first, last)];
            slots.fill(Some(entry));
            root.present += slots.len();
        }
    }

    /// The first present section number in `first..=last`.
    fn first_present(&self, first: u64, last: u64) -> Option<u64> {
        self.roots
            .range(first >> ROOT_SHIFT..=last >> ROOT_SHIFT)
            .find_map(|(&r, root)| {
                let i = entries_in(r, first, last).find(|&i| root.entries[i].is_some())?;
                Some((r << ROOT_SHIFT) | i as u64)
            })
    }

    /// Every present section, in address order.
    fn sections(&self) -> impl Iterator<Item = Section> + '_ {
        self.roots.iter().flat_map(|(&r, root)| {
            root.entries.iter().enumerate().filter_map(move |(i, e)| {
                e.map(|e| Section {
                    start: start_of(r, i),
                    state: e.state,
                    node: e.node,
                })
            })
        })
    }

    /// Probes a section: allocates its metadata and assigns it to `node`.
    ///
    /// # Errors
    ///
    /// Fails on misaligned addresses or already-present sections.
    pub fn probe(&mut self, start: u64, node: u32) -> Result<(), HotplugError> {
        Self::check_aligned(start)?;
        let section = start / SECTION_BYTES;
        if self.entry(start).is_some() {
            return Err(HotplugError::AlreadyPresent(start));
        }
        self.fill(
            section,
            section,
            Entry {
                state: SectionState::Present,
                node,
            },
        );
        self.count_in(node, section, section, 1);
        self.hotplug_events += 1;
        Ok(())
    }

    /// Probes and onlines `count` consecutive sections from `start`, all
    /// assigned to `node`: what boot does with a socket's DRAM. Counts
    /// two hotplug events per section, exactly as a [`probe`] and an
    /// [`online`] per section do, but checks the whole run before it
    /// changes anything. A `count` of zero does nothing.
    ///
    /// [`probe`]: SparseMemory::probe
    /// [`online`]: SparseMemory::online
    ///
    /// # Errors
    ///
    /// Fails with `Misaligned(start)` on a misaligned `start`, and with
    /// `AlreadyPresent` naming the lowest present section if the run
    /// overlaps any; either way the registry is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the end of the 64-bit address
    /// space.
    pub fn probe_online_run(
        &mut self,
        start: u64,
        count: u64,
        node: u32,
    ) -> Result<(), HotplugError> {
        Self::check_aligned(start)?;
        if count == 0 {
            return Ok(());
        }
        let first = start / SECTION_BYTES;
        let last = first
            .checked_add(count - 1)
            .filter(|&l| l <= LAST_SECTION)
            .expect("the run ends inside the address space");
        if let Some(s) = self.first_present(first, last) {
            return Err(HotplugError::AlreadyPresent(s * SECTION_BYTES));
        }
        self.fill(
            first,
            last,
            Entry {
                state: SectionState::Online,
                node,
            },
        );
        self.count_in(node, first, last, count).online += count;
        self.hotplug_events += 2 * count;
        Ok(())
    }

    /// Onlines a present section, making its pages allocatable.
    ///
    /// # Errors
    ///
    /// Fails if the section is absent or already online.
    pub fn online(&mut self, start: u64) -> Result<(), HotplugError> {
        self.set_state(start, SectionState::Present, SectionState::Online)?;
        self.hotplug_events += 1;
        Ok(())
    }

    /// Offlines an online section (pages must be migrated away first in a
    /// real kernel; the model treats that as instantaneous).
    ///
    /// # Errors
    ///
    /// Fails if the section is absent or already offline.
    pub fn offline(&mut self, start: u64) -> Result<(), HotplugError> {
        self.set_state(start, SectionState::Online, SectionState::Present)?;
        self.hotplug_events += 1;
        Ok(())
    }

    /// Moves the section at `start` from state `from` to `to` and keeps
    /// its node's online count.
    fn set_state(
        &mut self,
        start: u64,
        from: SectionState,
        to: SectionState,
    ) -> Result<(), HotplugError> {
        let entry = locate(start)
            .and_then(|(root, index)| self.roots.get_mut(&root)?.entries[index].as_mut())
            .ok_or(HotplugError::NotPresent(start))?;
        if entry.state != from {
            return Err(HotplugError::BadState(start));
        }
        entry.state = to;
        let c = self
            .nodes
            .get_mut(&entry.node)
            .expect("every present section's node is counted");
        match to {
            SectionState::Online => c.online += 1,
            SectionState::Present => c.online -= 1,
        }
        Ok(())
    }

    /// Removes an offline section entirely.
    ///
    /// # Errors
    ///
    /// Fails if the section is absent or still online.
    pub fn remove(&mut self, start: u64) -> Result<Section, HotplugError> {
        let (r, index) = locate(start).ok_or(HotplugError::NotPresent(start))?;
        let MapEntry::Occupied(mut root) = self.roots.entry(r) else {
            return Err(HotplugError::NotPresent(start));
        };
        let entry = root.get().entries[index].ok_or(HotplugError::NotPresent(start))?;
        if entry.state == SectionState::Online {
            return Err(HotplugError::BadState(start));
        }
        let slots = root.get_mut();
        slots.entries[index] = None;
        slots.present -= 1;
        if slots.present == 0 {
            root.remove();
        }
        if let MapEntry::Occupied(mut c) = self.nodes.entry(entry.node) {
            c.get_mut().present -= 1;
            if c.get().present == 0 {
                c.remove();
            }
        }
        self.hotplug_events += 1;
        Ok(Section {
            start,
            state: entry.state,
            node: entry.node,
        })
    }

    /// The section covering `start`, if present.
    pub fn section(&self, start: u64) -> Option<Section> {
        self.entry(start).map(|e| Section {
            start,
            state: e.state,
            node: e.node,
        })
    }

    /// Online bytes owned by a NUMA node.
    pub fn online_bytes(&self, node: u32) -> u64 {
        self.nodes.get(&node).map_or(0, |c| c.online) * SECTION_BYTES
    }

    /// All sections of a node, any state, in address order.
    pub fn sections_of(&self, node: u32) -> Vec<Section> {
        let Some(c) = self.nodes.get(&node) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (&r, root) in self
            .roots
            .range(c.first >> ROOT_SHIFT..=c.last >> ROOT_SHIFT)
        {
            for i in entries_in(r, c.first, c.last) {
                let Some(e) = root.entries[i].filter(|e| e.node == node) else {
                    continue;
                };
                out.push(Section {
                    start: start_of(r, i),
                    state: e.state,
                    node,
                });
                if out.len() as u64 == c.present {
                    return out;
                }
            }
        }
        out
    }

    /// Total hotplug operations performed.
    pub fn hotplug_events(&self) -> u64 {
        self.hotplug_events
    }
}

/// The serialized form: every present section keyed by its start
/// address, plus the event count.
#[derive(Serialize, Deserialize)]
struct Flat {
    sections: BTreeMap<u64, Section>,
    hotplug_events: u64,
}

impl Serialize for SparseMemory {
    fn serialize(&self) -> Value {
        Flat {
            sections: self.sections().map(|s| (s.start, s)).collect(),
            hotplug_events: self.hotplug_events,
        }
        .serialize()
    }
}

impl Deserialize for SparseMemory {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let flat = Flat::deserialize(v)?;
        let mut mem = SparseMemory::new();
        for (start, s) in flat.sections {
            if start != s.start {
                return Err(DeError::new(format!(
                    "section keyed {start:#x} starts at {:#x}",
                    s.start
                )));
            }
            let rebuilt = match s.state {
                SectionState::Online => mem.probe_online_run(start, 1, s.node),
                SectionState::Present => mem.probe(start, s.node),
            };
            rebuilt.map_err(|e| DeError::new(e.to_string()))?;
        }
        mem.hotplug_events = flat.hotplug_events;
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle() {
        let mut m = SparseMemory::new();
        let s = SECTION_BYTES * 8;
        m.probe(s, 2).unwrap();
        assert_eq!(m.section(s).unwrap().state, SectionState::Present);
        m.online(s).unwrap();
        assert_eq!(m.online_bytes(2), SECTION_BYTES);
        m.offline(s).unwrap();
        assert_eq!(m.online_bytes(2), 0);
        let sec = m.remove(s).unwrap();
        assert_eq!(sec.node, 2);
        assert!(m.section(s).is_none());
        assert_eq!(m.hotplug_events(), 4);
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut m = SparseMemory::new();
        let s = SECTION_BYTES;
        assert_eq!(m.online(s), Err(HotplugError::NotPresent(s)));
        m.probe(s, 0).unwrap();
        assert_eq!(m.offline(s), Err(HotplugError::BadState(s)));
        m.online(s).unwrap();
        assert_eq!(m.online(s), Err(HotplugError::BadState(s)));
        // Cannot remove while online.
        assert_eq!(m.remove(s), Err(HotplugError::BadState(s)));
        assert_eq!(m.probe(s, 0), Err(HotplugError::AlreadyPresent(s)));
    }

    #[test]
    fn misaligned_probe_rejected() {
        let mut m = SparseMemory::new();
        assert_eq!(m.probe(42, 0), Err(HotplugError::Misaligned(42)));
    }

    #[test]
    fn per_node_accounting() {
        let mut m = SparseMemory::new();
        for i in 0..4 {
            let s = SECTION_BYTES * i;
            m.probe(s, (i % 2) as u32).unwrap();
            m.online(s).unwrap();
        }
        assert_eq!(m.online_bytes(0), 2 * SECTION_BYTES);
        assert_eq!(m.online_bytes(1), 2 * SECTION_BYTES);
        assert_eq!(m.sections_of(0).len(), 2);
    }

    #[test]
    fn runs_cross_roots_and_refuse_overlaps_whole() {
        let mut m = SparseMemory::new();
        let root = SECTIONS_PER_ROOT * SECTION_BYTES;
        // Two sections below the first root edge, one above it.
        m.probe_online_run(root - 2 * SECTION_BYTES, 3, 4).unwrap();
        assert_eq!(m.online_bytes(4), 3 * SECTION_BYTES);
        assert_eq!(m.hotplug_events(), 6);
        let starts: Vec<u64> = m.sections_of(4).iter().map(|s| s.start).collect();
        assert_eq!(
            starts,
            [root - 2 * SECTION_BYTES, root - SECTION_BYTES, root]
        );
        // An overlapping run names the lowest present section and
        // changes nothing.
        assert_eq!(
            m.probe_online_run(root - 4 * SECTION_BYTES, 8, 5),
            Err(HotplugError::AlreadyPresent(root - 2 * SECTION_BYTES))
        );
        assert_eq!(m.sections_of(5), []);
        assert_eq!(m.section(root - 4 * SECTION_BYTES), None);
        assert_eq!(m.hotplug_events(), 6);
        assert_eq!(
            m.probe_online_run(7, 1, 5),
            Err(HotplugError::Misaligned(7))
        );
        assert_eq!(m.probe_online_run(0, 0, 5), Ok(()));
        assert_eq!(m.hotplug_events(), 6);
    }

    #[test]
    fn roots_are_freed_with_their_last_section() {
        let mut m = SparseMemory::new();
        let window = 1u64 << 42;
        m.probe_online_run(window, 64, 255).unwrap();
        assert_eq!(m.roots.len(), 1);
        for s in m.sections_of(255) {
            m.offline(s.start).unwrap();
            m.remove(s.start).unwrap();
        }
        assert!(m.roots.is_empty());
        assert!(m.nodes.is_empty());
        assert_eq!(m.hotplug_events(), 4 * 64);
    }

    #[test]
    fn serializes_as_a_flat_section_map() {
        let mut m = SparseMemory::new();
        m.probe_online_run(0, 2, 0).unwrap();
        m.probe(1u64 << 42, 255).unwrap();
        let v = m.serialize();
        let sections = v.get("sections").and_then(Value::as_map).unwrap();
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["0", "268435456", "4398046511104"]);
        assert_eq!(v.get("hotplug_events"), Some(&Value::UInt(5)));
        let back = SparseMemory::deserialize(&v).unwrap();
        assert_eq!(
            back.sections().collect::<Vec<_>>(),
            m.sections().collect::<Vec<_>>()
        );
        assert_eq!(back.online_bytes(0), 2 * SECTION_BYTES);
        assert_eq!(back.hotplug_events(), 5);
    }
}
