//! Property tests: the two-level sparse-section array against a
//! one-map-entry-per-section reference.

use std::collections::BTreeMap;

use hostsim::hotplug::{
    HotplugError, Section, SectionState, SparseMemory, SECTIONS_PER_ROOT, SECTION_BYTES,
};
use proptest::prelude::*;

const NODES: u32 = 3;

/// The section number of the hotplug window firmware places at 4 TiB.
const WINDOW: u64 = (1u64 << 42) / SECTION_BYTES;

/// Section numbers the operations touch: both edges of roots 0, 1 and
/// 2, and the window's first sections with the entry just below it (the
/// last of the previous root).
const SECTIONS: [u64; 16] = [
    0,
    1,
    SECTIONS_PER_ROOT - 2,
    SECTIONS_PER_ROOT - 1,
    SECTIONS_PER_ROOT,
    SECTIONS_PER_ROOT + 1,
    2 * SECTIONS_PER_ROOT - 1,
    2 * SECTIONS_PER_ROOT,
    2 * SECTIONS_PER_ROOT + 1,
    3 * SECTIONS_PER_ROOT - 2,
    3 * SECTIONS_PER_ROOT - 1,
    WINDOW - 1,
    WINDOW,
    WINDOW + 1,
    WINDOW + 2,
    WINDOW + SECTIONS_PER_ROOT - 1,
];

/// One step of a random hotplug workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Probe(u64, u32),
    Online(u64),
    Offline(u64),
    Remove(u64),
    Run(u64, u64, u32),
}

/// A section start from [`SECTIONS`], or (one time in two) an address
/// inside that section.
fn address() -> impl Strategy<Value = u64> {
    const OFFSETS: [u64; 4] = [0, 0, 1, SECTION_BYTES / 2];
    (0..SECTIONS.len(), 0..OFFSETS.len())
        .prop_map(|(i, k)| SECTIONS[i] * SECTION_BYTES + OFFSETS[k])
}

/// Short runs, and runs long enough to cross one or two root edges.
fn run_length() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..=4, SECTIONS_PER_ROOT - 8..=2 * SECTIONS_PER_ROOT + 8]
}

fn op() -> impl Strategy<Value = Op> {
    let node = || 0u32..NODES;
    prop_oneof![
        (address(), node()).prop_map(|(a, n)| Op::Probe(a, n)),
        (address(), node()).prop_map(|(a, n)| Op::Probe(a, n)),
        address().prop_map(Op::Online),
        address().prop_map(Op::Online),
        address().prop_map(Op::Offline),
        address().prop_map(Op::Remove),
        (address(), run_length(), node()).prop_map(|(a, c, n)| Op::Run(a, c, n)),
    ]
}

/// The registry as one map entry per section: the layout the section
/// array replaced, kept as the model.
#[derive(Debug, Default)]
struct Reference {
    sections: BTreeMap<u64, Section>,
    hotplug_events: u64,
}

impl Reference {
    fn probe(&mut self, start: u64, node: u32) -> Result<(), HotplugError> {
        if !start.is_multiple_of(SECTION_BYTES) {
            return Err(HotplugError::Misaligned(start));
        }
        if self.sections.contains_key(&start) {
            return Err(HotplugError::AlreadyPresent(start));
        }
        let state = SectionState::Present;
        self.sections.insert(start, Section { start, state, node });
        self.hotplug_events += 1;
        Ok(())
    }

    fn set_state(
        &mut self,
        start: u64,
        from: SectionState,
        to: SectionState,
    ) -> Result<(), HotplugError> {
        let s = self
            .sections
            .get_mut(&start)
            .ok_or(HotplugError::NotPresent(start))?;
        if s.state != from {
            return Err(HotplugError::BadState(start));
        }
        s.state = to;
        self.hotplug_events += 1;
        Ok(())
    }

    fn online(&mut self, start: u64) -> Result<(), HotplugError> {
        self.set_state(start, SectionState::Present, SectionState::Online)
    }

    fn offline(&mut self, start: u64) -> Result<(), HotplugError> {
        self.set_state(start, SectionState::Online, SectionState::Present)
    }

    fn remove(&mut self, start: u64) -> Result<Section, HotplugError> {
        match self.sections.get(&start) {
            None => Err(HotplugError::NotPresent(start)),
            Some(s) if s.state == SectionState::Online => Err(HotplugError::BadState(start)),
            Some(_) => {
                self.hotplug_events += 1;
                self.sections
                    .remove(&start)
                    .ok_or(HotplugError::NotPresent(start))
            }
        }
    }

    /// All-or-nothing: the lowest present section in the run fails it,
    /// otherwise every section is probed and onlined in turn.
    fn probe_online_run(&mut self, start: u64, count: u64, node: u32) -> Result<(), HotplugError> {
        if !start.is_multiple_of(SECTION_BYTES) {
            return Err(HotplugError::Misaligned(start));
        }
        let end = start + count * SECTION_BYTES;
        if let Some(&present) = self.sections.range(start..end).next().map(|(s, _)| s) {
            return Err(HotplugError::AlreadyPresent(present));
        }
        for i in 0..count {
            self.probe(start + i * SECTION_BYTES, node)?;
            self.online(start + i * SECTION_BYTES)?;
        }
        Ok(())
    }

    fn online_bytes(&self, node: u32) -> u64 {
        self.sections
            .values()
            .filter(|s| s.node == node && s.state == SectionState::Online)
            .count() as u64
            * SECTION_BYTES
    }

    fn sections_of(&self, node: u32) -> Vec<Section> {
        self.sections
            .values()
            .filter(|s| s.node == node)
            .copied()
            .collect()
    }
}

/// Every observable of the registry: each pooled section (start, inner
/// address), each node's sections in order and online bytes, and the
/// event count.
type Observation = (Vec<Option<Section>>, Vec<(Vec<Section>, u64)>, u64);

fn observe(
    section: impl Fn(u64) -> Option<Section>,
    sections_of: impl Fn(u32) -> Vec<Section>,
    online_bytes: impl Fn(u32) -> u64,
    events: u64,
) -> Observation {
    let pooled = SECTIONS
        .iter()
        .flat_map(|&n| [n * SECTION_BYTES, n * SECTION_BYTES + SECTION_BYTES / 2])
        .map(section)
        .collect();
    let nodes = (0..NODES)
        .map(|n| (sections_of(n), online_bytes(n)))
        .collect();
    (pooled, nodes, events)
}

fn observe_real(m: &SparseMemory) -> Observation {
    observe(
        |a| m.section(a),
        |n| m.sections_of(n),
        |n| m.online_bytes(n),
        m.hotplug_events(),
    )
}

fn observe_reference(r: &Reference) -> Observation {
    observe(
        |a| r.sections.get(&a).copied(),
        |n| r.sections_of(n),
        |n| r.online_bytes(n),
        r.hotplug_events,
    )
}

/// Applies `op` to the real registry and to the reference, returning
/// both results in a comparable shape.
fn apply(
    m: &mut SparseMemory,
    r: &mut Reference,
    op: Op,
) -> (
    Result<Option<Section>, HotplugError>,
    Result<Option<Section>, HotplugError>,
) {
    match op {
        Op::Probe(a, n) => (m.probe(a, n).map(|()| None), r.probe(a, n).map(|()| None)),
        Op::Online(a) => (m.online(a).map(|()| None), r.online(a).map(|()| None)),
        Op::Offline(a) => (m.offline(a).map(|()| None), r.offline(a).map(|()| None)),
        Op::Remove(a) => (m.remove(a).map(Some), r.remove(a).map(Some)),
        Op::Run(a, c, n) => (
            m.probe_online_run(a, c, n).map(|()| None),
            r.probe_online_run(a, c, n).map(|()| None),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random probe/online/offline/remove/run sequences over 3 nodes
    /// return exactly what the per-section map returns, and after every
    /// step leave the same sections, the same per-node lists (in address
    /// order) and online bytes, and the same event count.
    #[test]
    fn matches_a_per_section_map(ops in prop::collection::vec(op(), 1..64)) {
        let mut m = SparseMemory::new();
        let mut r = Reference::default();
        for (step, &o) in ops.iter().enumerate() {
            let (got, want) = apply(&mut m, &mut r, o);
            prop_assert_eq!(got, want, "step {}: {:?}", step, o);
            prop_assert_eq!(observe_real(&m), observe_reference(&r), "after step {}: {:?}", step, o);
        }
    }

    /// A run is a per-section probe + online of every section in it,
    /// except that an overlap fails it whole: the error names the
    /// section the per-section calls stop at, and nothing changes.
    #[test]
    fn run_equals_per_section_probe_and_online(
        before in prop::collection::vec((address(), 0u32..NODES), 0..12),
        start in address(),
        count in run_length(),
        node in 0u32..NODES,
    ) {
        let mut base = SparseMemory::new();
        for &(a, n) in &before {
            // Misaligned and repeated probes fail and change nothing.
            let _ = base.probe(a, n);
        }
        let mut run = base.clone();
        let result = run.probe_online_run(start, count, node);

        let mut stepped = base.clone();
        let mut per_section = Ok(());
        for i in 0..count {
            let s = start + i * SECTION_BYTES;
            per_section = stepped.probe(s, node).and_then(|()| stepped.online(s));
            if per_section.is_err() {
                break;
            }
        }
        prop_assert_eq!(result, per_section);
        let expected = if per_section.is_ok() { &stepped } else { &base };
        prop_assert_eq!(observe_real(&run), observe_real(expected));
    }
}
