//! AutoNUMA-style page migration.
//!
//! "The kernel can optimize the access to frequently used memory areas by
//! reusing existing NUMA page migration algorithms that move pages from
//! distant to closer (including local) memory nodes." This module models
//! the scanning daemon: it tracks per-page access counts and, each scan
//! period, migrates the hottest remote pages to the local node while
//! capacity lasts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::numa::{NumaNodeId, NumaTopology};

/// A logical page identifier inside one workload's working set.
pub(crate) type PageId = u64;

/// Where each page of a working set lives.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct PagePlacement {
    map: BTreeMap<PageId, NumaNodeId>,
}

impl PagePlacement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places a page.
    pub fn place(&mut self, page: PageId, node: NumaNodeId) {
        self.map.insert(page, node);
    }

    /// The node a page lives on.
    pub fn node_of(&self, page: PageId) -> Option<NumaNodeId> {
        self.map.get(&page).copied()
    }

    /// Number of pages on a node.
    pub fn pages_on(&self, node: NumaNodeId) -> u64 {
        self.map.values().filter(|n| **n == node).count() as u64
    }

    /// Total tracked pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no page is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The migration daemon.
///
/// # Example
///
/// ```
/// use hostsim::migration::{MigrationDaemon, PagePlacement};
/// use hostsim::numa::{AllocPolicy, NumaNodeId, NumaTopology};
///
/// let mut numa = NumaTopology::new();
/// numa.add_node(NumaNodeId(0), vec![0], 100).unwrap();
/// numa.add_cpuless_node(NumaNodeId(1), 100, 80).unwrap();
/// numa.allocate(&AllocPolicy::Bind(NumaNodeId(1)), NumaNodeId(0), 10).unwrap();
///
/// let mut placement = PagePlacement::new();
/// for p in 0..10 {
///     placement.place(p, NumaNodeId(1));
/// }
/// let mut daemon = MigrationDaemon::new(NumaNodeId(0), 3);
/// for _ in 0..100 { daemon.record_access(7); }  // page 7 is hot
/// let moved = daemon.scan(&mut numa, &mut placement);
/// assert_eq!(moved, 1);
/// assert_eq!(placement.node_of(7), Some(NumaNodeId(0)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MigrationDaemon {
    local: NumaNodeId,
    hot_threshold: u64,
    counters: BTreeMap<PageId, u64>,
}

impl MigrationDaemon {
    /// Creates a daemon migrating towards `local`; a page is hot once it
    /// accumulates `hot_threshold` accesses within a scan period.
    pub fn new(local: NumaNodeId, hot_threshold: u64) -> Self {
        MigrationDaemon {
            local,
            hot_threshold: hot_threshold.max(1),
            counters: BTreeMap::new(),
        }
    }

    /// Records one access to a page (the NUMA hinting fault).
    pub fn record_access(&mut self, page: PageId) {
        *self.counters.entry(page).or_insert(0) += 1;
    }

    /// Runs one scan: migrates hot non-local pages to the local node
    /// while it has free pages; resets counters. Returns pages moved.
    pub fn scan(&mut self, numa: &mut NumaTopology, placement: &mut PagePlacement) -> u64 {
        let mut hot: Vec<(PageId, u64)> = self
            .counters
            .iter()
            .filter(|(page, count)| {
                **count >= self.hot_threshold
                    && placement.node_of(**page).is_some_and(|n| n != self.local)
            })
            .map(|(p, c)| (*p, *c))
            .collect();
        // Hottest first.
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut moved = 0;
        for (page, _) in hot {
            let from = placement.node_of(page).expect("filtered above");
            match numa.migrate(from, self.local, 1) {
                Ok(1) => {
                    placement.place(page, self.local);
                    moved += 1;
                }
                _ => break, // local node is full
            }
        }
        self.counters.clear();
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::AllocPolicy;

    fn setup(local_pages: u64) -> (NumaTopology, PagePlacement) {
        let mut numa = NumaTopology::new();
        numa.add_node(NumaNodeId(0), vec![0], local_pages).unwrap();
        numa.add_cpuless_node(NumaNodeId(1), 1000, 80).unwrap();
        numa.allocate(&AllocPolicy::Bind(NumaNodeId(1)), NumaNodeId(0), 100)
            .unwrap();
        let mut placement = PagePlacement::new();
        for p in 0..100 {
            placement.place(p, NumaNodeId(1));
        }
        (numa, placement)
    }

    #[test]
    fn hottest_pages_move_first() {
        let (mut numa, mut placement) = setup(2);
        let mut d = MigrationDaemon::new(NumaNodeId(0), 2);
        for _ in 0..10 {
            d.record_access(5);
        }
        for _ in 0..5 {
            d.record_access(6);
        }
        for _ in 0..3 {
            d.record_access(7);
        }
        // Local node only fits 2 pages: 5 and 6 move, 7 stays.
        let moved = d.scan(&mut numa, &mut placement);
        assert_eq!(moved, 2);
        assert_eq!(placement.node_of(5), Some(NumaNodeId(0)));
        assert_eq!(placement.node_of(6), Some(NumaNodeId(0)));
        assert_eq!(placement.node_of(7), Some(NumaNodeId(1)));
    }

    #[test]
    fn cold_pages_stay() {
        let (mut numa, mut placement) = setup(100);
        let mut d = MigrationDaemon::new(NumaNodeId(0), 5);
        d.record_access(1); // below threshold
        assert_eq!(d.scan(&mut numa, &mut placement), 0);
        assert_eq!(placement.node_of(1), Some(NumaNodeId(1)));
    }

    #[test]
    fn counters_reset_each_scan() {
        let (mut numa, mut placement) = setup(100);
        let mut d = MigrationDaemon::new(NumaNodeId(0), 4);
        for _ in 0..3 {
            d.record_access(2);
        }
        assert_eq!(d.scan(&mut numa, &mut placement), 0);
        // 3 more accesses post-scan: still below threshold in this period.
        for _ in 0..3 {
            d.record_access(2);
        }
        assert_eq!(d.scan(&mut numa, &mut placement), 0);
        for _ in 0..4 {
            d.record_access(2);
        }
        assert_eq!(d.scan(&mut numa, &mut placement), 1);
    }

    #[test]
    fn already_local_pages_ignored() {
        let (mut numa, mut placement) = setup(100);
        placement.place(50, NumaNodeId(0));
        let mut d = MigrationDaemon::new(NumaNodeId(0), 1);
        for _ in 0..10 {
            d.record_access(50);
        }
        assert_eq!(d.scan(&mut numa, &mut placement), 0);
    }
}
