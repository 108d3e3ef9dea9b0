//! The two data-centre models.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::UtilSnapshot;
use crate::trace::TraceEvent;

/// Epsilon for floating-point capacity comparisons.
const EPS: f64 = 1e-9;

/// A data centre that can place and release tasks.
pub trait DataCentre {
    /// Attempts to place a task; `false` when capacity is exhausted.
    fn allocate(&mut self, ev: &TraceEvent) -> bool;
    /// Releases a task's resources.
    fn release(&mut self, id: u64);
    /// Current utilization snapshot.
    fn snapshot(&self) -> UtilSnapshot;
}

/// The conventional model: servers bundling CPU and memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedDataCentre {
    cpu_free: Vec<f64>,
    mem_free: Vec<f64>,
    allocations: BTreeMap<u64, (usize, f64, f64)>,
}

impl FixedDataCentre {
    /// Creates `servers` servers of unit CPU and unit memory each.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "need servers");
        FixedDataCentre {
            cpu_free: vec![1.0; servers],
            mem_free: vec![1.0; servers],
            allocations: BTreeMap::new(),
        }
    }
}

impl DataCentre for FixedDataCentre {
    fn allocate(&mut self, ev: &TraceEvent) -> bool {
        // Online best-fit: the feasible server with the least combined
        // leftover after placement.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.cpu_free.len() {
            if self.cpu_free[i] + EPS >= ev.cpu && self.mem_free[i] + EPS >= ev.mem {
                let leftover = (self.cpu_free[i] - ev.cpu) + (self.mem_free[i] - ev.mem);
                if best.is_none_or(|(_, l)| leftover < l) {
                    best = Some((i, leftover));
                }
            }
        }
        match best {
            Some((i, _)) => {
                self.cpu_free[i] -= ev.cpu;
                self.mem_free[i] -= ev.mem;
                self.allocations.insert(ev.id, (i, ev.cpu, ev.mem));
                true
            }
            None => false,
        }
    }

    fn release(&mut self, id: u64) {
        if let Some((i, cpu, mem)) = self.allocations.remove(&id) {
            self.cpu_free[i] = (self.cpu_free[i] + cpu).min(1.0);
            self.mem_free[i] = (self.mem_free[i] + mem).min(1.0);
        }
    }

    fn snapshot(&self) -> UtilSnapshot {
        let n = self.cpu_free.len() as f64;
        let mut cpu_frag = 0.0;
        let mut mem_frag = 0.0;
        let mut off = 0usize;
        for i in 0..self.cpu_free.len() {
            let unused = self.cpu_free[i] + EPS >= 1.0 && self.mem_free[i] + EPS >= 1.0;
            if unused {
                off += 1;
            } else {
                // Powered on: its free resources are stranded.
                cpu_frag += self.cpu_free[i];
                mem_frag += self.mem_free[i];
            }
        }
        UtilSnapshot {
            cpu_frag: cpu_frag / n,
            mem_frag: mem_frag / n,
            cpu_off: off as f64 / n,
            mem_off: off as f64 / n,
        }
    }
}

/// The disaggregated model: separate compute and memory modules, each
/// with a limited number of fabric links, fully connected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisaggregatedDataCentre {
    cpu_free: Vec<f64>,
    mem_free: Vec<f64>,
    // Established circuits between compute and memory modules: the
    // point-to-point links are shared by every flow between the same
    // module pair, so a link is consumed per *pair*, not per task.
    circuits: BTreeMap<(usize, usize), u32>,
    cpu_links_used: Vec<u32>,
    mem_links_used: Vec<u32>,
    allocations: BTreeMap<u64, Placement>,
    max_links: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Placement {
    compute: usize,
    cpu: f64,
    pieces: Vec<(usize, f64)>,
}

impl DisaggregatedDataCentre {
    /// Creates `modules` compute and `modules` memory modules of unit
    /// capacity, each with 16 fabric links (the paper's parallel
    /// transceivers).
    ///
    /// # Panics
    ///
    /// Panics if `modules == 0`.
    pub fn new(modules: usize) -> Self {
        Self::with_links(modules, 16)
    }

    /// Variant with a custom per-module link count.
    ///
    /// # Panics
    ///
    /// Panics if `modules == 0` or `links == 0`.
    pub(crate) fn with_links(modules: usize, links: u32) -> Self {
        assert!(modules > 0 && links > 0, "need modules and links");
        DisaggregatedDataCentre {
            cpu_free: vec![1.0; modules],
            mem_free: vec![1.0; modules],
            circuits: BTreeMap::new(),
            cpu_links_used: vec![0; modules],
            mem_links_used: vec![0; modules],
            allocations: BTreeMap::new(),
            max_links: links,
        }
    }
}

impl DisaggregatedDataCentre {
    /// Whether compute module `i` can reach memory module `j` — either a
    /// circuit already exists, or both sides have a spare link.
    fn reachable(&self, i: usize, j: usize) -> bool {
        self.circuits.contains_key(&(i, j))
            || (self.cpu_links_used[i] < self.max_links
                && self.mem_links_used[j] < self.max_links)
    }

    fn take_circuit(&mut self, i: usize, j: usize) {
        if let Some(refs) = self.circuits.get_mut(&(i, j)) {
            *refs += 1;
        } else {
            self.cpu_links_used[i] += 1;
            self.mem_links_used[j] += 1;
            self.circuits.insert((i, j), 1);
        }
    }

    fn drop_circuit(&mut self, i: usize, j: usize) {
        let refs = self
            .circuits
            .get_mut(&(i, j))
            .expect("releasing an unknown circuit");
        *refs -= 1;
        if *refs == 0 {
            self.circuits.remove(&(i, j));
            self.cpu_links_used[i] -= 1;
            self.mem_links_used[j] -= 1;
        }
    }
}

impl DataCentre for DisaggregatedDataCentre {
    fn allocate(&mut self, ev: &TraceEvent) -> bool {
        // Best-fit compute module.
        let mut compute: Option<(usize, f64)> = None;
        for i in 0..self.cpu_free.len() {
            if self.cpu_free[i] + EPS >= ev.cpu {
                let leftover = self.cpu_free[i] - ev.cpu;
                if compute.is_none_or(|(_, l)| leftover < l) {
                    compute = Some((i, leftover));
                }
            }
        }
        let (compute, _) = match compute {
            Some(c) => c,
            None => return false,
        };
        // Memory: best-fit a single reachable module; split across
        // several only when no single module can hold the request.
        let mut pieces: Vec<(usize, f64)> = Vec::new();
        let mut single: Option<(usize, f64)> = None;
        for j in 0..self.mem_free.len() {
            if self.mem_free[j] + EPS >= ev.mem && self.reachable(compute, j) {
                let leftover = self.mem_free[j] - ev.mem;
                if single.is_none_or(|(_, l)| leftover < l) {
                    single = Some((j, leftover));
                }
            }
        }
        if let Some((j, _)) = single {
            pieces.push((j, ev.mem));
        } else {
            // Split: take the fullest reachable modules first.
            let mut remaining = ev.mem;
            let mut order: Vec<usize> = (0..self.mem_free.len())
                .filter(|&j| self.mem_free[j] > EPS && self.reachable(compute, j))
                .collect();
            order.sort_by(|&a, &b| {
                self.mem_free[a]
                    .partial_cmp(&self.mem_free[b])
                    .expect("finite")
            });
            for j in order {
                let take = remaining.min(self.mem_free[j]);
                pieces.push((j, take));
                remaining -= take;
                if remaining <= EPS {
                    break;
                }
            }
            if remaining > EPS {
                return false;
            }
        }
        if pieces.is_empty() {
            return false;
        }
        // Commit.
        self.cpu_free[compute] -= ev.cpu;
        for &(j, amount) in &pieces {
            self.mem_free[j] -= amount;
            self.take_circuit(compute, j);
        }
        self.allocations.insert(
            ev.id,
            Placement {
                compute,
                cpu: ev.cpu,
                pieces,
            },
        );
        true
    }

    fn release(&mut self, id: u64) {
        if let Some(p) = self.allocations.remove(&id) {
            self.cpu_free[p.compute] = (self.cpu_free[p.compute] + p.cpu).min(1.0);
            for (j, amount) in p.pieces {
                self.mem_free[j] = (self.mem_free[j] + amount).min(1.0);
                self.drop_circuit(p.compute, j);
            }
        }
    }

    fn snapshot(&self) -> UtilSnapshot {
        let n = self.cpu_free.len() as f64;
        let mut cpu_frag = 0.0;
        let mut cpu_off = 0usize;
        for &f in &self.cpu_free {
            if f + EPS >= 1.0 {
                cpu_off += 1;
            } else {
                cpu_frag += f;
            }
        }
        let mut mem_frag = 0.0;
        let mut mem_off = 0usize;
        for &f in &self.mem_free {
            if f + EPS >= 1.0 {
                mem_off += 1;
            } else {
                mem_frag += f;
            }
        }
        UtilSnapshot {
            cpu_frag: cpu_frag / n,
            mem_frag: mem_frag / n,
            cpu_off: cpu_off as f64 / n,
            mem_off: mem_off as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, cpu: f64, mem: f64) -> TraceEvent {
        TraceEvent {
            id,
            arrive_s: 0.0,
            depart_s: 1.0,
            cpu,
            mem,
        }
    }

    #[test]
    fn fixed_best_fit_consolidates() {
        let mut dc = FixedDataCentre::new(3);
        assert!(dc.allocate(&ev(1, 0.6, 0.6)));
        // Best-fit places the next small task on the already-used server.
        assert!(dc.allocate(&ev(2, 0.3, 0.3)));
        let s = dc.snapshot();
        assert!((s.cpu_off - 2.0 / 3.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn fixed_rejects_when_no_server_fits_both() {
        let mut dc = FixedDataCentre::new(2);
        assert!(dc.allocate(&ev(1, 0.8, 0.1)));
        assert!(dc.allocate(&ev(2, 0.3, 0.95))); // forced onto server 1
        // Server 0 has (0.2 cpu, 0.9 mem) free; server 1 (0.7, 0.05):
        // nobody fits 0.3/0.3 even though the *totals* would.
        assert!(!dc.allocate(&ev(3, 0.3, 0.3)));
        // The disaggregated model places the same sequence trivially.
        let mut dis = DisaggregatedDataCentre::new(2);
        assert!(dis.allocate(&ev(1, 0.8, 0.1)));
        assert!(dis.allocate(&ev(2, 0.3, 0.95)));
        assert!(dis.allocate(&ev(3, 0.3, 0.3)));
    }

    #[test]
    fn release_restores_capacity() {
        let mut dc = FixedDataCentre::new(1);
        assert!(dc.allocate(&ev(1, 0.9, 0.9)));
        assert!(!dc.allocate(&ev(2, 0.5, 0.5)));
        dc.release(1);
        assert!(dc.allocate(&ev(2, 0.5, 0.5)));
        let mut dis = DisaggregatedDataCentre::new(1);
        assert!(dis.allocate(&ev(1, 0.9, 0.9)));
        dis.release(1);
        assert!(dis.allocate(&ev(2, 0.9, 0.9)));
    }

    #[test]
    fn disaggregated_splits_memory_across_modules() {
        let mut dis = DisaggregatedDataCentre::new(3);
        // Fill two memory modules to 0.5 each.
        assert!(dis.allocate(&ev(1, 0.1, 0.5)));
        assert!(dis.allocate(&ev(2, 0.1, 0.5)));
        assert!(dis.allocate(&ev(3, 0.1, 0.5)));
        // 0.9 memory no longer fits a single module (frees: .5,.5,.5)
        // but splits across two.
        assert!(dis.allocate(&ev(4, 0.1, 0.9)));
        let s = dis.snapshot();
        assert!(s.mem_frag < 0.35, "{s:?}");
    }

    #[test]
    fn links_are_per_module_pair_and_shared() {
        // Tasks between the same module pair share one circuit.
        let mut dis = DisaggregatedDataCentre::with_links(1, 1);
        assert!(dis.allocate(&ev(1, 0.1, 0.1)));
        assert!(dis.allocate(&ev(2, 0.1, 0.1)));
        dis.release(1);
        dis.release(2);
        assert!(dis.allocate(&ev(3, 0.1, 0.1)));
    }

    #[test]
    fn link_exhaustion_limits_reachability() {
        // With one link per module, a compute module can only ever talk
        // to one memory module at a time; a request needing a *second*
        // memory module from the same compute module must fail.
        let mut dis = DisaggregatedDataCentre::with_links(1, 1);
        assert!(dis.allocate(&ev(1, 0.2, 0.8)));
        // 0.8 memory no longer fits the single memory module, and a
        // split would need a second module that does not exist.
        assert!(!dis.allocate(&ev(2, 0.2, 0.8)));
        dis.release(1);
        assert!(dis.allocate(&ev(2, 0.2, 0.8)));
    }

    #[test]
    fn snapshot_counts_off_units_separately() {
        let mut dis = DisaggregatedDataCentre::new(4);
        assert!(dis.allocate(&ev(1, 0.5, 0.1)));
        let s = dis.snapshot();
        assert!((s.cpu_off - 0.75).abs() < 1e-9);
        assert!((s.mem_off - 0.75).abs() < 1e-9);
        assert!((s.cpu_frag - 0.5 / 4.0).abs() < 1e-9);
        assert!((s.mem_frag - 0.9 / 4.0).abs() < 1e-9);
    }
}
