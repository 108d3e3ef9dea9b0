//! Partitioned parallel execution of fabric shards.
//!
//! The fabric graph cuts cleanly at wire-channel boundaries: every
//! cross-shard interaction rides a link whose in-flight latency
//! (`Fabric::min_wire_latency`) bounds how soon one shard can affect
//! another. [`PartitionedFabric`] exploits that cut: it holds N whole
//! fabric shards (each a self-contained topology on its own event
//! queue), runs them under `simkit::partition`'s conservative
//! time-window protocol, and exchanges cross-shard traffic — chained
//! load issues — through the runner's barrier mailboxes.
//!
//! The workload is a ring of chained loads: a completion on shard `i`
//! forwards one deferred issue to shard `(i + 1) % N` at
//! `completion_instant + hop`, where `hop` is clamped to at least the
//! lookahead so the runner's window contract
//! (`delivery ≥ window bound`) holds by construction. Forwarding draws
//! from a finite per-shard budget, so runs terminate and every shard's
//! totals are reproducible.
//!
//! Determinism is the point: [`PartitionedFabric::run`] produces
//! bit-identical [`ShardDigest`]s — completion counts, an
//! order-sensitive completion fold, event counts and telemetry
//! snapshots — for **any** worker count, because each shard executes
//! sequentially inside its windows and the mailbox protocol imposes a
//! scheduling-independent total order on deliveries. Chaos scripts
//! stay shard-local ([`PartitionedFabric::schedule_chaos_on`]): a
//! failure lands on the event queue of the shard that owns the
//! affected link, never on a neighbour.

use std::collections::BTreeSet;

use netsim::switch::CircuitSwitch;
use routing::plan::FlowPlan;
use routing::topology::{Mesh, NodeId, NodeKind, Topology, TopologyError};
use simkit::partition::{
    run_conservative_timed, Outbox, Partition, PartitionError, RunStats, WindowClock,
};
use simkit::telemetry::Snapshot;
use simkit::time::SimTime;

use crate::fabric::builder::FabricBuilder;
use crate::fabric::chaos::ChaosPlan;
use crate::fabric::engine::{Completion, Fabric, FabricError, PathId, PathSpec};
use crate::params::DatapathParams;

/// Cross-shard message: one chained load issue for the receiving shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMsg {
    /// Issue one cacheline read on the receiver's next round-robin path.
    ChainLoad,
}

/// Workload shape for a partitioned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Loads seeded per path per shard before the run starts.
    pub seeds_per_path: usize,
    /// Spacing between consecutive seed issues on one shard.
    pub seed_spacing: SimTime,
    /// Completions each shard may forward to its ring successor before
    /// the chain dries up (bounds the run).
    pub forward_budget: u64,
    /// Cross-shard hop latency; clamped up to the lookahead at
    /// construction so forwarded issues always clear the window bound.
    pub hop: SimTime,
}

impl WorkloadSpec {
    /// A small chained-ring workload suitable for gate tests.
    pub fn quick() -> Self {
        WorkloadSpec {
            seeds_per_path: 4,
            seed_spacing: SimTime::from_ns(200),
            forward_budget: 32,
            hop: SimTime::from_ns(150),
        }
    }
}

/// Scheduling-independent summary of one shard's run, the unit of the
/// 1-vs-N bit-identity contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDigest {
    /// Shard index.
    pub shard: usize,
    /// Completions observed.
    pub completions: u64,
    /// Order-sensitive fold over every completion's
    /// `(tag, path, latency)` — two runs match only if the same
    /// completions popped in the same order.
    pub completion_fold: u64,
    /// Events the shard's queue processed.
    pub events_processed: u64,
    /// Deferred issues refused because their path was poisoned.
    pub injects_refused: u64,
    /// Load faults the shard recorded (chaos scenarios).
    pub faults: u64,
    /// Telemetry snapshot JSON, when telemetry was enabled.
    pub telemetry_json: Option<String>,
}

/// One partition: a whole fabric plus its chained-ring workload state.
#[derive(Debug)]
pub struct FabricShard {
    fabric: Fabric,
    paths: Vec<PathId>,
    index: usize,
    shard_count: usize,
    hop: SimTime,
    forward_budget: u64,
    next_path: usize,
    completions: u64,
    completion_fold: u64,
}

impl FabricShard {
    fn new(fabric: Fabric, paths: Vec<PathId>, index: usize, shard_count: usize) -> Self {
        FabricShard {
            fabric,
            paths,
            index,
            shard_count,
            hop: SimTime::ZERO,
            forward_budget: 0,
            next_path: 0,
            completions: 0,
            completion_fold: 0,
        }
    }

    /// The shard's underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable access to the shard's fabric (chaos scripts, telemetry
    /// toggles, wire-batching opt-in).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Folds one completion into the shard digest and forwards a
    /// chained issue to the ring successor while budget lasts.
    fn absorb_completion(&mut self, now: SimTime, c: &Completion, outbox: &mut Outbox<ShardMsg>) {
        self.completions += 1;
        self.completion_fold = fold_completion(self.completion_fold, c);
        if self.forward_budget > 0 && self.shard_count > 1 {
            self.forward_budget -= 1;
            let dest = (self.index + 1) % self.shard_count;
            // A hop past the end of SimTime cannot be simulated; the
            // chain ends (deterministically) instead of panicking.
            if let Some(at) = now.checked_add(self.hop) {
                outbox.send(dest, at, ShardMsg::ChainLoad);
            }
        }
    }

    fn digest(&mut self) -> ShardDigest {
        let telemetry_json = if self.fabric.telemetry_enabled() {
            Some(self.fabric.telemetry_snapshot().to_json())
        } else {
            None
        };
        ShardDigest {
            shard: self.index,
            completions: self.completions,
            completion_fold: self.completion_fold,
            events_processed: self.fabric.events_processed(),
            injects_refused: self.fabric.injects_refused(),
            faults: self.fabric.faults().len() as u64,
            telemetry_json,
        }
    }
}

/// Order-sensitive completion fold: rotate-and-mix so both the set and
/// the sequence of completions pin the digest.
fn fold_completion(fold: u64, c: &Completion) -> u64 {
    let mixed = c
        .tag
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(c.path.0).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ c.latency.as_ps().wrapping_mul(0x1656_67b1_9e37_79f9);
    fold.rotate_left(7) ^ mixed
}

impl Partition for FabricShard {
    type Msg = ShardMsg;
    type Error = FabricError;

    fn next_event_time(&self) -> Option<SimTime> {
        self.fabric.next_event_time()
    }

    fn run_window(
        &mut self,
        bound: SimTime,
        outbox: &mut Outbox<ShardMsg>,
    ) -> Result<(), FabricError> {
        let mut done = Vec::new();
        while self
            .fabric
            .next_event_time()
            .is_some_and(|t| t < bound)
        {
            self.fabric.step_into(&mut done)?;
            let now = self.fabric.now();
            for c in done.drain(..) {
                self.absorb_completion(now, &c, outbox);
            }
        }
        Ok(())
    }

    fn deliver(&mut self, at: SimTime, msg: ShardMsg) -> Result<(), FabricError> {
        match msg {
            ShardMsg::ChainLoad => {
                let path = self.paths[self.next_path % self.paths.len()];
                self.next_path += 1;
                self.fabric.schedule_read(path, at)
            }
        }
    }
}

/// N fabric shards plus the conservative-window machinery to run them
/// in parallel with bit-identical output for any worker count.
#[derive(Debug)]
pub struct PartitionedFabric {
    shards: Vec<FabricShard>,
    lookahead: SimTime,
}

impl PartitionedFabric {
    /// Partitions `shards` point-to-point fabrics (the reference
    /// topology) into a chained ring under `workload`.
    ///
    /// # Errors
    ///
    /// Propagates shard construction failures; rejects empty shard sets
    /// and fabrics without a wire latency as
    /// [`FabricError::Config`].
    pub fn point_to_point(
        params: DatapathParams,
        shards: usize,
        channels: usize,
        bytes: u64,
        workload: WorkloadSpec,
    ) -> Result<Self, FabricError> {
        Self::from_fn(shards, workload, |_| {
            let (fabric, id) = FabricBuilder::point_to_point(params.clone(), channels, bytes)?;
            Ok((fabric, vec![id]))
        })
    }

    /// Partitions `shards` circuit-rack fabrics (fan-out through an
    /// optical circuit switch) into a chained ring under `workload`.
    ///
    /// # Errors
    ///
    /// As [`PartitionedFabric::point_to_point`], plus switch-port
    /// exhaustion.
    pub fn circuit_rack(
        params: DatapathParams,
        shards: usize,
        donors: usize,
        share: u64,
        workload: WorkloadSpec,
    ) -> Result<Self, FabricError> {
        // Two switch ports per circuit, with headroom for reconfiguration.
        let ports = (donors as u32 * 4).max(8);
        Self::from_fn(shards, workload, |_| {
            FabricBuilder::circuit_rack(params.clone(), donors, share, CircuitSwitch::optical(ports))
        })
    }

    /// Partitions a declared topology along named link cuts: every
    /// connected component left after removing `cut_links` that still
    /// holds two or more hosts becomes one shard — a whole routed
    /// fabric over the component's sub-mesh (names preserved), with
    /// the component's smallest host as the compute endpoint and every
    /// other host donating a `share`-byte window on its own
    /// [`FlowPlan`].
    ///
    /// The conservative lookahead comes from the minimum live wire
    /// latency across the shards; with uniform `params` that is
    /// exactly the flight latency of the cut links themselves — the
    /// soonest a frame could have crossed the cut had it stayed wired.
    ///
    /// # Errors
    ///
    /// Rejects unknown cut-link names
    /// ([`FabricError::Topology`]), empty cuts, and cuts that leave
    /// fewer than two multi-host components; propagates shard
    /// construction failures.
    pub fn from_topology_cut(
        params: DatapathParams,
        topo: &dyn Topology,
        cut_links: &[&str],
        share: u64,
        workload: WorkloadSpec,
    ) -> Result<Self, FabricError> {
        if cut_links.is_empty() {
            return Err(FabricError::Config(
                "a topology cut needs at least one cut link".into(),
            ));
        }
        let mesh = Mesh::snapshot(topo);
        let mut cut = BTreeSet::new();
        for name in cut_links {
            let idx = mesh.link_named(name).ok_or_else(|| {
                FabricError::Topology(TopologyError::UnknownLink((*name).to_string()))
            })?;
            cut.insert(idx);
        }
        let hosts_of = |comp: &BTreeSet<NodeId>| -> Vec<NodeId> {
            mesh.nodes()
                .iter()
                .filter(|n| n.kind == NodeKind::Host && comp.contains(&n.id))
                .map(|n| n.id)
                .collect()
        };
        let subs: Vec<Mesh> = mesh
            .components_without(&cut)
            .into_iter()
            .filter(|comp| hosts_of(comp).len() >= 2)
            .map(|comp| mesh.subgraph(&comp))
            .collect();
        if subs.len() < 2 {
            return Err(FabricError::Config(format!(
                "cutting {cut_links:?} leaves {} multi-host component(s); \
                 a partition needs at least two",
                subs.len()
            )));
        }
        Self::from_fn(subs.len(), workload, |i| {
            let sub = &subs[i];
            let hosts: Vec<NodeId> = sub
                .nodes()
                .iter()
                .filter(|n| n.kind == NodeKind::Host)
                .map(|n| n.id)
                .collect();
            let mut builder = FabricBuilder::new(params.clone())
                .topology(sub.clone(), hosts[0]);
            for (d, &donor) in hosts[1..].iter().enumerate() {
                let plan = FlowPlan::donor(d);
                builder = builder.path_to(
                    donor,
                    PathSpec::new(plan.network, plan.pasid, plan.donor_ea, share)
                        .labelled(&plan.label),
                );
            }
            builder.build()
        })
    }

    /// Builds a partitioned fabric from an arbitrary per-shard
    /// constructor: the cut is a builder-level decision, so any
    /// topology the builder can assemble can shard.
    ///
    /// # Errors
    ///
    /// Propagates `make` failures; rejects zero shards, shards without
    /// paths, and fabrics with no live wire (no lookahead source).
    pub fn from_fn<F>(
        shards: usize,
        workload: WorkloadSpec,
        mut make: F,
    ) -> Result<Self, FabricError>
    where
        F: FnMut(usize) -> Result<(Fabric, Vec<PathId>), FabricError>,
    {
        if shards == 0 {
            return Err(FabricError::Config(
                "partitioned fabric needs at least one shard".into(),
            ));
        }
        let mut built = Vec::with_capacity(shards);
        let mut lookahead = SimTime::MAX;
        for i in 0..shards {
            let (fabric, paths) = make(i)?;
            if paths.is_empty() {
                return Err(FabricError::Config(format!(
                    "shard {i} built no paths; the chained workload needs one"
                )));
            }
            let wire = fabric.min_wire_latency().ok_or_else(|| {
                FabricError::Config(format!(
                    "shard {i} has no live wire to derive a lookahead from"
                ))
            })?;
            lookahead = lookahead.min(wire);
            built.push(FabricShard::new(fabric, paths, i, shards));
        }
        if lookahead == SimTime::ZERO {
            return Err(FabricError::Config(
                "zero wire latency admits no conservative window".into(),
            ));
        }
        // The ring hop must clear the window bound: clamp it up to the
        // lookahead so `now + hop >= t_min + lookahead` always holds.
        let hop = workload.hop.max(lookahead);
        for (i, shard) in built.iter_mut().enumerate() {
            shard.hop = hop;
            shard.forward_budget = workload.forward_budget;
            for (p, &path) in shard.paths.clone().iter().enumerate() {
                for s in 0..workload.seeds_per_path {
                    // Stagger seeds so shards interleave in simulated
                    // time; offsets are per shard+path+seed and fixed.
                    let tick = (i + p * shards + s * shards * shard.paths.len()) as u64;
                    let at = SimTime::from_ps(
                        tick.wrapping_mul(workload.seed_spacing.as_ps()),
                    );
                    shard.fabric.schedule_read(path, at)?;
                }
            }
        }
        Ok(PartitionedFabric {
            shards: built,
            lookahead,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead (minimum wire flight latency across
    /// every shard's live links).
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Mutable access to one shard (chaos scripts, fabric knobs).
    pub fn shard_mut(&mut self, shard: usize) -> Option<&mut FabricShard> {
        self.shards.get_mut(shard)
    }

    /// Enables or disables telemetry on every shard (snapshots then
    /// appear in [`ShardDigest::telemetry_json`]).
    pub fn set_telemetry(&mut self, enabled: bool) {
        for s in &mut self.shards {
            s.fabric.set_telemetry(enabled);
        }
    }

    /// Schedules a chaos script on the shard that owns the affected
    /// links. Failures never leak to other shards: each shard's links
    /// live on its own event queue.
    ///
    /// # Errors
    ///
    /// Rejects unknown shard indices.
    pub fn schedule_chaos_on(&mut self, shard: usize, plan: &ChaosPlan) -> Result<(), FabricError> {
        let count = self.shards.len();
        let s = self.shards.get_mut(shard).ok_or_else(|| {
            FabricError::Config(format!("chaos aimed at shard {shard} of {count}"))
        })?;
        s.fabric.schedule_chaos(plan);
        Ok(())
    }

    /// Runs every shard to completion on `workers` threads under
    /// conservative windows. Digest output is bit-identical for any
    /// `workers`.
    ///
    /// # Errors
    ///
    /// Propagates window-protocol violations and shard simulation
    /// failures.
    pub fn run(&mut self, workers: usize) -> Result<RunStats, PartitionError<FabricError>> {
        run_conservative_timed(
            &mut self.shards,
            self.lookahead,
            workers,
            &simkit::partition::NullClock,
        )
    }

    /// [`PartitionedFabric::run`] with a benchmark clock for per-worker
    /// busy-time measurement.
    ///
    /// # Errors
    ///
    /// As [`PartitionedFabric::run`].
    pub fn run_timed<K: WindowClock>(
        &mut self,
        workers: usize,
        clock: &K,
    ) -> Result<RunStats, PartitionError<FabricError>> {
        run_conservative_timed(&mut self.shards, self.lookahead, workers, clock)
    }

    /// Per-shard digests: the quantities the 1-vs-N bit-identity gate
    /// compares.
    pub fn digests(&mut self) -> Vec<ShardDigest> {
        self.shards.iter_mut().map(FabricShard::digest).collect()
    }

    /// Aggregate events processed across all shards (the partitioned
    /// bench's throughput numerator).
    pub fn total_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.fabric.events_processed())
            .sum()
    }

    /// Telemetry snapshot of one shard (enables nothing; `None` unless
    /// telemetry is on).
    pub fn shard_snapshot(&mut self, shard: usize) -> Option<Snapshot> {
        let s = self.shards.get_mut(shard)?;
        if s.fabric.telemetry_enabled() {
            Some(s.fabric.telemetry_snapshot())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::chaos::{ChaosEvent, LinkRef};
    use simkit::time::SimTime;

    fn quick_ring(shards: usize) -> PartitionedFabric {
        PartitionedFabric::point_to_point(
            DatapathParams::prototype(),
            shards,
            2,
            256 << 20,
            WorkloadSpec::quick(),
        )
        .unwrap()
    }

    #[test]
    fn one_vs_many_workers_is_bit_identical() {
        let mut reference = quick_ring(4);
        reference.run(1).unwrap();
        let want = reference.digests();
        assert!(want.iter().any(|d| d.completions > 0));
        for workers in [2, 4] {
            let mut pf = quick_ring(4);
            pf.run(workers).unwrap();
            assert_eq!(pf.digests(), want, "digest drift at {workers} workers");
        }
    }

    #[test]
    fn chained_loads_actually_cross_shards() {
        let mut pf = quick_ring(3);
        let stats = pf.run(2).unwrap();
        assert!(
            stats.messages > 0,
            "the ring workload must exchange cross-shard mail"
        );
        // Every shard both seeds and receives chained loads, so each
        // sees more completions than its own seeds alone.
        let seeds = WorkloadSpec::quick().seeds_per_path as u64;
        for d in pf.digests() {
            assert!(d.completions > seeds, "shard {} ran only its seeds", d.shard);
        }
    }

    #[test]
    fn lookahead_comes_from_the_wire() {
        let pf = quick_ring(2);
        assert!(pf.lookahead() > SimTime::ZERO);
        assert_eq!(
            Some(pf.lookahead()),
            pf.shards[0].fabric.min_wire_latency()
        );
    }

    #[test]
    fn chaos_lands_only_on_the_owning_shard() {
        let mut pf = quick_ring(3);
        let plan = ChaosPlan::new().at(
            SimTime::from_ns(400),
            ChaosEvent::LinkDown {
                link: LinkRef::Slot(0),
            },
        );
        pf.schedule_chaos_on(1, &plan).unwrap();
        pf.run(2).unwrap();
        let digests = pf.digests();
        assert!(
            digests[1].faults > 0 || digests[1].injects_refused > 0,
            "owning shard saw no effect of its chaos script"
        );
        for d in [&digests[0], &digests[2]] {
            assert_eq!(d.faults, 0, "chaos leaked to shard {}", d.shard);
        }
    }

    #[test]
    fn chaos_runs_stay_bit_identical_across_worker_counts() {
        let run = |workers: usize| {
            let mut pf = quick_ring(3);
            let plan = ChaosPlan::new().at(
                SimTime::from_ns(500),
                ChaosEvent::LinkFlap {
                    link: LinkRef::Slot(0),
                    down_for: SimTime::from_us(2),
                },
            );
            pf.schedule_chaos_on(2, &plan).unwrap();
            pf.run(workers).unwrap();
            pf.digests()
        };
        let want = run(1);
        assert_eq!(run(3), want);
    }

    #[test]
    fn topology_cut_partitions_along_named_links() {
        // Cutting h1-h2 splits a 4-host line into two 2-host shards.
        let line = routing::topology::Line::new(4).unwrap();
        let mut pf = PartitionedFabric::from_topology_cut(
            DatapathParams::prototype(),
            &line,
            &["h1-h2"],
            256 << 20,
            WorkloadSpec::quick(),
        )
        .unwrap();
        assert_eq!(pf.shard_count(), 2);
        pf.run(2).unwrap();
        for d in pf.digests() {
            assert!(d.completions > 0, "shard {} sat idle", d.shard);
        }
    }

    #[test]
    fn unknown_cut_link_is_a_topology_error() {
        let line = routing::topology::Line::new(4).unwrap();
        let err = PartitionedFabric::from_topology_cut(
            DatapathParams::prototype(),
            &line,
            &["h9-h10"],
            256 << 20,
            WorkloadSpec::quick(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FabricError::Topology(TopologyError::UnknownLink(_))
        ));
    }

    #[test]
    fn a_cut_that_does_not_disconnect_is_refused() {
        // A ring survives any single cut; there is nothing to partition.
        let ring = routing::topology::Ring::new(4).unwrap();
        let err = PartitionedFabric::from_topology_cut(
            DatapathParams::prototype(),
            &ring,
            &["h0-h1"],
            256 << 20,
            WorkloadSpec::quick(),
        )
        .unwrap_err();
        assert!(matches!(err, FabricError::Config(_)));
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let err = PartitionedFabric::point_to_point(
            DatapathParams::prototype(),
            0,
            1,
            256 << 20,
            WorkloadSpec::quick(),
        )
        .unwrap_err();
        assert!(matches!(err, FabricError::Config(_)));
    }
}
