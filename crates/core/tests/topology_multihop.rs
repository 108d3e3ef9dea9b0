//! Multi-hop forwarding properties and the Torus2D acceptance scenario.
//!
//! Three contracts from the topology layer's spec:
//!
//! 1. **Linearity** — on a line of hosts, the uncontended load RTT
//!    grows by exactly one per-hop increment per extra interior link;
//!    the increment itself is topology-independent.
//! 2. **Exact attribution** — a traced multi-hop load's spans sum to
//!    its RTT with no residue, and the interior traversals surface as a
//!    `SwitchTraversal` span of exactly `interior_nodes × 30 ns` per
//!    direction (the optical per-frame traversal constant).
//! 3. **Adaptive re-route** — a 4×4 torus running a cross-rack
//!    workload survives an interior link cut mid-run: the route is
//!    rebuilt around the cut, every in-flight load still resolves
//!    exactly once, and the detour avoids the downed link.
//!
//! It also measures the paper's §VII scaling claim on the fabric: at
//! most one switching layer keeps the remote load-to-use in budget.

use netsim::switch::CircuitSwitch;
use routing::topology::{Clos, Line, Torus2D};
use simkit::time::SimTime;
use thymesisflow_core::fabric::{
    ChaosPlan, Fabric, FabricBuilder, HopKind, PathId, PathSpec, StageKind, WireDir,
};
use thymesisflow_core::params::DatapathParams;

/// Uncontended single-load RTT over an `n`-host line end to end.
fn line_rtt(n: usize, channels: usize) -> SimTime {
    let line = Line::new(n).expect("line assembles");
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, routing::NodeId(0))
            .path_to(
                routing::NodeId((n - 1) as u32),
                PathSpec::reference(256 << 20, channels),
            )
            .build()
            .expect("line fabric assembles");
    fabric
        .measure_load_latency(paths[0])
        .expect("uncontended load completes")
}

#[test]
fn line_rtt_is_linear_in_hop_count() {
    for channels in [1, 2] {
        let rtts: Vec<SimTime> = (2..=6).map(|n| line_rtt(n, channels)).collect();
        let per_hop = rtts[1] - rtts[0];
        assert!(
            per_hop > SimTime::ZERO,
            "{channels}ch: an extra hop must cost time"
        );
        for (i, w) in rtts.windows(2).enumerate() {
            assert_eq!(
                w[1] - w[0],
                per_hop,
                "{channels}ch: hop increment drifted between {} and {} hosts",
                i + 3,
                i + 4,
            );
        }
        // RTT(n) == RTT(2) + (hops - 1) × per-hop, exactly.
        for (i, &rtt) in rtts.iter().enumerate() {
            assert_eq!(rtt, rtts[0] + per_hop * i as u64);
        }
    }
}

#[test]
fn multi_hop_spans_sum_exactly_to_rtt() {
    for n in [3usize, 5] {
        let line = Line::new(n).unwrap();
        let (mut fabric, paths) =
            FabricBuilder::from_topology(DatapathParams::prototype(), &line, routing::NodeId(0))
                .path_to(
                    routing::NodeId((n - 1) as u32),
                    PathSpec::reference(256 << 20, 1),
                )
                .build()
                .unwrap();
        let t = fabric.measure_traced_load(paths[0]).expect("traced probe");
        assert_eq!(
            t.spans_total(),
            t.rtt(),
            "{n}-host line: span decomposition left a residue"
        );
        // Interior nodes forward store-and-forward at the optical
        // traversal constant: 30 ns per interior node, per direction.
        let interior = (n - 2) as u64;
        for dir in [WireDir::Forward, WireDir::Reverse] {
            assert_eq!(
                t.time_in(HopKind::SwitchTraversal(dir)),
                SimTime::from_ns(30) * interior,
                "{n}-host line: {dir:?} interior traversal misattributed"
            );
        }
        // Contiguity: the spans tile [issued, retired] with no gaps.
        for w in t.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The inventory lists the live route's interior nodes, and
        // forgets them with the path.
        let forwarders = |f: &Fabric| {
            f.components()
                .iter()
                .filter(|(_, k)| *k == StageKind::CircuitSwitch)
                .count()
        };
        assert_eq!(forwarders(&fabric), n - 2);
        fabric.detach_path(paths[0]).unwrap();
        assert_eq!(forwarders(&fabric), 0);
    }
}

#[test]
fn torus_cross_rack_workload_reroutes_around_an_interior_cut() {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let src = torus.host_at(0, 0);
    let dst = torus.host_at(2, 2);
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, src)
            .path_to(dst, PathSpec::reference(256 << 20, 2).labelled("cross-rack"))
            .build()
            .expect("torus fabric assembles");
    let path = paths[0];
    fabric.set_telemetry(true);
    let route = fabric.topology_route(path).expect("routed path");
    assert_eq!(route.hops(), 4, "0,0 → 2,2 is manhattan distance 4");
    let names = fabric.topology_link_names();
    // Cut the route's first *interior* link mid-run, by topology name.
    let victim_idx = route.links[1];
    let victim = names[victim_idx].clone();
    fabric.schedule_chaos(&ChaosPlan::new().link_down_named(SimTime::from_ns(700), &victim));

    let issued: Vec<u64> = (0..24)
        .map(|_| fabric.issue_read(path).expect("healthy path issues"))
        .collect();
    let mut completed = Vec::new();
    while let Some(done) = fabric.step().expect("reroute is survivable") {
        completed.extend(done.iter().map(|c| c.tag));
    }
    let faults = fabric.faults();
    for &tag in &issued {
        let c = completed.iter().filter(|&&t| t == tag).count();
        let f = faults.iter().filter(|l| l.tag == tag).count();
        assert_eq!(c + f, 1, "tag {tag}: must resolve exactly once");
    }
    assert_eq!(
        completed.len(),
        issued.len(),
        "a torus has detours; the cut must strand nothing"
    );
    assert!(fabric.route_reroutes() >= 1, "no re-route was recorded");
    let detour = fabric.topology_route(path).expect("still routed");
    assert!(
        !detour.links.contains(&victim_idx),
        "the detour still crosses the downed link {victim}"
    );
    // The detour serves new traffic at a finite multi-hop RTT.
    let rtt = fabric.measure_load_latency(path).expect("detour serves");
    assert!(rtt > SimTime::ZERO);
}

#[test]
fn named_chaos_on_unknown_link_is_refused() {
    let torus = Torus2D::new(4, 4).unwrap();
    let src = torus.host_at(0, 0);
    let (mut fabric, _) = FabricBuilder::from_topology(DatapathParams::prototype(), &torus, src)
        .path_to(torus.host_at(1, 1), PathSpec::reference(256 << 20, 1))
        .build()
        .unwrap();
    fabric.schedule_chaos(
        &ChaosPlan::new().link_down_named(SimTime::from_ns(100), "not-a-link"),
    );
    // The bad target surfaces as a typed error when the event fires.
    let err = loop {
        match fabric.step() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("chaos on an unknown link was silently ignored"),
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        thymesisflow_core::fabric::FabricError::Topology(_)
    ));
}

/// A warm uncontended load's RTT: the second load on `path`, because a
/// switched path's first one waits ~25 µs for its circuit.
fn warm_rtt(mut fabric: Fabric, path: PathId) -> SimTime {
    fabric.measure_load_latency(path).expect("first load completes");
    fabric.measure_load_latency(path).expect("warm load completes")
}

/// Warm RTT over one optical circuit layer (a 1-donor circuit rack).
fn circuit_rtt(params: DatapathParams) -> SimTime {
    let (fabric, paths) =
        FabricBuilder::circuit_rack(params, 1, SHARE, CircuitSwitch::optical(8))
            .expect("circuit rack");
    warm_rtt(fabric, paths[0])
}

const SHARE: u64 = 256 << 20;

#[test]
fn at_most_one_switching_layer_keeps_the_rtt_in_budget() {
    // §VII: "only rack-scale disaggregation seems a feasible solution
    // (i.e. at most one switching layer) to maintain the RTT latency to
    // appropriate levels". Budget: 12× local DRAM.
    let budget = DatapathParams::prototype().local_load_latency() * 12;
    assert_eq!(budget.as_ns(), 1_260);

    let (fabric, path) = FabricBuilder::point_to_point(DatapathParams::prototype(), 1, SHARE)
        .expect("point-to-point");
    let direct = warm_rtt(fabric, path);
    assert_eq!(direct.as_ns(), 1_159);

    // One optical circuit layer: one traversal each way, inside budget.
    let circuit = circuit_rtt(DatapathParams::prototype());
    assert_eq!(circuit.as_ns(), 1_219);
    assert_eq!(circuit - direct, CircuitSwitch::optical(8).traversal_latency() * 2);
    assert!(circuit <= budget, "one circuit layer {circuit} over {budget}");

    // A 2-tier Clos route (leaf → spine → leaf) blows the budget.
    let clos = Clos::new(1, 2, 1).expect("2-tier Clos");
    let (src, dst) = (clos.host(0).unwrap(), clos.host(1).unwrap());
    let (fabric, paths) = FabricBuilder::from_topology(DatapathParams::prototype(), &clos, src)
        .path_to(dst, PathSpec::reference(SHARE, 1))
        .build()
        .expect("2-tier Clos fabric");
    let two_tier = warm_rtt(fabric, paths[0]);
    assert_eq!(two_tier.as_ns(), 2_083);
    assert!(two_tier > budget, "two switching tiers {two_tier} within {budget}");

    // ASIC integration buys the switching layer back: ASIC plus one
    // circuit layer beats the direct-attached FPGA prototype.
    let asic = circuit_rtt(DatapathParams::asic_integrated());
    assert_eq!(asic.as_ns(), 735);
    assert!(asic < direct, "asic + circuit {asic} vs prototype {direct}");
}
