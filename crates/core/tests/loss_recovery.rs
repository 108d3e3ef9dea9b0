//! Exactly-once or a typed fault under every loss model.
//!
//! The LLC replays what a lossy wire damages; the link watchdog replays
//! a lost tail and declares a link dead only once its wire has carried
//! no intact frame for [`DETECTION_WINDOW`]. So silent drops and CRC
//! errors, on one cable or across a multi-hop torus, must neither strand
//! a load nor kill a live link, and a wire that carries nothing at all
//! must fault every load exactly one detection window after it fell
//! silent.

use netsim::fault::FaultSpec;
use routing::plan::FlowPlan;
use routing::topology::{Line, NodeId, Torus2D};
use simkit::rng::DetRng;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{
    Fabric, FabricBuilder, FaultKind, PathId, PathSpec, StreamLoad, DETECTION_WINDOW,
};
use thymesisflow_core::params::DatapathParams;

/// Per-donor attachment size.
const SHARE: u64 = 256 << 20;

/// Issued and retired load counts from the fabric's telemetry.
fn issued_retired(fabric: &mut Fabric) -> (u64, u64) {
    let snap = fabric.telemetry_snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    (count("fabric.loads.issued"), count("fabric.loads.retired"))
}

/// One fabric on a 4×4 torus from its first host to seven donors: three
/// one-hop paths and four that forward through interior hosts.
fn torus(faults: FaultSpec, seed: u64) -> (Fabric, Vec<PathId>) {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let donors = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)];
    let mut rng = DetRng::split_stream(seed, 2);
    let mut builder =
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0));
    for (d, &(row, col)) in donors.iter().enumerate() {
        let plan = FlowPlan::donor(d);
        let mut spec = PathSpec::new(plan.network, plan.pasid, plan.donor_ea, SHARE)
            .labelled(&plan.label)
            .with_faults(faults);
        spec.seeds = vec![(rng.next_u64(), rng.next_u64())];
        builder = builder.path_to(torus.host_at(row, col), spec);
    }
    let (mut fabric, paths) = builder.build().expect("torus fabric assembles");
    fabric.set_telemetry(true);
    fabric.set_tracing(false);
    (fabric, paths)
}

/// A single-channel point-to-point path over a 2-node line.
fn point_to_point(faults: FaultSpec, seed: u64) -> (Fabric, PathId) {
    let mut rng = DetRng::split_stream(seed, 2);
    let mut spec = PathSpec::reference(SHARE, 1).with_faults(faults);
    spec.seeds = vec![(rng.next_u64(), rng.next_u64())];
    let line = Line::new(2).expect("a 2-node line");
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
            .path_to(NodeId(1), spec)
            .build()
            .expect("line fabric assembles");
    fabric.set_telemetry(true);
    fabric.set_tracing(false);
    (fabric, paths[0])
}

#[test]
fn multi_hop_loss_neither_strands_loads_nor_kills_live_links() {
    let models = [
        ("drop 1e-3", FaultSpec::new(1e-3, 0.0)),
        ("drop 3e-3", FaultSpec::new(3e-3, 0.0)),
        ("crc 1e-2", FaultSpec::new(0.0, 1e-2)),
    ];
    for (name, faults) in models {
        for seed in 1..=2 {
            let (mut fabric, paths) = torus(faults, seed);
            let loads: Vec<StreamLoad> = paths
                .iter()
                .map(|&path| StreamLoad {
                    path,
                    threads: 8,
                    window: 32,
                })
                .collect();
            let run = fabric.run_closed_loop(&loads, SimTime::from_us(150));
            let faults = fabric.faults().len();
            assert!(
                run.is_ok() && faults == 0,
                "{name} seed {seed}: {faults} loads faulted on live links ({run:?})"
            );
            fabric.drain().expect("the fabric drains");
            let (issued, retired) = issued_retired(&mut fabric);
            assert!(
                issued > 7 * 256,
                "{name} seed {seed}: the loop re-issued nothing"
            );
            assert_eq!(
                (retired, fabric.faults().len()),
                (issued, 0),
                "{name} seed {seed}: stranded loads"
            );
        }
    }
}

#[test]
fn crc_errors_on_a_point_to_point_path_strand_nothing() {
    for corrupt in [0.05, 0.5] {
        for seed in 0..20u64 {
            let (mut fabric, path) = point_to_point(FaultSpec::new(0.0, corrupt), seed);
            for _ in 0..256 {
                fabric.issue_read(path).expect("healthy path issues");
            }
            fabric.drain().expect("the fabric drains");
            let (issued, retired) = issued_retired(&mut fabric);
            assert_eq!(
                (issued, retired, fabric.faults().len()),
                (256, 256, 0),
                "crc {corrupt} seed {seed}: loads stranded or faulted"
            );
        }
    }
}

#[test]
fn total_loss_faults_every_load_one_detection_window_after_the_first_frame() {
    for (name, faults) in [
        ("drop 1.0", FaultSpec::new(1.0, 0.0)),
        ("crc 1.0", FaultSpec::new(0.0, 1.0)),
    ] {
        let (mut fabric, path) = point_to_point(faults, 7);
        for _ in 0..8 {
            fabric.issue_read(path).expect("healthy path issues");
        }
        fabric.drain().expect("the fabric drains");
        let (issued, retired) = issued_retired(&mut fabric);
        assert_eq!((issued, retired), (8, 0), "{name}: nothing can complete");
        let faults = fabric.faults();
        assert_eq!(faults.len(), 8, "{name}: every load must fault");
        // The first frame leaves well inside the first microsecond, and
        // the watchdog arms when the wire loses it.
        let first = faults[0].at;
        assert!(
            first >= DETECTION_WINDOW && first < DETECTION_WINDOW + SimTime::from_us(1),
            "{name}: link declared dead at {first}"
        );
        for f in faults {
            assert_eq!(f.kind, FaultKind::LinkDead { link: 0 }, "{name}");
            assert_eq!(f.at, first, "{name}: one declaration faults every load");
        }
    }
}
