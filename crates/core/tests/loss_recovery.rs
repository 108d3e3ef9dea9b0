//! Exactly-once or a typed fault under every loss model.
//!
//! The LLC replays what a lossy wire damages; the link watchdog replays
//! a lost tail and declares a link dead only once its wire has carried
//! no intact frame for [`DETECTION_WINDOW`]. So silent drops and CRC
//! errors, on one cable or across a multi-hop torus, must neither strand
//! a load nor kill a live link, an outage shorter than the detection
//! window must cost only replays, and a wire that carries nothing at
//! all must fault every load exactly one detection window after it fell
//! silent.
//!
//! The LLC's own delivery properties run here, on the fabric's links:
//! every load completes exactly once and in issue order under random
//! loss, and under flaps before and between bursts while frame ids wrap
//! past `u64::MAX`. Debug builds check flit and credit conservation in
//! every LLC state machine along the way.
//!
//! Recovery is one path: the receiver asks once per gap and the watchdog
//! retries a silent link, so replays do not stack on a lossy link, and a
//! drained link owes its wire nothing even though acks coalesce and its
//! last frames stay unacknowledged.

use llc::LlcConfig;
use netsim::fault::FaultSpec;
use proptest::prelude::*;
use routing::plan::FlowPlan;
use routing::topology::{Line, NodeId, Torus2D};
use simkit::rng::DetRng;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{
    ChaosEvent, ChaosPlan, Fabric, FabricBuilder, FaultKind, LinkRef, PathId, PathSpec, StreamLoad,
    DETECTION_WINDOW,
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

/// A single-channel point-to-point path over a 2-node line whose links
/// run the LLC calibration `llc`.
fn point_to_point(llc: LlcConfig, faults: FaultSpec, seed: u64) -> (Fabric, PathId) {
    let mut rng = DetRng::split_stream(seed, 2);
    let mut spec = PathSpec::reference(SHARE, 1).with_faults(faults);
    spec.seeds = vec![(rng.next_u64(), rng.next_u64())];
    let line = Line::new(2).expect("a 2-node line");
    let params = DatapathParams {
        llc,
        ..DatapathParams::prototype()
    };
    let (mut fabric, paths) = FabricBuilder::from_topology(params, &line, NodeId(0))
        .path_to(NodeId(1), spec)
        .build()
        .expect("line fabric assembles");
    fabric.set_telemetry(true);
    fabric.set_tracing(false);
    (fabric, paths[0])
}

/// Issues `n` loads on `path`, recording their tags in `issued`.
fn issue(fabric: &mut Fabric, path: PathId, n: usize, issued: &mut Vec<u64>) {
    for _ in 0..n {
        issued.push(fabric.issue_read(path).expect("a live path issues"));
    }
}

/// Runs every event due at or before `until`, recording the tags of
/// the loads they retire in `retired`.
fn run_through(fabric: &mut Fabric, until: SimTime, retired: &mut Vec<u64>) {
    while fabric.next_event_time().is_some_and(|t| t <= until) {
        let done = fabric.step().expect("no protocol violation");
        retired.extend(done.iter().flatten().map(|c| c.tag));
    }
}

/// Runs the fabric dry, recording the tags of the loads it retires.
fn drain_into(fabric: &mut Fabric, retired: &mut Vec<u64>) {
    while let Some(done) = fabric.step().expect("no protocol violation") {
        retired.extend(done.iter().map(|c| c.tag));
    }
}

/// Asserts that every live link of `paths` owes its wire nothing once
/// drained: the watchdog lets an idle link sit dark, so a flap longer
/// than the detection window on every link at once faults no load, and
/// each path serves one more.
fn assert_links_idle(fabric: &mut Fabric, paths: &[PathId], what: &str) {
    let now = fabric.now();
    let mut plan = ChaosPlan::new();
    for &path in paths {
        for link in fabric.path_link_stats(path).expect("live path") {
            plan = plan.at(
                now,
                ChaosEvent::LinkFlap {
                    link: LinkRef::Slot(link.link),
                    down_for: SimTime::from_us(60),
                },
            );
        }
    }
    fabric.schedule_chaos(&plan);
    let (mut issued, mut retired) = (Vec::new(), Vec::new());
    drain_into(fabric, &mut retired);
    assert!(fabric.faults().is_empty(), "{what}: {:?}", fabric.faults());
    for &path in paths {
        issue(fabric, path, 1, &mut issued);
    }
    drain_into(fabric, &mut retired);
    retired.sort_unstable();
    assert_eq!(retired, issued, "{what}: every path serves on");
}

/// Issues E9's 500 loads at once on a point-to-point link with
/// `faults` and drains it; checks that every load retired exactly once,
/// in issue order, with no fault, and returns the frames both channels
/// carried.
fn e9_frames(faults: FaultSpec, seed: u64) -> u64 {
    let (mut fabric, path) = point_to_point(LlcConfig::default(), faults, seed);
    let (mut issued, mut retired) = (Vec::new(), Vec::new());
    issue(&mut fabric, path, 500, &mut issued);
    drain_into(&mut fabric, &mut retired);
    assert!(
        fabric.faults().is_empty(),
        "seed {seed}: {:?}",
        fabric.faults()
    );
    assert_eq!(retired, issued, "seed {seed}: exactly once, in issue order");
    let link = fabric.path_link_stats(path).expect("live path")[0];
    link.fwd_frames + link.rev_frames
}

/// Darkens the point-to-point link for `down_for`, starting now.
fn flap(fabric: &mut Fabric, down_for: SimTime) -> SimTime {
    let now = fabric.now();
    fabric.schedule_chaos(&ChaosPlan::new().at(
        now,
        ChaosEvent::LinkFlap {
            link: LinkRef::Slot(0),
            down_for,
        },
    ));
    now + down_for
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
            let (mut fabric, path) =
                point_to_point(LlcConfig::default(), FaultSpec::new(0.0, corrupt), seed);
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
        let (mut fabric, path) = point_to_point(LlcConfig::default(), faults, 7);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// Random drops and CRC errors on both directions: replay delivers
    /// every load exactly once, in issue order, and none faults.
    #[test]
    fn lossy_link_completes_every_load_once_in_issue_order(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        loads in 1usize..160,
    ) {
        let (mut fabric, path) =
            point_to_point(LlcConfig::default(), FaultSpec::new(drop, corrupt), seed);
        let (mut issued, mut retired) = (Vec::new(), Vec::new());
        issue(&mut fabric, path, loads, &mut issued);
        drain_into(&mut fabric, &mut retired);
        prop_assert!(fabric.faults().is_empty(), "{:?}", fabric.faults());
        prop_assert_eq!(retired, issued);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The wire goes dark for less than a detection window before a
    /// burst, and again between two bursts once the receiver's cursor
    /// has moved past bring-up state, with random drops on top and
    /// frame ids wrapping past `u64::MAX` within the first frames.
    /// Loads issued after the link comes back still complete after the
    /// replayed burst, duplicates dedup against live state, and no load
    /// faults.
    #[test]
    fn flaps_before_and_between_bursts_cost_only_replays(
        seed in 0u64..1_000_000,
        offset in 0u64..48,
        drop in 0.0f64..0.15,
        bursts in (1usize..80, 0usize..40, 1usize..80),
        dark_ns in (1u64..=20_000, 1u64..=20_000),
    ) {
        let llc = LlcConfig {
            initial_frame_id: u64::MAX - offset,
            ..LlcConfig::default()
        };
        let (mut fabric, path) = point_to_point(llc, FaultSpec::new(drop, 0.0), seed);
        let (mut issued, mut retired) = (Vec::new(), Vec::new());
        // Dark before the first burst: the wire eats all of it.
        let back = flap(&mut fabric, SimTime::from_ns(dark_ns.0));
        issue(&mut fabric, path, bursts.0, &mut issued);
        run_through(&mut fabric, back, &mut retired);
        issue(&mut fabric, path, bursts.1, &mut issued);
        drain_into(&mut fabric, &mut retired);
        // Dark again between bursts, on a link whose last frames are
        // still unacknowledged.
        flap(&mut fabric, SimTime::from_ns(dark_ns.1));
        issue(&mut fabric, path, bursts.2, &mut issued);
        drain_into(&mut fabric, &mut retired);
        prop_assert!(fabric.faults().is_empty(), "{:?}", fabric.faults());
        prop_assert_eq!(retired, issued);
        let replays: u64 = fabric
            .path_link_stats(path)
            .expect("live path")
            .iter()
            .map(|l| l.up_replays + l.down_replays)
            .sum();
        prop_assert!(replays > 0, "a swallowed burst must replay");
    }
}

#[test]
fn replays_do_not_stack_on_a_lossy_link() {
    // E9's 1% row: 500 loads at once on one channel, drops and CRC
    // errors at 0.5% each. One request per gap and one replay per
    // request keep the mean over 16 seeds under twice the lossless
    // frame count.
    let lossless = e9_frames(FaultSpec::LOSSLESS, 0);
    let lossy: u64 = (0..16)
        .map(|seed| e9_frames(FaultSpec::new(0.005, 0.005), seed))
        .sum();
    let mean = lossy as f64 / 16.0;
    assert!(
        mean < 2.0 * lossless as f64,
        "replays stack: {mean} frames per run against {lossless} lossless"
    );
}

#[test]
fn a_flap_on_a_drained_link_that_served_loads_faults_nothing() {
    // The link's last frames stay unacknowledged after the drain (acks
    // coalesce every 8th frame), yet it owes its wire nothing, so a
    // flap longer than the detection window kills it no more than it
    // kills a link that never carried a frame.
    for served in [0, 1, 9] {
        let (mut fabric, path) = point_to_point(LlcConfig::default(), FaultSpec::LOSSLESS, 3);
        let (mut issued, mut retired) = (Vec::new(), Vec::new());
        issue(&mut fabric, path, served, &mut issued);
        drain_into(&mut fabric, &mut retired);
        let back = flap(&mut fabric, SimTime::from_us(60));
        drain_into(&mut fabric, &mut retired);
        assert!(fabric.now() >= back, "served {served}: the flap ran");
        assert!(
            fabric.faults().is_empty(),
            "served {served}: {:?}",
            fabric.faults()
        );
        assert_eq!(fabric.path_fault(path).expect("known path"), None);
        issue(&mut fabric, path, 1, &mut issued);
        drain_into(&mut fabric, &mut retired);
        assert_eq!(retired, issued, "served {served}: the path serves on");
    }
}

#[test]
fn drained_lossy_links_owe_their_wires_nothing() {
    // Every credit does not come back: acks coalesce, so the frames
    // behind each direction's last ack stay unacknowledged. But every
    // frame sent was delivered and no ack was missed, or the watchdog
    // would still be watching and the drain would not have ended.
    for (name, faults) in [
        ("drop 3e-3", FaultSpec::new(3e-3, 0.0)),
        ("crc 1e-2", FaultSpec::new(0.0, 1e-2)),
    ] {
        let (mut fabric, paths) = torus(faults, 1);
        let loads: Vec<StreamLoad> = paths
            .iter()
            .map(|&path| StreamLoad {
                path,
                threads: 8,
                window: 32,
            })
            .collect();
        fabric
            .run_closed_loop(&loads, SimTime::from_us(50))
            .expect("the loop runs");
        fabric.drain().expect("the fabric drains");
        assert!(fabric.faults().is_empty(), "torus {name}");
        assert_links_idle(&mut fabric, &paths, &format!("torus {name}"));
    }
    for (name, faults) in [
        ("crc 0.05", FaultSpec::new(0.0, 0.05)),
        ("drop+crc 0.005", FaultSpec::new(0.005, 0.005)),
        ("drop 0.1", FaultSpec::new(0.1, 0.0)),
    ] {
        for seed in 0..4u64 {
            let (mut fabric, path) = point_to_point(LlcConfig::default(), faults, seed);
            let (mut issued, mut retired) = (Vec::new(), Vec::new());
            issue(&mut fabric, path, 256, &mut issued);
            drain_into(&mut fabric, &mut retired);
            // A flap between bursts, then a second burst.
            flap(&mut fabric, SimTime::from_us(10));
            issue(&mut fabric, path, 64, &mut issued);
            drain_into(&mut fabric, &mut retired);
            assert_eq!(retired, issued, "{name} seed {seed}");
            assert_links_idle(&mut fabric, &[path], &format!("{name} seed {seed}"));
        }
    }
}

#[test]
fn a_lost_ack_on_a_shallow_link_stalls_no_later_burst() {
    // Eight credits and an ack every 7th frame: a drained Tx that missed
    // one ack may hold too few credits to reach the receiver's next ack,
    // so the watchdog keeps watching it until a kick's duplicates are
    // re-acked. Bursts separated by a drain must each retire in full.
    let llc = LlcConfig {
        rx_queue_frames: 8,
        ack_every: 7,
        ..LlcConfig::default()
    };
    for drop in [0.02, 0.05] {
        for seed in 0..48 {
            let (mut fabric, path) = point_to_point(llc, FaultSpec::new(drop, 0.0), seed);
            let (mut issued, mut retired) = (Vec::new(), Vec::new());
            for burst in [24, 5, 24, 11] {
                issue(&mut fabric, path, burst, &mut issued);
                drain_into(&mut fabric, &mut retired);
                assert_eq!(
                    retired, issued,
                    "drop {drop} seed {seed}: every load retires"
                );
            }
            assert!(
                fabric.faults().is_empty(),
                "drop {drop} seed {seed}: {:?}",
                fabric.faults()
            );
        }
    }
}
