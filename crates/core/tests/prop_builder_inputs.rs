//! Property test over the public `FabricBuilder` entry points: any
//! channel count, attachment size, device window, donor count, address
//! placement and LLC calibration yields a fabric or a typed
//! `FabricError`, never a panic.
//!
//! The run entry points take any window and any chaos instant: a
//! closed-loop window that ends past `SimTime::MAX`, on a fabric or a
//! rack that has already simulated some time, is refused with a typed
//! error, a flap that outlasts simulated time or chaos landing just
//! before its end schedules nothing past it, and a link brought back up
//! within a frame time of the end sends its replays into a wire whose
//! frames would land past it, so they never arrive.
//!
//! Windows are drawn up to 2^63 bytes. The RMMU section table holds one
//! root pointer per 256 sections of 256 MiB, so `Fabric::assemble`
//! refuses a window over `rmmu::section::MAX_SECTIONS` sections before
//! it allocates the table. Windows and donor ranges may also *sit* near
//! the top of the address space.

use llc::LlcConfig;
use proptest::prelude::*;
use rmmu::section::MAX_SECTIONS;
use routing::topology::{Line, NodeId};
use simkit::time::SimTime;
use simkit::units::GIB;
use thymesisflow_core::attach::AttachRequest;
use thymesisflow_core::fabric::{
    ChaosEvent, ChaosPlan, Fabric, FabricBuilder, FabricError, FaultKind, LinkRef, PathId,
    PathSpec, StreamLoad, WindowSpec,
};
use thymesisflow_core::params::DatapathParams;
use thymesisflow_core::rack::{NodeConfig, RackBuilder, RackError};

const SECTION: u64 = 256 << 20;

/// A builder over a 2-node line, compute on node 0.
fn line2() -> FabricBuilder {
    let line = Line::new(2).expect("a 2-node line");
    FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
}

/// Base address `pick` (0..=5) for a `len`-byte range: 0 is
/// `ordinary`, 1..=4 is 2^64 − pick·128 (the range wraps), and 5 is
/// 2^64 − `len` (the range ends exactly at 2^64).
fn placement(pick: u64, ordinary: u64, len: u64) -> u64 {
    match pick {
        0 => ordinary,
        1..=4 => 0u64.wrapping_sub(pick * 128),
        _ => 0u64.wrapping_sub(len),
    }
}

/// Sizes from {0, 1000, k·128 B, k·256 MiB}, at most 64 GiB.
fn size() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1000u64),
        (1u64..=1024).prop_map(|k| k * 128),
        (1u64..=256).prop_map(|k| k * SECTION),
    ]
}

/// A run window from `now` that ends `past` picoseconds after
/// `SimTime::MAX` (saturating: from a nonzero `now`, a `SimTime::MAX`
/// window still ends past it).
fn past_the_end(now: SimTime, past: u64) -> SimTime {
    SimTime::from_ps(
        (u64::MAX - now.as_ps())
            .saturating_add(1)
            .saturating_add(past),
    )
}

/// A point-to-point fabric that has served `warm` loads and drained,
/// so simulated time has passed.
fn warmed(warm: u32) -> (Fabric, PathId) {
    let (mut fabric, path) =
        FabricBuilder::point_to_point(DatapathParams::prototype(), 1, SECTION).expect("builds");
    for _ in 0..warm {
        fabric.issue_read(path).expect("issues");
    }
    fabric.drain().expect("drains");
    (fabric, path)
}

/// About one frame time on the prototype's links: a 9-flit, 288 B
/// frame serializes in 23.76 ns on four bonded 25 Gbit/s lanes.
const FRAME_PS: u64 = 23_760;

/// Chaos on link slot 0 `back` picoseconds before the end of simulated
/// time: a cut, a lane failure, or a flap that never ends. Kinds 3 and
/// 4 bring the link back up within one frame time of the end instead
/// (`back` folded into the last frame time): a `LinkUp`, or a flap of
/// `back` that ends there. Both kick the link's unacknowledged tail
/// onto the wire, so its frames would land past the end.
fn end_of_time_chaos(kind: usize, back: u64) -> (SimTime, ChaosEvent) {
    let link = LinkRef::Slot(0);
    let before_end = |ps: u64| SimTime::from_ps(u64::MAX - ps);
    let last_frame = back % FRAME_PS;
    match kind {
        0 => (before_end(back), ChaosEvent::LinkDown { link }),
        1 => (before_end(back), ChaosEvent::LaneFail { link }),
        2 => (
            before_end(back),
            ChaosEvent::LinkFlap {
                link,
                down_for: SimTime::MAX,
            },
        ),
        3 => (before_end(last_frame), ChaosEvent::LinkUp { link }),
        _ => (
            before_end(last_frame + back),
            ChaosEvent::LinkFlap {
                link,
                down_for: SimTime::from_ps(back),
            },
        ),
    }
}

/// A build refusal is one of the typed configuration errors.
fn typed(e: &FabricError) -> bool {
    matches!(
        e,
        FabricError::Config(_) | FabricError::WindowExhausted { .. } | FabricError::Topology(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn point_to_point_builds_or_refuses(channels in 0usize..=8, bytes in size()) {
        match FabricBuilder::point_to_point(DatapathParams::prototype(), channels, bytes) {
            Ok(_) => prop_assert!(channels > 0 && bytes > 0 && bytes.is_multiple_of(SECTION)),
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }

    #[test]
    fn fan_out_builds_or_refuses(donors in 0usize..=4, share in size()) {
        match FabricBuilder::fan_out(DatapathParams::prototype(), donors, share) {
            Ok((_, paths)) => prop_assert_eq!(paths.len(), donors),
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }

    #[test]
    fn windowed_builds_or_refuse(
        offset in prop_oneof![(0u64..4096).prop_map(|k| k * 128), 1u64..128],
        bytes in prop_oneof![
            size(),
            (1u64..=4096).prop_map(|k| k * SECTION),
            (1u64..=1 << 35).prop_map(|k| k * SECTION),
        ],
        path_bytes in size(),
        channels in 0usize..=8,
    ) {
        let window = WindowSpec { base: 0x1000_0000_0000 + offset, bytes };
        let built = line2()
            .window(window)
            .path_to(NodeId(1), PathSpec::reference(path_bytes, channels))
            .build();
        match built {
            Ok(_) => {
                prop_assert!(offset.is_multiple_of(128) && bytes.is_multiple_of(SECTION));
                prop_assert!(bytes / SECTION <= MAX_SECTIONS);
                prop_assert!(path_bytes <= bytes);
            }
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }

    #[test]
    fn ranges_near_the_top_of_the_address_space_build_or_refuse(
        sections in 1u64..=4,
        base_pick in 0u64..=5,
        ea_pick in 0u64..=5,
    ) {
        let bytes = sections * SECTION;
        let base = placement(base_pick, 0x1000_0000_0000, bytes);
        let donor_ea = placement(ea_pick, 0x7000_0000_0000, bytes);
        let mut spec = PathSpec::reference(bytes, 1);
        spec.donor_ea = donor_ea;
        let built = line2()
            .window(WindowSpec { base, bytes })
            .path_to(NodeId(1), spec)
            .build();
        let fits = base.checked_add(bytes).is_some() && donor_ea.checked_add(bytes).is_some();
        match built {
            Ok((mut fabric, paths)) => {
                prop_assert!(fits, "{base:#x}/{donor_ea:#x}+{bytes:#x} wraps but built");
                let tags: Vec<u64> =
                    (0..3).map(|_| fabric.issue_read(paths[0]).expect("issues")).collect();
                let mut done = Vec::new();
                while let Some(batch) = fabric.step().expect("drains clean") {
                    done.extend(batch.iter().map(|c| c.tag));
                }
                done.sort_unstable();
                prop_assert_eq!(done, tags);
            }
            Err(e) => {
                prop_assert!(!fits, "a fitting range was refused: {e:?}");
                prop_assert!(matches!(e, FabricError::Config(_)), "untyped refusal {e:?}");
            }
        }
    }

    /// LLC calibrations across every validity bound: frames from zero
    /// flits to past the wire header's `u8` (and through the 5 flits a
    /// cacheline read response needs), credit pools from empty up, acks
    /// from never to past the pool, and any initial frame id. A runnable
    /// one builds a fabric that serves loads in issue order; any other
    /// is refused with a typed error by the fabric builder and, up
    /// front, by the rack builder.
    #[test]
    fn llc_calibrations_serve_or_refuse(
        sizes in (0usize..=260, 0usize..=300),
        ack_every in 0u64..=300,
        initial_frame_id in 0u64..=u64::MAX,
    ) {
        let (frame_flits, rx_queue_frames) = sizes;
        let llc = LlcConfig {
            frame_flits,
            rx_queue_frames,
            initial_frame_id,
            ack_every,
        };
        let runnable = (5..=256).contains(&frame_flits)
            && 0 < ack_every
            && ack_every < rx_queue_frames as u64;
        let params = DatapathParams { llc, ..DatapathParams::prototype() };
        match FabricBuilder::point_to_point(params.clone(), 1, SECTION) {
            Ok((mut fabric, path)) => {
                prop_assert!(runnable, "{llc:?} built");
                let tags: Vec<u64> =
                    (0..24).map(|_| fabric.issue_read(path).expect("issues")).collect();
                let mut done = Vec::new();
                while let Some(batch) = fabric.step().expect("drains clean") {
                    done.extend(batch.iter().map(|c| c.tag));
                }
                prop_assert_eq!(done, tags);
            }
            Err(e) => {
                prop_assert!(!runnable, "{llc:?} was refused: {e:?}");
                prop_assert!(matches!(e, FabricError::Config(_)), "untyped refusal {e:?}");
            }
        }
        match RackBuilder::new().params(params).build() {
            Ok(_) => prop_assert!(runnable, "the rack took {llc:?}"),
            Err(e) => prop_assert!(
                !runnable && matches!(e, RackError::Fabric(FabricError::Config(_))),
                "{llc:?}: {e:?}"
            ),
        }
    }

    /// A closed-loop window that ends past the end of simulated time is
    /// refused before any load issues; a flap as long as simulated time
    /// stays down, so its stranded loads fault as under a cut; chaos
    /// landing within a few watchdog periods of the end schedules no
    /// sample past it; and a link that comes back up within a frame time
    /// of the end replays into a wire that never delivers. Only windows
    /// that end past `SimTime::MAX` are drawn: one that fits runs for
    /// days of simulated time.
    #[test]
    fn run_windows_and_chaos_at_the_end_of_time_are_typed(
        warm in 1u32..=8,
        past in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..=u64::MAX],
        short in 0u64..=1_000_000,
        back in 0u64..=20_000_000,
        kind in 0usize..5,
    ) {
        let (mut fabric, path) = warmed(warm);
        let events = fabric.events_processed();
        let window = past_the_end(fabric.now(), past);
        let load = StreamLoad { path, threads: 1, window: 1 };
        let got = fabric.run_closed_loop(&[load], window);
        prop_assert!(matches!(got, Err(FabricError::Config(_))), "{got:?}");
        let got = fabric.measure_stream_bandwidth(path, 1, 1, window);
        prop_assert!(matches!(got, Err(FabricError::Config(_))), "{got:?}");
        prop_assert_eq!(fabric.events_processed(), events, "a refused window ran");

        // A flap as long as simulated time (less up to a microsecond,
        // which the warm-up already spent), with loads in flight.
        let tags: Vec<u64> = (0..4).map(|_| fabric.issue_read(path).expect("issues")).collect();
        let down_for = SimTime::from_ps(u64::MAX - short);
        let flap = ChaosEvent::LinkFlap { link: LinkRef::Slot(0), down_for };
        fabric.schedule_chaos(&ChaosPlan::new().at(fabric.now(), flap));
        fabric.drain().expect("drains");
        let faulted: Vec<u64> = fabric.faults().iter().map(|f| f.tag).collect();
        prop_assert_eq!(faulted, tags, "the flap never ends, so every load faults");
        prop_assert_eq!(
            fabric.path_fault(path).expect("known path"),
            Some(FaultKind::LinkDead { link: 0 })
        );

        // Chaos just before the end of simulated time, on a link that
        // has served loads.
        // Fewer than the five silent samples that declare a link dead
        // fit before the end, so the path survives.
        let (mut fabric, path) = warmed(warm);
        let (at, chaos) = end_of_time_chaos(kind, back);
        fabric.schedule_chaos(&ChaosPlan::new().at(at, chaos));
        fabric.drain().expect("drains");
        prop_assert!(fabric.faults().is_empty());
        prop_assert_eq!(fabric.path_fault(path).expect("known path"), None);
    }

    /// The same windows and chaos through a rack's entry points.
    #[test]
    fn rack_windows_and_chaos_at_the_end_of_time_are_typed(
        past in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..=u64::MAX],
        back in 0u64..=20_000_000,
        kind in 0usize..5,
    ) {
        let mut rack = RackBuilder::new()
            .node(NodeConfig::ac922("a"))
            .node(NodeConfig::ac922("b"))
            .cable("a", "b")
            .build()
            .expect("builds");
        let lease = rack.attach(AttachRequest::new("a", "b", 4 * GIB)).expect("attaches");
        let loads = [(lease.id(), 1, 1)];
        rack.run_fleet_streams(&loads, SimTime::from_us(2), 1).expect("streams");
        let now = rack.fabric("a").expect("live fabric").now();
        let window = past_the_end(now, past);
        for drained in [true, false] {
            let got = if drained {
                rack.run_fleet_streams(&loads, window, 1)
            } else {
                rack.run_fleet_streams_undrained(&loads, window, 1)
            };
            prop_assert!(
                matches!(got, Err(RackError::Fabric(FabricError::Config(_)))),
                "{got:?}"
            );
        }
        let (fabric, path) = rack.lease_fabric(lease.id()).expect("live lease");
        let (at, chaos) = end_of_time_chaos(kind, back);
        fabric.schedule_chaos(&ChaosPlan::new().at(at, chaos));
        fabric.drain().expect("drains");
        prop_assert!(fabric.faults().is_empty());
        prop_assert_eq!(fabric.path_fault(path).expect("known path"), None);
    }
}
