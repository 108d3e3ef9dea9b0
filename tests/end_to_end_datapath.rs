//! Cross-crate integration: the flit-level datapath — the reference
//! point-to-point fabric — against the analytic calibration and the
//! paper's §V prototype envelope, and the legality checks of the
//! pipeline stages every load crosses.

use thymesisflow::core::fabric::{
    C1MasterDram, Fabric, FabricBuilder, FabricError, PathId, StageKind,
};
use thymesisflow::core::memmodel::Calibration;
use thymesisflow::core::params::DatapathParams;
use thymesisflow::opencapi::c1::C1Error;
use thymesisflow::opencapi::m1::M1Endpoint;
use thymesisflow::opencapi::pasid::{Pasid, Region};
use thymesisflow::opencapi::transaction::MemRequest;
use thymesisflow::rmmu::flow::NetworkId;
use thymesisflow::rmmu::section::{SectionEntry, SectionTable};
use thymesisflow::rmmu::RoutedRequest;
use thymesisflow::routing::{ChannelId, Router};
use thymesisflow::simkit::time::SimTime;

const WINDOW: u64 = 0x1000_0000_0000;
const DONOR: u64 = 0x7000_0000_0000;
const SECTION: u64 = 256 << 20;

/// The reference shape: one borrower, one donor, `channels` bonded
/// channels over one section.
fn point_to_point(params: DatapathParams, channels: usize) -> (Fabric, PathId) {
    FabricBuilder::point_to_point(params, channels, SECTION).unwrap()
}

/// One uncontended cacheline load's round trip (flit RTT plus DRAM).
fn load_latency(params: DatapathParams) -> SimTime {
    Calibration::measure(params).unwrap().remote_load_latency()
}

/// Sustained closed-loop read rate of `threads × window` loads.
fn stream_gib(channels: usize, threads: u32, window: u32, us: u64) -> f64 {
    let (mut fabric, path) = point_to_point(DatapathParams::prototype(), channels);
    fabric
        .measure_stream_bandwidth(path, threads, window, SimTime::from_us(us))
        .unwrap()
        .as_gib_per_sec()
}

#[test]
fn measured_rtt_tracks_the_analytic_budget_across_calibrations() {
    // The event-level simulation and the closed-form budget agree
    // within the adaptive-batching flush windows (2 frames/direction);
    // the prototype calibration is held tighter.
    for (params, tolerance_ns) in [
        (DatapathParams::prototype(), 130),
        (DatapathParams::asic_integrated(), 150),
    ] {
        let analytic = params.flit_rtt() + params.local_load_latency();
        let measured = load_latency(params);
        let delta = measured.as_ns() as i64 - analytic.as_ns() as i64;
        assert!(
            delta.abs() < tolerance_ns,
            "measured {measured} vs analytic {analytic}"
        );
    }
    // And the prototype sits near the paper's ~950 ns RTT + ~105 ns DRAM.
    let measured = load_latency(DatapathParams::prototype());
    assert!((1000..=1200).contains(&measured.as_ns()), "{measured}");
}

#[test]
fn asic_integration_cuts_latency_roughly_in_half() {
    let p = load_latency(DatapathParams::prototype());
    let a = load_latency(DatapathParams::asic_integrated());
    assert!(
        a.as_ns() * 2 < p.as_ns() + 300,
        "asic {a} vs prototype {p}"
    );
}

#[test]
fn saturation_ordering_single_vs_bonded() {
    let s = stream_gib(1, 8, 32, 100);
    let b = stream_gib(2, 8, 32, 100);
    assert!(b > s, "bonded {b} vs single {s}");
    assert!(b < 17.0, "C1 ceiling respected: {b}");
    // Bonding buys tens of percent, not 2× (paper: ~1.3×).
    let gain = b / s;
    assert!(gain > 1.15 && gain < 1.8, "gain {gain} (paper: ~1.3)");
}

#[test]
fn streams_saturate_at_the_prototype_rates() {
    let single = stream_gib(1, 8, 32, 200);
    assert!(
        (8.5..=11.64).contains(&single),
        "single channel {single} GiB/s"
    );
    // Two channels offer ~20 GiB/s of payload, but 128 B C1
    // transactions sink at most ~16 GiB/s (§VI-C).
    let bonded = stream_gib(2, 16, 32, 200);
    assert!((13.0..=16.5).contains(&bonded), "bonded {bonded} GiB/s");
}

#[test]
fn point_to_point_inventory_is_two_llc_pairs_per_channel() {
    let (fabric, path) = point_to_point(DatapathParams::prototype(), 2);
    let kinds = fabric.components();
    let pairs = kinds
        .iter()
        .filter(|(_, k)| *k == StageKind::LlcPair)
        .count();
    // Two channels: an up and a down LLC pair each.
    assert_eq!(pairs, 4);
    assert!(kinds.iter().all(|(_, k)| *k != StageKind::CircuitSwitch));
    let links: Vec<usize> = fabric
        .path_link_stats(path)
        .unwrap()
        .iter()
        .map(|s| s.link)
        .collect();
    assert_eq!(links, vec![0, 1]);
}

#[test]
fn full_pipeline_enforces_legality_end_to_end() {
    // The §IV-C security property: "compute endpoint configurations
    // allow memory transactions forwarding only towards legal
    // destinations, and fail otherwise" — at every stage a load crosses
    // in `Fabric::issue_read`, and at the donor. The blocks are the
    // ones the fabric engine holds.
    let mut capture = M1Endpoint::new(WINDOW, 2 * SECTION);
    let mut translate = SectionTable::with_default_sections(2 * SECTION);
    let mut route = Router::new();
    translate
        .program(0, SectionEntry::new(DONOR, NetworkId(1)))
        .unwrap();
    route.add_route(NetworkId(1), vec![ChannelId(0)]).unwrap();
    // Section 1 deliberately left unprogrammed.
    let mut donor = C1MasterDram::new(SimTime::from_ns(105), Pasid(1));
    donor
        .register(Region {
            ea_base: DONOR,
            len: SECTION,
        })
        .unwrap();

    // The compute pipeline, stage by stage: M1 capture → RMMU
    // translate → route pick.
    let mut issue = |addr: u64| -> Result<(RoutedRequest, ChannelId), FabricError> {
        let req = MemRequest::read(0, addr);
        let t = translate.translate(capture.accept(&req)?)?;
        let ch = route.forward(t.network, t.bonded)?;
        let routed = RoutedRequest {
            req: MemRequest::read(0, t.remote_ea.as_u64()),
            network: t.network,
            bonded: t.bonded,
        };
        Ok((routed, ch))
    };

    // Legal: programmed section, registered donor region.
    let (routed, ch) = issue(WINDOW + 0x80).expect("legal transaction");
    assert_eq!(ch, ChannelId(0));
    assert_eq!(routed.req.addr, DONOR + 0x80);
    let done = donor.serve(SimTime::ZERO, &routed).expect("registered region");
    assert!(done >= SimTime::from_ns(105));

    // Illegal at the RMMU: unprogrammed section.
    assert!(matches!(
        issue(WINDOW + SECTION + 0x80),
        Err(FabricError::Rmmu(_))
    ));

    // Illegal at the M1 window: outside the firmware-assigned range.
    assert!(matches!(issue(0x80), Err(FabricError::M1(_))));

    // Illegal at the donor: an address past its registered region.
    let stray = RoutedRequest {
        req: MemRequest::read(0, DONOR + SECTION),
        ..routed
    };
    assert!(matches!(
        donor.serve(SimTime::ZERO, &stray).map_err(FabricError::from),
        Err(FabricError::C1(C1Error::Unauthorized { .. }))
    ));
    assert_eq!(donor.c1().mastered(), 1);
    assert_eq!(donor.c1().faulted(), 1);
}

#[test]
fn datapath_latency_histogram_is_tight_when_uncontended() {
    let (mut fabric, path) = point_to_point(DatapathParams::prototype(), 1);
    // One outstanding load at a time: every completion near the
    // analytic load-to-use.
    fabric
        .measure_stream_bandwidth(path, 1, 1, SimTime::from_us(100))
        .unwrap();
    let h = fabric.completions(path).unwrap();
    assert!(h.count() > 10);
    let p99 = h.quantile(0.99);
    assert!((1000..=1300).contains(&p99), "p99 {p99} ns");
    let spread = p99 as f64 / h.quantile(0.5) as f64;
    assert!(spread < 1.3, "uncontended spread {spread}");
}
