//! Degenerate-topology parity: the canned builders (`point_to_point`,
//! `fan_out`, `circuit_rack`) are thin wrappers over degenerate
//! topologies — a 2-node `Line` and a 1-tier `Clos` — and must keep the
//! event trajectories the fabric has always produced for those shapes.
//! Each wrapper runs a fixed workload and is pinned to its event count,
//! completion count and a fold of every completion, as measured when
//! the wrappers were still checked against fabrics wired raw from the
//! original inline constants. Any drift here means a refactor changed
//! simulated behaviour, not just its construction.

use netsim::switch::CircuitSwitch;
use thymesisflow_core::fabric::{Fabric, FabricBuilder, PathId};
use thymesisflow_core::params::DatapathParams;

const LOADS_PER_PATH: usize = 12;

const SHARE: u64 = 256 << 20;

/// Issues a fixed round-robin workload and drains the fabric, returning
/// `(events, completions, fold)`: the fold is FNV-1a 64 over each
/// completion's tag, path id and latency in ps, in retire order.
fn run_workload(fabric: &mut Fabric, paths: &[PathId]) -> (u64, usize, u64) {
    for i in 0..LOADS_PER_PATH * paths.len() {
        fabric
            .issue_read(paths[i % paths.len()])
            .expect("healthy path issues");
    }
    let mut done = Vec::new();
    while let Some(batch) = fabric.step().expect("drains clean") {
        done.extend(batch);
    }
    assert!(fabric.faults().is_empty(), "parity workloads never fault");
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for c in &done {
        for x in [c.tag, u64::from(c.path.0), c.latency.as_ps()] {
            fold = (fold ^ x).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (fabric.events_processed(), done.len(), fold)
}

#[test]
fn line2_wrapper_matches_raw_point_to_point_bit_for_bit() {
    let pinned = [
        (1, (47, 12, 2_629_045_119_176_429_657)),
        (2, (48, 12, 7_382_661_129_086_658_335)),
        (4, (56, 12, 3_777_747_220_585_500_445)),
    ];
    for (channels, want) in pinned {
        let (mut fabric, id) =
            FabricBuilder::point_to_point(DatapathParams::prototype(), channels, SHARE)
                .expect("wrapper assembles");
        assert_eq!(run_workload(&mut fabric, &[id]), want, "{channels}ch");
    }
}

#[test]
fn clos_wrapper_matches_raw_fan_out_bit_for_bit() {
    let pinned = [
        (1, (47, 12, 2_629_045_119_176_429_657)),
        (2, (94, 24, 3_465_931_424_642_060_037)),
        (4, (188, 48, 16_959_462_281_938_787_157)),
    ];
    for (donors, want) in pinned {
        let (mut fabric, paths) =
            FabricBuilder::fan_out(DatapathParams::prototype(), donors, SHARE)
                .expect("wrapper assembles");
        assert_eq!(paths.len(), donors);
        assert_eq!(run_workload(&mut fabric, &paths), want, "{donors} donors");
    }
}

#[test]
fn clos_wrapper_matches_raw_circuit_rack_bit_for_bit() {
    let (mut fabric, paths) = FabricBuilder::circuit_rack(
        DatapathParams::prototype(),
        3,
        SHARE,
        CircuitSwitch::optical(16),
    )
    .expect("wrapper assembles");
    assert_eq!(
        run_workload(&mut fabric, &paths),
        (141, 36, 9_298_963_066_891_267_771)
    );
}
