//! End-to-end chaos sweep: every scripted failure scenario upholds the
//! exactly-once-or-typed-fault contract, and the whole sweep is
//! bit-identical whether it runs on one worker or many.
//!
//! Each grid point builds a fresh fabric, arms a [`ChaosPlan`] whose
//! timing jitters deterministically from the point's RNG stream, drives
//! a fixed number of loads through the failure, and digests the run —
//! every tag's resolution, the fault log, and the recovery telemetry —
//! into a string. The digest is a pure function of (master seed, grid
//! index), so `sweep_with_workers(.., 1, ..)` and `(.., N, ..)` must
//! agree byte for byte.

use simkit::sweep::sweep_with_workers;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{
    ChaosEvent, ChaosPlan, Fabric, FabricBuilder, FabricError, FaultKind, LinkRef,
    LoadFault, PathSpec, WindowSpec, DETECTION_WINDOW,
};
use thymesisflow_core::params::DatapathParams;

use netsim::fault::FaultSpec;
use netsim::switch::{CircuitSwitch, PortId};
use opencapi::pasid::Pasid;
use rmmu::flow::NetworkId;
use routing::topology::{Line, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Link dark for less than the detection window: loads survive.
    Flap,
    /// Permanent cut: stranded loads fault, the path is poisoned.
    HardDown,
    /// One bonded lane dies: bandwidth drops, nothing faults.
    LaneFail,
    /// The donor host dies mid-service.
    DonorCrash,
    /// A switch port fails with spares available: 25 µs reroute.
    SwitchReroute,
    /// Statistical loss *plus* a flap: replay and recovery compose, and
    /// a lossy link that keeps carrying frames is never declared dead.
    LossyFlap,
    /// Every bonded lane of one link dies, 1 ns apart: the link goes
    /// hard-down and must die exactly like a cut cable.
    LanesExhausted,
}

const SCENARIOS: [Scenario; 7] = [
    Scenario::Flap,
    Scenario::HardDown,
    Scenario::LaneFail,
    Scenario::DonorCrash,
    Scenario::SwitchReroute,
    Scenario::LossyFlap,
    Scenario::LanesExhausted,
];

/// Bonded lanes per prototype channel.
const LANES: u64 = 4;

const LOADS: usize = 12;

fn build(scenario: Scenario, seed: u64) -> (Fabric, thymesisflow_core::fabric::PathId) {
    let switched = matches!(scenario, Scenario::SwitchReroute);
    let mut spec = PathSpec::new(NetworkId(1), Pasid(7), 0x7000_0000_0000, 512 << 20);
    spec.seeds = vec![(seed | 1, seed.rotate_left(17) | 1)];
    if matches!(scenario, Scenario::LossyFlap) {
        spec = spec.with_faults(FaultSpec::new(0.02, 0.01));
    }
    let line = Line::new(2).expect("a 2-node line");
    let mut builder = FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
        .window(WindowSpec::rack_default())
        .path_to(NodeId(1), spec);
    if switched {
        builder = builder.switch(CircuitSwitch::optical(8));
    }
    let (fabric, paths) = builder.build().expect("topology assembles");
    (fabric, paths[0])
}

fn plan_for(scenario: Scenario, fabric: &Fabric, path: thymesisflow_core::fabric::PathId, jitter_ns: u64) -> ChaosPlan {
    let t0 = SimTime::from_ns(300 + jitter_ns);
    match scenario {
        // Each fabric carries one single-channel path, so the plans
        // address its one endpoint slot directly.
        Scenario::Flap | Scenario::LossyFlap => ChaosPlan::new().at(
            t0,
            ChaosEvent::LinkFlap {
                link: LinkRef::Slot(0),
                down_for: SimTime::from_us(10),
            },
        ),
        Scenario::HardDown => ChaosPlan::new().at(
            t0,
            ChaosEvent::LinkDown {
                link: LinkRef::Slot(0),
            },
        ),
        Scenario::LaneFail => ChaosPlan::new().at(
            t0,
            ChaosEvent::LaneFail {
                link: LinkRef::Slot(0),
            },
        ),
        Scenario::DonorCrash => {
            ChaosPlan::new().donor_crash(t0, fabric.path_donor(path).expect("live path"))
        }
        Scenario::SwitchReroute => {
            ChaosPlan::new().at(t0, ChaosEvent::SwitchPortFail { port: PortId(0) })
        }
        Scenario::LanesExhausted => (0..LANES).fold(ChaosPlan::new(), |plan, i| {
            plan.at(
                t0 + SimTime::from_ns(i),
                ChaosEvent::LaneFail {
                    link: LinkRef::Slot(0),
                },
            )
        }),
    }
}

/// Drives `LOADS` loads through the scenario and digests the run.
fn run_point(idx: usize, scenario: Scenario, seed: u64) -> String {
    let (mut fabric, path) = build(scenario, seed);
    fabric.set_telemetry(true);
    fabric.set_tracing(false);
    fabric.schedule_chaos(&plan_for(scenario, &fabric, path, seed % 97));
    let issued: Vec<u64> = (0..LOADS)
        .map(|_| fabric.issue_read(path).expect("healthy path issues"))
        .collect();
    let mut completed: Vec<(u64, u64)> = Vec::new();
    loop {
        match fabric.step() {
            Ok(Some(done)) => {
                completed.extend(done.iter().map(|c| (c.tag, c.latency.as_ns())));
            }
            Ok(None) => break,
            Err(e) => panic!("point {idx} ({scenario:?}): fabric error {e}"),
        }
    }

    // The contract: every issued load resolves exactly once — a
    // completion or a typed fault, never both, never neither.
    let faults: Vec<LoadFault> = fabric.faults().to_vec();
    for &tag in &issued {
        let c = completed.iter().filter(|(t, _)| *t == tag).count();
        let f = faults.iter().filter(|l| l.tag == tag).count();
        assert_eq!(
            c + f,
            1,
            "point {idx} ({scenario:?}): tag {tag} resolved {c} completions + {f} faults"
        );
    }
    assert_eq!(completed.len() + faults.len(), issued.len());

    // Scenario-shaped expectations.
    match scenario {
        Scenario::Flap | Scenario::LaneFail | Scenario::SwitchReroute | Scenario::LossyFlap => {
            assert!(
                faults.is_empty(),
                "point {idx} ({scenario:?}): survivable failures must not fault"
            );
        }
        Scenario::HardDown | Scenario::DonorCrash | Scenario::LanesExhausted => {
            assert!(
                !faults.is_empty(),
                "point {idx} ({scenario:?}): a permanent failure must strand loads"
            );
            assert!(
                matches!(
                    fabric.issue_read(path),
                    Err(FabricError::PathFaulted { .. })
                ),
                "point {idx} ({scenario:?}): the dead path must refuse new loads"
            );
        }
    }
    if scenario == Scenario::LanesExhausted {
        assert!(
            faults
                .iter()
                .all(|f| matches!(f.kind, FaultKind::LinkDead { link: 0 })),
            "point {idx} ({scenario:?}): losing every lane must fault as a dead link: {faults:?}"
        );
    }
    for f in &faults {
        if let FaultKind::LinkDead { .. } = f.kind {
            assert!(
                f.at >= DETECTION_WINDOW,
                "point {idx}: link death declared before the detection window"
            );
        }
    }

    // Recovery latency is visible in the snapshot for every scenario
    // that declared a link dead or rode out an outage.
    let snap = fabric.telemetry_snapshot();
    let detect = snap.timer("fabric.recovery.detect_ns").map_or(0, |h| h.count());
    let downtime = snap
        .timer("fabric.recovery.downtime_ns")
        .map_or(0, |h| h.count());
    match scenario {
        Scenario::HardDown | Scenario::LanesExhausted => {
            assert!(detect >= 1, "death must record a detect span");
        }
        Scenario::Flap | Scenario::SwitchReroute => {
            assert!(downtime >= 1, "an outage must record a downtime span");
        }
        _ => {}
    }

    // Digest: tag-by-tag resolution plus the counters that describe
    // the recovery. Pure function of (seed, scenario) — the sweep
    // equality test hangs off this.
    let mut lines: Vec<String> = Vec::new();
    for (tag, ns) in &completed {
        lines.push(format!("C {tag} {ns}"));
    }
    for f in &faults {
        lines.push(format!("F {} {} {}", f.tag, f.at.as_ns(), f.kind));
    }
    lines.sort();
    format!(
        "{scenario:?} ev={} faulted={} late={} detect={} downtime={}\n{}",
        snap.counter("fabric.chaos.events").unwrap_or(0),
        snap.counter("fabric.recovery.loads_faulted").unwrap_or(0),
        fabric.late_completions(),
        detect,
        downtime,
        lines.join("\n")
    )
}

fn grid() -> Vec<(Scenario, u64)> {
    let mut pts = Vec::new();
    for rep in 0..3u64 {
        for s in SCENARIOS {
            pts.push((s, rep));
        }
    }
    pts
}

#[test]
fn every_scenario_resolves_every_load_exactly_once() {
    let out = sweep_with_workers(0xC0FFEE, grid(), 1, |idx, (s, _), mut rng| {
        run_point(idx, s, rng.next_u64())
    });
    assert_eq!(out.len(), grid().len());
    // Spot-check the digest carries real resolutions.
    assert!(out.iter().all(|d| d.lines().count() > LOADS / 2));
}

#[test]
fn chaos_sweep_is_bit_identical_across_worker_counts() {
    let single = sweep_with_workers(0xC0FFEE, grid(), 1, |idx, (s, _), mut rng| {
        run_point(idx, s, rng.next_u64())
    });
    let fanned = sweep_with_workers(0xC0FFEE, grid(), 4, |idx, (s, _), mut rng| {
        run_point(idx, s, rng.next_u64())
    });
    assert_eq!(
        single, fanned,
        "worker count leaked into the chaos trajectories"
    );
}
