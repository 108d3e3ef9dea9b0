//! Chaos recovery: scripted failures against a live fabric and a live
//! rack, proving the exactly-once-or-typed-fault contract end to end.
//!
//! Three acts:
//!
//! 1. **Link flap** shorter than the watchdog's detection window — the
//!    replay protocol absorbs the outage; every load completes.
//! 2. **Hard link-down** — the watchdog declares the link dead, strands
//!    every in-flight load as a *typed* fault (never silence), and the
//!    poisoned path refuses new loads.
//! 3. **Donor crash at rack scale** — the control plane evacuates the
//!    dead donor's lease onto a surviving host; the borrower keeps its
//!    remote memory and in-flight loads surface as typed faults.
//!
//! ```text
//! cargo run --example chaos_recovery
//! ```

use thymesisflow::core::attach::AttachRequest;
use thymesisflow::core::fabric::{
    ChaosPlan, FabricBuilder, FabricError, PathSpec, DETECTION_WINDOW,
};
use thymesisflow::core::params::DatapathParams;
use thymesisflow::routing::topology::{Line, NodeId};
use thymesisflow::core::rack::{LeaseResolution, NodeConfig, RackBuilder};
use thymesisflow::simkit::time::SimTime;
use thymesisflow::simkit::units::GIB;

const LOADS: usize = 16;

fn main() {
    // ---- act 1: a flap the replay protocol rides out -----------------
    println!("== link flap shorter than the detection window ==");
    let line = Line::new(2).expect("2-node line");
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
            .path_to(NodeId(1), PathSpec::reference(256 << 20, 1).labelled("flapped"))
            .build()
            .expect("reference topology assembles");
    let path = paths[0];
    fabric.set_telemetry(true);
    // Chaos targets the topology link by name — "h0-h1" is the line's
    // only cable.
    fabric.schedule_chaos(&ChaosPlan::new().link_flap_named(
        SimTime::from_ns(500),
        "h0-h1",
        SimTime::from_us(10),
    ));
    let issued: Vec<u64> = (0..LOADS)
        .map(|_| fabric.issue_read(path).expect("healthy path issues"))
        .collect();
    let mut completed = 0usize;
    while let Some(done) = fabric.step().expect("flap is survivable") {
        completed += done.len();
    }
    assert_eq!(completed, issued.len(), "a flap must not strand loads");
    assert!(fabric.faults().is_empty());
    let stats = fabric.path_link_stats(path).expect("live path")[0];
    println!(
        "  10 us outage inside a {} window: {}/{} loads completed, {} replays, 0 faults\n",
        DETECTION_WINDOW,
        completed,
        issued.len(),
        stats.up_replays + stats.down_replays,
    );

    // ---- act 2: a hard cut the watchdog must declare -----------------
    println!("== hard link-down: typed faults, never silence ==");
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
            .path_to(NodeId(1), PathSpec::reference(256 << 20, 1).labelled("cut"))
            .build()
            .expect("reference topology assembles");
    let path = paths[0];
    fabric.set_telemetry(true);
    fabric.schedule_chaos(&ChaosPlan::new().link_down_named(SimTime::from_ns(500), "h0-h1"));
    let issued: Vec<u64> = (0..LOADS)
        .map(|_| fabric.issue_read(path).expect("healthy path issues"))
        .collect();
    let mut completed = Vec::new();
    while let Some(done) = fabric.step().expect("the cut resolves, not errors") {
        completed.extend(done.iter().map(|c| c.tag));
    }
    let faults = fabric.faults().to_vec();
    for &tag in &issued {
        let c = completed.iter().filter(|&&t| t == tag).count();
        let f = faults.iter().filter(|l| l.tag == tag).count();
        assert_eq!(c + f, 1, "tag {tag}: every load resolves exactly once");
    }
    assert!(!faults.is_empty(), "a permanent cut must strand loads");
    for f in &faults {
        assert!(f.at >= DETECTION_WINDOW, "declared dead before the detection window");
    }
    assert!(
        matches!(fabric.issue_read(path), Err(FabricError::PathFaulted { .. })),
        "the poisoned path must refuse new loads"
    );
    let snap = fabric.telemetry_snapshot();
    println!(
        "  {} completed, {} typed faults (first: {}), detected in {} ns",
        completed.len(),
        faults.len(),
        faults[0].kind,
        snap.timer("fabric.recovery.detect_ns")
            .map_or(0, |h| h.max()),
    );
    println!("  reissue on the dead path: typed PathFaulted rejection\n");

    // ---- act 3: donor crash and lease evacuation at rack scale -------
    println!("== donor crash: lease evacuation onto a survivor ==");
    let mut rack = RackBuilder::new()
        .node(NodeConfig::ac922("borrower"))
        .node(NodeConfig::ac922("donor-1"))
        .node(NodeConfig::ac922("donor-2"))
        .cable("borrower", "donor-1")
        .cable("borrower", "donor-2")
        .build()
        .expect("rack builds");
    let lease = rack
        .attach(AttachRequest::new("borrower", "donor-1", 8 * GIB))
        .expect("attach succeeds");
    let path = rack.lease_path(lease.id()).expect("lease has a path");
    let fabric = rack.fabric_mut("borrower").expect("lease built a fabric");
    let inflight: Vec<u64> = (0..8)
        .map(|_| fabric.issue_read(path).expect("healthy lease issues"))
        .collect();
    let faults = rack.crash_donor("donor-1").expect("evacuation runs");
    assert_eq!(faults.len(), 1);
    let f = &faults[0];
    assert_eq!(f.loads_faulted, inflight.len());
    let LeaseResolution::Migrated { lease: new, donor } = &f.resolution else {
        panic!("donor-2 has capacity: {:?}", f.resolution);
    };
    println!(
        "  {} died serving {}: {} in-flight loads faulted (typed), window re-homed on {donor}",
        f.donor, f.lease, f.loads_faulted,
    );
    let rtt = rack.measure_lease_rtt(*new).expect("migrated lease serves");
    assert_eq!(
        rack.host("borrower").expect("host").remote_bytes(),
        8 * GIB,
        "the borrower never lost its remote capacity"
    );
    println!(
        "  replacement {} serves at {} RTT; borrower still holds 8 GiB remote",
        new, rtt,
    );
    assert!(
        rack.attach(AttachRequest::new("borrower", "donor-1", GIB)).is_err(),
        "a dead host must refuse new business"
    );
    println!("  dead host refuses new attachments until re-provisioned\n");

    println!("chaos: every load resolved exactly once or faulted with a type — never silence");
}
