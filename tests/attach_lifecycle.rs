//! Cross-crate integration: the full attach → allocate → migrate →
//! detach lifecycle across rack, control plane, agents and host OS,
//! down to the flit-level fabric paths leases instantiate.

use thymesisflow::core::attach::{AttachRequest, LeaseId};
use thymesisflow::core::rack::{NodeConfig, Rack, RackBuilder};
use thymesisflow::hostsim::migration::{MigrationDaemon, PagePlacement};
use thymesisflow::hostsim::mmu::PAGE_BYTES;
use thymesisflow::hostsim::numa::{AllocPolicy, NumaNodeId};
use thymesisflow::simkit::time::SimTime;
use thymesisflow::simkit::units::GIB;

fn two_node_rack() -> Rack {
    RackBuilder::new()
        .node(NodeConfig::ac922("borrower"))
        .node(NodeConfig::ac922("donor"))
        .cable("borrower", "donor")
        .build()
        .expect("rack builds")
}

/// A lease's sustained closed-loop read rate (8 threads × 32 lines).
fn lease_gib(rack: &mut Rack, id: LeaseId) -> f64 {
    let (fabric, path) = rack.lease_fabric(id).unwrap();
    fabric
        .measure_stream_bandwidth(path, 8, 32, SimTime::from_us(100))
        .unwrap()
        .as_gib_per_sec()
}

#[test]
fn attach_exposes_cpuless_numa_node_and_allocates() {
    let mut rack = two_node_rack();
    let lease = rack
        .attach(AttachRequest::new("borrower", "donor", 32 * GIB))
        .expect("attach");
    let host = rack.host_mut("borrower").expect("host exists");
    let node = lease.numa_node();
    assert!(host.numa().node(node).expect("numa node").is_cpuless());
    assert_eq!(
        host.numa().node(node).unwrap().total_pages(),
        32 * GIB / PAGE_BYTES
    );
    // Bind an application's working set to the disaggregated node (the
    // single-disaggregated configuration).
    let pages = 4 * GIB / PAGE_BYTES;
    let placed = host
        .numa_mut()
        .allocate(&AllocPolicy::Bind(node), NumaNodeId(0), pages)
        .expect("allocation fits");
    assert_eq!(placed[&node], pages);
    // Cannot detach while pages are live.
    assert!(rack.detach(lease.id()).is_err());
    rack.host_mut("borrower")
        .unwrap()
        .numa_mut()
        .free(node, pages)
        .unwrap();
    rack.detach(lease.id()).expect("detach after freeing");
    assert_eq!(rack.host("borrower").unwrap().remote_bytes(), 0);
}

#[test]
fn interleave_policy_splits_pages_between_local_and_remote() {
    let mut rack = two_node_rack();
    let lease = rack
        .attach(AttachRequest::new("borrower", "donor", 16 * GIB))
        .unwrap();
    let host = rack.host_mut("borrower").unwrap();
    let remote = lease.numa_node();
    let placed = host
        .numa_mut()
        .allocate(
            &AllocPolicy::Interleave(vec![NumaNodeId(0), remote]),
            NumaNodeId(0),
            1000,
        )
        .unwrap();
    assert_eq!(placed[&NumaNodeId(0)], 500);
    assert_eq!(placed[&remote], 500);
}

#[test]
fn page_migration_pulls_hot_pages_off_the_remote_node() {
    let mut rack = two_node_rack();
    let lease = rack
        .attach(AttachRequest::new("borrower", "donor", 16 * GIB))
        .unwrap();
    let remote = lease.numa_node();
    let host = rack.host_mut("borrower").unwrap();
    host.numa_mut()
        .allocate(&AllocPolicy::Bind(remote), NumaNodeId(0), 64)
        .unwrap();
    let mut placement = PagePlacement::new();
    for p in 0..64 {
        placement.place(p, remote);
    }
    let mut daemon = MigrationDaemon::new(NumaNodeId(0), 2);
    for _ in 0..8 {
        daemon.record_access(7);
        daemon.record_access(9);
    }
    let moved = daemon.scan(host.numa_mut(), &mut placement);
    assert_eq!(moved, 2);
    assert_eq!(placement.node_of(7), Some(NumaNodeId(0)));
    assert_eq!(placement.node_of(9), Some(NumaNodeId(0)));
    assert_eq!(placement.pages_on(remote), 62);
}

#[test]
fn many_leases_across_three_nodes_then_full_teardown() {
    let mut rack = RackBuilder::new()
        .node(NodeConfig::ac922("a"))
        .node(NodeConfig::ac922("b"))
        .node(NodeConfig::ac922("c"))
        .cable("a", "b")
        .cable("b", "c")
        .cable("a", "c")
        .build()
        .unwrap();
    let mut leases = Vec::new();
    for (compute, memory) in [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")] {
        leases.push(
            rack.attach(AttachRequest::new(compute, memory, 8 * GIB))
                .unwrap_or_else(|e| panic!("{compute}<-{memory}: {e}")),
        );
    }
    assert_eq!(rack.leases().count(), 4);
    assert_eq!(rack.host("a").unwrap().remote_bytes(), 16 * GIB);
    for lease in leases {
        rack.detach(lease.id()).unwrap();
    }
    for n in ["a", "b", "c"] {
        assert_eq!(rack.host(n).unwrap().remote_bytes(), 0, "{n}");
        assert_eq!(rack.host(n).unwrap().numa().nodes().len(), 2, "{n}");
    }
}

#[test]
fn multi_donor_leases_run_and_detach_at_flit_level() {
    // One borrower leases from two donors: both leases share the
    // borrower's fabric, stream concurrently at full channel rate, and
    // detaching one must not perturb traffic on the survivor.
    let mut rack = RackBuilder::new()
        .node(NodeConfig::ac922("borrower"))
        .node(NodeConfig::ac922("d1"))
        .node(NodeConfig::ac922("d2"))
        .cable("borrower", "d1")
        .cable("borrower", "d2")
        .build()
        .unwrap();
    let l1 = rack.attach(AttachRequest::new("borrower", "d1", 4 * GIB)).unwrap();
    let l2 = rack.attach(AttachRequest::new("borrower", "d2", 4 * GIB)).unwrap();
    assert_ne!(l1.network_id(), l2.network_id());
    assert!(l1.window_base() + l1.bytes() <= l2.window_base());
    // Uncontended, each lease sees the reference load-to-use RTT.
    for id in [l1.id(), l2.id()] {
        let (fabric, path) = rack.lease_fabric(id).unwrap();
        let rtt = fabric.measure_load_latency(path).unwrap();
        assert!((1000..=1200).contains(&rtt.as_ns()), "{rtt}");
    }

    // Both donors stream concurrently over one shared event queue.
    let rates = rack
        .run_fleet_streams(
            &[(l1.id(), 8, 32), (l2.id(), 8, 32)],
            SimTime::from_us(100),
            1,
        )
        .unwrap();
    for (i, r) in rates.iter().enumerate() {
        let gib = r.as_gib_per_sec();
        assert!((8.5..=11.64).contains(&gib), "lease {i} streamed {gib} GiB/s");
    }

    // Survivor baseline, then detach the other lease mid-life.
    let before = lease_gib(&mut rack, l2.id());
    rack.detach(l1.id()).unwrap();
    let after = lease_gib(&mut rack, l2.id());
    let drift = (after - before).abs() / before;
    assert!(
        drift < 0.02,
        "survivor perturbed by detach: {before} -> {after} GiB/s"
    );
    rack.detach(l2.id()).unwrap();
    assert_eq!(rack.fabric("borrower").unwrap().path_ids().len(), 0);
}

#[test]
fn bonded_lease_reports_bonding() {
    let mut rack = two_node_rack();
    let lease = rack
        .attach(AttachRequest::new("borrower", "donor", 8 * GIB).bonded())
        .unwrap();
    assert!(lease.is_bonded());
    assert_eq!(lease.bytes(), 8 * GIB);
    assert_eq!(lease.compute(), "borrower");
    assert_eq!(lease.memory(), "donor");
}
