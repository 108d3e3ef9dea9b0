//! The control plane is the rack's one route authority: the links it
//! reserves for a lease are exactly the links the borrower's fabric
//! forwards on, with the lease's channel count on each, and no cabled
//! pair ever carries more channels than it has cables.

use ctrlplane::service::CpError;
use simkit::units::GIB;
use thymesisflow_core::attach::{AttachRequest, Lease};
use thymesisflow_core::rack::{NodeConfig, Rack, RackBuilder, RackError};

const SIDE: usize = 4;

fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

/// `rack_churn`'s rack: a 4×4 torus of AC922s cabled row- and
/// column-wise, two cables per neighbouring pair.
fn torus() -> Rack {
    let mut b = RackBuilder::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            b = b.node(NodeConfig::ac922(&node(r, c)));
        }
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            b = b
                .cable(&node(r, c), &node(r, (c + 1) % SIDE))
                .cable(&node(r, c), &node((r + 1) % SIDE, c));
        }
    }
    b.build().expect("the torus builds")
}

fn attach(rack: &mut Rack, borrower: &str, donor: &str, bonded: bool) -> Result<Lease, RackError> {
    let mut req = AttachRequest::new(borrower, donor, 4 * GIB);
    if bonded {
        req = req.bonded();
    }
    rack.attach(req)
}

/// Channels the control plane holds on each mesh link.
fn held(rack: &Rack) -> Vec<u32> {
    rack.control_plane()
        .links()
        .iter()
        .map(|l| l.held)
        .collect()
}

/// Channels the live leases' fabric routes put on each mesh link.
fn forwarded(rack: &Rack) -> Vec<u32> {
    let mut out = vec![0; rack.control_plane().links().len()];
    for lease in rack.leases() {
        let path = rack.lease_path(lease.id()).expect("live lease has a path");
        let fabric = rack
            .fabric(lease.compute())
            .expect("live lease has a fabric");
        let route = fabric
            .topology_route(path)
            .expect("attached path is routed");
        for l in route.links {
            out[l] += if lease.is_bonded() { 2 } else { 1 };
        }
    }
    out
}

/// No cabled pair carries more channels than it has cables.
fn within_cables(rack: &Rack) -> bool {
    rack.control_plane()
        .links()
        .iter()
        .all(|l| l.held <= l.cables)
}

fn route_names(rack: &Rack, lease: &Lease) -> Vec<String> {
    let fabric = rack.fabric(lease.compute()).expect("fabric");
    let names = fabric.topology_link_names();
    let path = rack.lease_path(lease.id()).expect("path");
    let route = fabric.topology_route(path).expect("route");
    route.links.iter().map(|&l| names[l].clone()).collect()
}

#[test]
fn every_lease_reserves_exactly_the_links_its_fabric_forwards_on() {
    let mut rack = torus();
    let hosts: Vec<String> = (0..SIDE * SIDE).map(|i| node(i / SIDE, i % SIDE)).collect();
    let mut checked = 0;
    for bonded in [false, true] {
        for borrower in &hosts {
            for donor in hosts.iter().filter(|d| *d != borrower) {
                let lease =
                    attach(&mut rack, borrower, donor, bonded).expect("an empty rack routes");
                assert_eq!(
                    held(&rack),
                    forwarded(&rack),
                    "{borrower}<-{donor} bonded={bonded}: reserved vs forwarded channels"
                );
                rack.detach(lease.id()).expect("detaches");
                assert!(
                    held(&rack).iter().all(|&h| h == 0),
                    "detach returns every channel"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 240);
    // One vocabulary: the fabrics are wired over the control plane's mesh.
    let fabric = rack.fabric("n00").expect("n00 borrowed");
    assert_eq!(
        fabric.topology_link_names(),
        rack.control_plane().mesh().link_names()
    );
}

#[test]
fn a_full_pair_detours_the_next_lease_and_detach_frees_it() {
    let mut rack = torus();
    // Two single-channel leases fill both cables of n00-n01 and n01-n02.
    let a = attach(&mut rack, "n00", "n02", false).unwrap();
    let b = attach(&mut rack, "n00", "n02", false).unwrap();
    assert_eq!(route_names(&rack, &a), ["n00-n01", "n01-n02"]);
    assert_eq!(route_names(&rack, &b), ["n00-n01", "n01-n02"]);
    let full = rack
        .control_plane()
        .mesh()
        .link_names()
        .iter()
        .position(|n| n == "n00-n01")
        .unwrap();
    assert_eq!(rack.control_plane().links()[full].held, 2);
    // The next lease whose shortest route is that pair detours, and its
    // fabric forwards on the detour.
    let c = attach(&mut rack, "n00", "n01", false).unwrap();
    let detour = route_names(&rack, &c);
    assert_eq!(detour.len(), 3, "{detour:?}");
    assert!(!detour.contains(&"n00-n01".to_string()), "{detour:?}");
    assert_eq!(held(&rack), forwarded(&rack));
    assert!(within_cables(&rack));
    // Detach returns the channels: the direct pair is free again.
    rack.detach(b.id()).unwrap();
    assert_eq!(rack.control_plane().links()[full].held, 1);
    let d = attach(&mut rack, "n00", "n01", false).unwrap();
    assert_eq!(route_names(&rack, &d), ["n00-n01"]);
    assert_eq!(held(&rack), forwarded(&rack));
    for lease in [a, c, d] {
        rack.detach(lease.id()).unwrap();
    }
    assert!(held(&rack).iter().all(|&h| h == 0));
}

#[test]
fn no_route_with_free_channels_is_refused_and_holds_nothing() {
    let mut rack = torus();
    // Bonded leases to its four neighbours fill every cable of n00.
    for donor in ["n01", "n03", "n10", "n30"] {
        let lease = attach(&mut rack, "n00", donor, true).unwrap();
        assert_eq!(route_names(&rack, &lease).len(), 1);
        assert!(within_cables(&rack));
    }
    let channels = held(&rack);
    let flows = rack.control_plane().flow_count();
    let pinned = rack.pinned("n22").unwrap().to_vec();
    let numa = rack.host("n00").unwrap().numa().nodes().to_vec();
    let paths = rack.fabric("n00").unwrap().path_ids();
    for bonded in [false, true] {
        let err = attach(&mut rack, "n00", "n22", bonded).unwrap_err();
        assert_eq!(err, RackError::ControlPlane(CpError::NoPath));
    }
    assert_eq!(held(&rack), channels);
    assert_eq!(rack.control_plane().flow_count(), flows);
    assert_eq!(rack.pinned("n22").unwrap(), pinned.as_slice());
    assert_eq!(rack.host("n00").unwrap().numa().nodes(), numa.as_slice());
    assert_eq!(rack.fabric("n00").unwrap().path_ids(), paths);
    assert_eq!(rack.leases().count(), 4);
    // Other borrowers still route around n00.
    let other = attach(&mut rack, "n01", "n03", true).unwrap();
    assert!(!route_names(&rack, &other).iter().any(|n| n.contains("n00")));
    assert_eq!(held(&rack), forwarded(&rack));
}
