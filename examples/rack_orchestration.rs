//! Software-defined orchestration, end to end: compose a logical server
//! from two donors' memory, watch every lease materialise as a
//! flit-level fabric path (section tables, router routes, LLC channels),
//! measure the paths, exercise access control, inspect the audit trail.
//!
//! ```text
//! cargo run --example rack_orchestration
//! ```

use thymesisflow::core::attach::AttachRequest;
use thymesisflow::core::rack::{NodeConfig, RackBuilder};
use thymesisflow::ctrlplane::api::{AttachSpec, Request};
use thymesisflow::ctrlplane::auth::Role;
use thymesisflow::simkit::time::SimTime;
use thymesisflow::simkit::units::GIB;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-node rack: node-a will borrow from both neighbours.
    let mut rack = RackBuilder::new()
        .node(NodeConfig::ac922("node-a"))
        .node(NodeConfig::ac922("node-b"))
        .node(NodeConfig::ac922("node-c"))
        .cable("node-a", "node-b")
        .cable("node-a", "node-c")
        .build()?;

    // Each attach runs the full flow — authorize, path search, signed
    // agent configs, donor pin, borrower hotplug — and then wires the
    // lease's flit-level path on the borrower's fabric.
    let l1 = rack.attach(AttachRequest::new("node-a", "node-b", 32 * GIB))?;
    let l2 = rack.attach(AttachRequest::new("node-a", "node-c", 16 * GIB))?;
    for l in [&l1, &l2] {
        println!(
            "{}: {} GiB from '{}' at window {:#x}, network {}",
            l.id(),
            l.bytes() / GIB,
            l.memory(),
            l.window_base(),
            l.network_id(),
        );
    }

    // The borrower's fabric now carries both paths: link slots, donors
    // and routes for each lease.
    let fabric = rack.fabric("node-a").expect("leases instantiated a fabric");
    println!(
        "node-a fabric: {} components, {} routed networks, live paths {:?}",
        fabric.components().len(),
        fabric.path_ids().len(),
        fabric.path_ids(),
    );

    // Leased memory is exercised at flit granularity.
    let (fabric, path) = rack.lease_fabric(l1.id())?;
    let rtt = fabric.measure_load_latency(path)?;
    println!("lease 1 uncontended load-to-use: {rtt}");
    let rates = rack.run_lease_streams(
        &[(l1.id(), 8, 32), (l2.id(), 8, 32)],
        SimTime::from_us(100),
    )?;
    for (l, rate) in [&l1, &l2].iter().zip(&rates) {
        println!(
            "{} sustained {:.2} GiB/s over its channel",
            l.id(),
            rate.as_gib_per_sec()
        );
    }

    // Access control still gates the REST-style interface: a tenant
    // scoped to {node-a, node-b} may not touch node-c.
    let tenant = rack
        .control_plane_mut()
        .auth_mut()
        .issue_token(Role::Tenant {
            hosts: vec!["node-a".into(), "node-b".into()],
        });
    let req = serde_json::to_string(&Request::Attach {
        token: tenant,
        spec: AttachSpec {
            compute_host: "node-a".into(),
            memory_host: "node-c".into(),
            bytes: 8 * GIB,
            bonded: false,
        },
    })?;
    println!(
        "tenant POST /flows (node-c) -> {}",
        rack.control_plane_mut().handle_json(&req)
    );

    // Detach tears the fabric paths back down with the leases.
    rack.detach(l1.id())?;
    rack.detach(l2.id())?;
    println!(
        "after detach: remote bytes {}, fabric paths {:?}",
        rack.host("node-a").expect("host").remote_bytes(),
        rack.fabric("node-a").expect("fabric").path_ids(),
    );

    println!("\naudit trail:");
    for e in rack.control_plane_mut().audit() {
        println!("  [{:>3}] {}", e.seq, e.event);
    }
    Ok(())
}
