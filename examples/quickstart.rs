//! Quickstart: build a two-node rack, attach disaggregated memory, run
//! STREAM on it, detach.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use thymesisflow::core::attach::AttachRequest;
use thymesisflow::core::config::SystemConfig;
use thymesisflow::core::memmodel::{Calibration, MemoryModel};
use thymesisflow::core::rack::{NodeConfig, RackBuilder};
use thymesisflow::simkit::units::GIB;
use thymesisflow::workloads::stream::StreamBench;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two AC922s wired with two 100 Gbit/s direct-attach channels.
    let mut rack = RackBuilder::new()
        .node(NodeConfig::ac922("borrower"))
        .node(NodeConfig::ac922("donor"))
        .cable("borrower", "donor")
        .build()?;

    // 2. Attach 64 GiB of the donor's memory to the borrower, bonded.
    let lease = rack.attach(AttachRequest::new("borrower", "donor", 64 * GIB).bonded())?;
    println!(
        "attached {} GiB from '{}' to '{}' as NUMA {} (bonded: {})",
        lease.bytes() / GIB,
        lease.memory(),
        lease.compute(),
        lease.numa_node(),
        lease.is_bonded(),
    );
    let host = rack.host("borrower").expect("host exists");
    println!(
        "borrower now sees {} NUMA nodes, {} GiB local + {} GiB remote",
        host.numa().nodes().len(),
        host.local_bytes() / GIB,
        host.remote_bytes() / GIB,
    );
    // One idle load on the reference fabric prices every configuration.
    let calibration = Calibration::measure(rack.params().clone())?;
    println!(
        "remote load-to-use latency: {} (local: {})",
        calibration.remote_load_latency(),
        rack.params().local_load_latency(),
    );

    // 3. Run STREAM against the three ThymesisFlow configurations.
    println!("\nSTREAM (copy kernel, GiB/s):");
    for threads in [4u32, 8, 16] {
        let mut line = format!("  {threads:>2} threads:");
        for config in SystemConfig::THYMESISFLOW {
            let model = MemoryModel::new(&calibration, config);
            let gib = StreamBench::paper(threads).run(&model)[0].gib_per_sec;
            line.push_str(&format!("  {config}={gib:.1}"));
        }
        println!("{line}");
    }

    // 4. Tear down.
    rack.detach(lease.id())?;
    println!("\ndetached; borrower remote bytes: {}", rack.host("borrower").unwrap().remote_bytes());
    Ok(())
}
