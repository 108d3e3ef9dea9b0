//! The paper's headline number, reproduced as a checked artifact: a
//! remote load's 950 ns load-to-use latency decomposed into 6 serDES
//! crossings and 4 FPGA-stack stages (ThymesisFlow, MICRO 2020, §VI).
//!
//! One load is traced at flit granularity — every span is a contiguous
//! checkpoint difference, so the per-hop attribution sums *exactly* to
//! the measured RTT — then the aggregate breakdown table, the telemetry
//! registry snapshot and a Chrome `trace_event` export are printed for
//! both the raw fabric and the rack-lease surfaces.
//!
//! ```text
//! cargo run --example latency_breakdown
//! ```

use serde::Value;
use thymesisflow::core::attach::AttachRequest;
use thymesisflow::core::fabric::{chrome_trace_json, FabricBuilder, HopKind};
use thymesisflow::core::params::DatapathParams;
use thymesisflow::core::rack::{NodeConfig, RackBuilder};
use thymesisflow::simkit::units::GIB;

/// Loads to aggregate into the breakdown table.
const LOADS: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- 1. One traced load over the reference point-to-point fabric --
    let (mut fabric, path) =
        FabricBuilder::point_to_point(DatapathParams::prototype(), 2, 256 << 20)?;
    fabric.set_telemetry(true);

    let trace = fabric.measure_traced_load(path)?;
    println!("== one traced load, span by span (trace {:?}) ==", trace.trace);
    for span in &trace.spans {
        println!("  {:<22} {:>9.2} ns", span.kind.to_string(), span.duration().as_ns_f64());
    }
    println!(
        "  {:<22} {:>9.2} ns  (spans sum exactly to the measured RTT)",
        "= load-to-use",
        trace.rtt().as_ns_f64()
    );
    assert_eq!(
        trace.spans_total(),
        trace.rtt(),
        "span accounting must be exact, not approximate"
    );
    assert_eq!(trace.serdes_crossings(), 6, "paper counts 6 serDES crossings");
    assert_eq!(trace.stack_stages(), 4, "paper counts 4 FPGA stack stages");

    // -- 2. The aggregate paper-style table over many loads --
    for _ in 1..LOADS {
        fabric.measure_traced_load(path)?;
    }
    let breakdown = fabric.path_breakdown(path)?;
    println!();
    println!("{}", breakdown.table());

    let serdes = breakdown.row(HopKind::SerDes(
        thymesisflow::core::fabric::SerdesSite::ComputeTx,
    ));
    let params = fabric.params().clone();
    println!("paper prototype:  950 ns = 6 serDES crossings x 75 ns + 4 stack stages x 101 ns + DRAM + wire");
    println!(
        "this model:      {:>4.0} ns = 6 serDES crossings x {:.0} ns + 4 stack stages x {:.0} ns + DRAM + wire",
        breakdown.mean_rtt_ns,
        serdes.map_or(0.0, |r| r.mean_ns),
        breakdown
            .row(HopKind::Stack(
                thymesisflow::core::fabric::StackSite::ComputeTx
            ))
            .map_or(0.0, |r| r.mean_ns),
    );
    println!(
        "(calibration: serdes_crossing_ns={} stack_crossing_ns={} dram_latency_ns={})",
        params.serdes_crossing_ns, params.stack_crossing_ns, params.dram_latency_ns
    );

    // -- 3. Chrome trace_event export, validated by parsing it back --
    let json = chrome_trace_json(fabric.traces());
    let parsed: Value = serde_json::from_str(&json)?;
    let events = parsed
        .get("traceEvents")
        .and_then(|e| match e {
            Value::Seq(items) => Some(items.len()),
            _ => None,
        })
        .ok_or("chrome trace export lost its traceEvents array")?;
    let out = std::path::Path::new("target").join("latency_breakdown.trace.json");
    std::fs::write(&out, &json)?;
    println!();
    println!(
        "chrome trace: {events} events from {} traces -> {} ({} bytes, parses OK)",
        fabric.traces().len(),
        out.display(),
        json.len()
    );

    // -- 4. The same surfaces through a software-defined rack lease --
    let mut rack = RackBuilder::new()
        .node(NodeConfig::ac922("borrower"))
        .node(NodeConfig::ac922("donor"))
        .cable("borrower", "donor")
        .build()?;
    let lease = rack.attach(AttachRequest::new("borrower", "donor", 32 * GIB))?;
    rack.set_lease_telemetry(lease.id(), true)?;
    let bd = rack.lease_breakdown(lease.id())?;
    println!();
    println!(
        "rack lease {}: mean load-to-use {:.0} ns over {} traced load(s), {} crossings / {} stack stages",
        lease.id(),
        bd.mean_rtt_ns,
        bd.loads,
        bd.serdes_crossings_per_load(),
        bd.stack_stages_per_load(),
    );
    let snap = rack.lease_telemetry(lease.id())?;
    println!(
        "lease telemetry @ {} ns: issued={} retired={} (snapshot exports {} metric paths)",
        snap.at.as_ns(),
        snap.counter("fabric.loads.issued").unwrap_or(0),
        snap.counter("fabric.loads.retired").unwrap_or(0),
        snap.len()
    );
    Ok(())
}
