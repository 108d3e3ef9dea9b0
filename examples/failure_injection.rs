//! Failure injection: stream over full fabric paths with increasingly
//! lossy channels and watch the LLC credit/replay protocol keep every
//! transaction exactly-once (at a bandwidth cost), then demonstrate the
//! wire format's CRC catching real bit damage.
//!
//! ```text
//! cargo run --example failure_injection
//! ```

use thymesisflow::core::fabric::{FabricBuilder, PathSpec};
use thymesisflow::core::params::DatapathParams;
use thymesisflow::llc::frame::{assemble, FrameId};
use thymesisflow::llc::wire::{decode, encode, WireError};
use thymesisflow::llc::Frame;
use thymesisflow::netsim::fault::FaultSpec;
use thymesisflow::routing::topology::{Line, NodeId};
use thymesisflow::simkit::time::SimTime;

type Msg = (u32, usize);

fn main() {
    println!("== fabric path under injected channel faults (100 us stream) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "drop %", "corrupt %", "GiB/s", "completions", "frames", "replays"
    );
    let line = Line::new(2).expect("a 2-node line");
    let mut lossless = None;
    for (drop, corrupt) in [(0.0, 0.0), (0.001, 0.001), (0.005, 0.005), (0.02, 0.02)] {
        // Same reference topology every run; only the fault process on
        // the path's channels changes.
        let spec = PathSpec::reference(256 << 20, 1)
            .with_faults(FaultSpec::new(drop, corrupt))
            .labelled("lossy");
        let (mut fabric, paths) =
            FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
                .path_to(NodeId(1), spec)
                .build()
                .expect("reference topology assembles");
        let path = paths[0];
        fabric.set_telemetry(true);
        fabric.set_tracing(false);
        let rate = fabric
            .measure_stream_bandwidth(path, 8, 32, SimTime::from_us(100))
            .expect("replay keeps the stream progressing")
            .as_gib_per_sec();
        let stats = fabric.path_link_stats(path).expect("live path")[0];
        println!(
            "{:>10.1} {:>10.1} {:>10.2} {:>12} {:>10} {:>10}",
            drop * 100.0,
            corrupt * 100.0,
            rate,
            fabric.completions(path).expect("live path").count(),
            stats.fwd_frames + stats.rev_frames,
            stats.up_replays + stats.down_replays,
        );
        // The loads still in flight at the deadline drain too: every
        // issued load completes and none faults, however lossy the wire.
        fabric.drain().expect("the stream drains");
        let snap = fabric.telemetry_snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        assert!(fabric.faults().is_empty(), "a lossy link is not a dead one");
        assert_eq!(
            count("fabric.loads.retired"),
            count("fabric.loads.issued"),
            "every issued load completes exactly once"
        );
        match lossless {
            None => lossless = Some(rate),
            Some(base) => assert!(
                rate <= base,
                "faults cannot raise bandwidth: {rate} > {base}"
            ),
        }
    }
    println!("every completed load is exactly-once; loss only costs bandwidth\n");

    println!("== wire-format CRC vs bit damage ==");
    let (frames, _) = assemble(vec![(7u32, 3usize), (9, 2)], 8, FrameId(0), 0);
    let clean = encode(&frames[0]);
    let ok: Frame<Msg> = decode(&clean).expect("clean frame decodes");
    println!("clean frame: {} bytes -> {:?}", clean.len(), ok.id());
    let mut bad_magic = 0;
    let mut bad_crc = 0;
    let total = clean.len() * 8;
    for bit in 0..total {
        let mut damaged = clean.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        // Exactly two outcomes are legitimate: a flip inside the two
        // magic bytes fails the magic check, and every other flip —
        // including one in the CRC field itself — fails the CRC. Any
        // other error kind (or a clean decode) is a detector hole.
        match decode::<Msg>(&damaged) {
            Err(WireError::BadMagic) => {
                assert!(bit < 16, "bit {bit} outside the magic raised BadMagic");
                bad_magic += 1;
            }
            Err(WireError::BadCrc { .. }) => {
                assert!(bit >= 16, "bit {bit} inside the magic raised BadCrc");
                bad_crc += 1;
            }
            Err(e) => panic!("unexpected decode error at bit {bit}: {e}"),
            Ok(_) => panic!("undetected corruption at bit {bit}"),
        }
    }
    assert_eq!(bad_magic, 16, "every magic bit must trip the magic check");
    assert_eq!(bad_crc, total - 16, "every other bit must trip the CRC");
    println!(
        "flipped each of {total} bits once: {bad_magic} bad-magic + {bad_crc} bad-crc, 0 silent corruptions"
    );
}
