//! Ablation (design choice) — LLC reliability under injected faults and
//! the credit-depth sweep, on the fabric's own links.
//!
//! The paper sizes the Rx ingress queues "to avoid credit starvation at
//! the Tx side" and recovers losses with in-order frame replay. This
//! harness quantifies both choices on a one-channel point-to-point
//! fabric running the datapath's LLC calibration
//! (`DatapathParams::llc`): replay overhead vs fault rate, and the
//! starvation cliff when the credit pool is too shallow for the
//! bandwidth-delay product plus the datapath's coalesced acks.

use bench::{banner, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use llc::LlcConfig;
use netsim::fault::FaultSpec;
use routing::topology::{Line, NodeId};
use simkit::sweep::sweep;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{FabricBuilder, LinkStats, PathSpec};
use thymesisflow_core::params::DatapathParams;

/// Cacheline loads issued at once per run.
const LOADS: usize = 500;
/// The attachment the loads walk.
const SHARE: u64 = 256 << 20;
/// Independently seeded runs averaged per fault rate: at 1% a single
/// 500-load run sees only a few faults, or none.
const REPS: usize = 8;

const FAULT_RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];
const DEPTHS: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// Issues [`LOADS`] loads at once on a one-channel point-to-point
/// fabric and runs it dry. Asserts every load retired exactly once, in
/// issue order, with no fault; returns the link's statistics and the
/// instant the last load retired.
fn run(llc: LlcConfig, faults: FaultSpec, seeds: (u64, u64)) -> (LinkStats, SimTime) {
    let mut spec = PathSpec::reference(SHARE, 1).with_faults(faults);
    spec.seeds = vec![seeds];
    let line = Line::new(2).expect("a 2-node line");
    let params = DatapathParams {
        llc,
        ..DatapathParams::prototype()
    };
    let (mut fabric, paths) = FabricBuilder::from_topology(params, &line, NodeId(0))
        .path_to(NodeId(1), spec)
        .build()
        .expect("point-to-point fabric assembles");
    let path = paths[0];
    let issued: Vec<u64> = (0..LOADS)
        .map(|_| fabric.issue_read(path).expect("a live path issues"))
        .collect();
    let mut retired = Vec::with_capacity(LOADS);
    let mut last = SimTime::ZERO;
    while let Some(done) = fabric.step().expect("no protocol violation") {
        if !done.is_empty() {
            last = fabric.now();
        }
        retired.extend(done.iter().map(|c| c.tag));
    }
    assert!(
        fabric.faults().is_empty(),
        "{faults:?}: {:?}",
        fabric.faults()
    );
    assert_eq!(retired, issued, "{faults:?}: exactly once, in issue order");
    let stats = fabric.path_link_stats(path).expect("live path")[0];
    (stats, last)
}

fn reproduce() {
    banner("Ablation — LLC replay under faults / credit-depth sweep (fabric links)");
    println!("replay overhead vs fault rate ({LOADS} loads, one channel, mean of {REPS} runs):");
    header(&["drop+corrupt %", "frames sent", "replayed", "time us"]);
    // Each fault-rate point seeds its channels from its own sweep
    // stream: deterministic per grid position, independent of worker
    // count.
    let fault_runs = sweep(0xAB1, FAULT_RATES.to_vec(), |_i, rate, mut rng| {
        let faults = FaultSpec::new(rate / 2.0, rate / 2.0);
        let mut sums = [0.0; 3];
        for _ in 0..REPS {
            let (stats, last) = run(
                LlcConfig::default(),
                faults,
                (rng.next_u64(), rng.next_u64()),
            );
            sums[0] += (stats.fwd_frames + stats.rev_frames) as f64;
            sums[1] += (stats.up_replays + stats.down_replays) as f64;
            sums[2] += last.as_us_f64();
        }
        sums.map(|s| s / REPS as f64)
    });
    for (rate, cols) in FAULT_RATES.iter().zip(&fault_runs) {
        row(&format!("{:.0}%", rate * 100.0), cols);
    }
    // One replay request per gap and one replay per request: at 1% the
    // link re-sends what it lost, not whole windows over and over.
    assert!(
        fault_runs[1][0] < 2.0 * fault_runs[0][0],
        "replays stack at 1%: {} frames against {} lossless",
        fault_runs[1][0],
        fault_runs[0][0]
    );
    println!("\ncredit-depth sweep (lossless, {LOADS} loads, one channel):");
    header(&["rx queue frames", "ack every", "credit stalls", "time us"]);
    // Acks stay coalesced every 8th frame, as on the datapath, except
    // where the pool is too shallow for that: one below its depth.
    let depth_runs = sweep(0xAB2, DEPTHS.to_vec(), |_i, depth, mut rng| {
        let llc = LlcConfig {
            rx_queue_frames: depth,
            ack_every: LlcConfig::default().ack_every.min(depth as u64 - 1),
            ..LlcConfig::default()
        };
        let (stats, last) = run(llc, FaultSpec::LOSSLESS, (rng.next_u64(), rng.next_u64()));
        [
            llc.ack_every as f64,
            (stats.up_credit_stalls + stats.down_credit_stalls) as f64,
            last.as_us_f64(),
        ]
    });
    for (depth, cols) in DEPTHS.iter().zip(&depth_runs) {
        row(&depth.to_string(), cols);
    }
    let deepest = depth_runs.last().expect("a depth sweep");
    assert!(
        depth_runs[0][1] > 0.0 && deepest[1] == 0.0,
        "a 2-frame pool must stall the transmitter and the datapath's must not"
    );
    assert!(
        depth_runs[0][2] > 2.0 * deepest[2],
        "a starved transmitter must take far longer"
    );
    println!("\nshape: every load completes exactly once, in order, at every fault rate, and\n1% loss costs under twice the lossless frames; shallow credit pools stall the\ntransmitter, the datapath's 128 frames don't.");
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("ablation/llc_lossless_500", |b| {
        b.iter(|| std::hint::black_box(run(LlcConfig::default(), FaultSpec::LOSSLESS, (1, 2))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
