//! Determinism under parallelism: the same master seed must produce
//! bit-identical results whether a sweep runs on one worker or many,
//! and whether the event queue runs on the hybrid fast path or the
//! reference heap engine. These are the invariants that make the
//! performance layer free: speed without a single changed trajectory.

use thymesisflow::core::fabric::FabricBuilder;
use thymesisflow::core::params::DatapathParams;
use thymesisflow::simkit::event::Engine;
use thymesisflow::simkit::rng::DetRng;
use thymesisflow::simkit::stats::Histogram;
use thymesisflow::simkit::sweep::sweep_with_workers;
use thymesisflow::simkit::time::SimTime;

const SECTION: u64 = 256 << 20;
const MASTER_SEED: u64 = 0x7F10_2020;

/// One sweep point: a short closed-loop bandwidth run plus an
/// RNG-driven histogram, everything reduced to exact bit patterns
/// (quantiles as integers, rates via `f64::to_bits`) so equality is
/// bit-for-bit, not approximate.
fn run_point(point: (usize, u32), mut rng: DetRng) -> (Vec<u64>, u64, u64, u64) {
    let (channels, threads) = point;
    let (mut fabric, path) =
        FabricBuilder::point_to_point(DatapathParams::prototype(), channels, SECTION).unwrap();
    let rate = fabric
        .measure_stream_bandwidth(path, threads, 8, SimTime::from_us(30))
        .unwrap();
    let mut h = Histogram::new();
    for _ in 0..2_000 {
        h.record(rng.range(1, 1_000_000));
    }
    let quantiles: Vec<u64> = (0..=10).map(|i| h.quantile(f64::from(i) / 10.0)).collect();
    (
        quantiles,
        rate.as_gib_per_sec().to_bits(),
        fabric.completions(path).unwrap().quantile(0.5),
        fabric.events_processed(),
    )
}

fn grid() -> Vec<(usize, u32)> {
    vec![(1, 1), (1, 4), (1, 8), (2, 4), (2, 8)]
}

#[test]
fn sweep_results_are_bit_identical_for_1_vs_n_workers() {
    let serial = sweep_with_workers(MASTER_SEED, grid(), 1, |_i, p, rng| run_point(p, rng));
    for workers in [2, 4, 8] {
        let parallel =
            sweep_with_workers(MASTER_SEED, grid(), workers, |_i, p, rng| run_point(p, rng));
        assert_eq!(
            serial, parallel,
            "sweep output changed with {workers} workers"
        );
    }
}

#[test]
fn sweep_results_depend_on_the_master_seed() {
    // Sanity for the test above: the RNG streams actually reach the
    // results, so bit-equality is not vacuous.
    let a = sweep_with_workers(MASTER_SEED, grid(), 2, |_i, p, rng| run_point(p, rng));
    let b = sweep_with_workers(MASTER_SEED + 1, grid(), 2, |_i, p, rng| run_point(p, rng));
    assert_ne!(a, b, "master seed had no effect");
}

#[test]
fn hybrid_and_heap_engines_trace_identical_simulations() {
    // The engine property tests prove pop-order equality on arbitrary
    // schedules; this proves it end to end — the full datapath produces
    // bit-identical measurements on both engines.
    for (channels, threads) in [(1, 4), (2, 8)] {
        let mut results = Vec::new();
        for engine in [Engine::Hybrid, Engine::HeapOnly] {
            let (mut fabric, path) = FabricBuilder::point_to_point_with_engine(
                DatapathParams::prototype(),
                channels,
                SECTION,
                engine,
            )
            .unwrap();
            let rate = fabric
                .measure_stream_bandwidth(path, threads, 8, SimTime::from_us(40))
                .unwrap();
            let completions = fabric.completions(path).unwrap();
            let quantiles: Vec<u64> = (0..=20)
                .map(|i| completions.quantile(f64::from(i) / 20.0))
                .collect();
            results.push((
                rate.as_gib_per_sec().to_bits(),
                quantiles,
                fabric.events_processed(),
            ));
        }
        assert_eq!(
            results[0], results[1],
            "engines diverged at {channels} channels / {threads} threads"
        );
    }
}
