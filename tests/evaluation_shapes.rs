//! Cross-crate integration: the evaluation's headline *shapes* — who
//! wins, roughly by how much, and where the crossovers fall — asserted
//! end-to-end through the public API.

use thymesisflow::core::config::SystemConfig;
use thymesisflow::core::fabric::FabricBuilder;
use thymesisflow::core::params::DatapathParams;
use thymesisflow::workloads::memcached::MemcachedBench;
use thymesisflow::workloads::runner::WorkloadRunner;
use thymesisflow::workloads::search::{Challenge, Elasticsearch};
use thymesisflow::workloads::stream::StreamBench;
use thymesisflow::workloads::voltdb::VoltDb;
use thymesisflow::workloads::ycsb::YcsbWorkload;

#[test]
fn fig5_interleaved_beats_bonding_beats_single() {
    let runner = WorkloadRunner::new();
    for threads in [4, 8, 16] {
        let copy = |c: SystemConfig| {
            StreamBench::paper(threads).run(&runner.model(c))[0].gib_per_sec
        };
        let single = copy(SystemConfig::SingleDisaggregated);
        let bonding = copy(SystemConfig::BondingDisaggregated);
        let interleaved = copy(SystemConfig::Interleaved);
        assert!(bonding >= single, "{threads}T");
        assert!(interleaved > bonding, "{threads}T");
        assert!(single <= runner.params().channel_nominal_gib(), "{threads}T");
    }
}

#[test]
fn fig5_bonding_gain_is_tens_of_percent_not_2x() {
    let runner = WorkloadRunner::new();
    let single = StreamBench::paper(8)
        .run(&runner.model(SystemConfig::SingleDisaggregated))[0]
        .gib_per_sec;
    let bonding = StreamBench::paper(8)
        .run(&runner.model(SystemConfig::BondingDisaggregated))[0]
        .gib_per_sec;
    let gain = bonding / single;
    assert!(
        (1.15..=1.6).contains(&gain),
        "bonding gain {gain} (paper: ~1.3, capped by 128 B C1 transactions)"
    );
}

#[test]
fn fig7_local_wins_and_gaps_shrink_with_partitions() {
    let runner = WorkloadRunner::new();
    let gap = |parts: u32| {
        let local = VoltDb::new(runner.model(SystemConfig::Local), parts)
            .throughput_ops(YcsbWorkload::A);
        let single = VoltDb::new(runner.model(SystemConfig::SingleDisaggregated), parts)
            .throughput_ops(YcsbWorkload::A);
        1.0 - single / local
    };
    let at4 = gap(4);
    let at32 = gap(32);
    assert!(at4 > at32, "gap must shrink with partitions: {at4} vs {at32}");
    assert!(at32 < 0.15, "at 32 partitions the gap is single-digit-ish: {at32}");
}

#[test]
fn fig8_thymesisflow_stays_within_ten_percent_of_local() {
    // "Configurations that utilize our ThymesisFlow prototype offer
    // similar performance to local with an average increase in latency
    // of up-to 7%."
    let runner = WorkloadRunner::new();
    let bench = MemcachedBench {
        clients: 32,
        workers: 8,
        requests_per_client: 600,
    };
    let mean = |c| bench.run(runner.model(c), 5).0.mean_us();
    let local = mean(SystemConfig::Local);
    for c in SystemConfig::THYMESISFLOW {
        let m = mean(c);
        assert!(m / local < 1.10, "{c}: {m} vs local {local}");
        assert!(m > local, "{c} cannot beat local");
    }
}

#[test]
fn fig9_crossover_rtq_vs_ma() {
    // The same hardware helps or hurts by workload: RTQ collapses under
    // disaggregation while MA barely notices — the paper's core
    // "depends on the workload" conclusion.
    let runner = WorkloadRunner::new();
    let ratio = |ch| {
        let local = Elasticsearch::new(runner.model(SystemConfig::Local), 32).throughput_ops(ch);
        let single =
            Elasticsearch::new(runner.model(SystemConfig::SingleDisaggregated), 32)
                .throughput_ops(ch);
        single / local
    };
    assert!(ratio(Challenge::Rtq) < 0.5, "RTQ collapses");
    assert!(ratio(Challenge::Ma) > 0.8, "MA barely notices");
}

#[test]
fn latency_hierarchy_is_consistent_everywhere() {
    // local < interleaved < single across every model surface.
    let runner = WorkloadRunner::new();
    let lat = |c: SystemConfig| runner.model(c).avg_load_latency_ns();
    assert!(lat(SystemConfig::Local) < lat(SystemConfig::Interleaved));
    assert!(lat(SystemConfig::Interleaved) < lat(SystemConfig::SingleDisaggregated));
    // And the remote/local ratio is the paper's ~10x.
    let ratio = lat(SystemConfig::SingleDisaggregated) / lat(SystemConfig::Local);
    assert!((8.0..=12.0).contains(&ratio), "latency ratio {ratio}");
}

#[test]
#[allow(clippy::float_cmp)] // exact: one measurement prices every figure
fn figures_price_remote_loads_at_the_fabric_measurement() {
    // One idle load on the reference fabric: the load-to-use every
    // figure harness prices a remote access at.
    let params = DatapathParams::prototype();
    let dram = params.local_load_latency().as_ns_f64();
    let (mut fabric, path) = FabricBuilder::point_to_point(params, 1, 256 << 20).unwrap();
    let measured = fabric.measure_load_latency(path).unwrap().as_ns_f64();
    let runner = WorkloadRunner::new();
    let single = runner.model(SystemConfig::SingleDisaggregated).avg_load_latency_ns();
    assert_eq!(single, measured, "figures priced at {single} ns, fabric measures {measured} ns");
    // Interleaved pages split evenly between the fabric and DRAM.
    let interleaved = runner.model(SystemConfig::Interleaved).avg_load_latency_ns();
    assert_eq!(interleaved, (measured + dram) / 2.0);
}
