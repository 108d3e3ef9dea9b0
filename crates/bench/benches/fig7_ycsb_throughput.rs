//! Fig. 7 — YCSB workloads A and E throughput for all experimental
//! setups, with 4 and 32 VoltDB data partitions.

use bench::{banner, compare, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::sweep::sweep;
use thymesisflow_core::config::SystemConfig;
use workloads::runner::WorkloadRunner;
use workloads::ycsb::YcsbWorkload;

fn reproduce() {
    banner("Fig. 7 — YCSB A and E throughput (ops/sec)");
    // workload × partition grid through the sweep harness; each point
    // evaluates all five system configurations on the one runner.
    let grid = vec![
        (YcsbWorkload::A, 4u32),
        (YcsbWorkload::A, 32),
        (YcsbWorkload::E, 4),
        (YcsbWorkload::E, 32),
    ];
    let runner = WorkloadRunner::new();
    let results = sweep(0xF17, grid.clone(), |_i, (w, parts), _rng| {
        runner
            .voltdb_throughput(w, parts)
            .into_iter()
            .collect::<std::collections::HashMap<_, _>>()
    });
    for (w_idx, w) in [YcsbWorkload::A, YcsbWorkload::E].iter().enumerate() {
        println!("\n-- workload {} --", w.label());
        header(&["partitions", "local", "scale-out", "interleaved", "single", "bonding"]);
        for (p_idx, parts) in [4u32, 32].iter().enumerate() {
            let t = &results[w_idx * 2 + p_idx];
            row(
                &parts.to_string(),
                &[
                    f64::from(*parts),
                    t[&SystemConfig::Local],
                    t[&SystemConfig::ScaleOut],
                    t[&SystemConfig::Interleaved],
                    t[&SystemConfig::SingleDisaggregated],
                    t[&SystemConfig::BondingDisaggregated],
                ],
            );
        }
    }
    // The §VI-D headline percentages at A@32 (grid point 1).
    let t = &results[1];
    let local = t[&SystemConfig::Local];
    println!("\nslowdown vs local, workload A @ 32 partitions:");
    compare("scale-out", 5.95, (1.0 - t[&SystemConfig::ScaleOut] / local) * 100.0, "%");
    compare("interleaved", 5.62, (1.0 - t[&SystemConfig::Interleaved] / local) * 100.0, "%");
    compare("single-disagg", 7.97, (1.0 - t[&SystemConfig::SingleDisaggregated] / local) * 100.0, "%");
    compare("bonding-disagg", 10.03, (1.0 - t[&SystemConfig::BondingDisaggregated] / local) * 100.0, "%");
    assert!(local > t[&SystemConfig::SingleDisaggregated]);
    assert!(t[&SystemConfig::SingleDisaggregated] > t[&SystemConfig::BondingDisaggregated]);
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    let runner = WorkloadRunner::new();
    c.bench_function("fig7/throughput_sweep", |b| {
        b.iter(|| std::hint::black_box(runner.voltdb_throughput(YcsbWorkload::A, 32)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
