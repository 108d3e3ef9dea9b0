//! Fig. 8 — Memcached GET transaction latency CDF under the ETC
//! workload, for all five system configurations.

use bench::{banner, compare, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::sweep::sweep;
use thymesisflow_core::config::SystemConfig;
use workloads::memcached::MemcachedBench;
use workloads::runner::WorkloadRunner;

fn reproduce() {
    banner("Fig. 8 — Memcached GET latency CDF (µs)");
    let bench = MemcachedBench {
        clients: 64,
        workers: 8,
        requests_per_client: 1_500,
    };
    let paper_mean = [
        (SystemConfig::Local, 600.0),
        (SystemConfig::Interleaved, 614.0),
        (SystemConfig::SingleDisaggregated, 635.0),
        (SystemConfig::BondingDisaggregated, 650.0),
        (SystemConfig::ScaleOut, 713.0),
    ];
    header(&["config", "mean", "p50", "p90", "p99", "hit %"]);
    // One sweep point per system configuration (the request-sampling
    // seed stays pinned so the reproduced CDF matches across runs).
    let grid: Vec<SystemConfig> = paper_mean.iter().map(|(c, _)| *c).collect();
    let runner = WorkloadRunner::new();
    let results = sweep(0xF18, grid, move |_i, config, _rng| {
        let (stats, svc) = bench.run(runner.model(config), 97);
        let picks: Vec<String> = stats
            .cdf_us()
            .iter()
            .filter(|(_, f)| [0.25, 0.5, 0.75, 0.9, 0.99].iter().any(|q| (f - q).abs() < 0.01))
            .take(5)
            .map(|(us, f)| format!("({us:.0}µs,{f:.2})"))
            .collect();
        (
            [
                stats.mean_us(),
                stats.quantile_us(0.5),
                stats.quantile_us(0.9),
                stats.quantile_us(0.99),
                svc.cache().hit_ratio() * 100.0,
            ],
            picks,
        )
    });
    let mut means = Vec::new();
    for ((config, _), (cols, picks)) in paper_mean.iter().zip(&results) {
        row(config.label(), cols);
        means.push((*config, cols[0]));
        println!("{:>18}  cdf: {}", "", picks.join(" "));
    }
    println!("\nmean latency vs paper:");
    for ((config, paper), (_, measured)) in paper_mean.iter().zip(&means) {
        compare(config.label(), *paper, *measured, "µs");
    }
    // Shape assertions.
    let m: std::collections::HashMap<_, _> = means.into_iter().collect();
    assert!(m[&SystemConfig::Local] < m[&SystemConfig::Interleaved]);
    assert!(m[&SystemConfig::Interleaved] < m[&SystemConfig::SingleDisaggregated]);
    assert!(m[&SystemConfig::SingleDisaggregated] < m[&SystemConfig::BondingDisaggregated]);
    assert!(m[&SystemConfig::BondingDisaggregated] < m[&SystemConfig::ScaleOut]);
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    let runner = WorkloadRunner::new();
    c.bench_function("fig8/memcached_run_small", |b| {
        let bench = MemcachedBench {
            clients: 8,
            workers: 4,
            requests_per_client: 100,
        };
        b.iter(|| {
            std::hint::black_box(bench.run(runner.model(SystemConfig::Local), 5))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(900)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
