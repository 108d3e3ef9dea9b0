//! Fig. 9 — ESRally "nested" track throughput for all memory
//! configurations, with 5 and 32 shards.

use bench::{banner, compare, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::sweep::sweep;
use thymesisflow_core::config::SystemConfig;
use workloads::runner::WorkloadRunner;
use workloads::search::{Challenge, Elasticsearch, InvertedIndex};

fn reproduce() {
    banner("Fig. 9 — ESRally nested track throughput (ops/sec)");
    // shards × challenge grid; each sweep point evaluates the five
    // system configurations on its own index/model instances, built
    // from the one runner.
    let mut grid = Vec::new();
    for shards in [5u32, 32] {
        for ch in Challenge::ALL {
            grid.push((shards, ch));
        }
    }
    let runner = WorkloadRunner::new();
    let results = sweep(0xF19, grid.clone(), |_i, (shards, ch), _rng| {
        let t =
            |c: SystemConfig| Elasticsearch::new(runner.model(c), shards).throughput_ops(ch);
        [
            t(SystemConfig::Local),
            t(SystemConfig::ScaleOut),
            t(SystemConfig::Interleaved),
            t(SystemConfig::BondingDisaggregated),
            t(SystemConfig::SingleDisaggregated),
        ]
    });
    let mut points = grid.iter().zip(&results);
    for shards in [5u32, 32] {
        println!("\n-- {shards} shards --");
        header(&["challenge", "local", "scale-out", "interleaved", "bonding", "single"]);
        for _ in Challenge::ALL {
            let ((_, ch), cols) = points.next().expect("grid covered");
            row(ch.label(), cols);
        }
    }
    // Headline comparisons at 32 shards.
    let t = |c: SystemConfig, ch| Elasticsearch::new(runner.model(c), 32).throughput_ops(ch);
    let local_rtq = t(SystemConfig::Local, Challenge::Rtq);
    println!("\nRTQ slowdown vs local @32 shards (paper: interleaved 58.33%, bonding 42.65%, single 75.65%):");
    compare("interleaved", 58.33, (1.0 - t(SystemConfig::Interleaved, Challenge::Rtq) / local_rtq) * 100.0, "%");
    compare("bonding", 42.65, (1.0 - t(SystemConfig::BondingDisaggregated, Challenge::Rtq) / local_rtq) * 100.0, "%");
    compare("single", 75.65, (1.0 - t(SystemConfig::SingleDisaggregated, Challenge::Rtq) / local_rtq) * 100.0, "%");
    println!("\nscale-out advantage over TF configs, avg of RNQIHBS/RSTQ/MA (paper: 17.95 / 41.26 / 60.61%):");
    for (name, cfg, paper) in [
        ("interleaved", SystemConfig::Interleaved, 17.95),
        ("bonding", SystemConfig::BondingDisaggregated, 41.26),
        ("single", SystemConfig::SingleDisaggregated, 60.61),
    ] {
        let sync = [Challenge::Rnqihbs, Challenge::Rstq, Challenge::Ma];
        let avg: f64 = sync
            .iter()
            .map(|&ch| t(SystemConfig::ScaleOut, ch) / t(cfg, ch) - 1.0)
            .sum::<f64>()
            / sync.len() as f64
            * 100.0;
        compare(name, paper, avg, "%");
    }
    assert!(t(SystemConfig::ScaleOut, Challenge::Rtq) > local_rtq, "scale-out wins RTQ");
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("fig9/index_rtq_query", |b| {
        let idx = InvertedIndex::synthesize(50_000, 500, 5, 1);
        b.iter(|| std::hint::black_box(idx.random_tag_query(0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
