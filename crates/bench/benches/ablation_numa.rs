//! Ablation (design choice) — NUMA interleave ratio and AutoNUMA-style
//! page migration.
//!
//! The paper's interleaved configuration fixes a 50/50 page split; this
//! sweep shows the whole local/remote continuum for STREAM-like
//! streaming, and quantifies how the kernel's page-migration support
//! ("moving pages from distant to closer memory nodes") concentrates a
//! skewed working set locally.

use bench::{banner, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use hostsim::migration::{MigrationDaemon, PagePlacement};
use hostsim::numa::{AllocPolicy, NumaNodeId, NumaTopology};
use simkit::rng::{DetRng, ZipfSampler};
use simkit::sweep::sweep;
use thymesisflow_core::config::SystemConfig;
use workloads::runner::WorkloadRunner;

fn interleave_sweep() {
    println!("streaming bandwidth vs remote page fraction (8 threads):");
    header(&["remote %", "GiB/s"]);
    // Each placement fraction evaluates independently via the sweep
    // harness; results return in grid order for printing.
    let pcts = [0u32, 25, 50, 75, 100];
    let runner = WorkloadRunner::new();
    let gibs = sweep(0xAB3, pcts.to_vec(), |_i, pct, _rng| {
        // Build a model with a custom placement fraction by blending
        // the two pure configurations' latencies.
        let params = runner.params();
        let f = pct as f64 / 100.0;
        let local = runner.model(SystemConfig::Local);
        let remote = runner.model(SystemConfig::SingleDisaggregated);
        // Little's-law blend with the remote-half channel cap.
        let lat = (1.0 - f) * local.avg_load_latency_ns() + f * remote.avg_load_latency_ns();
        let raw = 8.0 * params.stream_mlp * 128.0 / (lat * 1e-9);
        let capped = if f > 0.0 {
            raw.min(params.channel_payload_rate().bytes_per_sec() / f)
        } else {
            raw.min(params.local_bw_gib * (1u64 << 30) as f64)
        };
        capped / (1u64 << 30) as f64
    });
    for (pct, gib) in pcts.iter().zip(&gibs) {
        row(&format!("{pct}%"), &[f64::from(*pct), *gib]);
    }
}

fn migration_experiment() {
    println!("\nAutoNUMA migration of a zipf working set (10k pages, 20% local room):");
    header(&["scan", "pages local", "remote access %"]);
    let mut numa = NumaTopology::new();
    numa.add_node(NumaNodeId(0), vec![0], 2_000).unwrap();
    numa.add_cpuless_node(NumaNodeId(255), 20_000, 80).unwrap();
    numa.allocate(&AllocPolicy::Bind(NumaNodeId(255)), NumaNodeId(0), 10_000)
        .unwrap();
    let mut placement = PagePlacement::new();
    for p in 0..10_000 {
        placement.place(p, NumaNodeId(255));
    }
    let mut daemon = MigrationDaemon::new(NumaNodeId(0), 4);
    let zipf = ZipfSampler::new(10_000, 1.0);
    let mut rng = DetRng::split_stream(0xAB3, 100);
    for scan in 0..6 {
        let mut remote_accesses = 0u64;
        let total = 40_000u64;
        for _ in 0..total {
            let page = zipf.sample(&mut rng);
            daemon.record_access(page);
            if placement.node_of(page) == Some(NumaNodeId(255)) {
                remote_accesses += 1;
            }
        }
        row(
            &scan.to_string(),
            &[
                scan as f64,
                placement.pages_on(NumaNodeId(0)) as f64,
                remote_accesses as f64 / total as f64 * 100.0,
            ],
        );
        daemon.scan(&mut numa, &mut placement);
    }
    println!("\nshape: hot pages migrate until the local node fills; the remote\naccess fraction collapses even though 80% of pages stay remote.");
    assert!(placement.pages_on(NumaNodeId(0)) > 1_500);
}

fn reproduce() {
    banner("Ablation — interleave ratio & AutoNUMA page migration");
    interleave_sweep();
    migration_experiment();
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("ablation/migration_scan_10k", |b| {
        b.iter(|| {
            let mut numa = NumaTopology::new();
            numa.add_node(NumaNodeId(0), vec![0], 5_000).unwrap();
            numa.add_cpuless_node(NumaNodeId(255), 20_000, 80).unwrap();
            numa.allocate(&AllocPolicy::Bind(NumaNodeId(255)), NumaNodeId(0), 10_000)
                .unwrap();
            let mut placement = PagePlacement::new();
            for p in 0..10_000u64 {
                placement.place(p, NumaNodeId(255));
            }
            let mut daemon = MigrationDaemon::new(NumaNodeId(0), 1);
            for p in 0..10_000u64 {
                daemon.record_access(p);
            }
            std::hint::black_box(daemon.scan(&mut numa, &mut placement))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
