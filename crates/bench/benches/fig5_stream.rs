//! Fig. 5 — STREAM sustained memory bandwidth.
//!
//! Reproduces the clustered-bar figure: copy/scale/add/triad × {4, 8,
//! 16} threads × {bonding-disaggregated, single-disaggregated,
//! interleaved}, against the 12.5 GB/s "ThymesisFlow theoretical
//! maximum" line.

use bench::{banner, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::sweep::sweep;
use thymesisflow_core::config::SystemConfig;
use workloads::runner::WorkloadRunner;
use workloads::stream::{Kernel, StreamBench};

const MASTER_SEED: u64 = 0xF15;
const THREAD_AXIS: [u32; 3] = [4, 8, 16];
const CONFIG_AXIS: [SystemConfig; 3] = [
    SystemConfig::BondingDisaggregated,
    SystemConfig::SingleDisaggregated,
    SystemConfig::Interleaved,
];

fn reproduce() {
    banner("Fig. 5 — STREAM benchmark performance comparison (GiB/s)");
    let runner = WorkloadRunner::new();
    println!(
        "theoretical maximum (100 Gbit/s channel): {:.2} GiB/s",
        runner.params().channel_nominal_gib()
    );
    // The figure grid is threads × config; every point is an independent
    // model evaluation, so fan it across workers with the sweep harness.
    let mut grid = Vec::new();
    for threads in THREAD_AXIS {
        for config in CONFIG_AXIS {
            grid.push((threads, config));
        }
    }
    let results = sweep(MASTER_SEED, grid, |_i, (threads, config), _rng| {
        StreamBench::paper(threads).run(&runner.model(config))
    });
    for (t_idx, threads) in THREAD_AXIS.iter().enumerate() {
        println!("\n-- {threads} threads --");
        header(&["kernel", "bonding", "single", "interleaved"]);
        for kernel in Kernel::ALL {
            let v = |c_idx: usize| {
                results[t_idx * CONFIG_AXIS.len() + c_idx]
                    .iter()
                    .find(|r| r.kernel == kernel)
                    .expect("kernel present")
                    .gib_per_sec
            };
            row(kernel.label(), &[v(0), v(1), v(2)]);
        }
    }
    println!(
        "\npaper shape: single ≈10→12.5 GiB/s peaking at 8 threads; bonding ≈ +30%;\n\
         interleaved outperforms all (synergy of local and disaggregated memory)."
    );
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    let runner = WorkloadRunner::new();
    let model = runner.model(SystemConfig::SingleDisaggregated);
    c.bench_function("fig5/stream_model_eval", |b| {
        b.iter(|| {
            StreamBench::paper(std::hint::black_box(8))
                .run(std::hint::black_box(&model))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
