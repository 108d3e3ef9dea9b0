//! Fig. 6 — VoltDB profiling: package IPC and utilized CPU cores across
//! YCSB workloads A–F and partition counts {4, 16, 32, 64}, local vs
//! single-disaggregated.

use bench::{banner, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::sweep::sweep;
use thymesisflow_core::config::SystemConfig;
use workloads::runner::WorkloadRunner;
use workloads::voltdb::VoltDb;
use workloads::ycsb::YcsbWorkload;

const PART_AXIS: [u32; 4] = [4, 16, 32, 64];

fn reproduce() {
    banner("Fig. 6 — VoltDB IPC / utilized cores (local vs single-disaggregated)");
    // config × workload × partitions: every point profiles its own
    // VoltDB instance, fanned by the sweep harness, printed grid-order.
    let mut grid = Vec::new();
    for config in [SystemConfig::Local, SystemConfig::SingleDisaggregated] {
        for w in YcsbWorkload::ALL {
            for parts in PART_AXIS {
                grid.push((config, w, parts));
            }
        }
    }
    let runner = WorkloadRunner::new();
    let results = sweep(0xF16, grid.clone(), |_i, (config, w, parts), _rng| {
        VoltDb::new(runner.model(config), parts).profile(w)
    });
    let mut points = grid.iter().zip(&results);
    for config in [SystemConfig::Local, SystemConfig::SingleDisaggregated] {
        println!("\n-- {config} --");
        header(&["workload", "parts", "pkg IPC", "UCC", "stall %"]);
        for _ in YcsbWorkload::ALL {
            for _ in PART_AXIS {
                let ((_, w, parts), p) = points.next().expect("grid covered");
                row(
                    &format!("{}@{parts}", w.label()),
                    &[
                        f64::from(*parts),
                        p.package_ipc,
                        p.ucc,
                        p.backend_stall_fraction * 100.0,
                    ],
                );
            }
        }
    }
    println!(
        "\npaper: disaggregation raises back-end stalls 55.5% -> 80.9%, lowers\n\
         thread IPC, and raises UCC (threads yield less while stalled);\n\
         biggest IPC gain comes from 4 -> 16 partitions."
    );
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    let runner = WorkloadRunner::new();
    c.bench_function("fig6/profile_eval", |b| {
        let db = VoltDb::new(runner.model(SystemConfig::SingleDisaggregated), 32);
        b.iter(|| std::hint::black_box(db.profile(YcsbWorkload::A)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
