//! Microbenchmarks of the datapath components (throughput tracking for
//! the building blocks every figure depends on).

use bench::{banner, header, row_str};
use criterion::{criterion_group, criterion_main, Criterion};
use llc::frame::{assemble, crc32, FrameId};
use opencapi::m1::DeviceAddress;
use rmmu::flow::NetworkId;
use rmmu::section::{SectionEntry, SectionTable};
use simkit::rng::{DetRng, ZipfSampler};
use simkit::sweep::sweep;

/// One sweep point per component kernel: each computes a deterministic
/// checksum on its own RNG stream, pinning component behaviour across
/// refactors while exercising the parallel sweep harness.
fn reproduce() {
    banner("micro components — kernel checksums (one sweep point each)");
    let kernels = ["rmmu_translate", "frame_assemble", "crc32", "zipf_sample"];
    let sums = sweep(0x111C, kernels.to_vec(), |_i, kernel, mut rng| match kernel {
        "rmmu_translate" => {
            let mut table = SectionTable::new(28, 64);
            for i in 0..64 {
                table
                    .program(
                        i,
                        SectionEntry::new(0x7000_0000_0000 + i * (256 << 20), NetworkId(1)),
                    )
                    .expect("section programs");
            }
            (0..10_000u64)
                .filter(|_| {
                    let addr = rng.range(0, 64 * (256 << 20));
                    table.translate(DeviceAddress::new(addr)).is_ok()
                })
                .count() as u64
        }
        "frame_assemble" => {
            let msgs: Vec<(u32, usize)> =
                (0..64).map(|i| (i, 1 + (i as usize % 5))).collect();
            assemble(msgs, 8, FrameId(0)).0.len() as u64
        }
        "crc32" => {
            let data: Vec<u8> = (0..256).map(|_| (rng.range(0, 256)) as u8).collect();
            u64::from(crc32(&data))
        }
        "zipf_sample" => {
            let zipf = ZipfSampler::new(50_000, 1.0);
            (0..10_000).map(|_| zipf.sample(&mut rng)).sum()
        }
        other => unreachable!("unknown kernel {other}"),
    });
    header(&["kernel", "checksum"]);
    for (kernel, sum) in kernels.iter().zip(&sums) {
        row_str(kernel, &[format!("{sum:#x}")]);
    }
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("micro/rmmu_translate", |b| {
        let mut table = SectionTable::new(28, 64);
        for i in 0..64 {
            table
                .program(i, SectionEntry::new(0x7000_0000_0000 + i * (256 << 20), NetworkId(1)))
                .unwrap();
        }
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 128) % (64 * (256 << 20));
            std::hint::black_box(table.translate(DeviceAddress::new(addr)).unwrap())
        })
    });

    c.bench_function("micro/llc_frame_assemble_64", |b| {
        b.iter(|| {
            let msgs: Vec<(u32, usize)> = (0..64).map(|i| (i, 1 + (i as usize % 5))).collect();
            std::hint::black_box(assemble(msgs, 8, FrameId(0)))
        })
    });

    c.bench_function("micro/crc32_256B", |b| {
        let data = [0xA5u8; 256];
        b.iter(|| std::hint::black_box(crc32(&data)))
    });

    c.bench_function("micro/zipf_sample", |b| {
        let zipf = ZipfSampler::new(50_000_000, 1.0);
        let mut rng = DetRng::new(1);
        b.iter(|| std::hint::black_box(zipf.sample(&mut rng)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
