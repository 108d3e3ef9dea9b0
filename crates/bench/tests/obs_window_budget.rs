//! Heap bytes of one telemetry window: a fabric's build, one snapshot
//! folded into a `Recorder`, and one window kept in its ring.
//!
//! A byte-counting global allocator wraps the system allocator, so this
//! binary holds a single test and no other test's allocations share the
//! counters. The fabric is a bonded two-channel point-to-point link with
//! the metrics registry on and span tracing off. Each window runs a
//! 16 × 8 closed loop for 4 µs of simulated time and drains, then takes
//! a telemetry snapshot and records it. After 8 warm-up windows, 128
//! windows go into a 64-window ring. Three budgets hold:
//!
//! - the fabric holds at most 256 KiB once built;
//! - a snapshot plus `Recorder::record` allocates at most 16 KiB;
//! - the ring retains at most 2.25 KiB per window.
//!
//! The flat store measures about 8.1 KiB and 1.1 KiB: a snapshot copies
//! three value columns under a shared schema, and a window keeps a
//! counter-delta column, a gauge column and the bucket span of each
//! timer that recorded in it. Snapshots and windows that clone every
//! path into a `BTreeMap` of metrics, with dense timer deltas, measure
//! about 51 KiB and 13 KiB; dense 2,048-bucket histograms (16 KiB per
//! timer, copied into every snapshot and kept twice per window) exceed
//! all three budgets.
//!
//! Run it with `cargo test -p bench --test obs_window_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simkit::obs::Recorder;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{Fabric, FabricBuilder, PathId, StreamLoad};
use thymesisflow_core::params::DatapathParams;

/// Counts the bytes of every allocation (cumulative) and the bytes
/// currently live, then defers to `System`.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomic updates with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KIB: u64 = 1 << 10;
const WINDOW: SimTime = SimTime::from_us(4);
const WARM_UP_WINDOWS: usize = 8;
const MEASURED_WINDOWS: u64 = 128;
const RING: usize = 64;
const BUILD_BUDGET: u64 = 256 * KIB;
const RECORD_BUDGET: u64 = 16 * KIB;
const RETAINED_BUDGET: u64 = 9 * KIB / 4;

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// One window of traffic: a 16 × 8 closed loop for [`WINDOW`], drained.
fn run_window(fabric: &mut Fabric, path: PathId) {
    let load = StreamLoad {
        path,
        threads: 16,
        window: 8,
    };
    fabric
        .run_closed_loop(&[load], WINDOW)
        .expect("healthy path streams");
    fabric.drain().expect("lossless fabric drains");
}

#[test]
fn telemetry_window_stays_within_byte_budgets() {
    let before_build = live();
    let (mut fabric, path) =
        FabricBuilder::point_to_point(DatapathParams::prototype(), 2, 256 << 20)
            .expect("reference topology assembles");
    let built = live().saturating_sub(before_build);
    fabric.set_telemetry(true);
    fabric.set_tracing(false);

    for _ in 0..WARM_UP_WINDOWS {
        run_window(&mut fabric, path);
        drop(fabric.telemetry_snapshot());
    }

    let before_ring = live();
    let mut recorder = Recorder::new(WINDOW, RING);
    let mut record_bytes = 0;
    for _ in 0..MEASURED_WINDOWS {
        run_window(&mut fabric, path);
        let start = allocated();
        recorder.record(fabric.telemetry_snapshot());
        record_bytes += allocated() - start;
    }
    let retained = live().saturating_sub(before_ring);
    assert_eq!(recorder.accepted(), MEASURED_WINDOWS);
    assert_eq!(recorder.windows().count(), RING);

    let per_record = record_bytes / MEASURED_WINDOWS;
    let per_window = retained / RING as u64;
    println!(
        "built {:.1} KiB, snapshot + record {per_record} B/window, retained {per_window} B/window",
        built as f64 / KIB as f64,
    );
    assert!(
        built <= BUILD_BUDGET,
        "fabric holds {} KiB after the build, budget {} KiB",
        built / KIB,
        BUILD_BUDGET / KIB
    );
    assert!(
        per_record <= RECORD_BUDGET,
        "snapshot + record allocates {per_record} B per window, budget {RECORD_BUDGET} B"
    );
    assert!(
        per_window <= RETAINED_BUDGET,
        "the ring retains {per_window} B per window, budget {RETAINED_BUDGET} B"
    );
}
