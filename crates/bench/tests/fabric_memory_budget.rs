//! Heap bytes a rack borrower's fabric holds once its traffic drains.
//!
//! A byte-counting global allocator wraps the system allocator, so this
//! binary holds a single test and no other test's allocations share the
//! counters. The fabric is shaped like one `Rack` borrower on
//! `rack_churn`'s rack: the rack's 1 TiB device window
//! ([`WindowSpec::rack_default`]) on a 4×4 torus, with one lease whose
//! path forwards through an interior host. It runs a few closed-loop
//! windows of 8 threads × 32 loads, each drained, and then must hold at
//! most [`HELD_BUDGET`] live bytes, build included.
//!
//! Engine state sized to capacity exceeds the budget: a calendar with
//! one key buffer per bucket, each keeping its high-water capacity, a
//! section table with one entry per 256 MiB of window, and LLC buffers
//! reserved at their full credit and replay depth on every link.
//! Calendar nodes on a shared slab, section roots allocated where a
//! lease maps and LLC buffers grown on demand stay well within it.
//!
//! Run it with `cargo test -p bench --test fabric_memory_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use routing::plan::FlowPlan;
use routing::topology::Torus2D;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{FabricBuilder, PathSpec, StreamLoad, WindowSpec};
use thymesisflow_core::params::DatapathParams;

/// Tracks the bytes currently live, then defers to `System`.
struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic update with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
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
const WINDOWS: usize = 4;
const WINDOW: SimTime = SimTime::from_us(20);
const HELD_BUDGET: u64 = 128 * KIB;

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

fn kib(bytes: u64) -> f64 {
    bytes as f64 / KIB as f64
}

#[test]
fn a_drained_rack_borrower_fabric_stays_within_its_byte_budget() {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let plan = FlowPlan::donor(0);
    let spec =
        PathSpec::new(plan.network, plan.pasid, plan.donor_ea, 8 << 30).labelled(&plan.label);

    let before = live();
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0))
            .window(WindowSpec::rack_default())
            .path_to(torus.host_at(1, 2), spec)
            .build()
            .expect("torus fabric assembles");
    let built = live().saturating_sub(before);
    let path = paths[0];
    assert_eq!(
        fabric.topology_route(path).expect("path is routed").hops(),
        3,
        "the lease forwards through interior hosts"
    );

    let load = StreamLoad {
        path,
        threads: 8,
        window: 32,
    };
    for _ in 0..WINDOWS {
        fabric
            .run_closed_loop(&[load], WINDOW)
            .expect("healthy path streams");
        fabric.drain().expect("lossless fabric drains");
    }
    assert_eq!(fabric.next_event_time(), None, "the fabric drained");
    let retired = fabric.completions(path).expect("live path").count();
    assert!(retired > 1_000 * WINDOWS as u64, "{retired} loads retired");
    let held = live().saturating_sub(before);

    println!(
        "built {:.1} KiB, held {:.1} KiB after {WINDOWS} drained windows ({retired} loads)",
        kib(built),
        kib(held)
    );
    assert!(
        held <= HELD_BUDGET,
        "the drained fabric holds {:.1} KiB, budget {} KiB",
        kib(held),
        HELD_BUDGET / KIB
    );
}
