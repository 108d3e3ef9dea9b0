//! Heap cost of booting a rack.
//!
//! A counting global allocator wraps the system allocator, so this
//! binary holds a single test and no other test's allocations share the
//! counters. The rack is `rack_churn`'s: 16 AC922 nodes (512 GiB of DRAM
//! each, 2,048 sparse sections per host) cabled as a 4×4 torus. Two
//! budgets hold for `RackBuilder::build`:
//!
//! - at most 2,000 allocations, reallocations included;
//! - at most 768 KiB left live once the rack is built.
//!
//! A registry that keeps one map entry per sparse section and probes and
//! onlines a host's DRAM one section at a time exceeds both; booting
//! each socket's DRAM as one run into the two-level section array stays
//! within them.
//!
//! Run it with `cargo test -p bench --test rack_build_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use thymesisflow_core::rack::{NodeConfig, RackBuilder};

/// Counts every allocation and reallocation and the bytes currently
/// live, then defers to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomic updates with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
const SIDE: usize = 4;
const ALLOCATION_BUDGET: u64 = 2_000;
const LIVE_BUDGET: u64 = 768 * KIB;

fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

#[test]
fn booting_a_sixteen_node_torus_rack_stays_within_budget() {
    let mut b = RackBuilder::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            b = b.node(NodeConfig::ac922(&node(r, c)));
        }
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            b = b
                .cable(&node(r, c), &node(r, (c + 1) % SIDE))
                .cable(&node(r, c), &node((r + 1) % SIDE, c));
        }
    }

    let live_before = LIVE.load(Ordering::Relaxed);
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    let rack = b.build().expect("the torus rack builds");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);

    for r in 0..SIDE {
        for c in 0..SIDE {
            let host = rack.host(&node(r, c)).expect("every node booted");
            assert_eq!(host.local_bytes(), 512 << 30);
        }
    }
    println!(
        "RackBuilder::build: {allocations} allocations, {:.1} KiB live",
        live as f64 / KIB as f64
    );
    assert!(
        allocations <= ALLOCATION_BUDGET,
        "RackBuilder::build made {allocations} allocations, budget {ALLOCATION_BUDGET}"
    );
    assert!(
        live <= LIVE_BUDGET,
        "the built rack holds {:.1} KiB, budget {} KiB",
        live as f64 / KIB as f64,
        LIVE_BUDGET / KIB
    );
}
