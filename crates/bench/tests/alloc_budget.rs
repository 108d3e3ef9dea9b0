//! Heap allocations per retired load on the fabric's fast path.
//!
//! A counting global allocator wraps the system allocator. This binary
//! holds a single test, so no other test's allocations share the
//! counter. The workload is a bonded two-channel point-to-point closed
//! loop (16 threads × 32 loads in flight) driven through
//! `Fabric::issue_read` and `Fabric::step`: after a warm-up that lets
//! every queue and buffer reach its working size, the steady state may
//! allocate at most two blocks per retired load, reallocations
//! included. What is left is one shared payload per LLC data frame and
//! the completion vector `step` returns.
//!
//! Run it with `cargo test -p bench --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use routing::topology::{Line, NodeId};
use thymesisflow_core::fabric::{Fabric, FabricBuilder, PathId, PathSpec, WindowSpec};
use thymesisflow_core::params::DatapathParams;

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic increment with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CHANNELS: usize = 2;
const IN_FLIGHT: usize = 16 * 32;
const BYTES: u64 = 256 << 20;
const WARM_UP_LOADS: u64 = 20_000;
const MEASURED_LOADS: u64 = 50_000;
const BUDGET_PER_LOAD: f64 = 2.0;

/// Steps the closed loop, re-issuing every completion, until `loads`
/// more loads have retired.
fn retire(fabric: &mut Fabric, path: PathId, loads: u64) {
    let mut retired = 0;
    while retired < loads {
        let done = fabric
            .step()
            .expect("lossless fabric steps cleanly")
            .expect("a closed loop never runs dry");
        for c in &done {
            assert_eq!(c.path, path);
            fabric.issue_read(path).expect("healthy path issues");
        }
        retired += done.len() as u64;
    }
}

#[test]
fn bonded_closed_loop_allocates_at_most_two_blocks_per_retired_load() {
    let line = Line::new(2).expect("two-node line");
    let (mut fabric, _) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
            .window(WindowSpec::reference(BYTES))
            .build()
            .expect("line fabric assembles");
    let path = fabric
        .attach_routed(&PathSpec::reference(BYTES, CHANNELS), NodeId(1))
        .expect("bonded path attaches");
    for _ in 0..IN_FLIGHT {
        fabric.issue_read(path).expect("healthy path issues");
    }
    retire(&mut fabric, path, WARM_UP_LOADS);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    retire(&mut fabric, path, MEASURED_LOADS);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let per_load = allocations as f64 / MEASURED_LOADS as f64;
    assert!(
        per_load <= BUDGET_PER_LOAD,
        "{allocations} allocations over {MEASURED_LOADS} retired loads = {per_load:.2} per load, budget {BUDGET_PER_LOAD}"
    );
}
