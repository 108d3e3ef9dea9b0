//! Heap bytes a rack borrower's fabric keeps across lease churn.
//!
//! A byte-counting global allocator wraps the system allocator, so this
//! binary holds a single test and no other test's allocations share the
//! counters. The fabric is shaped like one `Rack` borrower on
//! `rack_churn`'s rack: the rack's 1 TiB device window
//! ([`WindowSpec::rack_default`]) on a 4×4 torus, telemetry on and span
//! tracing off. Each of [`CYCLES`] cycles attaches one lease whose path
//! forwards through interior hosts, streams a 4 µs closed loop, drains,
//! takes a telemetry snapshot and detaches the lease. Two checks hold:
//!
//! - the live bytes after the last cycle are within [`GROWTH_BUDGET`] of
//!   those after the first, so a detached lease leaves nothing behind;
//! - the last snapshot names only the metrics of the live lease's links
//!   and path, and all of them.
//!
//! A fabric that keeps a full link slot for every link ever attached,
//! and registers 16 link metrics and a path timer per lease that no
//! detach removes, grows about 5 KiB per cycle and lists every detached
//! lease's metrics in each snapshot.
//!
//! Run it with `cargo test -p bench --test fabric_churn_budget`.

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
const CYCLES: usize = 64;
const WINDOW: SimTime = SimTime::from_us(4);
const GROWTH_BUDGET: u64 = 16 * KIB;

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

fn kib(bytes: u64) -> f64 {
    bytes as f64 / KIB as f64
}

#[test]
fn lease_churn_leaves_nothing_behind() {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let plan = FlowPlan::donor(0);
    let spec =
        PathSpec::new(plan.network, plan.pasid, plan.donor_ea, 8 << 30).labelled(&plan.label);
    let (mut fabric, _) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0))
            .window(WindowSpec::rack_default())
            .build()
            .expect("torus fabric assembles");
    fabric.set_telemetry(true);
    fabric.set_tracing(false);

    let mut after_first = 0;
    let mut snap = None;
    let mut live_links = Vec::new();
    let mut live_path = String::new();
    for cycle in 1..=CYCLES {
        let path = fabric
            .attach_routed(&spec, torus.host_at(1, 2))
            .expect("the lease attaches");
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
        fabric
            .run_closed_loop(&[load], WINDOW)
            .expect("healthy path streams");
        fabric.drain().expect("lossless fabric drains");
        assert!(fabric.completions(path).expect("live path").count() > 0);

        live_links = fabric
            .path_link_stats(path)
            .expect("live path")
            .iter()
            .map(|s| format!("fabric.link{}.", s.link))
            .collect();
        live_path = format!("fabric.path{}.rtt_ns", path.0);
        // The previous cycle's snapshot goes before this one is taken,
        // so at most one is live at a time.
        drop(snap.take());
        snap = Some(fabric.telemetry_snapshot());
        fabric
            .detach_path(path)
            .expect("the drained lease detaches");
        if cycle == 1 {
            after_first = live();
        }
    }
    let grown = live().saturating_sub(after_first);
    let snap = snap.expect("every cycle takes a snapshot");

    let views: Vec<&str> = snap
        .paths()
        .filter(|p| p.starts_with("fabric.link") || p.starts_with("fabric.path"))
        .collect();
    println!(
        "grew {:.1} KiB over {} cycles after the first; the last snapshot lists {} metrics, {} of them link and path views",
        kib(grown),
        CYCLES - 1,
        snap.len(),
        views.len()
    );
    for view in &views {
        assert!(
            *view == live_path || live_links.iter().any(|l| view.starts_with(l.as_str())),
            "the last snapshot lists {view}, a metric of a detached link or path"
        );
    }
    // All of the live lease's: its path timer and 16 metrics per link.
    assert!(snap.timer(&live_path).is_some_and(|h| h.count() > 0));
    assert_eq!(views.len(), 1 + 16 * live_links.len(), "{views:?}");
    assert!(
        grown <= GROWTH_BUDGET,
        "the fabric grew {:.1} KiB over {} churn cycles, budget {} KiB",
        kib(grown),
        CYCLES - 1,
        GROWTH_BUDGET / KIB
    );
}
