//! Heap-allocation budget of one simulator run.
//!
//! A counting global allocator tallies the fresh heap allocations made by the
//! calling thread (the counter is thread-local, so tests running in parallel
//! cannot pollute each other's figures) across one `ClusterDriver::run` of
//! the benchmark's two cluster configurations. The per-task dependence
//! tables, the routing scan and the Nexus# task-graph tables allocate nothing
//! per task, so a whole run stays below one allocation per task. Growing an
//! existing block (`realloc`) is not counted: recycled lists still grow to
//! their peak length during a run.

use nexus_cluster::{
    ClusterConfig, ClusterDriver, FeedbackKind, LinkConfig, PolicyKind, StealKind, Topology,
};
use nexus_core::NexusSharp;
use nexus_trace::generators::distributed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` keeps the allocator usable while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// `const`-initialised thread-local without a destructor, so it never
// allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations per task of one run of `cfg` on the
/// 8-node sparselu trace with `remote` halo coupling.
fn per_task(cfg: &ClusterConfig, remote: f64) -> f64 {
    let trace = distributed::sparselu(8, remote, 1, 0.02);
    let tasks = trace.task_count();
    let driver = ClusterDriver::new(cfg, |_| NexusSharp::paper(6));
    let before = allocations();
    let out = driver.run(&trace);
    let made = allocations() - before;
    assert_eq!(out.tasks, tasks as u64, "every task executed");
    made as f64 / tasks as f64
}

#[test]
fn local_domains_run_under_one_allocation_per_task() {
    let cfg = ClusterConfig::new(8, 8)
        .with_link(LinkConfig::rdma().with_topology(Topology::FullMesh))
        .with_placement(PolicyKind::XorHash)
        .with_stealing(StealKind::Disabled)
        .with_feedback(FeedbackKind::Off);
    let n = per_task(&cfg, 0.0);
    assert!(n < 1.0, "{n:.2} allocations per task");
}

#[test]
fn halo_rack_run_stays_under_one_allocation_per_task() {
    let cfg = ClusterConfig::new(8, 8)
        .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical)
        .with_feedback(FeedbackKind::Full);
    let n = per_task(&cfg, 0.5);
    assert!(n < 1.0, "{n:.2} allocations per task");
}
