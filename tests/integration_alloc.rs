//! Allocation regression guard for the sharded engine's message path.
//!
//! Mailboxes are one flat arena per shard and every pass writes its results
//! into the shards, so the heap allocations of a run are a per-shard constant
//! plus the doublings of a handful of pooled buffers (logarithmic in the
//! traffic) — none per round, none per vertex. A counting
//! `#[global_allocator]` pins that: Voronoi-LDD on a mesh four times the size
//! and twice the rounds may allocate only what the extra doublings explain.
//! (With a `Vec` per vertex mailbox the count was ≥ n.)
//!
//! This file holds a single test: the counter is per thread, but one test
//! per process keeps the numbers free of harness noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfd_core::programs::VoronoiLddProgram;
use mfd_graph::gen;
use mfd_runtime::{ShardedConfig, ShardedExecutor};

thread_local! {
    /// Allocations (fresh and regrown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SHARDS: u64 = 64;

/// Allocations and rounds of one `ShardedExecutor::run` of Voronoi-LDD on the
/// `side × side` mesh (64 shards, one thread: every pass runs inline on this
/// thread, so the thread-local count sees all of it).
fn ldd_allocations(side: usize) -> (u64, u64) {
    let g = gen::mesh(side, side);
    let centers: Vec<usize> = (0..16).map(|i| i * g.n() / 16).collect();
    let program = VoronoiLddProgram::new(g.n(), &centers);
    let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(SHARDS as usize, 1));
    let before = ALLOCATIONS.with(Cell::get);
    let run = exec.run(&g, &program).expect("ldd is model-compliant");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(run.messages > g.n() as u64, "every vertex is mailed");
    (allocations, run.rounds)
}

#[test]
fn a_run_allocates_per_shard_and_per_round_never_per_vertex() {
    let (small, small_rounds) = ldd_allocations(64); // n = 4 096
    let (large, large_rounds) = ldd_allocations(128); // 4n = 16 384

    // What may grow with the graph: per shard, two more doublings of each
    // pooled message buffer — a dozen — when the traffic quadruples. Twice the
    // rounds cost nothing.
    assert!(large_rounds >= 2 * small_rounds);
    let doublings = SHARDS * 12 * 2;
    assert!(
        large <= small + doublings,
        "4x the vertices: {small} -> {large} allocations ({small_rounds} -> {large_rounds} rounds)"
    );
    // In absolute terms, far below one allocation per mailed vertex (every
    // vertex is mailed; a `Vec` per mailbox made it at least n).
    assert!(
        small < 4096 && large < 4096,
        "{small} allocations on 4 096 vertices, {large} on 16 384"
    );
}
