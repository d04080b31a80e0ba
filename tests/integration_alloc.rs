//! Allocation regression guards for the sharded engine's message path and
//! for the CSR build.
//!
//! Mailboxes are one flat arena per shard and every pass writes its results
//! into the shards, so the heap allocations of a run are a per-shard constant
//! plus the doublings of a handful of pooled buffers (logarithmic in the
//! traffic) — none per round, none per vertex. A counting
//! `#[global_allocator]` pins that: Voronoi-LDD on a mesh four times the size
//! and twice the rounds may allocate only what the extra doublings explain.
//! (With a `Vec` per vertex mailbox the count was ≥ n.)
//!
//! The same allocator tracks live heap bytes and their high-water mark, which
//! pins two peaks. The build's transient memory: `Graph::from_edges` may hold
//! at most one compact edge list beside the graph it returns. And a run's: a
//! message in flight is one envelope, held once in its route bucket and once
//! in its mailbox arena, so a BFS run peaks at its states (twice, while
//! `finish` concatenates them) plus a few envelopes per message of its
//! busiest round, at 64 shards (delivery by scatter) and at one (in place).
//!
//! Every counter is per thread, and each test measures only what its own
//! thread allocates between two reads, so the tests share a process without
//! seeing one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfd_core::programs::{BfsProgram, BfsState, VoronoiLddProgram};
use mfd_graph::{gen, Graph};
use mfd_runtime::{Envelope, ShardedConfig, ShardedExecutor};

thread_local! {
    /// Allocations (fresh and regrown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread allocated minus those it freed (negative when
    /// it frees what another thread allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since `peak_above` last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Moves `LIVE` by `grow` bytes, counting `transient` more toward the peak:
/// a `realloc` may hold the old block beside the new one while it copies.
fn track(grow: isize, transient: isize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + grow);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live + transient)));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counters are const-initialised
// thread-local `Cell`s without a destructor, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        track(layout.size() as isize, 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        let old = layout.size() as isize;
        track(new_size as isize - old, old);
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

/// Runs `f` and returns what it returned with this thread's live-heap peak
/// while it ran, in bytes above what was live when it started.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

/// Asserts that `build` peaks at most 2.5 times the bytes of the graph it
/// returns. An m × 8-byte edge list (up to twice that while it doubles)
/// beside the graph fits; 2m arcs of 16 bytes each do not.
fn assert_build_peak(name: &str, build: impl FnOnce() -> Graph) {
    let (g, peak) = peak_above(build);
    // What the graph itself holds: `offsets` (n + 1) and `targets` (2m).
    let own = std::mem::size_of::<usize>() * (g.n() + 1 + 2 * g.m());
    assert!(
        2 * peak <= 5 * own,
        "{name}: the build peaked at {peak} bytes, {:.2}x the graph's {own}",
        peak as f64 / own as f64
    );
}

#[test]
fn a_build_peaks_below_two_and_a_half_times_its_graph() {
    assert_build_peak("gen::mesh(300, 300)", || gen::mesh(300, 300));
    assert_build_peak("gen::power_law(1 << 14, 1 << 16, 2.5, 0x9A)", || {
        gen::power_law(1 << 14, 1 << 16, 2.5, 0x9A)
    });
}

/// Asserts that one BFS run from vertex 0 on `g` at `shards` shards (one
/// thread) peaks at most at its states twice plus 3.5 envelopes per message
/// of its busiest round: one in a route bucket, one in a mailbox arena, and
/// the slack of their doublings. A side array per message (a destination
/// index beside each bucketed envelope, a position beside each arena slot)
/// or states copied while the pools are still held do not fit.
fn assert_run_peak(g: &Graph, shards: usize) {
    let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, 1));
    let (run, peak) = peak_above(|| exec.run(g, &BfsProgram { root: 0 }).expect("bfs runs"));
    let states = 2 * g.n() * std::mem::size_of::<BfsState>();
    let envelopes = run.arena.route_slots_hwm * std::mem::size_of::<Envelope<u64>>();
    assert!(
        2 * peak <= 2 * states + 7 * envelopes,
        "{shards} shards: the run peaked at {peak} bytes, its states twice plus {:.2}x the \
         {envelopes} bytes of its busiest round's envelopes",
        (peak as f64 - states as f64) / envelopes as f64
    );
}

#[test]
fn a_run_peaks_at_its_states_and_two_envelopes_per_message() {
    let g = gen::power_law(1 << 14, 1 << 16, 2.5, 0x9A);
    assert_run_peak(&g, 64);
    assert_run_peak(&g, 1);
}
