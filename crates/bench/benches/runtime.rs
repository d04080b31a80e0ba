//! Runtime engine throughput: executed message-passing programs across thread
//! counts and graph families, versus the metered (leader-local) baselines.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mfd_bench::{f3, Table};
use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{run_bfs_csr, run_voronoi_ldd_csr, ColeVishkinProgram};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, CsrGraph, Graph};
use mfd_runtime::{ShardedConfig, ShardedExecutor};

fn bench_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("tri-grid-120x120", generators::triangulated_grid(120, 120)),
        ("wheel-12000", generators::wheel(12_000)),
        ("hypercube-13", generators::hypercube(13)),
    ]
}

/// Thread counts to sweep: 1, 2, 4 and the machine's parallelism, capped at
/// the available cores (oversubscribing a round-synchronous sweep only
/// measures spawn overhead, not the engine).
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts: Vec<usize> = [1, 2, 4, max].into_iter().filter(|&t| t <= max).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// One full workload: BFS flood + Cole–Vishkin on the BFS forest + Voronoi
/// assignment from 16 deterministic centers.
fn run_workload(g: &CsrGraph, cv: &ColeVishkinProgram, centers: &[usize], exec: &ShardedExecutor) {
    run_bfs_csr(g, 0, exec).unwrap();
    exec.run(g, cv).unwrap();
    run_voronoi_ldd_csr(g, centers, exec).unwrap();
}

fn print_speedup_table() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(
        format!(
            "runtime — executed CONGEST programs: wall-clock by worker threads \
             (speedup vs 1 thread; {cores} core(s) available)"
        ),
        &[
            "graph",
            "n",
            "m",
            "threads",
            "time (ms)",
            "speedup",
            "rounds",
            "messages",
        ],
    );
    for (name, g) in bench_families() {
        let mut meter = RoundMeter::new();
        let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
        let centers: Vec<usize> = (0..16).map(|i| (i * g.n()) / 16).collect();
        let csr = CsrGraph::from_graph(&g);
        let mut base_ms = None;
        for threads in thread_counts() {
            let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(threads, threads));
            // Warm up once, then take the best of three runs.
            run_workload(&csr, &cv, &centers, &exec);
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                run_workload(&csr, &cv, &centers, &exec);
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let base = *base_ms.get_or_insert(best);
            let (_, bfs_meter) = run_bfs_csr(&csr, 0, &exec).unwrap();
            table.row(vec![
                name.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                threads.to_string(),
                f3(best),
                format!("{:.2}x", base / best),
                bfs_meter.rounds().to_string(),
                bfs_meter.messages().to_string(),
            ]);
        }
    }
    table.print();
}

fn bench_runtime(c: &mut Criterion) {
    print_speedup_table();
    let g = generators::triangulated_grid(120, 120);
    let mut meter = RoundMeter::new();
    let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
    let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
    let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
    let centers: Vec<usize> = (0..16).map(|i| (i * g.n()) / 16).collect();
    let csr = CsrGraph::from_graph(&g);

    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);
    for threads in thread_counts() {
        let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(threads, threads));
        group.bench_function(format!("cole_vishkin_trigrid120_t{threads}"), |b| {
            b.iter(|| exec.run(&csr, &cv).unwrap())
        });
        group.bench_function(format!("bfs_trigrid120_t{threads}"), |b| {
            b.iter(|| run_bfs_csr(&csr, 0, &exec).unwrap())
        });
        group.bench_function(format!("voronoi16_trigrid120_t{threads}"), |b| {
            b.iter(|| run_voronoi_ldd_csr(&csr, &centers, &exec).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
