//! Demo of the `mfd-runtime` execution engine: runs the message-passing ports
//! (BFS flooding, Cole–Vishkin forest colouring, Voronoi LDD assignment) on a
//! triangulated grid and cross-checks them against the centralized
//! implementations and the CONGEST meter, then steps a run round by round,
//! checkpoints it mid-flight and resumes the checkpoint on another layout.
//!
//! Run with: `cargo run --release --example runtime_demo`

use mfd_congest::{primitives, RoundMeter};
use mfd_core::cole_vishkin::{color_rooted_forest_scheduled, cv_schedule_len, is_proper_coloring};
use mfd_core::ldd::voronoi_ldd;
use mfd_core::programs::{run_bfs, run_cole_vishkin, run_voronoi_ldd, BfsProgram};
use mfd_graph::generators;
use mfd_graph::properties::splitmix64;
use mfd_runtime::{run_each, ExecutorConfig, ShardedConfig, ShardedExecutor};
use mfd_trace::NullSink;

fn main() {
    let g = generators::triangulated_grid(24, 24);
    println!(
        "graph: triangulated 24x24 grid, n = {}, m = {}",
        g.n(),
        g.m()
    );
    let executor = ShardedExecutor::new(ShardedConfig::default());

    // 1. BFS-tree construction as a real flood, validated by the meter.
    let (bfs, meter) = run_bfs(&g, 0, &executor).expect("BFS flood is model-compliant");
    let mut central_meter = RoundMeter::new();
    let central = primitives::build_bfs_tree(&g, None, 0, &mut central_meter);
    assert_eq!(bfs.parent, central.parent);
    println!(
        "bfs flood: height {}, executed rounds {} (metered baseline {}), messages {}, \
         max edge load {}/{} words",
        bfs.height,
        meter.rounds(),
        central_meter.rounds(),
        meter.messages(),
        meter.max_words_on_edge(),
        meter.capacity_words(),
    );

    // 2. Cole–Vishkin 3-colouring of the BFS spanning forest.
    let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
    let (coloring, meter) =
        run_cole_vishkin(&g, &central.parent, &id, &executor).expect("CV is model-compliant");
    let reference = color_rooted_forest_scheduled(&central.parent, &id, cv_schedule_len());
    assert_eq!(coloring.color, reference.color);
    assert!(is_proper_coloring(&central.parent, &coloring.color));
    println!(
        "cole-vishkin: {} rounds (schedule {} + 7), {} messages, colours used: {:?}",
        meter.rounds(),
        cv_schedule_len(),
        meter.messages(),
        {
            let mut used: Vec<u8> = coloring.color.clone();
            used.sort_unstable();
            used.dedup();
            used
        }
    );

    // 3. Multi-source Voronoi clustering from 9 spread-out centers.
    let centers: Vec<usize> = (0..9).map(|i| (i * g.n()) / 9).collect();
    let (clustering, meter) =
        run_voronoi_ldd(&g, &centers, &executor).expect("Voronoi flood is model-compliant");
    assert_eq!(clustering, voronoi_ldd(&g, &centers));
    println!(
        "voronoi ldd: {} clusters, {} rounds, {} messages, edge fraction cut {:.3}",
        clustering.num_clusters(),
        meter.rounds(),
        meter.messages(),
        clustering.edge_fraction(&g),
    );

    // 4. Cluster-scoped execution: BFS inside every Voronoi cell in parallel
    //    on the sharded CSR engine, with max-round (merge_parallel) accounting.
    let clusters: Vec<Vec<usize>> = clustering.clusters().map(|c| c.to_vec()).collect();
    let runs = run_each(clusters.len(), &ExecutorConfig::default(), |idx, engine| {
        let (view, _) = g.induced_subgraph(&clusters[idx]);
        let run = engine.run(&view, &BfsProgram { root: 0 })?;
        Ok(((), run.meter))
    })
    .expect("per-cluster BFS is model-compliant");
    let mut folded = RoundMeter::new();
    folded.merge_parallel(runs.iter().map(|(_, m)| m));
    println!(
        "cluster-scoped bfs: {} clusters in parallel, slowest cluster {} rounds, \
         {} total messages",
        clusters.len(),
        folded.rounds(),
        folded.messages(),
    );

    // 5. The same engine one round at a time: step a BFS session to round
    //    10, capture it, and resume the capture on a different shard/thread
    //    layout — the checkpoint is plain data in vertex order, so the
    //    continuation is bit-identical to the uninterrupted run.
    let program = BfsProgram { root: 0 };
    let full = executor.run(&g, &program).expect("BFS is model-compliant");
    let mut sink = NullSink;
    let mut session = executor.start(&g, &program, &mut sink);
    for _ in 0..10 {
        session.step().expect("BFS is model-compliant");
    }
    let checkpoint = session.checkpoint();
    let other = ShardedExecutor::new(ShardedConfig::with_shards_threads(3, 2));
    let mut sink = NullSink;
    let mut resumed = other
        .restore(&g, &program, checkpoint, &mut sink)
        .expect("the checkpoint fits the graph it was captured on");
    while resumed.step().expect("BFS is model-compliant").is_some() {}
    let resumed = resumed.finish();
    assert_eq!(resumed.states, full.states);
    assert_eq!(resumed.meter.to_parts(), full.meter.to_parts());
    println!(
        "step/checkpoint/restore: captured at round 10 on 8 shards, resumed on 3 — \
         {} rounds, {} messages, states bit-identical",
        resumed.rounds, resumed.messages,
    );
}
