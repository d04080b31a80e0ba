//! Demo of the `mfd-sim` asynchronous discrete-event simulator: runs the
//! message-passing ports (BFS flooding, Cole–Vishkin colouring, Voronoi LDD)
//! on networks with four different latency models, cross-checks the unit-
//! latency run against the synchronous executor bit for bit, and shows what
//! the latency axis adds — makespans, stragglers, congestion peaks and the
//! α-synchronizer's overhead.
//!
//! Run with: `cargo run --release --example sim_demo`

use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram, VoronoiLddProgram};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, WeightedGraph};
use mfd_runtime::ExecutorConfig;
use mfd_sim::{run_both, LatencyModel, SimConfig, Simulator};

fn main() {
    let g = generators::triangulated_grid(20, 20);
    println!(
        "graph: triangulated 20x20 grid, n = {}, m = {}\n",
        g.n(),
        g.m()
    );
    let cfg = ExecutorConfig::default();

    // 1. The cross-engine contract: with unit latency, the asynchronous
    //    simulation reproduces the synchronous execution exactly.
    let (sync, sim) = run_both(&g, &BfsProgram { root: 0 }, &cfg, LatencyModel::Fixed(1))
        .expect("BFS is model-compliant");
    assert!(sync
        .states
        .iter()
        .zip(&sim.states)
        .all(|(a, b)| a.depth == b.depth && a.parent == b.parent));
    assert_eq!(sync.rounds, sim.rounds);
    assert_eq!(sync.messages, sim.messages);
    println!(
        "unit latency == synchronous schedule: {} rounds, {} messages, makespan {} ticks",
        sim.rounds, sim.messages, sim.makespan
    );

    // 2. Latency models change the clock, never the answer. Same BFS, four
    //    networks.
    println!("\nBFS flood under different networks (same program, same seed):");
    println!(
        "  {:<28} {:>6} {:>9} {:>9} {:>10} {:>9}",
        "latency model", "rounds", "makespan", "msgs", "overhead%", "peak/edge"
    );
    // A heterogeneous link map: a deterministic hash of the endpoint ids
    // assigns each edge a speed tier (1..=4 ticks), standing in for a real
    // topology's mixed link qualities.
    let tiers = g.edges().map(|(u, v)| (u, v, 1 + (u + v) as u64 % 4));
    let quotient_latency = WeightedGraph::from_edges(g.n(), tiers);
    let models: Vec<(&str, LatencyModel)> = vec![
        ("Fixed(1)  — synchronous", LatencyModel::Fixed(1)),
        (
            "Uniform{1..=5} — jitter",
            LatencyModel::Uniform { lo: 1, hi: 5 },
        ),
        (
            "HeavyTail{a=1.2, cap=64}",
            LatencyModel::HeavyTail {
                min: 1,
                alpha: 1.2,
                cap: 64,
            },
        ),
        (
            "PerEdge(weighted graph)",
            LatencyModel::PerEdge(quotient_latency),
        ),
    ];
    let reference = Simulator::new(SimConfig::matching(&cfg, LatencyModel::Fixed(1)))
        .run(&g, &BfsProgram { root: 0 })
        .expect("model-compliant");
    for (name, latency) in models {
        let run = Simulator::new(SimConfig::matching(&cfg, latency))
            .run(&g, &BfsProgram { root: 0 })
            .expect("model-compliant");
        assert!(run
            .states
            .iter()
            .zip(&reference.states)
            .all(|(a, b)| a.depth == b.depth && a.parent == b.parent));
        println!(
            "  {:<28} {:>6} {:>9} {:>9} {:>9.1} {:>9}",
            name,
            run.rounds,
            run.makespan,
            run.messages,
            run.stats.overhead_ratio() * 100.0,
            run.stats.max_edge_in_flight(),
        );
    }

    // 3. The full pipeline under a heavy-tailed network: colour the BFS
    //    forest and grow Voronoi cells while stragglers delay the waves.
    let straggly = LatencyModel::HeavyTail {
        min: 1,
        alpha: 1.3,
        cap: 128,
    };
    let mut meter = RoundMeter::new();
    let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
    let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
    let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
    let run = Simulator::new(SimConfig::matching(&cfg, straggly.clone()))
        .run(&g, &cv)
        .expect("CV is model-compliant");
    let slowest = run.completion.iter().max().copied().unwrap_or(0);
    println!(
        "\ncole-vishkin on straggler links: {} rounds stretch to {} ticks \
         (slowest vertex done at {})",
        run.rounds, run.makespan, slowest
    );

    let centers: Vec<usize> = (0..9).map(|i| (i * g.n()) / 9).collect();
    let voronoi = VoronoiLddProgram::new(g.n(), &centers);
    let run = Simulator::new(SimConfig::matching(&cfg, straggly))
        .run(&g, &voronoi)
        .expect("Voronoi is model-compliant");
    println!(
        "voronoi ldd on straggler links: {} rounds in {} ticks, {} packets \
         ({} pure pulses), global in-flight peak {}",
        run.rounds,
        run.makespan,
        run.stats.packets,
        run.stats.pure_pulses,
        run.stats.peak_in_flight,
    );
}
