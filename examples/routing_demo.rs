//! The three information-gathering strategies of §2 side by side: pipelined BFS-tree
//! gather, expander-split load balancing (Lemma 2.2), and derandomized random-walk
//! schedules (Lemma 2.5).
//!
//! Run with:
//! ```text
//! cargo run --release --example routing_demo -p mfd-apps
//! ```

use mfd_congest::RoundMeter;
use mfd_graph::generators;
use mfd_graph::Graph;
use mfd_routing::gather::{gather_to_leader, GatherStrategy};
use mfd_routing::walks::WalkParams;

fn run_all(name: &str, g: &Graph, leader: usize) {
    println!(
        "\n=== {name}: n = {}, m = {}, leader degree = {} ===",
        g.n(),
        g.m(),
        g.degree(leader)
    );
    let strategies: Vec<(&str, GatherStrategy)> = vec![
        ("tree pipeline", GatherStrategy::TreePipeline),
        ("load balancing (Lemma 2.2)", GatherStrategy::LoadBalance),
        (
            "walk schedule (Lemma 2.5)",
            GatherStrategy::WalkSchedule(WalkParams::default()),
        ),
    ];
    for (label, strategy) in strategies {
        let mut meter = RoundMeter::new();
        let report = gather_to_leader(g, leader, 0.05, &strategy, &mut meter);
        println!(
            "  {:28} rounds = {:7}  delivered = {:5.1}%  messages = {}",
            label,
            report.rounds,
            100.0 * report.delivered_fraction,
            meter.messages()
        );
    }
}

fn main() {
    // A high-conductance cluster: this is the regime the expander gatherers of §2 are
    // designed for (every minor-free φ-expander has a Θ(φ²n)-degree vertex).
    let hypercube = generators::hypercube(7);
    run_all("hypercube Q7 (expander)", &hypercube, 0);

    // A wheel: planar, one huge-degree hub — the canonical minor-free expander.
    let wheel = generators::wheel(256);
    run_all("wheel n=256 (planar expander)", &wheel, 0);

    // A grid cluster: low conductance; the tree pipeline is the sensible strategy and
    // the decomposition layer picks it for exactly this reason.
    let grid = generators::grid(16, 16);
    let leader = (0..grid.n()).max_by_key(|&v| grid.degree(v)).unwrap();
    run_all("grid 16x16 (low conductance)", &grid, leader);
}
