//! The §2 gather strategies as *executed* message-passing programs: each
//! strategy runs as a real `NodeProgram` on the synchronous executor and on
//! the asynchronous `mfd-sim` event engine, side by side with the metered
//! implementation's charged bound.
//!
//! Run with:
//! ```text
//! cargo run --release --example gather_demo
//! ```

use mfd_congest::RoundMeter;
use mfd_graph::generators;
use mfd_graph::Graph;
use mfd_routing::load_balance::{load_balance_gather_with_plan, LoadBalancePlan};
use mfd_routing::programs::{
    execute_gather, GatherProgram, LoadBalanceProgram, TreeGatherProgram, WalkScheduleProgram,
};
use mfd_routing::walks::{execute_walk_gather, plan_walk_schedule};
use mfd_runtime::ExecutorConfig;
use mfd_sim::{LatencyModel, SimConfig, Simulator};

/// Runs one executed gather program on both engines and prints it next to the
/// metered charge.
fn show<P: GatherProgram>(g: &Graph, program: &P, charged_rounds: u64, charged_delivered: f64) {
    let cfg = ExecutorConfig::default();
    let (report, sync) =
        execute_gather(g, program, &cfg).expect("gather programs respect the CONGEST model");
    let sim = Simulator::new(SimConfig::matching(
        &cfg,
        LatencyModel::HeavyTail {
            min: 1,
            alpha: 1.3,
            cap: 64,
        },
    ))
    .run(g, program)
    .expect("gather programs respect the CONGEST model");
    assert_eq!(sim.rounds, sync.rounds, "rounds are engine-invariant");
    assert!(
        report.rounds <= charged_rounds,
        "executed rounds stay inside the charged bound"
    );
    println!(
        "  {:14} charged {:6} rounds ({:5.1}%) | executed {:5} rounds ({:5.1}%), \
         {:6} msgs | heavy-tail makespan {:6}",
        report.strategy,
        charged_rounds,
        100.0 * charged_delivered,
        report.rounds,
        100.0 * report.delivered_fraction,
        report.messages,
        sim.makespan,
    );
}

fn main() {
    println!("=== §2 gather strategies, metered charge vs executed NodeProgram ===");
    for (name, g) in [
        ("wheel-96", generators::wheel(96)),
        ("hypercube-5", generators::hypercube(5)),
        ("tri-grid-8x8", generators::triangulated_grid(8, 8)),
    ] {
        let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
        println!(
            "\n{name}: n = {}, m = {}, leader degree = {}",
            g.n(),
            g.m(),
            g.degree(leader)
        );

        let mut meter = RoundMeter::new();
        let charged = mfd_routing::gather::tree_gather(&g, leader, &mut meter);
        show(
            &g,
            &TreeGatherProgram::new(&g, leader),
            charged.rounds,
            charged.delivered_fraction,
        );

        let f = 0.1;
        let plan = LoadBalancePlan::new(&g);
        let mut meter = RoundMeter::new();
        let charged = load_balance_gather_with_plan(&g, leader, f, &plan, &mut meter);
        show(
            &g,
            &LoadBalanceProgram::new(&g, leader, f, &plan),
            charged.rounds,
            charged.delivered_fraction,
        );

        let params = mfd::bench::acceptance_walk_params();
        let plan = plan_walk_schedule(&g, leader, 0.2, &params);
        let mut meter = RoundMeter::new();
        let charged = execute_walk_gather(&g, &plan, &params, &mut meter);
        show(
            &g,
            &WalkScheduleProgram::new(&g, &plan),
            charged.rounds,
            charged.delivered_fraction,
        );
    }
    println!("\nAll executed runs stayed within their charged bounds on both engines.");
}
