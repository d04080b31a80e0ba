//! Regenerates every table/figure-style series of the paper's quantitative claims
//! (README.md, "Benchmarks and reports", is the experiment index) and prints them as
//! markdown tables.
//!
//! Usage:
//! ```text
//! cargo run --release -p mfd-bench --bin report                        # everything
//! cargo run --release -p mfd-bench --bin report table1 mis            # selected sections
//! cargo run --release -p mfd-bench --bin report --section gather      # same, flag form
//! ```
//!
//! `--section <name>` (repeatable) and bare section names are equivalent;
//! the flag form is what CI jobs use so each job regenerates only the JSON
//! it gates on.

use mfd_apps::baselines;
use mfd_apps::matching::{approximate_maximum_matching, MatchingConfig};
use mfd_apps::max_cut::{approximate_max_cut, MaxCutConfig};
use mfd_apps::mis::{approximate_mis, MisConfig};
use mfd_apps::property_testing::{test_property, Planarity};
use mfd_apps::solvers;
use mfd_apps::vertex_cover::{approximate_vertex_cover, VertexCoverConfig};
use mfd_bench::profiling::{profile_sharded_algo, Algo};
use mfd_bench::series::{Cell, Role::*, Series};
use mfd_bench::{acceptance_families, f3, Table};
use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt, build_edt_traced, build_edt_with, EdtConfig};
use mfd_core::expander::{
    min_cluster_conductance, minor_free_expander_decomposition, ExpanderParams,
};
use mfd_core::ldd::{chop_ldd, measure_ldd, region_growing_ldd};
use mfd_core::overlap::{overlap_expander_decomposition, OverlapParams};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram, VoronoiLddProgram};
use mfd_faults::{crash_and_regather, gather_raw, gather_recovered, FaultModel, Reliable};
use mfd_graph::generators;
use mfd_graph::properties::splitmix64;
use mfd_graph::{gen, Graph};
use mfd_routing::backend::{Executed, Metered};
use mfd_routing::gather::{gather_to_leader, GatherStrategy};
use mfd_routing::load_balance::{LoadBalanceParams, LoadBalancePlan};
use mfd_routing::programs::{
    execute_gather, GatherProgram, LoadBalanceProgram, TreeGatherProgram, WalkScheduleProgram,
};
use mfd_routing::walks::WalkParams;
use mfd_runtime::profile::{
    PHASE_COMMIT, PHASE_DELIVER, PHASE_EXCHANGE, PHASE_ROUTE, PHASE_SCAN, PHASE_STEP,
};
use mfd_runtime::{Executor, ExecutorConfig, NodeProgram, ShardedConfig, ShardedExecutor};
use mfd_sim::{LatencyModel, SimConfig, Simulator};
use mfd_trace::{DigestSink, MetricsSink, Tee};

/// The names that select a section and the function that runs it.
type Section = (&'static [&'static str], fn());

/// Every section the report can regenerate, in print order.
/// `--list-sections`, argument validation, the unknown-section diagnostic and
/// dispatch all read this one table, so a CI job cannot name a section that
/// does not run.
const SECTIONS: &[Section] = &[
    (&["table1"], table1),
    (&["scaling_n"], scaling_n),
    (&["scaling_eps"], scaling_eps),
    (&["ldd"], ldd_report),
    (&["expander"], expander_report),
    (&["overlap"], overlap_report),
    (&["routing"], routing_report),
    (&["mis", "matching_vc", "maxcut"], applications_report),
    (&["ptest"], property_testing_report),
    (&["ablations"], ablations_report),
    (&["runtime"], runtime_report),
    (&["gather"], gather_report),
    (&["faults"], faults_report),
    (&["edt"], edt_report),
    (&["trace"], trace_report),
    (&["replay"], replay_report),
    (&["scale"], || {
        scale_report(std::env::args().any(|a| a == "--heavy"))
    }),
    (&["profile"], profile_report),
];

fn section_names() -> impl Iterator<Item = &'static str> {
    SECTIONS.iter().flat_map(|(names, _)| names.iter().copied())
}

fn unknown_section_message(section: &str) -> String {
    format!(
        "error: unknown section {section:?}\nvalid sections: {}, all \
         (or run with --list-sections)",
        section_names().collect::<Vec<_>>().join(", ")
    )
}

fn main() {
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-sections" => {
                section_names().for_each(|name| println!("{name}"));
                return;
            }
            // Read by the scale section's entry in `SECTIONS`.
            "--heavy" => {}
            "--section" => match args.next() {
                Some(name) => wanted.push(name),
                None => {
                    eprintln!("usage: report [--heavy] [--list-sections] [[--section] <name>]...");
                    std::process::exit(2);
                }
            },
            _ => wanted.push(arg),
        }
    }
    for section in &wanted {
        if section != "all" && !section_names().any(|name| name == section) {
            eprintln!("{}", unknown_section_message(section));
            std::process::exit(2);
        }
    }

    println!("# Measured reproduction report\n");
    println!("All round counts are CONGEST rounds measured by the simulator; README.md (\"Benchmarks and reports\") says what each section measures.\n");

    for (names, run) in SECTIONS {
        if wanted.is_empty()
            || wanted
                .iter()
                .any(|w| w == "all" || names.contains(&w.as_str()))
        {
            run();
        }
    }
}

/// Table 1: the four (Δ, ε) regimes.
fn table1() {
    let mut table = Table::new(
        "T1 / Table 1 — construction rounds and routing time T of the (ε, D, T)-decomposition",
        &[
            "regime",
            "graph",
            "n",
            "Δ",
            "ε",
            "construction",
            "routing T",
            "D",
            "ε achieved",
        ],
    );
    let cases: Vec<(&str, &str, Graph, f64)> = vec![
        (
            "Δ const, ε const",
            "tri-grid 32x32",
            generators::triangulated_grid(32, 32),
            0.25,
        ),
        (
            "Δ const, ε small",
            "tri-grid 32x32",
            generators::triangulated_grid(32, 32),
            0.08,
        ),
        (
            "Δ unbounded, ε const",
            "apollonian 1000",
            generators::random_apollonian(1000, 0xA11),
            0.25,
        ),
        (
            "Δ unbounded, ε small",
            "apollonian 1000",
            generators::random_apollonian(1000, 0xA11),
            0.08,
        ),
        (
            "Δ unbounded, ε const",
            "wheel 1000",
            generators::wheel(1000),
            0.25,
        ),
        (
            "Δ unbounded, ε small",
            "wheel 1000",
            generators::wheel(1000),
            0.08,
        ),
    ];
    for (regime, name, g, eps) in cases {
        let (d, _) = build_edt(&g, &EdtConfig::new(eps));
        table.row(vec![
            regime.into(),
            name.into(),
            g.n().to_string(),
            g.max_degree().to_string(),
            f3(eps),
            d.construction_rounds.to_string(),
            d.routing_rounds.to_string(),
            d.diameter.to_string(),
            f3(d.epsilon_achieved),
        ]);
    }
    table.print();
}

/// F1: scaling of construction/routing rounds with n at fixed ε.
fn scaling_n() {
    let mut table = Table::new(
        "F1 — Theorem 1.1 scaling with n (ε = 0.25, bounded-degree planar family)",
        &[
            "n",
            "m",
            "construction rounds",
            "routing T",
            "D",
            "clusters",
        ],
    );
    for s in [12usize, 16, 24, 32, 40] {
        let g = generators::triangulated_grid(s, s);
        let (d, _) = build_edt(&g, &EdtConfig::new(0.25));
        table.row(vec![
            g.n().to_string(),
            g.m().to_string(),
            d.construction_rounds.to_string(),
            d.routing_rounds.to_string(),
            d.diameter.to_string(),
            d.clustering.num_clusters().to_string(),
        ]);
    }
    table.print();
}

/// F2: scaling with ε at fixed n.
fn scaling_eps() {
    let mut table = Table::new(
        "F2 — Theorem 1.1 scaling with ε (tri-grid 28x28)",
        &[
            "ε",
            "construction rounds",
            "routing T",
            "D",
            "ε achieved",
            "clusters",
        ],
    );
    let g = generators::triangulated_grid(28, 28);
    for eps in [0.5, 0.35, 0.25, 0.15, 0.1, 0.05] {
        let (d, _) = build_edt(&g, &EdtConfig::new(eps));
        table.row(vec![
            f3(eps),
            d.construction_rounds.to_string(),
            d.routing_rounds.to_string(),
            d.diameter.to_string(),
            f3(d.epsilon_achieved),
            d.clustering.num_clusters().to_string(),
        ]);
    }
    table.print();
}

/// F3: low-diameter decompositions vs baselines.
fn ldd_report() {
    let mut table = Table::new(
        "F3 / Corollary 6.1 — LDD quality: deterministic chop vs region growing vs randomized MPX",
        &[
            "graph",
            "ε",
            "method",
            "edge fraction",
            "max diameter",
            "clusters",
        ],
    );
    let graphs = vec![
        ("tri-grid-32x32", generators::triangulated_grid(32, 32)),
        ("apollonian-1000", generators::random_apollonian(1000, 5)),
    ];
    for (name, g) in &graphs {
        for eps in [0.3, 0.15, 0.08] {
            for (method, clustering) in [
                ("chop (deterministic)", chop_ldd(g, eps, 3)),
                ("region growing", region_growing_ldd(g, eps)),
                ("MPX (randomized)", {
                    let mut meter = RoundMeter::new();
                    baselines::mpx_ldd(g, eps, 11, &mut meter)
                }),
            ] {
                let q = measure_ldd(g, &clustering);
                table.row(vec![
                    name.to_string(),
                    f3(eps),
                    method.into(),
                    f3(q.edge_fraction),
                    q.max_diameter.to_string(),
                    q.clusters.to_string(),
                ]);
            }
        }
    }
    table.print();
}

/// F4: expander decompositions (Corollary 6.2 / Observation 3.1).
fn expander_report() {
    let mut table = Table::new(
        "F4 / Corollary 6.2 — expander decomposition: achieved fraction and minimum cluster conductance",
        &["graph", "ε", "edge fraction", "min cluster φ (estimate)", "φ target", "clusters"],
    );
    for (name, g) in [
        ("tri-grid-20x20", generators::triangulated_grid(20, 20)),
        ("apollonian-400", generators::random_apollonian(400, 9)),
    ] {
        for eps in [0.5, 0.3] {
            let d = minor_free_expander_decomposition(&g, eps, &ExpanderParams::default());
            let phi = min_cluster_conductance(&g, &d.clustering, 80);
            table.row(vec![
                name.to_string(),
                f3(eps),
                f3(d.edge_fraction),
                f3(if phi.is_finite() { phi } else { 1.0 }),
                f3(d.phi_target),
                d.clustering.num_clusters().to_string(),
            ]);
        }
    }
    table.print();
}

/// F10: the §4 overlap expander decomposition across its merge iterations.
fn overlap_report() {
    let mut table = Table::new(
        "F10 / §4 — (ε, φ, c) overlap expander decomposition",
        &[
            "graph",
            "target ε",
            "achieved ε",
            "overlap c",
            "iterations",
            "clusters",
            "rounds",
        ],
    );
    for (name, g) in [
        ("tri-grid-16x16", generators::triangulated_grid(16, 16)),
        ("apollonian-300", generators::random_apollonian(300, 4)),
    ] {
        for eps in [0.5, 0.3] {
            let mut meter = RoundMeter::new();
            let d = overlap_expander_decomposition(&g, eps, &OverlapParams::default(), &mut meter);
            table.row(vec![
                name.to_string(),
                f3(eps),
                f3(d.edge_fraction),
                d.overlap.to_string(),
                d.iterations.to_string(),
                d.clusters.len().to_string(),
                meter.rounds().to_string(),
            ]);
        }
    }
    table.print();
}

/// F9: the routing primitives.
fn routing_report() {
    let mut table = Table::new(
        "F9 / §2 — information gathering: rounds and delivered fraction by strategy",
        &["cluster", "n", "strategy", "rounds", "delivered"],
    );
    for (name, g) in [
        ("hypercube Q7", generators::hypercube(7)),
        ("wheel-256", generators::wheel(256)),
        ("tri-grid-12x12", generators::triangulated_grid(12, 12)),
    ] {
        let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
        for (label, strategy) in [
            ("tree pipeline", GatherStrategy::TreePipeline),
            (
                "load balance (L2.2)",
                GatherStrategy::LoadBalance(LoadBalanceParams::default()),
            ),
            (
                "walk schedule (L2.5)",
                GatherStrategy::WalkSchedule(WalkParams::default()),
            ),
        ] {
            let mut meter = RoundMeter::new();
            let report = gather_to_leader(&g, leader, 0.05, &strategy, &mut meter);
            table.row(vec![
                name.to_string(),
                g.n().to_string(),
                label.into(),
                report.rounds.to_string(),
                f3(report.delivered_fraction),
            ]);
        }
    }
    table.print();
}

/// F5–F7: the approximation applications.
fn applications_report() {
    let g = generators::random_apollonian(600, 0xF5);
    let exact_matching = solvers::matching_edges(&solvers::maximum_matching(&g)).len();
    let greedy_mis = solvers::greedy_independent_set(&g).len();
    let mut table = Table::new(
        "F5/F6/F7 / Corollaries 6.3–6.5 — approximation quality and rounds (apollonian-600)",
        &["problem", "ε", "value", "reference", "rounds"],
    );
    for eps in [0.4, 0.2, 0.1] {
        let mis = approximate_mis(&g, &MisConfig::new(eps));
        table.row(vec![
            "max independent set".into(),
            f3(eps),
            mis.independent_set.len().to_string(),
            format!("greedy {greedy_mis}, n/4 = {}", g.n() / 4),
            mis.rounds.to_string(),
        ]);
        let m = approximate_maximum_matching(&g, &MatchingConfig::new(eps));
        table.row(vec![
            "max matching".into(),
            f3(eps),
            m.matching.len().to_string(),
            format!("blossom optimum {exact_matching}"),
            m.rounds.to_string(),
        ]);
        let vc = approximate_vertex_cover(&g, &VertexCoverConfig::new(eps));
        table.row(vec![
            "min vertex cover".into(),
            f3(eps),
            vc.cover.len().to_string(),
            format!("2-approx {}", baselines::two_approx_vertex_cover(&g).len()),
            vc.rounds.to_string(),
        ]);
        let cut = approximate_max_cut(&g, &MaxCutConfig::new(eps));
        table.row(vec![
            "max cut".into(),
            f3(eps),
            cut.cut_edges.to_string(),
            format!("m/2 = {}", g.m() / 2),
            cut.rounds.to_string(),
        ]);
    }
    table.print();
}

/// F8: property testing.
fn property_testing_report() {
    let mut table = Table::new(
        "F8 / Corollary 6.6 — planarity testing (ε = 0.2): verdict and rounds",
        &[
            "instance",
            "n",
            "verdict",
            "rounds",
            "error-detection rounds",
        ],
    );
    let mut cases: Vec<(String, Graph)> = Vec::new();
    for s in [16usize, 24, 32] {
        cases.push((
            format!("planar tri-grid {s}x{s}"),
            generators::triangulated_grid(s, s),
        ));
    }
    for n in [300usize, 600] {
        let base = generators::random_apollonian(n, 3);
        cases.push((
            format!("apollonian-{n} + 30% chords (ε-far)"),
            generators::with_random_chords(&base, base.m() * 3 / 10, 9),
        ));
    }
    cases.push(("K50 (arboricity reject)".into(), generators::complete(50)));
    for (name, g) in cases {
        let o = test_property(&g, &Planarity, 0.2);
        table.row(vec![
            name,
            g.n().to_string(),
            if o.accepted {
                "ACCEPT".into()
            } else {
                "REJECT".to_string()
            },
            o.rounds.to_string(),
            o.error_detection_rounds.to_string(),
        ]);
    }
    table.print();
}

/// Ablations: routing strategy, Solomon sparsifier, chop depth.
fn ablations_report() {
    let g = generators::triangulated_grid(20, 20);

    // Routing strategy ablation for the final routing algorithm A.
    let mut table = Table::new(
        "A1 — ablation: routing strategy of the (ε, D, T)-decomposition (tri-grid 20x20, ε = 0.25)",
        &[
            "routing strategy",
            "routing T",
            "construction rounds",
            "min delivered",
        ],
    );
    for (label, strategy) in [
        ("tree pipeline", GatherStrategy::TreePipeline),
        (
            "load balance",
            GatherStrategy::LoadBalance(LoadBalanceParams::default()),
        ),
        (
            "walk schedule",
            GatherStrategy::WalkSchedule(WalkParams::default()),
        ),
    ] {
        let config = EdtConfig::new(0.25).with_routing_gather(strategy);
        let (d, _) = build_edt(&g, &config);
        table.row(vec![
            label.into(),
            d.routing_rounds.to_string(),
            d.construction_rounds.to_string(),
            f3(d.min_delivered_fraction),
        ]);
    }
    table.print();

    // Sparsifier ablation for MIS.
    let g2 = generators::random_apollonian(400, 21);
    let mut table = Table::new(
        "A2 — ablation: Solomon sparsifier on/off for approximate MIS (apollonian-400, ε = 0.2)",
        &["sparsifier", "|IS|", "rounds", "clusters"],
    );
    for use_sparsifier in [true, false] {
        let mut config = MisConfig::new(0.2);
        config.use_sparsifier = use_sparsifier;
        let r = approximate_mis(&g2, &config);
        table.row(vec![
            use_sparsifier.to_string(),
            r.independent_set.len().to_string(),
            r.rounds.to_string(),
            r.clusters.to_string(),
        ]);
    }
    table.print();

    // Chop depth ablation for the LDD.
    let mut table = Table::new(
        "A3 — ablation: chop depth of the deterministic LDD (apollonian-600, ε = 0.2)",
        &["depth", "edge fraction", "max diameter", "clusters"],
    );
    let g3 = generators::random_apollonian(600, 2);
    for depth in [1usize, 2, 3, 4] {
        let q = measure_ldd(&g3, &chop_ldd(&g3, 0.2, depth));
        table.row(vec![
            depth.to_string(),
            f3(q.edge_fraction),
            q.max_diameter.to_string(),
            q.clusters.to_string(),
        ]);
    }
    table.print();
}

/// Runs `program` under the synchronous executor and the simulator's latency
/// models, appending one `BENCH_runtime.json` row per engine.
fn run_engines<P: NodeProgram>(
    g: &Graph,
    program: &P,
    graph_name: &str,
    prog_name: &'static str,
    rows: &mut Series,
) {
    let mut row =
        |engine: &str, latency: Option<&str>, rounds: u64, messages: u64, makespan: Option<u64>| {
            rows.row(vec![
                ("engine", engine.into(), Id),
                ("latency", latency.into(), Id),
                ("graph", graph_name.into(), Id),
                ("n", g.n().into(), Id),
                ("m", g.m().into(), Id),
                ("program", prog_name.into(), Id),
                ("rounds", rounds.into(), Gated),
                ("messages", messages.into(), Gated),
                ("makespan", makespan.into(), Exact),
            ]);
        };
    let cfg = ExecutorConfig::default();
    let sync = mfd_bench::sync_executor(&cfg)
        .run(g, program)
        .expect("program is model-compliant");
    row("executor", None, sync.rounds, sync.messages, None);
    let latencies: [(&'static str, LatencyModel); 3] = [
        ("fixed-1", LatencyModel::Fixed(1)),
        ("uniform-1-5", LatencyModel::Uniform { lo: 1, hi: 5 }),
        (
            "heavy-tail-1.2-cap64",
            LatencyModel::HeavyTail {
                min: 1,
                alpha: 1.2,
                cap: 64,
            },
        ),
    ];
    for (name, latency) in latencies {
        let run = Simulator::new(SimConfig::matching(&cfg, latency))
            .run(g, program)
            .expect("program is model-compliant");
        // Engine invariance holds on connected workloads (all of
        // runtime_report's families); on disconnected graphs the frontier
        // executor may stop before the simulator's unreachability timeouts.
        assert_eq!(run.rounds, sync.rounds, "latency must not change rounds");
        assert_eq!(run.messages, sync.messages);
        row(
            "sim",
            Some(name),
            run.rounds,
            run.messages,
            Some(run.makespan),
        );
    }
}

/// R1 — the engine comparison series: rounds/messages/makespan per engine,
/// latency model, graph family and program, printed as a table and written to
/// `BENCH_runtime.json` for CI and downstream tooling.
fn runtime_report() {
    let families = [
        ("tri-grid-16x16", generators::triangulated_grid(16, 16)),
        ("wheel-256", generators::wheel(256)),
        ("hypercube-8", generators::hypercube(8)),
    ];
    let mut rows = Series::new("runtime");
    for (name, g) in &families {
        run_engines(g, &BfsProgram { root: 0 }, name, "bfs", &mut rows);

        let mut meter = RoundMeter::new();
        let tree = mfd_congest::primitives::build_bfs_tree(g, None, 0, &mut meter);
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
        run_engines(g, &cv, name, "cole-vishkin", &mut rows);

        let centers: Vec<usize> = (0..8).map(|i| (i * g.n()) / 8).collect();
        let voronoi = VoronoiLddProgram::new(g.n(), &centers);
        run_engines(g, &voronoi, name, "voronoi-ldd-8", &mut rows);
    }
    rows.print(
        "R1 — execution engines: synchronous rounds vs simulated makespan \
         (rounds and messages are engine-invariant)",
        &[
            "graph", "program", "engine", "latency", "rounds", "messages", "makespan",
        ],
    );
    rows.write();
}

/// One `BENCH_gather.json` row: a strategy on a graph family, in one mode
/// (the metered charge, the synchronous executor, or the event simulator
/// under a latency model).
#[allow(clippy::too_many_arguments)]
fn gather_row(
    rows: &mut Series,
    graph_name: &str,
    g: &Graph,
    strategy: &str,
    mode: &str,
    latency: Option<&str>,
    f: f64,
    (rounds, messages, delivered): (u64, u64, f64),
    makespan: Option<u64>,
) {
    rows.row(vec![
        ("graph", graph_name.into(), Id),
        ("n", g.n().into(), Id),
        ("m", g.m().into(), Id),
        ("strategy", strategy.into(), Id),
        ("mode", mode.into(), Id),
        ("latency", latency.into(), Id),
        ("f", Cell::Float(f, 3), Id),
        ("rounds", rounds.into(), Gated),
        ("messages", messages.into(), Gated),
        ("delivered", Cell::Float(delivered, 6), Gated),
        ("makespan", makespan.into(), Exact),
    ]);
}

/// Runs one gather program under the synchronous executor and the simulator's
/// latency models, asserting engine invariance and the charged-bound
/// contract, and appends one row per engine.
fn run_gather_engines<P: GatherProgram>(
    g: &Graph,
    program: &P,
    graph_name: &str,
    f: f64,
    charged_rounds: u64,
    rows: &mut Series,
) {
    let cfg = ExecutorConfig::default();
    let strategy = program.strategy_name();
    let (report, sync) =
        execute_gather(g, program, &cfg).expect("gather program is model-compliant");
    assert!(
        report.rounds <= charged_rounds,
        "{strategy} on {graph_name}: executed {} rounds exceed the charged bound {}",
        report.rounds,
        charged_rounds
    );
    let measured = (report.rounds, report.messages, report.delivered_fraction);
    gather_row(
        rows, graph_name, g, strategy, "executor", None, f, measured, None,
    );
    for (name, latency) in [
        ("fixed-1", LatencyModel::Fixed(1)),
        (
            "heavy-tail-1.2-cap64",
            LatencyModel::HeavyTail {
                min: 1,
                alpha: 1.2,
                cap: 64,
            },
        ),
    ] {
        let sim = Simulator::new(SimConfig::matching(&cfg, latency))
            .run(g, program)
            .expect("gather program is model-compliant");
        assert_eq!(sim.rounds, sync.rounds, "latency must not change rounds");
        assert_eq!(sim.messages, sync.messages);
        let r = program.executed_report(&sim.states, sim.rounds, sim.messages);
        let measured = (r.rounds, r.messages, r.delivered_fraction);
        let makespan = Some(sim.makespan);
        gather_row(
            rows,
            graph_name,
            g,
            strategy,
            "sim",
            Some(name),
            f,
            measured,
            makespan,
        );
    }
}

/// R2 — the §2 gather strategies as executed `NodeProgram`s, differentially
/// against the metered charges, written to `BENCH_gather.json` for the CI
/// determinism diff and regression gate.
fn gather_report() {
    let families = mfd_bench::acceptance_families();
    let f = 0.1;
    let walk_params = mfd_bench::acceptance_walk_params();
    // Low walk-schedule delivered fractions on the grid and hypercube are the
    // expected outcome, not a bug: their leaders have Θ(1)-degree gadgets,
    // exactly the clusters for which `gather_to_leader` falls back to the
    // tree pipeline. The wheel (Θ(n)-degree hub) is the walk-friendly case.
    let walk_f = 0.2;
    let mut rows = Series::new("gather");
    for (name, g) in &families {
        let leader = mfd_bench::acceptance_leader(g);
        let metered_row = |rows: &mut Series, strategy, f, measured| {
            gather_row(rows, name, g, strategy, "metered", None, f, measured, None);
        };

        let mut meter = RoundMeter::new();
        let charged = mfd_routing::gather::tree_gather(g, leader, &mut meter);
        let measured = (charged.rounds, meter.messages(), charged.delivered_fraction);
        metered_row(&mut rows, "tree-pipeline", f, measured);
        let tree = TreeGatherProgram::new(g, leader);
        run_gather_engines(g, &tree, name, f, charged.rounds, &mut rows);

        let plan = LoadBalancePlan::new(g, &LoadBalanceParams::default());
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::load_balance::load_balance_gather_with_plan(
            g, leader, f, &plan, &mut meter,
        );
        let measured = (charged.rounds, meter.messages(), charged.delivered_fraction);
        metered_row(&mut rows, "load-balance", f, measured);
        let lb = LoadBalanceProgram::new(g, leader, f, &plan);
        run_gather_engines(g, &lb, name, f, charged.rounds, &mut rows);

        let plan = mfd_routing::walks::plan_walk_schedule(g, leader, walk_f, &walk_params);
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::walks::execute_walk_gather(g, &plan, &walk_params, &mut meter);
        let measured = (charged.rounds, meter.messages(), charged.delivered_fraction);
        metered_row(&mut rows, "walk-schedule", walk_f, measured);
        let walk = WalkScheduleProgram::new(g, &plan);
        run_gather_engines(g, &walk, name, walk_f, charged.rounds, &mut rows);
    }
    rows.print(
        "R2 — §2 gather strategies, metered charge vs executed NodePrograms \
         (rounds and messages are engine-invariant; executed ≤ charged)",
        &[
            "graph",
            "strategy",
            "mode",
            "latency",
            "rounds",
            "messages",
            "delivered",
            "makespan",
        ],
    );
    rows.write();
}

/// One `BENCH_faults.json` row. `mode` is `raw` (faults reach the program),
/// `reliable` (behind the adapter) or `crash` (re-election + re-gather).
/// `wedged` is identity on purpose: whether a faulty run starves is a
/// semantic property of the protocol, so a flip fails the gate as a
/// disappeared series instead of sliding under a numeric tolerance.
#[allow(clippy::too_many_arguments)]
fn fault_row(
    rows: &mut Series,
    graph_name: &str,
    g: &Graph,
    strategy: &str,
    fault: &str,
    mode: &str,
    f: f64,
    (rounds, messages, delivered): (u64, u64, f64),
    stats: Option<mfd_faults::ReliableStats>,
    wedged: bool,
) {
    rows.row(vec![
        ("graph", graph_name.into(), Id),
        ("n", g.n().into(), Id),
        ("m", g.m().into(), Id),
        ("strategy", strategy.into(), Id),
        ("fault", fault.into(), Id),
        ("mode", mode.into(), Id),
        ("f", Cell::Float(f, 3), Id),
        ("rounds", rounds.into(), Gated),
        ("messages", messages.into(), Gated),
        ("delivered", Cell::Float(delivered, 6), Gated),
        ("retransmits", stats.map(|s| s.retransmitted).into(), Gated),
        ("excused", stats.map(|s| s.excused).into(), Exact),
        ("wedged", wedged.into(), Id),
    ]);
}

/// Runs one gather program raw and behind [`Reliable`] under one fault
/// model, appending both rows.
fn run_fault_scenario<P>(
    g: &Graph,
    program: &P,
    graph_name: &str,
    f: f64,
    fault_name: &'static str,
    model: &FaultModel,
    rows: &mut Series,
) where
    P: mfd_routing::programs::GatherProgram + Clone,
    P::State: Clone,
{
    let config = SimConfig::default();
    let strategy = program.strategy_name();
    let mut row = |mode: &str, run: &mfd_faults::FaultImpact| {
        let measured = (
            run.gather.rounds,
            run.gather.messages,
            run.gather.delivered_fraction,
        );
        fault_row(
            rows,
            graph_name,
            g,
            strategy,
            fault_name,
            mode,
            f,
            measured,
            run.reliable,
            run.wedged,
        );
    };
    let raw = gather_raw(g, program, &config, model).expect("raw faulty run is model-compliant");
    row("raw", &raw);
    let reliable = Reliable::new(program.clone());
    let rec =
        gather_recovered(g, &reliable, &config, model).expect("recovered run is model-compliant");
    assert!(
        !rec.wedged,
        "{strategy} on {graph_name} under {fault_name}: the adapter itself starved"
    );
    assert!(
        rec.reliable.is_some(),
        "recovered run reports transport stats"
    );
    row("reliable", &rec);
}

/// R3 — the §2 gather strategies under injected faults: delivered-fraction
/// degradation raw vs. recovered through the reliable-delivery adapter, and
/// crash-stop runs with leader re-election, written to `BENCH_faults.json`
/// for the CI determinism diff and regression gate.
fn faults_report() {
    let families = mfd_bench::acceptance_families();
    let scenarios: [(&'static str, FaultModel); 4] = [
        ("iid-0.05", FaultModel::iid_loss(0.05)),
        ("iid-0.2", FaultModel::iid_loss(0.2)),
        ("burst-ge", FaultModel::burst_loss(0.05, 0.25, 0.01, 0.6)),
        ("chaos", FaultModel::chaos(0.1, 0.05, 0.05, 3)),
    ];
    let f = 0.1;
    let walk_f = 0.2;
    let walk_params = mfd_bench::acceptance_walk_params();
    let mut rows = Series::new("faults");
    for (name, g) in &families {
        let leader = mfd_bench::acceptance_leader(g);
        let tree = TreeGatherProgram::new(g, leader);
        let plan = LoadBalancePlan::new(g, &LoadBalanceParams::default());
        let lb = LoadBalanceProgram::new(g, leader, f, &plan);
        let walk_plan = mfd_routing::walks::plan_walk_schedule(g, leader, walk_f, &walk_params);
        let walk = WalkScheduleProgram::new(g, &walk_plan);
        for (fault_name, model) in &scenarios {
            run_fault_scenario(g, &tree, name, f, fault_name, model, &mut rows);
            run_fault_scenario(g, &lb, name, f, fault_name, model, &mut rows);
            run_fault_scenario(g, &walk, name, walk_f, fault_name, model, &mut rows);
        }

        // Crash-stop: kill the gather leader mid-protocol, re-elect on the
        // survivors, re-gather to the winner.
        let crash = crash_and_regather(
            g,
            leader,
            5,
            2,
            &SimConfig::default(),
            &ExecutorConfig::default(),
        )
        .expect("crash experiment is model-compliant");
        assert!(
            crash.agreement,
            "{name}: survivors disagree on the re-elected leader"
        );
        let measured = (
            crash.election_rounds + crash.regather.rounds,
            crash.election_messages + crash.regather.messages,
            crash.regather.delivered_fraction,
        );
        fault_row(
            &mut rows,
            name,
            g,
            "crash-reelect",
            "crash-leader-r5",
            "crash",
            f,
            measured,
            None,
            false,
        );
    }
    rows.print(
        "R3 — gather under faults: raw degradation vs. reliable-adapter \
         recovery, and crash-stop re-election (delivered is the fraction of \
         the cluster's 2|E| messages reaching the leader)",
        &[
            "graph",
            "strategy",
            "fault",
            "mode",
            "rounds",
            "messages",
            "delivered",
            "retransmits",
            "excused",
            "wedged",
        ],
    );
    rows.write();
}

/// R4 — the (ε, D, T)-construction end to end, metered charge vs the
/// `Executed` backend (every gather and cluster-graph round run as a real
/// `NodeProgram`), written to `BENCH_edt.json` for the CI determinism diff
/// and regression gate. The differential contract — identical partition,
/// executed ≤ charged per phase — is asserted in-process, so a regression
/// fails the report itself, not just the gate.
fn edt_report() {
    let families = mfd_bench::edt_acceptance_families();
    let mut rows = Series::new("edt");
    for (name, g, eps) in &families {
        let config = EdtConfig::new(*eps);
        let mut charged_sink = MetricsSink::new();
        let (metered, charged) = build_edt_traced(g, &config, &Metered, &mut charged_sink);
        let mut spent_sink = MetricsSink::new();
        let (executed, spent) = build_edt_traced(g, &config, &Executed::default(), &mut spent_sink);
        assert!(
            executed.is_valid(g),
            "{name}: executed decomposition invalid"
        );
        assert_eq!(
            metered.clustering, executed.clustering,
            "{name}: backends disagree on the partition"
        );
        assert!(
            spent.rounds() <= charged.rounds(),
            "{name}: executed {} rounds exceed the metered charge {}",
            spent.rounds(),
            charged.rounds()
        );
        assert!(
            executed.construction_rounds <= metered.construction_rounds,
            "{name}: construction executed {} > charged {}",
            executed.construction_rounds,
            metered.construction_rounds
        );
        assert!(
            executed.routing_rounds <= metered.routing_rounds,
            "{name}: routing executed {} > charged {}",
            executed.routing_rounds,
            metered.routing_rounds
        );
        for (d, meter, sink) in [
            (&metered, &charged, &charged_sink),
            (&executed, &spent, &spent_sink),
        ] {
            let routing_messages: u64 = meter
                .phases()
                .iter()
                .filter(|p| p.name == "routing")
                .map(|p| p.messages)
                .sum();
            // One row per phase of Table 1; the per-cluster routing maxima
            // (which the parallel fold otherwise collapses into a max) exist
            // on routing rows only.
            let mut row =
                |phase: &str, rounds: u64, messages: u64, routing: Option<(f64, u64, u64)>| {
                    rows.row(vec![
                        ("graph", (*name).into(), Id),
                        ("n", g.n().into(), Id),
                        ("m", g.m().into(), Id),
                        ("eps", Cell::Float(*eps, 3), Id),
                        ("backend", d.backend.into(), Id),
                        ("phase", phase.into(), Id),
                        ("rounds", rounds.into(), Gated),
                        ("messages", messages.into(), Gated),
                        (
                            "delivered",
                            routing.map(|r| Cell::Float(r.0, 6)).into(),
                            Gated,
                        ),
                        ("cluster_rounds_max", routing.map(|r| r.1).into(), Exact),
                        ("cluster_messages", routing.map(|r| r.2).into(), Exact),
                    ]);
                };
            row(
                "construction",
                d.construction_rounds,
                meter.messages() - routing_messages,
                None,
            );
            row(
                "routing",
                d.routing_rounds,
                routing_messages,
                Some((
                    d.min_delivered_fraction,
                    sink.max_cluster_rounds(),
                    sink.cluster_messages(),
                )),
            );
        }
    }
    rows.print(
        "R4 — (ε, D, T)-construction: metered charge vs executed backend \
         (identical partitions; executed ≤ charged per phase)",
        &[
            "graph",
            "ε=eps",
            "backend",
            "phase",
            "rounds",
            "messages",
            "delivered",
            "cluster rounds (max)=cluster_rounds_max",
            "cluster messages=cluster_messages",
        ],
    );
    rows.write();
}

/// One `BENCH_trace.json` row: a traced program on an acceptance family
/// under one engine — event/span counts and the digest-chain head over all
/// sealed rounds — or an edt construction's span accounting (no single
/// chain, so no head).
#[allow(clippy::too_many_arguments)]
fn trace_row(
    rows: &mut Series,
    program: &str,
    graph_name: &str,
    g: &Graph,
    engine: &str,
    rounds: u64,
    messages: u64,
    sink: &MetricsSink,
    digest: Option<u64>,
) {
    rows.row(vec![
        ("program", program.into(), Id),
        ("graph", graph_name.into(), Id),
        ("n", g.n().into(), Id),
        ("m", g.m().into(), Id),
        ("engine", engine.into(), Id),
        ("rounds", rounds.into(), Gated),
        ("messages", messages.into(), Gated),
        ("events", sink.total_events().into(), Exact),
        ("spans", sink.spans.len().into(), Exact),
        ("digest", digest.map(Cell::Hex).into(), Id),
    ]);
}

/// Runs one program under both engines with a `Tee(MetricsSink, DigestSink)`
/// and appends one row per engine. The digest heads must agree (unit-latency
/// engine equivalence, checked here so a divergence fails the report).
fn run_trace_engines<P>(
    g: &Graph,
    program: &P,
    graph_name: &str,
    prog_name: &'static str,
    rows: &mut Series,
) where
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    let cfg = ExecutorConfig::default();
    let mut sink = Tee::new(MetricsSink::new(), DigestSink::new());
    let sync = mfd_bench::sync_executor(&cfg)
        .run_traced(g, program, &mut sink)
        .expect("program is model-compliant");
    let head = sink.b.head();
    let mut row = |engine: &str, rounds: u64, messages: u64, sink: &MetricsSink| {
        trace_row(
            rows,
            prog_name,
            graph_name,
            g,
            engine,
            rounds,
            messages,
            sink,
            Some(head),
        );
    };
    row("executor", sync.rounds, sync.messages, &sink.a);
    let mut sim_sink = Tee::new(MetricsSink::new(), DigestSink::new());
    let sim = Simulator::new(SimConfig::matching(&cfg, LatencyModel::Fixed(1)))
        .run_traced(g, program, &mut sim_sink)
        .expect("program is model-compliant");
    assert_eq!(
        sim_sink.b.head(),
        head,
        "{prog_name} on {graph_name}: engines disagree on the digest chain"
    );
    row("sim-fixed-1", sim.rounds, sim.messages, &sim_sink.a);
}

/// R5 — the observability surface itself: per program × family × engine
/// event/span counts and the digest-chain head, plus the edt constructions'
/// span accounting, written to `BENCH_trace.json`. CI regenerates the file
/// twice and byte-diffs it — the determinism contract of `mfd-trace`,
/// machine-checked.
fn trace_report() {
    let mut rows = Series::new("trace");
    for (name, g) in &mfd_bench::acceptance_families() {
        run_trace_engines(g, &BfsProgram { root: 0 }, name, "bfs", &mut rows);

        let mut meter = RoundMeter::new();
        let tree = mfd_congest::primitives::build_bfs_tree(g, None, 0, &mut meter);
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
        run_trace_engines(g, &cv, name, "cole-vishkin", &mut rows);

        let centers: Vec<usize> = (0..8).map(|i| (i * g.n()) / 8).collect();
        let voronoi = VoronoiLddProgram::new(g.n(), &centers);
        run_trace_engines(g, &voronoi, name, "voronoi-ldd-8", &mut rows);
    }

    // The edt constructions' phase spans: merge/refine/routing rounds and
    // messages per span, plus one cluster_run event per routing gather.
    for (name, g, eps) in &mfd_bench::edt_acceptance_families() {
        let config = EdtConfig::new(*eps);
        let mut row = |engine: &str, meter: RoundMeter, sink: MetricsSink| {
            let (rounds, messages) = (meter.rounds(), meter.messages());
            trace_row(
                &mut rows, "edt", name, g, engine, rounds, messages, &sink, None,
            );
        };
        let mut sink = MetricsSink::new();
        let (_, meter) = build_edt_traced(g, &config, &Metered, &mut sink);
        row("edt-metered", meter, sink);
        let mut sink = MetricsSink::new();
        let (_, meter) = build_edt_traced(g, &config, &Executed::default(), &mut sink);
        row("edt-executed", meter, sink);
    }
    rows.print(
        "R5 — trace surface: event/span counts and digest-chain heads \
         (engines agree on every head; the JSON is byte-diffed in CI)",
        &[
            "program", "graph", "engine", "rounds", "messages", "events", "spans", "digest",
        ],
    );
    rows.write();
}

/// R6 — replay surface: checkpoint journals and bit-identical resume on
/// every acceptance family, across the synchronous executor, the event
/// engine at unit and skewed latency, and the faulted
/// `Reliable<probe>`-under-loss configuration.
fn replay_report() {
    use mfd_bench::replay::{executor_journal, resume_executor, resume_sim, sim_journal};
    use mfd_bench::trace::DivergenceProbe;
    use mfd_sim::NoFaults;

    const EVERY: u64 = 4;
    const ROUNDS: u64 = 16;
    let cfg = ExecutorConfig::default();
    let probe = DivergenceProbe::clean(ROUNDS);
    let mut rows = Series::new("replay");

    // The checkpoint every resume restores: the journal's middle one, so
    // rounds_replayed measures a genuine suffix re-execution.
    fn mid(journal: &mfd_replay::Journal) -> &mfd_replay::JournalCheckpoint {
        &journal.checkpoints[journal.checkpoints.len() / 2]
    }

    for (name, g) in &mfd_bench::acceptance_families() {
        // One row: a journaled probe run under one engine configuration,
        // resumed from `cp`. `checkpoint_bytes` is that checkpoint's
        // snapshot-codec payload, `rounds_replayed` the rounds the resumed
        // engine re-executed, `head` the digest-chain head over all rounds.
        let mut row = |engine: &str,
                       faults: &str,
                       cp: &mfd_replay::JournalCheckpoint,
                       (rounds, messages): (u64, u64),
                       rounds_replayed: u64,
                       head: u64| {
            rows.row(vec![
                ("graph", (*name).into(), Id),
                ("n", g.n().into(), Id),
                ("engine", engine.into(), Id),
                ("faults", faults.into(), Id),
                ("every", EVERY.into(), Id),
                ("checkpoint_round", cp.round.into(), Id),
                ("rounds", rounds.into(), Gated),
                ("messages", messages.into(), Gated),
                ("checkpoint_bytes", cp.payload.len().into(), Gated),
                ("rounds_replayed", rounds_replayed.into(), Exact),
                ("head", Cell::Hex(head), Id),
            ]);
        };

        let full = executor_journal(g, &probe, &cfg, EVERY, name).expect("probe runs");
        let cp = mid(&full.journal);
        let resumed = resume_executor(&full.journal, cp.round, g, &probe, &cfg).expect("resumes");
        assert_eq!(
            resumed.sink.chain(),
            full.sink.chain(),
            "{name}/executor: resumed chain must equal the uninterrupted chain"
        );
        assert_eq!(resumed.run.states, full.run.states);
        row(
            "executor",
            "none",
            cp,
            (full.run.rounds, full.run.messages),
            resumed.rounds_replayed,
            full.sink.head(),
        );

        for (engine, latency) in [
            ("sim-fixed-1", LatencyModel::Fixed(1)),
            ("sim-skewed", LatencyModel::Uniform { lo: 1, hi: 3 }),
        ] {
            let full = sim_journal(g, &probe, &NoFaults, &cfg, latency.clone(), EVERY, name)
                .expect("probe runs");
            let cp = mid(&full.journal);
            let resumed = resume_sim(&full.journal, cp.round, g, &probe, &NoFaults, &cfg, latency)
                .expect("resumes");
            assert_eq!(
                resumed.sink.chain(),
                full.sink.chain(),
                "{name}/{engine}: resumed chain must equal the uninterrupted chain"
            );
            let (full_run, resumed_run) = (&full.run.run, &resumed.run.run);
            assert_eq!(resumed_run.states, full_run.states);
            assert_eq!(resumed_run.makespan, full_run.makespan);
            let counts = (full_run.rounds, full_run.messages);
            let head = full.sink.head();
            row(engine, "none", cp, counts, resumed.rounds_replayed, head);
        }

        // The acceptance configuration: the probe under ARQ reliable
        // delivery with i.i.d. loss — checkpoints carry full transport
        // state, and the resume must meet the same fate sequence.
        let wrapped = Reliable::new(DivergenceProbe::clean(ROUNDS));
        let model = FaultModel::iid_loss(0.2);
        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
        let full = sim_journal(g, &wrapped, &model, &cfg, latency.clone(), EVERY, name)
            .expect("probe runs");
        assert!(
            matches!(full.run.outcome, mfd_sim::FaultOutcome::Completed),
            "{name}/faulted: the acceptance run must complete under 0.2 loss"
        );
        let cp = mid(&full.journal);
        let resumed = resume_sim(&full.journal, cp.round, g, &wrapped, &model, &cfg, latency)
            .expect("resumes");
        assert_eq!(
            resumed.sink.chain(),
            full.sink.chain(),
            "{name}/faulted: resumed chain must equal the uninterrupted chain"
        );
        assert_eq!(
            Reliable::inner_states(&resumed.run.run.states),
            Reliable::inner_states(&full.run.run.states)
        );
        row(
            "sim-skewed",
            "iid-loss-0.2+reliable",
            cp,
            (full.run.run.rounds, full.run.run.messages),
            resumed.rounds_replayed,
            full.sink.head(),
        );
    }
    rows.print(
        "R6 — replay surface: checkpoint journal sizes and bit-identical resume \
         (every row's resumed chain asserted equal to the uninterrupted run's)",
        &[
            "graph",
            "engine",
            "faults",
            "ckpt@=checkpoint_round",
            "rounds",
            "messages",
            "ckpt bytes=checkpoint_bytes",
            "replayed=rounds_replayed",
            "head",
        ],
    );
    rows.write();
}

/// One `BENCH_scale.json` row.
///
/// Identity: engine, graph, n, m, program, shards (`None` on
/// reference-stepper rows), threads (`None` = all available cores) and, where
/// the run is one journaled execution, `digest_head` — so a semantic change
/// to an engine fails the gate loudly as a disappeared series rather than
/// sliding under a numeric tolerance. `mailbox_hwm` / `route_hwm` are the
/// arena's deterministic envelope-count high-water marks. The wall clock
/// reaches the table only.
#[allow(clippy::too_many_arguments)]
fn scale_row(
    rows: &mut Series,
    engine: &str,
    graph_name: &str,
    (n, m): (usize, usize),
    program: &str,
    shards: Option<usize>,
    threads: Option<usize>,
    rounds: u64,
    messages: u64,
    digest_head: Option<u64>,
    arena: Option<mfd_runtime::ArenaStats>,
    elapsed_ms: f64,
) {
    let secs = (elapsed_ms / 1e3).max(1e-9);
    rows.row(vec![
        ("engine", engine.into(), Id),
        ("graph", graph_name.into(), Id),
        ("n", n.into(), Id),
        ("m", m.into(), Id),
        ("program", program.into(), Id),
        ("shards", shards.into(), Id),
        ("threads", threads.into(), Id),
        ("rounds", rounds.into(), Gated),
        ("messages", messages.into(), Gated),
        ("digest_head", digest_head.map(Cell::Hex).into(), Id),
        (
            "mailbox_hwm",
            arena.map(|a| a.mailbox_slots_hwm).into(),
            Exact,
        ),
        ("route_hwm", arena.map(|a| a.route_slots_hwm).into(), Exact),
        ("ms", Cell::Float(elapsed_ms, 1), Wall),
        ("Mmsg/s", Cell::Float(messages as f64 / secs / 1e6, 3), Wall),
    ]);
}

/// Runs `program` on the sharded executor with a digest journal and appends
/// its scale row — so every such row carries an identity-gated
/// `digest_head` — returning the execution and the digest-chain head.
fn sharded_run<P>(
    rows: &mut Series,
    graph_name: &str,
    g: &Graph,
    program_name: &str,
    program: &P,
    shards: usize,
    threads: usize,
) -> (mfd_runtime::ShardedExecution<P::State>, DigestSink)
where
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    let mut sink = DigestSink::new();
    let t0 = std::time::Instant::now();
    let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
        .run_traced(g, program, &mut sink)
        .expect("program is model-compliant");
    scale_row(
        rows,
        "sharded",
        graph_name,
        (g.n(), g.m()),
        program_name,
        Some(shards),
        // 0 asks the engine for every available core.
        Some(threads).filter(|&t| t > 0),
        run.rounds,
        run.messages,
        Some(sink.head()),
        Some(run.arena),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    (run, sink)
}

/// R7 — the scale series: the sharded CSR executor against the reference
/// stepper on the acceptance families (bit-identical states, meters and
/// digest chains asserted in-process for every shard count), thread-scaling
/// curves and million-vertex BFS / LDD / executed-EDT runs on the streaming
/// generator families, written to `BENCH_scale.json`.
fn scale_report(heavy: bool) {
    let mut rows = Series::new("scale");
    const LDD: &str = "voronoi-ldd-1024";

    // --- Differential block: sharded vs reference stepper on the acceptance
    // families, digest chains journaled on both sides.
    for (name, g) in &acceptance_families() {
        let mut ref_sink = DigestSink::new();
        let t0 = std::time::Instant::now();
        let reference = Executor::new(ExecutorConfig::default())
            .run_traced(g, &BfsProgram { root: 0 }, &mut ref_sink)
            .expect("bfs is model-compliant");
        scale_row(
            &mut rows,
            "executor",
            name,
            (g.n(), g.m()),
            "bfs",
            None,
            None,
            reference.rounds,
            reference.messages,
            Some(ref_sink.head()),
            None,
            t0.elapsed().as_secs_f64() * 1e3,
        );

        for shards in [1, 4, 32] {
            let bfs = BfsProgram { root: 0 };
            let (run, sink) = sharded_run(&mut rows, name, g, "bfs", &bfs, shards, 2);
            assert_eq!(
                run.states, reference.states,
                "{name}/bfs/shards={shards}: sharded states must be bit-identical"
            );
            assert_eq!(run.rounds, reference.rounds);
            assert_eq!(run.messages, reference.messages);
            assert_eq!(
                sink.heads(),
                ref_sink.heads(),
                "{name}/bfs/shards={shards}: digest chains must match the reference stepper"
            );
        }
    }

    // --- Thread-scaling block: one million-vertex LDD, fixed shard count,
    // 1/2/4/8 worker threads — states and meters asserted invariant.
    let mesh = gen::mesh(1000, 1000);
    let centers: Vec<usize> = (0..1024).map(|i| (i * mesh.n()) / 1024).collect();
    let ldd = VoronoiLddProgram::new(mesh.n(), &centers);
    let mut thread_base: Option<(mfd_runtime::ShardedExecution<_>, u64)> = None;
    for threads in [1, 2, 4, 8] {
        let (run, sink) = sharded_run(&mut rows, "mesh-1000x1000", &mesh, LDD, &ldd, 64, threads);
        let head = sink.head();
        if let Some((base, base_head)) = &thread_base {
            assert_eq!(
                run.states, base.states,
                "mesh-1000x1000/ldd: states must be thread-invariant"
            );
            assert_eq!(run.messages, base.messages);
            assert_eq!(run.arena, base.arena, "arena HWMs must be thread-invariant");
            assert_eq!(
                head, *base_head,
                "mesh-1000x1000/ldd: digest head must be thread-invariant"
            );
        }
        if thread_base.is_none() {
            thread_base = Some((run, head));
        }
    }
    // Shard-count invariance at the same scale (shard count changes routing
    // and arena layout, so states, the meter, and the per-round digest chain
    // must agree while arena HWMs may differ). Checked, not reported.
    let mut sink17 = DigestSink::new();
    let run17 = ShardedExecutor::new(ShardedConfig::with_shards_threads(17, 0))
        .run_traced(&mesh, &ldd, &mut sink17)
        .expect("ldd is model-compliant");
    let (base, base_head) = thread_base.as_ref().expect("thread block ran");
    assert_eq!(
        run17.states, base.states,
        "mesh-1000x1000/ldd: states must be shard-invariant"
    );
    assert_eq!(run17.rounds, base.rounds);
    assert_eq!(run17.messages, base.messages);
    assert_eq!(
        sink17.head(),
        *base_head,
        "mesh-1000x1000/ldd: digest head must be shard-invariant"
    );

    // --- Million-vertex flagship block: BFS / LDD on every streaming
    // generator family, all cores.
    let flagship: [(&str, Graph); 3] = [
        ("mesh-1000x1000", mesh),
        ("rmat-20-ef4", gen::rmat(20, 4, 0x6d6664)),
        (
            "power-law-2^20",
            gen::power_law(1 << 20, 4 << 20, 2.5, 0x6d6664),
        ),
    ];
    for (name, g) in &flagship {
        let (run, _) = sharded_run(&mut rows, name, g, "bfs", &BfsProgram { root: 0 }, 64, 0);
        assert!(run.messages > 0, "{name}: bfs must flood");

        let centers: Vec<usize> = (0..1024).map(|i| (i * g.n()) / 1024).collect();
        let ldd = VoronoiLddProgram::new(g.n(), &centers);
        sharded_run(&mut rows, name, g, LDD, &ldd, 64, 0);
    }

    // --- Executed (ε, D, T) at a million vertices (the gathers and cluster
    // rounds run on the sharded engine, one shard per thread — the row's
    // `executor` label is part of its gated series key and stays). The mesh
    // family: power-law EDT is dominated by the hub clusters' gathers and
    // does not finish in CI time past n ≈ 2^14.
    let (name, g) = &flagship[0];
    let t0 = std::time::Instant::now();
    let (d, meter) = build_edt_with(g, &EdtConfig::new(EDT_SCALE_EPSILON), &Executed::default());
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        d.epsilon_achieved <= EDT_SCALE_EPSILON,
        "{name}: executed EDT must meet its ε target"
    );
    assert!(d.clustering.num_clusters() >= 1);
    scale_row(
        &mut rows,
        "executor",
        name,
        (g.n(), g.m()),
        &format!("edt-eps-{EDT_SCALE_EPSILON}"),
        None,
        None,
        meter.rounds(),
        meter.messages(),
        // The EDT pipeline is many runs stitched together (cluster gathers,
        // boundary rounds), not a single journaled execution — there is no
        // one digest chain to head. Stays null by design.
        None,
        None,
        elapsed_ms,
    );

    // --- Heavy block (`--heavy` only; out of the CI budget, run manually —
    // see docs/PROFILING.md): one 10⁷-vertex BFS. Deliberately absent from
    // `benches/baselines.json`: CI never passes `--heavy`, so the gate sees
    // identical series either way, and a manual heavy run only *adds* a row.
    if heavy {
        // Power-law rather than mesh: at 10⁷ vertices a mesh BFS runs for
        // ~6000 diameter rounds, while the power-law giant component floods
        // in a handful — the row measures engine throughput, not patience.
        let big = gen::power_law(10_000_000, 40_000_000, 2.5, 0x6d6664);
        let bfs = BfsProgram { root: 0 };
        let (run, _) = sharded_run(&mut rows, "power-law-10^7", &big, "bfs", &bfs, 256, 0);
        assert!(run.messages > 0, "power-law-10^7: bfs must flood");
    }

    rows.print(
        "R7 — scale: sharded CSR executor at 10^6 vertices \
         (sharded rows asserted bit-identical to the reference stepper / across \
         shard and thread counts in-process; threads `-` is every core; the \
         wall-clock columns are printed here and recorded nowhere)",
        &[
            "graph",
            "program",
            "engine",
            "shards",
            "threads",
            "rounds",
            "messages",
            "mail hwm=mailbox_hwm",
            "route hwm=route_hwm",
            "ms",
            "Mmsg/s",
        ],
    );
    rows.write();
}

/// ε target for the million-vertex executed (ε, D, T) row. At 0.5 the
/// construction takes ~70s on the mesh-1000x1000 family in release mode
/// (2866 rounds, 7·10⁸ messages, achieved ε ≈ 0.20) — the largest target
/// that still demonstrates a non-trivial decomposition in CI time.
const EDT_SCALE_EPSILON: f64 = 0.5;

/// Commit wall per stepped vertex, in ns (`commit wall ÷ frontier_total`):
/// what the commit phase costs per unit of work it resolves, whatever the
/// other phases cost.
fn commit_ns_per_stepped_vertex(p: &mfd_prof::Profile) -> f64 {
    p.phase_wall_totals()[PHASE_COMMIT] as f64 / p.frontier_total().max(1) as f64
}

/// Ceiling on [`commit_ns_per_stepped_vertex`] for the 8-thread mesh-LDD
/// row: 3.3× [`COMMIT_NS_PER_VERTEX_HERE`], the median of 10 runs on the
/// 2-core box the bound was set on (docs/PROFILING.md, "The profile gates").
const COMMIT_NS_PER_VERTEX_MAX: f64 = 900.0;
const COMMIT_NS_PER_VERTEX_HERE: f64 = 274.0;

/// One aggregate `BENCH_profile.json` row, with the section's per-run
/// assertions.
///
/// Identity: engine, graph, n, m, program, shards, threads, `digest_head`,
/// `frontier_total` and `traffic_total` — all deterministic, so a semantic
/// change fails the gate as a disappeared series. Every phase wall, the
/// derived `commit_frac`, attribution, occupancy and imbalance are wall
/// clock: they reach the table only.
#[allow(clippy::too_many_arguments)]
fn profile_row(
    rows: &mut Series,
    engine: &str,
    graph_name: &str,
    g: &Graph,
    program: &str,
    shards: usize,
    threads: usize,
    run: &mfd_bench::profiling::ProfiledRun,
) {
    let p = &run.profile;
    let walls = p.phase_wall_totals();
    let ms = |ns: u64| ns as f64 / 1e6;
    let attributed_pct = p.attribution() * 100.0;
    assert!(
        attributed_pct >= 95.0,
        "{graph_name}/{program}/t{threads}: only {attributed_pct:.1}% of wall time \
         attributed to named phases"
    );
    // The seal (digest fold) is a sub-span of the commit phase; both are
    // measured with their own clock brackets, so allow a little jitter.
    let (seal_ms, commit_ms) = (ms(p.seal_ns_total()), ms(walls[PHASE_COMMIT]));
    assert!(
        seal_ms <= commit_ms * 1.05 + 1.0,
        "{graph_name}/{program}/t{threads}: seal {seal_ms:.1} ms exceeds its \
         enclosing commit {commit_ms:.1} ms"
    );
    let step = p.phase_stats(PHASE_STEP);
    rows.row(vec![
        ("engine", engine.into(), Id),
        ("graph", graph_name.into(), Id),
        ("n", g.n().into(), Id),
        ("m", g.m().into(), Id),
        ("program", program.into(), Id),
        ("shards", shards.into(), Id),
        ("threads", threads.into(), Id),
        ("digest_head", Cell::Hex(run.digest_head), Id),
        ("frontier_total", p.frontier_total().into(), Id),
        (
            "traffic_total",
            p.traffic_totals().iter().sum::<u64>().into(),
            Id,
        ),
        ("rounds", run.rounds.into(), Gated),
        ("messages", run.messages.into(), Gated),
        ("scan ms", Cell::Float(ms(walls[PHASE_SCAN]), 1), Wall),
        ("step ms", Cell::Float(ms(walls[PHASE_STEP]), 1), Wall),
        ("route ms", Cell::Float(ms(walls[PHASE_ROUTE]), 1), Wall),
        ("exch ms", Cell::Float(ms(walls[PHASE_EXCHANGE]), 1), Wall),
        ("deliver ms", Cell::Float(ms(walls[PHASE_DELIVER]), 1), Wall),
        ("commit ms", Cell::Float(commit_ms, 1), Wall),
        ("seal ms", Cell::Float(seal_ms, 1), Wall),
        ("c.frac", Cell::Float(p.commit_frac(), 3), Wall),
        (
            "c ns/vtx",
            Cell::Float(commit_ns_per_stepped_vertex(p), 1),
            Wall,
        ),
        ("other ms", Cell::Float(ms(p.unattributed_ns()), 1), Wall),
        ("total ms", Cell::Float(run.elapsed_ms, 1), Wall),
        ("attr %", Cell::Float(attributed_pct, 1), Wall),
        ("occ(step)", Cell::Float(step.occupancy, 3), Wall),
        ("imb(step)", Cell::Float(step.imbalance, 3), Wall),
    ]);
}

/// R8 — the profile series: wall-clock phase breakdowns of the scale
/// workloads under the `mfd-prof` overlay, printed as a table; the
/// deterministic columns are written to `BENCH_profile.json`.
///
/// Every run is verified in-process: the profiled execution's states,
/// meters and digest chains are asserted bit-identical to an unprofiled
/// run (perturbation-freedom), the traffic matrix is asserted to account
/// the router exactly, digest heads are asserted thread-invariant, and at
/// least 95% of every run's wall time must be attributed to named phases
/// (the remainder is printed as `other ms`, never hidden).
fn profile_report() {
    let mut rows = Series::new("profile");
    // One shard's breakdown of the widest sweep run — the per-shard rows
    // behind the straggler claims, appended after the aggregate table.
    let mut shard_rows = Vec::new();

    // --- Thread sweep on the flat-curve workload: mesh-1000x1000 LDD,
    // 64 shards, 1/2/4/8 worker threads. The per-phase walls say *where*
    // the extra threads go (or fail to).
    let mesh = gen::mesh(1000, 1000);
    let mut sweep_head: Option<u64> = None;
    for threads in [1, 2, 4, 8] {
        let label = format!("mesh-1000x1000/ldd-1024/t{threads}");
        let run = profile_sharded_algo(&mesh, Algo::Ldd(1024), 64, threads, &label);
        if let Some(head) = sweep_head {
            assert_eq!(
                head, run.digest_head,
                "{label}: digest head must be thread-invariant"
            );
        }
        sweep_head = Some(run.digest_head);
        let p = &run.profile;

        // Commit-path sanity gates. Deliberately machine-tolerant: CI
        // containers are frequently single-core, where an 8-thread occupancy
        // floor would measure the box, not the code. What is
        // machine-independent: (a) at 1 thread the sweep's busy time must
        // cover its wall (occupancy ≈ 1), and (b) commit — just hook delivery
        // plus the deferred fold, with per-vertex digests computed inside the
        // sweep — must stay cheap per stepped vertex, in absolute terms: a
        // share of the round wall tightens whenever another phase gets faster.
        if threads == 1 {
            let occupancy = p.phase_stats(PHASE_STEP).occupancy;
            assert!(
                occupancy >= 0.90,
                "mesh-1000x1000/t1: step occupancy {occupancy:.3} < 0.90 — the sweep \
                 lost its parallel region"
            );
        }
        if threads == 8 {
            // The straggler view of the widest run: per-shard rows plus a
            // human-readable summary on stdout.
            println!("```\n{}```", p.summary());
            let per_vertex = commit_ns_per_stepped_vertex(p);
            assert!(
                per_vertex <= COMMIT_NS_PER_VERTEX_MAX,
                "mesh-1000x1000/t8: commit costs {per_vertex:.1} ns per stepped vertex \
                 (commit wall ÷ frontier_total) > the {COMMIT_NS_PER_VERTEX_MAX} ns bound \
                 (median {COMMIT_NS_PER_VERTEX_HERE} ns where it was set) — the sequential \
                 resolution point is re-absorbing work that belongs in the parallel region \
                 (digest computation or the batched fold)"
            );
            let frontier = p.frontier_totals();
            let received = p.delivered_totals();
            let sent = p.sent_totals();
            for shard in 0..p.shards {
                shard_rows.push(vec![
                    ("engine", "sharded".into(), Id),
                    ("graph", "mesh-1000x1000".into(), Id),
                    ("program", "voronoi-ldd-1024".into(), Id),
                    ("shards", 64usize.into(), Id),
                    ("threads", threads.into(), Id),
                    ("shard", shard.into(), Id),
                    ("frontier", frontier[shard].into(), Id),
                    ("received", received[shard].into(), Id),
                    ("rounds", run.rounds.into(), Gated),
                    ("messages", sent[shard].into(), Gated),
                ]);
            }
        }
        profile_row(
            &mut rows,
            "sharded",
            "mesh-1000x1000",
            &mesh,
            "voronoi-ldd-1024",
            64,
            threads,
            &run,
        );
    }

    // --- A skewed-degree workload: RMAT BFS, where traffic concentrates.
    let rmat = gen::rmat(20, 4, 0x6d6664);
    let run = profile_sharded_algo(&rmat, Algo::Bfs, 64, 8, "rmat-20-ef4/bfs/t8");
    profile_row(
        &mut rows,
        "sharded",
        "rmat-20-ef4",
        &rmat,
        "bfs",
        64,
        8,
        &run,
    );

    // --- The generators' triangulated grid under the same overlay, on
    // one shard — the gated `engine=executor|shards=1|threads=2` series.
    let grid = generators::triangulated_grid(100, 100);
    let run = profile_sharded_algo(&grid, Algo::Ldd(64), 1, 2, "tri-grid-100x100/ldd-64");
    profile_row(
        &mut rows,
        "executor",
        "tri-grid-100x100",
        &grid,
        "voronoi-ldd-64",
        1,
        2,
        &run,
    );

    rows.print(
        "R8 — profile: wall-clock phase attribution under the mfd-prof overlay \
         (every run asserted bit-identical to its unprofiled twin in-process; \
         every column right of `rounds` is wall clock, printed here and \
         recorded nowhere)",
        &[
            "graph",
            "program",
            "threads",
            "rounds",
            "scan ms",
            "step ms",
            "route ms",
            "exch ms",
            "deliver ms",
            "commit ms",
            "seal ms",
            "c.frac",
            "c ns/vtx",
            "other ms",
            "total ms",
            "attr %",
            "occ(step)",
            "imb(step)",
        ],
    );
    shard_rows.into_iter().for_each(|row| rows.row(row));
    rows.write();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_section_message_stays_exhaustive() {
        // Every section the report can run is named in the diagnostic, and
        // the diagnostic names nothing else.
        let msg = unknown_section_message("bogus");
        assert!(msg.contains("\"bogus\""));
        assert!(msg.contains("--list-sections"));
        let listed: Vec<&str> = msg
            .lines()
            .nth(1)
            .expect("second line lists sections")
            .trim_start_matches("valid sections: ")
            .trim_end_matches(" (or run with --list-sections)")
            .split(", ")
            .collect();
        let mut expected: Vec<&str> = section_names().collect();
        expected.push("all");
        assert_eq!(listed, expected);
    }

    #[test]
    fn section_names_are_unique_and_end_with_profile() {
        let names: Vec<&str> = section_names().collect();
        assert_eq!(names.len(), 20);
        assert_eq!(names.last(), Some(&"profile"));
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "section {name:?} listed twice");
        }
    }
}
