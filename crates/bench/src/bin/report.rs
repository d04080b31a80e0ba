//! Regenerates every table/figure-style series of the paper's quantitative claims
//! (see DESIGN.md §5 for the experiment index) and prints them as markdown tables.
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
use mfd_bench::{acceptance_families, f3, unknown_section_message, Table, SECTIONS};
use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt, build_edt_csr, build_edt_traced, EdtConfig};
use mfd_core::expander::{
    min_cluster_conductance, minor_free_expander_decomposition, ExpanderParams,
};
use mfd_core::ldd::{chop_ldd, measure_ldd, region_growing_ldd};
use mfd_core::overlap::{overlap_expander_decomposition, OverlapParams};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram, VoronoiLddProgram};
use mfd_faults::{crash_and_regather, gather_raw, gather_recovered, FaultModel, Reliable};
use mfd_graph::generators;
use mfd_graph::properties::splitmix64;
use mfd_graph::{gen, CsrGraph};
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

fn main() {
    let mut sections: Vec<String> = Vec::new();
    let mut heavy = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--list-sections" {
            for section in SECTIONS {
                println!("{section}");
            }
            return;
        }
        if arg == "--heavy" {
            heavy = true;
            continue;
        }
        if arg == "--section" {
            let name = args
                .next()
                .expect("--section requires a section name argument");
            sections.push(name);
        } else {
            sections.push(arg);
        }
    }
    for section in &sections {
        if section != "all" && !SECTIONS.contains(&section.as_str()) {
            eprintln!("{}", unknown_section_message(section));
            std::process::exit(2);
        }
    }
    let want =
        |section: &str| sections.is_empty() || sections.iter().any(|a| a == section || a == "all");

    println!("# Measured reproduction report\n");
    println!("All round counts are CONGEST rounds measured by the simulator; README.md (\"Benchmarks and reports\") says what each section measures.\n");

    if want("table1") {
        table1();
    }
    if want("scaling_n") {
        scaling_n();
    }
    if want("scaling_eps") {
        scaling_eps();
    }
    if want("ldd") {
        ldd_report();
    }
    if want("expander") {
        expander_report();
    }
    if want("overlap") {
        overlap_report();
    }
    if want("routing") {
        routing_report();
    }
    if want("mis") || want("matching_vc") || want("maxcut") {
        applications_report();
    }
    if want("ptest") {
        property_testing_report();
    }
    if want("ablations") {
        ablations_report();
    }
    if want("runtime") {
        runtime_report();
    }
    if want("gather") {
        gather_report();
    }
    if want("faults") {
        faults_report();
    }
    if want("edt") {
        edt_report();
    }
    if want("trace") {
        trace_report();
    }
    if want("replay") {
        replay_report();
    }
    if want("scale") {
        scale_report(heavy);
    }
    if want("profile") {
        profile_report();
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
    let cases: Vec<(&str, &str, mfd_graph::Graph, f64)> = vec![
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
    let mut cases: Vec<(String, mfd_graph::Graph)> = Vec::new();
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

/// Ablations called out in DESIGN.md §6.
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

/// One engine/graph/program measurement destined for `BENCH_runtime.json`.
struct RuntimeRow {
    engine: &'static str,
    latency: Option<&'static str>,
    graph: String,
    n: usize,
    m: usize,
    program: &'static str,
    rounds: u64,
    messages: u64,
    makespan: Option<u64>,
}

impl RuntimeRow {
    fn to_json(&self) -> String {
        let latency = match self.latency {
            Some(l) => format!("\"{l}\""),
            None => "null".to_string(),
        };
        let makespan = match self.makespan {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"engine\":\"{}\",\"latency\":{},\"graph\":\"{}\",\"n\":{},\"m\":{},\
             \"program\":\"{}\",\"rounds\":{},\"messages\":{},\"makespan\":{}}}",
            self.engine,
            latency,
            self.graph,
            self.n,
            self.m,
            self.program,
            self.rounds,
            self.messages,
            makespan
        )
    }
}

/// Runs `program` under the synchronous executor and the simulator's latency
/// models, appending one row per engine.
fn run_engines<P: NodeProgram>(
    g: &mfd_graph::Graph,
    csr: &CsrGraph,
    program: &P,
    graph_name: &str,
    prog_name: &'static str,
    rows: &mut Vec<RuntimeRow>,
) {
    let cfg = ExecutorConfig::default();
    let sync = mfd_bench::sync_executor(&cfg)
        .run(csr, program)
        .expect("program is model-compliant");
    rows.push(RuntimeRow {
        engine: "executor",
        latency: None,
        graph: graph_name.to_string(),
        n: g.n(),
        m: g.m(),
        program: prog_name,
        rounds: sync.rounds,
        messages: sync.messages,
        makespan: None,
    });
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
        rows.push(RuntimeRow {
            engine: "sim",
            latency: Some(name),
            graph: graph_name.to_string(),
            n: g.n(),
            m: g.m(),
            program: prog_name,
            rounds: run.rounds,
            messages: run.messages,
            makespan: Some(run.makespan),
        });
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
    let mut rows: Vec<RuntimeRow> = Vec::new();
    for (name, g) in &families {
        let csr = CsrGraph::from_graph(g);
        run_engines(g, &csr, &BfsProgram { root: 0 }, name, "bfs", &mut rows);

        let mut meter = RoundMeter::new();
        let tree = mfd_congest::primitives::build_bfs_tree(g, None, 0, &mut meter);
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
        run_engines(g, &csr, &cv, name, "cole-vishkin", &mut rows);

        let centers: Vec<usize> = (0..8).map(|i| (i * g.n()) / 8).collect();
        let voronoi = VoronoiLddProgram::new(g.n(), &centers);
        run_engines(g, &csr, &voronoi, name, "voronoi-ldd-8", &mut rows);
    }

    let mut table = Table::new(
        "R1 — execution engines: synchronous rounds vs simulated makespan \
         (rounds and messages are engine-invariant)",
        &[
            "graph", "program", "engine", "latency", "rounds", "messages", "makespan",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.graph.clone(),
            r.program.to_string(),
            r.engine.to_string(),
            r.latency.unwrap_or("-").to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.makespan.map_or("-".to_string(), |t| t.to_string()),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/runtime/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(RuntimeRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_runtime.json";
    std::fs::write(path, json).expect("write BENCH_runtime.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// One gather measurement destined for `BENCH_gather.json`: a strategy on a
/// graph family, in one mode (the metered charge, the synchronous executor,
/// or the event simulator under a latency model).
struct GatherRow {
    graph: String,
    n: usize,
    m: usize,
    strategy: &'static str,
    mode: &'static str,
    latency: Option<&'static str>,
    f: f64,
    rounds: u64,
    messages: u64,
    delivered: f64,
    makespan: Option<u64>,
}

impl GatherRow {
    fn to_json(&self) -> String {
        let latency = match self.latency {
            Some(l) => format!("\"{l}\""),
            None => "null".to_string(),
        };
        let makespan = match self.makespan {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"strategy\":\"{}\",\"mode\":\"{}\",\
             \"latency\":{},\"f\":{:.3},\"rounds\":{},\"messages\":{},\
             \"delivered\":{:.6},\"makespan\":{}}}",
            self.graph,
            self.n,
            self.m,
            self.strategy,
            self.mode,
            latency,
            self.f,
            self.rounds,
            self.messages,
            self.delivered,
            makespan
        )
    }
}

/// Runs one gather program under the synchronous executor and the simulator's
/// latency models, asserting engine invariance and the charged-bound
/// contract, and appends one row per engine.
#[allow(clippy::too_many_arguments)]
fn run_gather_engines<P: GatherProgram>(
    g: &mfd_graph::Graph,
    program: &P,
    graph_name: &str,
    f: f64,
    charged_rounds: u64,
    rows: &mut Vec<GatherRow>,
) {
    let cfg = ExecutorConfig::default();
    let (report, sync) =
        execute_gather(g, program, &cfg).expect("gather program is model-compliant");
    assert!(
        report.rounds <= charged_rounds,
        "{} on {graph_name}: executed {} rounds exceed the charged bound {}",
        program.strategy_name(),
        report.rounds,
        charged_rounds
    );
    rows.push(GatherRow {
        graph: graph_name.to_string(),
        n: g.n(),
        m: g.m(),
        strategy: program.strategy_name(),
        mode: "executor",
        latency: None,
        f,
        rounds: report.rounds,
        messages: report.messages,
        delivered: report.delivered_fraction,
        makespan: None,
    });
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
        let sim_report = program.executed_report(&sim.states, sim.rounds, sim.messages);
        rows.push(GatherRow {
            graph: graph_name.to_string(),
            n: g.n(),
            m: g.m(),
            strategy: program.strategy_name(),
            mode: "sim",
            latency: Some(name),
            f,
            rounds: sim_report.rounds,
            messages: sim_report.messages,
            delivered: sim_report.delivered_fraction,
            makespan: Some(sim.makespan),
        });
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
    let mut rows: Vec<GatherRow> = Vec::new();
    for (name, g) in &families {
        let leader = mfd_bench::acceptance_leader(g);
        let metered_row = |strategy: &'static str, f, rounds, messages, delivered| GatherRow {
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            strategy,
            mode: "metered",
            latency: None,
            f,
            rounds,
            messages,
            delivered,
            makespan: None,
        };

        let mut meter = RoundMeter::new();
        let charged = mfd_routing::gather::tree_gather(g, leader, &mut meter);
        rows.push(metered_row(
            "tree-pipeline",
            f,
            charged.rounds,
            meter.messages(),
            charged.delivered_fraction,
        ));
        let tree = TreeGatherProgram::new(g, leader);
        run_gather_engines(g, &tree, name, f, charged.rounds, &mut rows);

        let plan = LoadBalancePlan::new(g, &LoadBalanceParams::default());
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::load_balance::load_balance_gather_with_plan(
            g, leader, f, &plan, &mut meter,
        );
        rows.push(metered_row(
            "load-balance",
            f,
            charged.rounds,
            meter.messages(),
            charged.delivered_fraction,
        ));
        let lb = LoadBalanceProgram::new(g, leader, f, &plan);
        run_gather_engines(g, &lb, name, f, charged.rounds, &mut rows);

        let plan = mfd_routing::walks::plan_walk_schedule(g, leader, walk_f, &walk_params);
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::walks::execute_walk_gather(g, &plan, &walk_params, &mut meter);
        rows.push(metered_row(
            "walk-schedule",
            walk_f,
            charged.rounds,
            meter.messages(),
            charged.delivered_fraction,
        ));
        let walk = WalkScheduleProgram::new(g, &plan);
        run_gather_engines(g, &walk, name, walk_f, charged.rounds, &mut rows);
    }

    let mut table = Table::new(
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
    for r in &rows {
        table.row(vec![
            r.graph.clone(),
            r.strategy.to_string(),
            r.mode.to_string(),
            r.latency.unwrap_or("-").to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            f3(r.delivered),
            r.makespan.map_or("-".to_string(), |t| t.to_string()),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/gather/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(GatherRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_gather.json";
    std::fs::write(path, json).expect("write BENCH_gather.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// One fault-experiment measurement destined for `BENCH_faults.json`.
struct FaultRow {
    graph: String,
    n: usize,
    m: usize,
    strategy: &'static str,
    fault: &'static str,
    /// `raw` (faults reach the program), `reliable` (behind the adapter) or
    /// `crash` (re-election + re-gather).
    mode: &'static str,
    f: f64,
    rounds: u64,
    messages: u64,
    delivered: f64,
    retransmits: Option<u64>,
    excused: Option<u64>,
    wedged: bool,
}

impl FaultRow {
    fn to_json(&self) -> String {
        let retransmits = match self.retransmits {
            Some(x) => x.to_string(),
            None => "null".to_string(),
        };
        let excused = match self.excused {
            Some(x) => x.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"strategy\":\"{}\",\"fault\":\"{}\",\
             \"mode\":\"{}\",\"f\":{:.3},\"rounds\":{},\"messages\":{},\
             \"delivered\":{:.6},\"retransmits\":{},\"excused\":{},\"wedged\":{}}}",
            self.graph,
            self.n,
            self.m,
            self.strategy,
            self.fault,
            self.mode,
            self.f,
            self.rounds,
            self.messages,
            self.delivered,
            retransmits,
            excused,
            self.wedged
        )
    }
}

/// Runs one gather program raw and behind [`Reliable`] under one fault
/// model, appending both rows.
#[allow(clippy::too_many_arguments)]
fn run_fault_scenario<P>(
    g: &mfd_graph::Graph,
    program: &P,
    graph_name: &str,
    f: f64,
    fault_name: &'static str,
    model: &FaultModel,
    rows: &mut Vec<FaultRow>,
) where
    P: mfd_routing::programs::GatherProgram + Clone,
    P::State: Clone,
{
    let config = SimConfig::default();
    let raw = gather_raw(g, program, &config, model).expect("raw faulty run is model-compliant");
    rows.push(FaultRow {
        graph: graph_name.to_string(),
        n: g.n(),
        m: g.m(),
        strategy: program.strategy_name(),
        fault: fault_name,
        mode: "raw",
        f,
        rounds: raw.gather.rounds,
        messages: raw.gather.messages,
        delivered: raw.gather.delivered_fraction,
        retransmits: None,
        excused: None,
        wedged: raw.wedged,
    });
    let reliable = Reliable::new(program.clone());
    let rec =
        gather_recovered(g, &reliable, &config, model).expect("recovered run is model-compliant");
    assert!(
        !rec.wedged,
        "{} on {graph_name} under {fault_name}: the adapter itself starved",
        program.strategy_name()
    );
    let stats = rec.reliable.expect("recovered run reports transport stats");
    rows.push(FaultRow {
        graph: graph_name.to_string(),
        n: g.n(),
        m: g.m(),
        strategy: program.strategy_name(),
        fault: fault_name,
        mode: "reliable",
        f,
        rounds: rec.gather.rounds,
        messages: rec.gather.messages,
        delivered: rec.gather.delivered_fraction,
        retransmits: Some(stats.retransmitted),
        excused: Some(stats.excused),
        wedged: rec.wedged,
    });
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
    let mut rows: Vec<FaultRow> = Vec::new();
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
        rows.push(FaultRow {
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            strategy: "crash-reelect",
            fault: "crash-leader-r5",
            mode: "crash",
            f,
            rounds: crash.election_rounds + crash.regather.rounds,
            messages: crash.election_messages + crash.regather.messages,
            delivered: crash.regather.delivered_fraction,
            retransmits: None,
            excused: None,
            wedged: false,
        });
    }

    let mut table = Table::new(
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
    for r in &rows {
        table.row(vec![
            r.graph.clone(),
            r.strategy.to_string(),
            r.fault.to_string(),
            r.mode.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            f3(r.delivered),
            r.retransmits.map_or("-".to_string(), |x| x.to_string()),
            r.excused.map_or("-".to_string(), |x| x.to_string()),
            r.wedged.to_string(),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/faults/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(FaultRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_faults.json";
    std::fs::write(path, json).expect("write BENCH_faults.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// One (ε, D, T)-construction measurement destined for `BENCH_edt.json`:
/// a backend on a graph family, split into the construction and routing
/// phases of Table 1.
struct EdtRow {
    graph: String,
    n: usize,
    m: usize,
    eps: f64,
    backend: &'static str,
    phase: &'static str,
    rounds: u64,
    messages: u64,
    delivered: Option<f64>,
    /// Largest per-cluster round count of the routing gathers (routing-phase
    /// rows only; the parallel fold otherwise collapses it into a max).
    cluster_rounds_max: Option<u64>,
    /// Summed per-cluster messages of the routing gathers.
    cluster_messages: Option<u64>,
}

impl EdtRow {
    fn to_json(&self) -> String {
        let delivered = match self.delivered {
            Some(d) => format!("{d:.6}"),
            None => "null".to_string(),
        };
        let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"eps\":{:.3},\"backend\":\"{}\",\
             \"phase\":\"{}\",\"rounds\":{},\"messages\":{},\"delivered\":{},\
             \"cluster_rounds_max\":{},\"cluster_messages\":{}}}",
            self.graph,
            self.n,
            self.m,
            self.eps,
            self.backend,
            self.phase,
            self.rounds,
            self.messages,
            delivered,
            opt(self.cluster_rounds_max),
            opt(self.cluster_messages)
        )
    }
}

/// R4 — the (ε, D, T)-construction end to end, metered charge vs the
/// `Executed` backend (every gather and cluster-graph round run as a real
/// `NodeProgram`), written to `BENCH_edt.json` for the CI determinism diff
/// and regression gate. The differential contract — identical partition,
/// executed ≤ charged per phase — is asserted in-process, so a regression
/// fails the report itself, not just the gate.
fn edt_report() {
    let families = mfd_bench::edt_acceptance_families();
    let mut rows: Vec<EdtRow> = Vec::new();
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
            rows.push(EdtRow {
                graph: name.to_string(),
                n: g.n(),
                m: g.m(),
                eps: *eps,
                backend: d.backend,
                phase: "construction",
                rounds: d.construction_rounds,
                messages: meter.messages() - routing_messages,
                delivered: None,
                cluster_rounds_max: None,
                cluster_messages: None,
            });
            rows.push(EdtRow {
                graph: name.to_string(),
                n: g.n(),
                m: g.m(),
                eps: *eps,
                backend: d.backend,
                phase: "routing",
                rounds: d.routing_rounds,
                messages: routing_messages,
                delivered: Some(d.min_delivered_fraction),
                cluster_rounds_max: Some(sink.max_cluster_rounds()),
                cluster_messages: Some(sink.cluster_messages()),
            });
        }
    }

    let mut table = Table::new(
        "R4 — (ε, D, T)-construction: metered charge vs executed backend \
         (identical partitions; executed ≤ charged per phase)",
        &[
            "graph",
            "ε",
            "backend",
            "phase",
            "rounds",
            "messages",
            "delivered",
            "cluster rounds (max)",
            "cluster messages",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.graph.clone(),
            f3(r.eps),
            r.backend.to_string(),
            r.phase.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.delivered.map_or("-".to_string(), f3),
            r.cluster_rounds_max
                .map_or("-".to_string(), |x| x.to_string()),
            r.cluster_messages
                .map_or("-".to_string(), |x| x.to_string()),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/edt/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(EdtRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_edt.json";
    std::fs::write(path, json).expect("write BENCH_edt.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// One trace-surface measurement destined for `BENCH_trace.json`: a traced
/// program on an acceptance family under one engine — event/span counts and
/// the digest-chain head — or an edt construction's span accounting.
struct TraceRow {
    program: &'static str,
    graph: String,
    n: usize,
    m: usize,
    engine: &'static str,
    rounds: u64,
    messages: u64,
    events: u64,
    spans: u64,
    /// Digest-chain head over all sealed rounds (hex), when state digests
    /// are part of the row (engine runs; the edt span rows have none).
    digest: Option<String>,
}

impl TraceRow {
    fn to_json(&self) -> String {
        let digest = match &self.digest {
            Some(d) => format!("\"{d}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"program\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},\"engine\":\"{}\",\
             \"rounds\":{},\"messages\":{},\"events\":{},\"spans\":{},\"digest\":{}}}",
            self.program,
            self.graph,
            self.n,
            self.m,
            self.engine,
            self.rounds,
            self.messages,
            self.events,
            self.spans,
            digest
        )
    }
}

/// Runs one program under both engines with a `Tee(MetricsSink, DigestSink)`
/// and appends one row per engine. The digest heads must agree (unit-latency
/// engine equivalence, checked here so a divergence fails the report).
fn run_trace_engines<P>(
    g: &mfd_graph::Graph,
    csr: &CsrGraph,
    program: &P,
    graph_name: &str,
    prog_name: &'static str,
    rows: &mut Vec<TraceRow>,
) where
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    let cfg = ExecutorConfig::default();
    let mut sink = Tee::new(MetricsSink::new(), DigestSink::new());
    let sync = mfd_bench::sync_executor(&cfg)
        .run_traced(csr, program, &mut sink)
        .expect("program is model-compliant");
    let head = sink.b.head();
    rows.push(TraceRow {
        program: prog_name,
        graph: graph_name.to_string(),
        n: g.n(),
        m: g.m(),
        engine: "executor",
        rounds: sync.rounds,
        messages: sync.messages,
        events: sink.a.total_events(),
        spans: sink.a.spans.len() as u64,
        digest: Some(format!("{head:016x}")),
    });
    let mut sim_sink = Tee::new(MetricsSink::new(), DigestSink::new());
    let sim = Simulator::new(SimConfig::matching(&cfg, LatencyModel::Fixed(1)))
        .run_traced(g, program, &mut sim_sink)
        .expect("program is model-compliant");
    assert_eq!(
        sim_sink.b.head(),
        head,
        "{prog_name} on {graph_name}: engines disagree on the digest chain"
    );
    rows.push(TraceRow {
        program: prog_name,
        graph: graph_name.to_string(),
        n: g.n(),
        m: g.m(),
        engine: "sim-fixed-1",
        rounds: sim.rounds,
        messages: sim.messages,
        events: sim_sink.a.total_events(),
        spans: sim_sink.a.spans.len() as u64,
        digest: Some(format!("{:016x}", sim_sink.b.head())),
    });
}

/// R5 — the observability surface itself: per program × family × engine
/// event/span counts and the digest-chain head, plus the edt constructions'
/// span accounting, written to `BENCH_trace.json`. CI regenerates the file
/// twice and byte-diffs it — the determinism contract of `mfd-trace`,
/// machine-checked.
fn trace_report() {
    let mut rows: Vec<TraceRow> = Vec::new();
    for (name, g) in &mfd_bench::acceptance_families() {
        let csr = CsrGraph::from_graph(g);
        run_trace_engines(g, &csr, &BfsProgram { root: 0 }, name, "bfs", &mut rows);

        let mut meter = RoundMeter::new();
        let tree = mfd_congest::primitives::build_bfs_tree(g, None, 0, &mut meter);
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
        run_trace_engines(g, &csr, &cv, name, "cole-vishkin", &mut rows);

        let centers: Vec<usize> = (0..8).map(|i| (i * g.n()) / 8).collect();
        let voronoi = VoronoiLddProgram::new(g.n(), &centers);
        run_trace_engines(g, &csr, &voronoi, name, "voronoi-ldd-8", &mut rows);
    }

    // The edt constructions' phase spans: merge/refine/routing rounds and
    // messages per span, plus one cluster_run event per routing gather.
    for (name, g, eps) in &mfd_bench::edt_acceptance_families() {
        let config = EdtConfig::new(*eps);
        for backend_rows in [
            {
                let mut sink = MetricsSink::new();
                let (_, meter) = build_edt_traced(g, &config, &Metered, &mut sink);
                ("edt-metered", sink, meter)
            },
            {
                let mut sink = MetricsSink::new();
                let (_, meter) = build_edt_traced(g, &config, &Executed::default(), &mut sink);
                ("edt-executed", sink, meter)
            },
        ] {
            let (engine, sink, meter) = backend_rows;
            rows.push(TraceRow {
                program: "edt",
                graph: name.to_string(),
                n: g.n(),
                m: g.m(),
                engine,
                rounds: meter.rounds(),
                messages: meter.messages(),
                events: sink.total_events(),
                spans: sink.spans.len() as u64,
                digest: None,
            });
        }
    }

    let mut table = Table::new(
        "R5 — trace surface: event/span counts and digest-chain heads \
         (engines agree on every head; the JSON is byte-diffed in CI)",
        &[
            "program", "graph", "engine", "rounds", "messages", "events", "spans", "digest",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.program.to_string(),
            r.graph.clone(),
            r.engine.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.events.to_string(),
            r.spans.to_string(),
            r.digest.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/trace/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(TraceRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_trace.json";
    std::fs::write(path, json).expect("write BENCH_trace.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// One replay-surface measurement destined for `BENCH_replay.json`: a
/// journaled probe run on an acceptance family under one engine
/// configuration, resumed from its middle checkpoint — the resumed digest
/// chain is asserted equal to the uninterrupted run's chain round for round
/// **before** a byte of JSON is written, so a resume-equality regression
/// fails the report instead of shipping a stale-looking series.
struct ReplayRow {
    graph: String,
    n: usize,
    engine: &'static str,
    faults: &'static str,
    every: u64,
    checkpoint_round: u64,
    rounds: u64,
    messages: u64,
    /// Snapshot-codec payload bytes of the checkpoint the resume restored.
    checkpoint_bytes: u64,
    /// Rounds the resumed engine re-executed after the restore.
    rounds_replayed: u64,
    /// Digest-chain head over all sealed rounds (hex) — equal between the
    /// uninterrupted and resumed runs by the in-process assertion.
    head: String,
}

impl ReplayRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"engine\":\"{}\",\"faults\":\"{}\",\"every\":{},\
             \"checkpoint_round\":{},\"rounds\":{},\"messages\":{},\"checkpoint_bytes\":{},\
             \"rounds_replayed\":{},\"head\":\"{}\"}}",
            self.graph,
            self.n,
            self.engine,
            self.faults,
            self.every,
            self.checkpoint_round,
            self.rounds,
            self.messages,
            self.checkpoint_bytes,
            self.rounds_replayed,
            self.head
        )
    }
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
    let mut rows: Vec<ReplayRow> = Vec::new();

    // The checkpoint every resume restores: the journal's middle one, so
    // rounds_replayed measures a genuine suffix re-execution.
    fn mid(journal: &mfd_replay::Journal) -> &mfd_replay::JournalCheckpoint {
        &journal.checkpoints[journal.checkpoints.len() / 2]
    }

    for (name, g) in &mfd_bench::acceptance_families() {
        let csr = CsrGraph::from_graph(g);
        let full = executor_journal(&csr, &probe, &cfg, EVERY, name).expect("probe runs");
        let cp = mid(&full.journal);
        let resumed =
            resume_executor(&full.journal, cp.round, &csr, &probe, &cfg).expect("resumes");
        assert_eq!(
            resumed.sink.chain(),
            full.sink.chain(),
            "{name}/executor: resumed chain must equal the uninterrupted chain"
        );
        assert_eq!(resumed.run.states, full.run.states);
        rows.push(ReplayRow {
            graph: name.to_string(),
            n: g.n(),
            engine: "executor",
            faults: "none",
            every: EVERY,
            checkpoint_round: cp.round,
            rounds: full.run.rounds,
            messages: full.run.messages,
            checkpoint_bytes: cp.payload.len() as u64,
            rounds_replayed: resumed.rounds_replayed,
            head: format!("{:016x}", full.sink.head()),
        });

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
            rows.push(ReplayRow {
                graph: name.to_string(),
                n: g.n(),
                engine,
                faults: "none",
                every: EVERY,
                checkpoint_round: cp.round,
                rounds: full_run.rounds,
                messages: full_run.messages,
                checkpoint_bytes: cp.payload.len() as u64,
                rounds_replayed: resumed.rounds_replayed,
                head: format!("{:016x}", full.sink.head()),
            });
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
        rows.push(ReplayRow {
            graph: name.to_string(),
            n: g.n(),
            engine: "sim-skewed",
            faults: "iid-loss-0.2+reliable",
            every: EVERY,
            checkpoint_round: cp.round,
            rounds: full.run.run.rounds,
            messages: full.run.run.messages,
            checkpoint_bytes: cp.payload.len() as u64,
            rounds_replayed: resumed.rounds_replayed,
            head: format!("{:016x}", full.sink.head()),
        });
    }

    let mut table = Table::new(
        "R6 — replay surface: checkpoint journal sizes and bit-identical resume \
         (every row's resumed chain asserted equal to the uninterrupted run's)",
        &[
            "graph",
            "engine",
            "faults",
            "ckpt@",
            "rounds",
            "messages",
            "ckpt bytes",
            "replayed",
            "head",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.graph.clone(),
            r.engine.to_string(),
            r.faults.to_string(),
            r.checkpoint_round.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.checkpoint_bytes.to_string(),
            r.rounds_replayed.to_string(),
            r.head.clone(),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/replay/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(ReplayRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_replay.json";
    std::fs::write(path, json).expect("write BENCH_replay.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// One sharded-executor measurement destined for `BENCH_scale.json`.
///
/// Identity fields: engine, graph, n, m, program, shards, threads and (where
/// journaled) `digest_head` — so a semantic change to an engine fails the
/// gate loudly as a disappeared series rather than sliding under a numeric
/// tolerance. Gated metrics: rounds, messages. `mailbox_hwm`/`route_hwm` are
/// deterministic envelope-count high-water marks (byte-diffed, ungated);
/// `elapsed_ms`/`mps`/`rps` are wall clock — ungated and normalized away
/// before CI's determinism byte-diff.
struct ScaleRow {
    engine: &'static str,
    graph: String,
    n: usize,
    m: usize,
    program: String,
    /// `None` on reference-stepper rows.
    shards: Option<usize>,
    /// `None` means "all available cores".
    threads: Option<usize>,
    rounds: u64,
    messages: u64,
    digest_head: Option<u64>,
    mailbox_hwm: Option<u64>,
    route_hwm: Option<u64>,
    elapsed_ms: f64,
}

impl ScaleRow {
    fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let opt_usize = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        let head = self
            .digest_head
            .map_or("null".to_string(), |h| format!("\"{h:016x}\""));
        let secs = (self.elapsed_ms / 1e3).max(1e-9);
        format!(
            "{{\"engine\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},\"program\":\"{}\",\
             \"shards\":{},\"threads\":{},\"rounds\":{},\"messages\":{},\
             \"digest_head\":{},\"mailbox_hwm\":{},\"route_hwm\":{},\
             \"elapsed_ms\":{:.3},\"mps\":{:.1},\"rps\":{:.1}}}",
            self.engine,
            self.graph,
            self.n,
            self.m,
            self.program,
            opt_usize(self.shards),
            opt_usize(self.threads),
            self.rounds,
            self.messages,
            head,
            opt(self.mailbox_hwm),
            opt(self.route_hwm),
            self.elapsed_ms,
            self.messages as f64 / secs,
            self.rounds as f64 / secs,
        )
    }
}

/// Runs `program` on the sharded executor with a digest journal, returning
/// the execution, the wall-clock milliseconds it took, and the digest-chain
/// head — so every scale row carries an identity-gated `digest_head`.
fn sharded_run<P>(
    csr: &CsrGraph,
    program: &P,
    shards: usize,
    threads: usize,
) -> (mfd_runtime::ShardedExecution<P::State>, f64, u64)
where
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    let mut sink = DigestSink::new();
    let t0 = std::time::Instant::now();
    let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
        .run_traced(csr, program, &mut sink)
        .expect("program is model-compliant");
    (run, t0.elapsed().as_secs_f64() * 1e3, sink.head())
}

/// R7 — the scale series: the sharded CSR executor against the reference
/// stepper on the acceptance families (bit-identical states, meters and
/// digest chains asserted in-process for every shard count), thread-scaling
/// curves and million-vertex BFS / LDD / executed-EDT runs on the streaming
/// generator families, written to `BENCH_scale.json`.
fn scale_report(heavy: bool) {
    let mut rows: Vec<ScaleRow> = Vec::new();

    // --- Differential block: sharded vs reference stepper on the acceptance
    // families, digest chains journaled on both sides.
    for (name, g) in &acceptance_families() {
        let mut ref_sink = DigestSink::new();
        let t0 = std::time::Instant::now();
        let reference = Executor::new(ExecutorConfig::default())
            .run_traced(g, &BfsProgram { root: 0 }, &mut ref_sink)
            .expect("bfs is model-compliant");
        rows.push(ScaleRow {
            engine: "executor",
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            program: "bfs".to_string(),
            shards: None,
            threads: None,
            rounds: reference.rounds,
            messages: reference.messages,
            digest_head: Some(ref_sink.head()),
            mailbox_hwm: None,
            route_hwm: None,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        });

        let csr = CsrGraph::from_graph(g);
        for shards in [1, 4, 32] {
            let mut sink = DigestSink::new();
            let t0 = std::time::Instant::now();
            let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, 2))
                .run_traced(&csr, &BfsProgram { root: 0 }, &mut sink)
                .expect("bfs is model-compliant");
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
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
            rows.push(ScaleRow {
                engine: "sharded",
                graph: name.to_string(),
                n: g.n(),
                m: g.m(),
                program: "bfs".to_string(),
                shards: Some(shards),
                threads: Some(2),
                rounds: run.rounds,
                messages: run.messages,
                digest_head: Some(sink.head()),
                mailbox_hwm: Some(run.arena.mailbox_slots_hwm as u64),
                route_hwm: Some(run.arena.route_slots_hwm as u64),
                elapsed_ms,
            });
        }
    }

    // --- Thread-scaling block: one million-vertex LDD, fixed shard count,
    // 1/2/4/8 worker threads — states and meters asserted invariant.
    let mesh = gen::mesh(1000, 1000);
    let centers: Vec<usize> = (0..1024).map(|i| (i * mesh.n()) / 1024).collect();
    let ldd = VoronoiLddProgram::new(mesh.n(), &centers);
    let mut thread_base: Option<(mfd_runtime::ShardedExecution<_>, u64)> = None;
    for threads in [1, 2, 4, 8] {
        let (run, elapsed_ms, head) = sharded_run(&mesh, &ldd, 64, threads);
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
        rows.push(ScaleRow {
            engine: "sharded",
            graph: "mesh-1000x1000".to_string(),
            n: mesh.n(),
            m: mesh.m(),
            program: "voronoi-ldd-1024".to_string(),
            shards: Some(64),
            threads: Some(threads),
            rounds: run.rounds,
            messages: run.messages,
            digest_head: Some(head),
            mailbox_hwm: Some(run.arena.mailbox_slots_hwm as u64),
            route_hwm: Some(run.arena.route_slots_hwm as u64),
            elapsed_ms,
        });
        if thread_base.is_none() {
            thread_base = Some((run, head));
        }
    }
    // Shard-count invariance at the same scale (shard count changes routing
    // and arena layout, so states, the meter, and the per-round digest chain
    // must agree while arena HWMs may differ).
    let (run17, _, head17) = sharded_run(&mesh, &ldd, 17, 0);
    let (base, base_head) = thread_base.as_ref().expect("thread block ran");
    assert_eq!(
        run17.states, base.states,
        "mesh-1000x1000/ldd: states must be shard-invariant"
    );
    assert_eq!(run17.rounds, base.rounds);
    assert_eq!(run17.messages, base.messages);
    assert_eq!(
        head17, *base_head,
        "mesh-1000x1000/ldd: digest head must be shard-invariant"
    );

    // --- Million-vertex flagship block: BFS / LDD on every streaming
    // generator family, all cores.
    let flagship: [(&str, CsrGraph); 3] = [
        ("mesh-1000x1000", mesh),
        ("rmat-20-ef4", gen::rmat(20, 4, 0x6d6664)),
        (
            "power-law-2^20",
            gen::power_law(1 << 20, 4 << 20, 2.5, 0x6d6664),
        ),
    ];
    for (name, g) in &flagship {
        let (run, elapsed_ms, head) = sharded_run(g, &BfsProgram { root: 0 }, 64, 0);
        assert!(run.messages > 0, "{name}: bfs must flood");
        rows.push(ScaleRow {
            engine: "sharded",
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            program: "bfs".to_string(),
            shards: Some(64),
            threads: None,
            rounds: run.rounds,
            messages: run.messages,
            digest_head: Some(head),
            mailbox_hwm: Some(run.arena.mailbox_slots_hwm as u64),
            route_hwm: Some(run.arena.route_slots_hwm as u64),
            elapsed_ms,
        });

        let centers: Vec<usize> = (0..1024).map(|i| (i * g.n()) / 1024).collect();
        let ldd = VoronoiLddProgram::new(g.n(), &centers);
        let (run, elapsed_ms, head) = sharded_run(g, &ldd, 64, 0);
        rows.push(ScaleRow {
            engine: "sharded",
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            program: "voronoi-ldd-1024".to_string(),
            shards: Some(64),
            threads: None,
            rounds: run.rounds,
            messages: run.messages,
            digest_head: Some(head),
            mailbox_hwm: Some(run.arena.mailbox_slots_hwm as u64),
            route_hwm: Some(run.arena.route_slots_hwm as u64),
            elapsed_ms,
        });
    }

    // --- Executed (ε, D, T) at a million vertices, through the CSR
    // representation boundary (see `build_edt_csr`; the gathers and cluster
    // rounds run on the sharded engine, one shard per thread — the row's
    // `executor` label is part of its gated series key and stays). The mesh
    // family: power-law
    // EDT is dominated by the hub clusters' gathers and does not finish in
    // CI time past n ≈ 2^14.
    let (name, g) = &flagship[0];
    let t0 = std::time::Instant::now();
    let (d, meter) = build_edt_csr(g, &EdtConfig::new(EDT_SCALE_EPSILON), &Executed::default());
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        d.epsilon_achieved <= EDT_SCALE_EPSILON,
        "{name}: executed EDT must meet its ε target"
    );
    assert!(d.clustering.num_clusters() >= 1);
    rows.push(ScaleRow {
        engine: "executor",
        graph: name.to_string(),
        n: g.n(),
        m: g.m(),
        program: format!("edt-eps-{EDT_SCALE_EPSILON}"),
        shards: None,
        threads: None,
        rounds: meter.rounds(),
        messages: meter.messages(),
        // The EDT pipeline is many runs stitched together (cluster gathers,
        // boundary rounds), not a single journaled execution — there is no
        // one digest chain to head. Stays null by design.
        digest_head: None,
        mailbox_hwm: None,
        route_hwm: None,
        elapsed_ms,
    });

    // --- Heavy block (`--heavy` only; out of the CI budget, run manually —
    // see docs/PROFILING.md): one 10⁷-vertex BFS. Deliberately absent from
    // `benches/baselines.json`: CI never passes `--heavy`, so the gate sees
    // identical series either way, and a manual heavy run only *adds* a row.
    if heavy {
        // Power-law rather than mesh: at 10⁷ vertices a mesh BFS runs for
        // ~6000 diameter rounds, while the power-law giant component floods
        // in a handful — the row measures engine throughput, not patience.
        let big = gen::power_law(10_000_000, 40_000_000, 2.5, 0x6d6664);
        let (run, elapsed_ms, head) = sharded_run(&big, &BfsProgram { root: 0 }, 256, 0);
        assert!(run.messages > 0, "power-law-10^7: bfs must flood");
        rows.push(ScaleRow {
            engine: "sharded",
            graph: "power-law-10^7".to_string(),
            n: big.n(),
            m: big.m(),
            program: "bfs".to_string(),
            shards: Some(256),
            threads: None,
            rounds: run.rounds,
            messages: run.messages,
            digest_head: Some(head),
            mailbox_hwm: Some(run.arena.mailbox_slots_hwm as u64),
            route_hwm: Some(run.arena.route_slots_hwm as u64),
            elapsed_ms,
        });
    }

    let mut table = Table::new(
        "R7 — scale: sharded CSR executor at 10^6 vertices \
         (sharded rows asserted bit-identical to the reference stepper / across \
         shard and thread counts in-process; wall-clock columns are ungated)",
        &[
            "graph",
            "program",
            "engine",
            "shards",
            "threads",
            "rounds",
            "messages",
            "mail hwm",
            "route hwm",
            "ms",
            "Mmsg/s",
        ],
    );
    for r in &rows {
        let secs = (r.elapsed_ms / 1e3).max(1e-9);
        table.row(vec![
            r.graph.clone(),
            r.program.clone(),
            r.engine.to_string(),
            r.shards.map_or("-".to_string(), |s| s.to_string()),
            r.threads.map_or("all".to_string(), |t| t.to_string()),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.mailbox_hwm.map_or("-".to_string(), |x| x.to_string()),
            r.route_hwm.map_or("-".to_string(), |x| x.to_string()),
            format!("{:.1}", r.elapsed_ms),
            f3(r.messages as f64 / secs / 1e6),
        ]);
    }
    table.print();

    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/scale/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(ScaleRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = "BENCH_scale.json";
    std::fs::write(path, json).expect("write BENCH_scale.json");
    println!("wrote {path} ({} series)", rows.len());
}

/// ε target for the million-vertex executed (ε, D, T) row. At 0.5 the
/// construction takes ~70s on the mesh-1000x1000 family in release mode
/// (2866 rounds, 7·10⁸ messages, achieved ε ≈ 0.20) — the largest target
/// that still demonstrates a non-trivial decomposition in CI time.
const EDT_SCALE_EPSILON: f64 = 0.5;

/// One profiled measurement destined for `BENCH_profile.json`.
///
/// Identity fields: engine, graph, n, m, program, shards, threads,
/// `digest_head`, `frontier_total` and `traffic_total` — all deterministic,
/// so a semantic change fails the gate as a disappeared series. Gated
/// metrics: rounds, messages. Everything ending in `_ms` plus
/// `attributed_pct`/`occupancy_step`/`imbalance_step` is wall clock —
/// ungated and normalized away before CI's determinism byte-diff.
struct ProfileRow {
    engine: &'static str,
    graph: String,
    n: usize,
    m: usize,
    program: String,
    shards: usize,
    threads: usize,
    digest_head: u64,
    frontier_total: u64,
    traffic_total: u64,
    rounds: u64,
    messages: u64,
    init_ms: f64,
    scan_ms: f64,
    step_ms: f64,
    route_ms: f64,
    exchange_ms: f64,
    deliver_ms: f64,
    commit_ms: f64,
    seal_ms: f64,
    commit_frac: f64,
    other_ms: f64,
    elapsed_ms: f64,
    attributed_pct: f64,
    occupancy_step: f64,
    imbalance_step: f64,
}

impl ProfileRow {
    #[allow(clippy::too_many_arguments)]
    fn from_run(
        engine: &'static str,
        graph: &str,
        n: usize,
        m: usize,
        program: String,
        shards: usize,
        threads: usize,
        run: &mfd_bench::profiling::ProfiledRun,
    ) -> Self {
        let p = &run.profile;
        let walls = p.phase_wall_totals();
        let ms = |ns: u64| ns as f64 / 1e6;
        let step = p.phase_stats(PHASE_STEP);
        ProfileRow {
            engine,
            graph: graph.to_string(),
            n,
            m,
            program,
            shards,
            threads,
            digest_head: run.digest_head,
            frontier_total: p.frontier_total(),
            traffic_total: p.traffic_totals().iter().sum(),
            rounds: run.rounds,
            messages: run.messages,
            init_ms: ms(p.init_ns),
            scan_ms: ms(walls[PHASE_SCAN]),
            step_ms: ms(walls[PHASE_STEP]),
            route_ms: ms(walls[PHASE_ROUTE]),
            exchange_ms: ms(walls[PHASE_EXCHANGE]),
            deliver_ms: ms(walls[PHASE_DELIVER]),
            commit_ms: ms(walls[PHASE_COMMIT]),
            seal_ms: ms(p.seal_ns_total()),
            commit_frac: p.commit_frac(),
            other_ms: ms(p.unattributed_ns()),
            elapsed_ms: run.elapsed_ms,
            attributed_pct: p.attribution() * 100.0,
            occupancy_step: step.occupancy,
            imbalance_step: step.imbalance,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},\"program\":\"{}\",\
             \"shards\":{},\"threads\":{},\"digest_head\":\"{:016x}\",\
             \"frontier_total\":{},\"traffic_total\":{},\
             \"rounds\":{},\"messages\":{},\
             \"init_ms\":{:.3},\"scan_ms\":{:.3},\"step_ms\":{:.3},\"route_ms\":{:.3},\
             \"exchange_ms\":{:.3},\"deliver_ms\":{:.3},\"commit_ms\":{:.3},\
             \"seal_ms\":{:.3},\"commit_frac\":{:.3},\
             \"other_ms\":{:.3},\"elapsed_ms\":{:.3},\"attributed_pct\":{:.1},\
             \"occupancy_step\":{:.3},\"imbalance_step\":{:.3}}}",
            self.engine,
            self.graph,
            self.n,
            self.m,
            self.program,
            self.shards,
            self.threads,
            self.digest_head,
            self.frontier_total,
            self.traffic_total,
            self.rounds,
            self.messages,
            self.init_ms,
            self.scan_ms,
            self.step_ms,
            self.route_ms,
            self.exchange_ms,
            self.deliver_ms,
            self.commit_ms,
            self.seal_ms,
            self.commit_frac,
            self.other_ms,
            self.elapsed_ms,
            self.attributed_pct,
            self.occupancy_step,
            self.imbalance_step,
        )
    }
}

/// One shard's breakdown of a profiled run — the per-shard rows behind the
/// straggler claims. Identity: everything except rounds/messages (gated)
/// and the busy-time walls (ungated).
struct ShardRow {
    graph: String,
    program: String,
    shards: usize,
    threads: usize,
    shard: usize,
    frontier: u64,
    received: u64,
    rounds: u64,
    messages: u64,
    scan_ms: f64,
    step_ms: f64,
    deliver_ms: f64,
}

impl ShardRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"sharded\",\"graph\":\"{}\",\"program\":\"{}\",\
             \"shards\":{},\"threads\":{},\"shard\":{},\
             \"frontier\":{},\"received\":{},\"rounds\":{},\"messages\":{},\
             \"scan_ms\":{:.3},\"step_ms\":{:.3},\"deliver_ms\":{:.3}}}",
            self.graph,
            self.program,
            self.shards,
            self.threads,
            self.shard,
            self.frontier,
            self.received,
            self.rounds,
            self.messages,
            self.scan_ms,
            self.step_ms,
            self.deliver_ms,
        )
    }
}

/// R8 — the profile series: wall-clock phase breakdowns of the scale
/// workloads under the `mfd-prof` overlay, written to `BENCH_profile.json`.
///
/// Every run is verified in-process: the profiled execution's states,
/// meters and digest chains are asserted bit-identical to an unprofiled
/// run (perturbation-freedom), the traffic matrix is asserted to account
/// the router exactly, digest heads are asserted thread-invariant, and at
/// least 95% of every run's wall time must be attributed to named phases
/// (the remainder is published as `other_ms`, never hidden).
fn profile_report() {
    let mut rows: Vec<ProfileRow> = Vec::new();
    let mut shard_rows: Vec<ShardRow> = Vec::new();

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

        if threads == 8 {
            // The straggler view of the widest run: per-shard rows plus a
            // human-readable summary on stdout.
            println!("```\n{}```", run.profile.summary());
            let p = &run.profile;
            let frontier = p.frontier_totals();
            let received = p.delivered_totals();
            let sent = p.sent_totals();
            let scan = p.shard_busy_totals(PHASE_SCAN);
            let step = p.shard_busy_totals(PHASE_STEP);
            let deliver = p.shard_busy_totals(PHASE_DELIVER);
            for shard in 0..p.shards {
                shard_rows.push(ShardRow {
                    graph: "mesh-1000x1000".to_string(),
                    program: "voronoi-ldd-1024".to_string(),
                    shards: 64,
                    threads,
                    shard,
                    frontier: frontier[shard],
                    received: received[shard] as u64,
                    rounds: run.rounds,
                    messages: sent[shard],
                    scan_ms: scan[shard] as f64 / 1e6,
                    step_ms: step[shard] as f64 / 1e6,
                    deliver_ms: deliver[shard] as f64 / 1e6,
                });
            }
        }
        rows.push(ProfileRow::from_run(
            "sharded",
            "mesh-1000x1000",
            mesh.n(),
            mesh.m(),
            "voronoi-ldd-1024".to_string(),
            64,
            threads,
            &run,
        ));
    }

    // --- A skewed-degree workload: RMAT BFS, where traffic concentrates.
    let rmat = gen::rmat(20, 4, 0x6d6664);
    let run = profile_sharded_algo(&rmat, Algo::Bfs, 64, 8, "rmat-20-ef4/bfs/t8");
    rows.push(ProfileRow::from_run(
        "sharded",
        "rmat-20-ef4",
        rmat.n(),
        rmat.m(),
        "bfs".to_string(),
        64,
        8,
        &run,
    ));

    // --- The adjacency-map acceptance family under the same overlay, on
    // one shard — the gated `engine=executor|shards=1|threads=2` series.
    let grid = CsrGraph::from_graph(&generators::triangulated_grid(100, 100));
    let run = profile_sharded_algo(&grid, Algo::Ldd(64), 1, 2, "tri-grid-100x100/ldd-64");
    rows.push(ProfileRow::from_run(
        "executor",
        "tri-grid-100x100",
        grid.n(),
        grid.m(),
        "voronoi-ldd-64".to_string(),
        1,
        2,
        &run,
    ));

    for r in &rows {
        assert!(
            r.attributed_pct >= 95.0,
            "{}/{}/t{}: only {:.1}% of wall time attributed to named phases",
            r.graph,
            r.program,
            r.threads,
            r.attributed_pct
        );
        // The seal (digest fold) is a sub-span of the commit phase; both are
        // measured with their own clock brackets, so allow a little jitter.
        assert!(
            r.seal_ms <= r.commit_ms * 1.05 + 1.0,
            "{}/{}/t{}: seal {:.1} ms exceeds its enclosing commit {:.1} ms",
            r.graph,
            r.program,
            r.threads,
            r.seal_ms,
            r.commit_ms
        );
    }
    // Commit-path sanity gates on the thread-sweep workload. Deliberately
    // machine-tolerant: CI containers are frequently single-core, where an
    // 8-thread occupancy floor would measure the box, not the code. What is
    // machine-independent: (a) at 1 thread the sweep's busy time must cover
    // its wall (occupancy ≈ 1), and (b) commit — now just hook delivery plus
    // the deferred fold, with per-vertex digests computed inside the sweep —
    // must not grow back into the majority of the round wall.
    for r in rows.iter().filter(|r| r.graph == "mesh-1000x1000") {
        if r.threads == 1 {
            assert!(
                r.occupancy_step >= 0.90,
                "mesh-1000x1000/t1: step occupancy {:.3} < 0.90 — the sweep \
                 lost its parallel region",
                r.occupancy_step
            );
        }
        if r.threads == 8 {
            assert!(
                r.commit_frac <= 0.55,
                "mesh-1000x1000/t8: commit_frac {:.3} > 0.55 — the sequential \
                 resolution point is re-absorbing work that belongs in the \
                 parallel region (digest computation or the batched fold)",
                r.commit_frac
            );
        }
    }

    let mut table = Table::new(
        "R8 — profile: wall-clock phase attribution under the mfd-prof overlay \
         (every run asserted bit-identical to its unprofiled twin in-process; \
         all *_ms columns are wall clock, ungated)",
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
            "other ms",
            "total ms",
            "attr %",
            "occ(step)",
            "imb(step)",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.graph.clone(),
            r.program.clone(),
            r.threads.to_string(),
            r.rounds.to_string(),
            format!("{:.1}", r.scan_ms),
            format!("{:.1}", r.step_ms),
            format!("{:.1}", r.route_ms),
            format!("{:.1}", r.exchange_ms),
            format!("{:.1}", r.deliver_ms),
            format!("{:.1}", r.commit_ms),
            format!("{:.1}", r.seal_ms),
            f3(r.commit_frac),
            format!("{:.1}", r.other_ms),
            format!("{:.1}", r.elapsed_ms),
            format!("{:.1}", r.attributed_pct),
            f3(r.occupancy_step),
            f3(r.imbalance_step),
        ]);
    }
    table.print();

    let mut all: Vec<String> = rows.iter().map(ProfileRow::to_json).collect();
    all.extend(shard_rows.iter().map(ShardRow::to_json));
    let json = format!(
        "{{\n  \"schema\": \"mfd-bench/profile/v1\",\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        all.join(",\n    ")
    );
    let path = "BENCH_profile.json";
    std::fs::write(path, json).expect("write BENCH_profile.json");
    println!(
        "wrote {path} ({} series, {} per-shard)",
        all.len(),
        shard_rows.len()
    );
}
