//! Demo of the `mfd-trace` observability layer: composes the three concrete
//! sinks on real runs of both engines and shows what each one buys —
//! deterministic counters and inbox histograms (`MetricsSink`), chained
//! per-round state digests with cross-engine agreement (`DigestSink`),
//! structured JSON-lines logs and a Chrome-trace flamegraph of the EDT
//! construction phases (`JsonlSink`), and the `first_divergence` binary
//! search pinpointing an injected state corruption to its exact round and
//! vertex.
//!
//! Run with: `cargo run --release --example trace_demo`

use mfd_bench::trace::{executor_chain, sim_chain, DivergenceProbe};
use mfd_core::edt::{build_edt_traced, EdtConfig};
use mfd_core::programs::BfsProgram;
use mfd_graph::{generators, CsrGraph};
use mfd_routing::backend::Metered;
use mfd_runtime::ExecutorConfig;
use mfd_sim::LatencyModel;
use mfd_trace::jsonl::chrome_trace;
use mfd_trace::{first_divergence, DigestSink, JsonlSink, MetricsSink, Tee};

fn main() {
    let g = generators::triangulated_grid(12, 12);
    let csr = CsrGraph::from_graph(&g);
    let cfg = ExecutorConfig::default();
    println!(
        "graph: triangulated 12x12 grid, n = {}, m = {}\n",
        g.n(),
        g.m()
    );

    // 1. Sink composition: one BFS run observed by a metrics sink *and* a
    //    digest sink at once, via the Tee combinator. Observation never
    //    perturbs the run (the integration tests prove bit-identity).
    let mut sinks = Tee::new(MetricsSink::new(), DigestSink::new());
    let run = mfd_bench::sync_executor(&cfg)
        .run_traced(&csr, &BfsProgram { root: 0 }, &mut sinks)
        .expect("BFS is model-compliant");
    println!(
        "BFS on the executor: {} rounds, {} messages",
        run.rounds, run.messages
    );
    println!("  events by kind:");
    for (kind, count) in &sinks.a.events_by_kind {
        println!("    {kind:<12} {count}");
    }
    let hist = sinks.a.inbox_hist;
    let buckets: Vec<String> = hist
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(i, c)| format!("2^{i}:{c}"))
        .collect();
    println!("  inbox-size log2 histogram: {}", buckets.join(" "));
    println!(
        "  digest chain: {} sealed rounds, head {:016x}",
        sinks.b.chain().len(),
        sinks.b.head()
    );

    // 2. The cross-engine contract, strengthened: at unit latency the event
    //    engine journals the *same digest chain* — not just the same final
    //    states, the same state history, round for round.
    let (a, _) = executor_chain(&csr, &DivergenceProbe::clean(12), &cfg).unwrap();
    let (b, _) = sim_chain(
        &g,
        &DivergenceProbe::clean(12),
        &cfg,
        LatencyModel::Fixed(1),
    )
    .unwrap();
    assert_eq!(a.chain(), b.chain());
    println!(
        "\ncross-engine digest chains agree on all {} rounds (head {:016x})",
        a.chain().len(),
        a.head()
    );

    // 3. Divergence hunting: corrupt vertex 7 at round 5 and binary-search
    //    the chains. The hit is exact — round 5, vertex 7.
    let (bad, _) = executor_chain(&csr, &DivergenceProbe::perturbed(12, 5, 7), &cfg).unwrap();
    let round = first_divergence(&a.chain(), &bad.chain()).expect("the corruption propagates");
    let culprits = DigestSink::diverging_vertices(&a, &bad, round);
    println!(
        "injected corruption at (round 5, vertex 7) -> first_divergence = round {round}, \
         diverging vertices {culprits:?}"
    );
    assert_eq!((round, culprits), (5, vec![7]));

    // 4. Phase spans: the EDT construction under a JSON-lines sink. Every
    //    merge/refine/routing phase and per-cluster gather sub-run lands in
    //    the log; the closed spans export as a Chrome-trace flamegraph
    //    (load it in chrome://tracing or Perfetto).
    let mut jsonl = JsonlSink::new(Vec::new());
    let (decomposition, meter) = build_edt_traced(&g, &EdtConfig::new(0.3), &Metered, &mut jsonl);
    println!(
        "\nEDT construction (metered backend): {} clusters, {} rounds charged",
        decomposition.leaders.len(),
        meter.rounds()
    );
    let spans = jsonl.spans.clone();
    let log = String::from_utf8(jsonl.into_inner()).unwrap();
    println!("  JSONL log: {} lines; first three:", log.lines().count());
    for line in log.lines().take(3) {
        println!("    {line}");
    }
    println!("  closed spans (name, rounds, messages):");
    for s in &spans {
        println!("    {:<10} {:>6} {:>8}", s.name, s.rounds, s.messages);
    }
    println!("  chrome trace: {}", chrome_trace(&spans).trim_end());

    // Same run, same bytes: the log itself is part of the deterministic
    // record.
    let mut again = JsonlSink::new(Vec::new());
    build_edt_traced(&g, &EdtConfig::new(0.3), &Metered, &mut again);
    assert_eq!(log, String::from_utf8(again.into_inner()).unwrap());
    println!("\nre-running produced a byte-identical JSONL log");
}
