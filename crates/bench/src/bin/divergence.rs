//! Divergence hunter: runs two digest-journaled executions and
//! binary-searches the first round where their state histories part ways.
//!
//! Usage:
//! ```text
//! cargo run --release -p mfd-bench --bin divergence                 # executor vs sim
//! cargo run --release -p mfd-bench --bin divergence -- --self      # same run twice
//! cargo run --release -p mfd-bench --bin divergence -- --inject 5:3 # corrupt v3 at round 5
//! cargo run --release -p mfd-bench --bin divergence -- --rounds 32 --graph wheel-64
//! cargo run --release -p mfd-bench --bin divergence -- --against run.mfdj # vs a journal
//! cargo run --release -p mfd-bench --bin divergence -- --json       # machine output
//! ```
//!
//! Every mode runs [`mfd_bench::trace::DivergenceProbe`] with a
//! [`mfd_trace::DigestSink`] journaling one chained digest per round (round
//! 0 is the initial configuration), compares the chains with the O(log r)
//! search of [`mfd_trace::first_divergence`], and — when they differ —
//! localizes the culprit vertices from the per-round snapshots. Two runs
//! whose common prefix agrees but that sealed different round counts
//! diverge at the shorter chain's end (a run that halted or wedged early
//! first observably differs at the first round only one of them executed).
//! `--self` and the default cross-engine comparison must print
//! `no divergence`; CI runs them as a determinism smoke test. `--inject R:V`
//! deliberately corrupts vertex `V` at round `R` in the second run,
//! demonstrating that the hunter pinpoints exactly that round and vertex.
//!
//! `--against <journal>` compares **online** instead: the probe runs with a
//! verify-mode sink streaming every sealed head against the journal's chain
//! (see `mfd-replay`), flagging the first diverging round the moment it
//! seals — no second run, no post-hoc search. The journal comes from
//! `replay record`.
//!
//! `--json` emits one line of machine-readable verdict with stable field
//! order — `round`, `vertices`, `engines`, then the sealed-round counts —
//! for scripting; `round` and `vertices` are `null` when the runs agree.

use mfd_bench::trace::{executor_chain, sim_chain, DivergenceProbe};
use mfd_graph::{CsrGraph, Graph};
use mfd_replay::Journal;
use mfd_runtime::ExecutorConfig;
use mfd_sim::LatencyModel;
use mfd_trace::{first_divergence, DigestSink, EngineKind};

struct Options {
    rounds: u64,
    graph: String,
    self_compare: bool,
    inject: Option<(u64, usize)>,
    against: Option<String>,
    json: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        rounds: 16,
        graph: "tri-grid-8x8".to_string(),
        self_compare: false,
        inject: None,
        against: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--self" => opts.self_compare = true,
            "--json" => opts.json = true,
            "--rounds" => {
                opts.rounds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--rounds requires an integer argument");
            }
            "--graph" => {
                opts.graph = args.next().expect("--graph requires a family name");
            }
            "--against" => {
                opts.against = Some(args.next().expect("--against requires a journal path"));
            }
            "--inject" => {
                let spec = args
                    .next()
                    .expect("--inject requires a ROUND:VERTEX argument");
                let (r, v) = spec
                    .split_once(':')
                    .expect("--inject argument must be ROUND:VERTEX");
                opts.inject = Some((
                    r.parse().expect("--inject round must be an integer"),
                    v.parse().expect("--inject vertex must be an integer"),
                ));
            }
            other => panic!("unknown argument {other:?} (see the module docs)"),
        }
    }
    opts
}

fn family(name: &str) -> Graph {
    mfd_bench::acceptance_families()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, g)| g)
        .unwrap_or_else(|| {
            panic!(
                "unknown graph family {name:?}; valid families: {}",
                mfd_bench::acceptance_families()
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

/// The comparison's outcome, shared by the human and `--json` renderings.
struct Verdict {
    engines: (String, String),
    round: Option<usize>,
    vertices: Option<Vec<usize>>,
    sealed: (usize, usize),
    heads: (u64, u64),
}

impl Verdict {
    /// One JSON line, fields in stable order: round, vertices, engines,
    /// sealed-round counts, final heads.
    fn json(&self) -> String {
        let round = self.round.map_or("null".to_string(), |r| r.to_string());
        let vertices = self.vertices.as_ref().map_or("null".to_string(), |vs| {
            format!(
                "[{}]",
                vs.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        });
        format!(
            "{{\"schema\": \"mfd-bench/divergence/v1\", \"round\": {round}, \"vertices\": {vertices}, \
             \"engines\": [\"{}\", \"{}\"], \"sealed\": [{}, {}], \"heads\": [\"{:016x}\", \"{:016x}\"]}}",
            self.engines.0, self.engines.1, self.sealed.0, self.sealed.1, self.heads.0, self.heads.1
        )
    }

    fn print(&self, json: bool) {
        if json {
            println!("{}", self.json());
            return;
        }
        let (a, b) = (&self.engines.0, &self.engines.1);
        match self.round {
            None => println!(
                "no divergence: {a} and {b} agree on all {} rounds (head {:016x})",
                self.sealed.0, self.heads.0
            ),
            Some(round) if round >= self.sealed.0.min(self.sealed.1) => println!(
                "DIVERGENCE at round {round}: prefix agrees, but {a} sealed {} rounds and {b} sealed {} \
                 (the shorter run halted or wedged first)",
                self.sealed.0, self.sealed.1
            ),
            Some(round) => {
                println!(
                    "DIVERGENCE at round {round}: {a} head {:016x} != {b} head {:016x}",
                    self.heads.0, self.heads.1
                );
                if let Some(vertices) = &self.vertices {
                    println!(
                        "  diverging vertices at round {round}: {vertices:?} \
                         (binary search over {} sealed rounds)",
                        self.sealed.0.min(self.sealed.1)
                    );
                }
            }
        }
    }
}

/// Compares two snapshot-journaling sinks offline.
fn compare(label_a: &str, a: &DigestSink, label_b: &str, b: &DigestSink) -> Verdict {
    let (ca, cb) = (a.chain(), b.chain());
    let round = first_divergence(&ca, &cb);
    let vertices = round
        .filter(|&r| r < ca.len().min(cb.len()))
        .map(|r| DigestSink::diverging_vertices(a, b, r));
    Verdict {
        engines: (label_a.to_string(), label_b.to_string()),
        round,
        vertices,
        sealed: (ca.len(), cb.len()),
        heads: (a.head(), b.head()),
    }
}

/// Streams a fresh probe run against a journal's chain (online detection).
fn compare_against(
    path: &str,
    g: &Graph,
    probe: &DivergenceProbe,
    cfg: &ExecutorConfig,
) -> Verdict {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read journal {path:?}: {e}"));
    let journal =
        Journal::from_bytes(&bytes).unwrap_or_else(|e| panic!("cannot load journal {path:?}: {e}"));
    assert_eq!(
        journal.header.n,
        g.n() as u64,
        "journal was recorded on a {}-vertex graph, probe runs on {} (match --graph)",
        journal.header.n,
        g.n()
    );
    let reference = journal.chain().to_vec();
    let mut sink = DigestSink::with_reference(reference);
    match journal.header.engine {
        EngineKind::Executor => {
            mfd_bench::sync_executor(cfg)
                .run_traced(&CsrGraph::from_graph(g), probe, &mut sink)
                .expect("probe is model-compliant");
        }
        EngineKind::Sim => {
            mfd_sim::Simulator::new(mfd_sim::SimConfig::matching(cfg, LatencyModel::Fixed(1)))
                .run_traced(g, probe, &mut sink)
                .expect("probe is model-compliant");
        }
    }
    let verdict = sink.reference_verdict();
    Verdict {
        engines: (
            format!("live-{}", journal.header.engine.name()),
            format!("journal:{}", journal.header.label),
        ),
        round: verdict.map(|m| m.round as usize),
        vertices: None, // journals carry chains, not per-vertex snapshots
        sealed: (sink.chain().len(), journal.rounds() as usize),
        heads: (
            sink.head(),
            journal.chain().last().copied().unwrap_or_default(),
        ),
    }
}

fn main() {
    let opts = parse_args();
    let g = family(&opts.graph);
    let csr = CsrGraph::from_graph(&g);
    let cfg = ExecutorConfig::default();
    let clean = DivergenceProbe::clean(opts.rounds);
    if !opts.json {
        println!(
            "divergence probe on {} (n={}, m={}), {} rounds",
            opts.graph,
            g.n(),
            g.m(),
            opts.rounds
        );
    }

    let verdict = if let Some(path) = &opts.against {
        let probe = match opts.inject {
            Some((round, vertex)) => DivergenceProbe::perturbed(opts.rounds, round, vertex),
            None => clean,
        };
        compare_against(path, &g, &probe, &cfg)
    } else if opts.self_compare {
        // Same engine, same seed, twice: the determinism smoke test.
        let (a, _) = executor_chain(&csr, &clean, &cfg).expect("probe is model-compliant");
        let (b, _) = executor_chain(&csr, &clean, &cfg).expect("probe is model-compliant");
        compare("run A", &a, "run B", &b)
    } else if let Some((round, vertex)) = opts.inject {
        assert!(vertex < g.n(), "--inject vertex {vertex} out of range");
        assert!(
            round >= 1 && round <= opts.rounds,
            "--inject round {round} outside 1..={}",
            opts.rounds
        );
        let probe = DivergenceProbe::perturbed(opts.rounds, round, vertex);
        let (a, _) = executor_chain(&csr, &clean, &cfg).expect("probe is model-compliant");
        let (b, _) = executor_chain(&csr, &probe, &cfg).expect("probe is model-compliant");
        if !opts.json {
            println!("injected: vertex {vertex} corrupted at round {round} in run B");
        }
        compare("clean", &a, "injected", &b)
    } else {
        // The cross-engine differential: synchronous executor vs the
        // discrete-event engine at unit latency.
        let (a, _) = executor_chain(&csr, &clean, &cfg).expect("probe is model-compliant");
        let (b, _) =
            sim_chain(&g, &clean, &cfg, LatencyModel::Fixed(1)).expect("probe is model-compliant");
        compare("executor", &a, "sim(fixed-1)", &b)
    };

    verdict.print(opts.json);

    if opts.inject.is_some() {
        assert!(
            verdict.round.is_some(),
            "an injected divergence must be found"
        );
    } else {
        assert!(
            verdict.round.is_none(),
            "engines/self runs must not diverge"
        );
    }
}
