//! `mfd-debug divergence`, the divergence hunter: runs two digest-journaled
//! executions and binary-searches the first round where their state
//! histories part ways.
//!
//! ```text
//! mfd-debug divergence                              # executor vs sim
//! mfd-debug divergence --self                       # same run twice
//! mfd-debug divergence --inject 5:3                 # corrupt v3 at round 5
//! mfd-debug divergence --rounds 32 --graph wheel-64
//! mfd-debug divergence --against run.mfdj           # vs a journal
//! mfd-debug divergence --json                       # machine output
//! ```
//!
//! Every mode runs [`mfd_bench::trace::DivergenceProbe`] (default: 16 rounds
//! on `tri-grid-8x8`) through [`mfd_bench::trace::chain`] with a
//! [`mfd_trace::DigestSink`] journaling one chained digest per round (round
//! 0 is the initial configuration), compares the chains with the O(log r)
//! search of [`mfd_trace::first_divergence`], and — when they differ —
//! localizes the culprit vertices from the per-round snapshots. Two runs
//! whose common prefix agrees but that sealed different round counts
//! diverge at the shorter chain's end (a run that halted or wedged early
//! first observably differs at the first round only one of them executed).
//! `--self` (which takes no `--inject` or `--against`) and the default
//! cross-engine comparison must print `no divergence`. `--inject R:V`
//! corrupts vertex `V` at round `R` (in `1..=rounds`) in the second run,
//! demonstrating that the hunter pinpoints exactly that round and vertex.
//!
//! `--against <journal>` compares **online** instead: the probe runs on the
//! journal's engine with a verify-mode sink streaming every sealed head
//! against the journal's chain (see `mfd-replay`), flagging the first
//! diverging round the moment it seals — no second run, no post-hoc search.
//! The journal's label sets the probe's graph and rounds unless `--graph` /
//! `--rounds` say otherwise; a `faulted` journal, which records
//! `Reliable<probe>`, is refused.
//!
//! `--json` emits one line of machine-readable verdict with stable field
//! order — `round`, `vertices`, `engines`, then the sealed-round counts —
//! for scripting; `round` and `vertices` are `null` when the runs agree.
//! The exit code is the verdict: 0 when the runs agree (or, under
//! `--inject`, when the injected divergence is found), 1 otherwise.

use mfd_bench::replay;
use mfd_bench::trace::{chain, DivergenceProbe};
use mfd_graph::Graph;
use mfd_replay::Journal;
use mfd_runtime::{ExecutorConfig, NodeProgram, SessionEngine};
use mfd_sim::{LatencyModel, NoFaults};
use mfd_trace::{first_divergence, DigestSink};

use crate::cli::{self, on_engine, Exit, Flags};

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
        let vertices = self.vertices.as_ref();
        let vertices = vertices.map_or("null".to_string(), |vs| format!("{vs:?}").replace(' ', ""));
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

/// Runs `program` on `engine` into `sink`; a run that fails — one past its
/// round budget — is bad data.
fn run_into<E, P>(engine: &E, g: &Graph, program: &P, sink: &mut DigestSink)
where
    E: SessionEngine<P>,
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    if let Err(e) = chain(engine, g, program, sink) {
        Exit::Data.fail(format!("the probe run failed: {e}"));
    }
}

/// A snapshot-journaling digest chain of `probe` on `engine`.
fn snapshots<E: SessionEngine<DivergenceProbe>>(
    engine: &E,
    g: &Graph,
    probe: &DivergenceProbe,
) -> DigestSink {
    let mut sink = DigestSink::with_snapshots();
    run_into(engine, g, probe, &mut sink);
    sink
}

/// Streams a fresh run of `program` on `engine` — the journal's — against the
/// journal's chain (online detection).
fn compare_against<E, P>(engine: &E, journal: &Journal, g: &Graph, program: &P) -> Verdict
where
    E: SessionEngine<P>,
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    if journal.header.n != g.n() as u64 {
        Exit::Data.fail(format!(
            "journal was recorded on a {}-vertex graph, probe runs on {} (match --graph)",
            journal.header.n,
            g.n()
        ));
    }
    let mut sink = DigestSink::with_reference(journal.chain().to_vec());
    run_into(engine, g, program, &mut sink);
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

pub(crate) fn main(args: &[String]) {
    let usage =
        "--self --json --rounds <n> --graph <spec> --against <journal> --inject <round>:<vertex>";
    let flags = Flags::parse("divergence", usage, args);
    let (self_compare, json) = (flags.has("--self"), flags.has("--json"));
    let inject: Option<(u64, usize)> = flags.pair("--inject", "<round>:<vertex>");
    let rounds = flags.rounds();
    if self_compare && (inject.is_some() || flags.has("--against")) {
        Exit::Usage
            .fail("--self runs one clean probe twice; it takes neither --inject nor --against");
    }
    // A journal that does not load, or records `Reliable<probe>`, is bad data.
    let journal = flags.text("--against").map(|path| {
        let (journal, spec) = replay::load(path).unwrap_or_else(|e| Exit::Data.fail(e));
        if spec.loss.is_some() {
            Exit::Data.fail(format!(
                "journal {path:?} is faulted: it records Reliable<probe>, not the probe \
                 --against runs (faulted journals support verify/resume only)"
            ));
        }
        (journal, spec)
    });
    let spec = journal.as_ref().map(|(_, spec)| spec);
    // An unknown graph is bad data in a journal label, bad usage in `--graph`.
    let (graph, unknown) = match (flags.text("--graph"), spec) {
        (None, Some(spec)) => (spec.graph.as_str(), Exit::Data),
        (flag, _) => (flag.unwrap_or("tri-grid-8x8"), Exit::Usage),
    };
    let g = cli::graph(graph, unknown);
    let rounds = rounds.or(spec.map(|s| s.rounds)).unwrap_or(16);
    if let Some((round, vertex)) = inject.filter(|&(r, v)| v >= g.n() || r < 1 || r > rounds) {
        Exit::Usage.fail(format!(
            "--inject {round}:{vertex} outside rounds 1..={rounds} and vertices 0..{}",
            g.n()
        ));
    }
    let clean = DivergenceProbe::clean(rounds);
    let probe = inject.map_or(clean, |(r, v)| DivergenceProbe::perturbed(rounds, r, v));
    if !json {
        println!(
            "divergence probe on {graph} (n={}, m={}), {rounds} rounds",
            g.n(),
            g.m(),
        );
    }

    let cfg = ExecutorConfig::default();
    let exec = mfd_bench::sync_executor(&cfg);
    let verdict = if let Some((journal, _)) = &journal {
        on_engine!(journal.header.engine, None, probe, |engine, program| {
            compare_against(engine, journal, &g, program)
        })
    } else if self_compare {
        // Same engine, same seed, twice: the determinism smoke test.
        let a = snapshots(&exec, &g, &clean);
        let b = snapshots(&exec, &g, &clean);
        compare("run A", &a, "run B", &b)
    } else if let Some((round, vertex)) = inject {
        let a = snapshots(&exec, &g, &clean);
        let b = snapshots(&exec, &g, &probe);
        if !json {
            println!("injected: vertex {vertex} corrupted at round {round} in run B");
        }
        compare("clean", &a, "injected", &b)
    } else {
        // The cross-engine differential: synchronous executor vs the
        // discrete-event engine at unit latency.
        let sim = mfd_bench::sim_engine(&cfg, LatencyModel::Fixed(1), NoFaults);
        let a = snapshots(&exec, &g, &clean);
        let b = snapshots(&sim, &g, &clean);
        compare("executor", &a, "sim(fixed-1)", &b)
    };

    verdict.print(json);

    match (inject.is_some(), verdict.round.is_some()) {
        (true, false) => Exit::Data.fail("an injected divergence must be found"),
        (false, true) => Exit::Data.fail("the runs diverge"),
        _ => {}
    }
}
