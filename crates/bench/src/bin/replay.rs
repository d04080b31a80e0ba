//! Time-travel debugger over `mfd-replay` journals: record a journaled run,
//! verify a journal's digest chain, resume from a checkpoint (asserting
//! bit-identical continuation), and dump/diff vertex states at arbitrary
//! rounds without re-running from scratch.
//!
//! Usage:
//! ```text
//! replay record --out run.mfdj [--engine executor|sim|faulted] \
//!               [--rounds 16] [--graph tri-grid-8x8] [--every 4] [--loss 0.25]
//! replay verify --journal run.mfdj
//! replay resume --journal run.mfdj [--at R] [--graph G]
//! replay dump   --journal run.mfdj --round R
//! replay diff   --journal run.mfdj --round R1 --round-b R2 [--journal-b other.mfdj]
//! ```
//!
//! All runs execute [`mfd_bench::trace::DivergenceProbe`] with the default
//! executor configuration; the journal's label encodes the graph family,
//! round budget and fault mode (`<graph>;rounds=<N>;mode=<clean|faulted:P>`),
//! so every later subcommand reconstructs the run from the journal alone.
//! Event-engine runs (`sim` and `faulted`) use `Uniform{1,3}` link latency;
//! `faulted` wraps the probe in [`mfd_faults::Reliable`] under i.i.d. loss,
//! the acceptance configuration of the replay subsystem.
//!
//! `resume` restores the nearest checkpoint at-or-below `--at` (default: the
//! last checkpoint), re-executes the suffix, and asserts the continued
//! digest chain equals the journal's chain round for round — the
//! bit-identical-resume guarantee, checked on every invocation. `--graph`
//! overrides the graph the label names; a checkpoint that does not fit the
//! graph it is restored onto is a one-line error and a non-zero exit.
//!
//! `dump` restores the nearest checkpoint below the target round and steps
//! forward to it. On the executor, rounds are exact. On the event engine,
//! checkpoints are consistent cuts between ticks and a cut at exactly round
//! `R` may not exist — `dump` then reports the nearest cut **at or after**
//! `R` and says so. `dump`/`diff` decode vertex states, so they support
//! `executor` and `sim` journals (plain probe states); `faulted` journals
//! carry ARQ transport state and support `verify`/`resume` only.

use mfd_bench::replay::{
    executor_journal, executor_states_at, resume_executor, resume_sim, sim_journal, sim_states_at,
    Resumed,
};
use mfd_bench::trace::DivergenceProbe;
use mfd_faults::{FaultModel, Reliable};
use mfd_graph::{CsrGraph, Graph};
use mfd_replay::Journal;
use mfd_runtime::ExecutorConfig;
use mfd_sim::{LatencyModel, NoFaults};
use mfd_trace::EngineKind;

const LATENCY: LatencyModel = LatencyModel::Uniform { lo: 1, hi: 3 };

fn family(name: &str) -> Graph {
    mfd_bench::acceptance_families()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, g)| g)
        .unwrap_or_else(|| panic!("unknown graph family {name:?}"))
}

/// The run configuration a journal's label encodes.
struct RunSpec {
    graph: String,
    rounds: u64,
    /// `None` for a clean probe run, `Some(p)` for `Reliable<probe>` under
    /// i.i.d. loss with probability `p`.
    loss: Option<f64>,
}

impl RunSpec {
    fn label(&self) -> String {
        let mode = match self.loss {
            None => "clean".to_string(),
            Some(p) => format!("faulted:{p}"),
        };
        format!("{};rounds={};mode={}", self.graph, self.rounds, mode)
    }

    fn parse(label: &str) -> RunSpec {
        let mut parts = label.split(';');
        let graph = parts.next().expect("label has a graph field").to_string();
        let rounds = parts
            .next()
            .and_then(|s| s.strip_prefix("rounds="))
            .and_then(|s| s.parse().ok())
            .expect("label has a rounds= field");
        let mode = parts
            .next()
            .and_then(|s| s.strip_prefix("mode="))
            .expect("label has a mode= field");
        let loss = match mode {
            "clean" => None,
            other => Some(
                other
                    .strip_prefix("faulted:")
                    .and_then(|s| s.parse().ok())
                    .expect("mode is clean or faulted:P"),
            ),
        };
        RunSpec {
            graph,
            rounds,
            loss,
        }
    }
}

fn load(path: &str) -> Journal {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read journal {path:?}: {e}"));
    Journal::from_bytes(&bytes).unwrap_or_else(|e| panic!("cannot load journal {path:?}: {e}"))
}

fn record(out: &str, engine: &str, spec: &RunSpec, every: u64) {
    let g = family(&spec.graph);
    let cfg = ExecutorConfig::default();
    let probe = DivergenceProbe::clean(spec.rounds);
    let label = spec.label();
    let journal = match (engine, spec.loss) {
        ("executor", None) => {
            executor_journal(&CsrGraph::from_graph(&g), &probe, &cfg, every, &label)
                .expect("probe is model-compliant")
                .journal
        }
        ("sim", None) => {
            sim_journal(&g, &probe, &NoFaults, &cfg, LATENCY, every, &label)
                .expect("probe is model-compliant")
                .journal
        }
        ("faulted", Some(p)) => {
            let wrapped = Reliable::new(DivergenceProbe::clean(spec.rounds));
            let model = FaultModel::iid_loss(p);
            let journaled = sim_journal(&g, &wrapped, &model, &cfg, LATENCY, every, &label)
                .expect("probe is model-compliant");
            assert!(
                !journaled.run.outcome.is_wedged(),
                "the faulted recording wedged; raise --rounds headroom or lower --loss"
            );
            journaled.journal
        }
        _ => panic!("--engine must be executor, sim, or faulted (faulted requires --loss)"),
    };
    let bytes = journal.to_bytes();
    std::fs::write(out, &bytes).unwrap_or_else(|e| panic!("cannot write {out:?}: {e}"));
    println!(
        "recorded {engine} run of {} ({} rounds, {} checkpoints, every {every}) -> {out} ({} bytes, head {:016x})",
        spec.graph,
        journal.rounds(),
        journal.checkpoints.len(),
        bytes.len(),
        journal.chain().last().copied().unwrap_or_default(),
    );
}

fn verify(path: &str) {
    // `from_bytes` already runs the full verification (chain contiguity,
    // checkpoint stamps, exported-prefix equality, re-folded links); getting
    // here means the journal coheres. Re-run it anyway so `verify` stays
    // meaningful if loading ever relaxes.
    let journal = load(path);
    journal.verify().expect("a loadable journal verifies");
    let spec = RunSpec::parse(&journal.header.label);
    println!(
        "OK: {} journal of {} — {} rounds sealed, {} checkpoints (every {}), head {:016x}",
        journal.header.engine.name(),
        spec.graph,
        journal.rounds(),
        journal.checkpoints.len(),
        journal.header.every,
        journal.chain().last().copied().unwrap_or_default(),
    );
    for cp in &journal.checkpoints {
        println!(
            "  checkpoint @ round {:>4}: {} payload bytes, stamp {:016x}",
            cp.round,
            cp.payload.len(),
            cp.head
        );
    }
}

fn resume(path: &str, at: Option<u64>, graph: Option<&str>) {
    let journal = load(path);
    let spec = RunSpec::parse(&journal.header.label);
    let g = family(graph.unwrap_or(&spec.graph));
    let cfg = ExecutorConfig::default();
    let at = at.unwrap_or_else(|| {
        journal
            .checkpoints
            .last()
            .expect("journal has no checkpoints to resume from")
            .round
    });
    let probe = DivergenceProbe::clean(spec.rounds);
    fn summary<R>(r: Resumed<R>) -> (u64, u64, Vec<u64>) {
        (r.from_round, r.rounds_replayed, r.sink.chain())
    }
    let resumed = match (journal.header.engine, spec.loss) {
        (EngineKind::Executor, None) => {
            resume_executor(&journal, at, &CsrGraph::from_graph(&g), &probe, &cfg).map(summary)
        }
        (EngineKind::Sim, None) => {
            resume_sim(&journal, at, &g, &probe, &NoFaults, &cfg, LATENCY).map(summary)
        }
        (EngineKind::Sim, Some(p)) => {
            let wrapped = Reliable::new(DivergenceProbe::clean(spec.rounds));
            let model = FaultModel::iid_loss(p);
            resume_sim(&journal, at, &g, &wrapped, &model, &cfg, LATENCY).map(summary)
        }
        (EngineKind::Executor, Some(_)) => {
            panic!("faulted journals are event-engine journals")
        }
    };
    let (from_round, replayed, chain) = resumed.unwrap_or_else(|e| {
        eprintln!("error: cannot resume {path:?} at round {at}: {e}");
        std::process::exit(1);
    });
    assert_eq!(
        chain,
        journal.chain(),
        "resumed digest chain must equal the journal's chain round for round"
    );
    println!(
        "resume OK: restored round {from_round}, replayed {replayed} rounds, \
         chain bit-identical over all {} rounds (head {:016x})",
        journal.rounds(),
        chain.last().copied().unwrap_or_default(),
    );
}

/// Vertex states at a target round, reconstructed from the journal's nearest
/// checkpoint (or a fresh run when the target precedes every checkpoint).
/// Returns `(round_reached, states)`; on the event engine `round_reached`
/// is the nearest consistent cut at-or-after the target.
fn states_at(journal: &Journal, target: u64) -> (u64, Vec<u64>) {
    let spec = RunSpec::parse(&journal.header.label);
    assert!(
        spec.loss.is_none(),
        "dump/diff decode plain probe states; faulted journals support verify/resume only"
    );
    assert!(
        target >= 1 && target <= journal.rounds(),
        "round {target} outside this journal's 1..={}",
        journal.rounds()
    );
    let g = family(&spec.graph);
    let cfg = ExecutorConfig::default();
    let probe = DivergenceProbe::clean(spec.rounds);
    match journal.header.engine {
        EngineKind::Executor => {
            executor_states_at(journal, target, &CsrGraph::from_graph(&g), &probe, &cfg)
        }
        EngineKind::Sim => sim_states_at(journal, target, &g, &probe, &cfg, LATENCY),
    }
    .expect("a journal's checkpoint fits the graph its label names")
}

fn dump(path: &str, round: u64) {
    let journal = load(path);
    let (reached, states) = states_at(&journal, round);
    if reached == round {
        println!("vertex states at round {round} ({path}):");
    } else {
        println!(
            "no exact cut at round {round} on the event engine; \
             nearest consistent cut at round {reached} ({path}):"
        );
    }
    for (v, s) in states.iter().enumerate() {
        println!("  v{v:<4} {s:#018x}");
    }
}

fn diff(path_a: &str, round_a: u64, path_b: &str, round_b: u64) {
    let ja = load(path_a);
    let jb = load(path_b);
    let (ra, sa) = states_at(&ja, round_a);
    let (rb, sb) = states_at(&jb, round_b);
    assert_eq!(
        sa.len(),
        sb.len(),
        "journals were recorded on different graph sizes"
    );
    println!("diff {path_a} @ round {ra} vs {path_b} @ round {rb}:");
    let mut changed = 0usize;
    for (v, (a, b)) in sa.iter().zip(&sb).enumerate() {
        if a != b {
            println!("  v{v:<4} {a:#018x} -> {b:#018x}");
            changed += 1;
        }
    }
    println!("{changed} of {} vertices differ", sa.len());
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args
        .next()
        .expect("subcommand: record|verify|resume|dump|diff");

    let mut out = "run.mfdj".to_string();
    let mut engine = "executor".to_string();
    let mut journal: Option<String> = None;
    let mut journal_b: Option<String> = None;
    let mut rounds = 16u64;
    let mut graph: Option<String> = None;
    let mut every = 4u64;
    let mut loss: Option<f64> = None;
    let mut at: Option<u64> = None;
    let mut round: Option<u64> = None;
    let mut round_b: Option<u64> = None;

    while let Some(arg) = args.next() {
        let mut take = || {
            args.next()
                .unwrap_or_else(|| panic!("{arg} requires an argument"))
        };
        match arg.as_str() {
            "--out" => out = take(),
            "--engine" => engine = take(),
            "--journal" => journal = Some(take()),
            "--journal-b" => journal_b = Some(take()),
            "--rounds" => rounds = take().parse().expect("--rounds takes an integer"),
            "--graph" => graph = Some(take()),
            "--every" => every = take().parse().expect("--every takes an integer"),
            "--loss" => loss = Some(take().parse().expect("--loss takes a probability")),
            "--at" => at = Some(take().parse().expect("--at takes a round number")),
            "--round" => round = Some(take().parse().expect("--round takes a round number")),
            "--round-b" => round_b = Some(take().parse().expect("--round-b takes a round number")),
            other => panic!("unknown argument {other:?} (see the module docs)"),
        }
    }

    match cmd.as_str() {
        "record" => {
            if engine == "faulted" {
                loss = Some(loss.unwrap_or(0.25));
            }
            let spec = RunSpec {
                graph: graph.unwrap_or_else(|| "tri-grid-8x8".to_string()),
                rounds,
                loss,
            };
            record(&out, &engine, &spec, every);
        }
        "verify" => verify(&journal.expect("verify requires --journal")),
        "resume" => resume(
            &journal.expect("resume requires --journal"),
            at,
            graph.as_deref(),
        ),
        "dump" => dump(
            &journal.expect("dump requires --journal"),
            round.expect("dump requires --round"),
        ),
        "diff" => {
            let a = journal.expect("diff requires --journal");
            let b = journal_b.clone().unwrap_or_else(|| a.clone());
            diff(
                &a,
                round.expect("diff requires --round"),
                &b,
                round_b.or(round).expect("diff requires --round"),
            );
        }
        other => panic!("unknown subcommand {other:?}: record|verify|resume|dump|diff"),
    }
}
