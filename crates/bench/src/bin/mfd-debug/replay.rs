//! `mfd-debug replay`, the time-travel debugger over `mfd-replay` journals:
//! record a journaled run, verify a journal's digest chain, resume from a
//! checkpoint (asserting bit-identical continuation), and dump/diff vertex
//! states at arbitrary rounds without re-running from scratch.
//!
//! ```text
//! mfd-debug replay record --out run.mfdj [--engine executor|sim|faulted] \
//!        [--rounds 16] [--graph tri-grid-8x8] [--every 4] [--loss 0.25]
//! mfd-debug replay verify --journal run.mfdj
//! mfd-debug replay resume --journal run.mfdj [--at R] [--graph G]
//! mfd-debug replay dump   --journal run.mfdj --round R
//! mfd-debug replay diff   --journal run.mfdj --round R1 --round-b R2 [--journal-b other.mfdj]
//! ```
//!
//! Every run is the [`mfd_bench::trace::DivergenceProbe`] under the default
//! executor configuration. A journal's label ([`mfd_bench::replay::RunSpec`]:
//! `<graph>;rounds=<N>;mode=<clean|faulted:P>`) names its run, so every
//! later subcommand rebuilds it from the journal alone, on the engine the
//! journal names: `sim` and `faulted` run the event engine at `Uniform{1,3}`
//! link latency, `faulted` with the probe wrapped in [`mfd_faults::Reliable`]
//! under i.i.d. loss.
//!
//! `resume` restores the nearest checkpoint at-or-below `--at` (default: the
//! last checkpoint), re-executes the suffix, and asserts the continued
//! digest chain equals the journal's round for round — the bit-identical
//! resume guarantee, checked on every invocation. `--graph` overrides the
//! label's graph; a checkpoint that does not fit it is bad data.
//!
//! `dump` steps from the nearest checkpoint below the target round to it.
//! On the executor rounds are exact; on the event engine checkpoints are
//! consistent cuts between ticks, so `dump` may report the nearest cut
//! **at or after** `R`, and says so. `dump`/`diff` decode plain probe
//! states: `faulted` journals, which carry ARQ transport state, support
//! `verify`/`resume` only.

use mfd_bench::replay::{self, RunSpec};
use mfd_bench::trace::DivergenceProbe;
use mfd_graph::Graph;
use mfd_runtime::RuntimeError;
use mfd_trace::{first_divergence, EngineKind};

use crate::cli::{self, on_engine, Exit, Flags};

pub(crate) fn main(args: &[String]) {
    let (sub, usage, rest) = cli::subcommand(
        "replay",
        args,
        &[
            (
                "record",
                "--out <file> --engine <executor|sim|faulted> --rounds <n> \
                 --graph <spec> --every <n> --loss <p>",
            ),
            ("verify", "--journal <file>"),
            ("resume", "--journal <file> --at <round> --graph <spec>"),
            ("dump", "--journal <file> --round <round>"),
            (
                "diff",
                "--journal <file> --round <round> --round-b <round> --journal-b <file>",
            ),
        ],
    );
    let flags = Flags::parse(&format!("replay {sub}"), usage, rest);
    let missing = |flag| -> ! { Exit::Usage.fail(format!("replay {sub} requires {flag}")) };
    let journal = || {
        flags
            .text("--journal")
            .unwrap_or_else(|| missing("--journal"))
    };
    let round = || flags.num("--round").unwrap_or_else(|| missing("--round"));
    let graph = flags.text("--graph");
    let g = graph.map(|spec| cli::graph(spec, Exit::Usage));
    match sub {
        "record" => {
            let engine = flags.text("--engine").unwrap_or("executor");
            let (kind, loss) = match (engine, flags.num::<f64>("--loss")) {
                ("executor", None) => (EngineKind::Executor, None),
                ("sim", None) => (EngineKind::Sim, None),
                ("faulted", loss) => (EngineKind::Sim, Some(loss.unwrap_or(0.25))),
                _ => Exit::Usage
                    .fail("--engine must be executor, sim or faulted; only faulted takes --loss"),
            };
            let spec = RunSpec {
                graph: graph.unwrap_or("tri-grid-8x8").to_string(),
                rounds: flags.rounds().unwrap_or(16),
                loss,
            };
            let (out, every) = (
                flags.text("--out").unwrap_or("run.mfdj"),
                flags.num("--every"),
            );
            let g = g.unwrap_or_else(|| cli::graph(&spec.graph, Exit::Usage));
            record(out, engine, kind, &spec, &g, every.unwrap_or(4));
        }
        "verify" => verify(journal()),
        "resume" => resume(journal(), flags.num("--at"), g),
        "dump" => dump(journal(), round()),
        _ => {
            let (a, round) = (journal(), round());
            let b = flags.text("--journal-b").unwrap_or(a);
            diff(a, round, b, flags.num("--round-b").unwrap_or(round));
        }
    }
}

fn record(out: &str, engine: &str, kind: EngineKind, spec: &RunSpec, g: &Graph, every: u64) {
    let label = spec.label();
    let probe = DivergenceProbe::clean(spec.rounds);
    let journaled = on_engine!(kind, spec.loss, probe, |engine, program| {
        replay::journal(engine, g, program, every, &label).map(|j| j.journal)
    });
    let journal = match journaled {
        Ok(journal) => journal,
        Err(RuntimeError::RoundLimit { .. }) if spec.loss.is_some() => Exit::Usage
            .fail("the faulted recording wedged; raise --rounds headroom or lower --loss"),
        Err(e) => Exit::Data.fail(format!("the recording failed: {e}")),
    };
    let bytes = journal.to_bytes();
    std::fs::write(out, &bytes)
        .unwrap_or_else(|e| Exit::Data.fail(format!("cannot write {out:?}: {e}")));
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
    let (journal, spec) = replay::load(path).unwrap_or_else(|e| Exit::Data.fail(e));
    if let Err(e) = journal.verify() {
        Exit::Data.fail(format!("journal {path:?} does not verify: {e}"));
    }
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

/// Resumes the journal at `path` on `g`, or else on the graph its label names.
fn resume(path: &str, at: Option<u64>, g: Option<Graph>) {
    let (journal, spec) = replay::load(path).unwrap_or_else(|e| Exit::Data.fail(e));
    let g = g.unwrap_or_else(|| cli::graph(&spec.graph, Exit::Data));
    let at = at.unwrap_or_else(|| match journal.checkpoints.last() {
        Some(cp) => cp.round,
        None => Exit::Data.fail(format!(
            "journal {path:?} has no checkpoints to resume from"
        )),
    });
    let probe = DivergenceProbe::clean(spec.rounds);
    let resumed = on_engine!(
        journal.header.engine,
        spec.loss,
        probe,
        |engine, program| {
            replay::resume(engine, &g, program, &journal, at)
                .map(|r| (r.from_round, r.rounds_replayed, r.sink.chain()))
        }
    );
    let (from_round, replayed, chain) = resumed
        .unwrap_or_else(|e| Exit::Data.fail(format!("cannot resume {path:?} at round {at}: {e}")));
    if let Some(round) = first_divergence(&chain, journal.chain()) {
        Exit::Data.fail(format!(
            "resumed digest chain of {path:?} departs from the journal's at round {round}"
        ));
    }
    println!(
        "resume OK: restored round {from_round}, replayed {replayed} rounds, \
         chain bit-identical over all {} rounds (head {:016x})",
        journal.rounds(),
        chain.last().copied().unwrap_or_default(),
    );
}

/// Vertex states at a target round, reconstructed from the journal's nearest
/// checkpoint (or a fresh run when the target precedes every checkpoint) and
/// printed as hex. Returns `(round_reached, states)`; on the event engine
/// `round_reached` is the nearest consistent cut at-or-after the target.
fn states_at_round(path: &str, target: u64) -> (u64, Vec<String>) {
    let (journal, spec) = replay::load(path).unwrap_or_else(|e| Exit::Data.fail(e));
    if spec.loss.is_some() {
        Exit::Data.fail(
            "dump/diff decode plain probe states; faulted journals support verify/resume only",
        );
    }
    if target < 1 || target > journal.rounds() {
        Exit::Usage.fail(format!(
            "round {target} outside this journal's 1..={}",
            journal.rounds()
        ));
    }
    let g = cli::graph(&spec.graph, Exit::Data);
    let probe = DivergenceProbe::clean(spec.rounds);
    let states = on_engine!(journal.header.engine, None, probe, |engine, program| {
        let reached = replay::states_at(engine, &g, program, &journal, target);
        reached.map(|(round, states)| {
            let hex = states.iter().map(|s| format!("{s:#018x?}"));
            (round, hex.collect())
        })
    });
    states.unwrap_or_else(|e| Exit::Data.fail(format!("cannot reach round {target}: {e}")))
}

fn dump(path: &str, round: u64) {
    let (reached, states) = states_at_round(path, round);
    if reached == round {
        println!("vertex states at round {round} ({path}):");
    } else {
        println!(
            "no exact cut at round {round} on the event engine; \
             nearest consistent cut at round {reached} ({path}):"
        );
    }
    for (v, s) in states.iter().enumerate() {
        println!("  v{v:<4} {s}");
    }
}

fn diff(path_a: &str, round_a: u64, path_b: &str, round_b: u64) {
    let (ra, sa) = states_at_round(path_a, round_a);
    let (rb, sb) = states_at_round(path_b, round_b);
    if sa.len() != sb.len() {
        Exit::Data.fail("journals were recorded on different graph sizes");
    }
    println!("diff {path_a} @ round {ra} vs {path_b} @ round {rb}:");
    let mut changed = 0usize;
    for (v, (a, b)) in sa.iter().zip(&sb).enumerate() {
        if a != b {
            println!("  v{v:<4} {a} -> {b}");
            changed += 1;
        }
    }
    println!("{changed} of {} vertices differ", sa.len());
}
