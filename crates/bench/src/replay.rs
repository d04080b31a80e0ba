//! Shared plumbing for the replay surface: journaled runs of the
//! [`DivergenceProbe`](crate::trace::DivergenceProbe) family, journal-driven
//! resumes and time travel, and the label a `mfd-debug replay record` journal
//! carries — used by `mfd-debug`, the `report --section replay`
//! rows and the repo-level integration tests. One definition, so the
//! CI-gated resume-equality assertions and the test suite exercise the same
//! machinery.
//!
//! [`journal`], [`resume`] and [`states_at`] are written once against
//! [`SessionEngine`]: the executor, or an `mfd_sim::SimEngine` (simulator
//! plus fault hook). Checkpoints are stamped with the digest head at their
//! round, and a resume restores the digest sink alongside the engine state,
//! so the continued chain extends the journal's — which the callers assert
//! round-for-round.

use std::error::Error;
use std::hash::Hash;

use mfd_graph::Graph;
use mfd_replay::{Journal, JournalError, JournalHeader, Snapshot};
use mfd_runtime::{NodeProgram, RuntimeError, SessionEngine};
use mfd_trace::{DigestSink, NullSink};

/// The run a `mfd-debug replay record` journal's label describes:
/// `<graph>;rounds=<N>;mode=<clean|faulted:P>`, so every later reader
/// reconstructs the run from the journal alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The graph the run was recorded on, as a [`crate::parse_graph`] spec.
    pub graph: String,
    /// The probe's round count.
    pub rounds: u64,
    /// `None` for a clean probe run, `Some(p)` for `Reliable<probe>` under
    /// i.i.d. loss with probability `p`.
    pub loss: Option<f64>,
}

impl RunSpec {
    /// The label `mfd-debug replay record` writes.
    pub fn label(&self) -> String {
        let mode = match self.loss {
            None => "clean".to_string(),
            Some(p) => format!("faulted:{p}"),
        };
        format!("{};rounds={};mode={}", self.graph, self.rounds, mode)
    }

    /// Parses a journal's label.
    ///
    /// # Errors
    ///
    /// A one-line message for a label `mfd-debug replay record` did not write.
    pub(crate) fn parse(label: &str) -> Result<RunSpec, String> {
        let fields = || {
            let mut parts = label.split(';');
            let graph = parts.next()?.to_string();
            let rounds = parts.next()?.strip_prefix("rounds=")?.parse().ok()?;
            let loss = match parts.next()?.strip_prefix("mode=")? {
                "clean" => None,
                other => Some(other.strip_prefix("faulted:")?.parse().ok()?),
            };
            Some(RunSpec {
                graph,
                rounds,
                loss,
            })
        };
        fields().ok_or_else(|| {
            format!("journal label {label:?} is not <graph>;rounds=<N>;mode=<clean|faulted:P>")
        })
    }
}

/// Reads and verifies the `mfd-debug replay record` journal at `path`, and parses the
/// run its label describes.
///
/// # Errors
///
/// A one-line message when the file cannot be read, does not load, or
/// carries a label `mfd-debug replay record` did not write.
pub fn load(path: &str) -> Result<(Journal, RunSpec), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read journal {path:?}: {e}"))?;
    let journal =
        Journal::from_bytes(&bytes).map_err(|e| format!("cannot load journal {path:?}: {e}"))?;
    let spec = RunSpec::parse(&journal.header.label)?;
    Ok((journal, spec))
}

/// A journal paired with the digest sink that wrote it — the sink holds the
/// full chain for round-for-round comparisons.
pub struct JournaledRun<R> {
    /// The sealed journal (checkpoints + chain, already verified).
    pub journal: Journal,
    /// The digest sink after the run.
    pub sink: DigestSink,
    /// The engine's result.
    pub run: R,
}

/// Runs `program` on `engine`, journaling the digest chain and a checkpoint
/// at the first round at least `every` (clamped to at least 1) past the
/// previous one — on the executor, exactly every `every` rounds.
///
/// # Errors
///
/// Propagates the engine failure, a blown round budget included.
pub fn journal<E, P>(
    engine: &E,
    g: &Graph,
    program: &P,
    every: u64,
    label: &str,
) -> Result<JournaledRun<E::Run>, RuntimeError>
where
    E: SessionEngine<P>,
    P: NodeProgram,
    P::State: Hash + Clone,
    E::Checkpoint: Snapshot,
{
    let mut sink = DigestSink::new();
    let mut journal = Journal::new(JournalHeader {
        engine: E::KIND,
        n: g.n() as u64,
        seed: engine.seed(),
        every,
        label: label.to_string(),
    });
    let every = every.max(1);
    let mut next = every;
    let mut session = engine.open(g, program, None, &mut sink)?;
    while let Some(round) = E::step(&mut session)? {
        if round >= next {
            journal
                .record(round, E::observer(&session), &E::checkpoint(&session))
                .expect("a stepped round is sealed and past the last checkpoint");
            next = round + every;
        }
    }
    let run = E::finish(session)?;
    journal
        .seal(&sink)
        .expect("a freshly journaled run coheres");
    Ok(JournaledRun { journal, sink, run })
}

/// A resume continued from a journal's checkpoint.
pub struct Resumed<R> {
    /// The checkpoint round the resume started from.
    pub from_round: u64,
    /// Rounds the resumed engine re-executed (sealed after the restore).
    pub rounds_replayed: u64,
    /// The continued digest sink: its chain must equal the original run's,
    /// round for round — asserted by every caller.
    pub sink: DigestSink,
    /// The engine's result.
    pub run: R,
}

/// Resumes a journaled run on `engine` from the journal's nearest checkpoint
/// at-or-below `at`, continuing the digest chain from the restored sink. The
/// engine must be the one the journal was recorded on — an event engine under
/// the same fault hook: fates are pure in `(seed, edge, round, index)`, so the
/// continuation meets the same fate sequence.
///
/// # Errors
///
/// A [`JournalError`] when no checkpoint exists at-or-below `at` or the
/// payload does not decode; the engine's [`RuntimeError`] when the checkpoint
/// does not fit `g` (`CheckpointMismatch`) or the continued run fails.
pub fn resume<E, P>(
    engine: &E,
    g: &Graph,
    program: &P,
    journal: &Journal,
    at: u64,
) -> Result<Resumed<E::Run>, Box<dyn Error>>
where
    E: SessionEngine<P>,
    P: NodeProgram,
    P::State: Hash,
    E::Checkpoint: Snapshot,
{
    let cp = journal.checkpoint_at(at).ok_or(JournalError::Malformed {
        what: "no checkpoint at or below the requested round",
    })?;
    let restored = journal.decode_checkpoint(cp)?;
    let mut sink = Journal::restore_sink(cp);
    let mut session = engine.open(g, program, Some(restored), &mut sink)?;
    while E::step(&mut session)?.is_some() {}
    let run = E::finish(session)?;
    Ok(Resumed {
        from_round: cp.round,
        rounds_replayed: (sink.sealed_rounds() as u64).saturating_sub(cp.round + 1),
        sink,
        run,
    })
}

/// What time travel returns: the round reached and the vertex states there.
pub type StatesAt<S> = Result<(u64, Vec<S>), Box<dyn Error>>;

/// Vertex states of a journaled run at round `target`, stepped to from the
/// journal's nearest checkpoint at-or-below it (from the start when the
/// target precedes every checkpoint). Returns `(round, states)`. On the event
/// engine a step may seal several rounds, so the round is the nearest cut
/// **at or after** `target`; past the last cut (the event engine seals its
/// last round in `finish`), and on any engine past the run's end, it is
/// `journal.rounds()` with the final states.
///
/// # Errors
///
/// As [`resume`].
pub fn states_at<E, P>(
    engine: &E,
    g: &Graph,
    program: &P,
    journal: &Journal,
    target: u64,
) -> StatesAt<P::State>
where
    E: SessionEngine<P>,
    P: NodeProgram,
    P::State: Clone,
    E::Checkpoint: Snapshot,
{
    let cp = journal.checkpoint_at(target);
    let from = cp.map(|cp| journal.decode_checkpoint(cp)).transpose()?;
    let mut reached = cp.map_or(0, |cp| cp.round);
    let mut sink = NullSink;
    let mut session = engine.open(g, program, from, &mut sink)?;
    while reached < target {
        match E::step(&mut session)? {
            Some(round) => reached = round,
            None => return Ok((journal.rounds(), E::cut(E::checkpoint(&session)).1)),
        }
    }
    Ok(E::cut(E::checkpoint(&session)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DivergenceProbe;
    use mfd_graph::generators;
    use mfd_runtime::ExecutorConfig;
    use mfd_sim::{LatencyModel, NoFaults};

    /// Resumes a journaled probe run from every checkpoint, asserting each
    /// continued chain and final states equal to the uninterrupted run's;
    /// returns that run and the resumed ones.
    fn resumes_from_every_checkpoint<E>(engine: &E) -> (E::Run, Vec<E::Run>)
    where
        E: SessionEngine<DivergenceProbe>,
        E::Checkpoint: Snapshot,
    {
        let g = generators::wheel(16);
        let probe = DivergenceProbe::clean(10);
        let full = journal(engine, &g, &probe, 3, "wheel-16/probe").unwrap();
        assert!(!full.journal.checkpoints.is_empty());
        let resumed = full.journal.checkpoints.iter().map(|cp| {
            let resumed = resume(engine, &g, &probe, &full.journal, cp.round).unwrap();
            assert_eq!(resumed.from_round, cp.round);
            assert_eq!(resumed.sink.chain(), full.sink.chain());
            assert_eq!(E::outcome(&resumed.run).0, E::outcome(&full.run).0);
            resumed.run
        });
        let resumed = resumed.collect();
        (full.run, resumed)
    }

    #[test]
    fn journaled_resume_extends_the_chain_on_both_engines() {
        let cfg = ExecutorConfig::default();
        resumes_from_every_checkpoint(&crate::sync_executor(&cfg));
        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
        let sim = crate::sim_engine(&cfg, latency, NoFaults);
        let (full, resumed) = resumes_from_every_checkpoint(&sim);
        for run in resumed {
            assert_eq!(run.makespan, full.makespan);
        }
    }
}
