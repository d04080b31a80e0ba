//! Shared plumbing for the replay surface: journaled runs of the
//! [`DivergenceProbe`](crate::trace::DivergenceProbe) family and
//! journal-driven resumes, used by the `replay` bin, the
//! `report --section replay` rows and the repo-level integration tests. One
//! definition, so the CI-gated resume-equality assertions and the test
//! suite exercise the same machinery.
//!
//! Every function here pairs a run with its [`Journal`]: the runners journal
//! while running (a checkpoint every `every` sealed rounds, each stamped
//! with the digest head at its round), the resumers decode the nearest
//! checkpoint at-or-below a target round, restore the digest sink alongside
//! the engine state, and continue — the continued chain extends the
//! journal's chain seamlessly, which the callers assert round-for-round.

use std::error::Error;

use mfd_graph::{CsrGraph, Graph};
use mfd_replay::{Journal, JournalError, JournalHeader, Snapshot};
use mfd_runtime::{ExecCheckpoint, ExecutorConfig, NodeProgram, RuntimeError, ShardedExecution};
use mfd_sim::{FaultHook, FaultedRun, LatencyModel, NoFaults, SimCheckpoint, SimConfig, Simulator};
use mfd_trace::{DigestSink, EngineKind, NullSink};

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

fn header(engine: EngineKind, n: usize, seed: u64, every: u64, label: &str) -> JournalHeader {
    JournalHeader {
        engine,
        n: n as u64,
        seed,
        every,
        label: label.to_string(),
    }
}

/// Runs `program` on the synchronous executor, journaling the digest chain
/// and a checkpoint every `every` rounds (clamped to at least 1).
///
/// # Errors
///
/// Propagates the engine failure.
pub fn executor_journal<P>(
    g: &CsrGraph,
    program: &P,
    config: &ExecutorConfig,
    every: u64,
    label: &str,
) -> Result<JournaledRun<ShardedExecution<P::State>>, RuntimeError>
where
    P: NodeProgram,
    P::State: std::hash::Hash + Clone,
    ExecCheckpoint<P::State, P::Msg>: Snapshot,
{
    let mut sink = DigestSink::new();
    let header = header(EngineKind::Executor, g.n(), config.seed, every, label);
    let mut journal = Journal::new(header);
    let exec = crate::sync_executor(config);
    let mut session = exec.start(g, program, &mut sink);
    while let Some(round) = session.step()? {
        if round % every.max(1) == 0 {
            journal.record(round, session.observer(), &session.checkpoint());
        }
    }
    let run = session.finish();
    journal
        .seal(&sink)
        .expect("a freshly journaled run coheres");
    Ok(JournaledRun { journal, sink, run })
}

/// Runs `program` on the event engine under `latency` and `hook` (loss,
/// duplication, slips, crashes; [`mfd_sim::NoFaults`] for a clean network),
/// configuration matched to `config`, journaling the digest chain and a
/// checkpoint at the first consistent cut at least `every` rounds (clamped to
/// at least 1) after the previous one. Wedged runs still journal the rounds
/// they sealed.
///
/// # Errors
///
/// Propagates the engine failure (a wedge is an outcome, not an error).
pub fn sim_journal<P, F>(
    g: &Graph,
    program: &P,
    hook: &F,
    config: &ExecutorConfig,
    latency: LatencyModel,
    every: u64,
    label: &str,
) -> Result<JournaledRun<FaultedRun<P::State>>, RuntimeError>
where
    P: NodeProgram,
    P::State: std::hash::Hash + Clone,
    F: FaultHook,
    SimCheckpoint<P::State, P::Msg>: Snapshot,
{
    let mut sink = DigestSink::new();
    let mut journal = Journal::new(header(EngineKind::Sim, g.n(), config.seed, every, label));
    let sim = Simulator::new(SimConfig::matching(config, latency));
    let mut session = sim.start(g, program, hook, &mut sink)?;
    let every = every.max(1);
    let mut next = every;
    while let Some(round) = session.step()? {
        if round >= next {
            journal.record(round, session.observer(), &session.checkpoint());
            next = round + every;
        }
    }
    let run = session.finish()?;
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

impl<R> Resumed<R> {
    fn new(from_round: u64, sink: DigestSink, run: R) -> Self {
        Resumed {
            from_round,
            rounds_replayed: (sink.sealed_rounds() as u64).saturating_sub(from_round + 1),
            sink,
            run,
        }
    }
}

/// The journal's nearest checkpoint at-or-below `at`, decoded, and the digest
/// sink as it stood when the checkpoint was taken.
fn restore_point<C: Snapshot>(journal: &Journal, at: u64) -> Result<(C, DigestSink), JournalError> {
    let cp = journal.checkpoint_at(at).ok_or(JournalError::Malformed {
        what: "no checkpoint at or below the requested round",
    })?;
    Ok((journal.decode_checkpoint(cp)?, Journal::restore_sink(cp)))
}

/// Resumes an executor run from the journal's nearest checkpoint at-or-below
/// `at`, continuing the digest chain from the restored sink.
///
/// # Errors
///
/// A [`JournalError`] when no checkpoint exists at-or-below `at` or the
/// payload does not decode; the engine's [`RuntimeError`] when the checkpoint
/// does not fit `g` (`CheckpointMismatch`) or the continued run fails.
pub fn resume_executor<P>(
    journal: &Journal,
    at: u64,
    g: &CsrGraph,
    program: &P,
    config: &ExecutorConfig,
) -> Result<Resumed<ShardedExecution<P::State>>, Box<dyn Error>>
where
    P: NodeProgram,
    P::State: std::hash::Hash + Clone,
    ExecCheckpoint<P::State, P::Msg>: Snapshot,
{
    let (restored, mut sink): (ExecCheckpoint<P::State, P::Msg>, _) = restore_point(journal, at)?;
    let from_round = restored.round;
    let exec = crate::sync_executor(config);
    let mut session = exec.restore(g, program, restored, &mut sink)?;
    while session.step()?.is_some() {}
    let run = session.finish();
    Ok(Resumed::new(from_round, sink, run))
}

/// Resumes an event-engine run from the journal's nearest checkpoint
/// at-or-below `at`, under the `hook` it was recorded with — fates are pure in
/// `(seed, edge, round, index)`, so the continuation meets the same fate
/// sequence.
///
/// # Errors
///
/// As [`resume_executor`].
pub fn resume_sim<P, F>(
    journal: &Journal,
    at: u64,
    g: &Graph,
    program: &P,
    hook: &F,
    config: &ExecutorConfig,
    latency: LatencyModel,
) -> Result<Resumed<FaultedRun<P::State>>, Box<dyn Error>>
where
    P: NodeProgram,
    P::State: std::hash::Hash + Clone,
    F: FaultHook,
    SimCheckpoint<P::State, P::Msg>: Snapshot,
{
    let (restored, mut sink): (SimCheckpoint<P::State, P::Msg>, _) = restore_point(journal, at)?;
    let from_round = restored.round;
    let sim = Simulator::new(SimConfig::matching(config, latency));
    let mut session = sim.restore(g, program, hook, restored, &mut sink)?;
    while session.step()?.is_some() {}
    let run = session.finish()?;
    Ok(Resumed::new(from_round, sink, run))
}

/// What time travel returns: the round reached and the vertex states there.
pub type StatesAt<S> = Result<(u64, Vec<S>), Box<dyn Error>>;

/// Vertex states of a journaled executor run at round `target`, stepped to
/// from the journal's nearest checkpoint at-or-below it (from the start when
/// the target precedes every checkpoint). Returns `(round, states)`; the
/// round is `journal.rounds()` if the run ends before `target`.
///
/// # Errors
///
/// As [`resume_executor`].
pub fn executor_states_at<P>(
    journal: &Journal,
    target: u64,
    g: &CsrGraph,
    program: &P,
    config: &ExecutorConfig,
) -> StatesAt<P::State>
where
    P: NodeProgram,
    ExecCheckpoint<P::State, P::Msg>: Snapshot,
{
    let exec = crate::sync_executor(config);
    let mut sink = NullSink;
    let cp = journal.checkpoint_at(target);
    let mut reached = cp.map_or(0, |cp| cp.round);
    let mut session = match cp {
        Some(cp) => exec.restore(g, program, journal.decode_checkpoint(cp)?, &mut sink)?,
        None => exec.start(g, program, &mut sink),
    };
    while reached < target {
        match session.step()? {
            Some(round) => reached = round,
            None => return Ok((journal.rounds(), session.finish().states)),
        }
    }
    Ok((reached, session.finish().states))
}

/// [`executor_states_at`] for a clean event-engine journal. Checkpoints are
/// consistent cuts between ticks and a cut at exactly `target` may not
/// exist: the round returned is the nearest cut **at or after** it. The
/// engine seals its last round in `finish`, not at a tick, so past the last
/// cut the answer is the run's final states at `journal.rounds()`.
///
/// # Errors
///
/// As [`resume_executor`].
pub fn sim_states_at<P>(
    journal: &Journal,
    target: u64,
    g: &Graph,
    program: &P,
    config: &ExecutorConfig,
    latency: LatencyModel,
) -> StatesAt<P::State>
where
    P: NodeProgram,
    P::State: Clone,
    SimCheckpoint<P::State, P::Msg>: Snapshot,
{
    let sim = Simulator::new(SimConfig::matching(config, latency));
    let mut sink = NullSink;
    let cp = journal.checkpoint_at(target);
    let mut reached = cp.map_or(0, |cp| cp.round);
    let mut session = match cp {
        Some(cp) => {
            let restored = journal.decode_checkpoint(cp)?;
            sim.restore(g, program, &NoFaults, restored, &mut sink)?
        }
        None => sim.start(g, program, &NoFaults, &mut sink)?,
    };
    while reached < target {
        match session.step()? {
            Some(round) => reached = round,
            None => return Ok((journal.rounds(), session.finish()?.run.states)),
        }
    }
    Ok((reached, session.checkpoint().states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DivergenceProbe;
    use mfd_graph::generators;

    #[test]
    fn journaled_resume_extends_the_chain_on_both_engines() {
        let g = generators::wheel(16);
        let csr = CsrGraph::from_graph(&g);
        let cfg = ExecutorConfig::default();
        let probe = DivergenceProbe::clean(10);

        let full = executor_journal(&csr, &probe, &cfg, 3, "wheel-16/probe").unwrap();
        assert!(!full.journal.checkpoints.is_empty());
        for cp in &full.journal.checkpoints {
            let resumed = resume_executor(&full.journal, cp.round, &csr, &probe, &cfg).unwrap();
            assert_eq!(resumed.from_round, cp.round);
            assert_eq!(resumed.sink.chain(), full.sink.chain());
            assert_eq!(resumed.run.states, full.run.states);
        }

        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
        let full = sim_journal(
            &g,
            &probe,
            &NoFaults,
            &cfg,
            latency.clone(),
            3,
            "wheel-16/probe",
        )
        .unwrap();
        assert!(!full.journal.checkpoints.is_empty());
        for cp in &full.journal.checkpoints {
            let resumed = resume_sim(
                &full.journal,
                cp.round,
                &g,
                &probe,
                &NoFaults,
                &cfg,
                latency.clone(),
            )
            .unwrap();
            assert_eq!(resumed.sink.chain(), full.sink.chain());
            assert_eq!(resumed.run.run.states, full.run.run.states);
            assert_eq!(resumed.run.run.makespan, full.run.run.makespan);
        }
    }
}
