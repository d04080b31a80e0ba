//! The step-able session shape both engines share, as one trait.

use mfd_congest::RoundMeter;
use mfd_graph::Graph;
use mfd_trace::{EngineKind, RunObserver};

use crate::{NodeCtx, NodeProgram, RuntimeError};

/// An engine whose runs of `P` can be held at a round boundary (on the event
/// engine: a consistent cut), then stepped, checkpointed and finished — the
/// one shape journaling, resuming, time travel and digest chains are written
/// against.
///
/// A session borrows its engine, graph, program and observer, so the value it
/// opens from implements the trait — [`crate::ShardedExecutor`], and
/// `mfd_sim::SimEngine` (the simulator paired with its fault hook) — for
/// every observer at once. The verbs (`E::step(&mut session)`) are generic
/// code's entry point; both session types have them as inherent methods too,
/// where `finish` keeps each engine's own report.
pub trait SessionEngine<P: NodeProgram> {
    /// The round semantics a journal of this engine's runs records.
    const KIND: EngineKind;

    /// A run held at a round boundary, observed by `O`.
    type Session<'a, O: RunObserver<P::State> + 'a>
    where
        Self: 'a,
        P: 'a;

    /// The complete loop state at a round boundary, as plain data.
    type Checkpoint;

    /// What a finished run reports.
    type Run;

    /// The seed every per-vertex random stream derives from.
    fn seed(&self) -> u64;

    /// Starts a run (`from = None`: round 0 sealed) or continues one from a
    /// checkpoint, sealing nothing again (restore the observer alongside).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] when `from` does not fit `g`;
    /// [`RuntimeError::Model`] if the event engine's first tick violates it.
    fn open<'a, O: RunObserver<P::State> + 'a>(
        &'a self,
        g: &'a Graph,
        program: &'a P,
        from: Option<Self::Checkpoint>,
        observer: &'a mut O,
    ) -> Result<Self::Session<'a, O>, RuntimeError>;

    /// Runs to the next boundary that sealed a round (one on the executor,
    /// one or more on the event engine) and returns it; `None` once over.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] (on the executor also
    /// [`RuntimeError::RoundLimit`]); an error ends the session.
    fn step<O: RunObserver<P::State>>(
        session: &mut Self::Session<'_, O>,
    ) -> Result<Option<u64>, RuntimeError>;

    /// The complete loop state after the last sealed round.
    fn checkpoint<O: RunObserver<P::State>>(session: &Self::Session<'_, O>) -> Self::Checkpoint
    where
        P::State: Clone;

    /// The observer (a journal stamps checkpoints with its digest head).
    fn observer<'s, O: RunObserver<P::State>>(session: &'s Self::Session<'_, O>) -> &'s O;

    /// Ends the session and returns the run as it stands.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RoundLimit`] if a vertex blew the round budget (under
    /// any fault hook); [`RuntimeError::Model`] if a flushed round violates
    /// the model.
    fn finish<O: RunObserver<P::State>>(
        session: Self::Session<'_, O>,
    ) -> Result<Self::Run, RuntimeError>;

    /// The round a checkpoint was taken after, and every vertex's state there.
    fn cut(checkpoint: Self::Checkpoint) -> (u64, Vec<P::State>);

    /// A finished run's final vertex states and the meter that accounted it.
    fn outcome(run: &Self::Run) -> (&[P::State], &RoundMeter);
}

/// Asks [`NodeProgram::fits`] of every vertex state a checkpoint carries
/// (`states` in vertex order, one per vertex of `g`), with contexts at
/// `round` — the furthest round any of them has run: the check both engines'
/// [`SessionEngine::open`] make before they adopt a checkpoint.
///
/// # Errors
///
/// [`RuntimeError::CheckpointMismatch`] with `what: "program state"`, naming
/// the first vertex whose state does not fit (`expected`) and its degree in
/// `g` (`found`).
pub fn check_fits<P: NodeProgram>(
    g: &Graph,
    program: &P,
    round: u64,
    seed: u64,
    states: &[P::State],
) -> Result<(), RuntimeError> {
    let unfit = |v: usize| {
        let ctx = NodeCtx::new(v, g.n(), round, g.neighbors(v), seed);
        !program.fits(&ctx, &states[v])
    };
    match (0..g.n()).find(|&v| unfit(v)) {
        Some(v) => Err(RuntimeError::CheckpointMismatch {
            what: "program state",
            expected: v as u64,
            found: g.degree(v) as u64,
        }),
        None => Ok(()),
    }
}
